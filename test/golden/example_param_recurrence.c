/* Generated by psc from PS module ParamRecurrence. */
#include <stdlib.h>
#include <stdio.h>
#include <math.h>

#define PS_MIN(a, b) ((a) <= (b) ? (a) : (b))
#define PS_MAX(a, b) ((a) >= (b) ? (a) : (b))
/* Integer division with the interpreter's semantics: a zero divisor
   traps (the raw C operators are undefined there), the quotient
   truncates toward zero and the remainder takes the dividend's sign
   (C99 semantics, matching OCaml's / and mod). */
static inline int PS_DIV(int a, int b) {
  if (b == 0) { fprintf(stderr, "ps runtime error: division by zero\n"); exit(2); }
  return a / b;
}
static inline int PS_MOD(int a, int b) {
  if (b == 0) { fprintf(stderr, "ps runtime error: mod by zero\n"); exit(2); }
  return a % b;
}
/* Euclidean remainder: virtual-dimension subscripts must land inside
   the window even for negative relative indices (sec 3.4). */
#define PS_WRAP(i, w) ((((i) % (w)) + (w)) % (w))

void ParamRecurrence(
    const double *A,
    int N,
    int K,
    double *B)
{
  const int A_lo0 = 1;
  const int A_n0 = (N) - (1) + 1;
  const int A_w0 = A_n0;
  const size_t A_s0 = 1;
  const size_t A_size = A_s0 * (size_t)A_w0;
  #define A_AT(i0) A[((size_t)((i0) - A_lo0)) * A_s0]
  const int B_lo0 = 1;
  const int B_n0 = (N) - (1) + 1;
  const int B_w0 = B_n0;
  const size_t B_s0 = 1;
  const size_t B_size = B_s0 * (size_t)B_w0;
  #define B_AT(i0) B[((size_t)((i0) - B_lo0)) * B_s0]
  const int C_lo0 = 1;
  const int C_n0 = (N) - (1) + 1;
  const int C_w0 = C_n0;
  const size_t C_s0 = 1;
  const size_t C_size = C_s0 * (size_t)C_w0;
  #define C_AT(i0) C[((size_t)((i0) - C_lo0)) * C_s0]
  double *C = (double *)calloc(C_size, sizeof(double));

  #pragma omp parallel for
  for (int Init = 1; Init <= K; Init++) {  /* DOALL (concurrent) */
    C_AT(Init) = A_AT(Init);  /* eq.1 */
  }
  {  /* inspector/executor */
    const int Rest_dist = K;
    if (Rest_dist < 1) { fprintf(stderr, "psc: inspector for loop Rest: dependence distance %d is not positive\n", Rest_dist); exit(2); }
    #pragma omp parallel for
    for (int Rest_grp = 0; Rest_grp < Rest_dist; Rest_grp++) {  /* DOINSPECT(K) */
      for (int Rest = ((K + 1)) + Rest_grp; Rest <= N; Rest += Rest_dist) {
        C_AT(Rest) = (C_AT((Rest - K)) + A_AT(Rest));  /* eq.2 */
      }
    }
  }
  #pragma omp parallel for
  for (int Ipos = 1; Ipos <= N; Ipos++) {  /* DOALL (concurrent) */
    B_AT(Ipos) = C_AT(Ipos);  /* eq.3 */
  }

  free(C);
  #undef A_AT
  #undef B_AT
  #undef C_AT
}
