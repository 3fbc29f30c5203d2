/* Generated by psc from PS module MatMul. */
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

void MatMul(
    const double *A,
    const double *B,
    int N,
    double *C)
{
  const int A_lo0 = 1;
  const int A_n0 = (N) - (1) + 1;
  const int A_w0 = A_n0;
  const int A_lo1 = 1;
  const int A_n1 = (N) - (1) + 1;
  const int A_w1 = A_n1;
  const size_t A_s1 = 1;
  const size_t A_s0 = A_s1 * (size_t)A_w1;
  const size_t A_size = A_s0 * (size_t)A_w0;
  #define A_AT(i0, i1) A[((size_t)((i0) - A_lo0)) * A_s0 + ((size_t)((i1) - A_lo1)) * A_s1]
  const int B_lo0 = 1;
  const int B_n0 = (N) - (1) + 1;
  const int B_w0 = B_n0;
  const int B_lo1 = 1;
  const int B_n1 = (N) - (1) + 1;
  const int B_w1 = B_n1;
  const size_t B_s1 = 1;
  const size_t B_s0 = B_s1 * (size_t)B_w1;
  const size_t B_size = B_s0 * (size_t)B_w0;
  #define B_AT(i0, i1) B[((size_t)((i0) - B_lo0)) * B_s0 + ((size_t)((i1) - B_lo1)) * B_s1]
  const int C_lo0 = 1;
  const int C_n0 = (N) - (1) + 1;
  const int C_w0 = C_n0;
  const int C_lo1 = 1;
  const int C_n1 = (N) - (1) + 1;
  const int C_w1 = C_n1;
  const size_t C_s1 = 1;
  const size_t C_s0 = C_s1 * (size_t)C_w1;
  const size_t C_size = C_s0 * (size_t)C_w0;
  #define C_AT(i0, i1) C[((size_t)((i0) - C_lo0)) * C_s0 + ((size_t)((i1) - C_lo1)) * C_s1]
  const int S_lo0 = 0;
  const int S_n0 = (N) - (0) + 1;
  const int S_w0 = 2;  /* virtual dimension: window of 2 planes (sec 3.4) */
  const int S_lo1 = 1;
  const int S_n1 = (N) - (1) + 1;
  const int S_w1 = S_n1;
  const int S_lo2 = 1;
  const int S_n2 = (N) - (1) + 1;
  const int S_w2 = S_n2;
  const size_t S_s2 = 1;
  const size_t S_s1 = S_s2 * (size_t)S_w2;
  const size_t S_s0 = S_s1 * (size_t)S_w1;
  const size_t S_size = S_s0 * (size_t)S_w0;
  #define S_AT(i0, i1, i2) S[((size_t)PS_WRAP((i0) - S_lo0, S_w0)) * S_s0 + ((size_t)((i1) - S_lo1)) * S_s1 + ((size_t)((i2) - S_lo2)) * S_s2]
  double *S = (double *)calloc(S_size, sizeof(double));

  #pragma omp parallel for
  for (int I = 1; I <= N; I++) {  /* DOALL (concurrent) */
    for (int J = 1; J <= N; J++) {  /* DOALL (concurrent) */
      S_AT(0, I, J) = 0.0;  /* eq.1 */
    }
  }
  for (int K = 1; K <= N; K++) {  /* DO (iterative) */
    #pragma omp parallel for
    for (int I = 1; I <= N; I++) {  /* DOALL (concurrent) */
      for (int J = 1; J <= N; J++) {  /* DOALL (concurrent) */
        S_AT(K, I, J) = (S_AT((K - 1), I, J) + (A_AT(I, K) * B_AT(K, J)));  /* eq.2 */
      }
    }
  }
  #pragma omp parallel for
  for (int I = 1; I <= N; I++) {  /* DOALL (concurrent) */
    for (int J = 1; J <= N; J++) {  /* DOALL (concurrent) */
      C_AT(I, J) = S_AT(N, I, J);  /* eq.3 */
    }
  }

  free(S);
  #undef A_AT
  #undef B_AT
  #undef C_AT
  #undef S_AT
}
