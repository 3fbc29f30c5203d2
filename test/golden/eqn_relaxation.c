/* Generated by psc from PS module relaxation. */
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

void relaxation(
    const double *InitialA,
    int M,
    int maxK,
    double *newA)
{
  const int InitialA_lo0 = 0;
  const int InitialA_n0 = ((M + 1)) - (0) + 1;
  const int InitialA_w0 = InitialA_n0;
  const int InitialA_lo1 = 0;
  const int InitialA_n1 = ((M + 1)) - (0) + 1;
  const int InitialA_w1 = InitialA_n1;
  const size_t InitialA_s1 = 1;
  const size_t InitialA_s0 = InitialA_s1 * (size_t)InitialA_w1;
  const size_t InitialA_size = InitialA_s0 * (size_t)InitialA_w0;
  #define InitialA_AT(i0, i1) InitialA[((size_t)((i0) - InitialA_lo0)) * InitialA_s0 + ((size_t)((i1) - InitialA_lo1)) * InitialA_s1]
  const int newA_lo0 = 0;
  const int newA_n0 = ((M + 1)) - (0) + 1;
  const int newA_w0 = newA_n0;
  const int newA_lo1 = 0;
  const int newA_n1 = ((M + 1)) - (0) + 1;
  const int newA_w1 = newA_n1;
  const size_t newA_s1 = 1;
  const size_t newA_s0 = newA_s1 * (size_t)newA_w1;
  const size_t newA_size = newA_s0 * (size_t)newA_w0;
  #define newA_AT(i0, i1) newA[((size_t)((i0) - newA_lo0)) * newA_s0 + ((size_t)((i1) - newA_lo1)) * newA_s1]
  const int A_lo0 = 1;
  const int A_n0 = (maxK) - (1) + 1;
  const int A_w0 = 2;  /* virtual dimension: window of 2 planes (sec 3.4) */
  const int A_lo1 = 0;
  const int A_n1 = ((M + 1)) - (0) + 1;
  const int A_w1 = A_n1;
  const int A_lo2 = 0;
  const int A_n2 = ((M + 1)) - (0) + 1;
  const int A_w2 = A_n2;
  const size_t A_s2 = 1;
  const size_t A_s1 = A_s2 * (size_t)A_w2;
  const size_t A_s0 = A_s1 * (size_t)A_w1;
  const size_t A_size = A_s0 * (size_t)A_w0;
  #define A_AT(i0, i1, i2) A[((size_t)PS_WRAP((i0) - A_lo0, A_w0)) * A_s0 + ((size_t)((i1) - A_lo1)) * A_s1 + ((size_t)((i2) - A_lo2)) * A_s2]
  double *A = (double *)calloc(A_size, sizeof(double));

  #pragma omp parallel for
  for (int i = 0; i <= (M + 1); i++) {  /* DOALL (concurrent) */
    for (int j = 0; j <= (M + 1); j++) {  /* DOALL (concurrent) */
      A_AT(1, i, j) = InitialA_AT(i, j);  /* eq.1 */
    }
  }
  for (int k = 2; k <= maxK; k++) {  /* DO (iterative) */
    #pragma omp parallel for
    for (int i = 0; i <= (M + 1); i++) {  /* DOALL (concurrent) */
      for (int j = 0; j <= (M + 1); j++) {  /* DOALL (concurrent) */
        A_AT(k, i, j) = (((((i == 0) || (j == 0)) || (i == (M + 1))) || (j == (M + 1))) ? A_AT((k - 1), i, j) : ((((A_AT((k - 1), i, (j - 1)) + A_AT((k - 1), (i - 1), j)) + A_AT((k - 1), i, (j + 1))) + A_AT((k - 1), (i + 1), j)) / 4));  /* eq.2 */
      }
    }
  }
  #pragma omp parallel for
  for (int i = 0; i <= (M + 1); i++) {  /* DOALL (concurrent) */
    for (int j = 0; j <= (M + 1); j++) {  /* DOALL (concurrent) */
      newA_AT(i, j) = A_AT(maxK, i, j);  /* eq.3 */
    }
  }

  free(A);
  #undef InitialA_AT
  #undef newA_AT
  #undef A_AT
}
