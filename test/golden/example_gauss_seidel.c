/* Generated by psc from PS module Relaxation. */
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

void Relaxation(
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
  for (int I = 0; I <= (M + 1); I++) {  /* DOALL (concurrent) */
    for (int J = 0; J <= (M + 1); J++) {  /* DOALL (concurrent) */
      A_AT(1, I, J) = InitialA_AT(I, J);  /* eq.1 */
    }
  }
  for (int K = 2; K <= maxK; K++) {  /* DO (iterative) */
    for (int I = 0; I <= (M + 1); I++) {  /* DO (iterative) */
      for (int J = 0; J <= (M + 1); J++) {  /* DO (iterative) */
        A_AT(K, I, J) = (((((I == 0) || (J == 0)) || (I == (M + 1))) || (J == (M + 1))) ? A_AT((K - 1), I, J) : ((((A_AT(K, I, (J - 1)) + A_AT(K, (I - 1), J)) + A_AT((K - 1), I, (J + 1))) + A_AT((K - 1), (I + 1), J)) / 4));  /* eq.3 */
      }
    }
  }
  #pragma omp parallel for
  for (int I = 0; I <= (M + 1); I++) {  /* DOALL (concurrent) */
    for (int J = 0; J <= (M + 1); J++) {  /* DOALL (concurrent) */
      newA_AT(I, J) = A_AT(maxK, I, J);  /* eq.2 */
    }
  }

  free(A);
  #undef InitialA_AT
  #undef newA_AT
  #undef A_AT
}
