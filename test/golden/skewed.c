/* Generated by psc from PS module Skewed. */
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

void Skewed(
    const double *Init,
    int M,
    int maxK,
    double *Res)
{
  const int Init_lo0 = 0;
  const int Init_n0 = ((M + 1)) - (0) + 1;
  const int Init_w0 = Init_n0;
  const int Init_lo1 = 0;
  const int Init_n1 = ((M + 1)) - (0) + 1;
  const int Init_w1 = Init_n1;
  const size_t Init_s1 = 1;
  const size_t Init_s0 = Init_s1 * (size_t)Init_w1;
  const size_t Init_size = Init_s0 * (size_t)Init_w0;
  #define Init_AT(i0, i1) Init[((size_t)((i0) - Init_lo0)) * Init_s0 + ((size_t)((i1) - Init_lo1)) * Init_s1]
  const int Res_lo0 = 0;
  const int Res_n0 = ((M + 1)) - (0) + 1;
  const int Res_w0 = Res_n0;
  const int Res_lo1 = 0;
  const int Res_n1 = ((M + 1)) - (0) + 1;
  const int Res_w1 = Res_n1;
  const size_t Res_s1 = 1;
  const size_t Res_s0 = Res_s1 * (size_t)Res_w1;
  const size_t Res_size = Res_s0 * (size_t)Res_w0;
  #define Res_AT(i0, i1) Res[((size_t)((i0) - Res_lo0)) * Res_s0 + ((size_t)((i1) - Res_lo1)) * Res_s1]
  const int W_lo0 = 1;
  const int W_n0 = (maxK) - (1) + 1;
  const int W_w0 = 2;  /* virtual dimension: window of 2 planes (sec 3.4) */
  const int W_lo1 = 0;
  const int W_n1 = ((M + 1)) - (0) + 1;
  const int W_w1 = W_n1;
  const int W_lo2 = 0;
  const int W_n2 = ((M + 1)) - (0) + 1;
  const int W_w2 = W_n2;
  const size_t W_s2 = 1;
  const size_t W_s1 = W_s2 * (size_t)W_w2;
  const size_t W_s0 = W_s1 * (size_t)W_w1;
  const size_t W_size = W_s0 * (size_t)W_w0;
  #define W_AT(i0, i1, i2) W[((size_t)PS_WRAP((i0) - W_lo0, W_w0)) * W_s0 + ((size_t)((i1) - W_lo1)) * W_s1 + ((size_t)((i2) - W_lo2)) * W_s2]
  double *W = (double *)calloc(W_size, sizeof(double));

  #pragma omp parallel for
  for (int I = 0; I <= (M + 1); I++) {  /* DOALL (concurrent) */
    for (int J = 0; J <= (M + 1); J++) {  /* DOALL (concurrent) */
      W_AT(1, I, J) = Init_AT(I, J);  /* eq.1 */
    }
  }
  for (int K = 2; K <= maxK; K++) {  /* DO (iterative) */
    #pragma omp parallel for
    for (int I = 0; I <= (M + 1); I++) {  /* DOALL (concurrent) */
      for (int J = 0; J <= (M + 1); J++) {  /* DOALL (concurrent) */
        W_AT(K, I, J) = (((((I == 0) || (J == 0)) || (I == (M + 1))) || (J == (M + 1))) ? W_AT((K - 1), I, J) : (0.5 * (W_AT((K - 1), (I + 1), J) + W_AT((K - 1), I, (J - 1)))));  /* eq.3 */
      }
    }
  }
  #pragma omp parallel for
  for (int I = 0; I <= (M + 1); I++) {  /* DOALL (concurrent) */
    for (int J = 0; J <= (M + 1); J++) {  /* DOALL (concurrent) */
      Res_AT(I, J) = W_AT(maxK, I, J);  /* eq.2 */
    }
  }

  free(W);
  #undef Init_AT
  #undef Res_AT
  #undef W_AT
}
