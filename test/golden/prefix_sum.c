/* Generated by psc from PS module Prefix. */
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

void Prefix(
    const double *X,
    int N,
    double *S)
{
  const int X_lo0 = 1;
  const int X_n0 = (N) - (1) + 1;
  const int X_w0 = X_n0;
  const size_t X_s0 = 1;
  const size_t X_size = X_s0 * (size_t)X_w0;
  #define X_AT(i0) X[((size_t)((i0) - X_lo0)) * X_s0]
  const int S_lo0 = 1;
  const int S_n0 = (N) - (1) + 1;
  const int S_w0 = S_n0;
  const size_t S_s0 = 1;
  const size_t S_size = S_s0 * (size_t)S_w0;
  #define S_AT(i0) S[((size_t)((i0) - S_lo0)) * S_s0]
  const int Acc_lo0 = 1;
  const int Acc_n0 = (N) - (1) + 1;
  const int Acc_w0 = Acc_n0;
  const size_t Acc_s0 = 1;
  const size_t Acc_size = Acc_s0 * (size_t)Acc_w0;
  #define Acc_AT(i0) Acc[((size_t)((i0) - Acc_lo0)) * Acc_s0]
  double *Acc = (double *)calloc(Acc_size, sizeof(double));

  Acc_AT(1) = X_AT(1);  /* eq.1 */
  for (int I2 = 2; I2 <= N; I2++) {  /* DO (iterative) */
    Acc_AT(I2) = (Acc_AT((I2 - 1)) + X_AT(I2));  /* eq.2 */
  }
  #pragma omp parallel for
  for (int I = 1; I <= N; I++) {  /* DOALL (concurrent) */
    S_AT(I) = Acc_AT(I);  /* eq.3 */
  }

  free(Acc);
  #undef X_AT
  #undef S_AT
  #undef Acc_AT
}
