/* Generated by psc from PS module LCS. */
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

void LCS(
    const int *X,
    const int *Y,
    int N,
    int *len)
{
  const int X_lo0 = 1;
  const int X_n0 = (N) - (1) + 1;
  const int X_w0 = X_n0;
  const size_t X_s0 = 1;
  const size_t X_size = X_s0 * (size_t)X_w0;
  #define X_AT(i0) X[((size_t)((i0) - X_lo0)) * X_s0]
  const int Y_lo0 = 1;
  const int Y_n0 = (N) - (1) + 1;
  const int Y_w0 = Y_n0;
  const size_t Y_s0 = 1;
  const size_t Y_size = Y_s0 * (size_t)Y_w0;
  #define Y_AT(i0) Y[((size_t)((i0) - Y_lo0)) * Y_s0]
  const int L_lo0 = 0;
  const int L_n0 = (N) - (0) + 1;
  const int L_w0 = L_n0;
  const int L_lo1 = 0;
  const int L_n1 = (N) - (0) + 1;
  const int L_w1 = L_n1;
  const size_t L_s1 = 1;
  const size_t L_s0 = L_s1 * (size_t)L_w1;
  const size_t L_size = L_s0 * (size_t)L_w0;
  #define L_AT(i0, i1) L[((size_t)((i0) - L_lo0)) * L_s0 + ((size_t)((i1) - L_lo1)) * L_s1]
  int *L = (int *)calloc(L_size, sizeof(int));

  #pragma omp parallel for
  for (int Jz = 0; Jz <= N; Jz++) {  /* DOALL (concurrent) */
    L_AT(0, Jz) = 0;  /* eq.1 */
  }
  #pragma omp parallel for
  for (int Ipos = 1; Ipos <= N; Ipos++) {  /* DOALL (concurrent) */
    L_AT(Ipos, 0) = 0;  /* eq.2 */
  }
  for (int Ipos = 1; Ipos <= N; Ipos++) {  /* DO (iterative) */
    for (int Jpos = 1; Jpos <= N; Jpos++) {  /* DO (iterative) */
      L_AT(Ipos, Jpos) = ((X_AT(Ipos) == Y_AT(Jpos)) ? (L_AT((Ipos - 1), (Jpos - 1)) + 1) : PS_MAX(L_AT((Ipos - 1), Jpos), L_AT(Ipos, (Jpos - 1))));  /* eq.3 */
    }
  }
  *len = L_AT(N, N);  /* eq.4 */

  free(L);
  #undef X_AT
  #undef Y_AT
  #undef L_AT
}
