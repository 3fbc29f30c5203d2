/* Generated by psc from PS module Classify. */
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

/* enumeration Kind */
#define Small 0
#define Medium 1
#define Large 2
void Classify(
    const double *V,
    int N,
    int *C,
    int *nLarge)
{
  const int V_lo0 = 1;
  const int V_n0 = (N) - (1) + 1;
  const int V_w0 = V_n0;
  const size_t V_s0 = 1;
  const size_t V_size = V_s0 * (size_t)V_w0;
  #define V_AT(i0) V[((size_t)((i0) - V_lo0)) * V_s0]
  const int C_lo0 = 1;
  const int C_n0 = (N) - (1) + 1;
  const int C_w0 = C_n0;
  const size_t C_s0 = 1;
  const size_t C_size = C_s0 * (size_t)C_w0;
  #define C_AT(i0) C[((size_t)((i0) - C_lo0)) * C_s0]
  const int Cnt_lo0 = 0;
  const int Cnt_n0 = (N) - (0) + 1;
  const int Cnt_w0 = 2;  /* virtual dimension: window of 2 planes (sec 3.4) */
  const size_t Cnt_s0 = 1;
  const size_t Cnt_size = Cnt_s0 * (size_t)Cnt_w0;
  #define Cnt_AT(i0) Cnt[((size_t)PS_WRAP((i0) - Cnt_lo0, Cnt_w0)) * Cnt_s0]
  int *Cnt = (int *)calloc(Cnt_size, sizeof(int));

  Cnt_AT(0) = 0;  /* eq.2 */
  #pragma omp parallel for
  for (int I = 1; I <= N; I++) {  /* DOALL (concurrent) */
    C_AT(I) = ((V_AT(I) < 0.29999999999999999) ? 0 : ((V_AT(I) < 0.69999999999999996) ? 1 : 2));  /* eq.1 */
  }
  for (int I = 1; I <= N; I++) {  /* DO (iterative) */
    Cnt_AT(I) = (Cnt_AT((I - 1)) + ((C_AT(I) == 2) ? 1 : 0));  /* eq.3 */
  }
  *nLarge = Cnt_AT(N);  /* eq.4 */

  free(Cnt);
  #undef V_AT
  #undef C_AT
  #undef Cnt_AT
}
