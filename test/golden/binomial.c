/* Generated by psc from PS module Binomial. */
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

void Binomial(
    int N,
    int *P)
{
  const int P_lo0 = 0;
  const int P_n0 = (N) - (0) + 1;
  const int P_w0 = P_n0;
  const size_t P_s0 = 1;
  const size_t P_size = P_s0 * (size_t)P_w0;
  #define P_AT(i0) P[((size_t)((i0) - P_lo0)) * P_s0]
  const int T_lo0 = 0;
  const int T_n0 = (N) - (0) + 1;
  const int T_w0 = 2;  /* virtual dimension: window of 2 planes (sec 3.4) */
  const int T_lo1 = 0;
  const int T_n1 = (N) - (0) + 1;
  const int T_w1 = T_n1;
  const size_t T_s1 = 1;
  const size_t T_s0 = T_s1 * (size_t)T_w1;
  const size_t T_size = T_s0 * (size_t)T_w0;
  #define T_AT(i0, i1) T[((size_t)PS_WRAP((i0) - T_lo0, T_w0)) * T_s0 + ((size_t)((i1) - T_lo1)) * T_s1]
  int *T = (int *)calloc(T_size, sizeof(int));

  #pragma omp parallel for
  for (int R = 0; R <= N; R++) {  /* DOALL (concurrent) */
    T_AT(0, R) = ((R == 0) ? 1 : 0);  /* eq.1 */
  }
  for (int Lvl = 1; Lvl <= N; Lvl++) {  /* DO (iterative) */
    #pragma omp parallel for
    for (int R = 0; R <= N; R++) {  /* DOALL (concurrent) */
      T_AT(Lvl, R) = ((R == 0) ? 1 : (T_AT((Lvl - 1), (R - 1)) + T_AT((Lvl - 1), R)));  /* eq.2 */
    }
  }
  #pragma omp parallel for
  for (int R = 0; R <= N; R++) {  /* DOALL (concurrent) */
    P_AT(R) = T_AT(N, R);  /* eq.3 */
  }

  free(T);
  #undef P_AT
  #undef T_AT
}
