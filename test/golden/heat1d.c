/* Generated by psc from PS module Heat1D. */
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

void Heat1D(
    const double *U0,
    int N,
    int steps,
    double *UT)
{
  const int U0_lo0 = 0;
  const int U0_n0 = ((N + 1)) - (0) + 1;
  const int U0_w0 = U0_n0;
  const size_t U0_s0 = 1;
  const size_t U0_size = U0_s0 * (size_t)U0_w0;
  #define U0_AT(i0) U0[((size_t)((i0) - U0_lo0)) * U0_s0]
  const int UT_lo0 = 0;
  const int UT_n0 = ((N + 1)) - (0) + 1;
  const int UT_w0 = UT_n0;
  const size_t UT_s0 = 1;
  const size_t UT_size = UT_s0 * (size_t)UT_w0;
  #define UT_AT(i0) UT[((size_t)((i0) - UT_lo0)) * UT_s0]
  const int U_lo0 = 1;
  const int U_n0 = (steps) - (1) + 1;
  const int U_w0 = 2;  /* virtual dimension: window of 2 planes (sec 3.4) */
  const int U_lo1 = 0;
  const int U_n1 = ((N + 1)) - (0) + 1;
  const int U_w1 = U_n1;
  const size_t U_s1 = 1;
  const size_t U_s0 = U_s1 * (size_t)U_w1;
  const size_t U_size = U_s0 * (size_t)U_w0;
  #define U_AT(i0, i1) U[((size_t)PS_WRAP((i0) - U_lo0, U_w0)) * U_s0 + ((size_t)((i1) - U_lo1)) * U_s1]
  double *U = (double *)calloc(U_size, sizeof(double));

  #pragma omp parallel for
  for (int X = 0; X <= (N + 1); X++) {  /* DOALL (concurrent) */
    U_AT(1, X) = U0_AT(X);  /* eq.1 */
  }
  for (int T = 2; T <= steps; T++) {  /* DO (iterative) */
    #pragma omp parallel for
    for (int X = 0; X <= (N + 1); X++) {  /* DOALL (concurrent) */
      U_AT(T, X) = (((X == 0) || (X == (N + 1))) ? U_AT((T - 1), X) : (U_AT((T - 1), X) + (0.25 * ((U_AT((T - 1), (X - 1)) - (2.0 * U_AT((T - 1), X))) + U_AT((T - 1), (X + 1))))));  /* eq.3 */
    }
  }
  #pragma omp parallel for
  for (int X = 0; X <= (N + 1); X++) {  /* DOALL (concurrent) */
    UT_AT(X) = U_AT(steps, X);  /* eq.2 */
  }

  free(U);
  #undef U0_AT
  #undef UT_AT
  #undef U_AT
}
