/* Generated by psc from PS module Scale. */
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

void Scale(
    const double *G,
    int M,
    double F,
    double *H)
{
  const int G_lo0 = 0;
  const int G_n0 = ((M + 1)) - (0) + 1;
  const int G_w0 = G_n0;
  const int G_lo1 = 0;
  const int G_n1 = ((M + 1)) - (0) + 1;
  const int G_w1 = G_n1;
  const size_t G_s1 = 1;
  const size_t G_s0 = G_s1 * (size_t)G_w1;
  const size_t G_size = G_s0 * (size_t)G_w0;
  #define G_AT(i0, i1) G[((size_t)((i0) - G_lo0)) * G_s0 + ((size_t)((i1) - G_lo1)) * G_s1]
  const int H_lo0 = 0;
  const int H_n0 = ((M + 1)) - (0) + 1;
  const int H_w0 = H_n0;
  const int H_lo1 = 0;
  const int H_n1 = ((M + 1)) - (0) + 1;
  const int H_w1 = H_n1;
  const size_t H_s1 = 1;
  const size_t H_s0 = H_s1 * (size_t)H_w1;
  const size_t H_size = H_s0 * (size_t)H_w0;
  #define H_AT(i0, i1) H[((size_t)((i0) - H_lo0)) * H_s0 + ((size_t)((i1) - H_lo1)) * H_s1]

  #pragma omp parallel for
  for (int I = 0; I <= (M + 1); I++) {  /* DOALL (concurrent) */
    for (int J = 0; J <= (M + 1); J++) {  /* DOALL (concurrent) */
      H_AT(I, J) = (F * G_AT(I, J));  /* eq.1 */
    }
  }

  #undef G_AT
  #undef H_AT
}
