/**
 * @file
 * Minimal portable-SIMD helpers for the batched interpreter's lane
 * loops.
 *
 * The batched engine keeps every value as a structure-of-arrays lane
 * strip of W doubles (W a compile-time constant), so its hot loops are
 * all of the shape `for (l = 0; l < W; ++l) d[l] = f(a[l], b[l])` over
 * contiguous, non-aliasing strips. This header supplies exactly the
 * scaffolding those loops need to auto-vectorize reliably — a restrict
 * macro, a vectorization pragma, and tiny fixed-width map/copy helpers
 * that take the element functor as a template parameter so it inlines
 * into the loop body (the map interpreter's function-pointer
 * dispatch defeats that) — and nothing else. Every helper is plain
 * standard C++: on a compiler with no vector unit the pragmas expand to
 * nothing and the loops compile as scalar code, which is the fallback.
 */
#ifndef GSOPT_SUPPORT_SIMD_H
#define GSOPT_SUPPORT_SIMD_H

#include <cstddef>

#if defined(__GNUC__) || defined(__clang__)
#define GSOPT_RESTRICT __restrict__
#else
#define GSOPT_RESTRICT
#endif

/* Ask the compiler to vectorize the following loop (it is always
 * dependence-free by construction: destinations never alias sources).
 * GCC's `ivdep` and clang's loop hint are both accepted as statement
 * pragmas ahead of a for-loop; elsewhere the hint is simply absent. */
#if defined(__clang__)
#define GSOPT_VEC_LOOP _Pragma("clang loop vectorize(enable)")
#elif defined(__GNUC__)
#define GSOPT_VEC_LOOP _Pragma("GCC ivdep")
#else
#define GSOPT_VEC_LOOP
#endif

namespace gsopt::simd {

/** d[l] = v for all W lanes. */
template <size_t W>
inline void
broadcast(double *GSOPT_RESTRICT d, double v)
{
    GSOPT_VEC_LOOP
    for (size_t l = 0; l < W; ++l)
        d[l] = v;
}

/** d[l] = s[l] for all W lanes (strips never overlap). */
template <size_t W>
inline void
copy(double *GSOPT_RESTRICT d, const double *GSOPT_RESTRICT s)
{
    GSOPT_VEC_LOOP
    for (size_t l = 0; l < W; ++l)
        d[l] = s[l];
}

/** d[l] = f(a[l]); f is a functor type so the body inlines. */
template <size_t W, typename F>
inline void
map1(double *GSOPT_RESTRICT d, const double *a, F f)
{
    GSOPT_VEC_LOOP
    for (size_t l = 0; l < W; ++l)
        d[l] = f(a[l]);
}

/** d[l] = f(d[l]) in place (for updates where source IS destination —
 * map1's restrict contract forbids that aliasing). */
template <size_t W, typename F>
inline void
apply(double *d, F f)
{
    GSOPT_VEC_LOOP
    for (size_t l = 0; l < W; ++l)
        d[l] = f(d[l]);
}

/** d[l] = f(a[l], b[l]). */
template <size_t W, typename F>
inline void
map2(double *GSOPT_RESTRICT d, const double *a, const double *b, F f)
{
    GSOPT_VEC_LOOP
    for (size_t l = 0; l < W; ++l)
        d[l] = f(a[l], b[l]);
}

/** d[l] = f(a[l], b[l], c[l]). */
template <size_t W, typename F>
inline void
map3(double *GSOPT_RESTRICT d, const double *a, const double *b,
     const double *c, F f)
{
    GSOPT_VEC_LOOP
    for (size_t l = 0; l < W; ++l)
        d[l] = f(a[l], b[l], c[l]);
}

/** acc[l] += a[l] * b[l] (the dot/length accumulation step; kept as a
 * separate helper so the summation order per lane exactly matches the
 * scalar engine's component-by-component loop). */
template <size_t W>
inline void
mulAccum(double *GSOPT_RESTRICT acc, const double *a, const double *b)
{
    GSOPT_VEC_LOOP
    for (size_t l = 0; l < W; ++l)
        acc[l] += a[l] * b[l];
}

} // namespace gsopt::simd

#endif // GSOPT_SUPPORT_SIMD_H
