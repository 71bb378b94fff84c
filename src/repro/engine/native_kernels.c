/* Native kernels for the metric engine's hot block paths.
 *
 * Compiled on demand by repro.engine.native with the system C compiler
 * into a per-machine cached shared library and loaded through ctypes.
 * Every kernel mirrors one NumPy reference implementation *exactly*:
 * all stretch arithmetic stays in int64 (order-free), float division
 * and the order-sensitive pairwise mean remain on the Python side, so
 * results are bit-for-bit identical to the NumPy backend (the parity
 * argument is spelled out in docs/performance.md and enforced by
 * tests/engine/test_native.py).
 *
 * Array layout contract: every array argument is a C-contiguous int64
 * buffer.  A "slab" of t key planes has t * side^(d-1) cells, with
 * grid axis a >= 1 at stride side^(d-1-a) — the layout of
 * MetricContext.iter_key_slabs slabs.
 */

#include <stdint.h>

#define EXPORT __attribute__((visibility("default")))

static inline int64_t i64abs(int64_t v) { return v < 0 ? -v : v; }
static inline int64_t i64max(int64_t a, int64_t b) { return a > b ? a : b; }

/* ------------------------------------------------------------------ */
/* NN block reduction                                                  */
/* ------------------------------------------------------------------ */

/* Fold every within-slab NN pair of `body` (t planes) into the
 * per-cell partials, the single fused pass replacing the ufunc chain
 * of repro.engine.chunked.accumulate_block_pairs: for each pair the
 * absolute key difference is added to both endpoints' stretch sums,
 * folded into both endpoints' maxima, and accumulated into the pair
 * axis's lambda.  Axis-0 pairs with an endpoint outside the slab are
 * the caller's carry, exactly as in the NumPy version. */
EXPORT void repro_nn_block_pairs(
    const int64_t *body, int64_t t, int64_t side, int64_t d,
    int64_t *sums, int64_t *best, int64_t *lambdas)
{
    int64_t plane = 1;
    for (int64_t i = 0; i < d - 1; ++i) plane *= side;

    int64_t stride = plane;
    for (int64_t axis = 1; axis < d; ++axis) {
        stride /= side;
        int64_t group = stride * side;
        int64_t lam = 0;
        for (int64_t row = 0; row < t; ++row) {
            const int64_t *keys = body + row * plane;
            int64_t *s = sums + row * plane;
            int64_t *m = best + row * plane;
            for (int64_t base = 0; base < plane; base += group) {
                for (int64_t off = 0; off < group - stride; ++off) {
                    int64_t i = base + off;
                    int64_t j = i + stride;
                    int64_t dist = i64abs(keys[j] - keys[i]);
                    lam += dist;
                    s[i] += dist;
                    s[j] += dist;
                    m[i] = i64max(m[i], dist);
                    m[j] = i64max(m[j], dist);
                }
            }
        }
        lambdas[axis] += lam;
    }

    int64_t lam0 = 0;
    for (int64_t row = 0; row + 1 < t; ++row) {
        const int64_t *a = body + row * plane;
        const int64_t *b = a + plane;
        int64_t *sa = sums + row * plane;
        int64_t *ma = best + row * plane;
        for (int64_t c = 0; c < plane; ++c) {
            int64_t dist = i64abs(b[c] - a[c]);
            lam0 += dist;
            sa[c] += dist;
            sa[plane + c] += dist;
            ma[c] = i64max(ma[c], dist);
            ma[plane + c] = i64max(ma[plane + c], dist);
        }
    }
    lambdas[0] += lam0;
}

/* |N(alpha)| for the cells with x_0 in [lo, hi), written into `out`
 * (a (hi-lo) * side^(d-1) buffer) — the layout and boundary handling
 * of repro.engine.chunked.slab_neighbor_counts. */
EXPORT void repro_neighbor_counts(
    int64_t d, int64_t side, int64_t lo, int64_t hi, int64_t *out)
{
    int64_t plane = 1;
    for (int64_t i = 0; i < d - 1; ++i) plane *= side;
    int64_t t = hi - lo;
    int64_t total = t * plane;
    for (int64_t i = 0; i < total; ++i) out[i] = 2 * d;
    if (lo == 0)
        for (int64_t c = 0; c < plane; ++c) out[c] -= 1;
    if (hi == side)
        for (int64_t c = 0; c < plane; ++c) out[(t - 1) * plane + c] -= 1;
    int64_t stride = plane;
    for (int64_t axis = 1; axis < d; ++axis) {
        stride /= side;
        int64_t group = stride * side;
        for (int64_t row = 0; row < t; ++row) {
            int64_t *o = out + row * plane;
            for (int64_t base = 0; base < plane; base += group) {
                for (int64_t off = 0; off < stride; ++off) {
                    o[base + off] -= 1;
                    o[base + group - stride + off] -= 1;
                }
            }
        }
    }
}

/* ------------------------------------------------------------------ */
/* Window dilation block maxima                                        */
/* ------------------------------------------------------------------ */

/* max over m coordinate rows of the L1 distance |a - b|. */
EXPORT int64_t repro_window_max_manhattan(
    const int64_t *a, const int64_t *b, int64_t m, int64_t d)
{
    int64_t best = 0;
    for (int64_t r = 0; r < m; ++r) {
        const int64_t *pa = a + r * d;
        const int64_t *pb = b + r * d;
        int64_t s = 0;
        for (int64_t i = 0; i < d; ++i) s += i64abs(pa[i] - pb[i]);
        best = i64max(best, s);
    }
    return best;
}

/* max over m rows of the *squared* L2 distance (exact int64; the
 * caller takes one sqrt — monotone, so max-of-sqrt == sqrt-of-max and
 * the float64 result is bit-identical to the NumPy chain). */
EXPORT int64_t repro_window_max_euclidean_sq(
    const int64_t *a, const int64_t *b, int64_t m, int64_t d)
{
    int64_t best = 0;
    for (int64_t r = 0; r < m; ++r) {
        const int64_t *pa = a + r * d;
        const int64_t *pb = b + r * d;
        int64_t s = 0;
        for (int64_t i = 0; i < d; ++i) {
            int64_t diff = pa[i] - pb[i];
            s += diff * diff;
        }
        best = i64max(best, s);
    }
    return best;
}

/* ------------------------------------------------------------------ */
/* Delta fold                                                          */
/* ------------------------------------------------------------------ */

/* sum over m paired keys of |a - b| — the integer edge-delta fold
 * behind population-stretch evaluation (repro.core.optimal.delta_fold)
 * and the DynamicUniverse recompute/re-selection passes.  int64
 * addition is associative, so the fold order cannot change the result
 * vs the NumPy reduction. */
EXPORT int64_t repro_delta_fold(
    const int64_t *a, const int64_t *b, int64_t m)
{
    int64_t s = 0;
    for (int64_t r = 0; r < m; ++r) s += i64abs(a[r] - b[r]);
    return s;
}

/* ------------------------------------------------------------------ */
/* Curve encode / decode                                               */
/* ------------------------------------------------------------------ */

/* The Python side guarantees k >= 1, k * d <= 62 for every bitwise
 * kernel, so d <= 62 and keys fit in int64. */
#define REPRO_MAX_D 62

/* Morton interleave: coordinate bit b of axis i lands at key bit
 * b*d + (d-1-i) — the layout of repro.curves.zcurve.interleave_bits. */
static inline int64_t interleave_point(
    const int64_t *x, int64_t d, int64_t k)
{
    int64_t key = 0;
    for (int64_t b = 0; b < k; ++b)
        for (int64_t i = 0; i < d; ++i)
            key |= ((x[i] >> b) & 1) << (b * d + (d - 1 - i));
    return key;
}

static inline void deinterleave_point(
    int64_t key, int64_t d, int64_t k, int64_t *x)
{
    for (int64_t i = 0; i < d; ++i) x[i] = 0;
    for (int64_t b = 0; b < k; ++b)
        for (int64_t i = 0; i < d; ++i)
            x[i] |= ((key >> (b * d + (d - 1 - i))) & 1) << b;
}

/* Inverse reflected-binary Gray code (prefix XOR); values are
 * non-negative, so the arithmetic right shift is a logical one. */
static inline int64_t gray_decode64(int64_t v)
{
    for (int64_t s = 1; s < 64; s <<= 1) v ^= v >> s;
    return v;
}

EXPORT void repro_z_encode(
    const int64_t *coords, int64_t m, int64_t d, int64_t k, int64_t *keys)
{
    for (int64_t r = 0; r < m; ++r)
        keys[r] = interleave_point(coords + r * d, d, k);
}

EXPORT void repro_z_decode(
    const int64_t *keys, int64_t m, int64_t d, int64_t k, int64_t *coords)
{
    for (int64_t r = 0; r < m; ++r)
        deinterleave_point(keys[r], d, k, coords + r * d);
}

EXPORT void repro_gray_encode(
    const int64_t *coords, int64_t m, int64_t d, int64_t k, int64_t *keys)
{
    for (int64_t r = 0; r < m; ++r)
        keys[r] = gray_decode64(interleave_point(coords + r * d, d, k));
}

EXPORT void repro_gray_decode(
    const int64_t *keys, int64_t m, int64_t d, int64_t k, int64_t *coords)
{
    for (int64_t r = 0; r < m; ++r) {
        int64_t g = keys[r] ^ (keys[r] >> 1);
        deinterleave_point(g, d, k, coords + r * d);
    }
}

/* Skilling's AxestoTranspose (per point) — the scalar original of the
 * vectorized port in repro.curves.hilbert. */
static void axes_to_transpose_point(int64_t *X, int64_t d, int64_t k)
{
    int64_t M = (int64_t)1 << (k - 1);
    for (int64_t Q = M; Q > 1; Q >>= 1) {
        int64_t P = Q - 1;
        for (int64_t i = 0; i < d; ++i) {
            if (X[i] & Q) {
                X[0] ^= P;
            } else {
                int64_t t = (X[0] ^ X[i]) & P;
                X[0] ^= t;
                X[i] ^= t;
            }
        }
    }
    for (int64_t i = 1; i < d; ++i) X[i] ^= X[i - 1];
    int64_t t = 0;
    for (int64_t Q = M; Q > 1; Q >>= 1)
        if (X[d - 1] & Q) t ^= Q - 1;
    for (int64_t i = 0; i < d; ++i) X[i] ^= t;
}

static void transpose_to_axes_point(int64_t *X, int64_t d, int64_t k)
{
    int64_t N = (int64_t)2 << (k - 1);
    int64_t t = X[d - 1] >> 1;
    for (int64_t i = d - 1; i > 0; --i) X[i] ^= X[i - 1];
    X[0] ^= t;
    for (int64_t Q = 2; Q != N; Q <<= 1) {
        int64_t P = Q - 1;
        for (int64_t i = d - 1; i >= 0; --i) {
            if (X[i] & Q) {
                X[0] ^= P;
            } else {
                int64_t t2 = (X[0] ^ X[i]) & P;
                X[0] ^= t2;
                X[i] ^= t2;
            }
        }
    }
}

EXPORT void repro_hilbert_encode(
    const int64_t *coords, int64_t m, int64_t d, int64_t k, int64_t *keys)
{
    int64_t X[REPRO_MAX_D];
    for (int64_t r = 0; r < m; ++r) {
        const int64_t *src = coords + r * d;
        for (int64_t i = 0; i < d; ++i) X[i] = src[i];
        axes_to_transpose_point(X, d, k);
        keys[r] = interleave_point(X, d, k);
    }
}

EXPORT void repro_hilbert_decode(
    const int64_t *keys, int64_t m, int64_t d, int64_t k, int64_t *coords)
{
    int64_t X[REPRO_MAX_D];
    for (int64_t r = 0; r < m; ++r) {
        deinterleave_point(keys[r], d, k, X);
        transpose_to_axes_point(X, d, k);
        int64_t *dst = coords + r * d;
        for (int64_t i = 0; i < d; ++i) dst[i] = X[i];
    }
}

/* Boustrophedon scan for any side: the emitted digit of an axis flips
 * direction with the parity of the higher original coordinates. */
EXPORT void repro_snake_encode(
    const int64_t *coords, int64_t m, int64_t d, int64_t side,
    int64_t *keys)
{
    int64_t top = 1;
    for (int64_t i = 0; i < d - 1; ++i) top *= side;
    for (int64_t r = 0; r < m; ++r) {
        const int64_t *x = coords + r * d;
        int64_t key = 0, parity = 0, weight = top;
        for (int64_t axis = d - 1; axis >= 0; --axis) {
            int64_t digit = x[axis];
            int64_t eff = (parity % 2 == 0) ? digit : side - 1 - digit;
            key += eff * weight;
            parity += digit;
            weight /= side;
        }
        keys[r] = key;
    }
}

EXPORT void repro_snake_decode(
    const int64_t *keys, int64_t m, int64_t d, int64_t side,
    int64_t *coords)
{
    int64_t top = 1;
    for (int64_t i = 0; i < d - 1; ++i) top *= side;
    for (int64_t r = 0; r < m; ++r) {
        int64_t rest = keys[r], parity = 0, weight = top;
        int64_t *x = coords + r * d;
        for (int64_t axis = d - 1; axis >= 0; --axis) {
            int64_t eff = rest / weight;
            rest %= weight;
            int64_t digit = (parity % 2 == 0) ? eff : side - 1 - eff;
            x[axis] = digit;
            parity += digit;
            weight /= side;
        }
    }
}

/* ------------------------------------------------------------------ */
/* Box encode                                                          */
/* ------------------------------------------------------------------ */

/* The box kernels write the key of every cell with x_0 in [lo, hi)
 * into `out` in C order (axis d-1 fastest) — the layout of
 * SpaceFillingCurve.key_slab — without a coordinate array.  They walk
 * the box row by row: a row fixes x_0..x_{d-2} in X[] and spans axis
 * d-1, so the per-row part of a key is computed once and each cell
 * adds only its last coordinate.  For d == 1 the single row spans
 * [lo, hi) of axis 0.  The Python side guarantees 0 <= lo <= hi <= side
 * and the same k / side limits as the point codecs above. */

/* Set up the row walk; returns the number of rows.  Row cells take
 * last coordinates first, first + 1, ..., first + width - 1. */
static int64_t box_rows(
    int64_t lo, int64_t hi, int64_t side, int64_t d,
    int64_t *X, int64_t *first, int64_t *width)
{
    for (int64_t i = 0; i < d; ++i) X[i] = 0;
    X[0] = lo;
    if (d == 1) {
        *first = lo;
        *width = hi - lo;
        return 1;
    }
    *first = 0;
    *width = side;
    int64_t rows = hi - lo;
    for (int64_t i = 1; i < d - 1; ++i) rows *= side;
    return rows;
}

/* Advance the row odometer X[0..d-2] (X[d-1] stays 0 for d >= 2). */
static inline void next_row(int64_t *X, int64_t d, int64_t side)
{
    for (int64_t i = d - 2; i > 0; --i) {
        if (++X[i] < side) return;
        X[i] = 0;
    }
    ++X[0];
}

/* Bits of v spread to the Morton slots of axis d-1 (key bit b*d). */
static inline uint64_t spread_last(int64_t v, int64_t d, int64_t k)
{
    uint64_t s = 0;
    for (int64_t b = 0; b < k; ++b)
        s |= (uint64_t)((v >> b) & 1) << (b * d);
    return s;
}

/* Morton keys of one row: the row's axes are interleaved once, and the
 * last axis' spread bits advance by the dilated-integer increment
 * s' = ((s | ~mask) + 1) & mask.  `gray` applies the inverse Gray code
 * of repro_gray_encode to each key. */
static void morton_box(
    int64_t lo, int64_t hi, int64_t side, int64_t d, int64_t k,
    int gray, int64_t *out)
{
    int64_t X[REPRO_MAX_D], first, width;
    int64_t rows = box_rows(lo, hi, side, d, X, &first, &width);
    uint64_t mask = spread_last(side - 1, d, k);
    for (int64_t r = 0; r < rows; ++r, out += width) {
        uint64_t row = d == 1 ? 0 : (uint64_t)interleave_point(X, d, k);
        uint64_t s = spread_last(first, d, k);
        for (int64_t c = 0; c < width; ++c) {
            int64_t key = (int64_t)(row | s);
            out[c] = gray ? gray_decode64(key) : key;
            s = ((s | ~mask) + 1) & mask;
        }
        next_row(X, d, side);
    }
}

EXPORT void repro_z_encode_box(
    int64_t lo, int64_t hi, int64_t side, int64_t d, int64_t k,
    int64_t *out)
{
    morton_box(lo, hi, side, d, k, 0, out);
}

EXPORT void repro_gray_encode_box(
    int64_t lo, int64_t hi, int64_t side, int64_t d, int64_t k,
    int64_t *out)
{
    morton_box(lo, hi, side, d, k, 1, out);
}

/* Hilbert box encode: a depth-first walk over the bits of the last
 * coordinate.  Skilling's AxestoTranspose processes the levels from the
 * top bit down, and level q only rewrites the bits below q: it
 * complements the low bits of X[0] or exchanges them with those of
 * X[i].  So after the levels above q, the low bits of transposed axis
 * i are the low bits of some source axis src[i], complemented when bit
 * i of comp is set, and the bits at q are final.  The closing Gray
 * step makes key digit q, for axis i, the prefix XOR G_i of those bits
 * XOR the parity of G_{d-1} over the levels above q.  That state (src,
 * comp, parity, key bits so far) depends only on the coordinate bits
 * above q, so cells of a row that share the high bits of their last
 * coordinate share it: moving to the next cell recomputes only the
 * levels at and below its highest changed bit, about two per cell
 * instead of k.  The keys equal repro_hilbert_encode's. */
typedef struct {
    unsigned char src[REPRO_MAX_D];
    uint64_t comp;
    uint64_t par;
    uint64_t key;
} hilbert_state;

/* Unrolled fully when d is a small constant (see hilbert_box). */
#define REPRO_UNROLL _Pragma("GCC unroll 4")

/* One level q >= 1: the state before it in *s, after it in *n.  `in`
 * has bit a set when coordinate bit q of source axis a is set. */
static inline __attribute__((always_inline)) void hilbert_level(
    const hilbert_state *s, hilbert_state *n, uint64_t in, int64_t q,
    int64_t d)
{
    uint64_t g = 0, key = s->key, comp = s->comp;
    unsigned char src[REPRO_MAX_D];
    REPRO_UNROLL
    for (int64_t i = 0; i < d; ++i) src[i] = s->src[i];
    REPRO_UNROLL
    for (int64_t i = 0; i < d; ++i) {
        uint64_t b = ((in >> s->src[i]) ^ (s->comp >> i)) & 1;
        g ^= b;
        key |= (g ^ s->par) << (q * d + d - 1 - i);
        /* bit set: complement X[0]'s low bits; clear: exchange them
         * with X[i]'s (a no-op for i == 0).  Branch-free. */
        comp ^= b;
        uint64_t swap = (b ^ 1) & (i != 0);
        unsigned char flip = (src[0] ^ src[i]) & (unsigned char)(0 - swap);
        src[0] ^= flip;
        src[i] ^= flip;
        uint64_t t = (comp ^ (comp >> i)) & swap;
        comp ^= t | (t << i);
    }
    REPRO_UNROLL
    for (int64_t i = 0; i < d; ++i) n->src[i] = src[i];
    n->comp = comp;
    n->par = s->par ^ g;
    n->key = key;
}

/* The keys of one row, cells with last coordinate first .. first +
 * width - 1.  st[q + 1] holds the state before level q, st[k] the
 * initial one; rowbits[q] the bits q of the row's fixed axes.  Level 0
 * is never stored: an even cell and its odd successor differ only in
 * the bit of the last axis, which flips G_i for every i at or after
 * the position of that axis in src, so both keys come from st[1]. */
static inline __attribute__((always_inline)) void hilbert_row(
    const uint64_t *rowbits, int64_t first, int64_t width, int64_t d,
    int64_t k, hilbert_state *st, int64_t *out)
{
    uint64_t leaf[2] = {0, 0};
    for (int64_t c = 0; c < width; ++c) {
        int64_t x = first + c;
        if (c == 0 || !(x & 1)) {
            int64_t top = c == 0 ? k - 1 : __builtin_ctzll((uint64_t)x);
            for (int64_t q = top; q >= 1; --q) {
                uint64_t in = rowbits[q]
                    | ((uint64_t)((x >> q) & 1) << (d - 1));
                hilbert_level(&st[q + 1], &st[q], in, q, d);
            }
            const hilbert_state *s = &st[1];
            uint64_t g = 0, key = s->key, flip = 0;
            REPRO_UNROLL
            for (int64_t i = 0; i < d; ++i) {
                g ^= ((rowbits[0] >> s->src[i]) ^ (s->comp >> i)) & 1;
                key |= (g ^ s->par) << (d - 1 - i);
                flip |= (((uint64_t)2 << (d - 1 - i)) - 1)
                    & (0 - (uint64_t)(s->src[i] == d - 1));
            }
            leaf[0] = key;
            leaf[1] = key ^ flip;
        }
        out[c] = (int64_t)leaf[x & 1];
    }
}

static inline __attribute__((always_inline)) void hilbert_box(
    int64_t lo, int64_t hi, int64_t side, int64_t d, int64_t k,
    int64_t *out)
{
    int64_t X[REPRO_MAX_D], first, width;
    uint64_t rowbits[64];
    hilbert_state st[64];
    int64_t rows = box_rows(lo, hi, side, d, X, &first, &width);
    for (int64_t i = 0; i < d; ++i) st[k].src[i] = (unsigned char)i;
    st[k].comp = st[k].par = st[k].key = 0;
    for (int64_t r = 0; r < rows; ++r, out += width) {
        for (int64_t q = 0; q < k; ++q) {
            uint64_t bits = 0;
            for (int64_t a = 0; a < d - 1; ++a)
                bits |= (uint64_t)((X[a] >> q) & 1) << a;
            rowbits[q] = bits;
        }
        hilbert_row(rowbits, first, width, d, k, st, out);
        next_row(X, d, side);
    }
}

/* d == 2 and d == 3 get copies of the walk with d a constant, so the
 * per-axis loops unroll and the state stays in registers. */
EXPORT void repro_hilbert_encode_box(
    int64_t lo, int64_t hi, int64_t side, int64_t d, int64_t k,
    int64_t *out)
{
    if (d == 2)
        hilbert_box(lo, hi, side, 2, k, out);
    else if (d == 3)
        hilbert_box(lo, hi, side, 3, k, out);
    else
        hilbert_box(lo, hi, side, d, k, out);
}

/* Snake keys of one row: along axis d-1 (the most significant digit)
 * the key steps by top = side^(d-1), and every lower digit flips
 * direction with the parity of x_{d-1}.  Flipping all lower digits
 * maps their part a to (top - 1) - a, so each row needs one pass over
 * its lower axes.  `arg` is the side, as for repro_snake_encode. */
EXPORT void repro_snake_encode_box(
    int64_t lo, int64_t hi, int64_t side, int64_t d, int64_t arg,
    int64_t *out)
{
    (void)arg;
    int64_t X[REPRO_MAX_D], first, width;
    int64_t rows = box_rows(lo, hi, side, d, X, &first, &width);
    int64_t top = 1;
    for (int64_t i = 0; i < d - 1; ++i) top *= side;
    for (int64_t r = 0; r < rows; ++r, out += width) {
        int64_t even = 0, parity = 0, weight = top;
        for (int64_t axis = d - 2; axis >= 0; --axis) {
            int64_t digit = X[axis];
            weight /= side;
            even += ((parity % 2 == 0) ? digit : side - 1 - digit) * weight;
            parity += digit;
        }
        int64_t odd = top - 1 - even;
        for (int64_t c = 0; c < width; ++c) {
            int64_t x = first + c;
            out[c] = x * top + ((x & 1) ? odd : even);
        }
        next_row(X, d, side);
    }
}
