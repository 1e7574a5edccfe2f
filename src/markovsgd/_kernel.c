/*
 * The inner loops of markovsgd, compiled: the least-squares update loop of
 * markovsgd.algorithms and its sum over parallel SGD's instances, the two
 * path samplers of markovsgd.chains, the seeding of every run's Philox
 * streams and the draw of every run's variates from them in one call.
 *
 * markovsgd/_kernel.py builds this file on first use with
 *     cc -O2 -fPIC -shared -ffp-contract=off ... -lm
 * and never with -ffast-math: every operation below must round exactly as
 * the numpy loop in algorithms._descend does, so the compiler may fuse no
 * product into an FMA and reassociate no sum.  The update loop reads every
 * sample as a row of a table, by its row number, and labels it from w* or
 * from a table of labels.  The dot products are the ones np.vecdot
 * computes for float64 rows, for both <w, x> and a label <x, w*>: the
 * caller passes the ddot of numpy's own BLAS, which np.vecdot calls, and
 * below 16 elements the loop may instead take that ddot's own arithmetic,
 * written out as explicit fma() calls (the fused dot, below), where a
 * check at load finds it equal.  Either result is added to 0.0 as numpy's
 * dot loop adds it (so a -0.0 dot reads +0.0, as it does there).
 * To the update loop each of parallel SGD's instances is a chain of its
 * own, as a run of any other algorithm is: it takes several chains side by
 * side, and the finite walk several runs.  Chains never interact, and
 * neither do runs, so that changes the order of work across them and none
 * of a chain's own operations.  The sum over a run's instances adds in
 * numpy's order, and the loader checks it against numpy's sum as it checks
 * the dots.
 * The samplers call no BLAS: each makes the same IEEE operations as the
 * numpy (or scipy) code it replaces.  The seeding hashes as numpy's
 * SeedSequence does and steps Philox4x64-10 as numpy's Philox does, in
 * integer arithmetic only (the 64x64-bit products need __uint128_t).  The
 * draws are this file's own: numpy's uniform and ziggurat normal algorithms
 * written out over those streams, with numpy's tables, so each run's
 * numbers are those of numpy's Generator on the same stream (the loader
 * checks that they are, and seeds numpy generators where they are not).
 */
#include <math.h>
#include <stdint.h>
#include <string.h>

typedef double (*ddot_fn)(int64_t n, const double *x, int64_t incx, const double *y, int64_t incy);

/*
 * The fused dot: <x, y> of n < 16 unit-stride doubles as one chain of fused
 * multiply-adds from 0.0, in element order -- what OpenBLAS's x86-64 ddot
 * computes below 16 elements on a CPU with FMA, without its call through a
 * pointer.  The loader checks that it equals np.vecdot at a dimension
 * (msgd_fused_dots) before the update loop takes it there; elsewhere the
 * loop calls ddot.
 *
 * fma() rounds once wherever it runs.  On x86-64 the functions that take
 * the fused dot (FUSED) are compiled for the FMA instructions by a target
 * attribute, and those of the four-wide path (WIDE) for AVX2 and FMA, and
 * no flag of the build changes, so the library still builds for, and
 * loads on, any x86-64 CPU: msgd_fused says whether this one has the
 * instructions, and the loader calls those functions only where it does.
 * A compiler without the attribute calls libm's fma() and has no four-wide
 * path.
 */
#if defined(__x86_64__) && defined(__GNUC__) && defined(__has_attribute)
#if __has_attribute(target)
#define FMA_TARGET
#endif
#endif
#ifdef FMA_TARGET
#include <immintrin.h>
#define FUSED __attribute__((target("fma")))
#else
#define FUSED
#endif

static inline __attribute__((always_inline)) double dot(ddot_fn ddot, int fused, int64_t n, const double *x,
                                                        const double *y)
{
    if (!fused) {
        return 0.0 + ddot(n, x, 1, y, 1);
    }
    double s = 0.0;
    for (int64_t j = 0; j < n; j++) {
        s = fma(y[j], x[j], s);
    }
    return 0.0 + s;
}

/* out[i] = <row i of a, row i of b>, n rows of d doubles, as np.vecdot computes it. */
void msgd_dots(ddot_fn ddot, int64_t n, int64_t d, const double *a, const double *b, double *out)
{
    for (int64_t i = 0; i < n; i++) {
        out[i] = dot(ddot, 0, d, a + i * d, b + i * d);
    }
}

/*
 * Whether this CPU can run the FUSED functions (bit 0), and the WIDE ones
 * of the update loop's four-wide path too (bit 1: AVX2 and FMA).
 */
int32_t msgd_fused(void)
{
#ifdef FMA_TARGET
    __builtin_cpu_init();
    const int32_t fma = __builtin_cpu_supports("fma") != 0;
    return fma | (fma && __builtin_cpu_supports("avx2")) << 1;
#else
    return 1;
#endif
}

/* out[i] = the fused dot of rows i of a and b, n rows of d doubles; only where msgd_fused(). */
FUSED void msgd_fused_dots(int64_t n, int64_t d, const double *a, const double *b, double *out)
{
    for (int64_t i = 0; i < n; i++) {
        out[i] = dot(0, 1, d, a + i * d, b + i * d);
    }
}

/*
 * How many chains the update loop, and runs the walk, take side by side,
 * and how many doubles the update loop's four-wide path holds in one
 * register
 */
#define LANES 4

/*
 * Apply n updates to the weights w of R runs of K instances each.
 *
 * To this loop an instance is a chain: chain c = r*K + k is instance k of
 * run r, and w and acc hold the R*K chains' rows of d doubles in that
 * order.  x is a table of contiguous rows of d doubles, and sample i of
 * chain (r, k) is row s = idx[i*in + r*ir + k*ik] of it.  Its label is set
 * by ym:
 *   ym = 0:  y holds the d doubles of w*, and the label is <x, w*>, as
 *            np.vecdot(x, w*) computes it;
 *   ym > 0:  y is a table of ym labels, and the label is y[s].
 * Either way, when xi is given, the label adds sigma * xi[i*qn + r*qr +
 * k*qk], as numpy adds the product sigma * xi.  Strides count elements.
 *
 * Each row takes res = <w, x> - y and then
 *     plain:  w_j = w_j - res * (alpha * x_j)       (sgd, data drop, replay)
 *     scaled: w_j = w_j - (res * alpha) * x_j       (parallel SGD)
 * Update i is number u = first + i.  It ends an event when u is a multiple
 * of every (a replay buffer's B updates, else 1), and then a chain's
 * weights are added into its row of acc when lo <= u < hi, and copied into
 * its row of row u / every of iters, when iters is given: rows of R*K*d
 * doubles.  acc and iters may be null.
 * With fused set, every dot is the fused dot (the caller sets fused only
 * for d < 16, where that dot passed its check); otherwise every dot calls
 * ddot.
 *
 * Chains never interact, so the order in which their updates are taken
 * changes no chain's operations, and so none of its bits.  A chain's
 * updates each wait on the one before, so the loop takes chains LANES at
 * a time, update i of each in turn: the updates of different chains
 * overlap in the CPU, and each chain's keep their order.  fused = LANES
 * says that this CPU also has AVX2 (msgd_fused): then the four-wide path
 * (below) puts four chains in the lanes of one register, each lane making
 * the scalar update's operations in their order, so with its bits.  The
 * R*K mod 4 chains left over stay on the scalar loop.
 *
 * Every chain runs to the end of the call, as in the numpy loop, a broken
 * one too: when update i leaves a weight of chain (r, k) non-finite,
 * bad[r], -1 on entry, becomes the least such update first + i over run
 * r's chains.
 */

/* One call's arguments, as msgd_advance takes them */
typedef struct {
    ddot_fn ddot;
    int fused;  /* every dot the fused dot, not ddot */
    double *w, *acc, *iters;
    int64_t R, K, d;
    const double *x;
    const int64_t *idx;
    int64_t in, ir, ik;
    const double *y;
    int64_t ym;  /* labels in y; 0: y is w* */
    const double *xi;
    int64_t qn, qr, qk;
    double sigma;
    int64_t n, lo, hi;
    double alpha;
    int32_t scaled;
    int64_t *bad;
    int64_t first, every;
} segment_t;

/* Instance k of run `run`, and the offsets of its samples in idx and of its noise in xi */
typedef struct {
    int64_t run, k, at, q;
} chain_t;

/* c becomes the chain after it, with no division */
static inline __attribute__((always_inline)) void next_chain(const segment_t *a, chain_t *c)
{
    c->at += a->ik;
    c->q += a->qk;
    if (++c->k == a->K) {
        c->k = 0;
        c->run++;
        c->at += a->ir - a->K * a->ik;
        c->q += a->qr - a->K * a->qk;
    }
}

/*
 * Update i of chain c, whose run and offsets are ch.  Returns the sum of
 * v - v over its new weights v: +0.0, or NaN where one is not finite.
 */
static inline __attribute__((always_inline)) double update(const segment_t *a, int64_t i, int64_t c,
                                                           const chain_t *ch)
{
    const int64_t d = a->d, s = a->idx[i * a->in + ch->at];
    double *row = a->w + c * d;
    const double *xv = a->x + s * d;
    double label = a->ym != 0 ? a->y[s] : dot(a->ddot, a->fused, d, xv, a->y);
    if (a->xi != 0) {
        label = label + a->sigma * a->xi[i * a->qn + ch->q];
    }
    double res = dot(a->ddot, a->fused, d, row, xv) - label;
    double spoilt = 0.0;
    if (a->scaled) {
        res = res * a->alpha;
        for (int64_t j = 0; j < d; j++) {
            double v = row[j] - res * xv[j];
            row[j] = v;
            spoilt += v - v;
        }
    } else {
        for (int64_t j = 0; j < d; j++) {
            double v = row[j] - res * (a->alpha * xv[j]);
            row[j] = v;
            spoilt += v - v;
        }
    }
    return spoilt;
}

/*
 * After update i of chain c, which ends event `event`: add the chain's
 * weights into its row of acc when lo <= first + i < hi, and copy them
 * into its row of row `event` of iters.
 */
static inline __attribute__((always_inline)) void record(const segment_t *a, int64_t c, int64_t i, int64_t event)
{
    const int64_t u = a->first + i, d = a->d;
    const double *row = a->w + c * d;
    if (a->acc != 0 && a->lo <= u && u < a->hi) {
        double *to = a->acc + c * d;
        for (int64_t j = 0; j < d; j++) {
            to[j] += row[j];
        }
    }
    if (a->iters != 0) {
        double *to = a->iters + (event * a->R * a->K + c) * d;
        for (int64_t j = 0; j < d; j++) {
            to[j] = row[j];
        }
    }
}

/* Update i left a weight of a chain of run `run` non-finite: bad[run] keeps the least such update */
static inline __attribute__((always_inline)) void broke(const segment_t *a, int64_t run, int64_t i)
{
    int64_t *bad = a->bad + run;
    *bad = *bad < 0 || a->first + i < *bad ? a->first + i : *bad;
}

/* The update loop for chains c_lo .. c_hi-1 */
static inline __attribute__((always_inline)) void advance(segment_t a, int64_t c_lo, int64_t c_hi)
{
    const int64_t lead = (a.every - a.first % a.every) % a.every; /* the first update to end an event */
    const int64_t event0 = (a.first + lead) / a.every;            /* the event it ends */
    const int64_t r = c_lo / a.K, k = c_lo % a.K;
    chain_t next = {r, k, r * a.ir + k * a.ik, r * a.qr + k * a.qk};
    for (int64_t c0 = c_lo; c0 < c_hi; c0 += LANES) {
        const int64_t m = c_hi - c0 < LANES ? c_hi - c0 : LANES;
        chain_t lane[LANES];
        for (int64_t g = 0; g < m; g++) {
            lane[g] = next;
            next_chain(&a, &next);
        }
        /* updates before the next event's end; that event */
        int64_t left = lead, event = event0;
        for (int64_t i = 0; i < a.n; i++) {
            const int ends = left == 0;
            left = ends ? a.every - 1 : left - 1;
            for (int64_t g = 0; g < m; g++) {
                /* v - v is +0.0, or NaN where v is not finite */
                if (update(&a, i, c0 + g, &lane[g]) != 0.0) {
                    broke(&a, lane[g].run, i);
                }
                if (ends) {
                    record(&a, c0 + g, i, event);
                }
            }
            event += ends;
        }
    }
}

/*
 * The loop with the fused dot, an inlined copy in which no update tests
 * which dot to take; msgd_advance inlines the copy that calls ddot.
 */
FUSED static void advance_fused(segment_t a, int64_t c_lo, int64_t c_hi)
{
    a.ddot = 0;
    a.fused = 1;
    advance(a, c_lo, c_hi);
}

#ifdef FMA_TARGET
/*
 * The four-wide path: LANES lanes per AVX2 register.  Where the loop takes
 * the fused dot, on a CPU with AVX2 (msgd_advance is handed fused =
 * LANES), four chains share a vector: register j holds coordinate j of
 * each lane.  Every lane makes the scalar update's operations on its own
 * numbers in the same order -- vfmadd is fma(), and vmulpd, vsubpd and
 * vaddpd round each lane as the scalar operations do -- so no bit changes,
 * only the order of work across lanes, which never interact.
 *
 * Sample rows are loaded whole, two coordinates at a time, and transposed
 * in registers; an odd last coordinate is loaded alone, so nothing past a
 * row is read.  Each dimension has its own copy (wide_at), in which the
 * loops over coordinates unroll and a group's coordinates live in
 * registers.
 */
#define WIDE __attribute__((target("avx2,fma")))
#define WIDE_INLINE static inline __attribute__((always_inline, target("avx2,fma")))
#define MAX_DIM 15 /* the fused dot's dimensions: below 16 */

/* c[j] = coordinate j of rows p[0..3], row p[g] in lane g, for j < d */
WIDE_INLINE void load_cols(const double *const p[LANES], const int64_t d, __m256d *c)
{
    int64_t j = 0;
#pragma GCC unroll 8
    for (; j + 2 <= d; j += 2) {
        const __m256d lo = _mm256_insertf128_pd(_mm256_castpd128_pd256(_mm_loadu_pd(p[0] + j)),
                                                _mm_loadu_pd(p[2] + j), 1);
        const __m256d hi = _mm256_insertf128_pd(_mm256_castpd128_pd256(_mm_loadu_pd(p[1] + j)),
                                                _mm_loadu_pd(p[3] + j), 1);
        c[j] = _mm256_unpacklo_pd(lo, hi);
        c[j + 1] = _mm256_unpackhi_pd(lo, hi);
    }
    if (j < d) {
        const __m256d lo = _mm256_insertf128_pd(_mm256_castpd128_pd256(_mm_load_sd(p[0] + j)),
                                                _mm_load_sd(p[2] + j), 1);
        const __m256d hi = _mm256_insertf128_pd(_mm256_castpd128_pd256(_mm_load_sd(p[1] + j)),
                                                _mm_load_sd(p[3] + j), 1);
        c[j] = _mm256_unpacklo_pd(lo, hi);
    }
}

/* load_cols of the rows p, p + d, p + 2d, p + 3d */
WIDE_INLINE void load_rows(const double *p, const int64_t d, __m256d *c)
{
    const double *const rows[LANES] = {p, p + d, p + 2 * d, p + 3 * d};
    load_cols(rows, d, c);
}

/* load_rows backwards: row p + g*d gets lane g of c[0 .. d-1] */
WIDE_INLINE void store_rows(double *p, const int64_t d, const __m256d *c)
{
    int64_t j = 0;
#pragma GCC unroll 8
    for (; j + 2 <= d; j += 2) {
        const __m256d even = _mm256_unpacklo_pd(c[j], c[j + 1]); /* rows 0 and 2 */
        const __m256d odd = _mm256_unpackhi_pd(c[j], c[j + 1]);  /* rows 1 and 3 */
        _mm_storeu_pd(p + j, _mm256_castpd256_pd128(even));
        _mm_storeu_pd(p + d + j, _mm256_castpd256_pd128(odd));
        _mm_storeu_pd(p + 2 * d + j, _mm256_extractf128_pd(even, 1));
        _mm_storeu_pd(p + 3 * d + j, _mm256_extractf128_pd(odd, 1));
    }
    if (j < d) {
        const __m128d lo = _mm256_castpd256_pd128(c[j]), hi = _mm256_extractf128_pd(c[j], 1);
        _mm_store_sd(p + j, lo);
        _mm_storeh_pd(p + d + j, lo);
        _mm_store_sd(p + 2 * d + j, hi);
        _mm_storeh_pd(p + 3 * d + j, hi);
    }
}

/*
 * Update i of four lanes, lane g being the chain whose samples and noise
 * are at offsets at[g] and q[g] of idx and xi, and whose coordinates j are
 * w[j]: update()'s operations, lane by lane, in place.  ws holds w* in
 * every lane (labels from w*).  Returns the lanes' v - v ORed over the new
 * weights v: all bits zero in a lane whose new weights are all finite
 * (v - v is +0.0 there, else NaN).
 */
WIDE_INLINE __m256d update4(const segment_t *a, const int64_t d, const __m256d *ws, int64_t i, const int64_t *at,
                            const int64_t *q, __m256d *w)
{
    const __m256d zero = _mm256_setzero_pd(), alpha = _mm256_set1_pd(a->alpha);
    const int64_t *idx = a->idx + i * a->in;
    const double *rows[LANES];
    int64_t row[LANES];
    __m256d x[MAX_DIM], label, s = zero;
#pragma GCC unroll 4
    for (int g = 0; g < LANES; g++) {
        row[g] = idx[at[g]];
        rows[g] = a->x + row[g] * d;
    }
    load_cols(rows, d, x);
    if (a->ym != 0) {
        label = _mm256_set_pd(a->y[row[3]], a->y[row[2]], a->y[row[1]], a->y[row[0]]);
    } else {
        __m256d t = zero;
#pragma GCC unroll 16
        for (int64_t j = 0; j < d; j++) {
            t = _mm256_fmadd_pd(ws[j], x[j], t);
        }
        label = _mm256_add_pd(zero, t);
    }
    if (a->xi != 0) {
        const double *xi = a->xi + i * a->qn;
        const __m256d noise = _mm256_set_pd(xi[q[3]], xi[q[2]], xi[q[1]], xi[q[0]]);
        label = _mm256_add_pd(label, _mm256_mul_pd(_mm256_set1_pd(a->sigma), noise));
    }
#pragma GCC unroll 16
    for (int64_t j = 0; j < d; j++) {
        s = _mm256_fmadd_pd(x[j], w[j], s);
    }
    __m256d res = _mm256_sub_pd(_mm256_add_pd(zero, s), label);
    if (a->scaled) {
        res = _mm256_mul_pd(res, alpha);
#pragma GCC unroll 16
        for (int64_t j = 0; j < d; j++) {
            w[j] = _mm256_sub_pd(w[j], _mm256_mul_pd(res, x[j]));
        }
    } else {
#pragma GCC unroll 16
        for (int64_t j = 0; j < d; j++) {
            w[j] = _mm256_sub_pd(w[j], _mm256_mul_pd(res, _mm256_mul_pd(alpha, x[j])));
        }
    }
    __m256d spoilt = zero;
#pragma GCC unroll 16
    for (int64_t j = 0; j < d; j++) {
        spoilt = _mm256_or_pd(spoilt, _mm256_sub_pd(w[j], w[j]));
    }
    return spoilt;
}

/*
 * Chains four at a time.  A group's weights, and its tail sums in a call
 * that reaches the tail window, are loaded once, stay in registers for the
 * call and are stored once.  An update that leaves lanes non-finite marks
 * their runs in bad, from the lanes that compare unordered in spoilt, and
 * every lane goes on, as on the scalar loop.
 */
WIDE_INLINE void chains4(const segment_t *p, const int64_t d)
{
    const segment_t a = *p;
    const int64_t C = a.R * a.K, whole = C - C % LANES;
    const int64_t lead = (a.every - a.first % a.every) % a.every, event0 = (a.first + lead) / a.every; /* as in advance() */
    const int sums = a.acc != 0 && a.lo < a.first + a.n && a.first < a.hi; /* the call reaches the tail window */
    __m256d ws[MAX_DIM];
#pragma GCC unroll 16
    for (int64_t j = 0; j < d; j++) {
        ws[j] = _mm256_set1_pd(a.ym != 0 ? 0.0 : a.y[j]); /* labels from a table read no w* */
    }
    chain_t next = {0, 0, 0, 0};
    for (int64_t c0 = 0; c0 < whole; c0 += LANES) {
        int64_t run[LANES], at[LANES], q[LANES];
#pragma GCC unroll 4
        for (int g = 0; g < LANES; g++) {
            run[g] = next.run;
            at[g] = next.at;
            q[g] = next.q;
            next_chain(&a, &next);
        }
        __m256d w[MAX_DIM], acc[MAX_DIM] = {0};
        load_rows(a.w + c0 * d, d, w);
        if (sums) {
            load_rows(a.acc + c0 * d, d, acc);
        }
        int64_t left = lead, event = event0;
        for (int64_t i = 0; i < a.n; i++) {
            const __m256d spoilt = update4(&a, d, ws, i, at, q, w);
            for (int broken = _mm256_movemask_pd(_mm256_cmp_pd(spoilt, spoilt, _CMP_UNORD_Q)); broken != 0;
                 broken &= broken - 1) {
                broke(&a, run[__builtin_ctz(broken)], i);
            }
            if (left == 0) {
                if (sums && a.lo <= a.first + i && a.first + i < a.hi) {
#pragma GCC unroll 16
                    for (int64_t j = 0; j < d; j++) {
                        acc[j] = _mm256_add_pd(acc[j], w[j]);
                    }
                }
                if (a.iters != 0) {
                    store_rows(a.iters + (event * C + c0) * d, d, w);
                }
                event++;
                left = a.every;
            }
            left--;
        }
        store_rows(a.w + c0 * d, d, w);
        if (sums) {
            store_rows(a.acc + c0 * d, d, acc);
        }
    }
    if (whole < C) {
        advance_fused(a, whole, C);
    }
}

/* The four-wide path at dimension D */
#define WIDE_AT(D) \
    WIDE static void wide_##D(const segment_t *a) { chains4(a, D); }
WIDE_AT(1)
WIDE_AT(2)
WIDE_AT(3)
WIDE_AT(4)
WIDE_AT(5)
WIDE_AT(6)
WIDE_AT(7)
WIDE_AT(8)
WIDE_AT(9)
WIDE_AT(10)
WIDE_AT(11)
WIDE_AT(12)
WIDE_AT(13)
WIDE_AT(14)
WIDE_AT(15)
static void (*const wide_at[MAX_DIM + 1])(const segment_t *) = {
    0, wide_1, wide_2, wide_3, wide_4, wide_5, wide_6, wide_7, wide_8,
    wide_9, wide_10, wide_11, wide_12, wide_13, wide_14, wide_15,
};
#endif

void msgd_advance(ddot_fn ddot, int32_t fused, double *w, double *acc, double *iters, int64_t R, int64_t K,
                  int64_t d, const double *x, const int64_t *idx, int64_t in, int64_t ir, int64_t ik, const double *y,
                  int64_t ym, const double *xi, int64_t qn, int64_t qr, int64_t qk, double sigma, int64_t n,
                  int64_t lo, int64_t hi, double alpha, int32_t scaled, int64_t *bad, int64_t first, int64_t every)
{
    const segment_t a = {ddot, 0, w, acc, iters, R, K, d, x, idx, in, ir, ik, y, ym,
                         xi, qn, qr, qk, sigma, n, lo, hi, alpha, scaled, bad, first, every};
    if (!fused) {
        advance(a, 0, R * K); /* the copy whose every dot calls ddot */
        return;
    }
#ifdef FMA_TARGET
    /* the four-wide path takes four chains a register */
    if (fused == LANES && 0 < d && d <= MAX_DIM && R * K >= LANES) {
        wide_at[d](&a);
        return;
    }
#endif
    advance_fused(a, 0, R * K);
}

/* numpy's philox_state, with its counter and key held in place */
typedef struct {
    uint64_t ctr[4];
    uint64_t key[2];
    uint64_t buffer[4];
    int64_t buffer_pos;
    int64_t has_uint32;
    uint64_t uinteger;
} philox_t;

/*
 * The next 64 bits of a Philox4x64-10 stream, as numpy's philox_next: the
 * four words of one block are handed out in order, and the block after is
 * the Random123 philox4x64 function of 10 rounds at the counter plus one.
 */
static inline __attribute__((always_inline)) uint64_t philox_next64(philox_t *s)
{
    if (s->buffer_pos < 4) {
        return s->buffer[s->buffer_pos++];
    }
    if (++s->ctr[0] == 0 && ++s->ctr[1] == 0 && ++s->ctr[2] == 0) {
        ++s->ctr[3];
    }
    uint64_t c0 = s->ctr[0], c1 = s->ctr[1], c2 = s->ctr[2], c3 = s->ctr[3];
    uint64_t k0 = s->key[0], k1 = s->key[1];
    /* unrolled: no loop control between rounds (the last key bump is unused) */
#pragma GCC unroll 10
    for (int i = 0; i < 10; i++) {
        const __uint128_t p0 = (__uint128_t)UINT64_C(0xD2E7470EE14C6C93) * c0;
        const __uint128_t p1 = (__uint128_t)UINT64_C(0xCA5A826395121157) * c2;
        c0 = (uint64_t)(p1 >> 64) ^ c1 ^ k0;
        c1 = (uint64_t)p1;
        c2 = (uint64_t)(p0 >> 64) ^ c3 ^ k1;
        c3 = (uint64_t)p0;
        k0 += UINT64_C(0x9E3779B97F4A7C15);
        k1 += UINT64_C(0xBB67AE8584CAA73B);
    }
    s->buffer[0] = c0;
    s->buffer[1] = c1;
    s->buffer[2] = c2;
    s->buffer[3] = c3;
    s->buffer_pos = 1;
    return c0;
}

/*
 * numpy's next_double for Philox: the top 53 bits over 2**53.  (Below
 * 2**53 the signed conversion is the unsigned one, and cheaper.)
 */
static inline __attribute__((always_inline)) double philox_double(philox_t *s)
{
    return (double)(int64_t)(philox_next64(s) >> 11) * (1.0 / 9007199254740992.0);
}

/*
 * The tables of numpy's 256-layer ziggurat for float64 normals (numpy 2.4.6,
 * numpy/random/src/distributions/ziggurat_constants.h): ki_double holds each
 * layer's fast-accept bound on the 52-bit magnitude, wi_double the scale
 * from that magnitude to x, and fi_double exp(-x*x/2) at the layer's edge.
 * Copied bit for bit from the objects of numpy's libnpyrandom.a; a test
 * compares them.
 */
static const uint64_t ki_double[256] = {
    UINT64_C(0x000EF33D8025EF6A), UINT64_C(0x0000000000000000), UINT64_C(0x000C08BE98FBC6A8),
    UINT64_C(0x000DA354FABD8142), UINT64_C(0x000E51F67EC1EEEA), UINT64_C(0x000EB255E9D3F77E),
    UINT64_C(0x000EEF4B817ECAB9), UINT64_C(0x000F19470AFA44AA), UINT64_C(0x000F37ED61FFCB18),
    UINT64_C(0x000F4F469561255C), UINT64_C(0x000F61A5E41BA396), UINT64_C(0x000F707A755396A4),
    UINT64_C(0x000F7CB2EC28449A), UINT64_C(0x000F86F10C6357D3), UINT64_C(0x000F8FA6578325DE),
    UINT64_C(0x000F9724C74DD0DA), UINT64_C(0x000F9DA907DBF509), UINT64_C(0x000FA360F581FA74),
    UINT64_C(0x000FA86FDE5B4BF8), UINT64_C(0x000FACF160D354DC), UINT64_C(0x000FB0FB6718B90F),
    UINT64_C(0x000FB49F8D5374C6), UINT64_C(0x000FB7EC2366FE77), UINT64_C(0x000FBAECE9A1E50E),
    UINT64_C(0x000FBDAB9D040BED), UINT64_C(0x000FC03060FF6C57), UINT64_C(0x000FC2821037A248),
    UINT64_C(0x000FC4A67AE25BD1), UINT64_C(0x000FC6A2977AEE31), UINT64_C(0x000FC87AA92896A4),
    UINT64_C(0x000FCA325E4BDE85), UINT64_C(0x000FCBCCE902231A), UINT64_C(0x000FCD4D12F839C4),
    UINT64_C(0x000FCEB54D8FEC99), UINT64_C(0x000FD007BF1DC930), UINT64_C(0x000FD1464DD6C4E6),
    UINT64_C(0x000FD272A8E2F450), UINT64_C(0x000FD38E4FF0C91E), UINT64_C(0x000FD49A9990B478),
    UINT64_C(0x000FD598B8920F53), UINT64_C(0x000FD689C08E99EC), UINT64_C(0x000FD76EA9C8E832),
    UINT64_C(0x000FD848547B08E8), UINT64_C(0x000FD9178BAD2C8C), UINT64_C(0x000FD9DD07A7ADD2),
    UINT64_C(0x000FDA9970105E8C), UINT64_C(0x000FDB4D5DC02E20), UINT64_C(0x000FDBF95C5BFCD0),
    UINT64_C(0x000FDC9DEBB99A7D), UINT64_C(0x000FDD3B8118729D), UINT64_C(0x000FDDD288342F90),
    UINT64_C(0x000FDE6364369F64), UINT64_C(0x000FDEEE708D514E), UINT64_C(0x000FDF7401A6B42E),
    UINT64_C(0x000FDFF46599ED40), UINT64_C(0x000FE06FE4BC24F2), UINT64_C(0x000FE0E6C225A258),
    UINT64_C(0x000FE1593C28B84C), UINT64_C(0x000FE1C78CBC3F99), UINT64_C(0x000FE231E9DB1CAA),
    UINT64_C(0x000FE29885DA1B91), UINT64_C(0x000FE2FB8FB54186), UINT64_C(0x000FE35B33558D4A),
    UINT64_C(0x000FE3B799D0002A), UINT64_C(0x000FE410E99EAD7F), UINT64_C(0x000FE46746D47734),
    UINT64_C(0x000FE4BAD34C095C), UINT64_C(0x000FE50BAED29524), UINT64_C(0x000FE559F74EBC78),
    UINT64_C(0x000FE5A5C8E41212), UINT64_C(0x000FE5EF3E138689), UINT64_C(0x000FE6366FD91078),
    UINT64_C(0x000FE67B75C6D578), UINT64_C(0x000FE6BE661E11AA), UINT64_C(0x000FE6FF55E5F4F2),
    UINT64_C(0x000FE73E5900A702), UINT64_C(0x000FE77B823E9E39), UINT64_C(0x000FE7B6E37070A2),
    UINT64_C(0x000FE7F08D774243), UINT64_C(0x000FE8289053F08C), UINT64_C(0x000FE85EFB35173A),
    UINT64_C(0x000FE893DC840864), UINT64_C(0x000FE8C741F0CEBC), UINT64_C(0x000FE8F9387D4EF6),
    UINT64_C(0x000FE929CC879B1D), UINT64_C(0x000FE95909D388EA), UINT64_C(0x000FE986FB939AA2),
    UINT64_C(0x000FE9B3AC714866), UINT64_C(0x000FE9DF2694B6D5), UINT64_C(0x000FEA0973ABE67C),
    UINT64_C(0x000FEA329CF166A4), UINT64_C(0x000FEA5AAB32952C), UINT64_C(0x000FEA81A6D5741A),
    UINT64_C(0x000FEAA797DE1CF0), UINT64_C(0x000FEACC85F3D920), UINT64_C(0x000FEAF07865E63C),
    UINT64_C(0x000FEB13762FEC13), UINT64_C(0x000FEB3585FE2A4A), UINT64_C(0x000FEB56AE3162B4),
    UINT64_C(0x000FEB76F4E284FA), UINT64_C(0x000FEB965FE62014), UINT64_C(0x000FEBB4F4CF9D7C),
    UINT64_C(0x000FEBD2B8F449D0), UINT64_C(0x000FEBEFB16E2E3E), UINT64_C(0x000FEC0BE31EBDE8),
    UINT64_C(0x000FEC2752B15A15), UINT64_C(0x000FEC42049DAFD3), UINT64_C(0x000FEC5BFD29F196),
    UINT64_C(0x000FEC75406CEEF4), UINT64_C(0x000FEC8DD2500CB4), UINT64_C(0x000FECA5B6911F12),
    UINT64_C(0x000FECBCF0C427FE), UINT64_C(0x000FECD38454FB15), UINT64_C(0x000FECE97488C8B3),
    UINT64_C(0x000FECFEC47F91B7), UINT64_C(0x000FED1377358528), UINT64_C(0x000FED278F844903),
    UINT64_C(0x000FED3B10242F4C), UINT64_C(0x000FED4DFBAD586E), UINT64_C(0x000FED605498C3DD),
    UINT64_C(0x000FED721D414FE8), UINT64_C(0x000FED8357E4A982), UINT64_C(0x000FED9406A42CC8),
    UINT64_C(0x000FEDA42B85B704), UINT64_C(0x000FEDB3C8746AB4), UINT64_C(0x000FEDC2DF416652),
    UINT64_C(0x000FEDD171A46E52), UINT64_C(0x000FEDDF813C8AD3), UINT64_C(0x000FEDED0F909980),
    UINT64_C(0x000FEDFA1E0FD414), UINT64_C(0x000FEE06AE124BC4), UINT64_C(0x000FEE12C0D95A06),
    UINT64_C(0x000FEE1E579006E0), UINT64_C(0x000FEE29734B6524), UINT64_C(0x000FEE34150AE4BC),
    UINT64_C(0x000FEE3E3DB89B3C), UINT64_C(0x000FEE47EE2982F4), UINT64_C(0x000FEE51271DB086),
    UINT64_C(0x000FEE59E9407F41), UINT64_C(0x000FEE623528B42E), UINT64_C(0x000FEE6A0B5897F1),
    UINT64_C(0x000FEE716C3E077A), UINT64_C(0x000FEE7858327B82), UINT64_C(0x000FEE7ECF7B06BA),
    UINT64_C(0x000FEE84D2484AB2), UINT64_C(0x000FEE8A60B66343), UINT64_C(0x000FEE8F7ACCC851),
    UINT64_C(0x000FEE94207E25DA), UINT64_C(0x000FEE9851A829EA), UINT64_C(0x000FEE9C0E13485C),
    UINT64_C(0x000FEE9F557273F4), UINT64_C(0x000FEEA22762CCAE), UINT64_C(0x000FEEA4836B42AC),
    UINT64_C(0x000FEEA668FC2D71), UINT64_C(0x000FEEA7D76ED6FA), UINT64_C(0x000FEEA8CE04FA0A),
    UINT64_C(0x000FEEA94BE8333B), UINT64_C(0x000FEEA950296410), UINT64_C(0x000FEEA8D9C0075E),
    UINT64_C(0x000FEEA7E7897654), UINT64_C(0x000FEEA678481D24), UINT64_C(0x000FEEA48AA29E83),
    UINT64_C(0x000FEEA21D22E4DA), UINT64_C(0x000FEE9F2E352024), UINT64_C(0x000FEE9BBC26AF2E),
    UINT64_C(0x000FEE97C524F2E4), UINT64_C(0x000FEE93473C0A3A), UINT64_C(0x000FEE8E40557516),
    UINT64_C(0x000FEE88AE369C7A), UINT64_C(0x000FEE828E7F3DFD), UINT64_C(0x000FEE7BDEA7B888),
    UINT64_C(0x000FEE749BFF37FF), UINT64_C(0x000FEE6CC3A9BD5E), UINT64_C(0x000FEE64529E007E),
    UINT64_C(0x000FEE5B45A32888), UINT64_C(0x000FEE51994E57B6), UINT64_C(0x000FEE474A0006CF),
    UINT64_C(0x000FEE3C53E12C50), UINT64_C(0x000FEE30B2E02AD8), UINT64_C(0x000FEE2462AD8205),
    UINT64_C(0x000FEE175EB83C5A), UINT64_C(0x000FEE09A22A1447), UINT64_C(0x000FEDFB27E349CC),
    UINT64_C(0x000FEDEBEA76216C), UINT64_C(0x000FEDDBE422047E), UINT64_C(0x000FEDCB0ECE39D3),
    UINT64_C(0x000FEDB964042CF4), UINT64_C(0x000FEDA6DCE938C9), UINT64_C(0x000FED937237E98D),
    UINT64_C(0x000FED7F1C38A836), UINT64_C(0x000FED69D2B9C02B), UINT64_C(0x000FED538D06AE00),
    UINT64_C(0x000FED3C41DEA422), UINT64_C(0x000FED23E76A2FD8), UINT64_C(0x000FED0A732FE644),
    UINT64_C(0x000FECEFDA07FE34), UINT64_C(0x000FECD4100EB7B8), UINT64_C(0x000FECB708956EB4),
    UINT64_C(0x000FEC98B61230C1), UINT64_C(0x000FEC790A0DA978), UINT64_C(0x000FEC57F50F31FE),
    UINT64_C(0x000FEC356686C962), UINT64_C(0x000FEC114CB4B335), UINT64_C(0x000FEBEB948E6FD0),
    UINT64_C(0x000FEBC429A0B692), UINT64_C(0x000FEB9AF5EE0CDC), UINT64_C(0x000FEB6FE1C98542),
    UINT64_C(0x000FEB42D3AD1F9E), UINT64_C(0x000FEB13B00B2D4B), UINT64_C(0x000FEAE2591A02E9),
    UINT64_C(0x000FEAAEAE992257), UINT64_C(0x000FEA788D8EE326), UINT64_C(0x000FEA3FCFFD73E5),
    UINT64_C(0x000FEA044C8DD9F6), UINT64_C(0x000FE9C5D62F563B), UINT64_C(0x000FE9843BA947A4),
    UINT64_C(0x000FE93F471D4728), UINT64_C(0x000FE8F6BD76C5D6), UINT64_C(0x000FE8AA5DC4E8E6),
    UINT64_C(0x000FE859E07AB1EA), UINT64_C(0x000FE804F690A940), UINT64_C(0x000FE7AB488233C0),
    UINT64_C(0x000FE74C751F6AA5), UINT64_C(0x000FE6E8102AA202), UINT64_C(0x000FE67DA0B6ABD8),
    UINT64_C(0x000FE60C9F38307E), UINT64_C(0x000FE5947338F742), UINT64_C(0x000FE51470977280),
    UINT64_C(0x000FE48BD436F458), UINT64_C(0x000FE3F9BFFD1E37), UINT64_C(0x000FE35D35EEB19C),
    UINT64_C(0x000FE2B5122FE4FE), UINT64_C(0x000FE20003995557), UINT64_C(0x000FE13C82788314),
    UINT64_C(0x000FE068C4EE67B0), UINT64_C(0x000FDF82B02B71AA), UINT64_C(0x000FDE87C57EFEAA),
    UINT64_C(0x000FDD7509C63BFD), UINT64_C(0x000FDC46E529BF13), UINT64_C(0x000FDAF8F82E0282),
    UINT64_C(0x000FD985E1B2BA75), UINT64_C(0x000FD7E6EF48CF04), UINT64_C(0x000FD613ADBD650B),
    UINT64_C(0x000FD40149E2F012), UINT64_C(0x000FD1A1A7B4C7AC), UINT64_C(0x000FCEE204761F9E),
    UINT64_C(0x000FCBA8D85E11B2), UINT64_C(0x000FC7D26ECD2D22), UINT64_C(0x000FC32B2F1E22ED),
    UINT64_C(0x000FBD6581C0B83A), UINT64_C(0x000FB606C4005434), UINT64_C(0x000FAC40582A2874),
    UINT64_C(0x000F9E971E014598), UINT64_C(0x000F89FA48A41DFC), UINT64_C(0x000F66C5F7F0302C),
    UINT64_C(0x000F1A5A4B331C4A),
};
static const double wi_double[256] = {
    0x1.f493b7815d979p-51, 0x1.b8d0be3fdf6c6p-55, 0x1.250af3c2c5bb4p-54,
    0x1.57cb938443b61p-54, 0x1.801fce82fa70cp-54, 0x1.a230c2e4cd0bcp-54,
    0x1.c004d2f3861f7p-54, 0x1.dac2f5a747274p-54, 0x1.f32482d4cd5c3p-54,
    0x1.04d32278ebbadp-53, 0x1.0f5053b025d43p-53, 0x1.192a697413677p-53,
    0x1.227a28f7a1af5p-53, 0x1.2b52e3863d880p-53, 0x1.33c3fc05791f5p-53,
    0x1.3bd9ec1a2b12fp-53, 0x1.439ef8dff9b55p-53, 0x1.4b1bb363dfea7p-53,
    0x1.52575621ad374p-53, 0x1.59580a707ce96p-53, 0x1.60231cfd97eeap-53,
    0x1.66bd261a37c3dp-53, 0x1.6d2a292000570p-53, 0x1.736dad346f8a6p-53,
    0x1.798ad10b32a77p-53, 0x1.7f845ad46f543p-53, 0x1.855cc53430a77p-53,
    0x1.8b1649e7b769ap-53, 0x1.90b2ea94ecf98p-53, 0x1.96347822c1eeap-53,
    0x1.9b9c98e38c546p-53, 0x1.a0eccdca4a72cp-53, 0x1.a62676d77cd59p-53,
    0x1.ab4ad6e101630p-53, 0x1.b05b16d136c9cp-53, 0x1.b558487427a29p-53,
    0x1.ba4368e529f3ap-53, 0x1.bf1d62abf8232p-53, 0x1.c3e70f9594ef3p-53,
    0x1.c8a13a5323b61p-53, 0x1.cd4c9fe72268bp-53, 0x1.d1e9f0e80b748p-53,
    0x1.d679d29e41f10p-53, 0x1.dafce0023b8c3p-53, 0x1.df73aa9f17653p-53,
    0x1.e3debb5d2edfep-53, 0x1.e83e9337a6f00p-53, 0x1.ec93abdf982cep-53,
    0x1.f0de784f06226p-53, 0x1.f51f654d8f688p-53, 0x1.f956d9e87d7aep-53,
    0x1.fd8537dfa2eacp-53, 0x1.00d56e04234ecp-52, 0x1.02e40f5398f9ap-52,
    0x1.04eea9e16a5fcp-52, 0x1.06f565b72a010p-52, 0x1.08f869071f40bp-52,
    0x1.0af7d84bc6113p-52, 0x1.0cf3d664bcc7fp-52, 0x1.0eec84b16086bp-52,
    0x1.10e20329515eep-52, 0x1.12d4707310fbep-52, 0x1.14c3e9f8e9141p-52,
    0x1.16b08bfc4201ep-52, 0x1.189a71a78da34p-52, 0x1.1a81b51ee6d88p-52,
    0x1.1c666f8f82acbp-52, 0x1.1e48b93e0d42ep-52, 0x1.2028a9940a09fp-52,
    0x1.2206572c4c6e9p-52, 0x1.23e1d7de9c31fp-52, 0x1.25bb40ca96bfbp-52,
    0x1.2792a661dd37fp-52, 0x1.29681c719d71bp-52, 0x1.2b3bb62b82edap-52,
    0x1.2d0d862e1b853p-52, 0x1.2edd9e8cba98ep-52, 0x1.30ac10d6e48d7p-52,
    0x1.3278ee1f4b930p-52, 0x1.3444470265ea1p-52, 0x1.360e2baca52d5p-52,
    0x1.37d6abe05586ap-52, 0x1.399dd6fb2b264p-52, 0x1.3b63bbfb83d03p-52,
    0x1.3d28698561de0p-52, 0x1.3eebede725a83p-52, 0x1.40ae571e09e74p-52,
    0x1.426fb2da6745dp-52, 0x1.44300e83c30a4p-52, 0x1.45ef773cac75dp-52,
    0x1.47adf9e66c336p-52, 0x1.496ba32488f2fp-52, 0x1.4b287f602415dp-52,
    0x1.4ce49acb311dcp-52, 0x1.4ea001638a605p-52, 0x1.505abef5e5562p-52,
    0x1.5214df20a8b5ap-52, 0x1.53ce6d56a664fp-52, 0x1.558774e1bb2c8p-52,
    0x1.574000e555f78p-52, 0x1.58f81c60e8514p-52, 0x1.5aafd23241b59p-52,
    0x1.5c672d17d733dp-52, 0x1.5e1e37b2f8cd3p-52, 0x1.5fd4fc89f5e38p-52,
    0x1.618b860a31fc3p-52, 0x1.6341de8a2b0a2p-52, 0x1.64f8104b7260bp-52,
    0x1.66ae257c99672p-52, 0x1.6864283b13137p-52, 0x1.6a1a22950b2b1p-52,
    0x1.6bd01e8b343bbp-52, 0x1.6d8626128d352p-52, 0x1.6f3c43161f854p-52,
    0x1.70f27f78b68ebp-52, 0x1.72a8e516914c6p-52, 0x1.745f7dc70eedcp-52,
    0x1.7616535e5731fp-52, 0x1.77cd6faeff449p-52, 0x1.7984dc8babd93p-52,
    0x1.7b3ca3c8b1409p-52, 0x1.7cf4cf3db22fbp-52, 0x1.7ead68c73dee7p-52,
    0x1.80667a486ea1fp-52, 0x1.82200dac88676p-52, 0x1.83da2ce899f15p-52,
    0x1.8594e1fd1f5bdp-52, 0x1.875036f7a7ec5p-52, 0x1.890c35f47f72dp-52,
    0x1.8ac8e9205c043p-52, 0x1.8c865aba10c9cp-52, 0x1.8e44951446a27p-52,
    0x1.9003a2973b58fp-52, 0x1.91c38dc288347p-52, 0x1.9384612ef0afcp-52,
    0x1.954627903a28ap-52, 0x1.9708ebb70d5eep-52, 0x1.98ccb892e2a31p-52,
    0x1.9a919933f99bfp-52, 0x1.9c5798cd5d92cp-52, 0x1.9e1ec2b6f7411p-52,
    0x1.9fe7226fad24ap-52, 0x1.a1b0c39f93692p-52, 0x1.a37bb21a2c85bp-52,
    0x1.a547f9e0bbb88p-52, 0x1.a715a724aa9a4p-52, 0x1.a8e4c64a0313dp-52,
    0x1.aab563e9ff108p-52, 0x1.ac878cd5af5cep-52, 0x1.ae5b4e18bb336p-52,
    0x1.b030b4fc3a11ap-52, 0x1.b207cf09a985bp-52, 0x1.b3e0aa0e00c00p-52,
    0x1.b5bb541ce3d03p-52, 0x1.b797db93f8927p-52, 0x1.b9764f1e5f73cp-52,
    0x1.bb56bdb85256ep-52, 0x1.bd3936b2ec0a2p-52, 0x1.bf1dc9b81ae83p-52,
    0x1.c10486cec16a0p-52, 0x1.c2ed7e5f07a2dp-52, 0x1.c4d8c136e0d1cp-52,
    0x1.c6c6608ec8705p-52, 0x1.c8b66e0eba617p-52, 0x1.caa8fbd36a2abp-52,
    0x1.cc9e1c73bd690p-52, 0x1.ce95e3068e037p-52, 0x1.d0906328b8f6ep-52,
    0x1.d28db1037ef20p-52, 0x1.d48de1533c647p-52, 0x1.d691096e7f123p-52,
    0x1.d8973f4d7fba5p-52, 0x1.daa0999206e70p-52, 0x1.dcad2f8fc490ep-52,
    0x1.debd195522e37p-52, 0x1.e0d06fb49d21cp-52, 0x1.e2e74c4ea46f6p-52,
    0x1.e501c99c1d188p-52, 0x1.e72002f97fe25p-52, 0x1.e94214b2abf0ap-52,
    0x1.eb681c0f76f08p-52, 0x1.ed9237610a73ap-52, 0x1.efc086101eca9p-52,
    0x1.f1f328ac25321p-52, 0x1.f42a40fb74d6dp-52, 0x1.f665f20c90168p-52,
    0x1.f8a6604899782p-52, 0x1.faebb187122bfp-52, 0x1.fd360d22fe785p-52,
    0x1.ff859c118f60bp-52, 0x1.00ed447d3a075p-51, 0x1.021a8028fc947p-51,
    0x1.034a983a902abp-51, 0x1.047da4e3ef5c7p-51, 0x1.05b3bf6adb37ep-51,
    0x1.06ed023a72668p-51, 0x1.082988f632e17p-51, 0x1.0969708e8a254p-51,
    0x1.0aacd7571c0c4p-51, 0x1.0bf3dd1eed448p-51, 0x1.0d3ea34aa3d30p-51,
    0x1.0e8d4cf116593p-51, 0x1.0fdffefa69fb6p-51, 0x1.1136e04207041p-51,
    0x1.129219bbb5d35p-51, 0x1.13f1d69c4096dp-51, 0x1.1556448602e3bp-51,
    0x1.16bf93b9deef3p-51, 0x1.182df74d21261p-51, 0x1.19a1a564eebacp-51,
    0x1.1b1ad777f2f8ep-51, 0x1.1c99ca971a694p-51, 0x1.1e1ebfbe4ae39p-51,
    0x1.1fa9fc2e2d901p-51, 0x1.213bc9d04cc81p-51, 0x1.22d477a6fd3eep-51,
    0x1.24745a4ac9c24p-51, 0x1.261bcc77658e0p-51, 0x1.27cb2faa8592ep-51,
    0x1.2982ecd770e78p-51, 0x1.2b437532a0a52p-51, 0x1.2d0d43196db97p-51,
    0x1.2ee0db1a978f5p-51, 0x1.30becd256aeeep-51, 0x1.32a7b5e68a4a3p-51,
    0x1.349c405ae12a3p-51, 0x1.369d27a33a840p-51, 0x1.38ab39256410ap-51,
    0x1.3ac7570ae88fap-51, 0x1.3cf27b31704a6p-51, 0x1.3f2dbaa60f475p-51,
    0x1.417a49cb9e5dap-51, 0x1.43d9815545e94p-51, 0x1.464ce44a73a15p-51,
    0x1.48d62759c43bcp-51, 0x1.4b7739d6b5a27p-51, 0x1.4e3250dcd8902p-51,
    0x1.5109f53e9ac41p-51, 0x1.54011523a7e42p-51, 0x1.571b1a94ae41bp-51,
    0x1.5a5c08b718dd9p-51, 0x1.5dc8a243ad0fep-51, 0x1.61669cf861e4cp-51,
    0x1.653ce7b006aeap-51, 0x1.69540be9fe5c3p-51, 0x1.6db6b8d09e232p-51,
    0x1.72728f05f7a34p-51, 0x1.7799556090673p-51, 0x1.7d42df4d6ce8cp-51,
    0x1.839030529f234p-51, 0x1.8ab0fbfaa7c14p-51, 0x1.92ee0946f4496p-51,
    0x1.9cbee014057abp-51, 0x1.a8fdc7894775ap-51, 0x1.b981f3878fdb1p-51,
    0x1.d3bb48209ad33p-51,
};
static const double fi_double[256] = {
    0x1.0000000000000p+0, 0x1.f446ac979f087p-1, 0x1.eb7545b6ca915p-1,
    0x1.e3f11e027f077p-1, 0x1.dd36fa704de95p-1, 0x1.d70920657bcf2p-1,
    0x1.d144978a119dcp-1, 0x1.cbd33a8a72debp-1, 0x1.c6a5ecea9787fp-1,
    0x1.c1b1cd9eebaeap-1, 0x1.bceeb4ee1dc82p-1, 0x1.b85653a8ff552p-1,
    0x1.b3e3a8234dd10p-1, 0x1.af92a3f6ce8a2p-1, 0x1.ab5fef17a2504p-1,
    0x1.a748bd550c9e1p-1, 0x1.a34aafdf5af0fp-1, 0x1.9f63bee651fd8p-1,
    0x1.9b9228d240681p-1, 0x1.97d4657617ac1p-1, 0x1.94291c21b7a47p-1,
    0x1.908f1bd31714fp-1, 0x1.8d0554fe60aa8p-1, 0x1.898ad48badf02p-1,
    0x1.861ebfc37bcacp-1, 0x1.82c050f56cf6ep-1, 0x1.7f6ed4b20e2cbp-1,
    0x1.7c29a779c6858p-1, 0x1.78f033ca0b0d5p-1, 0x1.75c1f0770d856p-1,
    0x1.729e5f43f6d12p-1, 0x1.6f850baea7aeep-1, 0x1.6c7589e635a89p-1,
    0x1.696f75e513b2ap-1, 0x1.667272a92e323p-1, 0x1.637e298550c18p-1,
    0x1.6092498802665p-1, 0x1.5dae86f4aff6ap-1, 0x1.5ad29acc85c89p-1,
    0x1.57fe4264c8d8fp-1, 0x1.55313f08d9e46p-1, 0x1.526b55a656cd5p-1,
    0x1.4fac4e820b667p-1, 0x1.4cf3f4f494ec0p-1, 0x1.4a42172dc5278p-1,
    0x1.479685fdf5012p-1, 0x1.44f114a493679p-1, 0x1.425198a355fe3p-1,
    0x1.3fb7e99585b82p-1, 0x1.3d23e10af31a3p-1, 0x1.3a955a662cd0ep-1,
    0x1.380c32bda00d5p-1, 0x1.358848bf550e9p-1, 0x1.33097c9703a35p-1,
    0x1.308fafd6438efp-1, 0x1.2e1ac55ea3beep-1, 0x1.2baaa14d7954ap-1,
    0x1.293f28e93cd15p-1, 0x1.26d84290504edp-1, 0x1.2475d5a90db84p-1,
    0x1.2217ca92ff7f2p-1, 0x1.1fbe0a9929620p-1, 0x1.1d687fe549969p-1,
    0x1.1b171573fd111p-1, 0x1.18c9b709b3c50p-1, 0x1.16805128639dap-1,
    0x1.143ad105ea99cp-1, 0x1.11f9248311f38p-1, 0x1.0fbb3a2325913p-1,
    0x1.0d810104142a0p-1, 0x1.0b4a68d70d9aep-1, 0x1.091761d995d81p-1,
    0x1.06e7dccf03c36p-1, 0x1.04bbcafa63f2ep-1, 0x1.02931e18b822ap-1,
    0x1.006dc85b8cac4p-1, 0x1.fc9778c7bbda1p-2, 0x1.f859da7a900cap-2,
    0x1.f4229cb2f7af3p-2, 0x1.eff1a717e8f95p-2, 0x1.ebc6e20bd1f54p-2,
    0x1.e7a236a4ec3c5p-2, 0x1.e3838ea5f9b85p-2, 0x1.df6ad47763a09p-2,
    0x1.db57f320b56b1p-2, 0x1.d74ad6426de33p-2, 0x1.d3436a1021080p-2,
    0x1.cf419b4ae5b6dp-2, 0x1.cb45573c0a848p-2, 0x1.c74e8bb00d7c7p-2,
    0x1.c35d26f1d2cb8p-2, 0x1.bf7117c616a17p-2, 0x1.bb8a4d6716d91p-2,
    0x1.b7a8b7807131bp-2, 0x1.b3cc462b331cap-2, 0x1.aff4e9ea18552p-2,
    0x1.ac2293a5f5a9ep-2, 0x1.a85534aa4d880p-2, 0x1.a48cbea20c04dp-2,
    0x1.a0c923946843ep-2, 0x1.9d0a55e1e93dfp-2, 0x1.995048418c0c6p-2,
    0x1.959aedbe09f93p-2, 0x1.91ea39b33cb17p-2, 0x1.8e3e1fcb9f115p-2,
    0x1.8a9693fde9188p-2, 0x1.86f38a8ac5ab6p-2, 0x1.8354f7faa0dd9p-2,
    0x1.7fbad11b8d911p-2, 0x1.7c250aff414b0p-2, 0x1.78939af9252ebp-2,
    0x1.7506769c7b1edp-2, 0x1.717d93ba9614cp-2, 0x1.6df8e86124caap-2,
    0x1.6a786ad88de21p-2, 0x1.66fc11a25cbe2p-2, 0x1.6383d377be515p-2,
    0x1.600fa7480d2c8p-2, 0x1.5c9f84376c244p-2, 0x1.5933619d6eebep-2,
    0x1.55cb3703d0100p-2, 0x1.5266fc2533bedp-2, 0x1.4f06a8ebf6d92p-2,
    0x1.4baa357109ca2p-2, 0x1.485199fad6ad4p-2, 0x1.44fccefc324fep-2,
    0x1.41abcd1357a19p-2, 0x1.3e5e8d08ed2dbp-2, 0x1.3b1507cf143aep-2,
    0x1.37cf368081379p-2, 0x1.348d125f9d19ep-2, 0x1.314e94d5af62fp-2,
    0x1.2e13b77210766p-2, 0x1.2adc73e963fddp-2, 0x1.27a8c414db11ep-2,
    0x1.2478a1f17de89p-2, 0x1.214c079f7cc9ep-2, 0x1.1e22ef6188116p-2,
    0x1.1afd539c2f050p-2, 0x1.17db2ed5454e8p-2, 0x1.14bc7bb34ee67p-2,
    0x1.11a134fcf2423p-2, 0x1.0e895598709c4p-2, 0x1.0b74d88b242dap-2,
    0x1.0863b8f904336p-2, 0x1.0555f2242e9d9p-2, 0x1.024b7f6c7747ep-2,
    0x1.fe88b89df93c5p-3, 0x1.f88108cb83235p-3, 0x1.f27fe6ce998d2p-3,
    0x1.ec854a4c99c44p-3, 0x1.e6912b2283cddp-3, 0x1.e0a3816457184p-3,
    0x1.dabc455c7900ap-3, 0x1.d4db6f8b2514fp-3, 0x1.cf00f8a5e6fccp-3,
    0x1.c92cd9971df53p-3, 0x1.c35f0b7d89d47p-3, 0x1.bd9787abe18a1p-3,
    0x1.b7d647a8731aap-3, 0x1.b21b452ccd13ap-3, 0x1.ac667a2571807p-3,
    0x1.a6b7e0b19267ep-3, 0x1.a10f7322d7e3dp-3, 0x1.9b6d2bfd2fe5ap-3,
    0x1.95d105f6a7c27p-3, 0x1.903afbf74fa69p-3, 0x1.8aab09192815bp-3,
    0x1.852128a819a38p-3, 0x1.7f9d5621f7175p-3, 0x1.7a1f8d368a323p-3,
    0x1.74a7c9c7ab5a6p-3, 0x1.6f3607e964716p-3, 0x1.69ca43e21f25cp-3,
    0x1.64647a2adf19cp-3, 0x1.5f04a76f883f9p-3, 0x1.59aac88f31d6cp-3,
    0x1.5456da9c86835p-3, 0x1.4f08dade31fc1p-3, 0x1.49c0c6cf5ce2dp-3,
    0x1.447e9c20375d5p-3, 0x1.3f4258b6931aep-3, 0x1.3a0bfaae8d7eep-3,
    0x1.34db805b4ab88p-3, 0x1.2fb0e847c2a65p-3, 0x1.2a8c3137a071ap-3,
    0x1.256d5a2835eb7p-3, 0x1.2054625183c34p-3, 0x1.1b41492757d42p-3,
    0x1.16340e5a82d63p-3, 0x1.112cb1da26eb9p-3, 0x1.0c2b33d5209bap-3,
    0x1.072f94bb8bf85p-3, 0x1.0239d54067d2ap-3, 0x1.fa93ecb6b222cp-4,
    0x1.f0bff29520e1cp-4, 0x1.e6f7bf29aa54bp-4, 0x1.dd3b56176e88fp-4,
    0x1.d38abb9bd91e5p-4, 0x1.c9e5f493b740ap-4, 0x1.c04d0680b1015p-4,
    0x1.b6bff78f2e233p-4, 0x1.ad3ece9caf633p-4, 0x1.a3c9933ea6286p-4,
    0x1.9a604dc9d5b19p-4, 0x1.9103075a4a0abp-4, 0x1.87b1c9dbf2852p-4,
    0x1.7e6ca013eefd6p-4, 0x1.753395aaa1176p-4, 0x1.6c06b73694a4cp-4,
    0x1.62e6124854d18p-4, 0x1.59d1b577466a4p-4, 0x1.50c9b06fa2baep-4,
    0x1.47ce1401b2213p-4, 0x1.3edef23269a86p-4, 0x1.35fc5e4d93e70p-4,
    0x1.2d266cf9b3111p-4, 0x1.245d344dd0d91p-4, 0x1.1ba0cbe97897dp-4,
    0x1.12f14d0f2179dp-4, 0x1.0a4ed2c159625p-4, 0x1.01b979e30e497p-4,
    0x1.f262c2b6c6e35p-5, 0x1.e16d547b25181p-5, 0x1.d092efeadf162p-5,
    0x1.bfd3e0f282a2cp-5, 0x1.af30790385f70p-5, 0x1.9ea90f9295563p-5,
    0x1.8e3e02a68b5abp-5, 0x1.7defb77af271ep-5, 0x1.6dbe9b398d064p-5,
    0x1.5dab23cf2add4p-5, 0x1.4db5d0e11275dp-5, 0x1.3ddf2ce98eecbp-5,
    0x1.2e27ce83df497p-5, 0x1.1e9059f1f6abcp-5, 0x1.0f1982e968011p-5,
    0x1.ff881d718a5c4p-6, 0x1.e121adb828c75p-6, 0x1.c301983cd091ap-6,
    0x1.a529f4e22ebf8p-6, 0x1.879d1b600c10ap-6, 0x1.6a5daf40bbf82p-6,
    0x1.4d6eaf2fbb064p-6, 0x1.30d388dab5e13p-6, 0x1.1490334603012p-6,
    0x1.f152a4f72dd49p-7, 0x1.ba48d274f8facp-7, 0x1.841040d8da478p-7,
    0x1.4eb96421acfe0p-7, 0x1.1a59229952f92p-7, 0x1.ce160f8ec6837p-8,
    0x1.69ea8d90cb85dp-8, 0x1.08a1f03b0b1fdp-8, 0x1.55f9f43c1b067p-9,
    0x1.4a605b6b9f70fp-10,
};

/* the tail's start r, and 1/r, as numpy's ziggurat_nor_r and ziggurat_nor_inv_r */
static const double ZIG_R = 0x1.d3bb48209ad33p+1;
static const double ZIG_INV_R = 0x1.183aa6c20e8c1p-2;

/*
 * The rest of numpy's random_standard_normal once the first word w of a draw
 * has missed its layer's fast test: the wedge test of layer idx, or for
 * idx 0 the tail past r, and a fresh word wherever the wedge rejects --
 * numpy's own loop, operation for operation.  A word misses its layer's
 * test with probability about 1.5%, so this is out of line.
 */
static __attribute__((noinline, cold)) double normal_rare(philox_t *s, uint64_t w)
{
    for (;;) {
        const int idx = w & 0xff;
        const uint64_t rabs = (w >> 9) & UINT64_C(0x000fffffffffffff);
        double x = (double)(int64_t)rabs * wi_double[idx];
        if (w & 0x100) {
            x = -x;
        }
        if (rabs < ki_double[idx]) {
            return x;
        }
        if (idx == 0) {
            for (;;) {
                const double xx = -ZIG_INV_R * log1p(-philox_double(s));
                const double yy = -log1p(-philox_double(s));
                if (yy + yy > xx * xx) {
                    return ((rabs >> 8) & 0x1) ? -(ZIG_R + xx) : ZIG_R + xx;
                }
            }
        }
        if ((fi_double[idx - 1] - fi_double[idx]) * philox_double(s) + fi_double[idx] < exp(-0.5 * x * x)) {
            return x;
        }
        w = philox_next64(s);
    }
}

/*
 * numpy's random_standard_normal: a word's low byte picks a layer, its next
 * bit the sign and the 52 bits above it the magnitude, which is accepted at
 * once below the layer's bound.  The sign is put on by flipping bit 63,
 * which is what numpy's -x does, without a branch on a coin flip.
 */
static inline __attribute__((always_inline)) double philox_normal(philox_t *s)
{
    const uint64_t w = philox_next64(s);
    const int idx = w & 0xff;
    const uint64_t rabs = (w >> 9) & UINT64_C(0x000fffffffffffff);
    if (__builtin_expect(rabs >= ki_double[idx], 0)) {
        return normal_rare(s, w);
    }
    const double x = (double)(int64_t)rabs * wi_double[idx];
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    bits ^= (w << 55) & (UINT64_C(1) << 63);  /* bit 8 of w, the sign */
    double out;
    memcpy(&out, &bits, sizeof out);
    return out;
}

/*
 * Draw row r of out -- the n doubles from out + r*rs -- from stream
 * states[r], for r = 0 .. R-1: standard normals where normal is set, else
 * uniforms on [0, 1).  Each row holds what Generator.standard_normal(out=)
 * (or Generator.random(out=)) of numpy's Generator on that stream would
 * draw, and the stream is left as that call leaves it, so a stream goes on
 * unchanged across calls of either kind.  Each stream is stepped in a local
 * copy and written back.
 */
void msgd_draw(int32_t normal, philox_t *states, int64_t R, int64_t n, double *out, int64_t rs)
{
    for (int64_t r = 0; r < R; r++) {
        philox_t s = states[r];
        double *row = out + r * rs;
        if (normal) {
            for (int64_t i = 0; i < n; i++) {
                row[i] = philox_normal(&s);
            }
        } else {
            for (int64_t i = 0; i < n; i++) {
                row[i] = philox_double(&s);
            }
        }
        states[r] = s;
    }
}

/* SeedSequence's hashmix and mix, in uint32 arithmetic */
static uint32_t hashmix(uint32_t value, uint32_t *hash_const)
{
    value ^= *hash_const;
    *hash_const *= 0x931e8875u;
    value *= *hash_const;
    value ^= value >> 16;
    return value;
}

static uint32_t mix(uint32_t x, uint32_t y)
{
    uint32_t result = 0xca01f9ddu * x - 0x4973f715u * y;
    result ^= result >> 16;
    return result;
}

/*
 * Seed child children[c] of each of R runs, for c = 0 .. C-1.
 *
 * Run r's assembled entropy, but for its child's number, is the words
 * words[ends[r-1] .. ends[r]) (from 0 for r = 0): its run entropy padded
 * with zeros to its pool size pools[r], then its spawn key.  With the
 * child's number (below 2**32) as a last word, these are the words
 * SeedSequence(entropy, spawn_key=(*key, child), pool_size) mixes into its
 * pool, and generate_state(2, np.uint64) of that pool is the key numpy's
 * Philox takes from it, at counter 0 with its buffer spent.  pool holds
 * max(pools) words of scratch.
 *
 * Writes the state of child c of run r to states[c*R + r].
 */
void msgd_seed(const uint32_t *words, const int64_t *ends, const int64_t *pools, int64_t R,
               const int64_t *children, int64_t C, uint32_t *pool, philox_t *states)
{
    for (int64_t r = 0; r < R; r++) {
        const int64_t start = r == 0 ? 0 : ends[r - 1];
        const int64_t len = ends[r] - start + 1;  /* and the child's number */
        const int64_t p = pools[r];
        const uint32_t *e = words + start;
        for (int64_t c = 0; c < C; c++) {
            const uint32_t child = (uint32_t)children[c];
            uint32_t h = 0x43b0d7e5u;
            for (int64_t i = 0; i < p; i++) {
                pool[i] = hashmix(i < len - 1 ? e[i] : i == len - 1 ? child : 0, &h);
            }
            for (int64_t src = 0; src < p; src++) {
                for (int64_t dst = 0; dst < p; dst++) {
                    if (src != dst) {
                        pool[dst] = mix(pool[dst], hashmix(pool[src], &h));
                    }
                }
            }
            for (int64_t src = p; src < len; src++) {
                const uint32_t word = src < len - 1 ? e[src] : child;
                for (int64_t dst = 0; dst < p; dst++) {
                    pool[dst] = mix(pool[dst], hashmix(word, &h));
                }
            }
            uint32_t out[4];
            uint32_t g = 0x8b51f9ddu;
            for (int64_t i = 0; i < 4; i++) {
                uint32_t v = pool[i % p] ^ g;
                g *= 0x58f38dedu;
                v *= g;
                v ^= v >> 16;
                out[i] = v;
            }
            const int64_t at = c * R + r;
            philox_t *s = states + at;
            for (int i = 0; i < 4; i++) {
                s->ctr[i] = 0;
                s->buffer[i] = 0;
            }
            s->key[0] = out[0] | (uint64_t)out[1] << 32;
            s->key[1] = out[2] | (uint64_t)out[3] << 32;
            s->buffer_pos = 4;
            s->has_uint32 = 0;
            s->uinteger = 0;
        }
    }
}

/*
 * The instance sum of parallel SGD: a holds rows*K*d contiguous doubles,
 * rows of K instances of d coordinates, and out[r*d + j] becomes
 *     ((0.0 + a[r, 0, j]) + a[r, 1, j]) + ... + a[r, K-1, j],
 * the instances added in their order from 0.0 -- so -0.0 instances sum to
 * +0.0 -- as numpy's sum(axis=-2) adds them where d > 1 (at d = 1 numpy
 * sums pairwise).  The loader checks that it equals numpy's sum at a
 * dimension before the engine takes it there.
 */
void msgd_isum(const double *a, int64_t rows, int64_t K, int64_t d, double *out)
{
    for (int64_t r = 0; r < rows; r++) {
        const double *p = a + r * K * d;
        double *o = out + r * d;
        for (int64_t j = 0; j < d; j++) {
            o[j] = 0.0 + p[j];
        }
        for (int64_t k = 1; k < K; k++) {
            const double *q = p + k * d;
            for (int64_t j = 0; j < d; j++) {
                o[j] += q[j];
            }
        }
    }
}

/*
 * Walk R runs of a finite chain n steps by inverse-CDF sampling.
 *
 * lead holds rows of S-1 contiguous doubles: the cumulative transition
 * probabilities of each of the S states without their last column (1.0,
 * which no uniform reaches), then any rows a run may start in but never
 * reaches, such as the path cursor's stationary row.  Run r starts in
 * state[r], which lies below the row count, and its uniforms are
 * u[r*un + i].  Step i moves it to the number of thresholds of
 * its state that u is >= -- the comparisons the numpy walk makes -- and
 * stores that state in out[i*on + r*ro].  That element may be the 8 bytes
 * of u[r*un + i] itself: step i reads its uniform before it stores, and
 * reads no earlier uniform again.
 *
 * Each step waits on the state the step before loaded, so runs are walked
 * LANES at a time, step i of each in turn, and their steps overlap in the
 * CPU; runs never interact, so each makes the same comparisons.  A group of
 * LANES runs keeps its states in registers (the R mod LANES runs left over
 * take a plain loop).  In a group, a chain of at most FEW + 1 states makes
 * its w = S - 1 comparisons unrolled, entering a switch at case w and
 * falling through to case 1, with no loop control between them; a larger
 * chain counts them in a loop.  (A copy of the walk compiled for each w was
 * faster still -- 1.3 against 1.6 ns a step at S = 4 with gcc 12 -- but
 * took the compiler 5 MB more: the library is built on a machine's first
 * run, and the compiler's peak counts in that process's memory.)
 */

#define FEW 8

/* The thresholds of row that v is >= -- w of them, at most FEW where few is set */
static inline __attribute__((always_inline)) int64_t count(const double *row, const double v, const int64_t w,
                                                           const int few)
{
    int64_t next = 0;
    if (!few) {
        for (int64_t j = 0; j < w; j++) {
            next += v >= row[j];
        }
        return next;
    }
    switch (w) {
    case 8:
        next += v >= row[7];
        /* fall through */
    case 7:
        next += v >= row[6];
        /* fall through */
    case 6:
        next += v >= row[5];
        /* fall through */
    case 5:
        next += v >= row[4];
        /* fall through */
    case 4:
        next += v >= row[3];
        /* fall through */
    case 3:
        next += v >= row[2];
        /* fall through */
    case 2:
        next += v >= row[1];
        /* fall through */
    default:
        next += v >= row[0];
    }
    return next;
}

/* Steps 0 .. n-1 of the runs r0 .. r0 + runs - 1, runs <= LANES */
static inline __attribute__((always_inline)) void walk_runs(const double *lead, int64_t w, const int few,
                                                            const double *u, int64_t un, const int64_t *state,
                                                            int64_t r0, const int64_t runs, int64_t n, int64_t *out,
                                                            int64_t on, int64_t ro)
{
    int64_t s[LANES];
    for (int64_t g = 0; g < runs; g++) {
        s[g] = state[r0 + g];
    }
    for (int64_t i = 0; i < n; i++) {
#pragma GCC unroll 4
        for (int64_t g = 0; g < runs; g++) {
            const int64_t next = count(lead + s[g] * w, u[(r0 + g) * un + i], w, few);
            out[i * on + (r0 + g) * ro] = next;
            s[g] = next;
        }
    }
}

void msgd_walk(const double *lead, int64_t S, const double *u, int64_t un,
               const int64_t *state, int64_t R, int64_t n, int64_t *out, int64_t on, int64_t ro)
{
    const int64_t w = S - 1, whole = R - R % LANES;
    for (int64_t r0 = 0; r0 < whole; r0 += LANES) {
        if (1 <= w && w <= FEW) {
            walk_runs(lead, w, 1, u, un, state, r0, LANES, n, out, on, ro);
        } else {
            walk_runs(lead, w, 0, u, un, state, r0, LANES, n, out, on, ro);
        }
    }
    if (whole < R) {
        walk_runs(lead, w, 0, u, un, state, whole, R - whole, n, out, on, ro);
    }
}

/*
 * The Gaussian AR recursion x_t = b*g_t + c*x_{t-1}, per run and coordinate.
 *
 * Element j of step i of run r is g[r*rs + i*d + j] (likewise in x); g and
 * x may be the same buffer.  x0 holds (R, d) contiguous doubles: each run's
 * state before its first step.
 *
 * This is the first-order filter scipy.signal.lfilter([b], [1, -c])
 * evaluates, started from zi = c*x0.  Its output is zi + b*g, and the
 * state it carries to the next step is 0*g - (-c)*x: that is c*x exactly,
 * except that a zero may differ in sign, which shows only when the next
 * b*g is a zero too.
 */
void msgd_ar(const double *g, double *x, int64_t R, int64_t n, int64_t d, int64_t rs,
             double b, double c, const double *x0)
{
    for (int64_t r = 0; r < R; r++) {
        const double *prev = x0 + r * d;
        for (int64_t i = 0; i < n; i++) {
            const int64_t at = r * rs + i * d;
            for (int64_t j = 0; j < d; j++) {
                x[at + j] = b * g[at + j] + c * prev[j];
            }
            prev = x + at;
        }
    }
}
