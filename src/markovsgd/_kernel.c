/*
 * The inner loops of markovsgd, compiled: the least-squares update loop of
 * markovsgd.algorithms, the two path samplers of markovsgd.chains, the
 * fill that draws every run's variates in one call and the seeding of
 * every run's Philox streams.
 *
 * markovsgd/_kernel.py builds this file on first use with
 *     cc -O2 -fPIC -shared -ffp-contract=off ... -lm
 * and never with -ffast-math: every operation below must round exactly as
 * the numpy loop in algorithms._descend does, so the compiler may fuse no
 * product into an FMA and reassociate no sum.  The dot products are the
 * ones np.vecdot computes for float64 rows, for both <w, x> and the label
 * <x, w*> of a sample vector: the caller passes the ddot of numpy's own
 * BLAS, which np.vecdot calls, and below 16 elements the loop may instead
 * take that ddot's own arithmetic, written out as explicit fma() calls
 * (the fused dot, below), where a check at load finds it equal.  Either
 * result is added to 0.0 as numpy's dot loop adds it (so a -0.0 dot reads
 * +0.0, as it does there).
 * The update loop and the finite walk take several runs side by side: runs
 * never interact, so that changes the order of work across runs and none
 * of a run's own operations.
 * The samplers call no BLAS: each makes the same IEEE operations as the
 * numpy (or scipy) code it replaces.  The fill draws nothing itself: it
 * calls numpy's own fill function once per run.  The seeding hashes as
 * numpy's SeedSequence does and steps Philox4x64-10 as numpy's Philox does,
 * in integer arithmetic only (the 64x64-bit products need __uint128_t).
 */
#include <math.h>
#include <stdint.h>

typedef double (*ddot_fn)(int64_t n, const double *x, int64_t incx, const double *y, int64_t incy);
typedef void (*fill_fn)(void *bitgen, int64_t n, double *out);

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
 * attribute, and no flag of the build changes, so the library still
 * builds for, and loads on, any x86-64 CPU: msgd_fused says whether this
 * one has the instructions, and the loader calls those functions only
 * where it does.  A compiler without the attribute calls libm's fma().
 */
#if defined(__x86_64__) && defined(__GNUC__) && defined(__has_attribute)
#if __has_attribute(target)
#define FMA_TARGET
#endif
#endif
#ifdef FMA_TARGET
#define FUSED __attribute__((target("fma")))
#else
#define FUSED
#endif

static inline __attribute__((always_inline)) double dot(ddot_fn ddot, int fused, int64_t n,
                                                        const double *x, int64_t incx, const double *y, int64_t incy)
{
    if (!fused) {
        return 0.0 + ddot(n, x, incx, y, incy);
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
        out[i] = dot(ddot, 0, d, a + i * d, 1, b + i * d, 1);
    }
}

/* Whether this CPU can run the FUSED functions. */
int32_t msgd_fused(void)
{
#ifdef FMA_TARGET
    __builtin_cpu_init();
    return __builtin_cpu_supports("fma") != 0;
#else
    return 1;
#endif
}

/* out[i] = the fused dot of rows i of a and b, n rows of d doubles; only where msgd_fused(). */
FUSED void msgd_fused_dots(int64_t n, int64_t d, const double *a, const double *b, double *out)
{
    for (int64_t i = 0; i < n; i++) {
        out[i] = dot(0, 1, d, a + i * d, 1, b + i * d, 1);
    }
}

/* How many runs the update loop and the walk take side by side */
#define LANES 4

/*
 * Apply n updates to the weights w of R runs.
 *
 * w and acc hold (m, R, K, d) contiguous doubles: m weight branches of R
 * runs of K instances.  Sample i of instance (r, k) is read in one of two
 * modes:
 *   vector:  the vector x[i*xn + r*xr + k*xk + j*xd] (j < d, xd > 0), whose
 *            label is <x, w*> -- y holds the d doubles of w* -- as
 *            np.vecdot(x, w*) computes it, in every branch;
 *   indexed: x is a table of contiguous rows of d doubles, and the sample
 *            is row s = idx[i*in + r*ir + k*ik] of it; y is a table of ym
 *            labels per branch, and the label in branch b is y[b*ym + s].
 *            (xn, xr, xk are not read.)
 * In either mode, when xi is given and bit b of noisy is set, branch b adds
 * sigma * xi[i*qn + r*qr + k*qk] to its label, as numpy adds the product
 * sigma * xi.  Strides count elements.
 *
 * Each row takes res = <w, x> - y and then
 *     plain:  w_j = w_j - res * (alpha * x_j)       (sgd, data drop, replay)
 *     scaled: w_j = w_j - (res * alpha) * x_j       (parallel SGD)
 * Update i is number u = first + i.  It ends an event when u is a multiple
 * of every (a replay buffer's B updates, else 1), and then a run's weights
 * are added into its rows of acc when lo <= u < hi, and copied into its
 * rows of row u / every of iters, when iters is given: rows of m*R*K*d
 * doubles.  acc and iters may be null.
 * With fused set and unit-stride samples (xd = 1), every dot is the fused
 * dot (the caller sets fused only for d < 16, where that dot passed its
 * check); otherwise every dot calls ddot.
 *
 * Runs never interact, so the order in which their updates are taken
 * changes no run's operations, and so none of its bits.  A run's K
 * instances are independent work for the CPU; a run of one instance has
 * none, since each update waits on the one before.  So runs of one
 * instance are taken LANES at a time, update i of each in turn: the
 * updates of different runs overlap in the CPU, and each run's updates
 * keep their order.  Runs of several instances are taken one at a time.
 *
 * bad[r] < 0 marks a run still finite.  When update i leaves a weight of
 * run r non-finite, bad[r] becomes first + i and the run stops there: it
 * is not updated again and its acc and iters rows are not written for
 * update i or later, while the runs taken with it go on.  A run already
 * marked is skipped.
 */
static inline __attribute__((always_inline)) void advance(ddot_fn ddot, int fused, double *w, double *acc, double *iters,
                    int64_t m, int64_t R, int64_t K, int64_t d,
                    const double *x, int64_t xn, int64_t xr, int64_t xk, int64_t xd,
                    const int64_t *idx, int64_t in, int64_t ir, int64_t ik,
                    const double *y, int64_t ym,
                    const double *xi, int64_t qn, int64_t qr, int64_t qk, double sigma, int64_t noisy,
                    int64_t n, int64_t lo, int64_t hi, double alpha, int32_t scaled,
                    int64_t *bad, int64_t first, int64_t every)
{
    const int64_t size = m * R * K * d;
    const int64_t lanes = K == 1 ? LANES : 1;
    const int64_t lead = (every - first % every) % every;  /* the call's first update to end an event */
    for (int64_t r0 = 0; r0 < R; r0 += lanes) {
        const int64_t runs = R - r0 < lanes ? R - r0 : lanes;
        int live[LANES];
        int alive = 0;
        for (int64_t g = 0; g < runs; g++) {
            live[g] = bad[r0 + g] < 0;
            alive |= live[g];
        }
        int64_t left = lead, event = (first + lead) / every;  /* updates before the next event's end; that event */
        for (int64_t i = 0; i < n && alive; i++) {
            const int ends = left == 0;
            left = ends ? every - 1 : left - 1;
            alive = 0;
            for (int64_t g = 0; g < runs; g++) {
                if (!live[g]) {
                    continue;
                }
                const int64_t r = r0 + g;
                double spoilt = 0.0;  /* v - v is +0.0, or NaN where v is not finite */
                for (int64_t b = 0; b < m; b++) {
                    const int noise = xi != 0 && ((noisy >> b) & 1);
                    for (int64_t k = 0; k < K; k++) {
                        double *row = w + ((b * R + r) * K + k) * d;
                        const double *xv;
                        double label;
                        if (idx != 0) {
                            const int64_t s = idx[i * in + r * ir + k * ik];
                            xv = x + s * d;
                            label = y[b * ym + s];
                        } else {
                            xv = x + i * xn + r * xr + k * xk;
                            label = dot(ddot, fused, d, xv, xd, y, 1);
                        }
                        if (noise) {
                            label = label + sigma * xi[i * qn + r * qr + k * qk];
                        }
                        double res = dot(ddot, fused, d, row, 1, xv, xd) - label;
                        if (scaled) {
                            res = res * alpha;
                            for (int64_t j = 0; j < d; j++) {
                                double v = row[j] - res * xv[j * xd];
                                row[j] = v;
                                spoilt += v - v;
                            }
                        } else {
                            for (int64_t j = 0; j < d; j++) {
                                double v = row[j] - res * (alpha * xv[j * xd]);
                                row[j] = v;
                                spoilt += v - v;
                            }
                        }
                    }
                }
                if (spoilt != 0.0) {
                    bad[r] = first + i;
                    live[g] = 0;
                    continue;
                }
                alive = 1;
                const int sum = ends && acc != 0 && lo <= first + i && first + i < hi;
                if (sum || (ends && iters != 0)) {
                    for (int64_t b = 0; b < m; b++) {
                        const int64_t at = (b * R + r) * K * d;
                        const double *row = w + at;
                        if (sum) {
                            double *to = acc + at;
                            for (int64_t j = 0; j < K * d; j++) {
                                to[j] += row[j];
                            }
                        }
                        if (iters != 0) {
                            double *to = iters + event * size + at;
                            for (int64_t j = 0; j < K * d; j++) {
                                to[j] = row[j];
                            }
                        }
                    }
                }
            }
            event += ends;
        }
    }
}

/*
 * msgd_advance's parameters after its dot, and a call of advance on them
 * with the dot, the number of branches, the element stride and the row
 * numbers given.
 */
#define ADVANCE_PARAMS double *w, double *acc, double *iters, int64_t m, int64_t R, int64_t K, int64_t d, \
                       const double *x, int64_t xn, int64_t xr, int64_t xk, int64_t xd, \
                       const int64_t *idx, int64_t in, int64_t ir, int64_t ik, const double *y, int64_t ym, \
                       const double *xi, int64_t qn, int64_t qr, int64_t qk, double sigma, int64_t noisy, \
                       int64_t n, int64_t lo, int64_t hi, double alpha, int32_t scaled, int64_t *bad, int64_t first, \
                       int64_t every
#define ADVANCE(ddot_, fused_, m_, xd_, idx_)                                                          \
    advance(ddot_, fused_, w, acc, iters, m_, R, K, d, x, xn, xr, xk, xd_, idx_, in, ir, ik, y, ym, \
            xi, qn, qr, qk, sigma, noisy, n, lo, hi, alpha, scaled, bad, first, every)

/*
 * Inlined copies of the loop, so that none tests per update what is fixed
 * for the call: whether samples are indexed, and, with the fused dot, the
 * one branch of an uncoupled run.
 */
FUSED static void advance_fused(ADVANCE_PARAMS)
{
    (void)xd;  /* 1: msgd_advance calls this only for unit strides */
    if (idx != 0) {
        if (m == 1) {
            ADVANCE(0, 1, 1, 1, idx);
        } else {
            ADVANCE(0, 1, m, 1, idx);
        }
    } else if (m == 1) {
        ADVANCE(0, 1, 1, 1, 0);
    } else {
        ADVANCE(0, 1, m, 1, 0);
    }
}

void msgd_advance(ddot_fn ddot, int32_t fused, ADVANCE_PARAMS)
{
    if (fused && xd == 1) {
        advance_fused(w, acc, iters, m, R, K, d, x, xn, xr, xk, xd, idx, in, ir, ik, y, ym,
                      xi, qn, qr, qk, sigma, noisy, n, lo, hi, alpha, scaled, bad, first, every);
    } else if (idx != 0) {
        ADVANCE(ddot, 0, m, xd, idx);
    } else {
        ADVANCE(ddot, 0, m, xd, 0);
    }
}

/*
 * Fill row r of out -- the n doubles from out + r*rs -- from generator
 * gens[r], for r = 0 .. R-1.  fill is numpy's random_standard_uniform_fill
 * or random_standard_normal_fill, the function Generator.random(out=) or
 * Generator.standard_normal(out=) calls, and gens holds bitgen_t pointers.
 * A generator listed twice fills its rows in row order, as a loop of the
 * Generator method over the rows would.
 */
void msgd_fill(fill_fn fill, void *const *gens, int64_t R, int64_t n, double *out, int64_t rs)
{
    for (int64_t r = 0; r < R; r++) {
        fill(gens[r], n, out + r * rs);
    }
}

/* numpy's bitgen_t (numpy/random/bitgen.h): what the fill functions draw from */
typedef struct {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

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
static uint64_t philox_next64(void *st)
{
    philox_t *s = st;
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

/* numpy's philox_next32: the low half of a word, then its high half */
static uint32_t philox_next32(void *st)
{
    philox_t *s = st;
    if (s->has_uint32) {
        s->has_uint32 = 0;
        return (uint32_t)s->uinteger;
    }
    const uint64_t next = philox_next64(st);
    s->has_uint32 = 1;
    s->uinteger = next >> 32;
    return (uint32_t)next;
}

static double philox_next_double(void *st)
{
    return (double)(philox_next64(st) >> 11) * (1.0 / 9007199254740992.0);
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
 * Writes the state of child c of run r to states[c*R + r], its bitgen_t
 * to gens[c*R + r] and that bitgen_t's address to ptrs[c*R + r].
 */
void msgd_seed(const uint32_t *words, const int64_t *ends, const int64_t *pools, int64_t R,
               const int64_t *children, int64_t C, uint32_t *pool, philox_t *states, bitgen_t *gens, void **ptrs)
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
            gens[at].state = s;
            gens[at].next_uint64 = philox_next64;
            gens[at].next_uint32 = philox_next32;
            gens[at].next_double = philox_next_double;
            gens[at].next_raw = philox_next64;
            ptrs[at] = gens + at;
        }
    }
}

/*
 * Walk R runs of a finite chain n steps by inverse-CDF sampling.
 *
 * lead holds (S, S-1) contiguous doubles: the cumulative transition
 * probabilities of each state without their last column (1.0, which no
 * uniform reaches).  Run r starts in state[r], 0 <= state[r] < S, and its
 * uniforms are u[r*un + i].  Step i moves it to the number of thresholds of
 * its state that u is >= -- the comparisons the numpy walk makes -- and
 * stores that state in out[i*on + r*ro].  That element may be the 8 bytes
 * of u[r*un + i] itself: step i reads its uniform before it stores, and
 * reads no earlier uniform again.
 *
 * Each step waits on the state the step before loaded, so runs are walked
 * LANES at a time, step i of each in turn, and their steps overlap in the
 * CPU; runs never interact, so each makes the same comparisons.
 */
void msgd_walk(const double *lead, int64_t S, const double *u, int64_t un,
               const int64_t *state, int64_t R, int64_t n, int64_t *out, int64_t on, int64_t ro)
{
    const int64_t w = S - 1;
    for (int64_t r0 = 0; r0 < R; r0 += LANES) {
        const int64_t runs = R - r0 < LANES ? R - r0 : LANES;
        int64_t s[LANES];
        for (int64_t g = 0; g < runs; g++) {
            s[g] = state[r0 + g];
        }
        for (int64_t i = 0; i < n; i++) {
            for (int64_t g = 0; g < runs; g++) {
                const double *row = lead + s[g] * w;
                const double v = u[(r0 + g) * un + i];
                int64_t next = 0;
                for (int64_t j = 0; j < w; j++) {
                    next += v >= row[j];
                }
                out[i * on + (r0 + g) * ro] = next;
                s[g] = next;
            }
        }
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
