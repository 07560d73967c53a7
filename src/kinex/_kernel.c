/* The compiled kernel of kinex: one time step of a block of economies, a
 * relaxation block's whole series, the fresh PCG64 state of each of a block's
 * streams, seeded as numpy seeds it, and a resistor lattice's series of sweeps.
 *
 * Each stream makes exactly the draws that exchange._step_plan lists, as
 * Generator.integers, random and uniform would, on the stream's own PCG64 state,
 * stepped here as numpy steps it; then every economy on that stream applies its
 * rule to the N slots in order, with exchange.run_time_step's operations and
 * clamp.  Draws come in bulk: pcg64_fill steps a stream four states ahead at a
 * time, and the integer and double maps read the words it leaves on the stack,
 * whole words two 32-bit values at a time where no half is pending; the
 * values, and the state a stream is left in, are numpy's all the same.
 * kernel.py builds this file without FMA contraction or fast-math, so
 * every economy gets the bits run_time_step gives it, and holds the draws to
 * values committed from np.random.Generator.  For the same reason a sweep's potentials and its sum of
 * |dV| have the same bits on any host with IEEE doubles.
 */
#include <math.h>
#include <stdint.h>
#include <string.h>

enum { PURE_GAMBLING, FIXED_SAVING, DISTRIBUTED_SAVING, GENERAL };

/* numpy's PCG64: O'Neill's XSL-RR 128/64 generator (PCG, HMC-CS-2014-0905),
 * with numpy's pending 32-bit half.  A stream's state is six words, as
 * kernel.seed_words lays out PCG64.state: state low and high, increment low and
 * high, has_uint32 and uinteger.  numpy keeps the last high half in uinteger
 * after it is read, so a stream's six words are its whole state.  Each draw
 * loop steps a local copy: stores to its output could otherwise alias the
 * state. */
typedef unsigned __int128 u128;
typedef struct { u128 state, inc; uint64_t has_uint32, uinteger; } pcg64;
#define PCG64_MULTIPLIER (((u128)0x2360ed051fc65da4ULL << 64) | 0x4385df649fccf645ULL)

/* The words that kx_uniform and kx_integers draw ahead, on their stack. */
enum { KX_CHUNK = 256 };

static pcg64 pcg64_load(const uint64_t *w)
{
    return (pcg64){((u128)w[1] << 64) | w[0], ((u128)w[3] << 64) | w[2], w[4], w[5]};
}

static void pcg64_store(const pcg64 *g, uint64_t *w)
{
    w[0] = (uint64_t)g->state, w[1] = (uint64_t)(g->state >> 64);
    w[4] = g->has_uint32, w[5] = g->uinteger;
}

static inline uint64_t pcg64_output(u128 state)
{
    const uint64_t x = (uint64_t)(state >> 64) ^ (uint64_t)state;
    const unsigned rot = (unsigned)(state >> 122);
    return (x >> rot) | (x << ((-rot) & 63));
}

static inline uint64_t pcg64_next64(pcg64 *g)
{
    g->state = g->state * PCG64_MULTIPLIER + g->inc;
    return pcg64_output(g->state);
}

static inline uint32_t pcg64_next32(pcg64 *g)
{
    if (g->has_uint32) {
        g->has_uint32 = 0;
        return (uint32_t)g->uinteger;
    }
    const uint64_t next = pcg64_next64(g);
    g->has_uint32 = 1;
    g->uinteger = next >> 32;
    return (uint32_t)next;
}

/* The next m 64-bit values, as m calls of pcg64_next64 give them, leaving the
 * pending half alone.  Each step waits on the multiply-add before it, so four
 * states are computed from each base state s, as s * M^d + inc * (1 + M + ... +
 * M^(d - 1)) for d = 1 .. 4: four independent multiply-adds, the last of
 * which is the next base. */
static void pcg64_fill(pcg64 *g, uint64_t *out, int64_t m)
{
    u128 mul[4] = {PCG64_MULTIPLIER}, add[4] = {g->inc};
    for (int d = 1; d < 4; d++) {
        mul[d] = mul[d - 1] * PCG64_MULTIPLIER;
        add[d] = add[d - 1] * PCG64_MULTIPLIER + g->inc;
    }
    u128 s = g->state;
    int64_t k = 0;
    for (; k + 4 <= m; k += 4) {
        const u128 s1 = s * mul[0] + add[0], s2 = s * mul[1] + add[1];
        const u128 s3 = s * mul[2] + add[2], s4 = s * mul[3] + add[3];
        out[k] = pcg64_output(s1), out[k + 1] = pcg64_output(s2);
        out[k + 2] = pcg64_output(s3), out[k + 3] = pcg64_output(s4);
        s = s4;
    }
    for (; k < m; k++) {
        s = s * mul[0] + add[0];
        out[k] = pcg64_output(s);
    }
    g->state = s;
}

/* Generator.integers(0, span, size) for 1 <= span < 2**32: Lemire's method on
 * 32-bit values, with numpy's rejection threshold.  A span of 1 draws nothing.
 *
 * With no half pending, a pass maps whole words, drawn ahead, two values at a
 * time, the low half first, and leaves uinteger as numpy does.  For a power of
 * two, Lemire's product is a shift and never rejects.  Otherwise the pass stops
 * at a word with a value that might be rejected (its leftover below span) and
 * rewinds the stream to that word.  One value at a time is drawn for a pending
 * half, an odd last value and a value that might be rejected.  Such a value
 * costs its pass at most `ahead` steps, and a pass meets one with probability
 * under 2 * ahead * span / 2**32 <= 1/4: so passes waste under a quarter step
 * per word, and spans above 2**29 draw one value at a time. */
void kx_integers(uint64_t *stream, uint64_t span, int64_t size, int64_t *out)
{
    if (span == 1) {
        memset(out, 0, (size_t)size * sizeof *out);
        return;
    }
    const uint32_t rng = (uint32_t)(span - 1);
    const int shift = span & rng ? 0 : 32 - __builtin_ctzll(span);
    const int64_t ahead = shift || span <= (1 << 29) / KX_CHUNK ? KX_CHUNK : (1 << 29) / (int64_t)span;
    uint64_t words[KX_CHUNK];
    pcg64 g = pcg64_load(stream);
    int64_t k = 0;
    while (k < size) {
        const int64_t n_words = (size - k) / 2 < ahead ? (size - k) / 2 : ahead;
        if (!g.has_uint32 && n_words > 0) {
            const u128 start = g.state;
            pcg64_fill(&g, words, n_words);
            int64_t i = 0;
            if (shift)
                for (; i < n_words; i++, k += 2) {
                    out[k] = (int64_t)((uint32_t)words[i] >> shift);
                    out[k + 1] = (int64_t)(words[i] >> 32 >> shift);
                }
            else
                for (; i < n_words; i++, k += 2) {
                    const uint64_t lo = (uint32_t)words[i] * span, hi = (words[i] >> 32) * span;
                    if ((uint32_t)lo < span || (uint32_t)hi < span)
                        break;
                    out[k] = (int64_t)(lo >> 32);
                    out[k + 1] = (int64_t)(hi >> 32);
                }
            if (i == n_words) {
                g.uinteger = words[i - 1] >> 32;
                continue;
            }
            g.state = start;  /* word i holds a value that might be rejected */
            while (i--)
                pcg64_next64(&g);
        }
        uint64_t m = (uint64_t)pcg64_next32(&g) * span;
        uint32_t leftover = (uint32_t)m;
        if (leftover < span) {
            const uint32_t threshold = (UINT32_MAX - rng) % (uint32_t)span;
            while (leftover < threshold) {
                m = (uint64_t)pcg64_next32(&g) * span;
                leftover = (uint32_t)m;
            }
        }
        out[k++] = (int64_t)(m >> 32);
    }
    pcg64_store(&g, stream);
}

/* Generator.uniform(lo, hi, size): lo + (hi - lo) * a double on the top 53 bits
 * of a 64-bit value, which leaves a pending half alone.  With lo = 0 and hi = 1
 * this is Generator.random(size), bit for bit. */
void kx_uniform(uint64_t *stream, double lo, double hi, int64_t size, double *out)
{
    const double range = hi - lo;
    uint64_t words[KX_CHUNK];
    pcg64 g = pcg64_load(stream);
    for (int64_t k = 0; k < size; k += KX_CHUNK) {
        const int64_t m = size - k < KX_CHUNK ? size - k : KX_CHUNK;
        pcg64_fill(&g, words, m);
        for (int64_t i = 0; i < m; i++)
            out[k + i] = lo + range * ((double)(words[i] >> 11) * 0x1.0p-53);
    }
    pcg64_store(&g, stream);
}

/* One step of `streams` streams of n-agent economies, for `cells` cells.
 *
 * Cell c's economy on stream s is row c * streams + s: its wealth and saving
 * start at (c * streams + s) * n.  Stream s's state is states[6 s .. 6 s + 5].
 * Every stream draws n first agents, n partners below `partner_span` (an index
 * among the other n - 1 agents, or, with `lattice`, the (n, 4) neighbour table,
 * a direction), then `n_eps` arrays of n splits, array e uniform in
 * [windows[2e], windows[2e + 1]).  With no drawn split, cell c's split is
 * eps[c].  Its saving holds every agent's propensity: drawn, its fixed saving
 * fraction, or 0.  ii, jj, e1 and e2 hold n values each, for one stream's draws. */
void kx_step(int rule, int64_t n, int64_t streams, int64_t cells, uint64_t *states,
             uint64_t partner_span, const int64_t *lattice, int n_eps, const double *windows,
             const double *eps, double *wealth, const double *saving, int64_t *ii, int64_t *jj,
             double *e1, double *e2)
{
    for (int64_t s = 0; s < streams; s++) {
        uint64_t *stream = states + 6 * s;
        kx_integers(stream, (uint64_t)n, n, ii);
        kx_integers(stream, partner_span, n, jj);
        if (n_eps > 0)
            kx_uniform(stream, windows[0], windows[1], n, e1);
        if (n_eps > 1)
            kx_uniform(stream, windows[2], windows[3], n, e2);
        for (int64_t k = 0; k < n; k++)  /* j from the raw draw, as exchange._partners */
            jj[k] = lattice ? lattice[4 * ii[k] + jj[k]] : jj[k] + (jj[k] >= ii[k]);

        for (int64_t c = 0; c < cells; c++) {
            const int64_t row = (c * streams + s) * n;
            double *w = wealth + row;
            const double *sav = saving + row;
            for (int64_t k = 0; k < n; k++) {
                const int64_t i = ii[k], j = jj[k];
                const double w_i = w[i], w_j = w[j], total = w_i + w_j;
                const double e = n_eps ? e1[k] : eps[c];
                double new_i;
                switch (rule) {
                case PURE_GAMBLING:
                    new_i = e * total;
                    break;
                case FIXED_SAVING:
                    new_i = sav[i] * w_i + e * (1.0 - sav[i]) * total;
                    break;
                case DISTRIBUTED_SAVING:
                    new_i = sav[i] * w_i + e * ((1.0 - sav[i]) * w_i + (1.0 - sav[j]) * w_j);
                    break;
                default:  /* GENERAL: no clamp, wealth may go negative */
                    new_i = e * w_i + e2[k] * w_j;
                    w[i] = new_i;
                    w[j] = total - new_i;
                    continue;
                }
                const double new_j = total - new_i;
                if (new_j < 0.0) {  /* rounding guard, as in the scalar rules */
                    w[i] = total;
                    w[j] = 0.0;
                } else {
                    w[i] = new_i;
                    w[j] = new_j;
                }
            }
        }
    }
}

/* The sum of a[0 .. n - 1] in numpy's pairwise order, as ndarray.sum gives it
 * along a contiguous row: 8 accumulators up to 128 values, and above that the
 * row split in halves at a multiple of 8. */
double kx_pairwise_sum(const double *a, int64_t n)
{
    if (n > 128) {
        const int64_t half = n / 2 - (n / 2) % 8;
        return kx_pairwise_sum(a, half) + kx_pairwise_sum(a + half, n - half);
    }
    double res = 0.0;
    int64_t i = 0;
    if (n >= 8) {
        double r[8];
        memcpy(r, a, sizeof r);
        for (i = 8; i < n - n % 8; i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += a[i + j];
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
    }
    for (; i < n; i++)
        res += a[i];
    return res;
}

/* t_max steps of kx_step, its arguments first.  After step t, xs[r * t_max + t]
 * is row r's sum of |w(after) - w(before)|, the value run_time_step returns;
 * `before` holds every row's wealth. */
void kx_run(int rule, int64_t n, int64_t streams, int64_t cells, uint64_t *states,
            uint64_t partner_span, const int64_t *lattice, int n_eps, const double *windows,
            const double *eps, double *wealth, const double *saving, int64_t *ii, int64_t *jj,
            double *e1, double *e2, int64_t t_max, double *before, double *xs)
{
    const int64_t rows = cells * streams;
    for (int64_t t = 0; t < t_max; t++) {
        memcpy(before, wealth, (size_t)(rows * n) * sizeof *before);
        kx_step(rule, n, streams, cells, states, partner_span, lattice, n_eps, windows, eps,
                wealth, saving, ii, jj, e1, e2);
        for (int64_t r = 0; r < rows; r++) {
            double *d = before + r * n;
            for (int64_t k = 0; k < n; k++)
                d[k] = fabs(wealth[r * n + k] - d[k]);
            xs[r * t_max + t] = kx_pairwise_sum(d, n);
        }
    }
}

/* kx_relax gets an AVX2 clone beside its baseline build, and the loader picks
 * one by the CPU; both do the same IEEE operations in the same order, so
 * their bits agree.  Other compilers and targets build the baseline alone. */
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#define KX_CLONES __attribute__((target_clones("avx2", "default")))
#else
#define KX_CLONES
#endif

/* The stencil of one interior row: node c's neighbour sum sum_nb g_nb V_nb,
 * the terms added in the order up, down, right, left, as kernel.neighbor_sum adds
 * them in numpy, over the weight w[c].  The lattice wraps horizontally: g_h[c]
 * joins node c to node c + 1 mod L.  v_up, v and v_dn are the potentials of the
 * rows above, at and below it; out may not alias them.  out[c] gets the new
 * potential, and each |out[c] - v[c]| is added to *sum, left to right.  Always
 * inlined, so that each clone of kx_relax compiles and vectorizes its own copy. */
static inline __attribute__((always_inline)) void
stencil_row(int64_t L, const double *g_up, const double *g_dn, const double *g_h,
            const double *v_up, const double *v, const double *v_dn, const double *w,
            double *restrict out, double *sum)
{
#define NODE(c, right, left)                                                            \
    do {                                                                                \
        double x = g_up[c] * v_up[c] + g_dn[c] * v_dn[c] + g_h[c] * v[right]            \
                   + g_h[left] * v[left];                                               \
        x /= w[c];                                                                      \
        *sum += fabs(x - v[c]);                                                         \
        out[c] = x;                                                                     \
    } while (0)
    NODE(0, 1, L - 1);
    for (int64_t c = 1; c < L - 1; c++)
        NODE(c, c + 1, c - 1);
    NODE(L - 1, 0, L - 2);
#undef NODE
}

/* t_max Jacobi sweeps of the lattice, one realization's whole series in one
 * call: in each, every interior potential becomes its neighbour sum over
 * weight_sum, (L - 2) x L, all from the previous sweep's potentials, and xs[t]
 * is sweep t's mean |dV| over the interior, summed in row-major order.
 *
 * spare is a second L x L buffer.  Sweeps alternate between potential and
 * spare, each reading one and writing the other's interior, one pass per row;
 * after an odd t_max the interior is copied back into potential.  The
 * boundary rows are copied into spare on every call, so the caller may write
 * potential, boundary rows included, between calls. */
KX_CLONES
void kx_relax(int64_t L, const double *cond_v, const double *cond_h, const double *weight_sum,
              double *potential, double *spare, int64_t t_max, double *xs)
{
    const size_t row = (size_t)L * sizeof *potential;
    memcpy(spare, potential, row);
    memcpy(spare + (L - 1) * L, potential + (L - 1) * L, row);
    double *src = potential, *dst = spare;
    for (int64_t t = 0; t < t_max; t++) {
        double sum = 0.0;
        for (int64_t r = 1; r < L - 1; r++)
            stencil_row(L, cond_v + (r - 1) * L, cond_v + r * L, cond_h + r * L,
                        src + (r - 1) * L, src + r * L, src + (r + 1) * L,
                        weight_sum + (r - 1) * L, dst + r * L, &sum);
        xs[t] = sum / (double)((L - 2) * L);
        double *swap = src;
        src = dst;
        dst = swap;
    }
    if (src != potential)
        memcpy(potential + L, src + L, (size_t)(L - 2) * row);
}

/* numpy's SeedSequence (numpy/random/bit_generator.pyx), as RngStream seeds a
 * stream: entropy, the master seed, and spawn key (c,), hashed into a pool of
 * four 32-bit words with numpy's constants.  run_words holds the master seed
 * in 32-bit words, lowest first, zero-padded to at least the pool's four, as
 * SeedSequence pads it when a spawn key follows; c adds one word, or two from
 * 2^32 on. */
#define SS_INIT_A 0x43b0d7e5u
#define SS_MULT_A 0x931e8875u
#define SS_INIT_B 0x8b51f9ddu
#define SS_MULT_B 0x58f38dedu
#define SS_MIX_MULT_L 0xca01f9ddu
#define SS_MIX_MULT_R 0x4973f715u
enum { SS_POOL = 4 };

static uint32_t ss_hashmix(uint32_t value, uint32_t *hash_const)
{
    value ^= *hash_const;
    *hash_const *= SS_MULT_A;
    value *= *hash_const;
    return value ^ value >> 16;
}

static uint32_t ss_mix(uint32_t x, uint32_t y)
{
    const uint32_t result = SS_MIX_MULT_L * x - SS_MIX_MULT_R * y;
    return result ^ result >> 16;
}

/* An entropy word beyond the pool's first four, mixed into every pool word. */
static void ss_absorb(uint32_t *pool, uint32_t *hash_const, uint32_t word)
{
    for (int d = 0; d < SS_POOL; d++)
        pool[d] = ss_mix(pool[d], ss_hashmix(word, hash_const));
}

/* The fresh state of stream (master seed, c), for each c in [start, start +
 * streams), as six words in states[6 (c - start) ..]: PCG64 seeded from
 * SeedSequence.generate_state(4, uint64).  The run words come first in every
 * stream's entropy, so their part of the hash is done once. */
void kx_seed(const uint32_t *run_words, int64_t n_run, uint64_t start, int64_t streams,
             uint64_t *states)
{
    uint32_t pool[SS_POOL], hash_const = SS_INIT_A;
    for (int d = 0; d < SS_POOL; d++)
        pool[d] = ss_hashmix(run_words[d], &hash_const);
    for (int s = 0; s < SS_POOL; s++)
        for (int d = 0; d < SS_POOL; d++)
            if (s != d)
                pool[d] = ss_mix(pool[d], ss_hashmix(pool[s], &hash_const));
    for (int64_t k = SS_POOL; k < n_run; k++)
        ss_absorb(pool, &hash_const, run_words[k]);

    for (int64_t i = 0; i < streams; i++) {
        const uint64_t c = start + (uint64_t)i;
        uint32_t p[SS_POOL], h = hash_const, b = SS_INIT_B;
        memcpy(p, pool, sizeof p);
        ss_absorb(p, &h, (uint32_t)c);
        if (c >> 32)
            ss_absorb(p, &h, (uint32_t)(c >> 32));
        /* generate_state: eight words from the pool in turn, read as four
         * little-endian 64-bit words */
        uint64_t seed[4] = {0};
        for (int k = 0; k < 8; k++) {
            uint32_t v = p[k % SS_POOL] ^ b;
            b *= SS_MULT_B;
            v *= b;
            seed[k / 2] |= (uint64_t)(v ^ v >> 16) << 32 * (k % 2);
        }
        /* pcg64_set_seed: state seed[0]:seed[1] and sequence seed[2]:seed[3],
         * high words first, then PCG's srandom: two steps from state 0 with
         * the initial state added between them */
        const u128 init = (u128)seed[0] << 64 | seed[1];
        const u128 inc = ((u128)seed[2] << 64 | seed[3]) << 1 | 1;
        const pcg64 g = {((inc + init) * PCG64_MULTIPLIER) + inc, inc, 0, 0};
        uint64_t *w = states + 6 * i;
        pcg64_store(&g, w);
        w[2] = (uint64_t)inc, w[3] = (uint64_t)(inc >> 64);
    }
}
