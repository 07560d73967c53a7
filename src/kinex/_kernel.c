/* The compiled kernel of kinex: one time step of a block of economies, and
 * one sweep of a resistor lattice.
 *
 * Each stream makes exactly the draws that exchange._step_plan lists, through
 * numpy's own bit generator, as Generator.integers, random and uniform would;
 * then every economy on that stream applies its rule to the N slots in order,
 * with exchange.run_time_step's operations and clamp.  kernel.py builds this
 * file without FMA contraction or fast-math, so every economy gets the bits
 * run_time_step gives it, and holds the draws to np.random.Generator.  For the
 * same reason a sweep's potentials and its sum of |dV| have the same bits on
 * any host with IEEE doubles.
 */
#include <math.h>
#include <stdint.h>
#include <string.h>

/* numpy's bitgen_t (numpy/random/bitgen.h): a bit generator's C interface. */
typedef struct {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

enum { PURE_GAMBLING, FIXED_SAVING, DISTRIBUTED_SAVING, GENERAL };

/* Generator.integers(0, span, size) for 1 <= span < 2**32: Lemire's method on
 * 32-bit values, with numpy's rejection threshold.  A span of 1 draws nothing.
 * The bit generator keeps its own pending half, as it does for numpy. */
void kx_integers(bitgen_t *bg, uint64_t span, int64_t size, int64_t *out)
{
    const uint32_t rng = (uint32_t)(span - 1);
    for (int64_t k = 0; k < size; k++) {
        uint64_t m = 0;
        if (rng) {
            m = (uint64_t)bg->next_uint32(bg->state) * span;
            uint32_t leftover = (uint32_t)m;
            if (leftover < span) {
                const uint32_t threshold = (UINT32_MAX - rng) % (uint32_t)span;
                while (leftover < threshold) {
                    m = (uint64_t)bg->next_uint32(bg->state) * span;
                    leftover = (uint32_t)m;
                }
            }
        }
        out[k] = (int64_t)(m >> 32);
    }
}

/* Generator.uniform(lo, hi, size): lo + (hi - lo) * next_double.  With lo = 0
 * and hi = 1 this is Generator.random(size), bit for bit. */
void kx_uniform(bitgen_t *bg, double lo, double hi, int64_t size, double *out)
{
    const double range = hi - lo;
    for (int64_t k = 0; k < size; k++)
        out[k] = lo + range * bg->next_double(bg->state);
}

/* One step of `streams` streams of n-agent economies, for `cells` cells.
 *
 * Cell c's economy on stream s is row c * streams + s: its wealth and saving
 * start at (c * streams + s) * n.  Every stream draws n first agents, n
 * partners below `partner_span` (an index among the other n - 1 agents, or,
 * with `lattice`, the (n, 4) neighbour table, a direction), then `n_eps`
 * arrays of n splits, array e uniform in [windows[2e], windows[2e + 1]).
 * With no drawn split, cell c's split is eps[c]; lam[c] is its fixed saving
 * fraction.  ii, jj, e1 and e2 hold n values each, for one stream's draws. */
void kx_step(int rule, int64_t n, int64_t streams, int64_t cells, bitgen_t *const *bgs,
             uint64_t partner_span, const int64_t *lattice, int n_eps, const double *windows,
             const double *eps, const double *lam, double *wealth, const double *saving,
             int64_t *ii, int64_t *jj, double *e1, double *e2)
{
    for (int64_t s = 0; s < streams; s++) {
        bitgen_t *bg = bgs[s];
        kx_integers(bg, (uint64_t)n, n, ii);
        kx_integers(bg, partner_span, n, jj);
        if (n_eps > 0)
            kx_uniform(bg, windows[0], windows[1], n, e1);
        if (n_eps > 1)
            kx_uniform(bg, windows[2], windows[3], n, e2);
        for (int64_t k = 0; k < n; k++)  /* j from the raw draw, as exchange._partners */
            jj[k] = lattice ? lattice[4 * ii[k] + jj[k]] : jj[k] + (jj[k] >= ii[k]);

        for (int64_t c = 0; c < cells; c++) {
            const int64_t row = (c * streams + s) * n;
            double *w = wealth + row;
            const double *sav = saving ? saving + row : 0;
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
                    new_i = lam[c] * w_i + e * (1.0 - lam[c]) * total;
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

/* sum_nb g_nb V_nb for the L nodes of one interior row, the terms added in the
 * order up, down, right, left.  The lattice wraps horizontally: g_h[c] joins
 * node c to node c + 1 mod L.  v_up, v and v_dn are the potentials of the rows
 * above, at and below it; out may not alias them. */
static void neighbor_sum_row(int64_t L, const double *g_up, const double *g_dn, const double *g_h,
                             const double *v_up, const double *v, const double *v_dn,
                             double *restrict out)
{
    out[0] = g_up[0] * v_up[0] + g_dn[0] * v_dn[0] + g_h[0] * v[1] + g_h[L - 1] * v[L - 1];
    for (int64_t c = 1; c < L - 1; c++)
        out[c] = g_up[c] * v_up[c] + g_dn[c] * v_dn[c] + g_h[c] * v[c + 1] + g_h[c - 1] * v[c - 1];
    out[L - 1] = g_up[L - 1] * v_up[L - 1] + g_dn[L - 1] * v_dn[L - 1] + g_h[L - 1] * v[0]
                 + g_h[L - 2] * v[L - 2];
}

/* The neighbour sums of the L - 2 interior rows of an L x L lattice (L >= 3)
 * into out, (L - 2) x L.  cond_v is (L - 1) x L: cond_v[r, c] joins (r, c) to
 * (r + 1, c); cond_h and potential are L x L. */
void kx_neighbor_sum(int64_t L, const double *cond_v, const double *cond_h,
                     const double *potential, double *out)
{
    for (int64_t r = 1; r < L - 1; r++)
        neighbor_sum_row(L, cond_v + (r - 1) * L, cond_v + r * L, cond_h + r * L,
                         potential + (r - 1) * L, potential + r * L, potential + (r + 1) * L,
                         out + (r - 1) * L);
}

/* One Jacobi sweep in place: every interior potential becomes its neighbour
 * sum over weight_sum, (L - 2) x L, all from the previous sweep's potentials.
 * Returns the mean |dV| over the interior, summed in row-major order.  rows
 * holds 2 L doubles: the old potentials of the row above and of the row being
 * written. */
double kx_sweep(int64_t L, const double *cond_v, const double *cond_h, const double *weight_sum,
                double *potential, double *rows)
{
    const double *up = potential;  /* row 0 never changes */
    double *old = rows, *spare = rows + L;
    double sum = 0.0;
    for (int64_t r = 1; r < L - 1; r++) {
        double *v = potential + r * L;
        const double *w = weight_sum + (r - 1) * L;
        memcpy(old, v, (size_t)L * sizeof *v);
        neighbor_sum_row(L, cond_v + (r - 1) * L, cond_v + r * L, cond_h + r * L, up, old, v + L, v);
        for (int64_t c = 0; c < L; c++) {
            v[c] /= w[c];
            sum += fabs(v[c] - old[c]);
        }
        up = old;
        old = spare;
        spare = (double *)up;
    }
    return sum / (double)((L - 2) * L);
}

/* t_max sweeps in place, the mean |dV| of sweep t into xs[t]: one
 * realization's whole series in one call. */
void kx_relax(int64_t L, const double *cond_v, const double *cond_h, const double *weight_sum,
              double *potential, double *rows, int64_t t_max, double *xs)
{
    for (int64_t t = 0; t < t_max; t++)
        xs[t] = kx_sweep(L, cond_v, cond_h, weight_sum, potential, rows);
}
