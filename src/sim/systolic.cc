#include "sim/systolic.h"

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstring>

#include "common/env_dispatch.h"
#include "common/logging.h"
#include "common/math_util.h"

namespace focus
{

namespace
{

SimBackend
simBackendFromEnv()
{
    static const char *const names[] = {"walk", "fast"};
    return static_cast<SimBackend>(envBackendChoice(
        "FOCUS_SIM_BACKEND", names, 2,
        static_cast<int>(SimBackend::Fast)));
}

std::atomic<SimBackend> g_sim_backend{simBackendFromEnv()};

/**
 * The cycle model divides by array/tile/unit dimensions; a
 * non-positive value is a config bug, not a degenerate workload.
 */
void
validateTimingConfig(const AccelConfig &cfg)
{
    if (cfg.array_rows <= 0 || cfg.array_cols <= 0 ||
        cfg.m_tile <= 0 || cfg.scatter_accumulators <= 0 ||
        cfg.sic_matchers <= 0) {
        panic("timeGemm: non-positive AccelConfig dimension "
              "(array_rows=%d array_cols=%d m_tile=%" PRId64
              " scatter_accumulators=%d sic_matchers=%d)",
              cfg.array_rows, cfg.array_cols, cfg.m_tile,
              cfg.scatter_accumulators, cfg.sic_matchers);
    }
}

/** One run of equally-sized tiles along a dimension. */
struct TileBand
{
    int64_t size;  ///< rows (or cols) per tile in this band
    int64_t count; ///< number of such tiles
};

/**
 * Decompose @p total (> 0) tiled by @p tile into at most two bands:
 * the full tiles and the (possibly absent) edge tile.
 */
int
tileBands(int64_t total, int64_t tile, TileBand out[2])
{
    const int64_t tiles = ceilDiv(total, tile);
    const int64_t edge = total - (tiles - 1) * tile;
    if (edge == tile) {
        out[0] = {tile, tiles};
        return 1;
    }
    int n = 0;
    if (tiles > 1) {
        out[n++] = {tile, tiles - 1};
    }
    out[n++] = {edge, 1};
    return n;
}

/**
 * Sum of @p len consecutive entries of the cyclic sequence whose
 * prefix sums are @p prefix (prefix[j] = sum of the first j entries,
 * so prefix.size() = S + 1), starting at position @p c < S.  Integer
 * arithmetic throughout, so the result equals the sequential sum
 * exactly.
 */
template <typename T>
T
cyclicRangeSum(const std::vector<T> &prefix, size_t c, uint64_t len)
{
    const size_t S = prefix.size() - 1;
    const T total = prefix[S];
    T sum = static_cast<T>(len / S) * total;
    const size_t e = c + len % S;
    if (e <= S) {
        sum += prefix[e] - prefix[c];
    } else {
        sum += (total - prefix[c]) + prefix[e - S];
    }
    return sum;
}

/**
 * Bounded append cursor over an optional tile-length log: every
 * append truncates exactly at the room left, and a null or full sink
 * makes each append a no-op.
 */
class TileLogSink
{
  public:
    TileLogSink(std::vector<int64_t> *out, size_t room)
        : out_(out), room_(out != nullptr ? room : 0)
    {
    }

    void
    push(int64_t p)
    {
        if (room_ > 0) {
            out_->push_back(p);
            --room_;
        }
    }

    /** Append @p len copies of @p p. */
    void
    fill(uint64_t len, int64_t p)
    {
        const size_t take = claim(len);
        if (take > 0) {
            out_->insert(out_->end(), take, p);
        }
    }

    /**
     * Append @p len entries of the cyclic table @p tab starting at
     * position @p c < tab.size(), in chunked bulk inserts.
     */
    void
    cyclic(const std::vector<int64_t> &tab, size_t c, uint64_t len)
    {
        size_t left = claim(len);
        const size_t S = tab.size();
        while (left > 0) {
            const size_t chunk = std::min(left, S - c);
            out_->insert(out_->end(), tab.begin() + c,
                         tab.begin() + c + chunk);
            left -= chunk;
            c = (c + chunk) % S;
        }
    }

  private:
    /** Reserve min(@p len, room) entries of the room. */
    size_t
    claim(uint64_t len)
    {
        const size_t take =
            static_cast<size_t>(std::min<uint64_t>(len, room_));
        room_ -= take;
        return take;
    }

    std::vector<int64_t> *out_;
    size_t room_;
};

} // namespace

double
GemmTiming::utilization(const AccelConfig &cfg) const
{
    if (cycles == 0) {
        return 0.0;
    }
    return mac_ops / (static_cast<double>(cycles) * cfg.array_rows *
                      cfg.array_cols);
}

const char *
simBackendName(SimBackend b)
{
    return b == SimBackend::Walk ? "walk" : "fast";
}

bool
parseSimBackend(const char *name, SimBackend &out)
{
    const std::string s(name != nullptr ? name : "");
    if (s == "walk") {
        out = SimBackend::Walk;
        return true;
    }
    if (s == "fast") {
        out = SimBackend::Fast;
        return true;
    }
    return false;
}

SimBackend
activeSimBackend()
{
    return g_sim_backend.load(std::memory_order_relaxed);
}

void
setSimBackend(SimBackend b)
{
    g_sim_backend.store(b, std::memory_order_relaxed);
}

GemmTiming
timeGemm(const AccelConfig &cfg, int64_t m, int64_t k, int64_t n,
         FracSampler &psi, bool sic_input, bool gather_out,
         std::vector<int64_t> *tile_log, size_t tile_log_room)
{
    return activeSimBackend() == SimBackend::Walk
        ? timeGemmWalk(cfg, m, k, n, psi, sic_input, gather_out,
                       tile_log, tile_log_room)
        : timeGemmFast(cfg, m, k, n, psi, sic_input, gather_out,
                       tile_log, tile_log_room);
}

GemmTiming
timeGemmWalk(const AccelConfig &cfg, int64_t m, int64_t k, int64_t n,
             FracSampler &psi, bool sic_input, bool gather_out,
             std::vector<int64_t> *tile_log, size_t tile_log_room)
{
    validateTimingConfig(cfg);
    GemmTiming t;
    if (m <= 0 || k <= 0 || n <= 0) {
        return t;
    }
    const int64_t a = cfg.array_cols;
    const int64_t b = cfg.array_rows;
    const int64_t fill = (a - 1) + (b - 1);

    const int64_t m_tiles = ceilDiv(m, cfg.m_tile);
    const int64_t k_subs = ceilDiv(k, b);
    const int64_t n_tiles = ceilDiv(n, a);

    TileLogSink log(tile_log, tile_log_room);
    uint64_t cycles = 0;
    for (int64_t mt = 0; mt < m_tiles; ++mt) {
        const int64_t m_rows = std::min(cfg.m_tile, m - mt * cfg.m_tile);
        for (int64_t nt = 0; nt < n_tiles; ++nt) {
            const int64_t n_eff = std::min(a, n - nt * a);
            // First weight sub-tile load is exposed; the rest are
            // double-buffered behind compute.
            uint64_t tile_cycles = static_cast<uint64_t>(b);
            for (int64_t ks = 0; ks < k_subs; ++ks) {
                const int64_t k_eff = std::min(b, k - ks * b);
                int64_t p = m_rows;
                if (sic_input) {
                    const double f = clamp(psi.next(), 0.0, 1.0);
                    p = std::max<int64_t>(1, static_cast<int64_t>(
                        std::llround(f * static_cast<double>(m_rows))));
                    log.push(p);
                }
                const uint64_t compute =
                    static_cast<uint64_t>(p) + fill;
                uint64_t sub = compute;
                if (sic_input) {
                    // Scatter: every partial sum is redistributed to
                    // all m_rows original rows through the W-wide
                    // accumulator (Fig. 8(2)); with W = 2a = 64 this
                    // hides behind compute at typical concentration
                    // (Fig. 10(d): ~5% over a 160-lane design, while
                    // 32 lanes stall ~1.5x).
                    const uint64_t scatter = ceilDiv<uint64_t>(
                        static_cast<uint64_t>(m_rows) * n_eff,
                        static_cast<uint64_t>(
                            cfg.scatter_accumulators));
                    t.scatter_ops +=
                        static_cast<double>(m_rows) * n_eff;
                    if (scatter > sub) {
                        t.stall_scatter += scatter - sub;
                        sub = scatter;
                    }
                }
                t.mac_ops += static_cast<double>(p) * k_eff * n_eff;
                tile_cycles += sub;
            }
            if (gather_out) {
                // Matcher: up to 7 compare dot-products + 1 norm per
                // output vector, one vector element per cycle per
                // matcher; overlapped with the tile's GEMM time.
                const uint64_t matcher = ceilDiv<uint64_t>(
                    8ull * static_cast<uint64_t>(m_rows),
                    static_cast<uint64_t>(cfg.sic_matchers));
                t.matcher_ops += 8.0 * static_cast<double>(m_rows) *
                    n_eff;
                if (matcher > tile_cycles) {
                    t.stall_matcher += matcher - tile_cycles;
                    tile_cycles = matcher;
                }
            }
            cycles += tile_cycles;
        }
    }
    t.cycles = cycles;
    return t;
}

GemmTiming
timeGemmFast(const AccelConfig &cfg, int64_t m, int64_t k, int64_t n,
             FracSampler &psi, bool sic_input, bool gather_out,
             std::vector<int64_t> *tile_log, size_t tile_log_room)
{
    validateTimingConfig(cfg);
    GemmTiming t;
    if (m <= 0 || k <= 0 || n <= 0) {
        return t;
    }
    const int64_t a = cfg.array_cols;
    const int64_t b = cfg.array_rows;
    const int64_t fill = (a - 1) + (b - 1);

    const int64_t m_tiles = ceilDiv(m, cfg.m_tile);
    const int64_t k_subs = ceilDiv(k, b);
    const int64_t n_tiles = ceilDiv(n, a);
    const int64_t last_k_eff = k - (k_subs - 1) * b;

    if (!sic_input) {
        // Dense input: every sub-tile of an (m-rows, n-cols) tile
        // costs the same, so the whole walk collapses onto the <= 2x2
        // distinct (m-band, n-band) combinations.  All op counters
        // accumulate integer-valued doubles, so these aggregated sums
        // equal the walk's incremental sums bit-for-bit below 2^53.
        TileBand mb[2], nb[2];
        const int mbn = tileBands(m, cfg.m_tile, mb);
        const int nbn = tileBands(n, a, nb);
        for (int mi = 0; mi < mbn; ++mi) {
            const int64_t m_rows = mb[mi].size;
            const uint64_t tile_base = static_cast<uint64_t>(b) +
                static_cast<uint64_t>(k_subs) *
                    (static_cast<uint64_t>(m_rows) + fill);
            const uint64_t matcher = gather_out
                ? ceilDiv<uint64_t>(
                      8ull * static_cast<uint64_t>(m_rows),
                      static_cast<uint64_t>(cfg.sic_matchers))
                : 0;
            for (int ni = 0; ni < nbn; ++ni) {
                const int64_t n_eff = nb[ni].size;
                const int64_t tiles = mb[mi].count * nb[ni].count;
                uint64_t tile_cycles = tile_base;
                if (gather_out) {
                    t.matcher_ops += 8.0 *
                        static_cast<double>(m_rows) * n_eff * tiles;
                    if (matcher > tile_cycles) {
                        t.stall_matcher += (matcher - tile_cycles) *
                            static_cast<uint64_t>(tiles);
                        tile_cycles = matcher;
                    }
                }
                t.cycles += tile_cycles * static_cast<uint64_t>(tiles);
                t.mac_ops += static_cast<double>(m_rows) * k * n_eff *
                    tiles;
            }
        }
        return t;
    }

    // SIC input: one psi draw per (m-tile, n-tile, k-sub-tile), in
    // exactly the walk's order.
    const uint64_t total_draws = static_cast<uint64_t>(m_tiles) *
        static_cast<uint64_t>(n_tiles) * static_cast<uint64_t>(k_subs);
    TileLogSink log(tile_log, tile_log_room);
    const uint64_t matcher_den =
        static_cast<uint64_t>(cfg.sic_matchers);
    const uint64_t scatter_den =
        static_cast<uint64_t>(cfg.scatter_accumulators);
    TileBand mb[2], nb[2];
    const int mbn = tileBands(m, cfg.m_tile, mb);
    const int nbn = tileBands(n, a, nb);

    if (!psi.empirical()) {
        // Mean-backed sampler: every draw is the same value, so the
        // whole walk collapses to closed form per (m-band, n-band);
        // the tile-length log is a bounded bulk fill, in m-tile-major
        // walk order (full m-tiles precede the edge).
        for (int mi = 0; mi < mbn; ++mi) {
            const int64_t m_rows = mb[mi].size;
            const double f = clamp(psi.mean(), 0.0, 1.0);
            const int64_t p = std::max<int64_t>(
                1, static_cast<int64_t>(
                       std::llround(f * static_cast<double>(m_rows))));
            const uint64_t compute = static_cast<uint64_t>(p) + fill;
            const uint64_t matcher = gather_out
                ? ceilDiv<uint64_t>(
                      8ull * static_cast<uint64_t>(m_rows),
                      matcher_den)
                : 0;
            for (int ni = 0; ni < nbn; ++ni) {
                const int64_t n_eff = nb[ni].size;
                const int64_t tiles = mb[mi].count * nb[ni].count;
                const uint64_t scatter = ceilDiv<uint64_t>(
                    static_cast<uint64_t>(m_rows) * n_eff,
                    scatter_den);
                const uint64_t sub = std::max(compute, scatter);
                if (scatter > compute) {
                    t.stall_scatter += (scatter - compute) *
                        static_cast<uint64_t>(k_subs) *
                        static_cast<uint64_t>(tiles);
                }
                uint64_t tile_cycles = static_cast<uint64_t>(b) +
                    static_cast<uint64_t>(k_subs) * sub;
                t.scatter_ops += static_cast<double>(m_rows) * n_eff *
                    k_subs * tiles;
                t.mac_ops += static_cast<double>(p) * k * n_eff *
                    tiles;
                if (gather_out) {
                    t.matcher_ops += 8.0 *
                        static_cast<double>(m_rows) * n_eff * tiles;
                    if (matcher > tile_cycles) {
                        t.stall_matcher += (matcher - tile_cycles) *
                            static_cast<uint64_t>(tiles);
                        tile_cycles = matcher;
                    }
                }
                t.cycles += tile_cycles * static_cast<uint64_t>(tiles);
            }
            log.fill(static_cast<uint64_t>(mb[mi].count) *
                         static_cast<uint64_t>(n_tiles) *
                         static_cast<uint64_t>(k_subs),
                     p);
        }
        return t;
    }

    // Empirical distribution: the round-robin sampler makes every
    // (m-tile, n-tile) draw window a cyclic slice of the
    // distribution, so tabulate p (and the sub-tile latency / scatter
    // stall it implies) once per distribution value and distinct tile
    // geometry, with prefix sums; each window then costs O(1) lookups
    // (plus a bulk cyclic append while the log has room).  Falls back
    // to the straight draw loop when the distribution is longer than the
    // draw count (tabulating would cost more than drawing).
    const std::vector<double> &dist = *psi.dist();
    const size_t S = dist.size();
    size_t c = psi.cursor();

    if (static_cast<uint64_t>(S) > total_draws) {
        for (int64_t mt = 0; mt < m_tiles; ++mt) {
            const int mi = (mbn == 2 && mt == m_tiles - 1) ? 1 : 0;
            const int64_t m_rows = mb[mi].size;
            const double md = static_cast<double>(m_rows);
            const uint64_t matcher = gather_out
                ? ceilDiv<uint64_t>(
                      8ull * static_cast<uint64_t>(m_rows),
                      matcher_den)
                : 0;
            for (int64_t nt = 0; nt < n_tiles; ++nt) {
                const int64_t n_eff =
                    (nbn == 2 && nt == n_tiles - 1) ? nb[1].size
                                                    : nb[0].size;
                const uint64_t scatter = ceilDiv<uint64_t>(
                    static_cast<uint64_t>(m_rows) * n_eff,
                    scatter_den);
                uint64_t sum_sub = 0;
                uint64_t stall = 0;
                int64_t p_sum = 0;
                int64_t p_last = 0;
                for (int64_t ks = 0; ks < k_subs; ++ks) {
                    const double f = clamp(dist[c], 0.0, 1.0);
                    c = c + 1 == S ? 0 : c + 1;
                    const int64_t p = std::max<int64_t>(
                        1, static_cast<int64_t>(
                               std::llround(f * md)));
                    log.push(p);
                    p_sum += p;
                    p_last = p;
                    const uint64_t compute =
                        static_cast<uint64_t>(p) + fill;
                    if (scatter > compute) {
                        stall += scatter - compute;
                        sum_sub += scatter;
                    } else {
                        sum_sub += compute;
                    }
                }
                t.scatter_ops += md * n_eff * k_subs;
                t.stall_scatter += stall;
                t.mac_ops += static_cast<double>(
                    (p_sum - p_last) * b + p_last * last_k_eff) *
                    n_eff;
                uint64_t tile_cycles =
                    static_cast<uint64_t>(b) + sum_sub;
                if (gather_out) {
                    t.matcher_ops += 8.0 * md * n_eff;
                    if (matcher > tile_cycles) {
                        t.stall_matcher += matcher - tile_cycles;
                        tile_cycles = matcher;
                    }
                }
                t.cycles += tile_cycles;
            }
        }
        psi.advance(total_draws);
        return t;
    }

    // p and prefix(p) per m-band; prefix(sub-tile latency) per
    // (m-band, n-band).  The scatter stall needs no table of its own:
    // per sub-tile stall = sub - compute, so a window's stall is
    // sum(sub) - (sum(p) + len * fill), exactly, in integers.
    std::vector<int64_t> p_tab[2];
    std::vector<int64_t> pre_p[2];
    std::vector<uint64_t> pre_sub[2][2];
    for (int mi = 0; mi < mbn; ++mi) {
        const int64_t m_rows = mb[mi].size;
        const double md = static_cast<double>(m_rows);
        p_tab[mi].resize(S);
        pre_p[mi].assign(S + 1, 0);
        for (size_t j = 0; j < S; ++j) {
            const double f = clamp(dist[j], 0.0, 1.0);
            const int64_t p = std::max<int64_t>(
                1, static_cast<int64_t>(std::llround(f * md)));
            p_tab[mi][j] = p;
            pre_p[mi][j + 1] = pre_p[mi][j] + p;
        }
        for (int ni = 0; ni < nbn; ++ni) {
            const uint64_t scatter = ceilDiv<uint64_t>(
                static_cast<uint64_t>(m_rows) * nb[ni].size,
                scatter_den);
            pre_sub[mi][ni].assign(S + 1, 0);
            for (size_t j = 0; j < S; ++j) {
                const uint64_t compute =
                    static_cast<uint64_t>(p_tab[mi][j]) + fill;
                pre_sub[mi][ni][j + 1] = pre_sub[mi][ni][j] +
                    std::max(compute, scatter);
            }
        }
    }

    for (int64_t mt = 0; mt < m_tiles; ++mt) {
        const int mi = (mbn == 2 && mt == m_tiles - 1) ? 1 : 0;
        const int64_t m_rows = mb[mi].size;
        const double md = static_cast<double>(m_rows);
        const uint64_t matcher = gather_out
            ? ceilDiv<uint64_t>(8ull * static_cast<uint64_t>(m_rows),
                                matcher_den)
            : 0;
        for (int64_t nt = 0; nt < n_tiles; ++nt) {
            const int ni = (nbn == 2 && nt == n_tiles - 1) ? 1 : 0;
            const int64_t n_eff = nb[ni].size;
            const uint64_t sum_sub = cyclicRangeSum(
                pre_sub[mi][ni], c, static_cast<uint64_t>(k_subs));
            const int64_t p_sum = cyclicRangeSum(
                pre_p[mi], c, static_cast<uint64_t>(k_subs));
            t.stall_scatter += sum_sub -
                (static_cast<uint64_t>(p_sum) +
                 static_cast<uint64_t>(k_subs) *
                     static_cast<uint64_t>(fill));
            const int64_t p_last =
                p_tab[mi][(c + static_cast<size_t>(k_subs) - 1) % S];
            log.cyclic(p_tab[mi], c, static_cast<uint64_t>(k_subs));
            t.scatter_ops += md * n_eff * k_subs;
            t.mac_ops += static_cast<double>(
                (p_sum - p_last) * b + p_last * last_k_eff) * n_eff;
            uint64_t tile_cycles = static_cast<uint64_t>(b) + sum_sub;
            if (gather_out) {
                t.matcher_ops += 8.0 * md * n_eff;
                if (matcher > tile_cycles) {
                    t.stall_matcher += matcher - tile_cycles;
                    tile_cycles = matcher;
                }
            }
            t.cycles += tile_cycles;
            c = (c + static_cast<size_t>(k_subs)) % S;
        }
    }
    psi.advance(total_draws);
    return t;
}

uint64_t
timeGemmDraws(const AccelConfig &cfg, int64_t m, int64_t k, int64_t n)
{
    validateTimingConfig(cfg);
    if (m <= 0 || k <= 0 || n <= 0) {
        return 0;
    }
    return static_cast<uint64_t>(ceilDiv(m, cfg.m_tile)) *
        static_cast<uint64_t>(ceilDiv(n,
                                      static_cast<int64_t>(
                                          cfg.array_cols))) *
        static_cast<uint64_t>(ceilDiv(k,
                                      static_cast<int64_t>(
                                          cfg.array_rows)));
}

uint64_t
secSorterStall(const AccelConfig &cfg, int64_t m_tokens, int64_t text,
               int64_t head_dim, int64_t heads, int64_t topk)
{
    if (topk <= 0) {
        return 0;
    }
    const int64_t a = cfg.sec_lanes;
    const int64_t b = cfg.array_rows;
    // Sorter: ceil(k/a) passes of M candidates each (Fig. 5(4)).
    const uint64_t sorter = static_cast<uint64_t>(m_tokens) *
        ceilDiv(topk, a);
    // Overlap window: the image-query attention GEMM,
    // M(M+T)h/(a*b) cycles per head across all heads (Fig. 5 bottom).
    const double window = static_cast<double>(m_tokens) *
        (m_tokens + text) * head_dim * heads /
        (static_cast<double>(a) * b);
    if (static_cast<double>(sorter) <= window) {
        return 0;
    }
    return sorter - static_cast<uint64_t>(window);
}

} // namespace focus
