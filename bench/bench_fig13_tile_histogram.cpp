/**
 * @file
 * Fig. 13: distribution of concentrated tile lengths (vectors per
 * m=1024 tile after Similarity Gather) together with the
 * systolic-array utilization at each length, plus the cycle-weighted
 * average utilization.
 *
 * Paper reference: a broad distribution with most mass at mid-to-high
 * tile lengths and an average utilization of 92.2% — the extremes
 * (near-empty tiles that underutilize, near-full tiles that gain
 * little) are rare.
 */

#include <algorithm>
#include <cstddef>
#include <vector>

#include "bench_util.h"

#include "common/stats.h"
#include "eval/report.h"
#include "sim/accel_model.h"

using namespace focus;

int
main(int argc, char **argv)
{
    const BenchOptions bo = benchOptions(argc, argv, 6);
    BenchRecorder rec("fig13", bo);
    benchBanner("Fig. 13: concentrated tile-length histogram", bo);

    // The histogram samples the first kTileSample concentrated tiles
    // of the run; only this bench asks the cycle model for a log.
    constexpr size_t kTileSample = 200000;
    const AccelConfig cfg = AccelConfig::focus();
    ExperimentGrid grid(benchEvalOptions(bo));
    ExperimentCell cell("Llava-Vid", "VideoMME",
                        MethodConfig::focusFull(), cfg);
    cell.simulate = false;
    cell.keep_trace = true;
    grid.add(cell);
    const std::vector<ExperimentResult> results = grid.run();
    const RunMetrics rm = simulateAccelerator(
        cfg, results.front().trace, EnergyParams{}, kTileSample);

    const int64_t fill = cfg.array_rows + cfg.array_cols - 2;

    Histogram hist(0.0, 1024.0, 16);
    for (int64_t p : rm.tile_lengths) {
        hist.add(static_cast<double>(p));
    }

    TextTable table({"TileLen", "Density", "Utilization"});
    for (int b = 0; b < hist.bins(); ++b) {
        const double mid = 0.5 * (hist.binLo(b) + hist.binHi(b));
        const double density = hist.total() == 0
            ? 0.0
            : static_cast<double>(hist.binCount(b)) /
                static_cast<double>(hist.total());
        // Utilization of a sub-tile streaming `mid` vectors: useful
        // cycles over useful + fill.
        const double util = mid / (mid + static_cast<double>(fill));
        char range[32];
        std::snprintf(range, sizeof(range), "%4.0f-%4.0f",
                      hist.binLo(b), hist.binHi(b));
        table.addRow({range, fmtF(density, 4), fmtF(util, 3)});
    }
    rec.metric("tiles", static_cast<double>(rm.tile_lengths.size()));
    rec.metric("utilization", rm.utilization);

    std::printf("%s\n", table.render().c_str());
    std::printf("Tiles observed: %llu; cycle-weighted array "
                "utilization: %.3f (paper: 0.922)\n",
                static_cast<unsigned long long>(rm.tile_lengths.size()),
                rm.utilization);
    return 0;
}
