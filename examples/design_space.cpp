/**
 * @file
 * Design-space exploration with the public simulator API: how does a
 * custom Focus configuration trade latency against buffer cost?
 *
 *   design_space [samples]
 *
 * Demonstrates the two-layer experiment API: an ExperimentGrid cell
 * produces the functional measurement and its full-scale trace (the
 * grid parallelizes sample evaluation on the thread pool — set
 * FOCUS_THREADS to control it), and the trace is then reused across
 * many accelerator configurations, which is how an architect would
 * sweep a design.
 */

#include <cstdio>

#include "common/cli.h"
#include "eval/experiment.h"
#include "eval/report.h"
#include "sim/area.h"

using namespace focus;

int
main(int argc, char **argv)
{
    EvalOptions opts;
    rejectExtraArgs(argc, argv, 1, "[samples]");
    opts.samples = argc > 1
        ? parsePositiveInt(argv[1], argv[1], "sample count")
        : 4;

    std::printf("Functional measurement (one grid cell, reused by "
                "every design point; %d threads)...\n",
                ThreadPool::global().threads());
    ExperimentGrid grid(opts);
    ExperimentCell cell{"Llava-Vid", "VideoMME",
                        MethodConfig::focusFull()};
    cell.simulate = false;
    cell.keep_trace = true;
    grid.add(cell);
    const ExperimentResult measured = grid.run().front();
    const WorkloadTrace &trace = measured.trace;

    const Evaluator &ev = grid.evaluator("Llava-Vid", "VideoMME");
    const WorkloadTrace dense_trace =
        buildDenseTrace(ev.modelProfile(), ev.datasetProfile());

    const RunMetrics sa = simulateAccelerator(
        AccelConfig::systolicArray(), dense_trace);

    std::printf("Sweeping array geometry x m-tile x accumulators "
                "(%d design points):\n\n", 3 * 3 * 2);
    TextTable table({"Array", "mTile", "Accum", "Speedup",
                     "Area(mm2)", "Util"});
    for (int geom = 0; geom < 3; ++geom) {
        for (int64_t tile : {512, 1024, 2048}) {
            for (int acc : {32, 64}) {
                AccelConfig cfg = AccelConfig::focus();
                if (geom == 1) {
                    cfg.array_rows = 16;
                    cfg.array_cols = 64;
                } else if (geom == 2) {
                    cfg.array_rows = 64;
                    cfg.array_cols = 16;
                }
                cfg.m_tile = tile;
                cfg.output_buffer = tile * 4 * 128;
                cfg.scatter_accumulators = acc;
                const RunMetrics rm = simulateAccelerator(cfg, trace);
                char geom_s[16];
                std::snprintf(geom_s, sizeof(geom_s), "%dx%d",
                              cfg.array_rows, cfg.array_cols);
                table.addRow({geom_s, std::to_string(tile),
                              std::to_string(acc),
                              fmtX(static_cast<double>(sa.cycles) /
                                   rm.cycles),
                              fmtF(totalArea(cfg), 2),
                              fmtF(rm.utilization, 3)});
            }
        }
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("The paper's pick (32x32, m=1024, 64 accumulators) "
                "balances speedup against buffer area.\n");
    return 0;
}
