/**
 * @file
 * Quickstart: evaluate Focus against all baselines on one
 * (model, dataset) pair, end to end.
 *
 *   quickstart [samples]
 *
 * Runs the functional pipeline (synthetic video QA at reduced scale),
 * builds full-scale traces, simulates every accelerator, and prints
 * accuracy, computation sparsity, speedup and energy ratios.
 */

#include <cstdio>
#include <vector>

#include "common/cli.h"
#include "eval/evaluator.h"
#include "eval/report.h"
#include "sim/gpu_model.h"

using namespace focus;

int
main(int argc, char **argv)
{
    EvalOptions opts;
    rejectExtraArgs(argc, argv, 1, "[samples]");
    opts.samples = argc > 1
        ? parsePositiveInt(argv[1], argv[1], "sample count")
        : 6;

    std::printf("Focus quickstart: Llava-Vid x VideoMME, %d samples\n\n",
                opts.samples);

    Evaluator ev("Llava-Vid", "VideoMME", opts);

    // Dense reference on the vanilla systolic array.
    MethodEval dense_eval;
    const RunMetrics sa = ev.simulate(MethodConfig::dense(),
                                      AccelConfig::systolicArray(),
                                      &dense_eval);

    TextTable table({"Method", "Arch", "Accuracy(%)", "Sparsity(%)",
                     "Speedup", "EnergyRatio"});
    table.addRow({"Dense", "SystolicArray", fmtPct(dense_eval.accuracy),
                  fmtPct(0.0), "1.00x", "1.00x"});

    struct Entry
    {
        MethodConfig method;
        AccelConfig accel;
    };
    std::vector<Entry> entries;
    entries.push_back(
        {MethodConfig::adaptivBaseline(), AccelConfig::adaptiv()});
    entries.push_back({MethodConfig::cmcBaseline(), AccelConfig::cmc()});
    entries.push_back({MethodConfig::focusFull(), AccelConfig::focus()});

    for (const Entry &e : entries) {
        MethodEval me;
        const RunMetrics rm = ev.simulate(e.method, e.accel, &me);
        const double speedup =
            static_cast<double>(sa.cycles) / rm.cycles;
        const double energy = sa.energy.total() / rm.energy.total();
        table.addRow({me.method, rm.arch, fmtPct(me.accuracy),
                      fmtPct(ev.traceSparsity(e.method, me)),
                      fmtX(speedup), fmtX(energy)});
    }

    // GPU reference points (analytic roofline).
    {
        const WorkloadTrace dense_tr =
            ev.buildFullTrace(MethodConfig::dense(), dense_eval);
        const GpuConfig gpu;
        const double t_gpu = gpuSeconds(dense_tr, gpu, false);

        MethodConfig ff = MethodConfig::frameFusionBaseline();
        ff.framefusion.reduction = ev.frameFusionReductionFor(0.70);
        const MethodEval ff_eval = ev.runFunctional(ff);
        const WorkloadTrace ff_tr = ev.buildFullTrace(ff, ff_eval);
        const double t_gpu_ff = gpuSeconds(ff_tr, gpu, true);

        table.addRow({"Dense", "GPU", fmtPct(dense_eval.accuracy),
                      fmtPct(0.0), fmtX(sa.seconds() / t_gpu), "-"});
        table.addRow({"FrameFusion", "GPU", fmtPct(ff_eval.accuracy),
                      fmtPct(ev.traceSparsity(ff, ff_eval)),
                      fmtX(sa.seconds() / t_gpu_ff), "-"});
    }

    std::printf("%s\n", table.render().c_str());
    std::printf("Dense SA: %.2fs at %.0f MHz, %.1f GB DRAM traffic\n",
                sa.seconds(), sa.freq_ghz * 1e3,
                static_cast<double>(sa.dramTotalBytes()) / 1e9);
    return 0;
}
