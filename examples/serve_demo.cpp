/**
 * @file
 * Serving demo: replay a small mixed-profile request stream through
 * the batching scheduler and print the per-request timeline.
 *
 *   serve_demo [samples]
 *
 * Generates an open-loop Poisson stream over the standard serving
 * mix, batches it with the timeout policy, fuses each batch into one
 * multi-query trace, and times it on the Focus accelerator.  Shows
 * where each request waited, which batch carried it, and what the
 * stream-level throughput/latency came out to.
 */

#include <cstdio>

#include "common/cli.h"
#include "eval/report.h"
#include "serve/serving_sim.h"

using namespace focus;

int
main(int argc, char **argv)
{
    EvalOptions opts;
    rejectExtraArgs(argc, argv, 1, "[samples]");
    opts.samples = argc > 1
        ? parsePositiveInt(argv[1], argv[1], "sample count")
        : 2;

    QueueConfig queue;
    queue.process = ArrivalProcess::OpenPoisson;
    queue.arrival_rate_rps = 0.04;
    queue.num_requests = 10;
    queue.seed = 7;
    queue.mix = standardServingMix();

    std::printf("Serving demo: %d requests, open-loop %.2f req/s, "
                "%d samples per calibration\n\n",
                queue.num_requests, queue.arrival_rate_rps,
                opts.samples);

    ServingSimulator sim(queue, AccelConfig::focus(), opts);

    SchedulerConfig sched;
    sched.policy = BatchPolicy::Timeout;
    sched.max_batch = 4;
    sched.timeout_s = 40.0;
    const ServingReport rep = sim.run(sched);

    TextTable table({"Req", "Class", "Arrive(s)", "Start(s)",
                     "Finish(s)", "Latency(s)", "Batch", "Size",
                     "SLO"});
    for (const RequestOutcome &o : rep.outcomes) {
        table.addRow(
            {std::to_string(o.id),
             queue.mix[static_cast<size_t>(o.class_id)].label(),
             fmtF(o.arrival_s, 1), fmtF(o.start_s, 1),
             fmtF(o.finish_s, 1), fmtF(o.latency_s(), 1),
             std::to_string(o.batch_id),
             std::to_string(o.batch_size),
             o.slo_met ? "ok" : "MISS"});
    }
    std::printf("%s\n", table.render().c_str());

    std::printf("policy=%s  batches=%zu  occupancy=%.0f%%  "
                "throughput=%.2f req/min\n",
                rep.policy.c_str(), rep.batches.size(),
                rep.mean_occupancy * 100.0,
                rep.throughput_rps * 60.0);
    std::printf("latency p50/p95/p99 = %.1f / %.1f / %.1f s  "
                "SLO attainment = %.0f%%\n",
                rep.latency.p50, rep.latency.p95, rep.latency.p99,
                rep.slo_attainment * 100.0);
    return 0;
}
