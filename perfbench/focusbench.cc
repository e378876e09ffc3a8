/**
 * @file
 * focusbench: the repository benchmark program.
 *
 * One process runs one workload (fleet_replay, box_replay, qa_eval):
 *
 *   1. set-up, repeated --setups times from a cold functional cache
 *      (simulators/evaluators built, functional calibration run);
 *   2. whole rounds of the same work, at least the workload's minimum
 *      and then until --seconds have passed (or exactly --rounds
 *      rounds), each round timed with its wall clock
 *      and the process CPU (getrusage) it used, and each round's
 *      reports recounted by checks computed apart from the program's
 *      own reporting (an item of a report that fails one counts as
 *      failed);
 *   3. verification of the last round: a set of tampered reports that
 *      the checks must reject, and a probe that re-costs some of the
 *      round's work through the cycle model's public entry points
 *      (fuseTraces, splitTensorParallel, simulateAccelerator,
 *      timeGemmDraws).
 *
 * Every call into a layer is wrapped in a `bench.*` obs::TraceSpan,
 * so a run under FOCUS_OBS=trace records the benchmark's spans next to
 * the program's own; --obs-dir flushes the program's trace.json and
 * metrics.json after verification for perfbench/layers.py, and then
 * replays round 0 alternately untraced and traced to time the tracing
 * overhead.  The last stdout line is one
 * JSON object; the configuration (math/sim backends, caches, pool
 * width) comes from the environment, which perfbench/run.py pins.
 *
 * Usage: focusbench --workload W [--seed N] [--seconds S]
 *                   [--rounds N] [--setups N] [--obs-dir DIR]
 *                   [--digest-out FILE]
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h" // accelForMethod: each method's paper accelerator
#include "eval/evaluator.h"
#include "eval/func_cache.h"
#include "obs/metrics.h"
#include "obs/trace_span.h"
#include "runtime/thread_pool.h"
#include "serve/cluster.h"
#include "serve/serving_sim.h"
#include "sim/systolic.h"
#include "sim/trace.h"
#include "tensor/kernels.h"
#include "workload/profiles.h"

using namespace focus;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------
// Workload definitions
// ---------------------------------------------------------------

/**
 * Requests in the fleet stream (one stream per round, replayed per
 * config).  Under the standard mix's Zipf(0.9) skew over 256 prefixes
 * per class, 128 requests repeat their hot prefixes often enough for
 * the per-replica caches (which admit a key on its second miss) to
 * hit, and spread over enough routing keys to keep 8 replicas fed.
 */
constexpr int kFleetRequests = 128;
/**
 * Offered load of the fleet stream.  The standard mix costs ~27 s
 * per request served alone on one box, so 0.4 req/s is ~10x what a
 * single unbatched box drains.
 */
constexpr double kFleetRate = 0.4;
/** Prefix-cache budget per replica, in slabs of the first class. */
constexpr int kCacheSlabs = 16;

/** Requests per single-box stream (open loop and closed loop). */
constexpr int kBoxRequests = 32;
/** Open-loop single-box rate: ~3x one unbatched box. */
constexpr double kBoxRate = 0.1;
constexpr int kBoxClients = 8;
constexpr double kBoxThinkS = 20.0;

/** Functional samples per calibration combo (replay workloads). */
constexpr int kCalibSamples = 2;
/** Functional calibration seed (fixed: the stream carries --seed). */
constexpr uint64_t kCalibSeed = 42;

/** QA samples per (model, dataset, method) cell. */
constexpr int kQaSamples = 4;

/**
 * Compositions the replay probe re-costs through the cycle model per
 * run, split evenly over the last round's reports.
 */
constexpr size_t kProbeCompositions = 6;

constexpr int kMaxBatch = 8;

/**
 * Untraced/traced round pairs that time the tracing overhead (with
 * --obs-dir); no pair starts that would end the process after
 * kTraceBudgetS, so a traced run stays well inside run.py's timeout.
 */
constexpr int kOverheadPairs = 3;
constexpr double kTraceBudgetS = 120.0;

SchedulerConfig
schedFor(BatchPolicy policy, double timeout_s)
{
    SchedulerConfig s;
    s.policy = policy;
    s.max_batch = kMaxBatch;
    s.timeout_s = timeout_s;
    return s;
}

/** Open-loop standard mix with its Zipf-shared prefixes, unchanged. */
QueueConfig
fleetQueue(uint64_t seed)
{
    QueueConfig q;
    q.process = ArrivalProcess::OpenPoisson;
    q.arrival_rate_rps = kFleetRate;
    q.num_requests = kFleetRequests;
    q.seed = seed;
    q.mix = standardServingMix();
    return q;
}

/**
 * Standard mix where every request draws its prefix uniformly from
 * 2^30 identities, so (in practice) no two requests share one and
 * every prefix-cache lookup misses.
 */
QueueConfig
boxQueue(uint64_t seed, ArrivalProcess process)
{
    QueueConfig q;
    q.process = process;
    q.arrival_rate_rps = kBoxRate;
    q.clients = kBoxClients;
    q.think_mean_s = kBoxThinkS;
    q.num_requests = kBoxRequests;
    q.seed = seed;
    q.mix = standardServingMix();
    for (RequestClass &c : q.mix) {
        c.prefix_cardinality = 1 << 30;
        c.prefix_zipf = 0.0;
    }
    return q;
}

/**
 * Stream seed of round @p round: every round replays a fresh stream,
 * so one run averages over many streams (and one run's cost does not
 * hang on the make-up of a single stream).
 */
uint64_t
roundSeed(uint64_t seed, int round)
{
    uint64_t z = seed * 0x9e3779b97f4a7c15ULL +
        static_cast<uint64_t>(round) + 1;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/**
 * Queue seed of round @p round: the first of a sequence of candidate
 * seeds whose stream holds each class within one request of its
 * weight share.  The stratification keeps a round's cost from hanging
 * on the class draw (the long-video class alone costs several times a
 * short one); arrivals and prefixes stay as random as the generator
 * makes them.
 */
uint64_t
stratifiedSeed(QueueConfig q, uint64_t seed, int round)
{
    double total = 0.0;
    for (const RequestClass &c : q.mix) {
        total += c.weight;
    }
    for (int k = 0;; ++k) {
        q.seed = roundSeed(seed, round * 4096 + k);
        if (k == 4095) {
            return q.seed;
        }
        std::vector<int> count(q.mix.size(), 0);
        for (const ServeRequest &r : RequestQueue(q).generate()) {
            count[static_cast<size_t>(r.class_id)] += 1;
        }
        bool ok = true;
        for (size_t c = 0; c < q.mix.size(); ++c) {
            const double want = q.num_requests * q.mix[c].weight / total;
            ok = ok && std::fabs(count[c] - want) <= 1.0;
        }
        if (ok) {
            return q.seed;
        }
    }
}

EvalOptions
calibOptions()
{
    EvalOptions e;
    e.samples = kCalibSamples;
    e.seed = kCalibSeed;
    return e;
}

/** One fleet configuration of the replay sweep. */
struct FleetCase
{
    const char *name;
    ClusterConfig cfg;
};

std::vector<FleetCase>
fleetCases(int64_t cache_budget)
{
    std::vector<FleetCase> cases;
    const auto add = [&](const char *name, int replicas, int tp,
                         double theta) {
        FleetCase c{name, ClusterConfig{}};
        c.cfg.replicas = replicas;
        c.cfg.routing = RoutingPolicy::HashRing;
        c.cfg.tensor_parallel = tp;
        c.cfg.continuous_theta = theta;
        c.cfg.prefix_cache.budget_bytes = cache_budget;
        cases.push_back(c);
    };
    add("r1", 1, 1, 0.0);
    add("r4", 4, 1, 0.0);
    add("r8", 8, 1, 0.0);
    add("r4_tp2", 4, 2, 0.0);
    add("r4_knee", 4, 1, 0.25);
    return cases;
}

// ---------------------------------------------------------------
// Process accounting
// ---------------------------------------------------------------

struct Usage
{
    double user_s = 0.0;
    double sys_s = 0.0;
    long minor_faults = 0;
    long maxrss_kb = 0;
};

Usage
usageNow()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    Usage u;
    u.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
        static_cast<double>(ru.ru_utime.tv_usec) * 1e-6;
    u.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
        static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
    u.minor_faults = ru.ru_minflt;
    u.maxrss_kb = ru.ru_maxrss;
    return u;
}

// ---------------------------------------------------------------
// Checks and digest
// ---------------------------------------------------------------

/** Counts checks and keeps the first few failures. */
class Checker
{
  public:
    void
    expect(bool ok, const std::string &what)
    {
        ++checks_;
        if (!ok) {
            ++failed_;
            if (failures_.size() < 16) {
                failures_.push_back(what);
            }
        }
    }

    bool ok() const { return failed_ == 0; }
    int64_t checks() const { return checks_; }
    int64_t failed() const { return failed_; }
    const std::vector<std::string> &failures() const
    {
        return failures_;
    }

  private:
    int64_t checks_ = 0;
    int64_t failed_ = 0;
    std::vector<std::string> failures_;
};

bool
closeTo(double a, double b, double rel = 1e-12)
{
    return std::fabs(a - b) <=
        rel * std::max({1.0, std::fabs(a), std::fabs(b)});
}

/** Canonical text of simulated statistics (bit-exact doubles). */
class Digest
{
  public:
    void
    add(const std::string &key, double v)
    {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        text_ += key + "=" + buf + "\n";
    }

    void
    addInt(const std::string &key, int64_t v)
    {
        text_ += key + "=" + std::to_string(v) + "\n";
    }

    const std::string &text() const { return text_; }

  private:
    std::string text_;
};

void
digestServing(Digest &d, const std::string &tag,
              const ServingReport &r)
{
    d.add(tag + ".makespan_s", r.makespan_s);
    d.add(tag + ".throughput_rps", r.throughput_rps);
    d.add(tag + ".p50_s", r.latency.p50);
    d.add(tag + ".p95_s", r.latency.p95);
    d.add(tag + ".p99_s", r.latency.p99);
    d.add(tag + ".mean_s", r.latency.mean);
    d.add(tag + ".occupancy", r.mean_occupancy);
    d.add(tag + ".slo", r.slo_attainment);
    d.addInt(tag + ".prefix_lookups", r.prefix_cache.lookups);
    d.addInt(tag + ".prefix_hits", r.prefix_cache.hits);
    d.addInt(tag + ".prefix_admissions", r.prefix_cache.admissions);
    d.addInt(tag + ".prefix_evictions", r.prefix_cache.evictions);
    for (const ClassOutcome &c : r.classes) {
        d.add(tag + ".class." + c.label + ".accuracy", c.accuracy);
        d.add(tag + ".class." + c.label + ".solo_s", c.solo_latency_s);
        d.add(tag + ".class." + c.label + ".slo", c.slo_attainment);
    }
    for (size_t b = 0; b < r.batches.size(); ++b) {
        const BatchRecord &rec = r.batches[b];
        const std::string k = tag + ".b" + std::to_string(b);
        d.addInt(k + ".n", static_cast<int64_t>(rec.request_ids.size()));
        d.addInt(k + ".replica", rec.replica);
        d.add(k + ".start", rec.start_s);
        d.add(k + ".service", rec.service_s);
        d.addInt(k + ".cycles", static_cast<int64_t>(rec.metrics.cycles));
        d.add(k + ".util", rec.metrics.utilization);
        d.add(k + ".energy", rec.metrics.energy.total());
        d.addInt(k + ".dram",
                 static_cast<int64_t>(rec.metrics.dramTotalBytes()));
    }
    for (const RequestOutcome &o : r.outcomes) {
        const std::string k = tag + ".o" + std::to_string(o.id);
        d.addInt(k + ".batch", o.batch_id);
        d.add(k + ".finish", o.finish_s);
        d.addInt(k + ".hit", o.prefix_hit ? 1 : 0);
    }
}

// ---------------------------------------------------------------
// Replay checks (independent recounts from outcomes and batches)
// ---------------------------------------------------------------

/** Nearest-rank percentile of an ascending series. */
double
nearestRank(const std::vector<double> &sorted, double q)
{
    if (sorted.empty()) {
        return 0.0;
    }
    const double rank = std::ceil(q * static_cast<double>(sorted.size()));
    size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
    idx = std::min(idx, sorted.size() - 1);
    return sorted[idx];
}

using PrefixId = std::pair<int, int64_t>; ///< (class, prefix identity)

/** What a replay check needs to know about the run it checks. */
struct ReplaySpec
{
    const QueueConfig *queue = nullptr;
    const std::vector<ServeRequest> *stream = nullptr;
    int max_batch = kMaxBatch;
    bool open_loop = true;
    bool cache_on = false;
    bool hash_routed = false;
    int replicas = 1;
};

void
checkServing(Checker &c, const std::string &tag, const ReplaySpec &s,
             const ServingReport &rep)
{
    const std::vector<ServeRequest> &stream = *s.stream;
    const size_t n = stream.size();
    c.expect(rep.outcomes.size() == n,
             tag + ": one outcome per stream request");
    if (rep.outcomes.size() != n) {
        return;
    }
    std::map<int64_t, size_t> pos;
    for (size_t i = 0; i < n; ++i) {
        pos[stream[i].id] = i;
    }
    c.expect(pos.size() == n, tag + ": stream ids are distinct");

    bool order_ok = true;
    bool ids_ok = true;
    bool batch_ref_ok = true;
    for (size_t i = 0; i < n; ++i) {
        const RequestOutcome &o = rep.outcomes[i];
        ids_ok = ids_ok && o.id == stream[i].id && !o.shed &&
            o.class_id == stream[i].class_id;
        order_ok = order_ok && o.arrival_s <= o.start_s &&
            o.start_s <= o.finish_s &&
            (!s.open_loop || o.arrival_s == stream[i].arrival_s);
        batch_ref_ok = batch_ref_ok && o.batch_id >= 0 &&
            static_cast<size_t>(o.batch_id) < rep.batches.size();
    }
    c.expect(ids_ok, tag + ": outcome ids/classes match the stream, "
                           "nothing shed");
    c.expect(order_ok, tag + ": arrival <= start <= finish");
    c.expect(batch_ref_ok, tag + ": every outcome names a batch");
    if (!batch_ref_ok) {
        return;
    }

    // Batches partition the requests, 1..max_batch same-model members.
    std::vector<int> member_count(n, 0);
    bool sizes_ok = true;
    bool model_ok = true;
    bool timing_ok = true;
    bool util_ok = true;
    bool known_ok = true;
    for (size_t b = 0; b < rep.batches.size(); ++b) {
        const BatchRecord &rec = rep.batches[b];
        const size_t sz = rec.request_ids.size();
        sizes_ok = sizes_ok && sz >= 1 &&
            sz <= static_cast<size_t>(s.max_batch);
        util_ok = util_ok && rec.metrics.utilization > 0.0 &&
            rec.metrics.utilization <= 1.0 && rec.metrics.cycles > 0 &&
            rec.service_s > 0.0;
        std::string model;
        for (const int64_t id : rec.request_ids) {
            const auto it = pos.find(id);
            if (it == pos.end()) {
                known_ok = false;
                continue;
            }
            const size_t i = it->second;
            member_count[i] += 1;
            const RequestOutcome &o = rep.outcomes[i];
            timing_ok = timing_ok &&
                o.batch_id == static_cast<int>(b) &&
                o.start_s == rec.start_s &&
                closeTo(o.finish_s, rec.start_s + rec.service_s) &&
                o.batch_size == static_cast<int>(sz);
            const std::string &m =
                s.queue->mix[static_cast<size_t>(stream[i].class_id)]
                    .model;
            if (model.empty()) {
                model = m;
            }
            model_ok = model_ok && m == model;
        }
    }
    bool partition_ok = known_ok;
    for (const int k : member_count) {
        partition_ok = partition_ok && k == 1;
    }
    c.expect(partition_ok, tag + ": batches partition the requests");
    c.expect(sizes_ok, tag + ": batch sizes within 1..max_batch");
    c.expect(model_ok, tag + ": batch members share one model");
    c.expect(timing_ok, tag + ": members start/finish with their batch");
    c.expect(util_ok, tag + ": PE utilization in (0, 1]");

    // Routing affinity and prefix-cache causality, per replica in
    // execution order.
    std::vector<size_t> order(rep.batches.size());
    for (size_t b = 0; b < order.size(); ++b) {
        order[b] = b;
    }
    std::stable_sort(order.begin(), order.end(),
                     [&](size_t a, size_t b) {
                         const BatchRecord &x = rep.batches[a];
                         const BatchRecord &y = rep.batches[b];
                         if (x.replica != y.replica) {
                             return x.replica < y.replica;
                         }
                         return x.start_s < y.start_s;
                     });
    std::map<PrefixId, int> owner;
    std::map<int, std::set<PrefixId>> seen;
    bool affinity_ok = true;
    bool causal_ok = true;
    bool replica_ok = true;
    int64_t hits = 0;
    for (const size_t b : order) {
        const BatchRecord &rec = rep.batches[b];
        replica_ok = replica_ok && rec.replica >= 0 &&
            rec.replica < s.replicas;
        if (!replica_ok) {
            break;
        }
        std::set<PrefixId> &mine = seen[rec.replica];
        std::vector<PrefixId> keys;
        for (const int64_t id : rec.request_ids) {
            const size_t i = pos.at(id);
            const PrefixId key{stream[i].class_id, stream[i].prefix_id};
            keys.push_back(key);
            const auto ins = owner.emplace(key, rec.replica);
            if (s.hash_routed) {
                affinity_ok = affinity_ok &&
                    ins.first->second == rec.replica;
            }
            if (rep.outcomes[i].prefix_hit) {
                hits += 1;
                causal_ok = causal_ok && s.cache_on &&
                    mine.count(key) > 0;
            }
        }
        mine.insert(keys.begin(), keys.end());
    }
    c.expect(replica_ok, tag + ": batches name a valid replica");
    c.expect(affinity_ok, tag + ": same routing key -> same replica");
    c.expect(causal_ok, tag + ": prefix hits only after the key was "
                              "seen earlier on that replica");
    const PrefixCacheStats &pc = rep.prefix_cache;
    c.expect(hits == pc.hits, tag + ": hit flags match the hit count");
    c.expect(pc.hits + pc.misses == pc.lookups,
             tag + ": prefix hits + misses = lookups");
    c.expect(pc.lookups ==
                 (s.cache_on ? static_cast<int64_t>(n) : int64_t{0}),
             tag + ": one prefix lookup per served request");

    // Latency percentiles and throughput recounted from outcomes.
    std::vector<double> lat;
    double makespan = 0.0;
    for (const RequestOutcome &o : rep.outcomes) {
        lat.push_back(o.finish_s - o.arrival_s);
        makespan = std::max(makespan, o.finish_s);
    }
    std::sort(lat.begin(), lat.end());
    c.expect(closeTo(nearestRank(lat, 0.50), rep.latency.p50) &&
                 closeTo(nearestRank(lat, 0.95), rep.latency.p95) &&
                 closeTo(nearestRank(lat, 0.99), rep.latency.p99),
             tag + ": p50/p95/p99 recount matches the report");
    c.expect(makespan > 0.0 &&
                 closeTo(static_cast<double>(n) / makespan,
                         rep.throughput_rps),
             tag + ": throughput recount matches the report");
}

/** Fleet-level recounts a ClusterReport adds on top of checkServing. */
void
checkCluster(Checker &c, const std::string &tag, const ReplaySpec &s,
             const ClusterReport &rep)
{
    checkServing(c, tag, s, rep.merged);
    const size_t n = s.stream->size();
    std::vector<int64_t> routed(static_cast<size_t>(s.replicas), 0);
    for (const BatchRecord &b : rep.merged.batches) {
        if (b.replica >= 0 && b.replica < s.replicas) {
            routed[static_cast<size_t>(b.replica)] +=
                static_cast<int64_t>(b.request_ids.size());
        }
    }
    const int64_t max_routed =
        *std::max_element(routed.begin(), routed.end());
    const double mean = static_cast<double>(n) /
        static_cast<double>(s.replicas);
    c.expect(rep.replicas.size() == static_cast<size_t>(s.replicas) &&
                 rep.shed == 0 && rep.admitted == static_cast<int>(n),
             tag + ": every request admitted to a configured replica");
    c.expect(closeTo(static_cast<double>(max_routed) / mean,
                     rep.load_imbalance),
             tag + ": load imbalance recount matches the report");
    int64_t hits = 0;
    for (const ReplicaStats &r : rep.replicas) {
        hits += r.prefix_hits;
    }
    c.expect(hits == rep.prefix_cache.hits,
             tag + ": replica hits sum to the fleet hits");
}

/**
 * Tampered copies of a report that the checks must reject; returns
 * how many were wrongly accepted.
 */
template <class Report, class ServingOf, class CheckFn>
int
tamperEscapes(const Report &good, const ServingOf &serving,
              const CheckFn &check)
{
    std::vector<std::function<void(ServingReport &)>> tampers = {
        [](ServingReport &r) { r.latency.p95 *= 1.0 + 1e-9; },
        [](ServingReport &r) { r.throughput_rps *= 1.001; },
        [](ServingReport &r) {
            // A request executed twice.
            if (r.batches.size() > 1) {
                r.batches[1].request_ids.push_back(
                    r.batches[0].request_ids.front());
            }
        },
        [](ServingReport &r) { r.outcomes.pop_back(); },
        [](ServingReport &r) {
            // A hit on the very first request served.
            r.outcomes[static_cast<size_t>(
                           r.batches.front().request_ids.front())]
                .prefix_hit = true;
            r.prefix_cache.hits += 1;
            r.prefix_cache.lookups += 1;
        },
        [](ServingReport &r) { r.batches.back().metrics.utilization = 1.5; },
        [](ServingReport &r) {
            r.outcomes.back().start_s = r.outcomes.back().arrival_s - 1.0;
        },
    };
    int escaped = 0;
    for (const auto &t : tampers) {
        Report bad = good;
        t(serving(bad));
        Checker probe;
        check(probe, bad);
        escaped += probe.ok() ? 1 : 0;
    }
    return escaped;
}

// ---------------------------------------------------------------
// Cycle-model probe
// ---------------------------------------------------------------

/** Work the probe pushed through the cycle model. */
struct SimWork
{
    int64_t calls = 0;
    int64_t gemms = 0;
    int64_t psi_draws = 0;
    int64_t tile_log_kept = 0;
};

RunMetrics
probeSimulate(const AccelConfig &accel, const WorkloadTrace &trace,
              SimWork &w)
{
    RunMetrics m;
    {
        obs::TraceSpan span("bench.sim.simulate");
        m = simulateAccelerator(accel, trace);
    }
    w.calls += 1;
    for (const LayerEvents &l : trace.layers) {
        for (const GemmEvent &g : l.gemms) {
            w.gemms += 1;
            if (g.psi_in < 1.0) {
                w.psi_draws += static_cast<int64_t>(
                    timeGemmDraws(accel, g.m, g.k, g.n));
            }
        }
    }
    w.tile_log_kept += static_cast<int64_t>(m.tile_lengths.size());
    return m;
}

// ---------------------------------------------------------------
// Result bookkeeping shared by the workloads
// ---------------------------------------------------------------

/** Everything one process measures, printed as the last line. */
struct RunResult
{
    std::vector<double> setup_s;
    std::vector<double> round_wall_s;
    std::vector<double> round_cpu_s;
    std::vector<double> round_user_s;
    std::vector<double> round_sys_s;
    std::vector<double> round_minor_faults;
    /** Untraced and traced walls of round 0, alternated in pairs. */
    std::vector<double> pair_off_wall_s;
    std::vector<double> pair_on_wall_s;
    std::vector<double> pair_off_user_s;
    std::vector<double> pair_off_sys_s;
    std::vector<double> pair_off_minor_faults;
    int64_t items_per_round = 0;
    /** Items of every round whose report failed a check. */
    int64_t failed_items = 0;
    Checker checks;
    std::vector<std::pair<std::string, double>> reference;
    /** Work the benchmark counted in each layer (per-layer metrics). */
    std::vector<std::pair<std::string, double>> layer_counts;
    std::string digest;
};

void
addSimWork(RunResult &r, const SimWork &w)
{
    const auto add = [&](const char *name, int64_t v) {
        r.layer_counts.emplace_back(name, static_cast<double>(v));
    };
    add("sim.calls", w.calls);
    add("sim.gemms", w.gemms);
    add("sim.psi_draws", w.psi_draws);
    add("sim.tile_log_kept", w.tile_log_kept);
}

/**
 * Composition (member codes: combo tagged with its prefix hit, in
 * member order) of every batch of a report.
 */
std::vector<std::vector<size_t>>
batchCompositions(ServingSimulator &sim, const ServingReport &rep)
{
    std::map<int64_t, size_t> pos;
    for (size_t i = 0; i < rep.outcomes.size(); ++i) {
        pos[rep.outcomes[i].id] = i;
    }
    std::vector<std::vector<size_t>> comps;
    for (const BatchRecord &b : rep.batches) {
        std::vector<size_t> comp;
        for (const int64_t id : b.request_ids) {
            const RequestOutcome &o = rep.outcomes[pos.at(id)];
            comp.push_back(ServingSimulator::comboCode(
                sim.classCombo(o.class_id), o.prefix_hit));
        }
        comps.push_back(std::move(comp));
    }
    return comps;
}

/**
 * Re-cost up to kProbeCompositions compositions of a report through
 * fuseTraces + simulateAccelerator (and splitTensorParallel for a
 * tensor-parallel fleet).  When @p exact, each probed batch's
 * recorded cycles must equal the re-costed ones.
 */
void
probeReport(ServingSimulator &sim, const ServingReport &rep, int tp,
            bool exact, size_t budget, SimWork &w, Checker &c,
            const std::string &tag)
{
    const std::vector<std::vector<size_t>> comps =
        batchCompositions(sim, rep);
    std::set<std::vector<size_t>> probed;
    bool match = true;
    for (size_t b = 0; b < comps.size() && budget > 0; ++b) {
        const std::vector<size_t> &comp = comps[b];
        if (!probed.insert(comp).second) {
            continue;
        }
        --budget;
        std::vector<const WorkloadTrace *> parts;
        for (const size_t code : comp) {
            parts.push_back(&sim.codeTrace(code));
        }
        WorkloadTrace fused;
        {
            obs::TraceSpan span("bench.sim.fuse");
            fused = fuseTraces(parts);
        }
        if (tp > 1) {
            std::vector<WorkloadTrace> shards;
            {
                obs::TraceSpan span("bench.sim.split");
                shards = splitTensorParallel(fused, tp);
            }
            for (const WorkloadTrace &sh : shards) {
                probeSimulate(sim.accelConfig(), sh, w);
            }
        } else {
            const RunMetrics m =
                probeSimulate(sim.accelConfig(), fused, w);
            if (exact) {
                match = match &&
                    m.cycles == rep.batches[b].metrics.cycles &&
                    m.seconds() == rep.batches[b].service_s;
            }
        }
    }
    if (exact) {
        c.expect(match, tag + ": probed batch costs equal "
                              "simulateAccelerator(fuseTraces(...))");
    }
}

// ---------------------------------------------------------------
// Replay set-up
// ---------------------------------------------------------------

/** What a replay workload keeps from its cold calibration. */
struct Calibration
{
    int64_t cache_budget = 0; ///< per-replica prefix-cache bytes
    int64_t samples = 0;      ///< functional samples evaluated
};

/**
 * Cold calibration of a replay simulator (functional cache emptied
 * first); later rounds build fresh simulators that calibrate from the
 * then-warm functional cache.
 */
Calibration
coldCalibration(const QueueConfig &queue, ThreadPool &pool)
{
    FunctionalCache::instance().clear();
    ServingSimulator sim(queue, AccelConfig::focus(), calibOptions());
    {
        obs::TraceSpan span("bench.serve.calibrate");
        sim.calibrate(&pool);
    }
    Calibration c;
    c.cache_budget = kCacheSlabs *
        sim.comboSlabSpec(sim.classCombo(0), "probe").bytes();
    c.samples = static_cast<int64_t>(
                    FunctionalCache::instance().stats().misses) *
        kCalibSamples;
    return c;
}

// ---------------------------------------------------------------
// fleet_replay
// ---------------------------------------------------------------

struct FleetRound
{
    QueueConfig queue;
    std::vector<ServeRequest> stream;
    std::unique_ptr<ServingSimulator> sim;
    std::vector<ClusterReport> reports;
};

class FleetWorkload
{
  public:
    explicit FleetWorkload(uint64_t seed) : seed_(seed) {}

    void
    setup(ThreadPool &pool)
    {
        calib_ = coldCalibration(fleetQueue(seed_), pool);
        cases_ = fleetCases(calib_.cache_budget);
    }

    int64_t
    itemsPerRound() const
    {
        return static_cast<int64_t>(cases_.size()) * kFleetRequests;
    }

    /**
     * A round (one stream) takes ~20 s; two make a run average over
     * two streams, and every run pays one cold first round.
     */
    static int minRounds() { return 2; }

    FleetRound
    round(ThreadPool &pool, int round) const
    {
        FleetRound r;
        r.queue = fleetQueue(0);
        r.queue.seed = stratifiedSeed(r.queue, seed_, round);
        {
            obs::TraceSpan span("bench.serve.generate");
            r.stream = RequestQueue(r.queue).generate();
        }
        r.sim = std::make_unique<ServingSimulator>(
            r.queue, AccelConfig::focus(), calibOptions());
        {
            obs::TraceSpan span("bench.serve.calibrate");
            r.sim->calibrate(&pool);
        }
        const SchedulerConfig sched =
            schedFor(BatchPolicy::Timeout, 120.0);
        for (const FleetCase &fc : cases_) {
            ClusterSimulator cluster(*r.sim, fc.cfg);
            if (fc.cfg.continuous_theta > 0.0) {
                obs::TraceSpan span("bench.cluster.run_continuous");
                r.reports.push_back(cluster.run(sched, &pool));
            } else {
                obs::TraceSpan span("bench.cluster.run");
                r.reports.push_back(cluster.run(sched, &pool));
            }
        }
        return r;
    }

    std::string
    digest(const FleetRound &r) const
    {
        Digest d;
        for (size_t i = 0; i < cases_.size(); ++i) {
            const ClusterReport &rep = r.reports[i];
            digestServing(d, cases_[i].name, rep.merged);
            d.add(std::string(cases_[i].name) + ".imbalance",
                  rep.load_imbalance);
            d.addInt(std::string(cases_[i].name) + ".interconnect",
                     static_cast<int64_t>(rep.interconnect_bytes));
        }
        return d.text();
    }

    /**
     * Recounts of every config's report; returns the items (requests
     * replayed) of the reports that failed.
     */
    int64_t
    check(const FleetRound &r, Checker &c) const
    {
        int64_t failed = 0;
        for (size_t i = 0; i < cases_.size(); ++i) {
            const int64_t before = c.failed();
            checkCluster(c, cases_[i].name, spec(r, cases_[i]),
                         r.reports[i]);
            failed += c.failed() > before ? kFleetRequests : 0;
        }
        return failed;
    }

    void
    verify(FleetRound &r, RunResult &out) const
    {
        Checker &c = out.checks;
        SimWork work;
        std::set<std::vector<size_t>> distinct;
        int64_t batches = 0;
        double imbalance_sum = 0.0;
        int imbalance_n = 0;
        double interconnect = 0.0;
        for (size_t i = 0; i < cases_.size(); ++i) {
            const FleetCase &fc = cases_[i];
            const ClusterReport &rep = r.reports[i];
            if (i == 0) {
                const ReplaySpec s = spec(r, fc);
                const int escaped = tamperEscapes(
                    rep,
                    [](ClusterReport &bad) -> ServingReport & {
                        return bad.merged;
                    },
                    [&](Checker &pc, const ClusterReport &bad) {
                        checkCluster(pc, fc.name, s, bad);
                    });
                c.expect(escaped == 0,
                         "fleet: every tampered report is rejected");
            }
            const bool simple = fc.cfg.tensor_parallel == 1 &&
                fc.cfg.continuous_theta <= 0.0;
            probeReport(*r.sim, rep.merged, fc.cfg.tensor_parallel,
                        simple, kProbeCompositions / cases_.size(),
                        work, c, fc.name);
            for (auto &comp : batchCompositions(*r.sim, rep.merged)) {
                distinct.insert(std::move(comp));
            }
            batches += static_cast<int64_t>(rep.merged.batches.size());
            if (fc.cfg.replicas > 1) {
                imbalance_sum += rep.load_imbalance;
                imbalance_n += 1;
            }
            interconnect += static_cast<double>(rep.interconnect_bytes);
            const std::string k = std::string("fleet.") + fc.name;
            out.reference.emplace_back(k + ".p95_s",
                                       rep.merged.latency.p95);
            out.reference.emplace_back(k + ".slo",
                                       rep.merged.slo_attainment);
            out.reference.emplace_back(k + ".hit_rate",
                                       rep.prefix_cache.hitRate());
            out.reference.emplace_back(k + ".throughput_rps",
                                       rep.merged.throughput_rps);
        }
        out.layer_counts.emplace_back("serve.compositions",
                                      static_cast<double>(distinct.size()));
        out.layer_counts.emplace_back("serve.batch_records",
                                      static_cast<double>(batches));
        out.layer_counts.emplace_back(
            "cluster.load_imbalance",
            imbalance_n > 0 ? imbalance_sum / imbalance_n : 0.0);
        out.layer_counts.emplace_back("cluster.interconnect_gb",
                                      interconnect / 1e9);
        out.layer_counts.emplace_back(
            "eval.samples", static_cast<double>(calib_.samples));
        addSimWork(out, work);
    }

  private:
    static ReplaySpec
    spec(const FleetRound &r, const FleetCase &fc)
    {
        ReplaySpec s;
        s.queue = &r.queue;
        s.stream = &r.stream;
        s.cache_on = fc.cfg.prefix_cache.enabled();
        s.hash_routed = fc.cfg.routing == RoutingPolicy::HashRing;
        s.replicas = fc.cfg.replicas;
        return s;
    }

    uint64_t seed_;
    Calibration calib_;
    std::vector<FleetCase> cases_;
};

// ---------------------------------------------------------------
// box_replay
// ---------------------------------------------------------------

struct BoxRound
{
    QueueConfig open_q;
    QueueConfig closed_q;
    std::vector<ServeRequest> open_stream;
    std::vector<ServeRequest> closed_stream;
    std::unique_ptr<ServingSimulator> open;
    std::unique_ptr<ServingSimulator> closed;
    std::vector<ServingReport> reports; ///< policies..., closed loop
};

class BoxWorkload
{
  public:
    explicit BoxWorkload(uint64_t seed) : seed_(seed) {}

    void
    setup(ThreadPool &pool)
    {
        calib_ = coldCalibration(
            boxQueue(seed_, ArrivalProcess::OpenPoisson), pool);
        cache_.budget_bytes = calib_.cache_budget;
    }

    static const std::vector<BatchPolicy> &
    policies()
    {
        static const std::vector<BatchPolicy> p = {
            BatchPolicy::Single, BatchPolicy::FixedSize,
            BatchPolicy::Timeout, BatchPolicy::ConcAware};
        return p;
    }

    int64_t
    itemsPerRound() const
    {
        return static_cast<int64_t>(policies().size() + 1) *
            kBoxRequests;
    }

    /** A round takes 3-5 s; eight average a run over eight streams. */
    static int minRounds() { return 8; }

    BoxRound
    round(ThreadPool &pool, int round) const
    {
        BoxRound r;
        r.open_q = boxQueue(0, ArrivalProcess::OpenPoisson);
        r.open_q.seed = stratifiedSeed(r.open_q, seed_, round);
        r.closed_q = boxQueue(r.open_q.seed, ArrivalProcess::ClosedLoop);
        {
            obs::TraceSpan span("bench.serve.generate");
            r.open_stream = RequestQueue(r.open_q).generate();
            r.closed_stream = RequestQueue(r.closed_q).generate();
        }
        r.open = std::make_unique<ServingSimulator>(
            r.open_q, AccelConfig::focus(), calibOptions());
        r.closed = std::make_unique<ServingSimulator>(
            r.closed_q, AccelConfig::focus(), calibOptions());
        r.open->setPrefixCache(cache_);
        r.closed->setPrefixCache(cache_);
        {
            obs::TraceSpan span("bench.serve.calibrate");
            r.open->calibrate(&pool);
            r.closed->calibrate(&pool);
        }
        for (const BatchPolicy p : policies()) {
            obs::TraceSpan span("bench.serve.run");
            r.reports.push_back(r.open->run(schedFor(p, 30.0), &pool));
        }
        {
            obs::TraceSpan span("bench.serve.run_closed");
            r.reports.push_back(r.closed->run(
                schedFor(BatchPolicy::Timeout, 30.0), &pool));
        }
        return r;
    }

    std::string
    digest(const BoxRound &r) const
    {
        Digest d;
        for (size_t i = 0; i < r.reports.size(); ++i) {
            digestServing(d, tagOf(i), r.reports[i]);
        }
        return d.text();
    }

    /**
     * Recounts of every replay's report; returns the items (requests
     * replayed) of the reports that failed.
     */
    int64_t
    check(const BoxRound &r, Checker &c) const
    {
        int64_t failed = 0;
        for (size_t i = 0; i < r.reports.size(); ++i) {
            const int64_t before = c.failed();
            checkServing(c, tagOf(i), spec(r, i), r.reports[i]);
            failed += c.failed() > before ? kBoxRequests : 0;
        }
        return failed;
    }

    void
    verify(BoxRound &r, RunResult &out) const
    {
        Checker &c = out.checks;
        SimWork work;
        std::set<std::vector<size_t>> open_distinct;
        std::set<std::vector<size_t>> closed_distinct;
        int64_t batches = 0;
        for (size_t i = 0; i < r.reports.size(); ++i) {
            const bool closed = i == policies().size();
            const ServingReport &rep = r.reports[i];
            const std::string tag = tagOf(i);
            if (i == 1) {
                const ReplaySpec s = spec(r, i);
                const int escaped = tamperEscapes(
                    rep,
                    [](ServingReport &bad) -> ServingReport & {
                        return bad;
                    },
                    [&](Checker &pc, const ServingReport &bad) {
                        checkServing(pc, tag, s, bad);
                    });
                c.expect(escaped == 0,
                         "box: every tampered report is rejected");
            }
            ServingSimulator &sim = closed ? *r.closed : *r.open;
            probeReport(sim, rep, 1, true,
                        kProbeCompositions / r.reports.size(), work, c,
                        tag);
            for (auto &comp : batchCompositions(sim, rep)) {
                (closed ? closed_distinct : open_distinct)
                    .insert(std::move(comp));
            }
            batches += static_cast<int64_t>(rep.batches.size());
            const std::string k = "box." + tag;
            out.reference.emplace_back(k + ".p95_s", rep.latency.p95);
            out.reference.emplace_back(k + ".p99_s", rep.latency.p99);
            out.reference.emplace_back(k + ".throughput_rps",
                                       rep.throughput_rps);
            out.reference.emplace_back(k + ".occupancy",
                                       rep.mean_occupancy);
        }
        out.layer_counts.emplace_back(
            "serve.compositions",
            static_cast<double>(open_distinct.size() +
                                closed_distinct.size()));
        out.layer_counts.emplace_back("serve.batch_records",
                                      static_cast<double>(batches));
        out.layer_counts.emplace_back(
            "eval.samples", static_cast<double>(calib_.samples));
        addSimWork(out, work);
    }

  private:
    static std::string
    tagOf(size_t i)
    {
        return i < policies().size()
            ? std::string(batchPolicyName(policies()[i]))
            : std::string("closed");
    }

    ReplaySpec
    spec(const BoxRound &r, size_t i) const
    {
        const bool closed = i == policies().size();
        ReplaySpec s;
        s.queue = closed ? &r.closed_q : &r.open_q;
        s.stream = closed ? &r.closed_stream : &r.open_stream;
        s.open_loop = !closed;
        s.cache_on = cache_.enabled();
        s.max_batch = i == 0 ? 1 : kMaxBatch;
        return s;
    }

    uint64_t seed_;
    Calibration calib_;
    PrefixCacheConfig cache_;
};

// ---------------------------------------------------------------
// qa_eval
// ---------------------------------------------------------------

struct QaCellResult
{
    MethodEval eval;
    WorkloadTrace trace;
    RunMetrics metrics;
};

/** The evaluators of one QA job and its (pair, method) cells. */
struct QaJob
{
    struct Cell
    {
        size_t pair;
        MethodConfig method;
    };

    std::vector<std::unique_ptr<Evaluator>> evaluators;
    std::vector<Cell> cells;
};

struct QaRound
{
    QaJob job;
    std::vector<QaCellResult> cells;
};

class QaWorkload
{
  public:
    explicit QaWorkload(uint64_t seed) : seed_(seed) {}

    /**
     * What a QA job does before its first functional pass: the nine
     * evaluators (weights, sample generators) and their method
     * rosters (FrameFusion's budget is solved per pair).
     */
    void
    setup(ThreadPool &pool)
    {
        FunctionalCache::instance().clear();
        cells_ = buildJob(pool, roundSeed(seed_, -1)).cells.size();
    }

    int64_t
    itemsPerRound() const
    {
        return static_cast<int64_t>(cells_) * kQaSamples;
    }

    /** A round takes ~9.5 s; two average a run over two sample sets. */
    static int minRounds() { return 2; }

    /**
     * One QA job on fresh samples: every round draws its own sample
     * seed, so one run averages over many sample sets.
     */
    QaRound
    round(ThreadPool &pool, int round) const
    {
        FunctionalCache::instance().clear();
        QaRound r;
        r.job = buildJob(pool, roundSeed(seed_, round));
        r.cells.resize(r.job.cells.size());
        pool.parallelFor(
            static_cast<int64_t>(r.cells.size()), [&](int64_t i) {
                const QaJob::Cell &cell =
                    r.job.cells[static_cast<size_t>(i)];
                const Evaluator &ev = *r.job.evaluators[cell.pair];
                QaCellResult &res = r.cells[static_cast<size_t>(i)];
                {
                    obs::TraceSpan span("bench.eval.run_functional");
                    res.eval = ev.runFunctional(cell.method, &pool);
                }
                {
                    obs::TraceSpan span("bench.eval.trace");
                    res.trace = ev.buildFullTrace(cell.method, res.eval);
                }
                {
                    obs::TraceSpan span("bench.eval.simulate");
                    res.metrics = ev.simulate(cell.method,
                                              accelForMethod(cell.method));
                }
            });
        return r;
    }

    std::string
    digest(const QaRound &r) const
    {
        Digest d;
        for (size_t i = 0; i < r.cells.size(); ++i) {
            const QaCellResult &res = r.cells[i];
            const std::string k = cellTag(r.job, i);
            d.add(k + ".accuracy", res.eval.accuracy);
            d.add(k + ".sparsity", res.eval.sparsity);
            d.add(k + ".macs", res.trace.totalMacs());
            d.addInt(k + ".cycles",
                     static_cast<int64_t>(res.metrics.cycles));
            d.add(k + ".util", res.metrics.utilization);
            d.add(k + ".energy", res.metrics.energy.total());
            d.addInt(k + ".dram",
                     static_cast<int64_t>(res.metrics.dramTotalBytes()));
        }
        return d.text();
    }

    /**
     * Properties every cell's result must have, recounted apart from
     * the evaluator; returns the items (QA samples) of the cells that
     * failed.
     */
    int64_t
    check(const QaRound &r, Checker &c) const
    {
        const QaJob &job = r.job;
        const std::map<size_t, size_t> dense_of = denseCells(job);
        c.expect(dense_of.size() == job.evaluators.size(),
                 "qa: every pair evaluates the dense reference");
        if (dense_of.size() != job.evaluators.size()) {
            return itemsPerRound();
        }
        int64_t failed = 0;
        for (size_t i = 0; i < job.cells.size(); ++i) {
            const int64_t before = c.failed();
            const QaJob::Cell &cell = job.cells[i];
            const QaCellResult &res = r.cells[i];
            const QaCellResult &dense = r.cells[dense_of.at(cell.pair)];
            const std::string tag = cellTag(job, i);
            c.expect(accuracyWhole(res.eval.accuracy),
                     tag + ": accuracy x samples is an integer");
            c.expect(res.eval.sparsity >= 0.0 && res.eval.sparsity < 1.0,
                     tag + ": functional sparsity in [0, 1)");
            const double recount = traceRecount(res, dense);
            const double reported = reportedSparsity(job, i, res);
            c.expect(sparsityMatches(recount, reported),
                     tag + ": traceSparsity = 1 - MACs/dense MACs");
            if (cell.method.kind == MethodKind::Dense) {
                c.expect(reported == 0.0 && recount == 0.0,
                         tag + ": dense sparsity is 0");
            } else {
                c.expect(recount > 0.0 && recount < 1.0,
                         tag + ": reduced methods skip work");
            }
            c.expect(res.metrics.cycles > 0 &&
                         res.metrics.utilization > 0.0 &&
                         res.metrics.utilization <= 1.0,
                     tag + ": cycles > 0, PE utilization in (0, 1]");
            failed += c.failed() > before ? kQaSamples : 0;
        }
        return failed;
    }

    void
    verify(QaRound &r, RunResult &out) const
    {
        Checker &c = out.checks;
        SimWork work;
        const QaJob &job = r.job;
        const std::map<size_t, size_t> dense_of = denseCells(job);
        std::map<std::string, std::pair<double, int>> acc;
        double log_speedup = 0.0;
        int speedup_n = 0;
        for (size_t i = 0; i < job.cells.size() && !dense_of.empty();
             ++i) {
            const QaJob::Cell &cell = job.cells[i];
            const QaCellResult &res = r.cells[i];
            const QaCellResult &dense = r.cells[dense_of.at(cell.pair)];
            const std::string tag = cellTag(job, i);
            if (i + 1 == job.cells.size()) {
                // Tampered results must fail the same checks.
                const double recount = traceRecount(res, dense);
                const double reported = reportedSparsity(job, i, res);
                c.expect(!sparsityMatches(recount, reported + 1e-6),
                         "qa: a tampered sparsity is rejected");
                c.expect(!accuracyWhole(res.eval.accuracy +
                                        0.5 / kQaSamples),
                         "qa: a tampered accuracy is rejected");
            }
            const RunMetrics m = probeSimulate(
                accelForMethod(cell.method), res.trace, work);
            c.expect(m.cycles == res.metrics.cycles,
                     tag + ": Evaluator::simulate = simulateAccelerator("
                           "buildFullTrace)");
            auto &a = acc[cell.method.name()];
            a.first += res.eval.accuracy;
            a.second += 1;
            if (cell.method.kind == MethodKind::Focus) {
                log_speedup += std::log(
                    static_cast<double>(dense.metrics.cycles) /
                    static_cast<double>(res.metrics.cycles));
                speedup_n += 1;
            }
        }
        checkGemmKernels(c);
        for (const auto &kv : acc) {
            out.reference.emplace_back("qa." + kv.first + ".accuracy",
                                       kv.second.first / kv.second.second);
        }
        if (speedup_n > 0) {
            out.reference.emplace_back("qa.focus_speedup_vs_dense",
                                       std::exp(log_speedup / speedup_n));
        }
        out.layer_counts.emplace_back(
            "eval.samples", static_cast<double>(itemsPerRound()));
        addSimWork(out, work);
    }

  private:
    /** Nine evaluators (paper grid) and their standardMethods(). */
    static QaJob
    buildJob(ThreadPool &pool, uint64_t seed)
    {
        EvalOptions opts;
        opts.samples = kQaSamples;
        opts.seed = seed;
        QaJob job;
        for (const std::string &model : videoModelNames()) {
            for (const std::string &dataset : videoDatasetNames()) {
                obs::TraceSpan span("bench.eval.construct");
                job.evaluators.push_back(
                    std::make_unique<Evaluator>(model, dataset, opts));
            }
        }
        // FrameFusion's budget is solved per pair.
        std::vector<std::vector<MethodConfig>> methods(
            job.evaluators.size());
        pool.parallelFor(
            static_cast<int64_t>(methods.size()), [&](int64_t p) {
                methods[static_cast<size_t>(p)] =
                    job.evaluators[static_cast<size_t>(p)]
                        ->standardMethods();
            });
        for (size_t p = 0; p < methods.size(); ++p) {
            for (const MethodConfig &m : methods[p]) {
                job.cells.push_back({p, m});
            }
        }
        return job;
    }

    /** pair -> index of its dense cell. */
    static std::map<size_t, size_t>
    denseCells(const QaJob &job)
    {
        std::map<size_t, size_t> dense_of;
        for (size_t i = 0; i < job.cells.size(); ++i) {
            if (job.cells[i].method.kind == MethodKind::Dense) {
                dense_of[job.cells[i].pair] = i;
            }
        }
        return dense_of;
    }

    /** Tbl. II sparsity recounted from the GEMM shapes of two traces. */
    static double
    traceRecount(const QaCellResult &res, const QaCellResult &dense)
    {
        return 1.0 - gemmMacs(res.trace) / gemmMacs(dense.trace);
    }

    static double
    reportedSparsity(const QaJob &job, size_t i, const QaCellResult &res)
    {
        const QaJob::Cell &cell = job.cells[i];
        return job.evaluators[cell.pair]->traceSparsity(cell.method,
                                                        res.eval);
    }

    static bool
    accuracyWhole(double accuracy)
    {
        const double k = accuracy * kQaSamples;
        return std::fabs(k - std::round(k)) <= 1e-9 && k >= 0.0 &&
            k <= kQaSamples;
    }

    static bool
    sparsityMatches(double recount, double reported)
    {
        return std::fabs(recount - reported) <= 1e-9;
    }

    /** Sum over GEMM events of m*k*n*count*psi_in. */
    static double
    gemmMacs(const WorkloadTrace &t)
    {
        double total = 0.0;
        for (const LayerEvents &l : t.layers) {
            for (const GemmEvent &g : l.gemms) {
                total += static_cast<double>(g.m) *
                    static_cast<double>(g.k) * static_cast<double>(g.n) *
                    static_cast<double>(g.count) * g.psi_in;
            }
        }
        return total;
    }

    /**
     * kernels::gemmF32 on model-shaped operands against a plain
     * double-precision loop.
     */
    void
    checkGemmKernels(Checker &c) const
    {
        std::mt19937_64 rng(seed_);
        std::uniform_real_distribution<float> u(-1.0f, 1.0f);
        for (const std::string &name : videoModelNames()) {
            const ModelProfile mp = modelProfile(name);
            const int64_t rows = 37;
            const int64_t shapes[3][2] = {
                {mp.hidden, mp.hidden},
                {mp.hidden, mp.ffnInner()},
                {mp.ffnInner(), mp.hidden}};
            for (const auto &kn : shapes) {
                const int64_t k = kn[0];
                const int64_t n = kn[1];
                std::vector<float> a(static_cast<size_t>(rows * k));
                std::vector<float> b(static_cast<size_t>(k * n));
                std::vector<float> out(static_cast<size_t>(rows * n));
                for (float &v : a) {
                    v = u(rng);
                }
                for (float &v : b) {
                    v = u(rng);
                }
                {
                    obs::TraceSpan span("bench.tensor.gemm");
                    kernels::gemmF32(rows, n, k, a.data(), k, b.data(), n,
                                     out.data(), n);
                }
                bool ok = true;
                for (int64_t i = 0; i < rows; ++i) {
                    for (int64_t j = 0; j < n; ++j) {
                        double ref = 0.0;
                        double mag = 0.0;
                        for (int64_t p = 0; p < k; ++p) {
                            const double x =
                                static_cast<double>(a[static_cast<size_t>(
                                    i * k + p)]) *
                                static_cast<double>(b[static_cast<size_t>(
                                    p * n + j)]);
                            ref += x;
                            mag += std::fabs(x);
                        }
                        const double got = static_cast<double>(
                            out[static_cast<size_t>(i * n + j)]);
                        ok = ok && std::fabs(got - ref) <= 1e-5 * mag + 1e-6;
                    }
                }
                c.expect(ok, name + ": gemmF32 " + std::to_string(rows) +
                                 "x" + std::to_string(k) + "x" +
                                 std::to_string(n) +
                                 " matches a double-precision loop");
            }
        }
    }

    static std::string
    cellTag(const QaJob &job, size_t i)
    {
        const Evaluator &ev = *job.evaluators[job.cells[i].pair];
        return ev.modelProfile().name + "/" + ev.datasetProfile().name +
            "/" + job.cells[i].method.name();
    }

    uint64_t seed_;
    size_t cells_ = 0;
};

// ---------------------------------------------------------------
// Command line and main
// ---------------------------------------------------------------

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    int rounds = 0; ///< > 0: exactly this many rounds
    int setups = 3;
    std::string obs_dir;
    std::string digest_out;
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "focusbench: %s\nusage: focusbench --workload "
                 "fleet_replay|box_replay|qa_eval [--seed N] "
                 "[--seconds S] [--rounds N] [--setups N] "
                 "[--obs-dir DIR] [--digest-out FILE]\n",
                 msg);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc) {
            usage(("missing value for " + a).c_str());
        }
        const std::string v = argv[++i];
        if (a == "--workload") {
            o.workload = v;
        } else if (a == "--seed") {
            o.seed = std::strtoull(v.c_str(), nullptr, 10);
        } else if (a == "--seconds") {
            o.seconds = std::atof(v.c_str());
        } else if (a == "--rounds") {
            o.rounds = std::atoi(v.c_str());
        } else if (a == "--setups") {
            o.setups = std::atoi(v.c_str());
        } else if (a == "--obs-dir") {
            o.obs_dir = v;
        } else if (a == "--digest-out") {
            o.digest_out = v;
        } else {
            usage(("unknown argument " + a).c_str());
        }
    }
    if (o.workload != "fleet_replay" && o.workload != "box_replay" &&
        o.workload != "qa_eval") {
        usage("unknown or missing --workload");
    }
    if (o.setups < 1 || o.rounds < 0 || !(o.seconds > 0.0)) {
        usage("--setups must be >= 1, --rounds >= 0, --seconds > 0");
    }
    return o;
}

std::string
jsonNum(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
jsonStr(const std::string &s)
{
    std::string out = "\"";
    for (const char ch : s) {
        if (ch == '"' || ch == '\\') {
            out += '\\';
        }
        out += ch;
    }
    return out + "\"";
}

std::string
jsonList(const std::vector<double> &v)
{
    std::string out = "[";
    for (size_t i = 0; i < v.size(); ++i) {
        out += (i ? ", " : "") + jsonNum(v[i]);
    }
    return out + "]";
}

/** Wall and process usage of one round. */
template <class W, class Round>
double
timedRound(W &w, ThreadPool &pool, int r, Round &out, Usage &used)
{
    // The previous round's simulators and reports go first, so two
    // rounds are never resident at once.
    out = {};
    const Usage u0 = usageNow();
    const auto t0 = Clock::now();
    {
        obs::TraceSpan span("bench.round");
        out = w.round(pool, r);
    }
    const double wall = secondsSince(t0);
    const Usage u1 = usageNow();
    used.user_s = u1.user_s - u0.user_s;
    used.sys_s = u1.sys_s - u0.sys_s;
    used.minor_faults = u1.minor_faults - u0.minor_faults;
    return wall;
}

/**
 * Set-up (repeated), timed and checked rounds (at least minRounds,
 * then until --seconds have passed), verification; with --obs-dir,
 * the obs flush and the overhead pairs.  @p W provides
 * setup/round/check/verify/digest, itemsPerRound and minRounds.
 */
template <class W>
RunResult
runWorkload(W &w, const Options &o, ThreadPool &pool,
            Clock::time_point start)
{
    RunResult res;
    for (int s = 0; s < o.setups; ++s) {
        obs::TraceSpan span("bench.setup");
        const auto t0 = Clock::now();
        w.setup(pool);
        res.setup_s.push_back(secondsSince(t0));
    }
    res.items_per_round = w.itemsPerRound();

    decltype(w.round(pool, 0)) last;
    const auto phase0 = Clock::now();
    for (int r = 0;; ++r) {
        if (o.rounds > 0 ? r >= o.rounds
                         : r >= W::minRounds() &&
                    secondsSince(phase0) >= o.seconds) {
            break;
        }
        Usage used;
        res.round_wall_s.push_back(timedRound(w, pool, r, last, used));
        res.round_user_s.push_back(used.user_s);
        res.round_sys_s.push_back(used.sys_s);
        res.round_cpu_s.push_back(used.user_s + used.sys_s);
        res.round_minor_faults.push_back(
            static_cast<double>(used.minor_faults));
        obs::TraceSpan span("bench.check");
        res.failed_items += w.check(last, res.checks);
    }
    {
        obs::TraceSpan span("bench.verify");
        w.verify(last, res);
    }
    res.digest = w.digest(last);
    if (o.obs_dir.empty()) {
        return res;
    }

    // Tracing overhead: round 0 again, alternately untraced and traced
    // (same inputs, checked like every round), after the traced run's
    // spans and counters are flushed.
    obs::flushObsJson(o.obs_dir);
    const obs::ObsMode mode = obs::activeObsMode();
    double slowest = *std::max_element(res.round_wall_s.begin(),
                                       res.round_wall_s.end());
    for (int k = 0; k < kOverheadPairs; ++k) {
        if (k > 0 && secondsSince(start) + 2.0 * slowest > kTraceBudgetS) {
            break;
        }
        for (const bool traced : {false, true}) {
            obs::setObsMode(traced ? mode : obs::ObsMode::Off);
            Usage used;
            const double wall = timedRound(w, pool, 0, last, used);
            slowest = std::max(slowest, wall);
            res.failed_items += w.check(last, res.checks);
            if (traced) {
                res.pair_on_wall_s.push_back(wall);
            } else {
                res.pair_off_wall_s.push_back(wall);
                res.pair_off_user_s.push_back(used.user_s);
                res.pair_off_sys_s.push_back(used.sys_s);
                res.pair_off_minor_faults.push_back(
                    static_cast<double>(used.minor_faults));
            }
        }
    }
    obs::setObsMode(mode);
    return res;
}

} // namespace

int
main(int argc, char **argv)
{
    const auto start = Clock::now();
    const Options o = parseArgs(argc, argv);
    ThreadPool &pool = ThreadPool::global();

    RunResult res;
    if (o.workload == "fleet_replay") {
        FleetWorkload w(o.seed);
        res = runWorkload(w, o, pool, start);
    } else if (o.workload == "box_replay") {
        BoxWorkload w(o.seed);
        res = runWorkload(w, o, pool, start);
    } else {
        QaWorkload w(o.seed);
        res = runWorkload(w, o, pool, start);
    }
    const Usage end = usageNow();

    if (!o.digest_out.empty()) {
        std::ofstream f(o.digest_out);
        f << res.digest;
        if (!f) {
            std::fprintf(stderr, "focusbench: cannot write %s\n",
                         o.digest_out.c_str());
            return 1;
        }
    }
    std::string failures = "[";
    for (size_t i = 0; i < res.checks.failures().size(); ++i) {
        failures += (i ? ", " : "") + jsonStr(res.checks.failures()[i]);
    }
    failures += "]";
    std::string reference = "{";
    for (size_t i = 0; i < res.reference.size(); ++i) {
        reference += (i ? ", " : "") + jsonStr(res.reference[i].first) +
            ": " + jsonNum(res.reference[i].second);
    }
    reference += "}";
    std::string counts = "{";
    for (size_t i = 0; i < res.layer_counts.size(); ++i) {
        counts += (i ? ", " : "") + jsonStr(res.layer_counts[i].first) +
            ": " + jsonNum(res.layer_counts[i].second);
    }
    counts += "}";

    std::printf(
        "{\"workload\": %s, \"seed\": %" PRIu64 ", \"threads\": %d, "
        "\"correct\": %s, \"checks\": %" PRId64 ", \"failures\": %s, "
        "\"items_per_round\": %" PRId64 ", \"failed_items\": %" PRId64
        ", \"setup_s\": %s, "
        "\"round_wall_s\": %s, \"round_cpu_s\": %s, "
        "\"round_user_s\": %s, \"round_sys_s\": %s, "
        "\"round_minor_faults\": %s, \"peak_rss_mb\": %s, "
        "\"pair_off_wall_s\": %s, \"pair_on_wall_s\": %s, "
        "\"pair_off_user_s\": %s, \"pair_off_sys_s\": %s, "
        "\"pair_off_minor_faults\": %s, "
        "\"layer_counts\": %s, \"reference\": %s}\n",
        jsonStr(o.workload).c_str(), o.seed, pool.threads(),
        res.checks.ok() ? "true" : "false", res.checks.checks(),
        failures.c_str(), res.items_per_round, res.failed_items,
        jsonList(res.setup_s).c_str(), jsonList(res.round_wall_s).c_str(),
        jsonList(res.round_cpu_s).c_str(),
        jsonList(res.round_user_s).c_str(),
        jsonList(res.round_sys_s).c_str(),
        jsonList(res.round_minor_faults).c_str(),
        jsonNum(static_cast<double>(end.maxrss_kb) / 1024.0).c_str(),
        jsonList(res.pair_off_wall_s).c_str(),
        jsonList(res.pair_on_wall_s).c_str(),
        jsonList(res.pair_off_user_s).c_str(),
        jsonList(res.pair_off_sys_s).c_str(),
        jsonList(res.pair_off_minor_faults).c_str(), counts.c_str(),
        reference.c_str());
    return 0;
}
