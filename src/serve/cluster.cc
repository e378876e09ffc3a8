#include "serve/cluster.h"

#include <algorithm>
#include <tuple>
#include <utility>

#include "common/logging.h"
#include "obs/trace_span.h"
#include "runtime/thread_pool.h"

namespace focus
{

namespace
{

/** splitmix64 finalizer: deterministic stateless bit mixing. */
uint64_t
mix64(uint64_t x)
{
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    return x;
}

/** Ring position of (replica, vnode) — a pure function of the pair. */
uint64_t
vnodePosition(int replica, int vnode)
{
    const uint64_t r = static_cast<uint64_t>(replica) *
        0x9e3779b97f4a7c15ull + 1;
    const uint64_t v = static_cast<uint64_t>(vnode) *
        0xd6e8feb86659fd93ull + 0x2545f4914f6cdd1dull;
    return mix64(mix64(r) ^ v);
}

} // namespace

// ---------------------------------------------------------------
// HashRing
// ---------------------------------------------------------------

HashRing::HashRing(int replicas, int vnodes) : vnodes_(vnodes)
{
    if (replicas <= 0) {
        fatal("HashRing: at least one replica required (got %d)",
              replicas);
    }
    if (vnodes <= 0) {
        fatal("HashRing: virtual-node count must be positive (got %d)",
              vnodes);
    }
    members_.reserve(static_cast<size_t>(replicas));
    for (int r = 0; r < replicas; ++r) {
        members_.push_back(r);
    }
    rebuild();
}

void
HashRing::rebuild()
{
    ring_.clear();
    ring_.reserve(members_.size() * static_cast<size_t>(vnodes_));
    for (const int id : members_) {
        for (int v = 0; v < vnodes_; ++v) {
            ring_.emplace_back(vnodePosition(id, v), id);
        }
    }
    // Sorting (position, id) pairs makes placement independent of
    // the order members were added in; a position collision (already
    // astronomically unlikely) resolves by the lower id on both
    // lookup and rebuild.
    std::sort(ring_.begin(), ring_.end());
}

int
HashRing::route(uint64_t key_hash) const
{
    // First vnode at or clockwise after the hash, wrapping to the
    // ring start past the largest position.
    const auto it = std::lower_bound(
        ring_.begin(), ring_.end(),
        std::make_pair(key_hash, 0),
        [](const std::pair<uint64_t, int> &a,
           const std::pair<uint64_t, int> &b) {
            return a.first < b.first;
        });
    return it == ring_.end() ? ring_.front().second : it->second;
}

int
HashRing::route(const std::string &key) const
{
    return route(hashKey(key));
}

int
HashRing::addReplica()
{
    const int id = members_.empty() ? 0 : members_.back() + 1;
    members_.push_back(id);
    rebuild();
    return id;
}

void
HashRing::removeReplica(int replica)
{
    const auto it =
        std::find(members_.begin(), members_.end(), replica);
    if (it == members_.end()) {
        fatal("HashRing: cannot remove unknown replica %d", replica);
    }
    if (members_.size() == 1) {
        fatal("HashRing: cannot remove the last replica (%d)",
              replica);
    }
    members_.erase(it);
    rebuild();
}

uint64_t
HashRing::hashKey(const std::string &key)
{
    // FNV-1a 64-bit, then a splitmix64 finalizer: bare FNV-1a has no
    // final avalanche, so keys differing only in a short suffix
    // ("cls#1", "cls#2", ...) hash into one narrow band of the ring
    // and pile onto the same few vnodes.
    uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : key) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return mix64(h);
}

// ---------------------------------------------------------------
// ClusterSimulator
// ---------------------------------------------------------------

const char *
routingPolicyName(RoutingPolicy p)
{
    switch (p) {
      case RoutingPolicy::HashRing:
        return "hash-ring";
      case RoutingPolicy::RoundRobin:
        return "round-robin";
    }
    return "?";
}

ClusterSimulator::ClusterSimulator(ServingSimulator &base,
                                   const ClusterConfig &cluster)
    : base_(base), cfg_(cluster)
{
    if (cfg_.replicas <= 0) {
        fatal("ClusterSimulator: at least one replica required "
              "(got %d)", cfg_.replicas);
    }
    if (cfg_.vnodes <= 0) {
        fatal("ClusterSimulator: virtual-node count must be positive "
              "(got %d)", cfg_.vnodes);
    }
    if (cfg_.tensor_parallel <= 0) {
        fatal("ClusterSimulator: invalid split factor %d (want a "
              "positive tensor-parallel degree)",
              cfg_.tensor_parallel);
    }
    if (cfg_.data_parallel <= 0) {
        fatal("ClusterSimulator: invalid split factor %d (want a "
              "positive data-parallel degree)", cfg_.data_parallel);
    }
    if (cfg_.shed_backlog_s < 0.0) {
        fatal("ClusterSimulator: negative shed backlog bound (%g s)",
              cfg_.shed_backlog_s);
    }
    if (cfg_.continuous_theta >= 1.0) {
        fatal("ClusterSimulator: continuous-batching theta must be "
              "below 1 (got %g)", cfg_.continuous_theta);
    }
}

namespace
{

/**
 * Continuous-batching knee of one batch: the first layer whose
 * active rows (@p rows, summed over members) have shrunk to
 * @p theta * layer-0 rows.  Returns the knee time — the batch
 * service @p service_s scaled by the critical engine's cycle prefix
 * before the knee — and the tail fraction, the mean active share
 * past the knee (the residual array occupancy the next batch
 * serializes behind).  No knee leaves (service_s, 0).
 */
std::pair<double, double>
batchKnee(const std::vector<int64_t> &rows,
          const std::vector<uint64_t> &layer_cycles, double theta,
          double service_s)
{
    const size_t L = rows.size();
    const double rows0 = L > 0 ? static_cast<double>(rows.front()) : 0.0;
    size_t knee = L;
    for (size_t l = 0; l < L; ++l) {
        if (static_cast<double>(rows[l]) <= theta * rows0) {
            knee = l;
            break;
        }
    }
    if (knee == L || rows0 <= 0.0) {
        return {service_s, 0.0};
    }
    uint64_t prefix = 0, total = 0;
    for (size_t l = 0; l < layer_cycles.size(); ++l) {
        total += layer_cycles[l];
        if (l < knee) {
            prefix += layer_cycles[l];
        }
    }
    if (total == 0) {
        return {service_s, 0.0};
    }
    double frac_sum = 0.0;
    for (size_t l = knee; l < L; ++l) {
        frac_sum +=
            std::min(1.0, static_cast<double>(rows[l]) / rows0);
    }
    return {service_s * (static_cast<double>(prefix) /
                         static_cast<double>(total)),
            frac_sum / static_cast<double>(L - knee)};
}

} // namespace

uint64_t
ClusterSimulator::replayContinuous(
    const BatchScheduler &scheduler,
    const std::vector<ServeRequest> &sub,
    std::vector<RequestOutcome> &outcomes,
    std::vector<BatchRecord> &batches, PrefixCache &cache)
{
    const size_t n = sub.size();
    outcomes.assign(n, RequestOutcome{});
    batches.clear();
    const std::vector<BatchKey> keys = base_.batchKeys(sub);
    std::vector<size_t> req_code(n);
    for (size_t i = 0; i < n; ++i) {
        outcomes[i].arrival_s = sub[i].arrival_s;
        req_code[i] = ServingSimulator::comboCode(
            base_.classCombo(sub[i].class_id), false);
    }

    // Launch the next batch at the previous batch's knee, serializing
    // its residual tail occupancy (which drains linearly between knee
    // and finish) ahead of the new batch's own service.
    uint64_t interconnect_bytes = 0;
    size_t next = 0;
    std::vector<size_t> pending;
    double release_t = 0.0;
    double knee_abs = 0.0, finish_abs = 0.0, tail_work = 0.0;
    while (next < n || !pending.empty()) {
        double t = release_t;
        if (pending.empty()) {
            t = std::max(t, sub[next].arrival_s);
        }
        while (next < n && sub[next].arrival_s <= t) {
            pending.push_back(next++);
        }
        obs::TraceSpan step_span("cluster.continuous.step");
        const std::vector<size_t> picked =
            scheduler.pickPending(pending, keys);
        base_.resolvePrefixes(cache, sub, picked, outcomes, req_code);
        std::vector<size_t> comp;
        comp.reserve(picked.size());
        std::vector<int64_t> rows;
        for (const size_t i : picked) {
            comp.push_back(req_code[i]);
            // Per-layer active rows of the batch, summed over members
            // exactly as fuseTraces sums them.
            const WorkloadTrace &tr = base_.codeTrace(req_code[i]);
            rows.resize(tr.layers.size(), 0);
            for (size_t l = 0; l < tr.layers.size(); ++l) {
                rows[l] += tr.layers[l].rowsIn();
            }
        }
        const CompositionCost &cost = base_.costComposition(
            comp, cfg_.tensor_parallel, cfg_.data_parallel);
        const double own_s = cost.metrics.seconds();
        const std::pair<double, double> knee =
            batchKnee(rows, cost.metrics.layer_cycles,
                      cfg_.continuous_theta, own_s);

        double carry = 0.0;
        if (finish_abs > knee_abs && t < finish_abs) {
            carry = tail_work * (finish_abs - t) /
                (finish_abs - knee_abs);
        }
        const double start = t;
        const double service = carry + own_s;
        ServingSimulator::recordBatch(sub, outcomes, batches, picked, t,
                                      start, service, cost.metrics);
        interconnect_bytes += cost.interconnect_bytes;

        release_t = start + carry + knee.first;
        knee_abs = release_t;
        finish_abs = start + service;
        tail_work = (own_s - knee.first) * knee.second;

        for (const size_t i : picked) {
            pending.erase(
                std::find(pending.begin(), pending.end(), i));
        }
    }
    return interconnect_bytes;
}

ClusterReport
ClusterSimulator::run(const SchedulerConfig &sched, ThreadPool *pool)
{
    const QueueConfig &queue = base_.queueConfig();
    if (queue.process != ArrivalProcess::OpenPoisson) {
        fatal("ClusterSimulator: cluster replay models the open-loop "
              "overload regime; closed-loop populations self-limit "
              "and stay a single-box (ServingSimulator) question");
    }
    base_.calibrate(pool);
    const bool caching = cfg_.prefix_cache.enabled();
    if (caching) {
        base_.ensureHitTraces(pool);
    }
    const BatchScheduler scheduler(sched);
    const std::vector<ServeRequest> stream =
        RequestQueue(queue).generate();
    const size_t n = stream.size();
    const int R = cfg_.replicas;

    // ---- route ----
    std::vector<int> replica_of(n);
    {
        obs::TraceSpan route_span("cluster.route");
        if (cfg_.routing == RoutingPolicy::RoundRobin) {
            for (size_t i = 0; i < n; ++i) {
                replica_of[i] = static_cast<int>(
                    stream[i].id % static_cast<int64_t>(R));
            }
        } else {
            const HashRing ring(R, cfg_.vnodes);
            for (size_t i = 0; i < n; ++i) {
                const RequestClass &cls =
                    queue.mix[static_cast<size_t>(stream[i].class_id)];
                // One key definition serves both tiers: the ring
                // routes on it and every replica's prefix cache
                // stores under it, so hash affinity concentrates a
                // prefix's repeats onto the replica holding its slab.
                replica_of[i] = ring.route(prefixKey(stream[i], cls));
            }
        }
    }

    // ---- admission / shedding ----
    // Leaky-bucket backlog per replica: drains in real time, fills
    // by the admitted request's estimated (sharded) solo service.
    std::vector<double> est;
    if (cfg_.shed_backlog_s > 0.0) {
        est.reserve(queue.mix.size());
        for (size_t cls = 0; cls < queue.mix.size(); ++cls) {
            const size_t code = ServingSimulator::comboCode(
                base_.classCombo(static_cast<int>(cls)), false);
            est.push_back(base_.costComposition({code},
                                                cfg_.tensor_parallel,
                                                cfg_.data_parallel)
                              .metrics.seconds());
        }
    }
    std::vector<std::vector<size_t>> admitted(
        static_cast<size_t>(R));
    std::vector<int> shed_count(static_cast<size_t>(R), 0);
    std::vector<char> is_shed(n, 0);
    std::vector<double> backlog(static_cast<size_t>(R), 0.0);
    std::vector<double> last_seen(static_cast<size_t>(R), 0.0);
    for (size_t i = 0; i < n; ++i) {
        const size_t r = static_cast<size_t>(replica_of[i]);
        if (cfg_.shed_backlog_s > 0.0) {
            const double t = stream[i].arrival_s;
            backlog[r] =
                std::max(0.0, backlog[r] - (t - last_seen[r]));
            last_seen[r] = t;
            if (backlog[r] > cfg_.shed_backlog_s) {
                is_shed[i] = 1;
                shed_count[r] += 1;
                continue;
            }
            backlog[r] +=
                est[static_cast<size_t>(stream[i].class_id)];
        }
        admitted[r].push_back(i);
    }

    // ---- per-replica replay ----
    std::vector<RequestOutcome> outcomes(n);
    std::vector<std::vector<BatchRecord>> rep_batches(
        static_cast<size_t>(R));
    ClusterReport rep;
    rep.replicas.resize(static_cast<size_t>(R));
    for (int r = 0; r < R; ++r) {
        const size_t ri = static_cast<size_t>(r);
        ReplicaStats &rs = rep.replicas[ri];
        rs.replica = r;
        rs.routed = static_cast<int>(admitted[ri].size()) +
            shed_count[ri];
        rs.shed = shed_count[ri];

        std::vector<ServeRequest> sub;
        sub.reserve(admitted[ri].size());
        for (const size_t i : admitted[ri]) {
            sub.push_back(stream[i]);
        }
        // Routing and shedding are deterministic functions of the
        // stream (hash ring / round robin + leaky bucket), so the
        // per-replica split is a work total, not a sched artifact.
        if (obs::countersEnabled()) {
            obs::MetricsRegistry &reg =
                obs::MetricsRegistry::instance();
            const std::string base =
                "cluster.replica." + std::to_string(r);
            reg.counter(base + ".routed")
                .add(static_cast<uint64_t>(rs.routed));
            reg.counter(base + ".shed")
                .add(static_cast<uint64_t>(rs.shed));
        }
        obs::TraceSpan replay_span("cluster.replica.replay");
        // One independent cache per replica: affinity (or its
        // absence) shows up directly in each replica's hit rate.
        PrefixCache cache(cfg_.prefix_cache);
        std::vector<RequestOutcome> sub_out;
        std::vector<BatchRecord> sub_batches;
        if (!sub.empty()) {
            rs.interconnect_bytes = cfg_.continuous_theta > 0.0
                ? replayContinuous(scheduler, sub, sub_out,
                                   sub_batches, cache)
                : base_.replayOpenLoop(scheduler, sub, pool,
                                       cfg_.tensor_parallel,
                                       cfg_.data_parallel, sub_out,
                                       sub_batches, cache);
        }
        const PrefixCacheStats cs = cache.stats();
        rs.prefix_hits = cs.hits;
        rs.prefix_misses = cs.misses;
        rep.prefix_cache.lookups += cs.lookups;
        rep.prefix_cache.hits += cs.hits;
        rep.prefix_cache.misses += cs.misses;
        rep.prefix_cache.admissions += cs.admissions;
        rep.prefix_cache.evictions += cs.evictions;
        rep.prefix_cache.rejected += cs.rejected;
        rep.prefix_cache.bytes_resident += cs.bytes_resident;
        rep.prefix_cache.bytes_peak += cs.bytes_peak;
        rep.prefix_cache.full_bytes_resident +=
            cs.full_bytes_resident;
        rep.prefix_cache.err_sum += cs.err_sum;
        rep.prefix_cache.err_slabs += cs.err_slabs;
        for (BatchRecord &b : sub_batches) {
            b.replica = r;
            rs.busy_s += b.service_s;
            rs.makespan_s = std::max(rs.makespan_s,
                                     b.start_s + b.service_s);
        }
        rs.batches = static_cast<int>(sub_batches.size());
        for (size_t j = 0; j < admitted[ri].size(); ++j) {
            outcomes[admitted[ri][j]] = sub_out[j];
        }
        rep_batches[ri] = std::move(sub_batches);
    }

    // Shed requests never execute: they carry their arrival time and
    // count as SLO misses in the merged report.
    for (size_t i = 0; i < n; ++i) {
        if (!is_shed[i]) {
            continue;
        }
        RequestOutcome &o = outcomes[i];
        o.id = stream[i].id;
        o.class_id = stream[i].class_id;
        o.batch_id = -1;
        o.batch_size = 0;
        o.arrival_s = stream[i].arrival_s;
        o.start_s = stream[i].arrival_s;
        o.finish_s = stream[i].arrival_s;
        o.shed = true;
    }

    // ---- merge batches into one fleet-order timeline ----
    std::vector<std::tuple<double, double, int64_t, int, size_t>>
        order;
    for (int r = 0; r < R; ++r) {
        const size_t ri = static_cast<size_t>(r);
        for (size_t b = 0; b < rep_batches[ri].size(); ++b) {
            const BatchRecord &rec = rep_batches[ri][b];
            order.emplace_back(rec.start_s, rec.ready_s,
                               rec.request_ids.front(), r, b);
        }
    }
    std::sort(order.begin(), order.end());
    std::vector<std::vector<int>> remap(static_cast<size_t>(R));
    for (int r = 0; r < R; ++r) {
        remap[static_cast<size_t>(r)].resize(
            rep_batches[static_cast<size_t>(r)].size(), -1);
    }
    std::vector<BatchRecord> merged;
    merged.reserve(order.size());
    for (const auto &o : order) {
        const size_t r = static_cast<size_t>(std::get<3>(o));
        const size_t b = std::get<4>(o);
        remap[r][b] = static_cast<int>(merged.size());
        merged.push_back(std::move(rep_batches[r][b]));
    }
    for (size_t i = 0; i < n; ++i) {
        if (is_shed[i] || outcomes[i].batch_id < 0) {
            continue;
        }
        outcomes[i].batch_id =
            remap[static_cast<size_t>(replica_of[i])]
                 [static_cast<size_t>(outcomes[i].batch_id)];
    }

    rep.merged = base_.assemble(sched, stream, std::move(outcomes),
                                std::move(merged));
    // Mirror the fleet aggregate into the merged report so a cluster
    // of one replica reproduces ServingSimulator::run field for
    // field (assemble itself leaves the field zeroed).
    rep.merged.prefix_cache = rep.prefix_cache;

    // ---- fleet stats ----
    int max_routed = 0;
    for (const ReplicaStats &rs : rep.replicas) {
        rep.shed += rs.shed;
        rep.interconnect_bytes += rs.interconnect_bytes;
        max_routed = std::max(max_routed, rs.routed);
    }
    rep.admitted = static_cast<int>(n) - rep.shed;
    rep.shed_rate = n > 0
        ? static_cast<double>(rep.shed) / static_cast<double>(n)
        : 0.0;
    const double mean_routed =
        static_cast<double>(n) / static_cast<double>(R);
    rep.load_imbalance = mean_routed > 0.0
        ? static_cast<double>(max_routed) / mean_routed : 0.0;
    return rep;
}

} // namespace focus
