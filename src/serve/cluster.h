/**
 * @file
 * Cluster-scale serving: N simulated accelerator replicas over one
 * ServingSimulator calibration.
 *
 * The cluster layer turns the single-box serving simulator into a
 * fleet model:
 *
 *  - *Routing*: requests land on replicas via consistent hashing on a
 *    virtual-node ring keyed by prefixKey (request class + prefix
 *    identity — the key every replica's prefix cache stores under)
 *    (HashRing), so same-prefix traffic keeps replica affinity and
 *    adding a replica moves only ~K/N keys.  A round-robin policy is
 *    kept as the balance reference.
 *  - *Parallel splits*: each replica may itself be a tensor-parallel
 *    group (sim/trace.h splitTensorParallel — per-shard cycle/DRAM
 *    accounting plus the ring-collective interconnect term in
 *    sim/accel_model.cc) and/or a data-parallel engine group
 *    (splitDataParallel); batch service time is the slowest shard's.
 *  - *Continuous batching*: SEC shrinks the active set layer by
 *    layer, so a batch's concentrated tail frees most of the array at
 *    its "knee"; with continuous_theta > 0 the next batch launches at
 *    the knee and pays only the residual tail occupancy, re-forming
 *    batch membership from whatever is pending at that instant.
 *  - *Overload shedding*: a per-replica leaky-bucket backlog estimate
 *    (drains in real time, fills by the admitted request's estimated
 *    solo service) rejects arrivals once the backlog exceeds
 *    shed_backlog_s — the open-loop overload-regime admission policy.
 *
 * Every replica with serial batch boundaries — split or unsplit —
 * replays through ServingSimulator::replayOpenLoop and costs through
 * the base simulator's one composition cache; only continuous
 * batching has its own (serial) event loop.  Bit-identity contract:
 * a cluster of one replica with default knobs (tp = dp = 1, no
 * shedding, serial batching) therefore replays the exact code path
 * of ServingSimulator::run — same replay, same composition cache,
 * same report assembly — so every reported metric matches bit for
 * bit (tests/test_cluster.cc).
 */

#ifndef FOCUS_SERVE_CLUSTER_H
#define FOCUS_SERVE_CLUSTER_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "serve/serving_sim.h"

namespace focus
{

/**
 * Consistent-hash ring with virtual nodes.
 *
 * Each member replica owns `vnodes` pseudo-random positions on a
 * 64-bit ring (a splitmix64-style mix of the replica id and vnode
 * index — no RNG state, so placement is a pure function of the
 * member set, independent of insertion order).  A key routes to the
 * owner of the first vnode at or clockwise after its hash.
 */
class HashRing
{
  public:
    /** Ring over replica ids 0..replicas-1 (fatal when empty). */
    explicit HashRing(int replicas, int vnodes = kDefaultVnodes);

    int replicas() const { return static_cast<int>(members_.size()); }
    const std::vector<int> &members() const { return members_; }

    /** Owning replica id of a 64-bit key hash. */
    int route(uint64_t key_hash) const;
    /** Owning replica id of a string key (FNV-1a hashed). */
    int route(const std::string &key) const;

    /** Add a replica under the next unused id; returns it. */
    int addReplica();
    /** Remove a member (fatal on unknown id or emptying the ring). */
    void removeReplica(int replica);

    /**
     * FNV-1a 64-bit hash of @p key with a splitmix64 finalizer (the
     * avalanche keeps near-identical keys from clustering on the
     * ring).
     */
    static uint64_t hashKey(const std::string &key);

    static constexpr int kDefaultVnodes = 64;

  private:
    void rebuild();

    int vnodes_;
    std::vector<int> members_; ///< ascending replica ids
    /** (ring position, replica id), sorted ascending. */
    std::vector<std::pair<uint64_t, int>> ring_;
};

/** How the cluster assigns requests to replicas. */
enum class RoutingPolicy
{
    HashRing,   ///< consistent hash on class + prefix identity
    RoundRobin, ///< stream position modulo replica count
};

const char *routingPolicyName(RoutingPolicy p);

/** Cluster topology and policy knobs. */
struct ClusterConfig
{
    int replicas = 1;
    RoutingPolicy routing = RoutingPolicy::HashRing;
    int vnodes = HashRing::kDefaultVnodes;

    /** Tensor-parallel shards per replica (1 = whole engine). */
    int tensor_parallel = 1;
    /**
     * Data-parallel engine groups per replica; a batch's requests
     * round-robin across groups (capped at the batch size, so a
     * group never goes empty).
     */
    int data_parallel = 1;

    /**
     * Admission bound: shed an arrival when its replica's estimated
     * backlog exceeds this many seconds of work (<= 0 admits
     * everything).
     */
    double shed_backlog_s = 0.0;

    /**
     * Continuous-batching knee: the next batch launches at the layer
     * where the active set has shrunk to theta * its layer-0 rows
     * (<= 0 keeps serial batch boundaries; must be < 1).
     */
    double continuous_theta = 0.0;

    /**
     * Per-replica prefix-cache sizing (serve/prefix_cache.h); the
     * default zero budget disables caching.  Each replica owns an
     * independent cache, which is exactly what makes routing policy
     * matter: hash-affinity routing concentrates a prefix's repeats
     * onto one replica's cache, while round-robin scatters them
     * across all caches and forfeits most hits.
     */
    PrefixCacheConfig prefix_cache;
};

/** Per-replica execution summary. */
struct ReplicaStats
{
    int replica = 0;
    int routed = 0;  ///< requests the router sent here
    int shed = 0;    ///< rejected at admission
    int batches = 0;
    double busy_s = 0.0;     ///< sum of batch service times
    double makespan_s = 0.0; ///< last finish on this replica
    uint64_t interconnect_bytes = 0;
    /** This replica's prefix-cache activity (zero when disabled). */
    int64_t prefix_hits = 0;
    int64_t prefix_misses = 0;
};

/** Cluster replay result. */
struct ClusterReport
{
    /** Fleet-level report over the full stream (shed-aware). */
    ServingReport merged;
    std::vector<ReplicaStats> replicas;

    int admitted = 0;
    int shed = 0;
    double shed_rate = 0.0;
    /** Max over replicas of routed count / mean routed count. */
    double load_imbalance = 0.0;
    uint64_t interconnect_bytes = 0;
    /**
     * Fleet-aggregate prefix-cache activity (summed over the
     * replicas' independent caches; also mirrored into
     * merged.prefix_cache so a cluster of one replica reproduces the
     * single-box report field for field).
     */
    PrefixCacheStats prefix_cache;
};

/**
 * Fleet replay over a shared ServingSimulator.
 *
 * Non-owning: the base simulator provides calibration, the
 * composition cost cache, the open-loop replay and the report
 * assembly, so sweeping replica counts and splits reuses all
 * functional and simulation work.  Open-loop streams only — overload is an
 * open-loop phenomenon; closed-loop populations self-limit and stay
 * a single-box question (fatal otherwise).
 */
class ClusterSimulator
{
  public:
    ClusterSimulator(ServingSimulator &base,
                     const ClusterConfig &cluster);

    ClusterReport run(const SchedulerConfig &sched,
                      ThreadPool *pool = nullptr);

    const ClusterConfig &clusterConfig() const { return cfg_; }

  private:
    /**
     * Continuous-batching replica replay (continuous_theta > 0):
     * each batch re-forms from whatever is pending when the previous
     * batch reaches its SEC knee; prefix keys resolve at pick time.
     * Outcomes are positional in @p sub.  Returns the replay's
     * interconnect bytes.
     */
    uint64_t replayContinuous(const BatchScheduler &scheduler,
                              const std::vector<ServeRequest> &sub,
                              std::vector<RequestOutcome> &outcomes,
                              std::vector<BatchRecord> &batches,
                              PrefixCache &cache);

    ServingSimulator &base_;
    ClusterConfig cfg_;
};

} // namespace focus

#endif // FOCUS_SERVE_CLUSTER_H
