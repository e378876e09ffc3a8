/**
 * @file
 * Observability subsystem tests: metrics-registry determinism across
 * thread counts, histogram bucket-boundary invariants, trace JSON
 * well-formedness, off-mode bypass, the FOCUS_OBS / FOCUS_LOG env
 * dispatch contracts, and the ring-buffer memory bound.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "eval/evaluator.h"
#include "eval/func_cache.h"
#include "obs/metrics.h"
#include "obs/trace_span.h"
#include "runtime/thread_pool.h"
#include "vlm/method.h"

namespace focus
{
namespace
{

using obs::MetricsRegistry;
using obs::ObsMode;

/** Save/restore the obs mode and zero the registry around a test. */
class ObsGuard
{
  public:
    explicit ObsGuard(ObsMode mode) : saved_(obs::activeObsMode())
    {
        obs::setObsMode(mode);
        MetricsRegistry::instance().resetAll();
        obs::clearTrace();
    }
    ~ObsGuard()
    {
        MetricsRegistry::instance().resetAll();
        obs::clearTrace();
        obs::setObsMode(saved_);
    }

    ObsGuard(const ObsGuard &) = delete;
    ObsGuard &operator=(const ObsGuard &) = delete;

  private:
    ObsMode saved_;
};

// ---- minimal JSON validator (structure only, no value model) ----

bool parseValue(const char *&p, const char *end);

void
skipWs(const char *&p, const char *end)
{
    while (p < end && (*p == ' ' || *p == '\t' || *p == '\n' ||
                       *p == '\r')) {
        ++p;
    }
}

bool
parseString(const char *&p, const char *end)
{
    if (p >= end || *p != '"') {
        return false;
    }
    ++p;
    while (p < end && *p != '"') {
        if (*p == '\\') {
            ++p;
            if (p >= end) {
                return false;
            }
        }
        ++p;
    }
    if (p >= end) {
        return false;
    }
    ++p; // closing quote
    return true;
}

bool
parseNumber(const char *&p, const char *end)
{
    const char *start = p;
    if (p < end && *p == '-') {
        ++p;
    }
    while (p < end &&
           ((*p >= '0' && *p <= '9') || *p == '.' || *p == 'e' ||
            *p == 'E' || *p == '+' || *p == '-')) {
        ++p;
    }
    return p > start;
}

bool
parseObject(const char *&p, const char *end)
{
    ++p; // '{'
    skipWs(p, end);
    if (p < end && *p == '}') {
        ++p;
        return true;
    }
    for (;;) {
        skipWs(p, end);
        if (!parseString(p, end)) {
            return false;
        }
        skipWs(p, end);
        if (p >= end || *p != ':') {
            return false;
        }
        ++p;
        if (!parseValue(p, end)) {
            return false;
        }
        skipWs(p, end);
        if (p < end && *p == ',') {
            ++p;
            continue;
        }
        break;
    }
    if (p >= end || *p != '}') {
        return false;
    }
    ++p;
    return true;
}

bool
parseArray(const char *&p, const char *end)
{
    ++p; // '['
    skipWs(p, end);
    if (p < end && *p == ']') {
        ++p;
        return true;
    }
    for (;;) {
        if (!parseValue(p, end)) {
            return false;
        }
        skipWs(p, end);
        if (p < end && *p == ',') {
            ++p;
            continue;
        }
        break;
    }
    if (p >= end || *p != ']') {
        return false;
    }
    ++p;
    return true;
}

bool
parseValue(const char *&p, const char *end)
{
    skipWs(p, end);
    if (p >= end) {
        return false;
    }
    if (*p == '{') {
        return parseObject(p, end);
    }
    if (*p == '[') {
        return parseArray(p, end);
    }
    if (*p == '"') {
        return parseString(p, end);
    }
    return parseNumber(p, end);
}

bool
isValidJson(const std::string &doc)
{
    const char *p = doc.data();
    const char *end = doc.data() + doc.size();
    if (!parseValue(p, end)) {
        return false;
    }
    skipWs(p, end);
    return p == end;
}

EvalOptions
quick(int samples = 2)
{
    EvalOptions o;
    o.samples = samples;
    o.seed = 99;
    return o;
}

// ---- registry basics ----

TEST(Obs, CounterGaugeBasics)
{
    ObsGuard guard(ObsMode::Counters);
    MetricsRegistry &reg = MetricsRegistry::instance();
    obs::Counter &c = reg.counter("test.basic.counter");
    EXPECT_EQ(c.value(), 0u);
    c.add();
    c.add(41);
    EXPECT_EQ(c.value(), 42u);
    EXPECT_EQ(&reg.counter("test.basic.counter"), &c);

    obs::Gauge &g = reg.gauge("test.basic.gauge");
    g.set(-7);
    g.add(10);
    EXPECT_EQ(g.value(), 3);

    reg.resetAll();
    EXPECT_EQ(c.value(), 0u);
    EXPECT_EQ(g.value(), 0);
}

TEST(Obs, CounterKindMismatchDies)
{
    ObsGuard guard(ObsMode::Counters);
    MetricsRegistry &reg = MetricsRegistry::instance();
    reg.counter("test.kind.work");
    reg.schedCounter("test.kind.sched");
    EXPECT_DEATH(reg.schedCounter("test.kind.work"),
                 "registered as a work counter");
    EXPECT_DEATH(reg.counter("test.kind.sched"),
                 "registered as a sched counter");
}

TEST(Obs, HistogramBucketBoundaries)
{
    ObsGuard guard(ObsMode::Counters);
    obs::Histogram &h = MetricsRegistry::instance().histogram(
        "test.hist.boundaries", {1.0, 2.0, 4.0});
    ASSERT_EQ(h.buckets(), 4u); // three bounds + overflow

    // Bounds are inclusive upper bounds: a value exactly on a bound
    // lands in that bound's bucket, epsilon above lands in the next.
    for (const double v : {0.5, 1.0}) {
        h.observe(v);
    }
    for (const double v : {1.0000001, 2.0}) {
        h.observe(v);
    }
    for (const double v : {3.0, 4.0}) {
        h.observe(v);
    }
    h.observe(4.0000001); // overflow

    EXPECT_EQ(h.bucketCount(0), 2u);
    EXPECT_EQ(h.bucketCount(1), 2u);
    EXPECT_EQ(h.bucketCount(2), 2u);
    EXPECT_EQ(h.bucketCount(3), 1u);
    EXPECT_EQ(h.count(), 7u);

    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.bucketCount(0), 0u);
}

TEST(Obs, HistogramContractViolationsDie)
{
    ObsGuard guard(ObsMode::Counters);
    MetricsRegistry &reg = MetricsRegistry::instance();
    reg.histogram("test.hist.fixed", {1.0, 2.0});
    EXPECT_DEATH(reg.histogram("test.hist.fixed", {1.0, 3.0}),
                 "different");
    EXPECT_DEATH(reg.histogram("test.hist.bad", {2.0, 1.0}),
                 "ascending");
    EXPECT_DEATH(
        reg.histogram("test.hist.empty", std::vector<double>{}),
        "at least one");
}

// Atomic counter totals commute: hammering one counter from many
// threads gives the same total as the serial loop.
TEST(Obs, CounterTotalsThreadInvariant)
{
    ObsGuard guard(ObsMode::Counters);
    obs::Counter &c =
        MetricsRegistry::instance().counter("test.invariant.adds");
    obs::Histogram &h = MetricsRegistry::instance().histogram(
        "test.invariant.hist", {10.0, 100.0, 1000.0});

    std::vector<uint64_t> totals;
    for (const int threads : {1, 4}) {
        MetricsRegistry::instance().resetAll();
        ThreadPool pool(threads);
        pool.parallelFor(2000, [&](int64_t i) {
            c.add(static_cast<uint64_t>(i % 7));
            h.observe(static_cast<double>(i));
        });
        totals.push_back(c.value());
        EXPECT_EQ(h.count(), 2000u);
        EXPECT_EQ(h.bucketCount(0), 11u);   // 0..10
        EXPECT_EQ(h.bucketCount(1), 90u);   // 11..100
        EXPECT_EQ(h.bucketCount(2), 900u);  // 101..1000
        EXPECT_EQ(h.bucketCount(3), 999u);  // 1001..1999
    }
    EXPECT_EQ(totals[0], totals[1]);
}

// The real instrumented pipeline: a functional evaluation's *work*
// counters (kernel MACs, softmax rows, gather dots) are bit-identical
// at 1 and 4 threads.  Sched counters are exempt by design.
TEST(Obs, WorkCountersDeterministicAcrossThreadCounts)
{
    ObsGuard guard(ObsMode::Counters);

    const Evaluator ev("Llava-OV", "MLVU", quick());
    const MethodConfig method = MethodConfig::focusFull();

    std::vector<std::vector<std::pair<std::string, uint64_t>>> runs;
    for (const int threads : {1, 4}) {
        MetricsRegistry::instance().resetAll();
        FunctionalCache::instance().clear(); // force recompute per run
        ThreadPool pool(threads);
        ev.runFunctional(method, &pool);
        runs.push_back(MetricsRegistry::instance().counterValues(
            obs::CounterKind::Work));
    }
    FunctionalCache::instance().clear();

    ASSERT_FALSE(runs[0].empty());
    ASSERT_EQ(runs[0].size(), runs[1].size());
    for (size_t i = 0; i < runs[0].size(); ++i) {
        EXPECT_EQ(runs[0][i].first, runs[1][i].first);
        EXPECT_EQ(runs[0][i].second, runs[1][i].second)
            << "work counter '" << runs[0][i].first
            << "' drifted across thread counts";
    }
}

TEST(Obs, FuncCacheCountersStreamIntoRegistry)
{
    ObsGuard guard(ObsMode::Counters);
    FunctionalCache::instance().clear();

    const Evaluator ev("Llava-OV", "MLVU", quick());
    ThreadPool pool(2);
    ev.runFunctional(MethodConfig::dense(), &pool);
    ev.runFunctional(MethodConfig::dense(), &pool);

    MetricsRegistry &reg = MetricsRegistry::instance();
    EXPECT_GE(reg.counter("func_cache.misses").value(), 1u);
    EXPECT_GE(reg.counter("func_cache.hits").value(), 1u);

    FunctionalCache::instance().clear();
}

// ---- off-mode bypass ----

TEST(Obs, OffModeRecordsNothing)
{
    ObsGuard guard(ObsMode::Off);
    EXPECT_FALSE(obs::countersEnabled());
    EXPECT_FALSE(obs::traceEnabled());

    const size_t before = obs::traceEventCount();
    {
        obs::TraceSpan span("test.off.span");
    }
    EXPECT_EQ(obs::traceEventCount(), before);

    // Instrumented layers skip the registry entirely: a functional
    // run must not bump any counter.
    const Evaluator ev("Llava-OV", "MLVU", quick());
    ThreadPool pool(2);
    ev.runFunctional(MethodConfig::dense(), &pool);
    for (const auto &kv : MetricsRegistry::instance().counterValues(
             obs::CounterKind::Work)) {
        EXPECT_EQ(kv.second, 0u) << kv.first;
    }
}

TEST(Obs, CountersModeDisablesSpans)
{
    ObsGuard guard(ObsMode::Counters);
    EXPECT_TRUE(obs::countersEnabled());
    EXPECT_FALSE(obs::traceEnabled());
    const size_t before = obs::traceEventCount();
    {
        obs::TraceSpan span("test.counters.span");
    }
    EXPECT_EQ(obs::traceEventCount(), before);
}

// ---- trace spans ----

TEST(Obs, TraceSpansRecordAndExport)
{
    ObsGuard guard(ObsMode::Trace);
    {
        obs::TraceSpan outer("test.trace.outer");
        obs::TraceSpan inner("test.trace.inner");
    }
    ThreadPool pool(3);
    pool.parallelFor(8, [](int64_t) {
        obs::TraceSpan span("test.trace.task");
    });
    EXPECT_GE(obs::traceEventCount(), size_t{10});

    const std::string doc = obs::traceJson();
    EXPECT_TRUE(isValidJson(doc)) << doc.substr(0, 400);
    EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(doc.find("\"displayTimeUnit\""), std::string::npos);
    EXPECT_NE(doc.find("\"test.trace.outer\""), std::string::npos);
    EXPECT_NE(doc.find("\"test.trace.task\""), std::string::npos);
    EXPECT_NE(doc.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(doc.find("\"ph\": \"M\""), std::string::npos);
    EXPECT_NE(doc.find("\"dur\""), std::string::npos);
    EXPECT_NE(doc.find("\"tid\""), std::string::npos);
}

TEST(Obs, TraceRingStaysBounded)
{
    ObsGuard guard(ObsMode::Trace);
    const uint64_t dropped_before = obs::traceDroppedCount();
    const size_t n = obs::kTraceRingCapacity + 500;
    for (size_t i = 0; i < n; ++i) {
        obs::TraceSpan span("test.ring.spin");
    }
    // This thread's ring holds at most its capacity; the overflow is
    // accounted as drops, not memory.
    EXPECT_LE(obs::traceEventCount(),
              obs::kTraceRingCapacity * 4); // a few rings may exist
    EXPECT_GE(obs::traceDroppedCount() - dropped_before,
              uint64_t{500});
    EXPECT_GE(
        MetricsRegistry::instance()
            .schedCounter("obs.trace.dropped")
            .value(),
        uint64_t{500});
}

// ---- JSON export + flush ----

TEST(Obs, MetricsJsonWellFormed)
{
    ObsGuard guard(ObsMode::Counters);
    MetricsRegistry &reg = MetricsRegistry::instance();
    reg.counter("test.json.work").add(3);
    reg.schedCounter("test.json.sched").add(1);
    reg.gauge("test.json.gauge").set(-5);
    reg.histogram("test.json.hist", {1.0, 10.0}).observe(2.0);

    const std::string doc = reg.toJson();
    EXPECT_TRUE(isValidJson(doc)) << doc;
    EXPECT_NE(doc.find("\"schema\": \"focus-metrics-v1\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"mode\": \"counters\""), std::string::npos);
    EXPECT_NE(doc.find("\"test.json.work\": 3"), std::string::npos);
    EXPECT_NE(doc.find("\"test.json.sched\": 1"), std::string::npos);
    EXPECT_NE(doc.find("\"test.json.gauge\": -5"), std::string::npos);
    EXPECT_NE(doc.find("\"counts\": [0, 1, 0]"), std::string::npos);
    // Work and sched counters live in separate sections: the sched
    // name must appear after the "sched_counters" key.
    EXPECT_GT(doc.find("\"test.json.sched\""),
              doc.find("\"sched_counters\""));
}

TEST(Obs, FlushWritesBothFiles)
{
    ObsGuard guard(ObsMode::Trace);
    MetricsRegistry::instance().counter("test.flush.counter").add(1);
    {
        obs::TraceSpan span("test.flush.span");
    }

    char tmpl[] = "/tmp/focus_obs_XXXXXX";
    ASSERT_NE(mkdtemp(tmpl), nullptr);
    const std::string dir(tmpl);
    obs::flushObsJson(dir);

    for (const char *name : {"/metrics.json", "/trace.json"}) {
        const std::string path = dir + name;
        FILE *f = std::fopen(path.c_str(), "r");
        ASSERT_NE(f, nullptr) << path;
        std::string body;
        char buf[4096];
        size_t got;
        while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) {
            body.append(buf, got);
        }
        std::fclose(f);
        EXPECT_TRUE(isValidJson(body)) << path;
        std::remove(path.c_str());
    }
    rmdir(dir.c_str());
}

// ---- env dispatch contracts ----

TEST(Obs, ModeNamesRoundTrip)
{
    for (const ObsMode m :
         {ObsMode::Off, ObsMode::Counters, ObsMode::Trace}) {
        ObsMode parsed = ObsMode::Off;
        ASSERT_TRUE(obs::parseObsMode(obs::obsModeName(m), parsed));
        EXPECT_EQ(parsed, m);
    }
    ObsMode parsed = ObsMode::Off;
    EXPECT_FALSE(obs::parseObsMode("bogus", parsed));
    EXPECT_FALSE(obs::parseObsMode(nullptr, parsed));
}

TEST(Obs, EnvDispatchContract)
{
    ASSERT_EQ(unsetenv("FOCUS_OBS"), 0);
    EXPECT_EQ(obs::obsModeFromEnv(), ObsMode::Off);
    ASSERT_EQ(setenv("FOCUS_OBS", "", 1), 0);
    EXPECT_EQ(obs::obsModeFromEnv(), ObsMode::Off);
    ASSERT_EQ(setenv("FOCUS_OBS", "counters", 1), 0);
    EXPECT_EQ(obs::obsModeFromEnv(), ObsMode::Counters);
    ASSERT_EQ(setenv("FOCUS_OBS", "trace", 1), 0);
    EXPECT_EQ(obs::obsModeFromEnv(), ObsMode::Trace);
    ASSERT_EQ(setenv("FOCUS_OBS", "verbose", 1), 0);
    EXPECT_DEATH(obs::obsModeFromEnv(), "FOCUS_OBS.*off|counters");
    ASSERT_EQ(unsetenv("FOCUS_OBS"), 0);
}

TEST(Obs, LogLevelDispatchContract)
{
    const LogLevel saved = activeLogLevel();

    EXPECT_STREQ(logLevelName(LogLevel::Quiet), "quiet");
    EXPECT_STREQ(logLevelName(LogLevel::Warn), "warn");
    EXPECT_STREQ(logLevelName(LogLevel::Info), "info");

    setLogLevel(LogLevel::Quiet);
    EXPECT_EQ(activeLogLevel(), LogLevel::Quiet);
    setLogLevel(LogLevel::Warn);
    EXPECT_EQ(activeLogLevel(), LogLevel::Warn);

    ASSERT_EQ(unsetenv("FOCUS_LOG"), 0);
    EXPECT_EQ(logLevelFromEnv(), LogLevel::Info);
    ASSERT_EQ(setenv("FOCUS_LOG", "quiet", 1), 0);
    EXPECT_EQ(logLevelFromEnv(), LogLevel::Quiet);
    ASSERT_EQ(setenv("FOCUS_LOG", "warn", 1), 0);
    EXPECT_EQ(logLevelFromEnv(), LogLevel::Warn);
    ASSERT_EQ(setenv("FOCUS_LOG", "debug", 1), 0);
    EXPECT_DEATH(logLevelFromEnv(), "FOCUS_LOG.*quiet|warn|info");
    ASSERT_EQ(unsetenv("FOCUS_LOG"), 0);

    setLogLevel(saved);
}

} // namespace
} // namespace focus
