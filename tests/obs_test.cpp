// Unit tests for the observability substrate (src/obs/): tracer gating,
// flight-recorder ring semantics, span pairing and overflow, the
// allocation-free LogHistogram, the metrics registry and its exports, the
// Logger's sim-time stamp, and collect_registry over a real Deployment.
// The *passivity* contract is pinned elsewhere (determinism_test.cpp);
// these tests pin the recording semantics themselves.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/collect.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "sim/deployment.h"
#include "sim/scenario.h"
#include "util/log.h"

namespace matrix {
namespace {

using namespace time_literals;
using obs::LogHistogram;
using obs::SpanKind;
using obs::TraceKind;
using obs::TraceOptions;
using obs::Tracer;

/// Reads a whole file; empty string if unreadable.
std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

TEST(TracerTest, DisabledTracerIsInert) {
  Tracer tracer;
  EXPECT_FALSE(tracer.enabled());
  EXPECT_FALSE(tracer.records_sends());

  // Every hook is a no-op branch: nothing is recorded, nothing opens.
  tracer.record(1_sec, TraceKind::kClientHello, 42);
  tracer.open_span(1_sec, SpanKind::kAdmit, 42);
  EXPECT_FALSE(tracer.close_span(2_sec, SpanKind::kAdmit, 42));

  EXPECT_EQ(tracer.events_recorded(), 0u);
  EXPECT_EQ(tracer.span_drops(), 0u);
  EXPECT_EQ(tracer.open_span_count(SpanKind::kAdmit), 0u);
  EXPECT_TRUE(tracer.ring_snapshot().empty());
  EXPECT_EQ(tracer.histogram(SpanKind::kAdmit).count(), 0u);

  std::ostringstream out;
  tracer.dump_jsonl(out);
  EXPECT_TRUE(out.str().empty());
}

TEST(TracerTest, RingKeepsMostRecentEventsOldestFirst) {
  Tracer tracer;
  TraceOptions options;
  options.ring_capacity = 8;
  tracer.enable(options);
  ASSERT_TRUE(tracer.enabled());

  for (int i = 0; i < 20; ++i) {
    tracer.record(SimTime::from_us(i), TraceKind::kClientHello,
                  /*subject=*/100, /*actor=*/0, /*a=*/i);
  }
  EXPECT_EQ(tracer.events_recorded(), 20u);

  // The ring holds exactly the last 8 events, oldest first.
  const std::vector<obs::TraceEvent> events = tracer.ring_snapshot();
  ASSERT_EQ(events.size(), 8u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].a, static_cast<std::int64_t>(12 + i)) << "slot " << i;
  }
}

TEST(TracerTest, SpanPairingMeasuresDurations) {
  Tracer tracer;
  tracer.enable();

  // Open → successful close feeds the histogram with the exact duration.
  tracer.open_span(SimTime::from_us(1'000), SpanKind::kAdmit, 7);
  EXPECT_TRUE(tracer.span_open(SpanKind::kAdmit, 7));
  EXPECT_EQ(tracer.open_span_count(SpanKind::kAdmit), 1u);
  EXPECT_TRUE(tracer.close_span(SimTime::from_us(5'000), SpanKind::kAdmit, 7));
  EXPECT_FALSE(tracer.span_open(SpanKind::kAdmit, 7));
  EXPECT_EQ(tracer.open_span_count(SpanKind::kAdmit), 0u);
  const LogHistogram& admit = tracer.histogram(SpanKind::kAdmit);
  EXPECT_EQ(admit.count(), 1u);
  EXPECT_EQ(admit.sum_us(), 4'000u);

  // Re-opening keeps the FIRST start (a retry doesn't erase wait served).
  tracer.open_span(SimTime::from_us(10'000), SpanKind::kQueueWait, 9);
  tracer.open_span(SimTime::from_us(14'000), SpanKind::kQueueWait, 9);
  EXPECT_EQ(tracer.open_span_count(SpanKind::kQueueWait), 1u);
  EXPECT_TRUE(
      tracer.close_span(SimTime::from_us(20'000), SpanKind::kQueueWait, 9));
  EXPECT_EQ(tracer.histogram(SpanKind::kQueueWait).sum_us(), 10'000u);

  // A failed close retires the span without recording a duration.
  tracer.open_span(SimTime::from_us(30'000), SpanKind::kAdmit, 8);
  EXPECT_TRUE(tracer.close_span(SimTime::from_us(31'000), SpanKind::kAdmit, 8,
                                /*success=*/false));
  EXPECT_EQ(admit.count(), 1u);  // still just the first pair

  // Closing a never-opened span reports false, records nothing.
  EXPECT_FALSE(tracer.close_span(SimTime::from_us(32'000), SpanKind::kSplit, 1));
  EXPECT_EQ(tracer.histogram(SpanKind::kSplit).count(), 0u);

  // Same key, different kinds: independent spans.
  tracer.open_span(SimTime::from_us(40'000), SpanKind::kAdmit, 55);
  tracer.open_span(SimTime::from_us(41'000), SpanKind::kHandoff, 55);
  EXPECT_EQ(tracer.open_span_count(SpanKind::kAdmit), 1u);
  EXPECT_EQ(tracer.open_span_count(SpanKind::kHandoff), 1u);
  EXPECT_TRUE(tracer.close_span(SimTime::from_us(42'000), SpanKind::kAdmit, 55));
  EXPECT_TRUE(tracer.span_open(SpanKind::kHandoff, 55));
}

TEST(TracerTest, SpanOverflowDropsAndCounts) {
  Tracer tracer;
  TraceOptions options;
  options.span_capacity = 4;
  tracer.enable(options);

  for (std::uint64_t key = 1; key <= 10; ++key) {
    tracer.open_span(SimTime::from_us(key), SpanKind::kAdmit, key);
  }
  // Capacity holds; the overflow is counted, not silently lost.
  EXPECT_EQ(tracer.open_span_count(SpanKind::kAdmit), 4u);
  EXPECT_EQ(tracer.span_drops(), 6u);

  const std::vector<std::uint64_t> keys =
      tracer.open_span_keys(SpanKind::kAdmit);
  EXPECT_EQ(keys.size(), 4u);

  // The surviving spans still close normally after the pressure.
  for (const std::uint64_t key : keys) {
    EXPECT_TRUE(tracer.close_span(SimTime::from_us(100), SpanKind::kAdmit, key));
  }
  EXPECT_EQ(tracer.open_span_count(SpanKind::kAdmit), 0u);
  EXPECT_EQ(tracer.histogram(SpanKind::kAdmit).count(), 4u);
}

TEST(TracerTest, DumpJsonlWritesOneEventPerLine) {
  Tracer tracer;
  tracer.enable();
  tracer.record(SimTime::from_us(1'500'000), TraceKind::kClientAdmitted,
                /*subject=*/12, /*actor=*/3, /*a=*/0, /*b=*/0);
  tracer.record(SimTime::from_us(2'000'000), TraceKind::kSplitRequested,
                /*subject=*/1, /*actor=*/0, /*a=*/1, /*b=*/70);

  std::ostringstream out;
  tracer.dump_jsonl(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("{\"t_us\":1500000,\"kind\":\"client_admitted\","
                      "\"subject\":12,\"actor\":3,\"a\":0,\"b\":0}"),
            std::string::npos);
  EXPECT_NE(text.find("\"kind\":\"split_requested\""), std::string::npos);

  // File variant round-trips; unopenable path reports failure.
  const std::string path = ::testing::TempDir() + "matrix_obs_test_dump.jsonl";
  ASSERT_TRUE(tracer.dump_jsonl(path));
  EXPECT_EQ(slurp(path), text);
  std::remove(path.c_str());
  EXPECT_FALSE(tracer.dump_jsonl("/nonexistent-dir/x.jsonl"));
}

// ---------------------------------------------------------------------------
// LogHistogram
// ---------------------------------------------------------------------------

TEST(LogHistogramTest, ExactMomentsAndBucketedPercentiles) {
  LogHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.mean_ms(), 0.0);
  EXPECT_EQ(h.percentile_ms(50.0), 0.0);  // empty ⇒ 0, like util/stats.h

  h.record_us(0);
  h.record_us(1);
  h.record_us(1'000);
  h.record_us(1'000'000);
  h.record_us(-5);  // clamped to 0

  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum_us(), 1'001'001u);
  EXPECT_EQ(h.max_us(), 1'000'000u);
  EXPECT_DOUBLE_EQ(h.mean_ms(), 1'001'001.0 / 5.0 / 1000.0);
  EXPECT_DOUBLE_EQ(h.max_ms(), 1000.0);

  // Percentiles are bucket-upper-bound estimates, clamped by the exact max:
  // p100 lands in the top occupied bucket, whose bound clamps to max.
  EXPECT_DOUBLE_EQ(h.percentile_ms(100.0), 1000.0);
  // p40 = 2nd of 5 samples ⇒ the two zeros' bucket ⇒ upper bound 0.
  EXPECT_DOUBLE_EQ(h.percentile_ms(40.0), 0.0);
  // Estimates never undershoot the true value's bucket lower bound: 1000 µs
  // has bit width 10, so its bucket spans [512, 1023] µs.
  const double p80 = h.percentile_ms(80.0);
  EXPECT_GE(p80, 0.512);
  EXPECT_LE(p80, 1.024);
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

TEST(RegistryTest, NamedLookupAndHistogramExpansion) {
  obs::Registry registry;
  registry.counter("net.messages", 1234, "msgs");
  registry.gauge("latency.self.p99_ms", 42.5, "ms");

  LogHistogram h;
  h.record_us(2'000);
  h.record_us(4'000);
  registry.histogram("trace.spans.admit", h);

  EXPECT_TRUE(registry.has("net.messages"));
  EXPECT_FALSE(registry.has("net.nonexistent"));
  EXPECT_DOUBLE_EQ(registry.value("net.messages"), 1234.0);
  EXPECT_DOUBLE_EQ(registry.value("latency.self.p99_ms"), 42.5);
  EXPECT_DOUBLE_EQ(registry.value("net.nonexistent"), 0.0);

  // Histogram expands to the uniform five-gauge shape.
  EXPECT_DOUBLE_EQ(registry.value("trace.spans.admit.count"), 2.0);
  EXPECT_DOUBLE_EQ(registry.value("trace.spans.admit.mean_ms"), 3.0);
  EXPECT_TRUE(registry.has("trace.spans.admit.p50_ms"));
  EXPECT_TRUE(registry.has("trace.spans.admit.p99_ms"));
  EXPECT_DOUBLE_EQ(registry.value("trace.spans.admit.max_ms"), 4.0);
}

TEST(RegistryTest, ExportsJsonlAndCsv) {
  obs::Registry registry;
  registry.counter("engine.events_processed", 99, "events");
  registry.gauge("pool.idle", 2.0);

  std::ostringstream jsonl;
  registry.write_jsonl(jsonl);
  EXPECT_NE(jsonl.str().find("{\"name\":\"engine.events_processed\","
                             "\"type\":\"counter\",\"value\":99,"
                             "\"unit\":\"events\"}"),
            std::string::npos);
  EXPECT_NE(jsonl.str().find("\"name\":\"pool.idle\",\"type\":\"gauge\""),
            std::string::npos);

  std::ostringstream csv;
  registry.write_csv(csv);
  EXPECT_EQ(csv.str().rfind("name,type,value,unit\n", 0), 0u);
  EXPECT_NE(csv.str().find("engine.events_processed,counter,99,events"),
            std::string::npos);

  // File variants round-trip; unopenable paths report failure.
  const std::string path = ::testing::TempDir() + "matrix_obs_test_reg.jsonl";
  ASSERT_TRUE(registry.write_jsonl(path));
  EXPECT_EQ(slurp(path), jsonl.str());
  std::remove(path.c_str());
  EXPECT_FALSE(registry.write_jsonl("/nonexistent-dir/x.jsonl"));
  EXPECT_FALSE(registry.write_csv("/nonexistent-dir/x.csv"));
}

// ---------------------------------------------------------------------------
// Logger sim-time stamp
// ---------------------------------------------------------------------------

TEST(LoggerClockTest, StampsLinesWithSimTime) {
  Logger& logger = Logger::instance();
  std::ostream* const old_sink = &std::cerr;  // default sink per util/log.h
  const LogLevel old_level = logger.level();

  std::ostringstream sink;
  logger.set_sink(&sink);
  logger.set_level(LogLevel::kInfo);

  struct FakeClock {
    SimTime now;
  } clock{SimTime::from_us(12'500'000)};
  logger.set_clock(&clock, [](const void* owner) {
    return static_cast<const FakeClock*>(owner)->now;
  });

  logger.write(LogLevel::kInfo, "test", "hello");
  EXPECT_EQ(sink.str(), "[12.500000] [INFO ] test: hello\n");

  // A different owner cannot strip the registration...
  int other = 0;
  logger.clear_clock(&other);
  sink.str("");
  logger.write(LogLevel::kInfo, "test", "still stamped");
  EXPECT_EQ(sink.str().rfind("[12.500000] ", 0), 0u);

  // ...but the owner can, after which lines are bare again.
  logger.clear_clock(&clock);
  sink.str("");
  logger.write(LogLevel::kInfo, "test", "bare");
  EXPECT_EQ(sink.str(), "[INFO ] test: bare\n");

  logger.set_sink(old_sink);
  logger.set_level(old_level);
}

// ---------------------------------------------------------------------------
// collect_registry over a real deployment
// ---------------------------------------------------------------------------

TEST(CollectRegistryTest, SnapshotsADeploymentUnderOneNamespace) {
  DeploymentOptions options;
  options.config.world = Rect(0, 0, 400, 400);
  options.config.overload_clients = 40;
  options.config.underload_clients = 20;
  options.spec = bzflag_like();
  options.config.visibility_radius = options.spec.visibility_radius;
  options.config.obs.trace_enabled = true;
  options.initial_servers = 1;
  options.pool_size = 1;
  options.map_objects = 10;
  options.seed = 11;
  Deployment deployment(options);

  // A handful of clients so clients.* and latency.* have substance.
  for (int i = 0; i < 8; ++i) {
    deployment.add_bot({50.0 + 40.0 * i, 200.0});
  }
  deployment.run_until(5_sec);

  const obs::Registry registry = obs::collect_registry(deployment);

  // One registry, every subsystem accounted for.
  EXPECT_GT(registry.value("engine.events_processed"), 0.0);
  EXPECT_GT(registry.value("net.messages"), 0.0);
  EXPECT_GT(registry.value("net.bytes"), 0.0);
  EXPECT_TRUE(registry.has("topology.active_servers"));
  EXPECT_TRUE(registry.has("pool.idle"));
  EXPECT_TRUE(registry.has("admission.joins_denied"));
  EXPECT_DOUBLE_EQ(registry.value("clients.connected"), 8.0);
  EXPECT_GT(registry.value("clients.hellos"), 0.0);
  EXPECT_TRUE(registry.has("latency.self.p99_ms"));
  // Routing strays: packets whose origin lay outside the sender's range.
  std::uint64_t strays = 0;
  for (const MatrixServer* server : deployment.matrix_servers()) {
    strays += server->stats().origin_outside_range;
  }
  EXPECT_TRUE(registry.has("core.route.strays"));
  EXPECT_DOUBLE_EQ(registry.value("core.route.strays"),
                   static_cast<double>(strays));

  // Tracing was on, so the trace.* namespace is populated and spans paired:
  // 8 fresh admits measured end to end.
  EXPECT_GT(registry.value("trace.events_recorded"), 0.0);
  EXPECT_DOUBLE_EQ(registry.value("trace.spans.admit.count"), 8.0);
  EXPECT_DOUBLE_EQ(registry.value("trace.spans.admit.open"), 0.0);
  EXPECT_EQ(deployment.network().tracer().span_drops(), 0u);
}

}  // namespace
}  // namespace matrix
