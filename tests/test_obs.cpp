// Observability subsystem tests: tracer semantics (ring buffers,
// reconciliation sums, deterministic Chrome export), metrics registry,
// JSON writer/parser round-trips, run-report schema + diffing, and the
// engine-integration contracts: span sums reconcile with RunStats under
// both BSP and BASP, BASP populates RoundTrace, and the whole pipeline
// is byte-deterministic for a fixed seed.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "algo/min_dist.hpp"
#include "algo/pagerank.hpp"
#include "bench_common.hpp"
#include "engine/config.hpp"
#include "graph/datasets.hpp"
#include "graph/generators.hpp"
#include "helpers.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"

namespace sg {
namespace {

using test::cfg;
using test::params;
using test::PreparedGraph;
using test::topo;

constexpr double kReconcileToleranceSec = 1e-6;  // 1 simulated µs

graph::Csr tiny_graph() {
  graph::SyntheticSpec s;
  s.vertices = 400;
  s.edges = 3000;
  s.zipf_out = 0.6;
  s.zipf_in = 0.7;
  s.communities = 2;
  s.seed = 5;
  return graph::synthetic(s);
}

struct ObsFixture {
  graph::Csr g = tiny_graph();
  graph::VertexId src = graph::datasets::default_source(g);
  PreparedGraph prep{g, partition::Policy::OEC, 4};
  sim::Topology t = topo(4);
  sim::CostParams p = params();

  algo::BfsResult run(const engine::EngineConfig& c) {
    return algo::run_bfs(prep.dist, prep.sync, t, p, c, src);
  }
};

// ---- tracer -------------------------------------------------------------

TEST(Tracer, RecordsAndSumsByKindPerTrack) {
  obs::Tracer tr;
  tr.require_tracks(2);
  tr.name_track(0, "gpu0");
  tr.name_track(1, "gpu1");
  tr.record(0, obs::SpanKind::kKernel, "k", sim::SimTime{0.0},
            sim::SimTime{1.0});
  tr.record(0, obs::SpanKind::kKernel, "k", sim::SimTime{2.0},
            sim::SimTime{2.5});
  tr.record(0, obs::SpanKind::kWait, "w", sim::SimTime{1.0},
            sim::SimTime{2.0});
  tr.record(1, obs::SpanKind::kExtract, "e", sim::SimTime{0.0},
            sim::SimTime{0.25});
  tr.record(1, obs::SpanKind::kPcie, "x", sim::SimTime{0.25},
            sim::SimTime{0.75});
  tr.record(1, obs::SpanKind::kApply, "a", sim::SimTime{0.75},
            sim::SimTime{1.0});

  EXPECT_EQ(tr.recorded(), 6u);
  EXPECT_EQ(tr.dropped(), 0u);
  EXPECT_DOUBLE_EQ(tr.kind_sum(0, obs::SpanKind::kKernel).seconds(), 1.5);
  EXPECT_DOUBLE_EQ(tr.kind_sum(0, obs::SpanKind::kWait).seconds(), 1.0);
  EXPECT_DOUBLE_EQ(tr.kind_sum(1, obs::SpanKind::kKernel).seconds(), 0.0);
  EXPECT_DOUBLE_EQ(tr.comm_sum(1).seconds(), 1.0);
  EXPECT_DOUBLE_EQ(tr.comm_sum(0).seconds(), 0.0);
}

TEST(Tracer, RingBufferOverwritesOldestAndCountsDrops) {
  obs::Tracer tr(/*per_track_cap=*/4);
  tr.require_tracks(1);
  for (int i = 0; i < 10; ++i) {
    tr.record(0, obs::SpanKind::kKernel, "k",
              sim::SimTime{static_cast<double>(i)},
              sim::SimTime{static_cast<double>(i) + 0.5});
  }
  EXPECT_EQ(tr.recorded(), 10u);
  EXPECT_EQ(tr.dropped(), 6u);
  const auto spans = tr.sorted_spans();
  ASSERT_EQ(spans.size(), 4u);
  // The four youngest spans survive, in timeline order.
  EXPECT_DOUBLE_EQ(spans.front().begin.seconds(), 6.0);
  EXPECT_DOUBLE_EQ(spans.back().begin.seconds(), 9.0);
}

TEST(Tracer, SortedSpansOrderedByTrackThenBeginThenSeq) {
  obs::Tracer tr;
  tr.require_tracks(2);
  tr.record(1, obs::SpanKind::kOther, "b", sim::SimTime{1.0},
            sim::SimTime{2.0});
  tr.record(0, obs::SpanKind::kOther, "c", sim::SimTime{5.0},
            sim::SimTime{6.0});
  tr.record(0, obs::SpanKind::kOther, "a", sim::SimTime{0.0},
            sim::SimTime{1.0});
  // Zero-length spans at the same begin keep record order via seq.
  tr.record(1, obs::SpanKind::kOther, "t1", sim::SimTime{3.0},
            sim::SimTime{3.0});
  tr.record(1, obs::SpanKind::kOther, "t2", sim::SimTime{3.0},
            sim::SimTime{3.0});
  const auto spans = tr.sorted_spans();
  ASSERT_EQ(spans.size(), 5u);
  EXPECT_STREQ(spans[0].name, "a");
  EXPECT_STREQ(spans[1].name, "c");
  EXPECT_STREQ(spans[2].name, "b");
  EXPECT_STREQ(spans[3].name, "t1");
  EXPECT_STREQ(spans[4].name, "t2");
}

TEST(Tracer, NullScopeIsANoOp) {
  const obs::Scope scope;
  EXPECT_FALSE(scope.enabled());
  // Must not crash; there is no tracer behind it.
  scope.span(obs::SpanKind::kKernel, "k", sim::SimTime{0.0},
             sim::SimTime{1.0});
}

TEST(Tracer, ChromeExportIsValidJsonWithTrackMetadata) {
  obs::Tracer tr;
  tr.require_tracks(1);
  tr.name_track(0, "gpu0");
  tr.record(0, obs::SpanKind::kKernel, "kernel", sim::SimTime{0.0},
            sim::SimTime{1e-6}, 42, 7);
  const auto doc = obs::parse_json(tr.chrome_trace_json());
  const auto* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  bool saw_meta = false;
  bool saw_span = false;
  for (const auto& e : events->array) {
    const std::string ph = e.find("ph")->str_or("");
    if (ph == "M" && e.find("args.name") != nullptr &&
        e.find("args.name")->str_or("") == "gpu0") {
      saw_meta = true;
    }
    if (ph == "X" && e.find("name")->str_or("") == "kernel") {
      saw_span = true;
      EXPECT_DOUBLE_EQ(e.find("ts")->num_or(-1), 0.0);
      EXPECT_DOUBLE_EQ(e.find("dur")->num_or(-1), 1.0);  // µs
    }
  }
  EXPECT_TRUE(saw_meta);
  EXPECT_TRUE(saw_span);
}

// ---- metrics ------------------------------------------------------------

TEST(Metrics, CounterGaugeHistogramBasics) {
  obs::Registry reg;
  auto& c = reg.counter("engine.messages");
  c.inc();
  c.inc(4);
  EXPECT_EQ(c.value(), 5u);
  EXPECT_EQ(&reg.counter("engine.messages"), &c);  // stable reference

  auto& g = reg.gauge("health.max_phi");
  g.max_of(2.0);
  g.max_of(1.0);  // lower value must not win
  EXPECT_DOUBLE_EQ(g.value(), 2.0);
  g.set(0.5);
  EXPECT_DOUBLE_EQ(g.value(), 0.5);

  auto& h =
      reg.histogram("engine.message_size", obs::Histogram::exp2_bounds(2, 4));
  // Bounds 4, 8, 16 + overflow. Inclusive upper bounds.
  h.observe(4.0);   // bucket 0
  h.observe(5.0);   // bucket 1
  h.observe(16.0);  // bucket 2
  h.observe(99.0);  // overflow
  EXPECT_EQ(h.num_buckets(), 4u);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(2), 1u);
  EXPECT_EQ(h.bucket(3), 1u);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 124.0);
  EXPECT_DOUBLE_EQ(h.mean(), 31.0);

  EXPECT_EQ(reg.size(), 3u);
  EXPECT_NE(reg.find_counter("engine.messages"), nullptr);
  EXPECT_EQ(reg.find_counter("nope"), nullptr);
  EXPECT_NE(reg.find_histogram("engine.message_size"), nullptr);
}

TEST(Metrics, RegistryJsonIsNameSortedAndParses) {
  obs::Registry reg;
  reg.counter("b.second").inc(2);
  reg.counter("a.first").inc(1);
  reg.histogram("h", {1.0, 2.0}).observe(1.5);
  obs::JsonWriter w;
  reg.write_json(w);
  const auto doc = obs::parse_json(w.str());
  EXPECT_DOUBLE_EQ(doc.find("counters.a.first") != nullptr
                       ? doc.find("counters.a.first")->num_or(-1)
                       : doc.find("counters")->object.at("a.first").number,
                   1.0);
  EXPECT_DOUBLE_EQ(doc.find("counters")->object.at("b.second").number, 2.0);
  const auto& h = doc.find("histograms")->object.at("h");
  EXPECT_EQ(h.object.at("counts").array.size(), 3u);
  EXPECT_DOUBLE_EQ(h.object.at("counts").array[1].number, 1.0);
  // Name-sorted serialization: "a.first" precedes "b.second" in bytes.
  EXPECT_LT(w.str().find("a.first"), w.str().find("b.second"));
}

// ---- JSON writer/parser -------------------------------------------------

TEST(Json, WriterParserRoundTrip) {
  obs::JsonWriter w;
  w.begin_object();
  w.kv("str", "a \"quoted\"\nline");
  w.kv("int", std::uint64_t{18446744073709551615ull});
  w.kv("neg", std::int64_t{-42});
  w.kv("pi", 3.25);
  w.kv("yes", true);
  w.key("null").null();
  w.key("arr").begin_array().value(1).value(2).end_array();
  w.end_object();

  const auto v = obs::parse_json(w.str());
  EXPECT_EQ(v.find("str")->str_or(""), "a \"quoted\"\nline");
  EXPECT_DOUBLE_EQ(v.find("pi")->num_or(0), 3.25);
  EXPECT_DOUBLE_EQ(v.find("neg")->num_or(0), -42.0);
  EXPECT_TRUE(v.find("yes")->boolean);
  EXPECT_EQ(v.find("null")->kind, obs::JsonValue::Kind::kNull);
  ASSERT_TRUE(v.find("arr")->is_array());
  EXPECT_EQ(v.find("arr")->array.size(), 2u);
}

TEST(Json, ParserRejectsMalformedInput) {
  EXPECT_THROW((void)obs::parse_json("{\"a\": }"), std::runtime_error);
  EXPECT_THROW((void)obs::parse_json("[1, 2"), std::runtime_error);
  EXPECT_THROW((void)obs::parse_json("{} trailing"), std::runtime_error);
  EXPECT_THROW((void)obs::parse_json("tru"), std::runtime_error);
}

TEST(Json, DoubleFormattingRoundTripsExactly) {
  for (const double d : {0.0, 1.0, 0.1, 1e-9, 6.61154e-4, 1e300}) {
    const std::string s = obs::format_double(d);
    EXPECT_DOUBLE_EQ(obs::parse_json(s).num_or(-1), d) << s;
  }
}

// ---- run reports + diff -------------------------------------------------

engine::RunStats fake_stats(double total, std::uint64_t volume,
                            std::uint32_t rounds) {
  engine::RunStats st;
  st.resize(2);
  st.total_time = sim::SimTime{total};
  st.global_rounds = rounds;
  st.comm.device_to_host_bytes = volume;
  return st;
}

obs::ReportMeta meta_for(const std::string& label) {
  obs::ReportMeta m;
  m.bench = "test";
  m.label = label;
  m.benchmark = "bfs";
  m.input = "tiny";
  m.system = "D-IrGL";
  m.config = "Var4";
  m.devices = 2;
  return m;
}

TEST(Report, SchemaEnvelopeAndRunFields) {
  obs::ReportWriter w("test");
  w.add(meta_for("run-a"), fake_stats(1.5, 1000, 7));
  const auto doc = obs::parse_json(w.json());
  EXPECT_DOUBLE_EQ(doc.find("schema_version")->num_or(-1),
                   obs::kReportSchemaVersion);
  EXPECT_EQ(doc.find("bench")->str_or(""), "test");
  ASSERT_TRUE(doc.find("runs")->is_array());
  const auto& run = doc.find("runs")->array.at(0);
  EXPECT_EQ(run.find("meta.label")->str_or(""), "run-a");
  EXPECT_DOUBLE_EQ(run.find("stats.total_time_s")->num_or(-1), 1.5);
  EXPECT_DOUBLE_EQ(run.find("stats.comm.total_volume_bytes")->num_or(-1),
                   1000.0);
  EXPECT_DOUBLE_EQ(run.find("stats.global_rounds")->num_or(-1), 7.0);
}

TEST(Report, DiffFlagsRegressionsOneSided) {
  obs::ReportWriter base("test");
  base.add(meta_for("run-a"), fake_stats(1.0, 1000, 10));
  obs::ReportWriter cur("test");
  // +20% time (regression at 5%), -50% volume (improvement: no flag),
  // same rounds.
  cur.add(meta_for("run-a"), fake_stats(1.2, 500, 10));

  const auto r = obs::diff_reports(obs::parse_json(base.json()),
                                   obs::parse_json(cur.json()));
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.regressions(), 1);
  bool time_flagged = false;
  for (const auto& i : r.items) {
    if (i.metric == "total_time_s") {
      time_flagged = i.regressed;
      EXPECT_NEAR(i.rel_delta, 0.2, 1e-9);
    } else {
      EXPECT_FALSE(i.regressed);
    }
  }
  EXPECT_TRUE(time_flagged);

  // A generous threshold absorbs the same delta.
  obs::DiffOptions lax;
  lax.threshold = 0.25;
  const auto r2 = obs::diff_reports(obs::parse_json(base.json()),
                                    obs::parse_json(cur.json()), lax);
  EXPECT_EQ(r2.regressions(), 0);
}

TEST(Report, DiffReportsMissingAndNewRuns) {
  obs::ReportWriter base("test");
  base.add(meta_for("gone"), fake_stats(1.0, 1, 1));
  base.add(meta_for("kept"), fake_stats(1.0, 1, 1));
  obs::ReportWriter cur("test");
  cur.add(meta_for("kept"), fake_stats(1.0, 1, 1));
  cur.add(meta_for("added"), fake_stats(1.0, 1, 1));

  const auto r = obs::diff_reports(obs::parse_json(base.json()),
                                   obs::parse_json(cur.json()));
  ASSERT_TRUE(r.ok);
  ASSERT_EQ(r.missing_runs.size(), 1u);
  EXPECT_EQ(r.missing_runs[0], "gone");
  ASSERT_EQ(r.new_runs.size(), 1u);
  EXPECT_EQ(r.new_runs[0], "added");
}

TEST(Report, DiffRefusesSchemaMismatch) {
  obs::ReportWriter base("test");
  base.add(meta_for("run-a"), fake_stats(1.0, 1, 1));
  auto doctored = obs::parse_json(base.json());
  doctored.object["schema_version"].number = 999;
  const auto r =
      obs::diff_reports(doctored, obs::parse_json(base.json()));
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("schema"), std::string::npos);
}

TEST(Report, WriteReportProducesAFileIdenticalRunsDiffClean) {
  ObsFixture fx;
  obs::Tracer tracer;
  obs::Registry registry;
  auto c = cfg(engine::ExecModel::kAsync);
  c.collect_trace = true;
  c.tracer = &tracer;
  c.metrics = &registry;
  const auto r = fx.run(c);

  const auto dir =
      std::filesystem::path(testing::TempDir()) / "sg_obs_report";
  std::filesystem::create_directories(dir);
  const auto path = dir / "run.json";
  ASSERT_TRUE(obs::write_report(path, meta_for("bfs/tiny/D-IrGL/Var4/4"),
                                r.stats, &registry, &tracer));
  const auto diff = obs::diff_report_files(path, path);
  ASSERT_TRUE(diff.ok) << diff.error;
  EXPECT_EQ(diff.regressions(), 0);
  EXPECT_TRUE(diff.missing_runs.empty());

  // The registry snapshot made it into the report.
  std::ifstream in(path);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  const auto doc = obs::parse_json(text);
  const auto& run = doc.find("runs")->array.at(0);
  EXPECT_NE(run.find("metrics.counters"), nullptr);
  EXPECT_NE(run.find("trace.recorded_spans"), nullptr);
  EXPECT_DOUBLE_EQ(run.find("trace.dropped_spans")->num_or(-1), 0.0);
}

// ---- engine integration -------------------------------------------------

void expect_reconciles(const engine::RunStats& stats,
                       const obs::Tracer& tracer, int devices) {
  for (int d = 0; d < devices; ++d) {
    EXPECT_NEAR(stats.compute_time[d].seconds(),
                tracer.kind_sum(d, obs::SpanKind::kKernel).seconds(),
                kReconcileToleranceSec)
        << "compute, device " << d;
    EXPECT_NEAR(stats.wait_time[d].seconds(),
                tracer.kind_sum(d, obs::SpanKind::kWait).seconds(),
                kReconcileToleranceSec)
        << "wait, device " << d;
    EXPECT_NEAR(stats.device_comm_time[d].seconds(),
                tracer.comm_sum(d).seconds(), kReconcileToleranceSec)
        << "device-comm, device " << d;
  }
  EXPECT_EQ(tracer.dropped(), 0u);
  EXPECT_GT(tracer.recorded(), 0u);
}

TEST(ObsEngine, BspSpanSumsReconcileWithRunStats) {
  ObsFixture fx;
  obs::Tracer tracer;
  auto c = cfg(engine::ExecModel::kSync);
  c.tracer = &tracer;
  const auto r = fx.run(c);
  expect_reconciles(r.stats, tracer, 4);
  // Track layout: devices, per-device net tracks, runtime track.
  EXPECT_EQ(tracer.num_tracks(), 9);
  EXPECT_EQ(tracer.track_name(0), "gpu0");
  EXPECT_EQ(tracer.track_name(4), "net from gpu0");
  EXPECT_EQ(tracer.track_name(8), "runtime");
}

TEST(ObsEngine, BaspSpanSumsReconcileWithRunStats) {
  ObsFixture fx;
  obs::Tracer tracer;
  auto c = cfg(engine::ExecModel::kAsync);
  c.tracer = &tracer;
  const auto r = fx.run(c);
  expect_reconciles(r.stats, tracer, 4);
}

TEST(ObsEngine, TracingDoesNotPerturbSimulatedResults) {
  ObsFixture fx;
  for (const auto model :
       {engine::ExecModel::kSync, engine::ExecModel::kAsync}) {
    const auto plain = fx.run(cfg(model));
    obs::Tracer tracer;
    obs::Registry registry;
    auto c = cfg(model);
    c.tracer = &tracer;
    c.metrics = &registry;
    const auto traced = fx.run(c);
    EXPECT_EQ(traced.dist, plain.dist);
    EXPECT_EQ(traced.stats.total_time, plain.stats.total_time);
    EXPECT_EQ(traced.stats.global_rounds, plain.stats.global_rounds);
  }
}

TEST(ObsEngine, GoldenChromeTraceIsByteIdenticalAcrossRuns) {
  ObsFixture fx;
  std::string first;
  for (int i = 0; i < 2; ++i) {
    obs::Tracer tracer;
    auto c = cfg(engine::ExecModel::kSync);
    c.tracer = &tracer;
    (void)fx.run(c);
    const std::string json = tracer.chrome_trace_json();
    EXPECT_FALSE(json.empty());
    (void)obs::parse_json(json);  // well-formed
    if (i == 0) {
      first = json;
    } else {
      EXPECT_EQ(json, first);  // byte-identical golden trace
    }
  }
}

TEST(ObsEngine, EngineRegistersCoreMetrics) {
  ObsFixture fx;
  obs::Registry registry;
  auto c = cfg(engine::ExecModel::kSync);
  c.metrics = &registry;
  const auto r = fx.run(c);

  const auto* rounds = registry.find_counter("engine.local_rounds");
  ASSERT_NE(rounds, nullptr);
  std::uint64_t total_rounds = 0;
  for (const auto n : r.stats.rounds) total_rounds += n;
  EXPECT_EQ(rounds->value(), total_rounds);

  const auto* bytes = registry.find_counter("engine.sync_bytes");
  ASSERT_NE(bytes, nullptr);
  EXPECT_GT(bytes->value(), 0u);

  const auto* sizes = registry.find_histogram("engine.message_size_bytes");
  ASSERT_NE(sizes, nullptr);
  const auto* msgs = registry.find_counter("engine.messages_sent");
  ASSERT_NE(msgs, nullptr);
  EXPECT_EQ(sizes->count(), msgs->value());

  const auto* frontier = registry.find_histogram("engine.frontier_size");
  ASSERT_NE(frontier, nullptr);
  EXPECT_GT(frontier->count(), 0u);
}

// ---- BASP RoundTrace (satellite: trace collection under async) ---------

TEST(ObsEngine, BaspCollectsNonEmptyDeterministicRoundTrace) {
  ObsFixture fx;
  auto c = cfg(engine::ExecModel::kAsync);
  c.collect_trace = true;
  const auto r1 = fx.run(c);
  ASSERT_FALSE(r1.stats.trace.empty());
  // One entry per local round; a message applied just before termination
  // may credit its volume to the round after the last executed one.
  EXPECT_GE(r1.stats.trace.size(),
            static_cast<std::size_t>(r1.stats.max_rounds()));
  EXPECT_LE(r1.stats.trace.size(),
            static_cast<std::size_t>(r1.stats.max_rounds()) + 1);

  std::uint64_t active = 0;
  std::uint64_t volume = 0;
  for (std::size_t i = 0; i < r1.stats.trace.size(); ++i) {
    EXPECT_EQ(r1.stats.trace[i].round, i + 1);  // 1-based local rounds
    active += r1.stats.trace[i].active_vertices;
    volume += r1.stats.trace[i].volume_bytes;
  }
  EXPECT_GT(active, 0u);
  EXPECT_GT(volume, 0u);

  // Fixed seed: the per-round trace replays identically.
  const auto r2 = fx.run(c);
  ASSERT_EQ(r2.stats.trace.size(), r1.stats.trace.size());
  for (std::size_t i = 0; i < r1.stats.trace.size(); ++i) {
    EXPECT_EQ(r2.stats.trace[i].round, r1.stats.trace[i].round);
    EXPECT_EQ(r2.stats.trace[i].active_vertices,
              r1.stats.trace[i].active_vertices);
    EXPECT_EQ(r2.stats.trace[i].edges, r1.stats.trace[i].edges);
    EXPECT_EQ(r2.stats.trace[i].volume_bytes,
              r1.stats.trace[i].volume_bytes);
  }

  // BSP's trace still works and covers every global round.
  auto cb = cfg(engine::ExecModel::kSync);
  cb.collect_trace = true;
  const auto rb = fx.run(cb);
  EXPECT_EQ(rb.stats.trace.size(),
            static_cast<std::size_t>(rb.stats.global_rounds));
}

// ---- exp2 histogram edge cases ------------------------------------------

TEST(Metrics, Exp2HistogramEdgeCases) {
  // Bounds 1, 2, 4, 8 plus the overflow bucket; upper bounds inclusive.
  obs::Histogram h(obs::Histogram::exp2_bounds(0, 3));
  ASSERT_EQ(h.num_buckets(), 5u);
  h.observe(0.0);  // zero is below the first bound
  EXPECT_EQ(h.bucket(0), 1u);
  h.observe(8.0);  // exactly the max bound stays finite
  EXPECT_EQ(h.bucket(3), 1u);
  EXPECT_EQ(h.bucket(4), 0u);
  h.observe(8.0 + 1e-9);  // anything past the max bound overflows
  h.observe(1e30);
  EXPECT_EQ(h.bucket(4), 2u);
  EXPECT_EQ(h.count(), 4u);
}

TEST(Metrics, HistogramMergeAddsCountsAndRejectsBoundsMismatch) {
  obs::Histogram a(obs::Histogram::exp2_bounds(1, 3));  // 2, 4, 8
  obs::Histogram b(obs::Histogram::exp2_bounds(1, 3));
  a.observe(2.0);
  a.observe(100.0);  // overflow
  b.observe(3.0);
  b.observe(8.0);
  ASSERT_TRUE(a.merge(b));
  EXPECT_EQ(a.count(), 4u);
  EXPECT_DOUBLE_EQ(a.sum(), 113.0);
  EXPECT_EQ(a.bucket(0), 1u);
  EXPECT_EQ(a.bucket(1), 1u);
  EXPECT_EQ(a.bucket(2), 1u);
  EXPECT_EQ(a.bucket(3), 1u);
  EXPECT_EQ(b.count(), 2u);  // source histogram untouched

  obs::Histogram other(obs::Histogram::exp2_bounds(0, 3));
  EXPECT_FALSE(a.merge(other));  // bounds mismatch merges nothing
  EXPECT_EQ(a.count(), 4u);
}

// ---- tracer drop-safety -------------------------------------------------

TEST(Tracer, DroppedSpansSurfaceInChromeTraceAndRunReport) {
  obs::Tracer tr(/*per_track_cap=*/2);
  tr.require_tracks(1);
  for (int i = 0; i < 5; ++i) {
    tr.record(0, obs::SpanKind::kKernel, "k",
              sim::SimTime{static_cast<double>(i)},
              sim::SimTime{static_cast<double>(i) + 0.5});
  }
  ASSERT_EQ(tr.dropped(), 3u);

  const auto doc = obs::parse_json(tr.chrome_trace_json());
  ASSERT_NE(doc.find("otherData.dropped_spans"), nullptr);
  EXPECT_DOUBLE_EQ(doc.find("otherData.dropped_spans")->num_or(-1), 3.0);

  obs::ReportWriter w("droptest");
  w.add(meta_for("run-dropped"), fake_stats(1.0, 100, 1), nullptr, &tr);
  const auto rep = obs::parse_json(w.json());
  const auto& run = rep.find("runs")->array.at(0);
  EXPECT_DOUBLE_EQ(run.find("trace.dropped_spans")->num_or(-1), 3.0);
}

// ---- bench ReportLog ----------------------------------------------------

TEST(Report, ReportLogCreatesMissingReportDir) {
  const auto root =
      std::filesystem::path(testing::TempDir()) / "sg_report_dir_test";
  std::filesystem::remove_all(root);
  const auto dir = root / "nested" / "scratch";  // does not exist yet
  ASSERT_FALSE(std::filesystem::exists(dir));
  ::setenv("SG_BENCH_REPORT_DIR", dir.string().c_str(), 1);
  bench::ReportLog log("dircreate");
  log.add("bfs", "tiny", "D-IrGL", "Var4", 2, fake_stats(1.0, 100, 3));
  const bool ok = log.write();
  ::unsetenv("SG_BENCH_REPORT_DIR");
  EXPECT_TRUE(ok);
  EXPECT_TRUE(std::filesystem::exists(dir / "BENCH_dircreate.json"));
  std::filesystem::remove_all(root);
}

TEST(ObsEngine, PagerankTopologyDrivenTraceSweepsAllRounds) {
  ObsFixture fx;
  auto c = cfg(engine::ExecModel::kAsync);
  c.collect_trace = true;
  const auto r = algo::run_pagerank(fx.prep.dist, fx.prep.sync, fx.t, fx.p,
                                    c);
  ASSERT_FALSE(r.stats.trace.empty());
  // Topology-driven rounds apply the operator on every master at least
  // once early on.
  EXPECT_GT(r.stats.trace.front().active_vertices, 0u);
}

}  // namespace
}  // namespace sg
