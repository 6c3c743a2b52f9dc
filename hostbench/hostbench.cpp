// sg_hostbench: host wall-time benchmark over the library's public entry
// points (graph::datasets, fw::prepare, fw::DIrGL::run,
// serve::generate_workload, serve::BatchScheduler::run).
//
// One process runs one workload. It builds the workload's inputs several
// times (timed as set-up), runs one untimed warm-up pass over the
// workload's fixed job list, reads the peak resident memory, computes
// sequential oracle answers once, then repeats passes for --seconds and
// reports medians. Each answer is checked and dropped as soon as its call
// returns: against the oracles, and against a digest of the warm-up's
// answer and simulated results, which must repeat exactly in every pass.
//
// Usage:
//   sg_hostbench --workload web-crawl|social-scale|serve-zipf --seed N
//                --seconds S --trace 0|1 [--out DIR] [--inject-wrong]
//
//   --trace 0     end-to-end metrics; nothing is instrumented
//   --trace 1     per-layer metrics: passes alternate untraced/traced; a
//                 traced pass arms obs::Profiler::global() and records
//                 benchmark-side spans, written at exit to
//                 DIR/<workload>-seed<N>.{trace,prof}.json
//   --inject-wrong  corrupts one answer per timed pass before it is
//                 checked (self-test of the checker; must show up as
//                 failures)
//
// The last stdout line is one JSON object with the keys correct,
// attempted, failed and metrics. Exit code 0 on success, 2 on usage
// errors.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "algo/bfs.hpp"
#include "algo/ppr.hpp"
#include "algo/reference.hpp"
#include "fw/dirgl.hpp"
#include "graph/datasets.hpp"
#include "graph/generators.hpp"
#include "obs/json.hpp"
#include "obs/prof.hpp"
#include "serve/scheduler.hpp"
#include "serve/workload.hpp"
#include "sim/rng.hpp"
#include "sim/thread_pool.hpp"
#include "util/hash.hpp"

namespace {

using namespace sg;
using Clock = std::chrono::steady_clock;

const Clock::time_point kProcessStart = Clock::now();

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---- Benchmark-side spans --------------------------------------------------

/// In-memory span log around each call into a layer: name, start, end
/// and the enclosing span. Written out as Chrome trace-event JSON.
class SpanLog {
 public:
  struct Span {
    std::string name;
    std::string detail;
    double start_us = 0;
    double end_us = 0;
    int parent = -1;
  };

  class Guard {
   public:
    Guard(SpanLog* log, int idx) : log_(log), idx_(idx) {}
    ~Guard() {
      if (log_ != nullptr) log_->close(idx_);
    }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

   private:
    SpanLog* log_;
    int idx_;
  };

  bool enabled = false;

  [[nodiscard]] Guard span(const char* name, std::string detail = {}) {
    if (!enabled) return {nullptr, -1};
    const int idx = static_cast<int>(spans_.size());
    spans_.push_back({name, std::move(detail), now_us(), 0.0,
                      open_.empty() ? -1 : open_.back()});
    open_.push_back(idx);
    return {this, idx};
  }

  void write_chrome(const std::filesystem::path& path) const {
    obs::JsonWriter w;
    w.begin_object().key("traceEvents").begin_array();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      w.begin_object()
          .kv("name", std::string_view(s.name))
          .kv("ph", "X")
          .kv("ts", s.start_us)
          .kv("dur", s.end_us - s.start_us)
          .kv("pid", 1)
          .kv("tid", 1)
          .key("args")
          .begin_object()
          .kv("id", static_cast<std::uint64_t>(i))
          .kv("parent", s.parent)
          .kv("detail", std::string_view(s.detail))
          .end_object()
          .end_object();
    }
    w.end_array().end_object();
    std::ofstream(path) << w.str() << '\n';
  }

 private:
  static double now_us() { return seconds_since(kProcessStart) * 1e6; }
  void close(int idx) {
    spans_[static_cast<std::size_t>(idx)].end_us = now_us();
    open_.pop_back();
  }

  std::vector<Span> spans_;
  std::vector<int> open_;
};

SpanLog g_spans;

/// Sums a profiler scope by name over the whole merged tree: scopes
/// recorded on pool worker threads are separate roots.
double scope_ms(const std::vector<obs::Profiler::Node>& nodes,
                std::string_view prefix) {
  double ms = 0;
  for (const auto& n : nodes) {
    if (n.name.starts_with(prefix)) {
      ms += static_cast<double>(n.total_ns) / 1e6;
    } else {
      ms += scope_ms(n.children, prefix);
    }
  }
  return ms;
}

// ---- Digests ---------------------------------------------------------------

template <typename T>
std::uint64_t fold(std::uint64_t h, const T& v) {
  return util::fnv1a64_value(v, h);
}

template <typename T>
std::uint64_t fold_all(std::uint64_t h, const std::vector<T>& v) {
  for (const auto& x : v) h = fold(h, x);
  return h;
}

std::uint64_t fold_time(std::uint64_t h, const std::vector<sim::SimTime>& v) {
  for (const auto& t : v) h = fold(h, t.seconds());
  return h;
}

/// Digest of one run's simulated outcome (model output, not speed).
std::uint64_t digest(const engine::RunStats& s) {
  std::uint64_t h = util::kFnv1aOffset;
  h = fold(h, s.total_time.seconds());
  h = fold(h, s.global_rounds);
  h = fold_time(h, s.compute_time);
  h = fold_time(h, s.device_comm_time);
  h = fold_time(h, s.wait_time);
  h = fold_all(h, s.work_items);
  h = fold_all(h, s.rounds);
  h = fold_all(h, s.peak_memory);
  h = fold(h, s.comm.total_volume());
  h = fold(h, s.comm.host_to_host_bytes);
  h = fold(h, s.comm.messages);
  return h;
}

std::uint64_t digest(const std::string& s) {
  return util::fnv1a64(s.data(), s.size());
}

/// Digest of one job's answer payload.
std::uint64_t answer_digest(const fw::BenchmarkRun& r) {
  std::uint64_t h = util::kFnv1aOffset;
  h = fold_all(h, r.dist32);
  h = fold_all(h, r.dist64);
  h = fold_all(h, r.labels);
  h = fold_all(h, r.in_core);
  h = fold_all(h, r.ranks);
  return h;
}

/// Digest of one replay's answers.
std::uint64_t answer_digest(const std::vector<serve::Answer>& answers) {
  std::uint64_t h = util::kFnv1aOffset;
  for (const serve::Answer& a : answers) {
    h = fold(h, a.served);
    h = fold(h, a.degraded);
    h = fold(h, a.distance);
    h = fold(h, a.khop_count);
    h = fold(h, a.khop_digest);
    for (const serve::ScoredVertex& sv : a.topk) {
      h = fold(h, sv.vertex);
      h = fold(h, sv.score);
    }
  }
  return h;
}

std::string hex(std::uint64_t h) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

// ---- Per-pass accounting ---------------------------------------------------

/// What one pass measured. Times are host wall time summed over the
/// pass's calls into the library; counts are exact.
struct PassStats {
  double wall_s = 0;
  double cpu_s = 0;
  std::uint64_t ops = 0;     ///< jobs or served queries
  std::uint64_t failed = 0;  ///< ops that failed any check
  std::uint64_t edges = 0;   ///< Σ RunStats::total_work()
  std::uint64_t rounds = 0;  ///< Σ RunStats::global_rounds
  std::uint64_t volume_bytes = 0;
  std::uint64_t messages = 0;
  std::map<std::string, double> job_ms;  ///< engine.run_ms.<b>.<m>
  double replay_ms = 0;
  std::uint64_t engine_runs = 0;
  std::uint64_t lanes = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_lookups = 0;
  /// Profiler scope totals for this pass (traced passes only).
  double prof_run_ms = 0, prof_kernel_ms = 0, prof_extract_ms = 0,
         prof_apply_ms = 0, prof_dispatch_ms = 0;

  void add(const engine::RunStats& s) {
    edges += s.total_work();
    rounds += s.global_rounds;
    volume_bytes += s.comm.total_volume();
    messages += s.comm.messages;
  }
};

/// Times one call into the library: adds its wall and CPU seconds to the
/// pass and returns its wall milliseconds.
template <typename F>
double timed_call(PassStats& ps, F&& f) {
  const double cpu0 = cpu_seconds();
  const auto t0 = Clock::now();
  f();
  const double wall_s = seconds_since(t0);
  ps.wall_s += wall_s;
  ps.cpu_s += cpu_seconds() - cpu0;
  return wall_s * 1e3;
}

/// One workload: setup() builds its inputs, pass() runs its job list once
/// and checks every answer. setup() adds the time spent in the graph and
/// partition layers to graph_make_ms and prepare_ms.
class Workload {
 public:
  virtual ~Workload() = default;
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Builds (or rebuilds) every input; frees the previous build first.
  virtual void setup() = 0;
  /// Picks the seeded inputs that set-up does not build (untimed, once,
  /// after the last set-up).
  virtual void choose_inputs() {}
  /// Computes oracle answers (untimed, after the warm-up pass).
  virtual void prepare_oracles() = 0;
  /// Runs the job list once. Only the calls into the library are timed.
  /// Each answer is checked and dropped before the next call starts.
  /// The warm-up pass runs before the oracles exist: it records a digest
  /// of each operation's simulated results and answer, and every later
  /// pass must repeat both. Later passes also check each answer against
  /// the oracles, so the warm-up's answers are checked through them.
  virtual PassStats pass(bool warmup, bool inject_wrong) = 0;
  /// Digest of the simulated results of the warm-up pass.
  [[nodiscard]] virtual std::uint64_t result_digest() const = 0;
  /// Digest of the seeded inputs (extra sources / serve traces).
  [[nodiscard]] virtual std::uint64_t input_digest() const = 0;
  [[nodiscard]] virtual std::string describe() const = 0;
  [[nodiscard]] virtual double replication_factor() const = 0;

  double graph_make_ms = 0;
  double prepare_ms = 0;
};

template <typename F>
auto timed_ms(double& ms, F&& f) {
  const auto t0 = Clock::now();
  auto r = f();
  ms += std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  return r;
}

const char* model_name(bool bsp) { return bsp ? "bsp" : "basp"; }

engine::EngineConfig model_config(bool bsp) {
  return fw::DIrGL::config(bsp ? engine::Variant::kVar3
                               : engine::Variant::kVar4);
}

// ---- Whole-graph analytics workloads (web-crawl, social-scale) ------------

struct GraphSpec {
  const char* dataset;
  partition::Policy policy;
  int devices;
  bool tuxedo;  ///< single host (Tuxedo) vs Bridges (2 GPUs per host)
  /// Whole-graph jobs per model, in job-list order.
  std::vector<fw::Benchmark> dense;
  /// bfs/sssp sources per model beyond the default one, chosen by seed.
  int extra_sources;
};

class GraphWorkload final : public Workload {
 public:
  GraphWorkload(GraphSpec spec, std::uint64_t seed)
      : spec_(std::move(spec)), seed_(seed) {}

  void setup() override {
    jobs_.clear();
    prep_.reset();
    prepw_.reset();
    g_ = {};
    gw_ = {};
    {
      const auto s = g_spans.span("graph.make", spec_.dataset);
      g_ = timed_ms(graph_make_ms,
                    [&] { return graph::datasets::make(spec_.dataset); });
      gw_ = timed_ms(graph_make_ms, [&] {
        return graph::datasets::make_weighted(spec_.dataset);
      });
    }
    {
      const auto s = g_spans.span("partition.prepare", spec_.dataset);
      prep_ = std::make_unique<fw::Prepared>(timed_ms(prepare_ms, [&] {
        return fw::prepare(g_, spec_.policy, spec_.devices);
      }));
      prepw_ = std::make_unique<fw::Prepared>(timed_ms(prepare_ms, [&] {
        return fw::prepare(gw_, spec_.policy, spec_.devices);
      }));
    }
  }

  void choose_inputs() override {
    if (pool_.empty()) pool_ = source_pool();
    build_jobs();
  }

  void prepare_oracles() override {
    for (const Job& j : jobs_) {
      switch (j.bench) {
        case fw::Benchmark::kBfs:
          if (!bfs_.contains(j.source)) {
            bfs_[j.source] = algo::reference::bfs(g_, j.source);
          }
          break;
        case fw::Benchmark::kSssp:
          if (!sssp_.contains(j.source)) {
            sssp_[j.source] = algo::reference::sssp(gw_, j.source);
          }
          break;
        case fw::Benchmark::kCc:
          if (cc_.empty()) cc_ = algo::reference::cc(g_);
          break;
        case fw::Benchmark::kKcore:
          if (kcore_.empty()) kcore_ = algo::reference::kcore(g_, rp_.kcore_k);
          break;
        case fw::Benchmark::kPagerank:
          if (pr_.empty()) {
            pr_ = algo::reference::pagerank(g_, rp_.pr_alpha,
                                            rp_.pr_tolerance);
          }
          break;
      }
    }
  }

  PassStats pass(bool warmup, bool inject_wrong) override {
    PassStats ps;
    if (warmup) {
      digests_.clear();
      answers_.clear();
    }
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
      const Job& j = jobs_[i];
      fw::RunParams rp = rp_;
      rp.source = j.source;
      fw::BenchmarkRun r;
      {
        const auto s = g_spans.span("engine.run", j.name);
        ps.job_ms[j.metric] += timed_call(ps, [&] {
          r = fw::DIrGL::run(j.bench, *j.prep, topo_, params_,
                             model_config(j.bsp), rp);
        });
      }

      if (inject_wrong && !warmup && i == 0) corrupt(r);
      ps.add(r.stats);
      ++ps.ops;
      const std::uint64_t d = digest(r.stats);
      const std::uint64_t a = answer_digest(r);
      if (warmup) {
        digests_.push_back(d);
        answers_.push_back(a);
      }
      std::string err;
      if (!r.ok) {
        err = r.error;
      } else if (d != digests_[i]) {
        err = "simulated digest differs from the warm-up pass";
      } else if (a != answers_[i]) {
        err = "answer differs from the warm-up pass";
      } else if (!warmup) {
        err = check(j, r);
      }
      if (!err.empty()) {
        ++ps.failed;
        std::fprintf(stderr, "hostbench: job %s failed: %s\n",
                     j.name.c_str(), err.c_str());
      }
    }
    return ps;
  }

  [[nodiscard]] std::uint64_t result_digest() const override {
    return fold_all(util::kFnv1aOffset, digests_);
  }
  [[nodiscard]] std::uint64_t input_digest() const override {
    return fold_all(util::kFnv1aOffset, extra_);
  }
  [[nodiscard]] std::string describe() const override {
    std::string s = std::string(spec_.dataset) + " " +
                    partition::to_string(spec_.policy) + " x" +
                    std::to_string(spec_.devices) + ", " +
                    std::to_string(jobs_.size()) + " jobs, default source " +
                    std::to_string(prep_->default_source) + ", extra sources";
    for (const auto v : extra_) s += " " + std::to_string(v);
    return s;
  }
  [[nodiscard]] double replication_factor() const override {
    return prep_->sync.replication_factor(prep_->dist);
  }

 private:
  struct Job {
    fw::Benchmark bench;
    bool bsp;
    graph::VertexId source;
    const fw::Prepared* prep;
    std::string name;    ///< e.g. "bfs.bsp@123"
    std::string metric;  ///< engine.run_ms.<b>.<m>
  };

  /// The vertices the seed draws extra sources from. Candidates are the
  /// 32 vertices of highest out-degree, which reach most of the graph.
  /// Sssp from one of them can still cost three times as much as from
  /// another, which moved pass_s by up to ±12% from seed to seed. So
  /// only the 12 whose simulated sssp work (BSP plus BASP, an exact
  /// count) is closest to the median are kept.
  [[nodiscard]] std::vector<graph::VertexId> source_pool() const {
    constexpr std::size_t kCandidates = 32;
    constexpr std::size_t kPool = 12;
    std::vector<graph::VertexId> by_degree(g_.num_vertices());
    for (graph::VertexId v = 0; v < g_.num_vertices(); ++v) by_degree[v] = v;
    const std::size_t top = std::min(kCandidates, by_degree.size());
    std::partial_sort(by_degree.begin(), by_degree.begin() + top,
                      by_degree.end(), [&](auto a, auto b) {
                        const auto da = g_.degree(a);
                        const auto db = g_.degree(b);
                        return da != db ? da > db : a < b;
                      });
    by_degree.resize(top);
    std::erase(by_degree, prep_->default_source);
    std::vector<std::pair<std::uint64_t, graph::VertexId>> work;
    for (const graph::VertexId v : by_degree) {
      std::uint64_t w = 0;
      for (const bool bsp : {true, false}) {
        fw::RunParams rp = rp_;
        rp.source = v;
        w += fw::DIrGL::run(fw::Benchmark::kSssp, *prepw_, topo_, params_,
                            model_config(bsp), rp)
                 .stats.total_work();
      }
      work.emplace_back(w, v);
    }
    std::sort(work.begin(), work.end());
    const std::size_t keep = std::min(kPool, work.size());
    const std::size_t skip = (work.size() - keep) / 2;
    std::vector<graph::VertexId> pool;
    for (std::size_t i = skip; i < skip + keep; ++i) {
      pool.push_back(work[i].second);
    }
    return pool;
  }

  void build_jobs() {
    std::vector<graph::VertexId> pool = pool_;
    sim::Rng rng(seed_);
    extra_.clear();
    while (static_cast<int>(extra_.size()) < spec_.extra_sources &&
           !pool.empty()) {
      const std::size_t k = rng.bounded(pool.size());
      extra_.push_back(pool[k]);
      pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(k));
    }

    // kcore's k is the average degree, as bench/bench_common.hpp picks it.
    rp_.kcore_k = std::max<std::uint32_t>(
        4, static_cast<std::uint32_t>(g_.num_edges() / g_.num_vertices()));
    jobs_.clear();
    for (const bool bsp : {true, false}) {
      auto add = [&](fw::Benchmark b, graph::VertexId src) {
        const std::string metric = std::string("engine.run_ms.") +
                                   fw::to_string(b) + "." + model_name(bsp);
        std::string name = std::string(fw::to_string(b)) + "." +
                           model_name(bsp);
        if (src != graph::kInvalidVertex) name += "@" + std::to_string(src);
        const fw::Prepared* p =
            b == fw::Benchmark::kSssp ? prepw_.get() : prep_.get();
        jobs_.push_back({b, bsp, src, p, name, metric});
      };
      for (const fw::Benchmark b : spec_.dense) add(b, graph::kInvalidVertex);
      for (const fw::Benchmark b : {fw::Benchmark::kBfs, fw::Benchmark::kSssp}) {
        add(b, prep_->default_source);
        for (const auto v : extra_) add(b, v);
      }
    }
  }

  /// Pagerank tolerance per model, as the algorithm tests use it.
  static float pagerank_tolerance(bool bsp) { return bsp ? 2e-3f : 5e-3f; }

  std::string check(const Job& j, const fw::BenchmarkRun& r) const {
    switch (j.bench) {
      case fw::Benchmark::kBfs:
        return r.dist32 == bfs_.at(j.source) ? "" : "bfs distances differ";
      case fw::Benchmark::kSssp:
        return r.dist64 == sssp_.at(j.source) ? "" : "sssp distances differ";
      case fw::Benchmark::kCc:
        return r.labels == cc_ ? "" : "cc labels differ";
      case fw::Benchmark::kKcore:
        return r.in_core == kcore_ ? "" : "kcore membership differs";
      case fw::Benchmark::kPagerank: {
        if (r.ranks.size() != pr_.size()) return "pagerank size differs";
        float worst = 0;
        for (std::size_t v = 0; v < pr_.size(); ++v) {
          worst = std::max(worst, std::abs(r.ranks[v] - pr_[v]));
        }
        if (worst > pagerank_tolerance(j.bsp)) {
          return "pagerank off by " + std::to_string(worst);
        }
        return "";
      }
    }
    return "unknown benchmark";
  }

  static void corrupt(fw::BenchmarkRun& r) {
    if (!r.ranks.empty()) r.ranks[0] += 1.0f;
    if (!r.labels.empty()) r.labels[0] ^= 1u;
    if (!r.in_core.empty()) r.in_core[0] ^= 1u;
    if (!r.dist32.empty()) r.dist32[0] ^= 1u;
    if (!r.dist64.empty()) r.dist64[0] ^= 1u;
  }

  GraphSpec spec_;
  std::uint64_t seed_;
  graph::Csr g_, gw_;
  std::unique_ptr<fw::Prepared> prep_, prepw_;
  const sim::Topology topo_ =
      spec_.tuxedo ? sim::Topology::tuxedo(spec_.devices, 400.0)
                   : sim::Topology::bridges(spec_.devices, 400.0);
  const sim::CostParams params_ = sim::CostParams::for_scaled_datasets();
  fw::RunParams rp_;
  std::vector<graph::VertexId> pool_;  ///< see source_pool()
  std::vector<graph::VertexId> extra_;
  std::vector<Job> jobs_;
  std::vector<std::uint64_t> digests_;  ///< simulated results, per job
  std::vector<std::uint64_t> answers_;  ///< answers, per job

  std::map<graph::VertexId, std::vector<std::uint32_t>> bfs_;
  std::map<graph::VertexId, std::vector<std::uint64_t>> sssp_;
  std::vector<std::uint32_t> cc_;
  std::vector<std::uint8_t> kcore_;
  std::vector<float> pr_;
};

// ---- Serving workload (serve-zipf) ----------------------------------------

/// PPR scores may differ from the sequential push by this many ppr_eps:
/// batched lanes share a frontier, so float accumulation order differs.
constexpr double kPprScoreSlack = 50.0;

class ServeWorkload final : public Workload {
 public:
  ServeWorkload(int traces, std::uint32_t queries, std::uint64_t seed)
      : traces_(traces), queries_(queries), seed_(seed) {
    // The admission limits sg_serve replays with: tenant 0 (the
    // Zipf-heavy one) is clamped below its offered rate.
    cfg_.default_limits = {.rate_qps = 40000.0, .burst = 128.0,
                           .max_queued = 256};
    cfg_.tenant_limits = {{.rate_qps = 32000.0, .burst = 80.0,
                           .max_queued = 256}};
  }

  void setup() override {
    traces_q_.clear();
    prep_.reset();
    g_ = {};
    {
      const auto s = g_spans.span("graph.make", "sg_serve");
      g_ = timed_ms(graph_make_ms, [] {
        // The sg_serve graph: symmetric communities, pair-hashed weights.
        graph::SyntheticSpec spec;
        spec.vertices = 2048;
        spec.edges = 12000;
        spec.zipf_out = 0.6;
        spec.zipf_in = 0.6;
        spec.communities = 4;
        spec.symmetric = true;
        spec.seed = 11;
        return graph::add_symmetric_weights(graph::synthetic(spec), 1, 64, 11);
      });
    }
    {
      const auto s = g_spans.span("partition.prepare", "sg_serve");
      prep_ = std::make_unique<fw::Prepared>(timed_ms(prepare_ms, [&] {
        return fw::prepare(g_, partition::Policy::CVC, 4);
      }));
    }
    const auto s = g_spans.span("serve.generate_workload");
    sim::Rng rng(seed_);
    for (int i = 0; i < traces_; ++i) {
      serve::WorkloadSpec spec;
      spec.num_queries = queries_;
      spec.seed = rng.next();
      traces_q_.push_back(serve::generate_workload(spec, g_.num_vertices()));
    }
  }

  void prepare_oracles() override {
    for (const auto& trace : traces_q_) {
      for (const serve::Query& q : trace) {
        switch (q.kind) {
          case serve::QueryKind::kBfsDist:
          case serve::QueryKind::kKhopCount:
            if (!bfs_.contains(q.source)) {
              bfs_[q.source] = algo::reference::bfs(g_, q.source);
            }
            break;
          case serve::QueryKind::kSsspDist:
            if (!sssp_.contains(q.source)) {
              sssp_[q.source] = algo::reference::sssp(g_, q.source);
            }
            break;
          case serve::QueryKind::kPprTopK:
            if (!ppr_.contains(q.source)) {
              ppr_[q.source] = algo::reference::ppr(g_, q.source,
                                                    cfg_.ppr_alpha,
                                                    cfg_.ppr_eps);
            }
            break;
        }
      }
    }
  }

  PassStats pass(bool warmup, bool inject_wrong) override {
    PassStats ps;
    if (warmup) {
      digests_.clear();
      answers_.clear();
    }
    std::size_t i = 0;
    for (const bool bsp : {true, false}) {
      for (std::size_t t = 0; t < traces_q_.size(); ++t, ++i) {
        const auto& trace = traces_q_[t];
        std::unique_ptr<serve::BatchScheduler> sched;
        std::vector<serve::Answer> answers;
        {
          const auto s = g_spans.span(
              "serve.replay", std::string(model_name(bsp)) + "#" +
                                  std::to_string(t));
          timed_call(ps, [&] {
            sched = std::make_unique<serve::BatchScheduler>(
                prep_->dist, prep_->sync, topo_, params_, model_config(bsp),
                cfg_);
            answers = timed_ms(ps.replay_ms, [&] { return sched->run(trace); });
          });
        }

        const serve::ServeReport& rep = sched->report();
        for (const auto& s : sched->engine_stats()) ps.add(s);
        ps.engine_runs += rep.engine_runs;
        ps.lanes += rep.lanes_total;
        const auto cs = sched->cache_stats();
        ps.cache_hits += cs.hits;
        ps.cache_lookups += cs.hits + cs.misses;

        if (inject_wrong && !warmup && i == 0) corrupt(answers);
        const std::uint64_t d = digest(sched->report_json());
        const std::uint64_t a = answer_digest(answers);
        if (warmup) {
          digests_.push_back(d);
          answers_.push_back(a);
        }
        std::string differs;
        if (d != digests_[i]) {
          differs = "simulated report digest differs from the warm-up pass";
        } else if (a != answers_[i]) {
          differs = "answers differ from the warm-up pass";
        }
        std::uint64_t wrong = 0;
        for (std::size_t q = 0; q < trace.size(); ++q) {
          if (!answers[q].served) continue;
          ++ps.ops;
          const std::string err = !differs.empty() ? differs
                                  : warmup         ? std::string()
                                                   : check(trace[q], answers[q]);
          if (!err.empty()) {
            ++ps.failed;
            if (++wrong <= 3) {
              std::fprintf(stderr, "hostbench: replay %zu query %llu: %s\n",
                           i, static_cast<unsigned long long>(trace[q].id),
                           err.c_str());
            }
          }
        }
      }
    }
    return ps;
  }

  [[nodiscard]] std::uint64_t result_digest() const override {
    return fold_all(util::kFnv1aOffset, digests_);
  }
  [[nodiscard]] std::uint64_t input_digest() const override {
    std::uint64_t h = util::kFnv1aOffset;
    for (const auto& trace : traces_q_) {
      for (const serve::Query& q : trace) {
        h = fold(h, q.tenant);
        h = fold(h, q.priority);
        h = fold(h, q.arrival.seconds());
        h = fold(h, q.deadline.seconds());
        h = fold(h, static_cast<std::uint8_t>(q.kind));
        h = fold(h, q.source);
        h = fold(h, q.target);
        h = fold(h, q.k);
      }
    }
    return h;
  }
  [[nodiscard]] std::string describe() const override {
    return "sg_serve graph " + std::to_string(g_.num_vertices()) +
           " vertices CVC x4, " + std::to_string(traces_) + " traces x " +
           std::to_string(queries_) + " queries x {bsp, basp}";
  }
  [[nodiscard]] double replication_factor() const override {
    return prep_->sync.replication_factor(prep_->dist);
  }

 private:
  static void corrupt(std::vector<serve::Answer>& answers) {
    for (serve::Answer& a : answers) {
      if (!a.served) continue;
      a.distance ^= 1u;
      a.khop_count ^= 1u;
      if (!a.topk.empty()) a.topk[0].score += 1.0;
      return;
    }
  }

  /// True distance of an s-t query (kUnreachable when unreachable).
  std::uint64_t truth(const serve::Query& q) const {
    if (q.kind == serve::QueryKind::kSsspDist) {
      return sssp_.at(q.source)[q.target];
    }
    const std::uint32_t d = bfs_.at(q.source)[q.target];
    return d == algo::kInfDist ? serve::kUnreachable : d;
  }

  /// The checks sg_serve --verify makes: exact answers, PPR scores within
  /// the documented slack, and degraded answers as sound upper bounds.
  std::string check(const serve::Query& q, const serve::Answer& a) const {
    const bool st = q.kind == serve::QueryKind::kBfsDist ||
                    q.kind == serve::QueryKind::kSsspDist;
    if (a.degraded) {
      if (!st) return "degraded answer on a non-distance query";
      const std::uint64_t want = truth(q);
      if (a.distance == serve::kUnreachable || want == serve::kUnreachable ||
          a.distance < want) {
        return "degraded bound " + std::to_string(a.distance) +
               " is not a sound bound on " + std::to_string(want);
      }
      return "";
    }
    if (st) {
      const std::uint64_t want = truth(q);
      return a.distance == want ? ""
                                : "distance " + std::to_string(a.distance) +
                                      " want " + std::to_string(want);
    }
    if (q.kind == serve::QueryKind::kKhopCount) {
      const auto& dist = bfs_.at(q.source);
      std::uint64_t count = 0;
      std::uint64_t h = util::kFnv1aOffset;
      for (graph::VertexId v = 0; v < dist.size(); ++v) {
        if (dist[v] <= q.k) {
          ++count;
          h = util::fnv1a64_value(v, h);
        }
      }
      return a.khop_count == count && a.khop_digest == h ? ""
                                                         : "khop differs";
    }
    const auto& mass = ppr_.at(q.source);
    if (a.topk.size() > q.k) return "ppr top-k longer than k";
    for (const serve::ScoredVertex& sv : a.topk) {
      if (std::abs(sv.score - mass[sv.vertex]) > kPprScoreSlack * cfg_.ppr_eps) {
        return "ppr score of vertex " + std::to_string(sv.vertex) +
               " off the reference";
      }
    }
    return "";
  }

  int traces_;
  std::uint32_t queries_;
  std::uint64_t seed_;
  serve::ServeConfig cfg_;
  graph::Csr g_;
  std::unique_ptr<fw::Prepared> prep_;
  const sim::Topology topo_ = sim::Topology::bridges(4, 400.0);
  const sim::CostParams params_ = sim::CostParams::for_scaled_datasets();
  std::vector<std::vector<serve::Query>> traces_q_;
  std::vector<std::uint64_t> digests_;  ///< report_json(), per replay
  std::vector<std::uint64_t> answers_;  ///< answers, per replay

  std::map<graph::VertexId, std::vector<std::uint32_t>> bfs_;
  std::map<graph::VertexId, std::vector<std::uint64_t>> sssp_;
  std::map<graph::VertexId, std::vector<double>> ppr_;
};

// ---- Main ------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool inject_wrong = false;
  std::filesystem::path out = ".bench_out";
};

std::unique_ptr<Workload> make_workload(const Options& o) {
  using B = fw::Benchmark;
  if (o.workload == "web-crawl") {
    return std::make_unique<GraphWorkload>(
        GraphSpec{"uk07", partition::Policy::OEC, 4, true,
                  {B::kPagerank, B::kCc, B::kKcore}, 3},
        o.seed);
  }
  if (o.workload == "social-scale") {
    return std::make_unique<GraphWorkload>(
        GraphSpec{"twitter50", partition::Policy::CVC, 16, false,
                  {B::kPagerank, B::kCc}, 1},
        o.seed);
  }
  if (o.workload == "serve-zipf") {
    return std::make_unique<ServeWorkload>(4, 600, o.seed);
  }
  return nullptr;
}

/// Collects "name": {"value": v, "unit": u} pairs for the result line.
class Metrics {
 public:
  void add(const std::string& name, double value, const char* unit) {
    items_.push_back({name, value, unit});
    std::printf("hostbench: metric %-32s %.6g %s\n", name.c_str(), value,
                unit);
  }
  [[nodiscard]] std::string json() const {
    std::string s = "{";
    for (std::size_t i = 0; i < items_.size(); ++i) {
      char num[64];
      const auto r = std::to_chars(num, num + sizeof num, items_[i].value);
      s += (i ? ", \"" : "\"") + items_[i].name + "\": {\"value\": " +
           std::string(num, r.ptr) + ", \"unit\": \"" + items_[i].unit +
           "\"}";
    }
    return s + "}";
  }

 private:
  struct Item {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Item> items_;
};

int usage() {
  std::fprintf(stderr,
               "usage: sg_hostbench --workload web-crawl|social-scale|"
               "serve-zipf --seed N --seconds S --trace 0|1 [--out DIR]"
               " [--inject-wrong]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      o.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      o.seconds = std::atof(argv[++i]);
    } else if (a == "--trace" && has_value) {
      o.trace = std::string(argv[++i]) == "1";
    } else if (a == "--out" && has_value) {
      o.out = argv[++i];
    } else if (a == "--inject-wrong") {
      o.inject_wrong = true;
    } else {
      return usage();
    }
  }
  std::unique_ptr<Workload> w = make_workload(o);
  if (w == nullptr || !(o.seconds > 0)) return usage();

  std::printf("hostbench: workload=%s seed=%llu seconds=%g trace=%d nproc=%ld"
              " pool_threads=%zu build=%s\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace ? 1 : 0, sysconf(_SC_NPROCESSORS_ONLN),
              sim::ThreadPool::global().size(), SG_HOSTBENCH_BUILD_TYPE);

  // Set-up: repeated so its median is steady; the last build is kept.
  // Spans and layer times are recorded for the last repetition only.
  const int setup_reps = o.workload == "serve-zipf" ? 25 : 3;
  std::vector<double> setup_s;
  for (int r = 0; r < setup_reps; ++r) {
    g_spans.enabled = o.trace && r + 1 == setup_reps;
    w->graph_make_ms = w->prepare_ms = 0;
    const auto t0 = Clock::now();
    {
      const auto s = g_spans.span("setup", o.workload);
      w->setup();
    }
    setup_s.push_back(seconds_since(t0));
  }
  g_spans.enabled = false;
  w->choose_inputs();
  std::printf("hostbench: inputs %s input_digest=%s\n", w->describe().c_str(),
              hex(w->input_digest()).c_str());

  // Warm-up pass: untimed; fixes the digests the later passes must repeat.
  // The peak memory is read after it and before the oracles, which only
  // the benchmark needs, are built.
  const PassStats warm = w->pass(true, false);
  const double peak_rss_mb = peak_rss_mib();
  std::uint64_t attempted = warm.ops, failed = warm.failed;
  w->prepare_oracles();

  // Timed passes. A traced run alternates untraced and traced passes so
  // the tracing overhead is measured under the same machine conditions.
  obs::Profiler& prof = obs::Profiler::global();
  std::vector<PassStats> plain, traced;
  const auto loop_start = Clock::now();
  const std::size_t min_passes = o.trace ? 2 : 3;
  while (seconds_since(loop_start) < o.seconds ||
         plain.size() < min_passes || (o.trace && traced.size() < min_passes)) {
    const bool trace_this = o.trace && traced.size() < plain.size();
    obs::Profiler::Snapshot before;
    if (trace_this) {
      before = prof.snapshot();
      prof.set_enabled(true);
      g_spans.enabled = true;
    }
    PassStats ps;
    {
      const auto s = g_spans.span("pass", o.workload);
      ps = w->pass(false, o.inject_wrong);
    }
    if (trace_this) {
      prof.set_enabled(false);
      g_spans.enabled = false;
      const obs::Profiler::Snapshot after = prof.snapshot();
      auto delta = [&](std::string_view name) {
        return scope_ms(after.roots, name) - scope_ms(before.roots, name);
      };
      ps.prof_run_ms = delta("engine.run");
      ps.prof_kernel_ms = delta("engine.kernel");
      ps.prof_extract_ms = delta("sync.extract");
      ps.prof_apply_ms = delta("sync.apply");
      ps.prof_dispatch_ms = delta("serve.dispatch_batch");
    }
    attempted += ps.ops;
    failed += ps.failed;
    (trace_this ? traced : plain).push_back(std::move(ps));
  }

  const PassStats& ref = plain.front();  // exact counts repeat every pass
  auto med = [](const std::vector<PassStats>& v, auto field) {
    std::vector<double> x;
    for (const auto& p : v) x.push_back(field(p));
    return median(std::move(x));
  };
  const double pass_s = med(plain, [](const PassStats& p) { return p.wall_s; });
  const double failed_ratio =
      static_cast<double>(failed) / static_cast<double>(attempted);
  std::printf("hostbench: passes=%zu traced=%zu ops_per_pass=%llu "
              "attempted=%llu failed=%llu failed_ratio=%g\n",
              plain.size(), traced.size(),
              static_cast<unsigned long long>(ref.ops),
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), failed_ratio);
  std::printf("hostbench: digest=%s\n", hex(w->result_digest()).c_str());
  std::printf("hostbench: pass wall/cpu s:");
  for (const PassStats& p : plain) std::printf(" %.3f/%.3f", p.wall_s, p.cpu_s);
  std::printf("\n");
  // Throughput is pass_s over an exact per-pass count, so it is printed
  // for reading but not gated: it would gate pass_s a second time.
  std::printf("hostbench: edges_per_s=%.6g queries_per_s=%.6g\n",
              static_cast<double>(ref.edges) / pass_s,
              static_cast<double>(ref.ops) / pass_s);

  Metrics m;
  if (!o.trace) {
    m.add("setup_s", median(setup_s), "s");
    m.add("pass_s", pass_s, "s");
    m.add("peak_rss_mb", peak_rss_mb, "MiB");
  } else {
    auto tmed = [&](auto field) { return med(traced, field); };
    m.add("graph.make_ms", w->graph_make_ms, "ms");
    m.add("partition.prepare_ms", w->prepare_ms, "ms");
    m.add("partition.replication_factor", w->replication_factor(), "ratio");
    for (const char* b : {"bfs", "cc", "kcore", "pagerank", "sssp"}) {
      for (const char* model : {"bsp", "basp"}) {
        const std::string key =
            std::string("engine.run_ms.") + b + "." + model;
        m.add(key, tmed([&](const PassStats& p) {
                const auto it = p.job_ms.find(key);
                return it == p.job_ms.end() ? 0.0 : it->second;
              }),
              "ms");
      }
    }
    const double run_ms = tmed([](const PassStats& p) { return p.prof_run_ms; });
    const double kernel_ms =
        tmed([](const PassStats& p) { return p.prof_kernel_ms; });
    const double sync_ms = tmed([](const PassStats& p) {
      return p.prof_extract_ms + p.prof_apply_ms;
    });
    m.add("engine.run_ms", run_ms, "ms");
    m.add("engine.rounds", static_cast<double>(ref.rounds), "count");
    m.add("engine.edges", static_cast<double>(ref.edges), "count");
    m.add("engine.us_per_round",
          ref.rounds ? run_ms * 1e3 / static_cast<double>(ref.rounds) : 0.0,
          "us");
    m.add("engine.ns_per_edge",
          ref.edges ? run_ms * 1e6 / static_cast<double>(ref.edges) : 0.0,
          "ns");
    m.add("engine.kernel_ms", kernel_ms, "ms");
    m.add("sync.extract_ms",
          tmed([](const PassStats& p) { return p.prof_extract_ms; }), "ms");
    m.add("sync.apply_ms",
          tmed([](const PassStats& p) { return p.prof_apply_ms; }), "ms");
    // The kernel and sync scopes are summed over the pool's worker threads,
    // so they are compared with each other, not with engine.run wall time.
    m.add("sync.thread_share",
          kernel_ms + sync_ms > 0 ? sync_ms / (kernel_ms + sync_ms) : 0.0,
          "ratio");
    m.add("comm.volume_mb",
          static_cast<double>(ref.volume_bytes) / (1024.0 * 1024.0), "MiB");
    m.add("comm.messages", static_cast<double>(ref.messages), "count");
    m.add("host.cpu_util", tmed([](const PassStats& p) {
            return p.wall_s > 0 ? p.cpu_s / p.wall_s : 0.0;
          }),
          "ratio");
    m.add("serve.replay_ms",
          tmed([](const PassStats& p) { return p.replay_ms; }), "ms");
    m.add("serve.dispatch_ms",
          tmed([](const PassStats& p) { return p.prof_dispatch_ms; }), "ms");
    m.add("serve.engine_runs", static_cast<double>(ref.engine_runs), "count");
    m.add("serve.lanes_per_run",
          ref.engine_runs ? static_cast<double>(ref.lanes) /
                                static_cast<double>(ref.engine_runs)
                          : 0.0,
          "count");
    m.add("serve.cache_hit_ratio",
          ref.cache_lookups ? static_cast<double>(ref.cache_hits) /
                                  static_cast<double>(ref.cache_lookups)
                            : 0.0,
          "ratio");
    const double traced_s =
        tmed([](const PassStats& p) { return p.wall_s; });
    m.add("trace.pass_s", traced_s, "s");
    m.add("trace.overhead_pct", (traced_s / pass_s - 1.0) * 100.0, "%");

    std::filesystem::create_directories(o.out);
    const std::string stem =
        o.workload + "-seed" + std::to_string(o.seed);
    g_spans.write_chrome(o.out / (stem + ".trace.json"));
    obs::JsonWriter pw;
    prof.write_json(pw);
    std::ofstream(o.out / (stem + ".prof.json")) << pw.str() << '\n';
    std::printf("hostbench: wrote %s and %s\n",
                (o.out / (stem + ".trace.json")).c_str(),
                (o.out / (stem + ".prof.json")).c_str());
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), m.json().c_str());
  return 0;
}
