// sg_serve: multi-tenant serving-workload replayer for the batched
// point-query scheduler (src/serve/). Builds a seeded synthetic social
// graph, partitions it across simulated GPUs, generates an open-loop
// Poisson multi-tenant query trace on the simulated clock, and replays
// it through serve::BatchScheduler. Everything is seeded, so two runs
// with the same flags emit byte-identical serving reports — CI runs the
// tool twice and compares.
//
// Usage:
//   sg_serve [--queries N] [--tenants N] [--seed N] [--rate QPS]
//            [--tenant-skew X] [--source-pool N] [--batch-width N]
//            [--ppr-width N] [--devices N] [--policy OEC|IEC|HVC|CVC]
//            [--async] [--report FILE] [--verify] [--min-speedup X]
//
//   --queries N      workload size (default 1200)
//   --tenants N      tenant count (default 6, Zipf-skewed)
//   --seed N         workload seed (default 42)
//   --rate QPS       aggregate arrival rate on the simulated clock
//   --tenant-skew X  Zipf exponent over tenants
//   --source-pool N  distinct landmark sources the workload draws from
//   --batch-width N  msbfs lanes per fused run (<= 64)
//   --ppr-width N    batched-PPR lanes per fused run (<= 16)
//   --devices N      simulated GPUs (default 4)
//   --policy P       partition policy (default CVC)
//   --async          BASP executor instead of BSP
//   --report FILE    write the serving report JSON here (default stdout)
//   --host-time      measure real host wall time around the replay and
//                    append a nondeterministic-marked `host` section
//                    (wall_ms + queries_per_sec) to the report; off by
//                    default so byte-identity CI stays valid
//   --verify         check every served answer against sequential
//                    oracles AND assert the batched engine used at
//                    least --min-speedup fewer sweeps than one run per
//                    engine-served query would have; degraded answers
//                    (brownout) instead verify as sound upper bounds
//   --min-speedup X  sweep-reduction floor for --verify (default 8)
//   --overload X     multiply the arrival rate by X (overload drills)
//   --brownout       arm the brownout degradation controller
//   --reshard N      arm elastic tenant resharding across N shard homes
//   --lifecycle      arm the fault-tolerant query lifecycle (timeouts,
//                    retries, hedged re-dispatch)
//
// Exit codes: 0 = ok, 1 = verification failure, 2 = usage error.
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "algo/min_dist.hpp"
#include "algo/ppr.hpp"
#include "algo/reference.hpp"
#include "fw/benchmark.hpp"
#include "graph/generators.hpp"
#include "partition/policy.hpp"
#include "serve/scheduler.hpp"
#include "serve/workload.hpp"
#include "sim/cost_params.hpp"
#include "sim/topology.hpp"
#include "util/hash.hpp"

namespace {

using namespace sg;

/// Tolerance for PPR top-k scores vs the sequential reference: batched
/// lanes share a frontier, so float accumulation order differs from the
/// single-seed push; both converge to the same fixed point within the
/// push threshold's resolution.
constexpr double kPprScoreSlack = 50.0;  // x ppr_eps

struct Options {
  serve::WorkloadSpec workload;
  serve::ServeConfig serve{
      // Tenant 0 (the Zipf-heavy one, ~46% of the default workload)
      // gets an explicit clamp well below its offered rate, so the
      // token bucket visibly rejects its overflow while the small
      // tenants ride under the generous default — the admission story
      // the report's per-tenant rows are meant to show.
      .default_limits = {.rate_qps = 40000.0, .burst = 128.0,
                         .max_queued = 256},
      .tenant_limits = {{.rate_qps = 32000.0, .burst = 80.0,
                         .max_queued = 256}},
      .brownout = {},
      .reshard = {},
      .lifecycle = {}};
  int devices = 4;
  partition::Policy policy = partition::Policy::CVC;
  bool async = false;
  bool verify = false;
  bool host_time = false;
  double min_speedup = 8.0;
  double overload = 1.0;
  std::string report_path;
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--queries N] [--tenants N] [--seed N] [--rate QPS]"
               " [--tenant-skew X]\n"
               "          [--source-pool N] [--batch-width N] [--ppr-width N]"
               " [--devices N]\n"
               "          [--policy OEC|IEC|HVC|CVC] [--async]"
               " [--report FILE] [--verify]\n"
               "          [--min-speedup X] [--host-time] [--overload X]\n"
               "          [--brownout] [--reshard N] [--lifecycle]\n",
               argv0);
  return 2;
}

const graph::Csr& serve_graph() {
  // A social-style community graph, symmetric so every landmark reaches
  // most of the graph, with randomized weights for the sssp family
  // (bfs/ppr ignore them).
  static const graph::Csr g = [] {
    graph::SyntheticSpec s;
    s.vertices = 2048;
    s.edges = 12000;
    s.zipf_out = 0.6;
    s.zipf_in = 0.6;
    s.communities = 4;
    s.symmetric = true;
    s.seed = 11;
    return graph::add_symmetric_weights(graph::synthetic(s), 1, 64, 11);
  }();
  return g;
}

/// Oracle answer for one served query, memoized per (kind, source).
class Oracle {
 public:
  explicit Oracle(const graph::Csr& g, double alpha, double eps)
      : g_(g), alpha_(alpha), eps_(eps) {}

  const std::vector<std::uint32_t>& bfs(graph::VertexId s) {
    auto it = bfs_.find(s);
    if (it == bfs_.end()) {
      it = bfs_.emplace(s, algo::reference::bfs(g_, s)).first;
    }
    return it->second;
  }
  const std::vector<std::uint64_t>& sssp(graph::VertexId s) {
    auto it = sssp_.find(s);
    if (it == sssp_.end()) {
      it = sssp_.emplace(s, algo::reference::sssp(g_, s)).first;
    }
    return it->second;
  }
  const std::vector<double>& ppr(graph::VertexId s) {
    auto it = ppr_.find(s);
    if (it == ppr_.end()) {
      it = ppr_.emplace(s, algo::reference::ppr(g_, s, alpha_, eps_)).first;
    }
    return it->second;
  }

 private:
  const graph::Csr& g_;
  double alpha_;
  double eps_;
  std::map<graph::VertexId, std::vector<std::uint32_t>> bfs_;
  std::map<graph::VertexId, std::vector<std::uint64_t>> sssp_;
  std::map<graph::VertexId, std::vector<double>> ppr_;
};

/// Checks one served answer against the sequential oracle; returns an
/// empty string on success, a description on mismatch.
std::string check_answer(const serve::Query& q, const serve::Answer& a,
                         Oracle& oracle, double ppr_eps) {
  switch (q.kind) {
    case serve::QueryKind::kBfsDist: {
      const std::uint32_t d = oracle.bfs(q.source)[q.target];
      const std::uint64_t want =
          d == algo::kInfDist ? serve::kUnreachable : d;
      if (a.distance != want) {
        return "bfs-dist " + std::to_string(a.distance) + " want " +
               std::to_string(want);
      }
      return {};
    }
    case serve::QueryKind::kSsspDist: {
      const std::uint64_t want = oracle.sssp(q.source)[q.target];
      if (a.distance != want) {
        return "sssp-dist " + std::to_string(a.distance) + " want " +
               std::to_string(want);
      }
      return {};
    }
    case serve::QueryKind::kKhopCount: {
      const auto& dist = oracle.bfs(q.source);
      std::uint64_t count = 0;
      std::uint64_t digest = util::kFnv1aOffset;
      for (graph::VertexId v = 0; v < dist.size(); ++v) {
        if (dist[v] <= q.k) {
          ++count;
          digest = util::fnv1a64_value(v, digest);
        }
      }
      if (a.khop_count != count || a.khop_digest != digest) {
        return "khop " + std::to_string(a.khop_count) + "/" +
               std::to_string(a.khop_digest) + " want " +
               std::to_string(count) + "/" + std::to_string(digest);
      }
      return {};
    }
    case serve::QueryKind::kPprTopK: {
      const auto& mass = oracle.ppr(q.source);
      const double tol = kPprScoreSlack * ppr_eps;
      for (const serve::ScoredVertex& sv : a.topk) {
        const double diff = std::abs(sv.score - mass[sv.vertex]);
        if (diff > tol) {
          return "ppr score[" + std::to_string(sv.vertex) + "] = " +
                 std::to_string(sv.score) + " vs reference " +
                 std::to_string(mass[sv.vertex]) + " (diff " +
                 std::to_string(diff) + " > " + std::to_string(tol) + ")";
        }
      }
      if (a.topk.size() > q.k) {
        return "ppr top-k returned " + std::to_string(a.topk.size()) +
               " > k = " + std::to_string(q.k);
      }
      return {};
    }
  }
  return "unknown query kind";
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto need_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "sg_serve: %s needs a value\n", flag);
        return nullptr;
      }
      return argv[++i];
    };
    if (a == "--queries") {
      const char* v = need_value("--queries");
      if (v == nullptr) return 2;
      opt.workload.num_queries = static_cast<std::uint32_t>(std::atoi(v));
    } else if (a == "--tenants") {
      const char* v = need_value("--tenants");
      if (v == nullptr) return 2;
      opt.workload.num_tenants = static_cast<std::uint32_t>(std::atoi(v));
    } else if (a == "--seed") {
      const char* v = need_value("--seed");
      if (v == nullptr) return 2;
      opt.workload.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--rate") {
      const char* v = need_value("--rate");
      if (v == nullptr) return 2;
      opt.workload.arrival_rate_qps = std::atof(v);
    } else if (a == "--tenant-skew") {
      const char* v = need_value("--tenant-skew");
      if (v == nullptr) return 2;
      opt.workload.tenant_skew = std::atof(v);
    } else if (a == "--source-pool") {
      const char* v = need_value("--source-pool");
      if (v == nullptr) return 2;
      opt.workload.source_pool = static_cast<std::uint32_t>(std::atoi(v));
    } else if (a == "--batch-width") {
      const char* v = need_value("--batch-width");
      if (v == nullptr) return 2;
      opt.serve.batch_width = static_cast<std::uint32_t>(std::atoi(v));
    } else if (a == "--ppr-width") {
      const char* v = need_value("--ppr-width");
      if (v == nullptr) return 2;
      opt.serve.ppr_batch_width = static_cast<std::uint32_t>(std::atoi(v));
    } else if (a == "--devices") {
      const char* v = need_value("--devices");
      if (v == nullptr) return 2;
      opt.devices = std::atoi(v);
    } else if (a == "--policy") {
      const char* v = need_value("--policy");
      if (v == nullptr) return 2;
      try {
        opt.policy = partition::policy_from_string(v);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "sg_serve: %s\n", e.what());
        return 2;
      }
    } else if (a == "--async") {
      opt.async = true;
    } else if (a == "--report") {
      const char* v = need_value("--report");
      if (v == nullptr) return 2;
      opt.report_path = v;
    } else if (a == "--verify") {
      opt.verify = true;
    } else if (a == "--host-time") {
      opt.host_time = true;
    } else if (a == "--min-speedup") {
      const char* v = need_value("--min-speedup");
      if (v == nullptr) return 2;
      opt.min_speedup = std::atof(v);
    } else if (a == "--overload") {
      const char* v = need_value("--overload");
      if (v == nullptr) return 2;
      opt.overload = std::atof(v);
    } else if (a == "--brownout") {
      opt.serve.brownout.enabled = true;
    } else if (a == "--reshard") {
      const char* v = need_value("--reshard");
      if (v == nullptr) return 2;
      opt.serve.reshard.enabled = true;
      opt.serve.reshard.num_homes = static_cast<std::uint32_t>(std::atoi(v));
    } else if (a == "--lifecycle") {
      opt.serve.lifecycle.enabled = true;
    } else if (a == "--help" || a == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "sg_serve: unknown flag %s\n", a.c_str());
      return usage(argv[0]);
    }
  }
  if (opt.devices < 1 || opt.workload.num_queries == 0 ||
      opt.overload <= 0.0) {
    return usage(argv[0]);
  }
  opt.workload.arrival_rate_qps *= opt.overload;

  const graph::Csr& g = serve_graph();
  const fw::Prepared prep = fw::prepare(g, opt.policy, opt.devices);
  const sim::Topology topo = sim::Topology::bridges(opt.devices, 400.0);
  const sim::CostParams params = sim::CostParams::for_scaled_datasets();
  const engine::EngineConfig engine_cfg = engine::make_variant(
      opt.async ? engine::Variant::kVar4 : engine::Variant::kVar3);

  const std::vector<serve::Query> trace =
      serve::generate_workload(opt.workload, g.num_vertices());
  opt.serve.record_batches = opt.verify;
  serve::BatchScheduler sched(prep.dist, prep.sync, topo, params, engine_cfg,
                              opt.serve);
  const auto wall_start = std::chrono::steady_clock::now();
  const std::vector<serve::Answer> answers = sched.run(trace);
  const double host_wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - wall_start)
          .count();

  const serve::ServeReport& rep = sched.report();
  const serve::ResultCache::Stats& cs = sched.cache_stats();
  std::printf(
      "sg_serve: %llu queries, %zu tenants: admitted=%llu rejected=%llu "
      "served=%llu (cache %llu)\n",
      static_cast<unsigned long long>(rep.submitted), rep.tenants.size(),
      static_cast<unsigned long long>(rep.admitted),
      static_cast<unsigned long long>(rep.rejected),
      static_cast<unsigned long long>(rep.served),
      static_cast<unsigned long long>(rep.served_from_cache));
  std::printf(
      "sg_serve: engine runs=%llu sweeps=%llu lanes=%llu | cache h/m/e "
      "%llu/%llu/%llu | p50=%.1fus p99=%.1fus deadline-hit=%.3f\n",
      static_cast<unsigned long long>(rep.engine_runs),
      static_cast<unsigned long long>(rep.engine_sweeps),
      static_cast<unsigned long long>(rep.lanes_total),
      static_cast<unsigned long long>(cs.hits),
      static_cast<unsigned long long>(cs.misses),
      static_cast<unsigned long long>(cs.evictions), rep.p50_latency_us,
      rep.p99_latency_us, rep.deadline_hit_ratio);

  if (opt.host_time) {
    std::printf("sg_serve: host wall %.1f ms (%.0f queries/sec)\n",
                host_wall_ms,
                host_wall_ms > 0.0
                    ? static_cast<double>(rep.served) / (host_wall_ms / 1e3)
                    : 0.0);
  }
  const std::string report =
      sched.report_json(opt.host_time ? host_wall_ms : -1.0);
  if (opt.report_path.empty()) {
    std::printf("%s\n", report.c_str());
  } else {
    std::ofstream out(opt.report_path, std::ios::binary | std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "sg_serve: cannot write %s\n",
                   opt.report_path.c_str());
      return 2;
    }
    out.write(report.data(), static_cast<std::streamsize>(report.size()));
    out.put('\n');
  }

  if (!opt.verify) return 0;

  // 1. Every served answer must match the sequential oracle (msbfs
  //    lanes are bit-exact per source, so bfs-dist/khop answers must
  //    agree exactly; ppr scores within the documented tolerance).
  Oracle oracle(g, opt.serve.ppr_alpha, opt.serve.ppr_eps);
  std::uint64_t checked = 0;
  std::uint64_t degraded = 0;
  std::uint64_t wrong = 0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (!answers[i].served) continue;
    ++checked;
    std::string err;
    if (answers[i].degraded) {
      // Brownout approximation: must be tagged, must be an s-t distance
      // query, and the landmark triangle bound must hold — a finite
      // upper bound on the true distance (soundness, not exactness).
      ++degraded;
      const serve::Query& q = trace[i];
      const std::uint64_t truth =
          q.kind == serve::QueryKind::kBfsDist
              ? (oracle.bfs(q.source)[q.target] == algo::kInfDist
                     ? serve::kUnreachable
                     : oracle.bfs(q.source)[q.target])
          : q.kind == serve::QueryKind::kSsspDist
              ? oracle.sssp(q.source)[q.target]
              : serve::kUnreachable;
      if (q.kind != serve::QueryKind::kBfsDist &&
          q.kind != serve::QueryKind::kSsspDist) {
        err = "degraded answer on a non-distance query kind";
      } else if (answers[i].distance == serve::kUnreachable) {
        err = "degraded answer is not a finite bound";
      } else if (truth == serve::kUnreachable ||
                 answers[i].distance < truth) {
        err = "degraded bound " + std::to_string(answers[i].distance) +
              " below true distance " + std::to_string(truth);
      }
    } else {
      err = check_answer(trace[i], answers[i], oracle, opt.serve.ppr_eps);
    }
    if (!err.empty()) {
      ++wrong;
      if (wrong <= 10) {
        std::fprintf(stderr, "sg_serve: query %llu (tenant %u): %s\n",
                     static_cast<unsigned long long>(trace[i].id),
                     trace[i].tenant, err.c_str());
      }
    }
  }
  std::printf(
      "sg_serve: verified %llu served answers (%llu degraded bounds), "
      "%llu wrong\n",
      static_cast<unsigned long long>(checked),
      static_cast<unsigned long long>(degraded),
      static_cast<unsigned long long>(wrong));

  // 2. Sweep-reduction: replay every recorded batch one lane at a time
  //    through the single-query engine programs and compare total
  //    engine sweeps (global rounds).
  std::uint64_t unbatched_sweeps = 0;
  std::uint64_t batched_sweeps = 0;
  for (const serve::BatchRecord& b : sched.batches()) {
    batched_sweeps += b.rounds;
    for (const graph::VertexId s : b.lane_sources) {
      switch (b.klass) {
        case serve::QueryKind::kBfsDist:
          unbatched_sweeps += algo::run_bfs(prep.dist, prep.sync, topo,
                                            params, engine_cfg, s)
                                  .stats.global_rounds;
          break;
        case serve::QueryKind::kPprTopK:
          unbatched_sweeps +=
              algo::run_ppr(prep.dist, prep.sync, topo, params, engine_cfg,
                            s, opt.serve.ppr_alpha, opt.serve.ppr_eps)
                  .stats.global_rounds;
          break;
        default:
          unbatched_sweeps += algo::run_sssp(prep.dist, prep.sync, topo,
                                             params, engine_cfg, s)
                                  .stats.global_rounds;
          break;
      }
    }
  }
  const double speedup =
      batched_sweeps > 0 ? static_cast<double>(unbatched_sweeps) /
                               static_cast<double>(batched_sweeps)
                         : 0.0;
  std::printf("sg_serve: sweeps batched=%llu unbatched=%llu reduction=%.2fx "
              "(floor %.2fx)\n",
              static_cast<unsigned long long>(batched_sweeps),
              static_cast<unsigned long long>(unbatched_sweeps), speedup,
              opt.min_speedup);

  if (wrong > 0) {
    std::fprintf(stderr, "sg_serve: FAIL: %llu wrong answers\n",
                 static_cast<unsigned long long>(wrong));
    return 1;
  }
  if (speedup < opt.min_speedup) {
    std::fprintf(stderr,
                 "sg_serve: FAIL: sweep reduction %.2fx below floor %.2fx\n",
                 speedup, opt.min_speedup);
    return 1;
  }
  std::printf("sg_serve: verification passed\n");
  return 0;
}
