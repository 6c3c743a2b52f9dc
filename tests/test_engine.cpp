// Engine-layer tests: load-balancer kernel schedules, config variants,
// run statistics, memory charging / OOM propagation, and executor-level
// behavioural properties that the algorithm sweeps do not isolate.
#include <gtest/gtest.h>

#include "algo/min_dist.hpp"
#include "algo/pagerank.hpp"
#include "algo/reference.hpp"
#include "engine/config.hpp"
#include "engine/executor.hpp"
#include "engine/load_balancer.hpp"
#include "graph/datasets.hpp"
#include "graph/generators.hpp"
#include "helpers.hpp"
#include "sim/device_memory.hpp"

namespace sg::engine {
namespace {

using test::cfg;
using test::params;
using test::PreparedGraph;

// ---- analyze_kernel ---------------------------------------------------------

TEST(LoadBalancerT, EmptyWorkIsEmptySchedule) {
  const auto s = analyze_kernel({}, sim::Balancer::TWC, 224);
  EXPECT_EQ(s.total_edges, 0u);
  EXPECT_EQ(s.active_vertices, 0u);
  EXPECT_EQ(s.max_block_edges, 0u);
}

TEST(LoadBalancerT, TwcKeepsHugeVertexInOneBlock) {
  // 1 vertex with 100k edges + 223 unit vertices: the hub's block
  // dominates under TWC.
  std::vector<std::uint32_t> work(224, 1);
  work[0] = 100000;
  const auto s = analyze_kernel(work, sim::Balancer::TWC, 224);
  EXPECT_GE(s.max_block_edges, 100000u);
  EXPECT_FALSE(s.alb_split);
}

TEST(LoadBalancerT, AlbSplitsHugeVertexAcrossBlocks) {
  std::vector<std::uint32_t> work(224, 1);
  work[0] = 100000;
  const auto s = analyze_kernel(work, sim::Balancer::ALB, 224);
  EXPECT_TRUE(s.alb_split);
  // ~100224/224 edges per block after splitting.
  EXPECT_LT(s.max_block_edges, 2000u);
  EXPECT_EQ(s.total_edges, 100223u);
}

TEST(LoadBalancerT, UniformWorkIsBalancedUnderBoth) {
  std::vector<std::uint32_t> work(2240, 10);
  const auto twc = analyze_kernel(work, sim::Balancer::TWC, 224);
  const auto alb = analyze_kernel(work, sim::Balancer::ALB, 224);
  EXPECT_EQ(twc.max_block_edges, 100u);
  EXPECT_EQ(alb.max_block_edges, 100u);
  EXPECT_FALSE(alb.alb_split);
}

TEST(LoadBalancerT, FewerItemsThanBlocks) {
  std::vector<std::uint32_t> work = {7, 9, 3};
  const auto s = analyze_kernel(work, sim::Balancer::TWC, 224);
  EXPECT_EQ(s.max_block_edges, 9u);
  EXPECT_EQ(s.total_edges, 19u);
}

// ---- config variants ----------------------------------------------------------

TEST(Variants, MatchPaperDefinitions) {
  const auto v1 = make_variant(Variant::kVar1);
  EXPECT_EQ(v1.balancer, sim::Balancer::TWC);
  EXPECT_EQ(v1.sync_mode, comm::SyncMode::kAS);
  EXPECT_EQ(v1.exec_model, ExecModel::kSync);

  const auto v2 = make_variant(Variant::kVar2);
  EXPECT_EQ(v2.balancer, sim::Balancer::ALB);
  EXPECT_EQ(v2.sync_mode, comm::SyncMode::kAS);
  EXPECT_EQ(v2.exec_model, ExecModel::kSync);

  const auto v3 = make_variant(Variant::kVar3);
  EXPECT_EQ(v3.sync_mode, comm::SyncMode::kUO);
  EXPECT_EQ(v3.exec_model, ExecModel::kSync);

  const auto v4 = make_variant(Variant::kVar4);
  EXPECT_EQ(v4.sync_mode, comm::SyncMode::kUO);
  EXPECT_EQ(v4.exec_model, ExecModel::kAsync);
  EXPECT_EQ(to_string(Variant::kVar4), "Var4");
}

// ---- RunStats -------------------------------------------------------------------

TEST(RunStatsT, AggregatesAreComputedOverDevices) {
  RunStats st;
  st.resize(3);
  st.compute_time = {sim::SimTime{1.0}, sim::SimTime{3.0}, sim::SimTime{2.0}};
  st.wait_time = {sim::SimTime{0.5}, sim::SimTime{0.2}, sim::SimTime{0.9}};
  st.device_comm_time = {sim::SimTime{0.1}, sim::SimTime{0.4},
                         sim::SimTime{0.2}};
  st.work_items = {10, 20, 30};
  st.rounds = {5, 7, 6};
  st.peak_memory = {100, 300, 200};
  EXPECT_DOUBLE_EQ(st.max_compute().seconds(), 3.0);
  EXPECT_DOUBLE_EQ(st.min_wait().seconds(), 0.2);
  EXPECT_DOUBLE_EQ(st.max_device_comm().seconds(), 0.4);
  EXPECT_EQ(st.total_work(), 60u);
  EXPECT_EQ(st.min_rounds(), 5u);
  EXPECT_EQ(st.max_rounds(), 7u);
  EXPECT_EQ(st.max_memory(), 300u);
  EXPECT_DOUBLE_EQ(st.dynamic_balance(), 1.5);
  EXPECT_DOUBLE_EQ(st.memory_balance(), 1.5);
}

// ---- memory charging / OOM -------------------------------------------------------

TEST(ExecutorMemory, TinyDevicesOomAndReportTheDevice) {
  const auto g = graph::datasets::make("orkut");
  PreparedGraph prep(g, partition::Policy::OEC, 2);
  // A scale factor so large that per-device capacity is a few KB.
  const auto tiny = sim::Topology::bridges(2, 5e6);
  const auto p = params();
  EXPECT_THROW(
      algo::run_bfs(prep.dist, prep.sync, tiny, p,
                    cfg(ExecModel::kSync), 0),
      sim::OutOfDeviceMemory);
}

TEST(ExecutorMemory, PeakMemoryGrowsWithReplication) {
  const auto g = graph::datasets::make("orkut");
  const auto t = test::topo(4);
  const auto p = params();
  PreparedGraph oec(g, partition::Policy::OEC, 4);
  PreparedGraph rnd(g, partition::Policy::RANDOM, 4);
  const auto src = graph::datasets::default_source(g);
  const auto a = algo::run_bfs(oec.dist, oec.sync, t, p,
                               cfg(ExecModel::kSync), src);
  const auto b = algo::run_bfs(rnd.dist, rnd.sync, t, p,
                               cfg(ExecModel::kSync), src);
  EXPECT_LT(a.stats.max_memory(), b.stats.max_memory());
}

TEST(ExecutorMemory, StaticPoolSetsFlatPeak) {
  const auto g = graph::datasets::make("rmat23");
  PreparedGraph prep(g, partition::Policy::IEC, 2);
  const auto t = test::topo(2);
  const auto p = params();
  auto c = cfg(ExecModel::kSync, comm::SyncMode::kAS);
  c.static_pool_bytes = t.min_device_memory() / 2;
  const auto r = algo::run_bfs(prep.dist, prep.sync, t, p, c, 0);
  for (auto peak : r.stats.peak_memory) {
    EXPECT_EQ(peak, c.static_pool_bytes);
  }
}

TEST(ExecutorMemory, MismatchedTopologyIsRejected) {
  const auto g = graph::path_graph(16);
  PreparedGraph prep(g, partition::Policy::OEC, 4);
  const auto t = test::topo(2);
  const auto p = params();
  EXPECT_THROW(algo::run_bfs(prep.dist, prep.sync, t, p,
                             cfg(ExecModel::kSync), 0),
               std::invalid_argument);
}

// ---- executor behaviour ------------------------------------------------------------

TEST(ExecutorBehaviour, UoNeverSendsMoreVolumeThanAs) {
  const auto g = graph::datasets::make("orkut");
  const auto src = graph::datasets::default_source(g);
  PreparedGraph prep(g, partition::Policy::IEC, 8);
  const auto t = test::topo(8);
  const auto p = params();
  const auto uo = algo::run_bfs(prep.dist, prep.sync, t, p,
                                cfg(ExecModel::kSync, comm::SyncMode::kUO),
                                src);
  const auto as = algo::run_bfs(prep.dist, prep.sync, t, p,
                                cfg(ExecModel::kSync, comm::SyncMode::kAS),
                                src);
  EXPECT_LT(uo.stats.comm.total_volume(), as.stats.comm.total_volume());
  EXPECT_EQ(uo.dist, as.dist);
}

TEST(ExecutorBehaviour, StructuralOptElisionReducesVolume) {
  // Under OEC + push pattern, structural-invariant elision removes the
  // entire broadcast direction; disabling it (Lux-style) must cost more.
  const auto g = graph::datasets::make("orkut");
  const auto src = graph::datasets::default_source(g);
  PreparedGraph prep(g, partition::Policy::OEC, 8);
  const auto t = test::topo(8);
  const auto p = params();
  auto with = cfg(ExecModel::kSync, comm::SyncMode::kAS);
  auto without = with;
  without.structural_opt = false;
  const auto a = algo::run_bfs(prep.dist, prep.sync, t, p, with, src);
  const auto b = algo::run_bfs(prep.dist, prep.sync, t, p, without, src);
  EXPECT_LT(a.stats.comm.total_volume(), b.stats.comm.total_volume());
  EXPECT_EQ(a.dist, b.dist);
}

TEST(ExecutorBehaviour, SingleDeviceHasNoCommunication) {
  const auto g = graph::datasets::make("rmat23");
  PreparedGraph prep(g, partition::Policy::OEC, 1);
  const auto t = test::topo(1);
  const auto p = params();
  const auto r = algo::run_bfs(prep.dist, prep.sync, t, p,
                               cfg(ExecModel::kSync),
                               graph::datasets::default_source(g));
  EXPECT_EQ(r.stats.comm.messages, 0u);
  EXPECT_EQ(r.stats.comm.total_volume(), 0u);
  EXPECT_DOUBLE_EQ(r.stats.max_device_comm().seconds(), 0.0);
}

TEST(ExecutorBehaviour, TimeAdvancesAndBreakdownIsConsistent) {
  const auto g = graph::datasets::make("orkut");
  PreparedGraph prep(g, partition::Policy::CVC, 8);
  const auto t = test::topo(8);
  const auto p = params();
  const auto r = algo::run_bfs(prep.dist, prep.sync, t, p,
                               cfg(ExecModel::kSync),
                               graph::datasets::default_source(g));
  EXPECT_GT(r.stats.total_time.seconds(), 0.0);
  EXPECT_GT(r.stats.max_compute().seconds(), 0.0);
  // Each per-device timeline component must fit inside the total.
  for (int d = 0; d < 8; ++d) {
    const double sum = r.stats.compute_time[d].seconds() +
                       r.stats.device_comm_time[d].seconds() +
                       r.stats.wait_time[d].seconds();
    EXPECT_LE(r.stats.compute_time[d].seconds(),
              r.stats.total_time.seconds() + 1e-12);
    EXPECT_LE(sum, r.stats.total_time.seconds() * 1.05 + 1e-9);
  }
}

TEST(ExecutorBehaviour, FixedRoundsRunsExactlyThatManyRounds) {
  const auto g = graph::datasets::make("rmat23");
  PreparedGraph prep(g, partition::Policy::IEC, 4);
  const auto t = test::topo(4);
  const auto p = params();
  auto c = cfg(ExecModel::kSync, comm::SyncMode::kAS);
  c.fixed_rounds = 7;
  const auto r = algo::run_pagerank_lux(prep.dist, prep.sync, t, p, c);
  EXPECT_EQ(r.stats.global_rounds, 7u);
}

TEST(ExecutorBehaviour, BaspTotalTimeBoundedByDeviceTimelines) {
  const auto g = graph::datasets::make("orkut");
  PreparedGraph prep(g, partition::Policy::CVC, 8);
  const auto t = test::topo(8);
  const auto p = params();
  const auto r = algo::run_bfs(prep.dist, prep.sync, t, p,
                               cfg(ExecModel::kAsync),
                               graph::datasets::default_source(g));
  for (int d = 0; d < 8; ++d) {
    const double busy = r.stats.compute_time[d].seconds() +
                        r.stats.device_comm_time[d].seconds() +
                        r.stats.wait_time[d].seconds();
    EXPECT_LE(busy, r.stats.total_time.seconds() * 1.05 + 1e-9);
  }
  EXPECT_GT(r.stats.global_rounds, 0u);
}

TEST(ExecutorBehaviour, AlbBeatsTwcOnHugeInDegreePull) {
  // The Section V-B2 result: pull-style pagerank on an input with a huge
  // max in-degree is thread-block imbalanced under TWC; ALB fixes it.
  const auto g = graph::datasets::make("clueweb12");
  PreparedGraph prep(g, partition::Policy::IEC, 8);
  const auto t = test::topo(8);
  const auto p = params();
  const auto twc = algo::run_pagerank(
      prep.dist, prep.sync, t, p,
      cfg(ExecModel::kSync, comm::SyncMode::kAS, sim::Balancer::TWC));
  const auto alb = algo::run_pagerank(
      prep.dist, prep.sync, t, p,
      cfg(ExecModel::kSync, comm::SyncMode::kAS, sim::Balancer::ALB));
  EXPECT_LT(alb.stats.max_compute().seconds(),
            twc.stats.max_compute().seconds() * 0.8);
}


// ---- Section VII projected improvements -------------------------------------

TEST(FutureOptimizations, GpudirectPreservesResultsAndCutsCommTime) {
  const auto g = graph::datasets::make("orkut");
  const auto src = graph::datasets::default_source(g);
  PreparedGraph prep(g, partition::Policy::CVC, 8);
  const auto t = test::topo(8);
  auto base = params();
  auto direct = params();
  direct.gpudirect = true;
  const auto a = algo::run_bfs(prep.dist, prep.sync, t, base,
                               cfg(ExecModel::kSync), src);
  const auto b = algo::run_bfs(prep.dist, prep.sync, t, direct,
                               cfg(ExecModel::kSync), src);
  EXPECT_EQ(a.dist, b.dist);
  EXPECT_LT(b.stats.max_device_comm().seconds(),
            a.stats.max_device_comm().seconds());
  EXPECT_LE(b.stats.total_time.seconds(), a.stats.total_time.seconds());
}

TEST(FutureOptimizations, OverlapPreservesResultsAndNeverSlowsDown) {
  const auto g = graph::datasets::make("orkut");
  const auto src = graph::datasets::default_source(g);
  PreparedGraph prep(g, partition::Policy::IEC, 8);
  const auto t = test::topo(8);
  const auto p = params();
  for (auto model : {ExecModel::kSync, ExecModel::kAsync}) {
    auto plain = cfg(model);
    auto overlapped = cfg(model);
    overlapped.overlap_comm = true;
    const auto a = algo::run_bfs(prep.dist, prep.sync, t, p, plain, src);
    const auto b = algo::run_bfs(prep.dist, prep.sync, t, p, overlapped,
                                 src);
    EXPECT_EQ(a.dist, b.dist);
    if (model == ExecModel::kSync) {
      // Identical message contents and schedule apart from pipelining:
      // the overlapped run can only be faster under BSP.
      EXPECT_LE(b.stats.total_time.seconds(),
                a.stats.total_time.seconds() + 1e-12);
    }
  }
}


TEST(ExecutorBehaviour, TraceCollectsPerRoundActivity) {
  const auto g = graph::datasets::make("orkut");
  const auto src = graph::datasets::default_source(g);
  PreparedGraph prep(g, partition::Policy::IEC, 4);
  const auto t = test::topo(4);
  const auto p = params();
  auto c = cfg(ExecModel::kSync);
  c.collect_trace = true;
  const auto r = algo::run_bfs(prep.dist, prep.sync, t, p, c, src);
  ASSERT_EQ(r.stats.trace.size(), r.stats.global_rounds);
  std::uint64_t traced_edges = 0, traced_volume = 0;
  for (const auto& tr : r.stats.trace) {
    traced_edges += tr.edges;
    traced_volume += tr.volume_bytes;
  }
  EXPECT_EQ(traced_edges, r.stats.total_work());
  EXPECT_EQ(traced_volume, r.stats.comm.total_volume());
  // Without the flag the trace stays empty.
  const auto r2 = algo::run_bfs(prep.dist, prep.sync, t, p,
                                cfg(ExecModel::kSync), src);
  EXPECT_TRUE(r2.stats.trace.empty());
}

}  // namespace
}  // namespace sg::engine
