// End-to-end integration: full pipeline (generate -> partition -> sync
// -> execute -> gather) on the paper's medium analogues at multi-host
// scale, cross-variant agreement, deterministic repeats, and the
// OOM-as-missing-point behaviour on large analogues.
#include <gtest/gtest.h>

#include "algo/cc.hpp"
#include "algo/kcore.hpp"
#include "algo/min_dist.hpp"
#include "algo/pagerank.hpp"
#include "algo/reference.hpp"
#include "fw/benchmark.hpp"
#include "fw/dirgl.hpp"
#include "graph/datasets.hpp"
#include "helpers.hpp"
#include "sim/device_memory.hpp"

namespace sg {
namespace {

using test::cfg;
using test::params;
using test::PreparedGraph;
using test::topo;

TEST(Integration, MediumAnalogueAllVariantsBfsAt16Gpus) {
  const auto g = graph::datasets::make("twitter50");
  const auto src = graph::datasets::default_source(g);
  const auto ref = algo::reference::bfs(g, src);
  PreparedGraph prep(g, partition::Policy::IEC, 16);
  const auto t = topo(16);
  const auto p = params();
  for (auto v : {engine::Variant::kVar1, engine::Variant::kVar2,
                 engine::Variant::kVar3, engine::Variant::kVar4}) {
    const auto r = algo::run_bfs(prep.dist, prep.sync, t, p,
                                 engine::make_variant(v), src);
    EXPECT_EQ(r.dist, ref) << engine::to_string(v);
    EXPECT_GT(r.stats.total_time.seconds(), 0.0);
  }
}

TEST(Integration, MediumAnalogueAllPoliciesSsspAt16Gpus) {
  const auto g = graph::datasets::make_weighted("friendster");
  const auto src = graph::datasets::default_source(g);
  const auto ref = algo::reference::sssp(g, src);
  const auto t = topo(16);
  const auto p = params();
  for (auto policy :
       {partition::Policy::OEC, partition::Policy::IEC,
        partition::Policy::HVC, partition::Policy::CVC}) {
    PreparedGraph prep(g, policy, 16);
    const auto r = algo::run_sssp(prep.dist, prep.sync, t, p,
                                  cfg(engine::ExecModel::kAsync), src);
    EXPECT_EQ(r.dist, ref) << partition::to_string(policy);
  }
}

TEST(Integration, HighDiameterAnalogueBfsBothModels) {
  const auto g = graph::datasets::make("uk07");
  const auto src = graph::datasets::default_source(g);
  const auto ref = algo::reference::bfs(g, src);
  PreparedGraph prep(g, partition::Policy::CVC, 8);
  const auto t = topo(8);
  const auto p = params();
  const auto s = algo::run_bfs(prep.dist, prep.sync, t, p,
                               cfg(engine::ExecModel::kSync), src);
  const auto a = algo::run_bfs(prep.dist, prep.sync, t, p,
                               cfg(engine::ExecModel::kAsync), src);
  EXPECT_EQ(s.dist, ref);
  EXPECT_EQ(a.dist, ref);
  // High diameter => many rounds in both models.
  EXPECT_GT(s.stats.global_rounds, 40u);
}

TEST(Integration, RunsAreFullyDeterministic) {
  const auto g = graph::datasets::make("twitter50");
  const auto t = topo(8);
  const auto p = params();
  auto run_once = [&] {
    PreparedGraph prep(g, partition::Policy::CVC, 8);
    return algo::run_pagerank(prep.dist, prep.sync, t, p,
                              cfg(engine::ExecModel::kSync));
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.rank, b.rank);
  EXPECT_EQ(a.stats.total_time.seconds(), b.stats.total_time.seconds());
  EXPECT_EQ(a.stats.comm.total_volume(), b.stats.comm.total_volume());
  EXPECT_EQ(a.stats.total_work(), b.stats.total_work());
}

TEST(Integration, ScalingOutReducesPerDeviceMemory) {
  const auto g = graph::datasets::make("friendster");
  const auto p = params();
  const auto src = graph::datasets::default_source(g);
  std::uint64_t prev = ~0ull;
  for (int d : {4, 16, 64}) {
    PreparedGraph prep(g, partition::Policy::CVC, d);
    const auto r = algo::run_bfs(prep.dist, prep.sync, topo(d), p,
                                 cfg(engine::ExecModel::kSync), src);
    EXPECT_LT(r.stats.max_memory(), prev);
    prev = r.stats.max_memory();
  }
}

TEST(Integration, LargeAnalogueOomsOnFewDevicesRunsOnMany) {
  // The paper's Figure 9 phenomenon: large inputs fit only when spread
  // across enough GPUs; a failed point is an OutOfDeviceMemory.
  const auto g = graph::datasets::make("uk14");
  const auto p = params();
  const auto src = graph::datasets::default_source(g);
  const double tight_scale = 4000.0;  // P100 capacity ~4.2 MB

  PreparedGraph small(g, partition::Policy::OEC, 2);
  EXPECT_THROW(algo::run_bfs(small.dist, small.sync,
                             sim::Topology::bridges(2, tight_scale), p,
                             cfg(engine::ExecModel::kSync), src),
               sim::OutOfDeviceMemory);

  PreparedGraph large(g, partition::Policy::OEC, 64);
  const auto r = algo::run_bfs(large.dist, large.sync,
                               sim::Topology::bridges(64, tight_scale), p,
                               cfg(engine::ExecModel::kSync), src);
  EXPECT_EQ(r.dist, algo::reference::bfs(g, src));
}

TEST(Integration, FacadeReportsOomAsFailedRunNotException) {
  const auto g = graph::datasets::make("uk14");
  const auto prep = fw::prepare(g, partition::Policy::OEC, 2);
  const auto r =
      fw::DIrGL::run(fw::Benchmark::kBfs, prep,
                     sim::Topology::bridges(2, 4000.0), params(),
                     fw::DIrGL::default_config());
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("out of device memory"), std::string::npos);
}

TEST(Integration, CvcWinsAtScaleOnCc) {
  // The core claim behind Figure 7/8: at >= 16 GPUs CVC's restricted
  // communication partners (grid row + column) win on execution time
  // and message count.
  const auto g = graph::datasets::make("twitter50");
  const auto p = params();
  const auto t = topo(32);
  auto run_policy = [&](partition::Policy policy) {
    PreparedGraph prep(g, policy, 32);
    return algo::run_cc(prep.dist, prep.sync, t, p,
                        cfg(engine::ExecModel::kAsync));
  };
  const auto cvc = run_policy(partition::Policy::CVC);
  const auto hvc = run_policy(partition::Policy::HVC);
  const auto iec = run_policy(partition::Policy::IEC);
  EXPECT_LT(cvc.stats.total_time.seconds(), hvc.stats.total_time.seconds());
  EXPECT_LT(cvc.stats.total_time.seconds(), iec.stats.total_time.seconds());
  EXPECT_LT(cvc.stats.comm.messages, iec.stats.comm.messages);
}

TEST(Integration, KcoreAndCcAgreeAcrossModelsOnMediumInput) {
  const auto g = graph::datasets::make("uk07");
  PreparedGraph prep(g, partition::Policy::HVC, 8);
  const auto t = topo(8);
  const auto p = params();
  const auto kc_ref = algo::reference::kcore(g, 10);
  const auto cc_ref = algo::reference::cc(g);
  for (auto model : {engine::ExecModel::kSync, engine::ExecModel::kAsync}) {
    EXPECT_EQ(
        algo::run_kcore(prep.dist, prep.sync, t, p, cfg(model), 10).in_core,
        kc_ref);
    EXPECT_EQ(algo::run_cc(prep.dist, prep.sync, t, p, cfg(model)).label,
              cc_ref);
  }
}

TEST(Integration, WaitTimeDominatesForStragglersUnderBsp) {
  // Give one device a deliberately imbalanced partition via HVC on a
  // hub-heavy graph; in BSP everyone else must wait at the barrier, so
  // aggregate wait is nonzero.
  const auto g = graph::datasets::make("twitter50");
  PreparedGraph prep(g, partition::Policy::HVC, 16);
  const auto t = topo(16);
  const auto p = params();
  const auto r =
      algo::run_pagerank(prep.dist, prep.sync, t, p,
                         cfg(engine::ExecModel::kSync, comm::SyncMode::kAS));
  double total_wait = 0;
  for (auto w : r.stats.wait_time) total_wait += w.seconds();
  EXPECT_GT(total_wait, 0.0);
}

}  // namespace
}  // namespace sg
