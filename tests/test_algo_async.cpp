// Bulk-asynchronous (BASP) correctness: despite stale reads and
// arbitrary message interleavings, monotone vertex programs must
// converge to the same fixpoint as the sequential references, on every
// partitioning policy. Also covers the asynchrony-throttle ablation knob
// and BASP-specific behavioural properties.
#include <gtest/gtest.h>

#include "algo/cc.hpp"
#include "algo/kcore.hpp"
#include "algo/min_dist.hpp"
#include "algo/pagerank.hpp"
#include "algo/reference.hpp"
#include "graph/datasets.hpp"
#include "graph/generators.hpp"
#include "helpers.hpp"

namespace sg {
namespace {

using test::cfg;
using test::params;
using test::PreparedGraph;
using test::topo;

graph::Csr testbed() {
  graph::SyntheticSpec s;
  s.vertices = 500;
  s.edges = 4000;
  s.zipf_out = 0.7;
  s.zipf_in = 0.8;
  s.hub_in_frac = 0.04;
  s.communities = 4;
  s.tail_length = 12;
  s.seed = 21;
  return graph::synthetic(s);
}

struct AsyncParam {
  partition::Policy policy;
  int devices;
};

std::string async_name(const testing::TestParamInfo<AsyncParam>& info) {
  return std::string(partition::to_string(info.param.policy)) + "_d" +
         std::to_string(info.param.devices);
}

std::vector<AsyncParam> async_grid() {
  std::vector<AsyncParam> grid;
  for (auto policy : test::all_policies()) {
    for (int devices : {2, 4, 8}) grid.push_back({policy, devices});
  }
  return grid;
}

class BaspSweep : public testing::TestWithParam<AsyncParam> {
 protected:
  engine::EngineConfig config() const {
    return cfg(engine::ExecModel::kAsync);
  }
};

TEST_P(BaspSweep, BfsConvergesToReference) {
  const auto g = testbed();
  const auto src = graph::datasets::default_source(g);
  PreparedGraph prep(g, GetParam().policy, GetParam().devices);
  const auto t = topo(GetParam().devices);
  const auto p = params();
  const auto r = algo::run_bfs(prep.dist, prep.sync, t, p, config(), src);
  EXPECT_EQ(r.dist, algo::reference::bfs(g, src));
}

TEST_P(BaspSweep, SsspConvergesToReference) {
  const auto g = graph::add_random_weights(testbed(), 1, 100, 5);
  const auto src = graph::datasets::default_source(g);
  PreparedGraph prep(g, GetParam().policy, GetParam().devices);
  const auto t = topo(GetParam().devices);
  const auto p = params();
  const auto r = algo::run_sssp(prep.dist, prep.sync, t, p, config(), src);
  EXPECT_EQ(r.dist, algo::reference::sssp(g, src));
}

TEST_P(BaspSweep, CcConvergesToReference) {
  const auto g = testbed();
  PreparedGraph prep(g, GetParam().policy, GetParam().devices);
  const auto t = topo(GetParam().devices);
  const auto p = params();
  const auto r = algo::run_cc(prep.dist, prep.sync, t, p, config());
  EXPECT_EQ(r.label, algo::reference::cc(g));
}

TEST_P(BaspSweep, KcoreConvergesToReference) {
  const auto g = testbed();
  PreparedGraph prep(g, GetParam().policy, GetParam().devices);
  const auto t = topo(GetParam().devices);
  const auto p = params();
  const auto r = algo::run_kcore(prep.dist, prep.sync, t, p, config(), 5);
  EXPECT_EQ(r.in_core, algo::reference::kcore(g, 5));
}

TEST_P(BaspSweep, PagerankConvergesToReference) {
  const auto g = testbed();
  PreparedGraph prep(g, GetParam().policy, GetParam().devices);
  const auto t = topo(GetParam().devices);
  const auto p = params();
  const float tol = 1e-6f;
  const auto r =
      algo::run_pagerank(prep.dist, prep.sync, t, p, config(), 0.85f, tol);
  const auto ref = algo::reference::pagerank(g, 0.85f, tol);
  ASSERT_EQ(r.rank.size(), ref.size());
  for (std::size_t v = 0; v < ref.size(); ++v) {
    EXPECT_NEAR(r.rank[v], ref[v], 5e-3f) << "vertex " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, BaspSweep,
                         testing::ValuesIn(async_grid()), async_name);

// ---- BASP-specific behaviour ---------------------------------------------

TEST(BaspBehaviour, ThrottledRunsStayCorrect) {
  const auto g = testbed();
  const auto src = graph::datasets::default_source(g);
  PreparedGraph prep(g, partition::Policy::CVC, 8);
  const auto t = topo(8);
  const auto p = params();
  const auto ref = algo::reference::bfs(g, src);
  for (std::uint32_t cap : {1u, 2u, 8u, 64u}) {
    auto c = cfg(engine::ExecModel::kAsync);
    c.async_lead_cap = cap;
    const auto r = algo::run_bfs(prep.dist, prep.sync, t, p, c, src);
    EXPECT_EQ(r.dist, ref) << "lead cap " << cap;
  }
}

TEST(BaspBehaviour, AsyncExecutesAtLeastAsMuchWorkAsBsp) {
  // BASP decouples devices; stale reads can only add redundant work
  // relative to the globally-gated BSP schedule (Section V-B4).
  const auto g = testbed();
  const auto src = graph::datasets::default_source(g);
  PreparedGraph prep(g, partition::Policy::IEC, 8);
  const auto t = topo(8);
  const auto p = params();
  const auto sync_run = algo::run_bfs(prep.dist, prep.sync, t, p,
                                      cfg(engine::ExecModel::kSync), src);
  const auto async_run = algo::run_bfs(prep.dist, prep.sync, t, p,
                                       cfg(engine::ExecModel::kAsync), src);
  EXPECT_GE(async_run.stats.total_work(), sync_run.stats.total_work());
}

TEST(BaspBehaviour, DeterministicAcrossRepeats) {
  const auto g = testbed();
  const auto src = graph::datasets::default_source(g);
  PreparedGraph prep(g, partition::Policy::HVC, 4);
  const auto t = topo(4);
  const auto p = params();
  const auto a = algo::run_bfs(prep.dist, prep.sync, t, p,
                               cfg(engine::ExecModel::kAsync), src);
  const auto b = algo::run_bfs(prep.dist, prep.sync, t, p,
                               cfg(engine::ExecModel::kAsync), src);
  EXPECT_EQ(a.dist, b.dist);
  EXPECT_EQ(a.stats.total_time.seconds(), b.stats.total_time.seconds());
  EXPECT_EQ(a.stats.total_work(), b.stats.total_work());
  EXPECT_EQ(a.stats.comm.total_volume(), b.stats.comm.total_volume());
}


TEST(BaspBehaviour, BusyPollStaysCorrectAndInflatesMinRounds) {
  const auto g = testbed();
  const auto src = graph::datasets::default_source(g);
  PreparedGraph prep(g, partition::Policy::IEC, 8);
  const auto t = topo(8);
  const auto p = params();
  auto parked = cfg(engine::ExecModel::kAsync);
  auto polled = parked;
  polled.async_busy_poll = true;
  const auto a = algo::run_bfs(prep.dist, prep.sync, t, p, parked, src);
  const auto b = algo::run_bfs(prep.dist, prep.sync, t, p, polled, src);
  EXPECT_EQ(a.dist, b.dist);
  // Idle churn can only add local rounds; the straggler-decoupling
  // metric the paper reports (min local rounds) inflates.
  EXPECT_GE(b.stats.min_rounds(), a.stats.min_rounds());
  EXPECT_GT(b.stats.max_rounds(), a.stats.max_rounds());
}

TEST(BaspBehaviour, OrkutAnalogueConverges) {
  const auto g = graph::datasets::make("orkut");
  const auto src = graph::datasets::default_source(g);
  PreparedGraph prep(g, partition::Policy::CVC, 6);
  const auto t = topo(6);
  const auto p = params();
  const auto r = algo::run_bfs(prep.dist, prep.sync, t, p,
                               cfg(engine::ExecModel::kAsync), src);
  EXPECT_EQ(r.dist, algo::reference::bfs(g, src));
}

}  // namespace
}  // namespace sg
