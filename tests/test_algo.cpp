// Distributed-vs-reference correctness sweeps under BSP execution:
// every benchmark, every partitioning policy, several device counts,
// both sync modes. These are the core invariant tests of the library —
// partitioning and synchronization must never change algorithm results.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>
#include <vector>

#include "algo/cc.hpp"
#include "algo/dobfs.hpp"
#include "algo/kcore.hpp"
#include "algo/min_dist.hpp"
#include "algo/pagerank.hpp"
#include "algo/reference.hpp"
#include "algo/results.hpp"
#include "graph/datasets.hpp"
#include "graph/generators.hpp"
#include "helpers.hpp"

namespace sg {
namespace {

using test::cfg;
using test::params;
using test::PreparedGraph;
using test::topo;

graph::Csr small_social() {
  graph::SyntheticSpec s;
  s.vertices = 600;
  s.edges = 5000;
  s.zipf_out = 0.7;
  s.zipf_in = 0.8;
  s.hub_in_frac = 0.05;
  s.communities = 3;
  s.seed = 7;
  return graph::synthetic(s);
}

struct SweepParam {
  partition::Policy policy;
  int devices;
  comm::SyncMode mode;
};

std::string sweep_name(const testing::TestParamInfo<SweepParam>& info) {
  return std::string(partition::to_string(info.param.policy)) + "_d" +
         std::to_string(info.param.devices) + "_" +
         comm::to_string(info.param.mode);
}

std::vector<SweepParam> sweep_grid() {
  std::vector<SweepParam> grid;
  for (auto policy : test::all_policies()) {
    for (int devices : {1, 2, 4, 8}) {
      for (auto mode : {comm::SyncMode::kUO, comm::SyncMode::kAS}) {
        grid.push_back({policy, devices, mode});
      }
    }
  }
  return grid;
}

class BspSweep : public testing::TestWithParam<SweepParam> {
 protected:
  engine::EngineConfig config() const {
    return cfg(engine::ExecModel::kSync, GetParam().mode);
  }
};

TEST_P(BspSweep, BfsMatchesReference) {
  const auto g = small_social();
  const auto src = graph::datasets::default_source(g);
  PreparedGraph prep(g, GetParam().policy, GetParam().devices);
  const auto t = topo(GetParam().devices);
  const auto p = params();
  const auto result =
      algo::run_bfs(prep.dist, prep.sync, t, p, config(), src);
  EXPECT_EQ(result.dist, algo::reference::bfs(g, src));
}

TEST_P(BspSweep, SsspMatchesReference) {
  const auto g = graph::add_random_weights(small_social(), 1, 100, 99);
  const auto src = graph::datasets::default_source(g);
  PreparedGraph prep(g, GetParam().policy, GetParam().devices);
  const auto t = topo(GetParam().devices);
  const auto p = params();
  const auto result =
      algo::run_sssp(prep.dist, prep.sync, t, p, config(), src);
  EXPECT_EQ(result.dist, algo::reference::sssp(g, src));
}

TEST_P(BspSweep, CcMatchesReference) {
  const auto g = small_social();
  PreparedGraph prep(g, GetParam().policy, GetParam().devices);
  const auto t = topo(GetParam().devices);
  const auto p = params();
  const auto result = algo::run_cc(prep.dist, prep.sync, t, p, config());
  EXPECT_EQ(result.label, algo::reference::cc(g));
}

TEST_P(BspSweep, KcoreMatchesReference) {
  const auto g = small_social();
  PreparedGraph prep(g, GetParam().policy, GetParam().devices);
  const auto t = topo(GetParam().devices);
  const auto p = params();
  for (std::uint32_t k : {3u, 8u}) {
    const auto result =
        algo::run_kcore(prep.dist, prep.sync, t, p, config(), k);
    EXPECT_EQ(result.in_core, algo::reference::kcore(g, k))
        << "k = " << k;
  }
}

TEST_P(BspSweep, PagerankMatchesReference) {
  const auto g = small_social();
  PreparedGraph prep(g, GetParam().policy, GetParam().devices);
  const auto t = topo(GetParam().devices);
  const auto p = params();
  const float tol = 1e-6f;
  const auto result =
      algo::run_pagerank(prep.dist, prep.sync, t, p, config(), 0.85f, tol);
  const auto ref = algo::reference::pagerank(g, 0.85f, tol);
  ASSERT_EQ(result.rank.size(), ref.size());
  for (std::size_t v = 0; v < ref.size(); ++v) {
    EXPECT_NEAR(result.rank[v], ref[v], 2e-3f) << "vertex " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, BspSweep,
                         testing::ValuesIn(sweep_grid()), sweep_name);

// ---- shape-specific checks ----------------------------------------------

TEST(AlgoShapes, BfsOnPathHasLinearDistances) {
  const auto g = graph::path_graph(64, /*bidirectional=*/false);
  PreparedGraph prep(g, partition::Policy::OEC, 4);
  const auto t = topo(4);
  const auto p = params();
  const auto r = algo::run_bfs(prep.dist, prep.sync, t, p,
                               cfg(engine::ExecModel::kSync), 0);
  for (graph::VertexId v = 0; v < 64; ++v) {
    EXPECT_EQ(r.dist[v], v);
  }
  // A path processed one level per BSP round: rounds ~ diameter.
  EXPECT_GE(r.stats.global_rounds, 60u);
}

TEST(AlgoShapes, BfsUnreachableVerticesStayInfinite) {
  // Two disjoint directed stars.
  std::vector<graph::Edge> edges;
  for (graph::VertexId v = 1; v < 8; ++v) edges.push_back({0, v, 1});
  for (graph::VertexId v = 9; v < 16; ++v) edges.push_back({8, v, 1});
  const auto g = graph::build_csr(std::move(edges), 16);
  PreparedGraph prep(g, partition::Policy::CVC, 4);
  const auto t = topo(4);
  const auto p = params();
  const auto r = algo::run_bfs(prep.dist, prep.sync, t, p,
                               cfg(engine::ExecModel::kSync), 0);
  EXPECT_EQ(r.dist[3], 1u);
  EXPECT_EQ(r.dist[8], algo::kInfDist);
  EXPECT_EQ(r.dist[12], algo::kInfDist);
}

TEST(AlgoShapes, CcFindsBothComponentsOfDisjointCycles) {
  std::vector<graph::Edge> edges;
  for (graph::VertexId v = 0; v < 10; ++v) edges.push_back({v, (v + 1) % 10, 1});
  for (graph::VertexId v = 10; v < 20; ++v) {
    edges.push_back({v, v + 1 == 20 ? 10 : v + 1, 1});
  }
  const auto g = graph::build_csr(std::move(edges), 20);
  PreparedGraph prep(g, partition::Policy::HVC, 4);
  const auto t = topo(4);
  const auto p = params();
  const auto r =
      algo::run_cc(prep.dist, prep.sync, t, p, cfg(engine::ExecModel::kSync));
  for (graph::VertexId v = 0; v < 10; ++v) EXPECT_EQ(r.label[v], 0u);
  for (graph::VertexId v = 10; v < 20; ++v) EXPECT_EQ(r.label[v], 10u);
}

TEST(AlgoShapes, KcoreOnCompleteGraphKeepsEverything) {
  const auto g = graph::complete_graph(12);  // undirected degree 22
  PreparedGraph prep(g, partition::Policy::IEC, 3);
  const auto t = topo(3);
  const auto p = params();
  const auto r = algo::run_kcore(prep.dist, prep.sync, t, p,
                                 cfg(engine::ExecModel::kSync), 20);
  for (auto c : r.in_core) EXPECT_EQ(c, 1);
  const auto r2 = algo::run_kcore(prep.dist, prep.sync, t, p,
                                  cfg(engine::ExecModel::kSync), 23);
  for (auto c : r2.in_core) EXPECT_EQ(c, 0);
}

TEST(AlgoShapes, KcorePeelingCascades) {
  // A 4-clique with a pendant chain: k=3 keeps only the clique.
  std::vector<graph::Edge> edges;
  for (graph::VertexId u = 0; u < 4; ++u) {
    for (graph::VertexId v = 0; v < 4; ++v) {
      if (u != v) edges.push_back({u, v, 1});
    }
  }
  edges.push_back({3, 4, 1});
  edges.push_back({4, 5, 1});
  const auto g = graph::build_csr(std::move(edges), 6);
  PreparedGraph prep(g, partition::Policy::OEC, 2);
  const auto t = topo(2);
  const auto p = params();
  const auto r = algo::run_kcore(prep.dist, prep.sync, t, p,
                                 cfg(engine::ExecModel::kSync), 6);
  EXPECT_EQ(r.in_core, algo::reference::kcore(g, 6));
}

TEST(AlgoShapes, PagerankStarConcentratesRankAtCenter) {
  const auto g = graph::star_graph(50, /*out=*/false);  // leaves -> center
  PreparedGraph prep(g, partition::Policy::CVC, 4);
  const auto t = topo(4);
  const auto p = params();
  const auto r = algo::run_pagerank(prep.dist, prep.sync, t, p,
                                    cfg(engine::ExecModel::kSync));
  for (graph::VertexId v = 1; v <= 50; ++v) {
    EXPECT_GT(r.rank[0], r.rank[v]);
  }
}

TEST(AlgoShapes, SsspRespectsWeightsOverHops) {
  // 0 -> 1 -> 2 cheap; 0 -> 2 expensive direct edge.
  std::vector<graph::Edge> edges = {{0, 1, 1}, {1, 2, 1}, {0, 2, 10}};
  const auto g = graph::build_csr(std::move(edges), 3, /*weighted=*/true);
  PreparedGraph prep(g, partition::Policy::IEC, 2);
  const auto t = topo(2);
  const auto p = params();
  const auto c = cfg(engine::ExecModel::kSync);
  const auto r = algo::run_sssp(prep.dist, prep.sync, t, p, c, 0);
  EXPECT_EQ(r.dist[2], 2u);
  // bfs shares sssp's relaxation but must ignore the weights: vertex 2
  // is one hop from the source on every bfs entry point.
  EXPECT_EQ(algo::run_bfs(prep.dist, prep.sync, t, p, c, 0).dist[2], 1u);
  EXPECT_EQ(
      algo::run_bfs_direction_opt(prep.dist, prep.sync, t, p, c, 0).dist[2],
      1u);
  // This graph is small enough that dobfs always pulls; a pull threshold
  // above 1 keeps it in push rounds, which run the shared relax step.
  const auto push = algo::run_gathered<algo::BfsResult>(
      prep.dist, prep.sync, t, p, c, algo::DirectionOptBfsProgram(0, 2.0),
      [](const auto& st, graph::VertexId v) { return st.dist[v]; });
  EXPECT_EQ(push.dist[2], 1u);
  const std::vector<graph::VertexId> sources = {0};
  EXPECT_EQ(algo::run_msbfs(prep.dist, prep.sync, t, p, c, sources).dist[0][2],
            1u);
}

// Scaled dataset integration: the real analogue inputs.
TEST(AlgoDatasets, OrkutAnalogueAllBenchmarksBsp) {
  const auto g = graph::datasets::make("orkut");
  const auto src = graph::datasets::default_source(g);
  PreparedGraph prep(g, partition::Policy::CVC, 4);
  const auto t = topo(4);
  const auto p = params();
  const auto c = cfg(engine::ExecModel::kSync);
  EXPECT_EQ(algo::run_bfs(prep.dist, prep.sync, t, p, c, src).dist,
            algo::reference::bfs(g, src));
  EXPECT_EQ(algo::run_cc(prep.dist, prep.sync, t, p, c).label,
            algo::reference::cc(g));
  EXPECT_EQ(algo::run_kcore(prep.dist, prep.sync, t, p, c, 10).in_core,
            algo::reference::kcore(g, 10));
}

}  // namespace
}  // namespace sg
