#include "algo/pagerank.hpp"

#include "algo/results.hpp"

namespace sg::algo {

namespace {
constexpr auto kRankOf = [](const auto& st, graph::VertexId v) {
  return st.rank[v];
};
}  // namespace

PageRankResult run_pagerank(const partition::DistGraph& dg,
                            const comm::SyncStructure& sync,
                            const sim::Topology& topo,
                            const sim::CostParams& params,
                            const engine::EngineConfig& config, float alpha,
                            float tolerance) {
  return run_gathered<PageRankResult>(dg, sync, topo, params, config,
                                      PageRankPullProgram(alpha, tolerance),
                                      kRankOf);
}

PageRankResult run_pagerank_lux(const partition::DistGraph& dg,
                                const comm::SyncStructure& sync,
                                const sim::Topology& topo,
                                const sim::CostParams& params,
                                const engine::EngineConfig& config,
                                float alpha) {
  return run_gathered<PageRankResult>(
      dg, sync, topo, params, config,
      LuxPageRankProgram(dg.global_vertices(), alpha), kRankOf);
}

}  // namespace sg::algo
