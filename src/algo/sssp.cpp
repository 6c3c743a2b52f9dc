#include "algo/min_dist.hpp"

namespace sg::algo {

SsspResult run_sssp(const partition::DistGraph& dg,
                    const comm::SyncStructure& sync,
                    const sim::Topology& topo, const sim::CostParams& params,
                    const engine::EngineConfig& config,
                    graph::VertexId source) {
  return run_gathered<SsspResult>(
      dg, sync, topo, params, config, SsspProgram(source),
      [](const auto& st, graph::VertexId v) { return st.dist[v]; });
}

}  // namespace sg::algo
