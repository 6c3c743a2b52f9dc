#include "algo/min_dist.hpp"

namespace sg::algo {

MsBfsResult run_msbfs(const partition::DistGraph& dg,
                      const comm::SyncStructure& sync,
                      const sim::Topology& topo,
                      const sim::CostParams& params,
                      const engine::EngineConfig& config,
                      std::span<const graph::VertexId> sources) {
  return run_multi_min_dist<std::uint32_t, false>(dg, sync, topo, params,
                                                  config, sources);
}

}  // namespace sg::algo
