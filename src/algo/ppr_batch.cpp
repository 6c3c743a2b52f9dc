#include "algo/ppr_batch.hpp"

#include "algo/results.hpp"

namespace sg::algo {

PprBatchResult run_ppr_batch(const partition::DistGraph& dg,
                             const comm::SyncStructure& sync,
                             const sim::Topology& topo,
                             const sim::CostParams& params,
                             const engine::EngineConfig& config,
                             std::span<const graph::VertexId> seeds,
                             double alpha, double epsilon) {
  check_lane_batch("run_ppr_batch", "seeds", seeds.size(), kPprBatchLanes);
  return run_gathered<PprBatchResult>(
      dg, sync, topo, params, config, PprBatchProgram(seeds, alpha, epsilon),
      [](const auto& st, graph::VertexId v) { return st.mass[v]; });
}

}  // namespace sg::algo
