#include "algo/kcore.hpp"

#include "algo/results.hpp"

namespace sg::algo {

KCoreResult run_kcore(const partition::DistGraph& dg,
                      const comm::SyncStructure& sync,
                      const sim::Topology& topo,
                      const sim::CostParams& params,
                      const engine::EngineConfig& config, std::uint32_t k) {
  return run_gathered<KCoreResult>(
      dg, sync, topo, params, config, KCoreProgram(k),
      [](const KCoreProgram::DeviceState& st, graph::VertexId v) {
        return static_cast<std::uint8_t>(st.dead[v] == 0 ? 1 : 0);
      });
}

}  // namespace sg::algo
