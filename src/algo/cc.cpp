#include "algo/cc.hpp"

#include "algo/results.hpp"

namespace sg::algo {

namespace {
constexpr auto kLabelOf = [](const auto& st, graph::VertexId v) {
  return st.label[v];
};
}  // namespace

CcResult run_cc(const partition::DistGraph& dg,
                const comm::SyncStructure& sync, const sim::Topology& topo,
                const sim::CostParams& params,
                const engine::EngineConfig& config) {
  return run_gathered<CcResult>(dg, sync, topo, params, config, CcProgram{},
                                kLabelOf);
}

CcResult run_cc_pointer_jump(const partition::DistGraph& dg,
                             const comm::SyncStructure& sync,
                             const sim::Topology& topo,
                             const sim::CostParams& params,
                             const engine::EngineConfig& config) {
  return run_gathered<CcResult>(dg, sync, topo, params, config,
                                CcPointerJumpProgram{}, kLabelOf);
}

}  // namespace sg::algo
