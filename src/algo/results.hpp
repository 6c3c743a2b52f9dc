#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "algo/lanes.hpp"
#include "engine/executor.hpp"

namespace sg::algo {

/// Throws std::invalid_argument unless a lane batch holds 1..`width`
/// entries (`what`: "sources" or "seeds", named in the message).
inline void check_lane_batch(const std::string& fn, const char* what,
                             std::size_t count, std::size_t width) {
  if (count == 0) throw std::invalid_argument(fn + ": no " + what);
  if (count > width) {
    throw std::invalid_argument(fn + ": " + std::to_string(count) + " " +
                                what + " exceed the " + std::to_string(width) +
                                "-lane batch width");
  }
}

/// Transposes per-vertex lane vectors into one vector per used lane:
/// out[lane][vertex].
template <typename T, std::size_t N>
[[nodiscard]] std::vector<std::vector<T>> split_lanes(
    const std::vector<LaneVec<T, N>>& values, std::size_t used) {
  std::vector<std::vector<T>> out(used, std::vector<T>(values.size()));
  for (std::size_t i = 0; i < used; ++i) {
    for (std::size_t v = 0; v < values.size(); ++v) {
      out[i][v] = values[v].lane[i];
    }
  }
  return out;
}

/// The body of every `run_*` entry point: runs `program`, reads each
/// global vertex's master value with `getter(state, local_id)` from the
/// layout the run ended on (a re-home may have rebuilt it), and returns
/// `Result{values, stats}`. A lane program's values are split per used
/// lane first.
template <typename Result, typename Program, typename Getter>
[[nodiscard]] Result run_gathered(const partition::DistGraph& dg,
                                  const comm::SyncStructure& sync,
                                  const sim::Topology& topo,
                                  const sim::CostParams& params,
                                  const engine::EngineConfig& config,
                                  const Program& program, Getter getter) {
  auto result = engine::run(dg, sync, topo, params, config, program);
  const partition::DistGraph& layout = result.layout(dg);
  using T = std::invoke_result_t<Getter&, const typename Program::DeviceState&,
                                 graph::VertexId>;
  std::vector<T> values(layout.global_vertices());
  for (int d = 0; d < layout.num_devices(); ++d) {
    const auto& lg = layout.part(d);
    for (graph::VertexId v = 0; v < lg.num_masters; ++v) {
      values[lg.l2g[v]] = getter(result.states[d], v);
    }
  }
  if constexpr (requires { program.num_lanes(); }) {
    return Result{split_lanes(values, program.num_lanes()),
                  std::move(result.stats)};
  } else {
    return Result{std::move(values), std::move(result.stats)};
  }
}

}  // namespace sg::algo
