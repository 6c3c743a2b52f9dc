#pragma once

#include <optional>

#include "graph/types.hpp"
#include "partition/local_graph.hpp"

namespace sg::algo {

/// Resolves a program's global seed/source vertex against one device's
/// partition: the local id when any proxy of the vertex is resident
/// here, nullopt otherwise. Every seed-anchored program (the
/// min-distance family bfs / sssp / msbfs / mssssp, dobfs, sssp-delta,
/// ppr and ppr-batch) funnels through this instead of carrying its own
/// `g2l.find` copy.
[[nodiscard]] inline std::optional<graph::VertexId> resolve_seed(
    const partition::LocalGraph& lg, graph::VertexId global) {
  const auto it = lg.g2l.find(global);
  if (it == lg.g2l.end()) return std::nullopt;
  return it->second;
}

}  // namespace sg::algo
