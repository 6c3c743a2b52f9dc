#pragma once

#include <cstdint>
#include <vector>

#include "algo/min_dist.hpp"
#include "algo/seed.hpp"
#include "comm/reduction.hpp"
#include "engine/executor.hpp"

namespace sg::algo {

/// Direction-optimizing BFS (Gunrock's algorithmic advantage in Table
/// II): push rounds while the frontier is small, switching to pull
/// ("bottom-up") rounds when the frontier's edge volume passes a
/// fraction of the remaining edges, then back. Level-synchronous, so it
/// is only valid under BSP execution (the Gunrock facade enforces this).
class DirectionOptBfsProgram {
 public:
  using ReduceValue = std::uint32_t;
  using ReduceOp = comm::MinOp<std::uint32_t>;
  using BcastValue = std::uint32_t;
  using BcastOp = comm::MinOp<std::uint32_t>;
  static constexpr bool kDataDriven = true;
  static constexpr std::uint64_t kExtraBytesPerVertex = 4;

  explicit DirectionOptBfsProgram(graph::VertexId source,
                                  double pull_threshold = 0.05)
      : source_(source), pull_threshold_(pull_threshold) {}

  [[nodiscard]] const char* name() const { return "bfs-do"; }
  /// Pull rounds read destination-side labels too, so proxies on both
  /// sides of an edge participate.
  [[nodiscard]] comm::SyncPattern pattern() const {
    return comm::SyncPattern{.reads_src = true,
                             .reads_dst = true,
                             .writes_src = true,
                             .writes_dst = true};
  }

  struct DeviceState {
    std::vector<std::uint32_t> dist;

    template <class Ar>
    void archive(Ar& ar) {
      ar(dist);
    }

    template <class Ar>
    void archive_vertex(Ar& ar, graph::VertexId v) {
      ar(dist[v]);
    }
  };

  void init(const partition::LocalGraph& lg, DeviceState& st,
            engine::RoundCtx& ctx) const {
    st.dist.assign(lg.num_local, kInfDist);
    if (const auto v = resolve_seed(lg, source_)) {
      st.dist[*v] = 0;
      ctx.push(*v);
    }
  }

  bool compute_round(const partition::LocalGraph& lg, DeviceState& st,
                     std::span<const graph::VertexId> frontier,
                     engine::RoundCtx& ctx) const {
    // Estimate frontier edge volume to pick a direction.
    std::uint64_t frontier_edges = 0;
    for (const graph::VertexId v : frontier) {
      frontier_edges += lg.out_degree(v);
    }
    const bool pull =
        frontier_edges >
        static_cast<std::uint64_t>(pull_threshold_ *
                                   static_cast<double>(lg.num_out_edges()));
    if (!pull) {
      for (const graph::VertexId v : frontier) {
        ctx.record(static_cast<std::uint32_t>(lg.out_degree(v)));
        if (st.dist[v] == kInfDist) continue;
        relax_out_edges<false>(lg, st.dist, v, st.dist[v], ctx);
      }
    } else {
      // Bottom-up: in level-synchronous BSP the frontier is uniformly at
      // one level and first discoveries are final, so unvisited vertices
      // probe in-neighbors with a genuine early exit on the first
      // frontier parent. Off-level stragglers (none in practice) fall
      // back to push relaxation for safety.
      std::uint32_t lvl = kInfDist;
      for (const graph::VertexId v : frontier) {
        lvl = std::min(lvl, st.dist[v]);
      }
      for (const graph::VertexId v : frontier) {
        if (st.dist[v] == lvl || st.dist[v] == kInfDist) continue;
        ctx.record(static_cast<std::uint32_t>(lg.out_degree(v)));
        relax_out_edges<false>(lg, st.dist, v, st.dist[v], ctx);
      }
      if (lvl == kInfDist) return false;
      for (graph::VertexId v = 0; v < lg.num_local; ++v) {
        if (st.dist[v] != kInfDist) continue;
        std::uint32_t probed = 0;
        for (const graph::VertexId u : lg.in_neighbors(v)) {
          ++probed;
          if (st.dist[u] == lvl) {
            st.dist[v] = lvl + 1;
            ctx.mark_dirty(v, lg.is_master(v));
            ctx.push(v);
            break;
          }
        }
        ctx.record(probed);
      }
    }
    return false;
  }

  [[nodiscard]] std::span<ReduceValue> reduce_mirror_src(
      DeviceState& st) const {
    return st.dist;
  }
  [[nodiscard]] std::span<ReduceValue> reduce_master_dst(
      DeviceState& st) const {
    return st.dist;
  }
  [[nodiscard]] std::span<const BcastValue> bcast_master_src(
      const DeviceState& st) const {
    return st.dist;
  }
  [[nodiscard]] std::span<BcastValue> bcast_mirror_dst(
      DeviceState& st) const {
    return st.dist;
  }

  void on_update(const partition::LocalGraph&, DeviceState&,
                 graph::VertexId v, engine::UpdateKind,
                 engine::RoundCtx& ctx) const {
    ctx.push(v);
  }

 private:
  graph::VertexId source_;
  double pull_threshold_;
};

/// Runs direction-optimizing bfs (BSP only).
[[nodiscard]] BfsResult run_bfs_direction_opt(
    const partition::DistGraph& dg, const comm::SyncStructure& sync,
    const sim::Topology& topo, const sim::CostParams& params,
    const engine::EngineConfig& config, graph::VertexId source);

}  // namespace sg::algo
