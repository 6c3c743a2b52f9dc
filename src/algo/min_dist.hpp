#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "algo/lanes.hpp"
#include "algo/results.hpp"
#include "algo/seed.hpp"
#include "comm/reduction.hpp"
#include "engine/executor.hpp"
#include "integrity/audit.hpp"

// The min-distance family: bfs, sssp and their lane-batched msbfs /
// mssssp siblings are one D-IrGL operator, a data-driven push with min
// reduction where bfs is sssp with unit weights. Min is monotone and
// order-independent, so BASP's stale interleavings are safe and a lane
// is bit-exact vs its single-source run under both BSP and BASP.
// kUseWeights picks the edge step at compile time: bfs walks the plain
// adjacency with +1 (32-bit hop counts), sssp adds the edge weight
// (64-bit, so long weighted paths cannot overflow).

namespace sg::algo {

/// Label of a vertex no path has reached.
template <typename Dist>
inline constexpr Dist kUnreached = std::numeric_limits<Dist>::max();
inline constexpr std::uint32_t kInfDist = kUnreached<std::uint32_t>;
inline constexpr std::uint64_t kInfPath = kUnreached<std::uint64_t>;

/// Calls `step(u, w)` for every out-edge v -> u: w is 1 for bfs, and
/// the edge weight for sssp (1 when the partition carries no weights).
template <bool kUseWeights, typename Dist, typename Step>
inline void for_each_out_edge(const partition::LocalGraph& lg,
                              graph::VertexId v, Step&& step) {
  if constexpr (kUseWeights) {
    const bool weighted = !lg.out_weights.empty();
    for (graph::EdgeId e = lg.out_offsets[v]; e < lg.out_offsets[v + 1];
         ++e) {
      step(lg.out_dsts[e], weighted ? Dist{lg.out_weights[e]} : Dist{1});
    }
  } else {
    for (const graph::VertexId u : lg.out_neighbors(v)) step(u, Dist{1});
  }
}

/// The push step: relaxes every out-edge of `v`, whose distance `dv` is
/// finite, and marks and pushes each neighbor it improves.
template <bool kUseWeights, typename Dist>
inline void relax_out_edges(const partition::LocalGraph& lg,
                            std::vector<Dist>& dist, graph::VertexId v,
                            Dist dv, engine::RoundCtx& ctx) {
  for_each_out_edge<kUseWeights, Dist>(lg, v, [&](graph::VertexId u, Dist w) {
    if (dv + w < dist[u]) {
      dist[u] = dv + w;
      ctx.mark_dirty(u, lg.is_master(u));
      ctx.push(u);
    }
  });
}

/// Single-source min distance (BfsProgram, SsspProgram).
template <typename Dist, bool kUseWeights>
class MinDistProgram {
 public:
  using ReduceValue = Dist;
  using ReduceOp = comm::MinOp<Dist>;
  using BcastValue = Dist;
  using BcastOp = comm::MinOp<Dist>;
  static constexpr bool kDataDriven = true;
  static constexpr std::uint64_t kExtraBytesPerVertex = 0;

  explicit MinDistProgram(graph::VertexId source) : source_(source) {}

  [[nodiscard]] const char* name() const {
    return kUseWeights ? "sssp" : "bfs";
  }
  [[nodiscard]] comm::SyncPattern pattern() const {
    return comm::SyncPattern::push();
  }

  struct DeviceState {
    std::vector<Dist> dist;

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
    st.dist.assign(lg.num_local, kUnreached<Dist>);
    if (const auto v = resolve_seed(lg, source_)) {
      st.dist[*v] = 0;
      ctx.push(*v);
    }
  }

  bool compute_round(const partition::LocalGraph& lg, DeviceState& st,
                     std::span<const graph::VertexId> frontier,
                     engine::RoundCtx& ctx) const {
    for (const graph::VertexId v : frontier) {
      ctx.record(static_cast<std::uint32_t>(lg.out_degree(v)));
      const Dist dv = st.dist[v];
      if (dv == kUnreached<Dist>) continue;
      relax_out_edges<kUseWeights>(lg, st.dist, v, dv, ctx);
    }
    return false;  // data-driven: activity is carried by the frontier
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

  /// ABFT invariant, per audited boundary (integrity auditor,
  /// DESIGN.md §13). Sound mid-run: relaxation only ever writes
  /// source-anchored distances, so a zero distance anywhere but the
  /// source can only come from a bit flip.
  [[nodiscard]] std::string audit_device(const partition::LocalGraph& lg,
                                         const DeviceState& st) const {
    for (graph::VertexId v = 0; v < lg.num_local; ++v) {
      if (st.dist[v] == 0 && lg.l2g[v] != source_) {
        return std::string(name()) + ": dist 0 at non-source vertex " +
               std::to_string(lg.l2g[v]);
      }
    }
    return {};
  }

  /// Complete fixed-point certificate, run once at the final audit: one
  /// global relaxation sweep over every edge must reproduce the master
  /// distances exactly (dist[source] = 0; elsewhere dist[v] = min over
  /// in-edges of dist[u] + w, unreachable stays unreached). A converged
  /// clean run satisfies this identically; any surviving wrong-low or
  /// wrong-high corruption — even fully propagated — breaks it at the
  /// corrupted vertex or its frontier.
  [[nodiscard]] std::string audit_global(
      std::span<const partition::LocalGraph* const> lgs,
      std::span<const DeviceState* const> sts,
      const integrity::AuditPolicy&) const {
    graph::VertexId n = 0;
    for (const partition::LocalGraph* lg : lgs) {
      for (graph::VertexId v = 0; v < lg->num_local; ++v) {
        n = std::max(n, lg->l2g[v] + 1);
      }
    }
    std::vector<Dist> dist(n, kUnreached<Dist>);
    for (std::size_t i = 0; i < lgs.size(); ++i) {
      for (graph::VertexId v = 0; v < lgs[i]->num_masters; ++v) {
        dist[lgs[i]->l2g[v]] = sts[i]->dist[v];
      }
    }
    std::vector<Dist> best(n, kUnreached<Dist>);
    for (std::size_t i = 0; i < lgs.size(); ++i) {
      const partition::LocalGraph& lg = *lgs[i];
      for (graph::VertexId u = 0; u < lg.num_local; ++u) {
        const Dist du = dist[lg.l2g[u]];
        if (du == kUnreached<Dist>) continue;
        for_each_out_edge<kUseWeights, Dist>(
            lg, u, [&](graph::VertexId x, Dist w) {
              best[lg.l2g[x]] = std::min(best[lg.l2g[x]], du + w);
            });
      }
    }
    for (graph::VertexId v = 0; v < n; ++v) {
      if (v == source_ && dist[v] == kUnreached<Dist> &&
          best[v] == kUnreached<Dist>) {
        continue;  // source not resident in this graph at all
      }
      const Dist expected = v == source_ ? 0 : best[v];
      if (dist[v] != expected) {
        return std::string(name()) + ": fixed-point violation at vertex " +
               std::to_string(v) + " (dist " + std::to_string(dist[v]) +
               ", certificate " + std::to_string(expected) + ")";
      }
    }
    return {};
  }

 private:
  graph::VertexId source_;
};

/// Up to 64 single-source instances fused into one engine run
/// (MsBfsProgram, MsSsspProgram): the serving layer's batched
/// point-query kernel, Gunrock's "wider frontier" composition. Each
/// lane is exactly the scalar MinDistProgram relaxation, so the final
/// per-lane distances are bit-exact vs independent scalar runs.
///
/// Frontier bit-packing is what makes the batching pay: `pending` holds
/// one 64-bit lane mask per vertex, a vertex enters the shared frontier
/// once per round regardless of how many lanes reached it, and one
/// edge sweep (ctx.record of one out-degree) relaxes every pending
/// lane. 64 sources therefore cost one sweep, not 64 — the serving
/// scheduler's >= 8x engine-sweep reduction at batch width 64.
template <typename Dist, bool kUseWeights>
class MultiMinDistProgram {
 public:
  static constexpr std::size_t kMaxSources = 64;
  using Lanes = LaneVec<Dist, kMaxSources>;

  using ReduceValue = Lanes;
  using ReduceOp = LaneMinOp<Dist, kMaxSources>;
  using BcastValue = Lanes;
  using BcastOp = LaneMinOp<Dist, kMaxSources>;
  static constexpr bool kDataDriven = true;
  /// The 8-byte pending lane mask rides alongside the RV/BV labels.
  static constexpr std::uint64_t kExtraBytesPerVertex = 8;

  /// `sources[i]` seeds lane i. At most kMaxSources; duplicates are
  /// legal (identical lanes).
  explicit MultiMinDistProgram(std::span<const graph::VertexId> sources)
      : sources_(sources.begin(), sources.end()),
        active_mask_(sources.size() >= kMaxSources
                         ? ~0ull
                         : (1ull << sources.size()) - 1) {}

  [[nodiscard]] const char* name() const {
    return kUseWeights ? "mssssp" : "msbfs";
  }
  [[nodiscard]] comm::SyncPattern pattern() const {
    return comm::SyncPattern::push();
  }

  struct DeviceState {
    std::vector<Lanes> dist;
    /// Bit i set: lane i of this vertex improved since its last
    /// expansion and must be relaxed over the local out-edges.
    std::vector<std::uint64_t> pending;

    template <class Ar>
    void archive(Ar& ar) {
      ar(dist, pending);
    }

    template <class Ar>
    void archive_vertex(Ar& ar, graph::VertexId v) {
      ar(dist[v], pending[v]);
    }
  };

  void init(const partition::LocalGraph& lg, DeviceState& st,
            engine::RoundCtx& ctx) const {
    st.dist.assign(lg.num_local, Lanes::filled(kUnreached<Dist>));
    st.pending.assign(lg.num_local, 0);
    for (std::size_t i = 0; i < sources_.size(); ++i) {
      if (const auto v = resolve_seed(lg, sources_[i])) {
        st.dist[*v].lane[i] = 0;
        st.pending[*v] |= 1ull << i;
        ctx.push(*v);
      }
    }
  }

  bool compute_round(const partition::LocalGraph& lg, DeviceState& st,
                     std::span<const graph::VertexId> frontier,
                     engine::RoundCtx& ctx) const {
    for (const graph::VertexId v : frontier) {
      const std::uint64_t mask = st.pending[v];
      st.pending[v] = 0;
      if (mask == 0) {
        ctx.record(0);
        continue;
      }
      // One recorded sweep serves every pending lane of this vertex.
      ctx.record(static_cast<std::uint32_t>(lg.out_degree(v)));
      const Lanes& dv = st.dist[v];
      for_each_out_edge<kUseWeights, Dist>(
          lg, v, [&](graph::VertexId u, Dist w) {
            Lanes& du = st.dist[u];
            std::uint64_t improved = 0;
            for (std::uint64_t m = mask; m != 0; m &= m - 1) {
              const int i = std::countr_zero(m);
              const Dist d = dv.lane[i];
              if (d != kUnreached<Dist> && d + w < du.lane[i]) {
                du.lane[i] = d + w;
                improved |= 1ull << i;
              }
            }
            if (improved != 0) {
              st.pending[u] |= improved;
              ctx.mark_dirty(u, lg.is_master(u));
              ctx.push(u);
            }
          });
    }
    return false;  // data-driven: activity is carried by the frontier
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

  void on_update(const partition::LocalGraph&, DeviceState& st,
                 graph::VertexId v, engine::UpdateKind,
                 engine::RoundCtx& ctx) const {
    // A sync delivered at least one improved lane, but the combine does
    // not report which; conservatively re-expand every active lane.
    // Failed relaxations are no-ops, so per-lane exactness holds.
    st.pending[v] |= active_mask_;
    ctx.push(v);
  }

  /// After a master re-home the adopted/promoted copy already holds the
  /// fold of every surviving proxy; re-expanding all lanes re-derives
  /// any relaxation the lost device had not yet shipped.
  void on_rehome(const partition::LocalGraph&, DeviceState& st,
                 graph::VertexId v, engine::RehomeRole,
                 engine::RoundCtx& ctx) const {
    st.pending[v] |= active_mask_;
    ctx.push(v);
  }

  /// ABFT invariant, per audited boundary (lane-wise version of the
  /// scalar hook): distance 0 in lane i anywhere but lane i's source can
  /// only come from a bit flip.
  [[nodiscard]] std::string audit_device(const partition::LocalGraph& lg,
                                         const DeviceState& st) const {
    for (graph::VertexId v = 0; v < lg.num_local; ++v) {
      for (std::size_t i = 0; i < sources_.size(); ++i) {
        if (st.dist[v].lane[i] == 0 && lg.l2g[v] != sources_[i]) {
          return std::string(name()) + ": dist 0 at non-source vertex " +
                 std::to_string(lg.l2g[v]) + " (lane " + std::to_string(i) +
                 ")";
        }
      }
    }
    return {};
  }

  [[nodiscard]] std::size_t num_lanes() const { return sources_.size(); }

 private:
  std::vector<graph::VertexId> sources_;
  std::uint64_t active_mask_;
};

using BfsProgram = MinDistProgram<std::uint32_t, false>;
using SsspProgram = MinDistProgram<std::uint64_t, true>;
using MsBfsProgram = MultiMinDistProgram<std::uint32_t, false>;
using MsSsspProgram = MultiMinDistProgram<std::uint64_t, true>;

template <typename Dist>
struct MinDistResult {
  std::vector<Dist> dist;  ///< per global vertex; kUnreached if unreachable
  engine::RunStats stats;
};
using BfsResult = MinDistResult<std::uint32_t>;
using SsspResult = MinDistResult<std::uint64_t>;

template <typename Dist>
struct MultiMinDistResult {
  /// dist[i][v]: distance of global vertex v from sources[i]
  /// (kUnreached when unreachable). Bit-exact vs the scalar run.
  std::vector<std::vector<Dist>> dist;
  engine::RunStats stats;
};
using MsBfsResult = MultiMinDistResult<std::uint32_t>;
using MsSsspResult = MultiMinDistResult<std::uint64_t>;

/// The one body of run_msbfs and run_mssssp. Each is defined in its own
/// unit, so each unit instantiates one executor.
template <typename Dist, bool kUseWeights>
[[nodiscard]] MultiMinDistResult<Dist> run_multi_min_dist(
    const partition::DistGraph& dg, const comm::SyncStructure& sync,
    const sim::Topology& topo, const sim::CostParams& params,
    const engine::EngineConfig& config,
    std::span<const graph::VertexId> sources) {
  using Program = MultiMinDistProgram<Dist, kUseWeights>;
  const Program program(sources);
  check_lane_batch(std::string("run_") + program.name(), "sources",
                   sources.size(), Program::kMaxSources);
  return run_gathered<MultiMinDistResult<Dist>>(
      dg, sync, topo, params, config, program,
      [](const auto& st, graph::VertexId v) { return st.dist[v]; });
}

/// Runs distributed bfs from `source` on the partitioned graph.
[[nodiscard]] BfsResult run_bfs(const partition::DistGraph& dg,
                                const comm::SyncStructure& sync,
                                const sim::Topology& topo,
                                const sim::CostParams& params,
                                const engine::EngineConfig& config,
                                graph::VertexId source);

/// Runs distributed sssp from `source` (unit weights on an unweighted
/// partition).
[[nodiscard]] SsspResult run_sssp(const partition::DistGraph& dg,
                                  const comm::SyncStructure& sync,
                                  const sim::Topology& topo,
                                  const sim::CostParams& params,
                                  const engine::EngineConfig& config,
                                  graph::VertexId source);

/// Run one fused engine sweep answering bfs / sssp from every source
/// (at most kMaxSources; throw std::invalid_argument otherwise).
[[nodiscard]] MsBfsResult run_msbfs(const partition::DistGraph& dg,
                                    const comm::SyncStructure& sync,
                                    const sim::Topology& topo,
                                    const sim::CostParams& params,
                                    const engine::EngineConfig& config,
                                    std::span<const graph::VertexId> sources);
[[nodiscard]] MsSsspResult run_mssssp(
    const partition::DistGraph& dg, const comm::SyncStructure& sync,
    const sim::Topology& topo, const sim::CostParams& params,
    const engine::EngineConfig& config,
    std::span<const graph::VertexId> sources);

}  // namespace sg::algo
