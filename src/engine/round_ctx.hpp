#pragma once

#include <cstdint>
#include <vector>

#include "comm/bitset.hpp"
#include "graph/types.hpp"
#include "obs/trace.hpp"

namespace sg::engine {

/// Per-device context handed to a Program's init / compute_round.
///
/// The program uses it to (a) activate vertices for the next local round
/// (data-driven worklists), (b) mark updated proxies for UO sync, and
/// (c) report its work-item sizes so the load balancer can derive the
/// kernel schedule (consecutive record() calls model consecutive thread
/// assignments, as on a real GPU).
///
/// Dirty marks are split by sync direction:
///  * mark_reduce_dirty - a *mirror*-side value changed and must be
///    reduced to its master;
///  * mark_bcast_dirty  - a *master*-side value changed and must be
///    broadcast to its mirrors.
class RoundCtx {
 public:
  /// Reserves the activation and work-size buffers for a full sweep of
  /// the device's `num_local` vertices, so rounds reuse them.
  explicit RoundCtx(graph::VertexId num_local) : in_next_(num_local) {
    next_.reserve(num_local);
    work_sizes_.reserve(num_local);
  }

  void attach(comm::Bitset* dirty_reduce, comm::Bitset* dirty_bcast) {
    dirty_reduce_ = dirty_reduce;
    dirty_bcast_ = dirty_bcast;
  }

  /// Activates `v` for the next local round (deduplicated).
  void push(graph::VertexId v) {
    if (!in_next_.test(v)) {
      in_next_.set(v);
      next_.push_back(v);
    }
  }

  void mark_reduce_dirty(graph::VertexId v) { dirty_reduce_->set(v); }
  void mark_bcast_dirty(graph::VertexId v) { dirty_bcast_->set(v); }

  /// Convenience for programs whose reduce and broadcast fields are the
  /// same label (bfs/sssp/cc): masters broadcast, mirrors reduce.
  void mark_dirty(graph::VertexId v, bool is_master) {
    if (is_master) {
      mark_bcast_dirty(v);
    } else {
      mark_reduce_dirty(v);
    }
  }

  /// Records one operator application touching `edges` edges.
  void record(std::uint32_t edges) {
    work_sizes_.push_back(edges);
    total_edges_ += edges;
  }

  /// Hands the accumulated next frontier to the executor and resets.
  void take_next(std::vector<graph::VertexId>& out) {
    out.swap(next_);
    next_.clear();
    for (graph::VertexId v : out) in_next_.reset(v);
  }

  [[nodiscard]] const std::vector<std::uint32_t>& work_sizes() const {
    return work_sizes_;
  }
  [[nodiscard]] std::uint64_t total_edges() const { return total_edges_; }
  [[nodiscard]] std::uint32_t applications() const {
    return static_cast<std::uint32_t>(work_sizes_.size());
  }

  void reset_work() {
    work_sizes_.clear();
    total_edges_ = 0;
  }

  /// True when the program produced follow-on work this round.
  [[nodiscard]] bool has_next() const { return !next_.empty(); }

  /// Observability handle for this device's timeline track. A program
  /// (or any layer holding the ctx) can emit custom spans through it;
  /// the default Scope is a null sink, so the call is free when tracing
  /// is off.
  void attach_obs(obs::Scope s) { obs_ = s; }
  [[nodiscard]] const obs::Scope& obs() const { return obs_; }

 private:
  std::vector<graph::VertexId> next_;
  comm::Bitset in_next_;
  comm::Bitset* dirty_reduce_ = nullptr;
  comm::Bitset* dirty_bcast_ = nullptr;
  std::vector<std::uint32_t> work_sizes_;
  std::uint64_t total_edges_ = 0;
  obs::Scope obs_;
};

}  // namespace sg::engine
