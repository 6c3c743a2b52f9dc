#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "comm/field_sync.hpp"
#include "comm/sync_structure.hpp"
#include "engine/config.hpp"
#include "engine/program.hpp"
#include "engine/round_ctx.hpp"
#include "engine/runtime.hpp"
#include "engine/stats.hpp"
#include "engine/termination.hpp"
#include "fault/checkpoint.hpp"
#include "integrity/auditor.hpp"
#include "partition/dist_graph.hpp"
#include "partition/partition_io.hpp"
#include "partition/rehome.hpp"
#include "sim/event_queue.hpp"
#include "sim/thread_pool.hpp"
#include "sim/topology.hpp"

namespace sg::engine {

/// Outcome of a distributed run: the final per-device states (for result
/// extraction / validation) and the full simulated-time accounting.
template <typename Program>
struct RunResult {
  std::vector<typename Program::DeviceState> states;
  RunStats stats;
  /// Set when a permanent device loss re-homed masters mid-run: the
  /// rebuilt layout the final states live on. Result extraction must
  /// read master values against this graph, not the input one.
  std::shared_ptr<const partition::DistGraph> final_layout;

  /// The layout `states` is indexed by: the rebuilt one after an
  /// eviction, otherwise the original.
  [[nodiscard]] const partition::DistGraph& layout(
      const partition::DistGraph& original) const {
    return final_layout ? *final_layout : original;
  }
};

/// Distributed executor over the simulated cluster. Computation is real
/// (label arrays are actually updated); time, memory capacity, and
/// message transport are simulated. Dispatches to a bulk-synchronous
/// (BSP) or bulk-asynchronous (BASP) loop per EngineConfig::exec_model.
///
/// This is the typed core: the code that reads or writes per-device
/// program state. Everything that does not — message costs, delivery,
/// tracing, checkpoint and re-homing bookkeeping — lives in the
/// compiled engine::Runtime base.
template <VertexProgram Program>
class Executor : private Runtime {
  using RV = typename Program::ReduceValue;
  using BV = typename Program::BcastValue;
  using RSync = comm::FieldSync<RV, typename Program::ReduceOp>;
  using BSync = comm::FieldSync<BV, typename Program::BcastOp>;
  using VertexId = graph::VertexId;
  /// Value type of one sync direction (B: broadcast).
  template <bool B>
  using Val = std::conditional_t<B, BV, RV>;

 public:
  Executor(const partition::DistGraph& dg, const comm::SyncStructure& sync,
           const sim::Topology& topo, const sim::CostParams& params,
           const EngineConfig& config, const Program& program)
      : Runtime(dg, sync, topo, params, config,
                {sizeof(RV), sizeof(BV), Program::kExtraBytesPerVertex}),
        program_(program) {
    reduce_filter_ = config_.structural_opt
                         ? program_.pattern().reduce_filter()
                         : comm::ProxyFilter::kAll;
    bcast_filter_ = config_.structural_opt
                        ? program_.pattern().broadcast_filter()
                        : comm::ProxyFilter::kAll;
  }

  RunResult<Program> run() {
    // Black box: if anything below throws, the flight recorder is
    // dumped (raw order + host stamps) before the exception escapes.
    obs::AbortDump black_box(flight(), config_.flight_dump, 0.0);
    const auto run_scope = prof().scope("engine.run");
    setup();
    if (config_.exec_model == ExecModel::kSync) {
      run_bsp();
    } else {
      run_basp();
    }
    black_box.advance(total_time_.seconds());
    return collect();
  }

 private:
  // ---- per-device runtime ------------------------------------------------
  struct Dev {
    typename Program::DeviceState state;
    std::unique_ptr<RoundCtx> ctx;
    comm::Bitset dirty_r;  // mirror-side updates awaiting reduce
    comm::Bitset dirty_b;  // master-side updates awaiting broadcast
    std::vector<VertexId> frontier;
    comm::Bitset in_frontier;  // dedup across compute/sync activations
    bool progress = false;  // topology-driven activity flag
    // Round scratch, reserved in setup() and cleared (never freed) each
    // round, so a steady-state round allocates nothing: the frontier
    // the kernel is running on (swapped with `frontier`), activations
    // taken from the ctx, and the receiver side of the apply phases.
    std::vector<VertexId> current;
    std::vector<VertexId> activations;
    std::vector<int> senders;
    std::vector<VertexId> changed;
    sim::SimTime clock;
    // BASP only:
    std::uint32_t local_round = 0;
    bool parked = false;
    std::uint32_t consecutive_stalls = 0;  // throttle progress guard
    std::vector<std::uint32_t> last_seen_round;  // per sender
    // Fault recovery: the device holds re-feed dirty marks that must be
    // flushed once before it may park (BASP degraded recovery).
    bool flush_pending = false;
  };

  void setup() {
    begin_setup(kCheckpointable, program_.name());
    devs_.resize(devices_);
    // Before init: its merge_activations already swaps the ctx's
    // activation buffer with dev.activations, which must have capacity.
    reserve_round_buffers();
    for (int d = 0; d < devices_; ++d) {
      const auto& lg = dg().part(d);
      Dev& dev = devs_[d];
      init_memory(d, lg);
      dev.last_seen_round.assign(devices_, 0);
      init_device(d, lg);
      merge_activations(dev);
      dev.progress = !dev.frontier.empty();
      stats_.peak_memory[d] = memory_[d]->peak();
    }
    reset_fault_state();
  }

  /// Fresh runtime for device d on part `lg`: a new ctx, empty dirty
  /// sets and frontier, wire channels restarted at sequence zero, and
  /// the program's init() state.
  void init_device(int d, const partition::LocalGraph& lg) {
    Dev& dev = devs_[d];
    dev.ctx = std::make_unique<RoundCtx>(lg.num_local);
    dev.dirty_r = comm::Bitset{};
    dev.dirty_r.resize(lg.num_local);
    dev.dirty_b = comm::Bitset{};
    dev.dirty_b.resize(lg.num_local);
    dev.frontier.clear();
    dev.in_frontier = comm::Bitset{};
    dev.in_frontier.resize(lg.num_local);
    dev.ctx->attach(&dev.dirty_r, &dev.dirty_b);
    dev.ctx->attach_obs(dev_scope(d));
    reset_channels(d);
    dev.state = typename Program::DeviceState{};
    program_.init(lg, dev.state, *dev.ctx);
  }

  /// Sizes the BSP round scratch and reserves every per-round buffer to
  /// its bound here, on the calling thread, so steady-state rounds never
  /// grow a buffer: the phases allocate nothing, and the pool's workers
  /// never touch (and so never create) a malloc arena of their own.
  void reserve_round_buffers() {
    const auto n = static_cast<std::size_t>(devices_);
    const bool bsp = config_.exec_model == ExecModel::kSync;
    if (bsp) {
      rmsgs_.assign(n * n, Msg<RV>{});
      bmsgs_.assign(n * n, Msg<BV>{});
      ready_.assign(n, sim::SimTime{});
      after_recv_.assign(n, sim::SimTime{});
      after_bext_.assign(n, sim::SimTime{});
      done_.assign(n, sim::SimTime{});
      computed_.assign(n, 0);
    }
    for (int d = 0; d < devices_; ++d) {
      Dev& dev = devs_[d];
      const std::size_t local = dg().part(d).num_local;
      dev.frontier.reserve(local);
      dev.current.reserve(local);
      dev.activations.reserve(local);
      if (!bsp) continue;
      dev.senders.reserve(n);
      dev.changed.reserve(local);
      for (int o = 0; o < devices_; ++o) {
        if (o == d) continue;
        const std::size_t r = sync().list(d, o, reduce_filter_).size();
        const std::size_t b = sync().list(o, d, bcast_filter_).size();
        comm::Payload<RV>& rp = rmsgs_[d * n + o].payload;
        comm::Payload<BV>& bp = bmsgs_[d * n + o].payload;
        rp.positions.reserve(r);
        rp.values.reserve(r);
        bp.positions.reserve(b);
        bp.values.reserve(b);
      }
    }
  }

  // ---- compute ------------------------------------------------------------
  /// Runs one local round on device d starting at simulated time `at`;
  /// returns the kernel time (inflated by an active straggler fault)
  /// and updates work stats. Purely device-local.
  sim::SimTime compute_one_round(int d, sim::SimTime at) {
    Dev& dev = devs_[d];
    const auto& lg = dg().part(d);
    dev.ctx->reset_work();
    dev.current.swap(dev.frontier);
    dev.frontier.clear();
    const std::vector<VertexId>& frontier = dev.current;
    for (VertexId v : frontier) dev.in_frontier.reset(v);
    {
      // The real host work: the label-update kernel itself.
      const auto kernel_scope = prof().scope("engine.kernel");
      dev.progress =
          program_.compute_round(lg, dev.state, frontier, *dev.ctx);
    }
    merge_activations(dev);
    if (injector_.active() && injector_.has_sdc()) {
      kernel_sdc_perturb(d, at);
    }
    return charge_kernel(d, at, *dev.ctx);
  }

  [[nodiscard]] bool device_has_work(int d) const {
    return !devs_[d].frontier.empty() || devs_[d].progress;
  }

  /// Whether any device that is not silent this round still has work.
  [[nodiscard]] bool live_work() const {
    for (int d = 0; d < devices_; ++d) {
      if (!silent_[d] && device_has_work(d)) return true;
    }
    return false;
  }

  /// Moves pending activations from the ctx into the frontier with
  /// cross-source deduplication.
  void merge_activations(Dev& dev) {
    std::vector<VertexId>& extra = dev.activations;
    dev.ctx->take_next(extra);  // swaps buffers with the ctx
    for (VertexId v : extra) {
      if (!dev.in_frontier.test(v)) {
        dev.in_frontier.set(v);
        dev.frontier.push_back(v);
      }
    }
  }

  // ---- one sync direction (B: broadcast, else reduce) ---------------------
  /// Extracts device d's dirty values for `o` into `p`.
  template <bool B>
  void extract_payload(int d, int o, const comm::ExchangeList& list,
                       comm::Payload<Val<B>>& p) {
    Dev& dev = devs_[d];
    if constexpr (B) {
      BSync::extract_broadcast(list, program_.bcast_master_src(dev.state),
                               dev.dirty_b, config_.sync_mode, d, o, p);
    } else {
      RSync::extract_reduce(list, program_.reduce_mirror_src(dev.state),
                            dev.dirty_r, config_.sync_mode, d, o, p);
    }
  }

  /// Seals `p`, pays its send cost on `clock` / `engine` and hands it to
  /// the NIC; a payload delivered corrupt (protocol off) is perturbed.
  template <bool B>
  Shipment send_payload(int d, int o, comm::Payload<Val<B>>& p,
                        std::uint64_t scanned, std::uint64_t round,
                        sim::SimTime& clock, sim::SimTime& engine) {
    const SyncSide& side = kSyncSides[B];
    seal_payload(p, d, o, side.kind, round);
    const Shipment s = ship(d, o, side, value_bytes(p), p.bytes, scanned,
                            round, clock, engine);
    if (s.del.corrupt) comm::corrupt_payload(p, s.del.corrupt_h);
    return s;
  }

  /// Applies payload `p` from `from` on device o and reacts to every
  /// proxy it changed.
  template <bool B>
  void apply_payload(int o, int from, const comm::Payload<Val<B>>& p) {
    Dev& dev = devs_[o];
    const auto& lg = dg().part(o);
    std::vector<VertexId>& changed = dev.changed;
    changed.clear();
    if constexpr (B) {
      BSync::apply_broadcast(exchange_list(B, from, o), p,
                             program_.bcast_mirror_dst(dev.state), &changed);
      comm_per_dev_[o].broadcast_values += p.count();
    } else {
      RSync::apply_reduce(exchange_list(B, from, o), p,
                          program_.reduce_master_dst(dev.state), dev.dirty_b,
                          &changed);
      comm_per_dev_[o].reduce_values += p.count();
    }
    for (VertexId v : changed) {
      program_.on_update(lg, dev.state, v, kSyncSides[B].update, *dev.ctx);
    }
    merge_activations(dev);
  }

  // =========================================================================
  // BSP: global rounds with a barrier (Section III-B).
  // =========================================================================
  void run_bsp() {
    auto& pool = sim::ThreadPool::global();
    sim::SimTime barrier;  // all devices aligned at round start

    const std::uint32_t round_limit =
        config_.fixed_rounds > 0 ? config_.fixed_rounds : config_.max_rounds;

    for (std::uint32_t round = 0; round < round_limit; ++round) {
      // A lost-but-unevicted device is silent: it stops computing and
      // sending at its loss time, and peers stop extracting toward it
      // (no delivery can ever be acknowledged, so the runtime keeps
      // those updates dirty instead of destroying them at extraction).
      mark_silent(barrier);
      const bool losses_pending =
          monitor_.active() && !monitor_.all_losses_evicted();
      if (!live_work() && force_sync_rounds_ == 0 &&
          config_.fixed_rounds == 0) {
        if (!losses_pending) {
          if (bsp_may_terminate(barrier)) break;
          continue;  // a final-audit repair revived work; rerun the round
        }
        // Survivors are done but a lost device has not crossed the
        // eviction threshold yet: idle until the detector fires (the
        // run is not over — re-homing may re-activate work).
        barrier = barrier + config_.health.heartbeat_interval;
        barrier = bsp_fault_barrier(barrier);
        continue;
      }
      if (force_sync_rounds_ > 0) --force_sync_rounds_;
      ++stats_.global_rounds;
      flight().record(obs::FlightKind::kRound, -1, stats_.global_rounds, 0,
                      "bsp", barrier.seconds());

      // The four phases run one device per pool thread; each touches
      // only its own device's state and its own row (senders) or column
      // (receivers) of the message slots. Round scratch is reused.
      for (auto& m : rmsgs_) m.payload.from = -1;  // slots start empty
      for (auto& m : bmsgs_) m.payload.from = -1;
      std::fill(ready_.begin(), ready_.end(), barrier);
      std::fill(computed_.begin(), computed_.end(), 0);

      // Phase 1: compute + reduce extraction (parallel over devices).
      pool.parallel_for(0, devices_, [&](std::size_t lo, std::size_t hi,
                                         std::size_t) {
        for (std::size_t d = lo; d < hi; ++d) {
          if (silent_[d]) continue;
          if (device_has_work(static_cast<int>(d))) {
            ready_[d] += compute_one_round(static_cast<int>(d), ready_[d]);
            computed_[d] = 1;
          }
          ready_[d] = extract_all<false>(static_cast<int>(d), ready_[d]);
        }
      });
      for (int d = 0; d < devices_; ++d) {
        if (computed_[d] != 0) observe_kernel(d, devs_[d].current.size());
      }
      if (config_.collect_trace) {
        RoundTrace tr;
        tr.round = stats_.global_rounds;
        for (int d = 0; d < devices_; ++d) {
          if (computed_[d] == 0) continue;
          tr.active_vertices += devs_[d].ctx->applications();
          tr.edges += devs_[d].ctx->total_edges();
        }
        stats_.trace.push_back(tr);
      }

      // Phase 2: reduce application (parallel over receivers).
      pool.parallel_for(0, devices_, [&](std::size_t lo, std::size_t hi,
                                         std::size_t) {
        for (std::size_t o = lo; o < hi; ++o) {
          after_recv_[o] = apply_all<false>(static_cast<int>(o), ready_[o]);
        }
      });

      // Phase 3: broadcast extraction (parallel over senders).
      after_bext_ = after_recv_;
      pool.parallel_for(0, devices_, [&](std::size_t lo, std::size_t hi,
                                         std::size_t) {
        for (std::size_t d = lo; d < hi; ++d) {
          if (silent_[d]) continue;
          after_bext_[d] =
              extract_all<true>(static_cast<int>(d), after_recv_[d]);
        }
      });

      // Phase 4: broadcast application (parallel over receivers).
      pool.parallel_for(0, devices_, [&](std::size_t lo, std::size_t hi,
                                         std::size_t) {
        for (std::size_t o = lo; o < hi; ++o) {
          done_[o] = apply_all<true>(static_cast<int>(o), after_bext_[o]);
          devs_[o].dirty_b.clear();  // broadcasts consumed
        }
      });

      // Network byte accounting (sequential; cheap).
      const auto account = [&](const auto& slots) {
        for (const auto& m : slots) {
          if (m.payload.from >= 0) {
            account_network(m.payload.from, m.payload.to, m.payload.bytes);
          }
        }
      };
      account(rmsgs_);
      account(bmsgs_);
      trace_round_volume();

      barrier = bsp_barrier(barrier);

      // Fault handling at the barrier (a consistent cut): detect and
      // recover crashes that occurred this round, then checkpoint.
      barrier = bsp_fault_barrier(barrier);

      // Convergence: no frontier, no progress, and no sync changes —
      // but never while a planned loss is still awaiting eviction.
      if (config_.fixed_rounds == 0 && force_sync_rounds_ == 0 &&
          !(monitor_.active() && !monitor_.all_losses_evicted())) {
        if (!live_work() && bsp_may_terminate(barrier)) break;
      }
    }
    total_time_ = barrier;
  }

  /// BSP message slots of one sync direction: D² entries indexed
  /// [from * D + to].
  template <bool B>
  std::vector<Msg<Val<B>>>& slots() {
    if constexpr (B) {
      return bmsgs_;
    } else {
      return rmsgs_;
    }
  }

  /// Extracts all of device d's payloads of one direction into its row
  /// of the message slots, sending from `ready`; returns the time its
  /// send engines are done.
  template <bool B>
  sim::SimTime extract_all(int d, sim::SimTime ready) {
    const auto sync_scope = prof().scope(kSyncSides[B].prof_extract);
    std::vector<Msg<Val<B>>>& out = slots<B>();
    sim::SimTime engine = ready;  // downlink copy engine (overlap mode)
    for (int o = 0; o < devices_; ++o) {
      if (o == d || silent_[o]) continue;
      const comm::ExchangeList& list = exchange_list(B, d, o);
      if (list.size() == 0) continue;
      Msg<Val<B>>& slot = out[static_cast<std::size_t>(d) * devices_ + o];
      comm::Payload<Val<B>>& payload = slot.payload;
      extract_payload<B>(d, o, list, payload);
      // Empty UO updates are piggybacked on round-control traffic in
      // Gluon; they carry no modeled cost. AS always ships full lists.
      if (config_.sync_mode == comm::SyncMode::kUO &&
          payload.empty_update()) {
        payload.from = -1;  // nothing sent: the slot stays empty
        continue;
      }
      const Shipment s = send_payload<B>(d, o, payload, list.size(),
                                         stats_.global_rounds, ready, engine);
      if (s.fenced()) {  // fenced at NIC
        payload.from = -1;
        continue;
      }
      slot.arrival = s.del.arrival;
      slot.duplicated = s.del.duplicate;
      slot.dup_arrival = s.del.dup_arrival;
      slot.net_ref = s.net_ref;
    }
    return sim::max(ready, engine);
  }

  /// Applies all payloads of one direction destined to device o in
  /// arrival order; returns the time o finishes (wait gaps accounted).
  template <bool B>
  sim::SimTime apply_all(int o, sim::SimTime start) {
    const SyncSide& side = kSyncSides[B];
    const auto sync_scope = prof().scope(side.prof_apply);
    const std::vector<Msg<Val<B>>>& msgs = slots<B>();
    // Gather senders in arrival order (deterministic tie-break by id).
    std::vector<int>& senders = devs_[o].senders;
    senders.clear();
    for (int d = 0; d < devices_; ++d) {
      if (d != o &&
          msgs[static_cast<std::size_t>(d) * devices_ + o].payload.from >= 0) {
        senders.push_back(d);
      }
    }
    std::sort(senders.begin(), senders.end(), [&](int a, int b) {
      const auto& ma = msgs[static_cast<std::size_t>(a) * devices_ + o];
      const auto& mb = msgs[static_cast<std::size_t>(b) * devices_ + o];
      if (ma.arrival != mb.arrival) return ma.arrival < mb.arrival;
      return a < b;
    });
    sim::SimTime t = start;
    sim::SimTime recv_engine = start;  // apply engine (overlap mode)
    for (int d : senders) {
      const auto& m = msgs[static_cast<std::size_t>(d) * devices_ + o];
      // Wire-protocol admission: stale-epoch or already-seen payloads
      // are rejected at the NIC before any uplink cost is paid.
      if (admit_payload(o, m.payload, side.kind, /*allow_hold=*/false,
                        m.arrival) == Admit::kDiscard) {
        continue;
      }
      bsp_receive(o, d, side, value_bytes(m.payload), m.payload.bytes,
                  m.arrival, m.net_ref, t, recv_engine);
      apply_payload<B>(o, d, m.payload);
      if (m.duplicated &&
          ghost_receive(o, value_bytes(m.payload), m.payload.bytes,
                        m.dup_arrival, t, recv_engine)) {
        apply_payload<B>(o, d, m.payload);
      }
    }
    return sim::max(t, recv_engine);
  }

  // ---- BSP fault handling ----------------------------------------------
  /// Whether the program's state can be snapshot/restored through the
  /// archive interface; non-checkpointable programs fall back to
  /// degraded recovery on crash.
  static constexpr bool kCheckpointable =
      fault::CheckpointableState<typename Program::DeviceState>;
  /// Whether per-vertex copies can migrate between layouts (master
  /// re-homing); without it eviction falls back to a cold restart of
  /// the whole computation on the shrunken layout.
  static constexpr bool kRehomable =
      fault::RehomableState<typename Program::DeviceState>;

  [[nodiscard]] std::vector<char> snapshot_device(int d) {
    partition::ByteWriter w;
    Dev& dev = devs_[d];
    if constexpr (kCheckpointable) dev.state.archive(w);
    fault::archive_bitset(w, dev.dirty_r);
    fault::archive_bitset(w, dev.dirty_b);
    w.vec(dev.frontier);
    fault::archive_bitset(w, dev.in_frontier);
    w.pod(static_cast<std::uint8_t>(dev.progress ? 1 : 0));
    w.pod(dev.local_round);
    return w.take();
  }

  void restore_device(int d, const std::vector<char>& bytes) {
    partition::ByteReader r(bytes, "checkpoint restore: device " +
                                       std::to_string(d));
    Dev& dev = devs_[d];
    if constexpr (kCheckpointable) dev.state.archive(r);
    fault::restore_bitset(r, dev.dirty_r);
    fault::restore_bitset(r, dev.dirty_b);
    dev.frontier = r.template vec<VertexId>();
    fault::restore_bitset(r, dev.in_frontier);
    dev.progress = r.template pod<std::uint8_t>() != 0;
    dev.local_round = r.template pod<std::uint32_t>();
    r.expect_end();
  }

  /// Restores every device (only live ones when `live_only`) from the
  /// last checkpoint and counts the rollback; returns the slowest
  /// device's restore time (devices restore in parallel).
  sim::SimTime restore_checkpoint(bool live_only) {
    sim::SimTime worst;
    for (int d = 0; d < devices_; ++d) {
      if (live_only && dead_[d]) continue;
      restore_device(d, last_ckpt_.devices[d].bytes);
      worst = sim::max(worst, restore_cost(last_ckpt_.devices[d].bytes.size()));
    }
    fault_global_.rollbacks += 1;
    return worst;
  }

  /// Cold-restarts device d's program state (re-init on the current
  /// layout); returns the modeled re-init cost.
  sim::SimTime cold_reinit(int d) {
    Dev& dev = devs_[d];
    const auto& lg = dg().part(d);
    dev.state = typename Program::DeviceState{};
    dev.dirty_r.clear();
    dev.dirty_b.clear();
    dev.frontier.clear();
    dev.in_frontier.clear();
    program_.init(lg, dev.state, *dev.ctx);
    merge_activations(dev);
    dev.progress = !dev.frontier.empty();
    return reinit_cost(lg.num_local);
  }

  /// Runs crash detection/recovery and periodic checkpointing at the
  /// barrier; returns the barrier time including fault-handling cost.
  sim::SimTime bsp_fault_barrier(sim::SimTime barrier) {
    if (injector_.active()) {
      const std::vector<int> crashed = due_crashes(barrier);
      if (!crashed.empty()) barrier = bsp_recover(barrier, crashed);
    }
    if (monitor_.active()) {
      for (int cd : monitor_.advance(barrier, fault_global_)) {
        if (!dead_[cd]) barrier = barrier + evict_device(cd, barrier);
      }
    }
    // Gray-failure mitigation at the same consistent cut: migrate the
    // hottest shards off sustained-degraded devices, or gracefully
    // evict the hopeless (mode permitting).
    if (gray_.active()) {
      for (const auto& a : gray_.evaluate(barrier, dead_, fault_global_)) {
        if (dead_[a.device]) continue;
        barrier = barrier + mitigate_device(a, barrier);
      }
    }
    // SDC boundary (a consistent cut): land every due label flip, then
    // audit when the policy is due. The audit precedes the checkpoint
    // below so a snapshot is only ever taken from certified-clean state.
    bool sdc_clean = true;
    if (injector_.has_sdc()) {
      apply_label_flips(barrier);
      const integrity::AuditPolicy& pol = config_.audit;
      if (pol.enabled()) {
        const std::uint64_t b = audit_boundary_++;
        if (pol.due(b)) {
          const std::uint64_t before = fault_global_.sdc_detected;
          barrier = run_audit(barrier, b, /*final=*/false, nullptr);
          sdc_clean = fault_global_.sdc_detected == before;
        }
        // Known injected-but-unaudited corruption suppresses the
        // snapshot exactly like an undetected loss does.
        if (sdc_lag_.pending() > 0) sdc_clean = false;
      }
    }
    if constexpr (kCheckpointable) {
      // Checkpoints are suppressed while a loss is silent-but-undetected
      // so a later rollback always lands on a pre-loss cut.
      if (config_.checkpoint.interval_rounds > 0 &&
          stats_.global_rounds %
                  static_cast<std::uint32_t>(
                      config_.checkpoint.interval_rounds) ==
              0 &&
          !undetected_loss(barrier) && sdc_clean) {
        barrier = take_checkpoint(barrier);
      }
    }
    return barrier;
  }

  sim::SimTime take_checkpoint(sim::SimTime barrier) {
    fault::Checkpoint ck;
    ck.round = current_round();
    ck.devices.resize(devices_);
    for (int d = 0; d < devices_; ++d) {
      ck.devices[d].bytes = snapshot_device(d);
    }
    sim::SimTime worst = write_checkpoint(ck, barrier);
    if (verifies_checkpoints()) {
      bool rewrite = false;
      for (int d = 0; d < devices_; ++d) {
        if (dead_[d]) continue;
        if (read_back(ck, d, snapshot_device(d), worst)) rewrite = true;
      }
      if (rewrite && ckpt_store_.persistent()) ckpt_store_.save(ck);
    }
    last_ckpt_ = std::move(ck);
    return barrier + worst;
  }

  // ---- silent-data-corruption auditing (DESIGN.md §13) -------------------
  /// kKernelSdc: a window where the device's label updates are silently
  /// perturbed. Post-kernel, flip one bit of one *mirror* entry of the
  /// broadcast field (the replicated surface the digests cross-check);
  /// victim and bit derive from the roll hash so reruns replay the
  /// perturbation bit-for-bit. Touches only device-local state and
  /// fault_per_dev_[d], so the parallel BSP compute phase never races.
  void kernel_sdc_perturb(int d, sim::SimTime at) {
    const std::uint64_t h =
        injector_.kernel_sdc_roll(d, stats_.rounds[d] + 1, at);
    if (h == 0) return;
    const auto& lg = dg().part(d);
    if (lg.num_local <= lg.num_masters) return;  // no mirrors resident
    auto vals = program_.bcast_mirror_dst(devs_[d].state);
    const VertexId victim =
        lg.num_masters +
        static_cast<VertexId>((h >> 8) % (lg.num_local - lg.num_masters));
    flip_bit(&vals[victim], sizeof(BV),
             static_cast<int>(h % (sizeof(BV) * 8)));
    fault_per_dev_[d].sdc_injected += 1;
    fault_per_dev_[d].sdc_for(d).kernel_events += 1;
  }

  /// Applies every pending kLabelBitFlip due at or before `upto`,
  /// optionally restricted to one device. BSP applies flips at each
  /// barrier (a consistent cut); BASP applies them on the target
  /// device's own timeline and catches stragglers at the final audit.
  /// The flip lands in the broadcast field — the replicated surface the
  /// digests cross-check. Single-threaded contexts only (touches the
  /// shared lag tracker).
  void apply_label_flips(sim::SimTime upto, int only_device = -1) {
    const auto& flips = injector_.label_flips();
    for (std::size_t i = 0; i < flips.size(); ++i) {
      if (label_flip_done_[i] != 0) continue;
      const fault::ResolvedLabelFlip& f = flips[i];
      if (only_device >= 0 && f.device != only_device) continue;
      if (f.at > upto) continue;
      label_flip_done_[i] = 1;
      if (f.device < 0 || f.device >= devices_ || dead_[f.device] ||
          silent_[f.device] != 0) {
        continue;  // nothing live to corrupt
      }
      const auto& lg = dg().part(f.device);
      const auto it = lg.g2l.find(static_cast<VertexId>(f.vertex));
      if (it == lg.g2l.end()) continue;  // not resident on this layout
      auto vals = program_.bcast_mirror_dst(devs_[f.device].state);
      flip_bit(&vals[it->second], sizeof(BV), f.bit);
      fault_global_.sdc_injected += 1;
      fault_global_.sdc_for(f.device).label_flips += 1;
      flight().record(obs::FlightKind::kFault, f.device,
                      static_cast<std::int64_t>(f.vertex), f.bit,
                      "label_flip", f.at.seconds());
      if (config_.audit.enabled()) {
        sdc_lag_.note_injection(f.device, audit_boundary_);
      }
    }
  }

  /// One audit pass at simulated time `t` over every live device,
  /// fusing the detectors of DESIGN.md §13: (a) per-shard replica
  /// digests over the broadcast exchange lists, (b) the programs' ABFT
  /// invariant hooks, and — at the *final* boundary — (c) the whole-run
  /// certificate. Under kRepair the pass also heals: a split shard is
  /// quarantined and overwritten from the canonical master copy;
  /// violations no copy can fix rewind the cluster (rollback or cold
  /// restart). Returns the time including the modeled audit cost; sets
  /// `*revived` when a repair re-activated work. Single-threaded
  /// contexts only (BSP barrier / BASP quiescent events).
  sim::SimTime run_audit(sim::SimTime t, std::uint64_t b, bool final_pass,
                         bool* revived) {
    const auto audit_scope = prof().scope("audit.scan");
    const integrity::AuditPolicy& pol = config_.audit;
    fault_global_.sdc_audits += 1;
    if (m_sdc_audits_ != nullptr) m_sdc_audits_->inc();
    const std::uint64_t detected_before = fault_global_.sdc_detected;
    bool rollback_needed = false;
    std::vector<int> blamed;

    auto note_lag = [&](int dev) {
      const std::int64_t lag = sdc_lag_.note_detection(dev, b);
      if (lag >= 0) {
        fault::SdcStats& s = fault_global_.sdc_for(dev);
        s.max_detect_lag_rounds = std::max(
            s.max_detect_lag_rounds, static_cast<std::uint64_t>(lag));
      }
    };

    // (a) Replica digests: FNV over the label values each broadcast
    // exchange list shares, master copy vs mirror copy. Provably equal
    // at a clean BSP barrier / BASP quiescent point (every master
    // change broadcasts before the cut closes), so a split localizes
    // corruption to the (mirror device, shard) pair.
    if (pol.check_digests) {
      for (int m = 0; m < devices_; ++m) {
        if (audit_skip(m)) continue;
        for (int o = 0; o < devices_; ++o) {
          if (o == m || audit_skip(o)) continue;
          const auto& list = sync().list(m, o, bcast_filter_);
          if (list.size() == 0) continue;
          std::span<const BV> mirror_vals =
              program_.bcast_mirror_dst(devs_[m].state);
          std::span<const BV> master_vals =
              program_.bcast_master_src(devs_[o].state);
          const std::uint64_t hm = integrity::shard_digest<BV>(
              mirror_vals, list.mirror_local);
          const std::uint64_t ho = integrity::shard_digest<BV>(
              master_vals, list.master_local);
          if (hm == ho) continue;
          const integrity::Divergence div = integrity::scan_divergence<BV>(
              mirror_vals, list.mirror_local, master_vals,
              list.master_local);
          fault_global_.sdc_detected += 1;
          fault_global_.sdc_for(m).digest_violations += 1;
          note_lag(m);
          note_lag(o);
          rt_scope().span(obs::SpanKind::kOther, "sdc.digest_split", t, t,
                          div.count, static_cast<std::uint64_t>(m));
          flight().record(obs::FlightKind::kAudit, m, o,
                          static_cast<std::int64_t>(div.count),
                          "digest_split", t.seconds());
          if (!pol.repairs()) continue;
          // Quarantine the shard and heal it from the canonical master
          // copy. A corrupted *master* becomes consistent-wrong after
          // this copy; the final certificate still catches that, and
          // the repair escalates to a rewind there.
          auto mut = program_.bcast_mirror_dst(devs_[m].state);
          const auto& mlg = dg().part(m);
          for (std::size_t i = 0; i < list.size(); ++i) {
            const VertexId ml = list.mirror_local[i];
            const VertexId sl = list.master_local[i];
            if (mut[ml] == master_vals[sl]) continue;
            mut[ml] = master_vals[sl];
            program_.on_update(mlg, devs_[m].state, ml,
                               UpdateKind::kBroadcast, *devs_[m].ctx);
          }
          merge_activations(devs_[m]);
          fault_global_.sdc_for(m).quarantined_shards += 1;
          fault_global_.sdc_for(m).repairs_mirror += 1;
          fault_global_.sdc_repaired += 1;
          if (m_sdc_repaired_ != nullptr) m_sdc_repaired_->inc();
          blamed.push_back(m);
          if (revived != nullptr) *revived = true;
        }
      }
    }

    // (b) ABFT invariants: the programs' self-audit hooks, sound
    // mid-run. Skipped after a layout rebuild (re-homing reconciles
    // monotone ledgers, which breaks the exact invariants).
    if (pol.check_invariants && invariants_valid_) {
      if constexpr (integrity::SelfAuditing<Program>) {
        for (int d = 0; d < devices_; ++d) {
          if (audit_skip(d)) continue;
          const std::string msg =
              program_.audit_device(dg().part(d), devs_[d].state);
          if (msg.empty()) continue;
          fault_global_.sdc_detected += 1;
          fault_global_.sdc_for(d).invariant_violations += 1;
          note_lag(d);
          blamed.push_back(d);
          // No vertex-granular blame: healing means rewinding.
          rollback_needed = true;
          rt_scope().span(obs::SpanKind::kOther, "sdc.invariant", t, t, 0,
                          static_cast<std::uint64_t>(d));
          flight().record(obs::FlightKind::kAudit, d, 0, 0, "invariant",
                          t.seconds());
        }
      }
      // (c) The whole-run certificate, at the final boundary only: a
      // complete re-verification (relaxation sweep / union-find /
      // quiescence ledger) that even fully propagated consistent-wrong
      // corruption cannot satisfy. No device-granular blame here.
      if (final_pass) {
        if constexpr (integrity::GloballyAuditing<Program>) {
          std::vector<const partition::LocalGraph*> lgs;
          std::vector<const typename Program::DeviceState*> sts;
          for (int d = 0; d < devices_; ++d) {
            if (audit_skip(d)) continue;
            lgs.push_back(&dg().part(d));
            sts.push_back(&devs_[d].state);
          }
          const std::string msg = program_.audit_global(lgs, sts, pol);
          if (!msg.empty()) {
            fault_global_.sdc_detected += 1;
            rollback_needed = true;
            rt_scope().span(obs::SpanKind::kOther, "sdc.certificate", t, t,
                            0, b);
            flight().record(obs::FlightKind::kCertificate, -1,
                            static_cast<std::int64_t>(b), 0, "cert_fail",
                            t.seconds());
            if (!config_.flight_dump.empty() && !pol.repairs()) {
              // Terminal certificate failure (no repair path will run):
              // leave the black box behind for post-mortem triage.
              flight().dump(config_.flight_dump, "final_audit_failure",
                            /*include_wall=*/true);
            }
          }
        }
      }
    }

    std::sort(blamed.begin(), blamed.end());
    blamed.erase(std::unique(blamed.begin(), blamed.end()), blamed.end());

    if (rollback_needed && pol.repairs()) {
      t = sdc_rewind(t, blamed);
      if (revived != nullptr) *revived = true;
    }

    // Escalation: a device whose state needed healing `escalate_after`
    // times is a repeat offender — its silicon is flipping bits. Retire
    // it through the graceful-eviction path while a survivor exists.
    if (pol.repairs()) {
      for (const int d : blamed) {
        if (dead_[d] != 0) continue;
        sdc_repair_count_[d] += 1;
        if (sdc_repair_count_[d] >= pol.escalate_after &&
            live_devices() >= 2) {
          sdc_repair_count_[d] = std::numeric_limits<int>::min() / 2;
          fault_global_.sdc_escalations += 1;
          fault_global_.sdc_for(d).escalations += 1;
          t = t + evict_device(d, t, /*graceful=*/true);
          if (revived != nullptr) *revived = true;
        }
      }
    }

    // Modeled cost: each device hashes its shared broadcast entries
    // (the surface the BASP idle poll already scans) plus two launch
    // overheads; devices audit in parallel, so the boundary pays the
    // worst one.
    sim::SimTime worst;
    for (int d = 0; d < devices_; ++d) {
      if (audit_skip(d)) continue;
      const sim::SimTime c =
          params_.kernel_launch * 2.0 +
          sim::SimTime{static_cast<double>(
                           sync().shared_entries(d, bcast_filter_)) /
                       params_.scan_throughput};
      worst = sim::max(worst, c);
    }
    const std::uint64_t found = fault_global_.sdc_detected - detected_before;
    if (m_sdc_detected_ != nullptr && found > 0) m_sdc_detected_->inc(found);
    rt_scope().span(obs::SpanKind::kOther,
                    final_pass ? "sdc.audit.final" : "sdc.audit", t,
                    t + worst, found, b);
    return t + worst;
  }

  /// Heals corruption no replica copy can fix: rewind every live device
  /// to the last clean checkpoint (flip events already consumed are not
  /// re-fired, so the replay converges to the fault-free fixed point),
  /// or — when no usable checkpoint exists, or the previous rewind
  /// landed on this same cut and failed to clear the violation — cold
  /// restart the computation on the current layout.
  sim::SimTime sdc_rewind(sim::SimTime t, const std::vector<int>& blamed) {
    if constexpr (kCheckpointable) {
      if (last_ckpt_.valid() &&
          last_ckpt_.round != last_sdc_rollback_round_) {
        last_sdc_rollback_round_ = last_ckpt_.round;
        const sim::SimTime worst = restore_checkpoint(/*live_only=*/true);
        if (current_round() > last_ckpt_.round) {
          fault_global_.reexecuted_rounds +=
              current_round() - last_ckpt_.round;
        }
        fault_global_.sdc_repaired += 1;
        for (const int d : blamed) {
          fault_global_.sdc_for(d).repairs_rollback += 1;
        }
        if (m_sdc_repaired_ != nullptr) m_sdc_repaired_->inc();
        note_rollback(t, worst, "sdc.rollback", "sdc_rollback");
        force_sync_rounds_ = std::max(force_sync_rounds_, 2);
        return t + worst;
      }
    }
    // Cold restart: re-init every live device on the current layout;
    // monotone programs re-converge to the fault-free fixed point.
    sim::SimTime worst;
    for (int d = 0; d < devices_; ++d) {
      if (dead_[d] != 0) continue;
      worst = sim::max(worst, cold_reinit(d));
    }
    // The pre-restart checkpoint belongs to the abandoned execution.
    last_ckpt_ = fault::Checkpoint{};
    fault_global_.recovery_time += worst;
    fault_global_.sdc_repaired += 1;
    for (const int d : blamed) {
      fault_global_.sdc_for(d).repairs_restart += 1;
    }
    if (m_sdc_repaired_ != nullptr) m_sdc_repaired_->inc();
    rt_scope().span(obs::SpanKind::kCheckpoint, "sdc.restart", t, t + worst,
                    0, current_round());
    flight().record(obs::FlightKind::kRestart, -1, current_round(), 0,
                    "sdc_restart", t.seconds());
    force_sync_rounds_ = std::max(force_sync_rounds_, 2);
    return t + worst;
  }

  /// Gate on BSP termination: the run may only end after a final audit
  /// (certificate included) comes back clean. A repair revives work, in
  /// which case the caller keeps looping and re-converges before trying
  /// again. Returns true when it is safe to stop.
  bool bsp_may_terminate(sim::SimTime& barrier) {
    if (!injector_.has_sdc() || !config_.audit.enabled()) return true;
    if (final_audits_ >= kMaxFinalAudits) return true;  // safety valve
    final_audits_ += 1;
    // Stragglers scheduled past the last barrier still get exercised
    // (and certified) instead of silently expiring with the run.
    apply_label_flips(sim::SimTime::max());
    bool revived = false;
    barrier = run_audit(barrier, audit_boundary_++, /*final_pass=*/true,
                        &revived);
    if (revived || force_sync_rounds_ > 0) return false;
    for (int d = 0; d < devices_; ++d) {
      if (silent_[d] == 0 && dead_[d] == 0 && device_has_work(d)) {
        return false;
      }
    }
    return true;
  }

  /// Recovers the devices in `crashed`: rollback-restores every device
  /// from the last checkpoint when one exists (a globally consistent
  /// cut, so the whole cluster rewinds together), else cold-restarts
  /// the crashed devices with peer re-feed (graceful degradation).
  sim::SimTime bsp_recover(sim::SimTime barrier,
                           const std::vector<int>& crashed) {
    for (int cd : crashed) {
      fault_per_dev_[cd].device_crashes += 1;
      flight().record(obs::FlightKind::kCrash, cd, current_round(), 0,
                      "crash", barrier.seconds());
    }
    if constexpr (kCheckpointable) {
      if (last_ckpt_.valid()) {
        const sim::SimTime worst = restore_checkpoint(/*live_only=*/false);
        fault_global_.reexecuted_rounds +=
            stats_.global_rounds - last_ckpt_.round;
        note_rollback(barrier, worst, "rollback", "rollback");
        force_sync_rounds_ = std::max(force_sync_rounds_, 1);
        return barrier + worst;
      }
    }
    sim::SimTime worst;
    for (int cd : crashed) worst = sim::max(worst, degraded_recover(cd));
    fault_global_.recovery_time += worst;
    rt_scope().span(obs::SpanKind::kCheckpoint, "recover.degraded", barrier,
                    barrier + worst, crashed.size(),
                    crashed.empty()
                        ? 0
                        : static_cast<std::uint64_t>(crashed.front()));
    flight().record(obs::FlightKind::kRestart, -1,
                    static_cast<std::int64_t>(crashed.size()), 0,
                    "degraded_recover", barrier.seconds());
    // The re-feed dirty marks alone do not make device_has_work() true;
    // keep the loop alive long enough for a reduce + broadcast sweep.
    force_sync_rounds_ = std::max(force_sync_rounds_, 2);
    return barrier + worst;
  }

  /// Cold-restarts device `cd` (program re-init) and marks every shared
  /// proxy on its peers dirty so the next sync rounds re-feed the
  /// recovered device: peer mirrors of cd's masters re-reduce, and peer
  /// masters with mirrors on cd re-broadcast. Exact for monotone /
  /// idempotent programs (min-label bfs/sssp/cc); returns the modeled
  /// re-init cost.
  sim::SimTime degraded_recover(int cd) {
    const sim::SimTime cost = cold_reinit(cd);
    for (int o = 0; o < devices_; ++o) {
      if (o == cd) continue;
      bool marked = false;
      for (VertexId v : sync().list(o, cd, reduce_filter_).mirror_local) {
        devs_[o].dirty_r.set(v);
        marked = true;
      }
      for (VertexId v : sync().list(cd, o, bcast_filter_).master_local) {
        devs_[o].dirty_b.set(v);
        marked = true;
      }
      if (marked) devs_[o].flush_pending = true;
    }
    fault_global_.degraded_recoveries += 1;
    return cost;
  }

  // ---- permanent device loss: eviction + master re-homing ---------------
  /// Per-vertex archives of every live device's state, indexed
  /// [device][old local id].
  using Harvest = std::vector<std::vector<std::vector<char>>>;

  /// Harvests every live device's per-vertex copies (old local-id
  /// space), skipping device `skip` (-1: none).
  Harvest harvest_states(int skip) {
    Harvest harvest(static_cast<std::size_t>(devices_));
    if constexpr (kRehomable) {
      for (int d = 0; d < devices_; ++d) {
        if (dead_[d] || d == skip) continue;
        const auto& lg = dg().part(d);
        auto& slots = harvest[static_cast<std::size_t>(d)];
        slots.resize(lg.num_local);
        for (VertexId v = 0; v < lg.num_local; ++v) {
          partition::ByteWriter w;
          devs_[d].state.archive_vertex(w, v);
          slots[v] = w.take();
        }
      }
    }
    return harvest;
  }

  /// A stale-layout checkpoint cannot be restored onto a rebuilt
  /// layout: replace it immediately with a post-rebuild snapshot (when
  /// checkpointing is on) and keep BSP alive for the re-feed sweep.
  /// Returns `cost` plus the snapshot's.
  sim::SimTime checkpoint_rebuilt(sim::SimTime now, sim::SimTime cost) {
    last_ckpt_ = fault::Checkpoint{};
    if constexpr (kCheckpointable) {
      if (config_.checkpoint.interval_rounds > 0) {
        cost = take_checkpoint(now + cost) - now;
      }
    }
    force_sync_rounds_ = std::max(force_sync_rounds_, 2);
    return cost;
  }

  /// Evicts permanently lost device `cd` at time `now`: optionally rolls
  /// every survivor back to the last pre-loss checkpoint (which also
  /// resurrects the lost device's state as a migration source), re-reads
  /// the lost subgraph from the partition store, re-elects a master for
  /// every vertex the lost device owned, rebuilds the layout / exchange
  /// lists / memoized translations, migrates per-vertex program state,
  /// and re-feeds all proxies. Returns the modeled recovery cost; the
  /// executor continues on N-1 devices. Shared by the BSP and BASP paths.
  ///
  /// `graceful` marks a gray-failure eviction: the device is *alive*
  /// (just hopelessly slow), so no rollback is needed — its current
  /// per-vertex state is harvested directly and detection latency is
  /// zero. The run loses its capacity, never its data.
  sim::SimTime evict_device(int cd, sim::SimTime now, bool graceful = false) {
    const sim::SimTime lost_at = silence_origin(cd, now, graceful);
    const std::uint32_t cur_round = current_round();
    sim::SimTime cost;

    // 1. Rollback to the last consistent cut when the program can use
    // it (checkpoints are suppressed while a loss is undetected, so the
    // cut predates the loss and the lost device's snapshot is genuine).
    // A graceful eviction skips this: the evictee's live state is
    // already consistent at this cut.
    bool have_lost_state = graceful && kRehomable;
    if constexpr (kCheckpointable && kRehomable) {
      if (!graceful && last_ckpt_.valid()) {
        const sim::SimTime worst = restore_checkpoint(/*live_only=*/true);
        if (cur_round > last_ckpt_.round) {
          fault_global_.reexecuted_rounds += cur_round - last_ckpt_.round;
        }
        cost = cost + worst;
        have_lost_state = true;
      }
    }

    // 2. Harvest every surviving per-vertex copy (old local-id space);
    // the lost device contributes only its rolled-back snapshot.
    const Harvest harvest = harvest_states(have_lost_state ? -1 : cd);
    const partition::DistGraph& old_dg = dg();

    // 3. The lost subgraph: durable checksummed partition store when
    // configured (modeled disk re-read), else the simulator's in-memory
    // copy (topology is never lost in simulation, only program state).
    partition::LocalGraph lost_part;
    if (!config_.partition_store_dir.empty()) {
      lost_part =
          partition::load_partition_part(config_.partition_store_dir, cd);
      cost = cost + sim::SimTime{static_cast<double>(lost_part.bytes()) /
                                 config_.checkpoint.disk_bw};
    } else {
      lost_part = old_dg.part(cd);
    }

    // 4. Capacity-aware re-homing plan + layout rebuild.
    partition::RehomeResult plan = partition::rehome_partition(
        old_dg, cd, lost_part, free_bytes(cd), dead_);
    const RetiredLayout prev = install_layout(std::move(plan.dg), cd);

    // 5. Rebuild every device's runtime on the new local-id space.
    for (int d = 0; d < devices_; ++d) {
      if (dead_[d] && d != cd) continue;  // earlier evictions stay empty
      rebuild_device(d, cd, old_dg, lost_part, harvest, have_lost_state);
    }

    // 6. Account the migration: state bytes cross the interconnect
    // (representative survivor pair), and every survivor re-uploads its
    // rebuilt sync metadata / address translations.
    cost = add_migration_cost(cost, -1, plan.migrated_bytes);

    fault_global_.evicted_devices += 1;
    if (monitor_.fence_from_partition(cd)) {
      fault_global_.partition_evictions += 1;
    }
    fault_global_.rehomed_masters += plan.rehomed.size();
    fault_global_.migrated_vertices += plan.orphaned.size();
    fault_global_.detection_latency =
        fault_global_.detection_latency + (now - lost_at);
    fault_global_.recovery_time = fault_global_.recovery_time + cost;

    cost = checkpoint_rebuilt(now, cost);
    rt_scope().span(obs::SpanKind::kRehome, graceful ? "evict.gray" : "rehome",
                    now, now + cost, plan.rehomed.size(),
                    plan.orphaned.size());
    flight().record(obs::FlightKind::kEvict, cd,
                    static_cast<std::int64_t>(plan.rehomed.size()),
                    graceful ? 1 : 0, graceful ? "gray_evict" : "loss_evict",
                    now.seconds());
    flight().record(obs::FlightKind::kRehome, cd,
                    static_cast<std::int64_t>(plan.rehomed.size()),
                    static_cast<std::int64_t>(plan.orphaned.size()), "rehome",
                    now.seconds());
    return cost;
  }

  // ---- gray-failure mitigation: online shard migration -----------------
  /// Executes one GrayFailureMonitor action at a safe cut: online shard
  /// migration off a degraded-but-live device, or — once the monitor
  /// declares it hopeless under kEvict — a graceful live eviction.
  /// Returns the modeled mitigation cost.
  sim::SimTime mitigate_device(const fault::GrayFailureMonitor::Action& a,
                               sim::SimTime now) {
    flight().record(obs::FlightKind::kGray, a.device, a.hopeless ? 1 : 0,
                    a.memory_bound ? 1 : 0, "gray_verdict", now.seconds());
    if (a.hopeless) {
      if (live_devices() < 2) return sim::SimTime{};  // nowhere to go
      const sim::SimTime cost =
          evict_device(a.device, now, /*graceful=*/true);
      fault_global_.gray_evictions += 1;
      fault_global_.mitigation_time += cost;
      if (m_gray_evictions_ != nullptr) m_gray_evictions_->inc();
      return cost;
    }
    return migrate_device(a, now);
  }

  /// Moves the hottest `migrate_fraction` of `cd`'s masters onto
  /// healthier devices at a safe cut, bit-exactly: every live device's
  /// per-vertex state is harvested, the layout is rebuilt via
  /// partition::rebalance_partition, and promoted/adopted masters take
  /// the degraded device's canonical copies verbatim (the same
  /// archive/adopt path evictions use, with the hot device staying live
  /// as a mirror). Returns the modeled migration cost, or zero when the
  /// program cannot re-home state or no placement exists — the run then
  /// continues unchanged (observe-only in effect).
  sim::SimTime migrate_device(const fault::GrayFailureMonitor::Action& a,
                              sim::SimTime now) {
    if constexpr (!kRehomable) {
      (void)a;
      (void)now;
      return sim::SimTime{};
    } else {
      const int cd = a.device;
      const partition::DistGraph& old_dg = dg();
      partition::RebalanceResult plan;
      try {
        plan = partition::rebalance_partition(
            old_dg, cd, gray_.policy().migrate_fraction, free_bytes(cd),
            dead_);
      } catch (const std::exception&) {
        // No live device can absorb the hottest shards (pressure
        // everywhere): spend the budget so the monitor cools down and
        // eventually declares the device hopeless instead of
        // re-planning every evaluation.
        gray_.note_migration(cd);
        return sim::SimTime{};
      }

      // Shed guard: a compute-blamed migration must actually move work.
      // Measured as the drop in the device's *local* out-edges across
      // the rebalance, not the planner's migrated_edges counter: under
      // vertex-cut layouts a migrated master leaves its mirror edges
      // behind, so the counter overstates what the device sheds and the
      // layout churn would be pure cost. A memory-blamed migration is
      // exempt: any byte it sheds shrinks the spill deficit directly.
      const double local_edges = std::max(
          static_cast<double>(old_dg.part(cd).num_out_edges()), 1.0);
      const double kept =
          static_cast<double>(plan.dg.part(cd).num_out_edges());
      const double shed = std::max(local_edges - kept, 0.0) / local_edges;
      if (!a.memory_bound && shed < gray_.policy().min_shed_fraction) {
        gray_.note_migration(cd);  // spend budget; re-planning would churn
        rt_scope().span(obs::SpanKind::kRehome, "migrate.skip", now, now,
                        plan.migrated_edges,
                        static_cast<std::uint64_t>(cd));
        return sim::SimTime{};
      }

      // Harvest every live device's per-vertex state (old local-id
      // space); the degraded device is alive, so its copies are current.
      const Harvest harvest = harvest_states(-1);
      const partition::LocalGraph& hot_part = old_dg.part(cd);
      const RetiredLayout prev = install_layout(std::move(plan.dg), -1);
      for (int d = 0; d < devices_; ++d) {
        if (dead_[d]) continue;
        rebuild_device(d, cd, old_dg, hot_part, harvest,
                       /*have_lost_state=*/true);
      }

      // Account the migration: moved state crosses the interconnect
      // from the degraded device, and every live device re-uploads its
      // rebuilt sync metadata.
      sim::SimTime cost = add_migration_cost(sim::SimTime{}, cd,
                                             plan.migrated_bytes);

      fault_global_.gray_migrations += 1;
      fault_global_.gray_migrated_masters += plan.moved.size();
      fault_global_.gray_migrated_bytes += plan.migrated_bytes;
      fault_global_.mitigation_time += cost;
      fault::DegradeStats& ledger = fault_global_.degrade_for(cd);
      ledger.migrations_off += 1;
      ledger.masters_moved_off += plan.moved.size();
      if (m_gray_migrations_ != nullptr) m_gray_migrations_->inc();
      gray_.note_migration(cd);

      cost = checkpoint_rebuilt(now, cost);
      rt_scope().span(obs::SpanKind::kRehome, "migrate", now, now + cost,
                      plan.moved.size(), static_cast<std::uint64_t>(cd));
      flight().record(obs::FlightKind::kRepair, cd,
                      static_cast<std::int64_t>(plan.moved.size()),
                      static_cast<std::int64_t>(plan.migrated_bytes),
                      "migrate", now.seconds());
      return cost;
    }
  }

  /// Rebuilds device `d`'s runtime structures on the current (rebuilt)
  /// layout, migrating per-vertex program state from `harvest` (indexed
  /// by the old layout's local ids). Election of state source per
  /// vertex: own old copy; else the lost device's copy (when a rollback
  /// resurrected it); else fresh init() values. A promoted master
  /// prefers the lost master's canonical copy so monotone counters and
  /// output values continue exactly.
  void rebuild_device(int d, int cd, const partition::DistGraph& old_dg,
                      const partition::LocalGraph& lost_part,
                      const Harvest& harvest, bool have_lost_state) {
    Dev& dev = devs_[d];
    const auto& nlg = dg().part(d);
    const auto& olg = old_dg.part(d);
    // Every channel restarts at sequence zero on the new layout; the
    // epoch bump fences anything sealed against the old numbering.
    init_device(d, nlg);

    if constexpr (kRehomable) {
      const auto& own = harvest[static_cast<std::size_t>(d)];
      const auto& lost = harvest[static_cast<std::size_t>(cd)];
      for (VertexId v = 0; v < nlg.num_local; ++v) {
        const VertexId gv = nlg.l2g[v];
        RehomeRole role = RehomeRole::kFresh;
        const std::vector<char>* src = nullptr;
        if (const auto it = olg.g2l.find(gv);
            it != olg.g2l.end() && !own.empty()) {
          src = &own[it->second];
          role = nlg.is_master(v) && !olg.is_master(it->second)
                     ? RehomeRole::kPromotedMaster
                     : RehomeRole::kKept;
          if (role == RehomeRole::kPromotedMaster && have_lost_state) {
            if (const auto lit = lost_part.g2l.find(gv);
                lit != lost_part.g2l.end()) {
              src = &lost[lit->second];
            }
          }
        } else if (have_lost_state) {
          if (const auto lit = lost_part.g2l.find(gv);
              lit != lost_part.g2l.end()) {
            src = &lost[lit->second];
            role = RehomeRole::kAdopted;
          }
        }
        if (src != nullptr) {
          partition::ByteReader r(*src, "rehome: migrated vertex state");
          dev.state.archive_vertex(r, v);
          r.expect_end();
        }
        if constexpr (RehomeAware<Program>) {
          program_.on_rehome(nlg, dev.state, v, role, *dev.ctx);
        }
      }
    }
    merge_activations(dev);

    // Full reactivation + re-feed: every local vertex re-enters the
    // worklist; masters re-broadcast authoritative values and mirrors
    // re-reduce current/pending values to their (possibly new) masters.
    for (VertexId v = 0; v < nlg.num_local; ++v) {
      if (!dev.in_frontier.test(v)) {
        dev.in_frontier.set(v);
        dev.frontier.push_back(v);
      }
      if (nlg.is_master(v)) {
        dev.dirty_b.set(v);
      } else {
        dev.dirty_r.set(v);
      }
    }
    dev.progress = !dev.frontier.empty();
    dev.flush_pending = dev.progress;

    // Re-charge DeviceMemory against the new layout, preserving the
    // all-time peak across the swap.
    recharge_memory(d, nlg);
  }

  /// Round coordinate for checkpoint bookkeeping: global rounds under
  /// BSP, the furthest local round under BASP.
  [[nodiscard]] std::uint32_t current_round() const {
    if (config_.exec_model == ExecModel::kSync) {
      return stats_.global_rounds;
    }
    std::uint32_t r = stats_.global_rounds;
    for (const Dev& dev : devs_) r = std::max(r, dev.local_round);
    return r;
  }

  // =========================================================================
  // BASP: per-device local rounds over the discrete-event queue
  // (Gluon-Async, Section III-B). Devices run ahead with stale values;
  // straggler decoupling and redundant work emerge from the schedule.
  // =========================================================================
  struct BaspInbox {
    Lane<RV> reduce;
    Lane<BV> bcast;
  };

  template <bool B>
  static Lane<Val<B>>& lane(BaspInbox& inbox) {
    if constexpr (B) {
      return inbox.bcast;
    } else {
      return inbox.reduce;
    }
  }

  void run_basp() {
    sim::EventQueue queue;
    inboxes_.assign(devices_, BaspInbox{});
    park_start_.assign(devices_, sim::SimTime::zero());
    if (injector_.active()) {
      // Under faults the omniscient-oracle shortcut is not trusted:
      // run the real Safra detector alongside and audit it at the end.
      td_ = std::make_unique<TerminationDetector>(devices_);
      for (std::size_t i = 0; i < injector_.crashes().size(); ++i) {
        queue.schedule(injector_.crashes()[i].at,
                       [this, i, &queue](sim::SimTime t) {
                         basp_crash(i, t, queue);
                       });
      }
    }
    if (monitor_.active() &&
        monitor_.first_loss_at() < sim::SimTime::max()) {
      // Heartbeat monitor poll stream: starts one interval after the
      // first fence-bound silence (no evictions can fire earlier) and
      // reschedules itself until every doomed device is evicted. A plan
      // whose partitions all heal before detection has no finite fence
      // time — no monitor events, nothing to evict.
      queue.schedule(
          monitor_.first_loss_at() + config_.health.heartbeat_interval,
          [this, &queue](sim::SimTime t) { basp_monitor(t, queue); });
    }
    if (gray_.active()) {
      // Gray-failure poll stream: BASP has no barrier to piggyback the
      // monitor on, so it polls at the heartbeat cadence and stops once
      // the system is quiescent with no scheduled fault to revive it.
      queue.schedule(config_.health.heartbeat_interval,
                     [this, &queue](sim::SimTime t) { basp_gray(t, queue); });
    }
    for (int d = 0; d < devices_; ++d) step(d, sim::SimTime::zero(), queue);
    std::uint64_t safety = 0;
    const std::uint64_t step_limit =
        static_cast<std::uint64_t>(config_.max_rounds) * devices_ * 4;
    while (!queue.empty() && safety++ < step_limit) {
      queue.run_next();
    }
    // Final SDC audit at termination: the drained queue means the
    // system is quiescent — the only cut where replica digests are
    // sound under BASP. A repair revives work, so drain again and
    // re-certify until the final audit comes back clean.
    if (injector_.has_sdc() && config_.audit.enabled()) {
      while (final_audits_ < kMaxFinalAudits) {
        final_audits_ += 1;
        sim::SimTime now;
        for (int d = 0; d < devices_; ++d) {
          now = sim::max(now, devs_[d].clock);
        }
        // Stragglers scheduled past the last event still get exercised.
        apply_label_flips(sim::SimTime::max());
        bool revived = false;
        now = run_audit(now, audit_boundary_++, /*final_pass=*/true,
                        &revived);
        for (int d = 0; d < devices_; ++d) {
          if (dead_[d] != 0) continue;
          devs_[d].clock = sim::max(devs_[d].clock, now);
        }
        bool work = false;
        for (int d = 0; d < devices_; ++d) {
          if (dead_[d] == 0 && device_has_work(d)) work = true;
        }
        if (!revived && !work) break;
        basp_sdc_revive(queue);
        while (!queue.empty() && safety++ < step_limit) {
          queue.run_next();
        }
      }
    }
    // Makespan is the slowest device clock, NOT queue.now(): the
    // monitor/gray poll streams keep firing (and finding nothing) on
    // their own cadence after the last device parks, and an observation
    // that observes nothing must not stretch the reported run.
    total_time_ = sim::SimTime::zero();
    for (int d = 0; d < devices_; ++d) {
      total_time_ = sim::max(total_time_, devs_[d].clock);
      stats_.global_rounds =
          std::max(stats_.global_rounds, devs_[d].local_round);
    }
    if (td_) {
      // All devices are parked and all inboxes drained; the token must
      // now complete two clean circulations. If it cannot, termination
      // detection was broken by the fault schedule.
      fault_global_.termination_clean = termination_settles();
    }
  }

  /// Schedules device d's next step at `at`.
  void step(int d, sim::SimTime at, sim::EventQueue& queue) {
    queue.schedule(at, [this, d, &queue](sim::SimTime t) {
      basp_step(d, t, queue);
    });
  }

  /// Schedules a step of device o at `at` that runs only if o is parked
  /// by then (a running device picks new work up on its own).
  void wake(int o, sim::SimTime at, sim::EventQueue& queue) {
    queue.schedule(at, [this, o, &queue](sim::SimTime t) {
      if (devs_[o].parked) basp_step(o, t, queue);
    });
  }

  /// BASP crash handler, fired from the event queue at the fault time.
  /// BASP has no barriers, hence no consistent cut to restore from:
  /// recovery is always the degraded cold-restart + peer re-feed path.
  /// In-flight messages to the crashed device stay queued (re-applying
  /// them after re-init is safe for monotone programs and keeps the
  /// termination detector's counters balanced).
  void basp_crash(std::size_t idx, sim::SimTime t, sim::EventQueue& queue) {
    const int cd = injector_.crashes()[idx].device;
    fault_per_dev_[cd].device_crashes += 1;
    flight().record(obs::FlightKind::kCrash, cd,
                    static_cast<std::int64_t>(devs_[cd].local_round), 0,
                    "crash", t.seconds());
    Dev& dev = devs_[cd];
    dev.clock = sim::max(dev.clock, t);
    const sim::SimTime cost = degraded_recover(cd);
    dev.clock += cost;
    fault_global_.recovery_time += cost;
    devs_[cd].flush_pending = true;  // re-announce own masters/mirrors
    // Wake the recovered device and every parked peer holding re-feed
    // marks; running peers pick the marks up in their next round.
    for (int o = 0; o < devices_; ++o) {
      if (o != cd && !devs_[o].flush_pending) continue;
      wake(o, o == cd ? dev.clock : t, queue);
    }
  }

  void basp_step(int d, sim::SimTime now, sim::EventQueue& queue) {
    // A permanently lost device goes silent the instant its loss fires:
    // it neither computes nor sends, and is eventually evicted by the
    // heartbeat monitor.
    if (basp_silent(d, now)) return;
    Dev& dev = devs_[d];
    if (dev.parked) {
      // A wake can come from a sender whose timeline lags this device's
      // local clock; the device only actually idled up to `now`.
      if (now > park_start_[d]) {
        stats_.wait_time[d] += now - park_start_[d];
        dev_scope(d).span(obs::SpanKind::kWait, "wait.park",
                          park_start_[d], now, 0, dev.local_round);
      }
      dev.parked = false;
      if (td_) td_->set_active(d, true);
    }
    dev.clock = sim::max(dev.clock, now);

    drain_inbox(d);

    // Under BASP a scheduled label flip lands on the target device's
    // own timeline — real mid-run corruption, free to propagate until
    // the next quiescent audit (or the final certificate) catches it.
    if (injector_.has_sdc()) apply_label_flips(dev.clock, d);

    // Optional asynchrony throttle (ablation A2; the paper's proposed
    // control mechanism): a device that has run more than
    // `async_lead_cap` local rounds ahead of the slowest partner it has
    // heard from stalls briefly so fresher values can arrive, instead
    // of churning redundant work on stale labels. A bounded number of
    // consecutive stalls guarantees progress even if a partner has
    // permanently finished.
    if (config_.async_lead_cap > 0 && has_reduce_partner(d) &&
        device_has_work(d)) {
      std::uint32_t min_seen = std::numeric_limits<std::uint32_t>::max();
      for (int o = 0; o < devices_; ++o) {
        if (o != d && is_partner(o, d)) {
          min_seen = std::min(min_seen, dev.last_seen_round[o]);
        }
      }
      if (min_seen != std::numeric_limits<std::uint32_t>::max() &&
          dev.local_round > min_seen + config_.async_lead_cap &&
          dev.consecutive_stalls < 8) {
        ++dev.consecutive_stalls;
        const sim::SimTime stall = params_.pcie_latency +
                                   params_.net_latency +
                                   params_.per_message_overhead * 4.0;
        stats_.wait_time[d] += stall;
        dev_scope(d).span(obs::SpanKind::kWait, "wait.throttle", dev.clock,
                          dev.clock + stall, 0, dev.local_round);
        dev.clock += stall;
        step(d, dev.clock, queue);
        return;
      }
      dev.consecutive_stalls = 0;
    }

    if (!device_has_work(d) || dev.local_round >= config_.max_rounds) {
      if (config_.async_busy_poll && dev.local_round < config_.max_rounds &&
          system_still_active(d)) {
        // Gluon-Async style idle churn: an empty local round still costs
        // a worklist-check kernel and a bitvector scan, and counts as a
        // local round (the paper's exploding min-round metric).
        sim::SimTime poll = params_.kernel_launch * 2.0;
        poll += sim::SimTime{
            static_cast<double>(
                sync().shared_entries(d, comm::ProxyFilter::kAll)) /
            params_.scan_throughput};
        stats_.compute_time[d] += poll;
        stats_.rounds[d] += 1;
        ++dev.local_round;
        dev_scope(d).span(obs::SpanKind::kKernel, "kernel.idle_poll",
                          dev.clock, dev.clock + poll, 0, dev.local_round);
        if (m_rounds_ != nullptr) m_rounds_->inc();
        basp_trace(dev.local_round, 0, 0, 0);
        dev.clock += poll;
        step(d, dev.clock, queue);
        return;
      }
      if (dev.flush_pending) {
        // Degraded recovery marked proxies for re-feed on a device with
        // no local work: flush them once before parking so the
        // recovered peer actually receives the values.
        dev.flush_pending = false;
        if (dev.dirty_r.any() || dev.dirty_b.any()) {
          basp_send(d, queue);
          step(d, dev.clock, queue);
          return;
        }
      }
      park(d, queue);
      return;
    }

    dev.flush_pending = false;  // regular sends cover the re-feed marks
    dev.clock += compute_one_round(d, dev.clock);
    observe_kernel(d, dev.current.size());
    ++dev.local_round;
    flight().record(obs::FlightKind::kRound, d,
                    static_cast<std::int64_t>(dev.local_round), 0, "basp",
                    dev.clock.seconds());
    // Round-boundary health sampling: keeps the φ / suspicion gauges
    // tracking the run between monitor polls (advance() still owns the
    // eviction verdicts).
    if (monitor_.active()) monitor_.observe_until(dev.clock, fault_global_);
    basp_trace(dev.local_round, dev.ctx->applications(),
               dev.ctx->total_edges(), 0);
    basp_send(d, queue);
    step(d, dev.clock, queue);
  }

  /// Pays the receive cost of one admitted message on device d's clock
  /// and applies it (shared by the in-order drain and the reorder-buffer
  /// release).
  template <bool B>
  void apply_msg(int d, const Msg<Val<B>>& m) {
    const SyncSide& side = kSyncSides[B];
    const auto sync_scope = prof().scope(side.prof_apply);
    Dev& dev = devs_[d];
    const int from = m.payload.from;
    basp_receive(d, from, side, value_bytes(m.payload), m.payload.bytes,
                 m.net_ref, dev.clock, dev.local_round);
    dev.last_seen_round[from] =
        std::max(dev.last_seen_round[from], m.sender_round);
    apply_payload<B>(d, from, m.payload);
  }

  /// Drains one lane of device d's inbox up to its clock.
  template <bool B>
  void drain_lane(int d) {
    Dev& dev = devs_[d];
    Lane<Val<B>>& in = lane<B>(inboxes_[d]);
    while (!in.queue.empty() && in.queue.front().arrival <= dev.clock) {
      Msg<Val<B>> m = std::move(in.queue.front());
      in.queue.pop_front();
      // Ghost copies are NIC artifacts, invisible to Safra's message
      // counters (no matching on_send was recorded for them).
      if (td_ && !m.dup_ghost) td_->on_receive(d);
      switch (admit_payload(d, m.payload, kSyncSides[B].kind,
                            /*allow_hold=*/true, m.arrival)) {
        case Admit::kDiscard:
          break;  // rejected at the NIC; zero modeled cost
        case Admit::kHold:
          // Sequence gap: an earlier message on this channel is still
          // in flight (reordered). Park the payload so applies stay in
          // channel order.
          fault_per_dev_[d].reorder_buffered += 1;
          in.held.push_back(std::move(m));
          break;
        case Admit::kApply:
          apply_msg<B>(d, m);
          break;
      }
    }
  }

  /// Releases the first held message of one lane whose sequence gap has
  /// closed; returns whether one was released.
  template <bool B>
  bool release_one(int d) {
    std::vector<Msg<Val<B>>>& held = lane<B>(inboxes_[d]).held;
    for (std::size_t i = 0; i < held.size(); ++i) {
      const Admit a = admit_payload(d, held[i].payload, kSyncSides[B].kind,
                                    /*allow_hold=*/true, held[i].arrival);
      if (a == Admit::kHold) continue;
      Msg<Val<B>> m = std::move(held[i]);
      held.erase(held.begin() + static_cast<std::ptrdiff_t>(i));
      if (a == Admit::kApply) apply_msg<B>(d, m);
      return true;
    }
    return false;
  }

  void drain_inbox(int d) {
    drain_lane<false>(d);
    drain_lane<true>(d);
    // Release reorder-buffered messages, repeating until a full pass
    // makes no progress (one release can unblock the next in the same
    // channel).
    for (bool progress = true; progress;) {
      const bool r = release_one<false>(d);
      const bool b = release_one<true>(d);
      progress = r || b;
    }
  }

  /// Sends this round's reduce payloads (mirror updates) and broadcast
  /// payloads (master updates). BASP ships only non-empty updates.
  void basp_send(int d, sim::EventQueue& queue) {
    const auto sync_scope = prof().scope("sync.extract");
    Dev& dev = devs_[d];
    sim::SimTime engine = dev.clock;  // downlink copy engine (overlap)
    send_lane<false>(d, engine, queue);
    send_lane<true>(d, engine, queue);
    dev.clock = sim::max(dev.clock, engine);
    dev.dirty_b.clear();
  }

  template <bool B>
  void send_lane(int d, sim::SimTime& engine, sim::EventQueue& queue) {
    Dev& dev = devs_[d];
    for (int o = 0; o < devices_; ++o) {
      if (o == d || basp_silent(o, dev.clock)) continue;
      const comm::ExchangeList& list = exchange_list(B, d, o);
      if (list.size() == 0) continue;
      comm::Payload<Val<B>> payload;
      extract_payload<B>(d, o, list, payload);
      if (payload.empty_update()) continue;
      const Shipment s = send_payload<B>(
          d, o, payload,
          payload.scanned > 0 ? payload.scanned : payload.count(),
          dev.local_round, dev.clock, engine);
      // Fenced at the NIC (partition outlasting detection): never
      // delivered, so Safra must not count a send for it.
      if (s.fenced()) continue;
      basp_sent(d, o, dev.local_round, payload.bytes);
      Lane<Val<B>>& in = lane<B>(inboxes_[o]);
      if (s.del.duplicate) {
        // The ghost is a byte-for-byte copy arriving later. It is a NIC
        // artifact, not an application send: Safra never counts it, and
        // the sequence dedup (protocol on) discards it on arrival.
        Msg<Val<B>> ghost;
        ghost.arrival = s.del.dup_arrival;
        ghost.sender_round = dev.local_round;
        ghost.net_ref = s.net_ref;
        ghost.dup_ghost = true;
        ghost.payload = payload;
        in.insert(std::move(ghost));
        wake(o, s.del.dup_arrival, queue);
      }
      Msg<Val<B>> msg;
      msg.arrival = s.del.arrival;
      msg.sender_round = dev.local_round;
      msg.net_ref = s.net_ref;
      msg.payload = std::move(payload);
      in.insert(std::move(msg));
      wake(o, s.del.arrival, queue);
    }
  }

  /// Periodic heartbeat-monitor poll under BASP (there is no barrier to
  /// piggyback detection on). Evicts suspects and reschedules itself
  /// until every scheduled loss has been handled.
  void basp_monitor(sim::SimTime t, sim::EventQueue& queue) {
    if (!monitor_.active() || monitor_.all_losses_evicted()) return;
    for (int cd : monitor_.advance(t, fault_global_)) {
      if (!dead_[cd]) basp_evict(cd, t, queue);
    }
    if (!monitor_.all_losses_evicted()) {
      queue.schedule(t + config_.health.heartbeat_interval,
                     [this, &queue](sim::SimTime tt) {
                       basp_monitor(tt, queue);
                     });
    }
  }

  /// BASP-side wrapper around evict_device (see basp_resume).
  void basp_evict(int cd, sim::SimTime t, sim::EventQueue& queue) {
    const sim::SimTime cost = evict_device(cd, t);
    basp_resume(t + cost, "wait.evict", cd, queue);
  }

  /// Periodic gray-failure poll under BASP. Mitigation fires between
  /// events — every device's state is consistent at event boundaries —
  /// and the poll stops rescheduling once the system is quiescent with
  /// no scheduled fault left to revive it (so the event queue drains).
  void basp_gray(sim::SimTime t, sim::EventQueue& queue) {
    if (!gray_.active()) return;
    for (const auto& a : gray_.evaluate(t, dead_, fault_global_)) {
      if (dead_[a.device]) continue;
      basp_mitigate(a, t, queue);
    }
    bool busy = false;
    for (int o = 0; o < devices_ && !busy; ++o) {
      if (!dead_[o] && !devs_[o].parked) busy = true;
      if (pending_arrivals(o)) busy = true;
    }
    if (!busy && monitor_.active() && !monitor_.all_losses_evicted()) {
      busy = true;
    }
    if (!busy) {
      for (const auto& c : injector_.crashes()) {
        if (c.at > t) busy = true;
      }
    }
    if (busy) {
      queue.schedule(t + config_.health.heartbeat_interval,
                     [this, &queue](sim::SimTime tt) {
                       basp_gray(tt, queue);
                     });
    }
  }

  /// BASP-side mitigation wrapper: runs the shared migrate/evict path,
  /// then resumes like basp_evict when it changed the layout.
  void basp_mitigate(const fault::GrayFailureMonitor::Action& a,
                     sim::SimTime t, sim::EventQueue& queue) {
    const std::uint64_t before =
        fault_global_.gray_migrations + fault_global_.gray_evictions;
    const sim::SimTime cost = mitigate_device(a, t);
    if (fault_global_.gray_migrations + fault_global_.gray_evictions ==
        before) {
      return;  // nothing happened (non-rehomable program / no placement)
    }
    basp_resume(t + cost, "wait.migrate", a.device, queue);
  }

  /// After a BASP layout rebuild: drops every in-flight payload (they
  /// index the *old* exchange lists, which the rebuild invalidated — the
  /// post-rebuild re-feed resends everything), restarts Safra
  /// termination detection, whose message counters straddle the dropped
  /// messages, and realigns every live device at `resume` (`why` names
  /// the wait; `cause` is the device that triggered it).
  void basp_resume(sim::SimTime resume, const char* why, int cause,
                   sim::EventQueue& queue) {
    inboxes_.assign(devices_, BaspInbox{});
    restart_termination(/*all_passive=*/false);
    for (int o = 0; o < devices_; ++o) {
      if (dead_[o]) continue;
      Dev& dev = devs_[o];
      if (!dev.parked && resume > dev.clock) {
        stats_.wait_time[o] += resume - dev.clock;
        dev_scope(o).span(obs::SpanKind::kWait, why, dev.clock, resume, 0,
                          static_cast<std::uint64_t>(cause));
        dev.clock = resume;
      }
      wake(o, resume, queue);
    }
  }

  /// BASP has no barriers, so consistent cuts are taken at *quiescence*:
  /// every device parked (or dead), no message in flight, and — when the
  /// real Safra detector is running — its token circulates to a clean
  /// termination verdict. Checkpoints stay suppressed while a loss is
  /// silent-but-undetected so rollback always lands on a pre-loss cut.
  void maybe_quiescent_checkpoint(int d) {
    if constexpr (kCheckpointable) {
      if (config_.checkpoint.interval_rounds == 0) return;
      const sim::SimTime now = devs_[d].clock;
      if (undetected_loss(now)) return;
      if (!all_quiescent()) return;
      if (current_round() <
          last_basp_ckpt_round_ +
              static_cast<std::uint32_t>(config_.checkpoint.interval_rounds)) {
        return;
      }
      if (td_ && !termination_settles()) return;
      // Cost is accounted in FaultStats::checkpoint_time; the snapshot
      // overlaps park idle time, so device clocks do not advance.
      (void)take_checkpoint(now);
      last_basp_ckpt_round_ = current_round();
    } else {
      (void)d;
    }
  }

  void park(int d, sim::EventQueue& queue) {
    devs_[d].parked = true;
    park_start_[d] = devs_[d].clock;
    if (td_) td_->set_active(d, false);
    // BASP audits only at quiescent cuts: master == mirror is only
    // guaranteed once every send has been applied. The audit precedes
    // the checkpoint so snapshots are taken from certified-clean state.
    bool sdc_clean = true;
    if (injector_.has_sdc() && all_quiescent()) {
      apply_label_flips(devs_[d].clock);
      const integrity::AuditPolicy& pol = config_.audit;
      if (pol.enabled()) {
        const std::uint64_t b = audit_boundary_++;
        if (pol.due(b)) {
          const std::uint64_t before = fault_global_.sdc_detected;
          bool revived = false;
          // Cost overlaps park idle time, like the quiescent snapshot.
          (void)run_audit(devs_[d].clock, b, /*final_pass=*/false,
                          &revived);
          sdc_clean = fault_global_.sdc_detected == before;
          if (revived) basp_sdc_revive(queue);
        }
        if (sdc_lag_.pending() > 0) sdc_clean = false;
      }
    }
    if (sdc_clean) maybe_quiescent_checkpoint(d);
  }

  /// Every device parked (or dead) with no message in flight: the BASP
  /// equivalent of a barrier, where replica digests are sound.
  [[nodiscard]] bool all_quiescent() const {
    for (int o = 0; o < devices_; ++o) {
      if (dead_[o] == 0 && !devs_[o].parked) return false;
      if (pending_arrivals(o)) return false;
    }
    return true;
  }

  /// Wakes every device an SDC repair gave work to and restarts Safra
  /// (a rewind/restart invalidates its message counters), so the event
  /// loop picks the revived computation back up. Revive only happens
  /// at a quiescent cut, so every live device is parked: all start
  /// passive and the wakes flip exactly the revived ones back to active
  /// as they unpark (basp_step does). A parked device left active would
  /// never step again to declare itself passive and would wedge the
  /// token ring into a false termination violation.
  void basp_sdc_revive(sim::EventQueue& queue) {
    restart_termination(/*all_passive=*/true);
    for (int o = 0; o < devices_; ++o) {
      if (dead_[o] != 0) continue;
      if (!device_has_work(o) && !devs_[o].flush_pending) continue;
      wake(o, devs_[o].clock, queue);
    }
  }

  [[nodiscard]] bool pending_arrivals(int d) const {
    return !inboxes_[d].reduce.empty() || !inboxes_[d].bcast.empty();
  }

  /// Busy-poll continuation test: some *other* device still has work or
  /// a message is still undelivered somewhere, so global termination
  /// has not been reached and an idle device keeps churning rounds.
  /// (A real deployment runs the distributed detector in
  /// engine/termination.hpp; the simulator can consult global state.)
  [[nodiscard]] bool system_still_active(int self) const {
    for (int o = 0; o < devices_; ++o) {
      if (o != self && !devs_[o].parked && device_has_work(o)) return true;
      if (pending_arrivals(o)) return true;
    }
    return false;
  }

  // -------------------------------------------------------------------------
  RunResult<Program> collect() {
    finish_stats();
    RunResult<Program> result;
    result.states.reserve(devices_);
    for (Dev& dev : devs_) result.states.push_back(std::move(dev.state));
    result.stats = std::move(stats_);
    if (rehomed_dg_) {
      // Labels now live in the rebuilt layout's local-id spaces; hand
      // the layout to the caller so gather helpers use the right one.
      result.final_layout = std::shared_ptr<const partition::DistGraph>(
          std::move(rehomed_dg_));
    }
    return result;
  }

  const Program& program_;
  std::vector<Dev> devs_;
  // BSP round scratch (see reserve_round_buffers): D² message slots
  // indexed [from * D + to].
  std::vector<Msg<RV>> rmsgs_;
  std::vector<Msg<BV>> bmsgs_;
  std::vector<BaspInbox> inboxes_;
};

/// Convenience entry point: partitioned graph + topology + config in,
/// final states + stats out.
template <VertexProgram Program>
RunResult<Program> run(const partition::DistGraph& dg,
                       const comm::SyncStructure& sync,
                       const sim::Topology& topo,
                       const sim::CostParams& params,
                       const EngineConfig& config, const Program& program) {
  Executor<Program> exec(dg, sync, topo, params, config, program);
  return exec.run();
}

}  // namespace sg::engine
