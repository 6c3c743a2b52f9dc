#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "comm/accounting.hpp"
#include "comm/field_sync.hpp"
#include "comm/sync_structure.hpp"
#include "comm/wire.hpp"
#include "engine/config.hpp"
#include "engine/program.hpp"
#include "engine/round_ctx.hpp"
#include "engine/stats.hpp"
#include "engine/termination.hpp"
#include "fault/checkpoint.hpp"
#include "fault/fault_injector.hpp"
#include "fault/gray.hpp"
#include "fault/health.hpp"
#include "integrity/auditor.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/prof.hpp"
#include "obs/trace.hpp"
#include "partition/dist_graph.hpp"
#include "sim/device_memory.hpp"
#include "sim/interconnect.hpp"
#include "sim/topology.hpp"

namespace sg::engine {

/// One sync payload in flight, with its simulated delivery times.
template <typename T>
struct Msg {
  comm::Payload<T> payload;
  sim::SimTime arrival;
  std::uint32_t sender_round = 0;
  obs::SpanRef net_ref;  ///< network-hop span, for receive-side links
  // Byzantine-network bookkeeping (BSP slots; BASP uses dup_ghost).
  bool duplicated = false;        ///< a ghost copy also arrives
  sim::SimTime dup_arrival;       ///< ghost arrival when duplicated
  bool dup_ghost = false;         ///< this Msg *is* the ghost (BASP)
};

/// One BASP receive lane of a device: payloads ordered by arrival, plus
/// the reorder buffer of sequence-gapped arrivals parked until their
/// predecessors land (wire protocol on; wiped with the inbox on
/// eviction, which is what makes the epoch fence safe).
template <typename T>
struct Lane {
  std::deque<Msg<T>> queue;
  std::vector<Msg<T>> held;

  void insert(Msg<T> msg) {
    auto it = std::upper_bound(
        queue.begin(), queue.end(), msg,
        [](const Msg<T>& a, const Msg<T>& b) { return a.arrival < b.arrival; });
    queue.insert(it, std::move(msg));
  }
  [[nodiscard]] bool empty() const { return queue.empty() && held.empty(); }
};

/// What differs between the two sync directions: reduce (mirror ->
/// master) and broadcast (master -> mirror) run the same message path
/// under different names.
struct SyncSide {
  fault::MsgKind kind;
  UpdateKind update;
  const char* extract;   ///< send-side span names
  const char* downlink;
  const char* net;
  const char* staging;   ///< same-host hop (DRAM staging copy)
  const char* uplink;    ///< receive-side span names
  const char* apply;
  const char* prof_extract;  ///< host-profiler scopes (BSP extract, apply)
  const char* prof_apply;
};

/// Indexed by "is broadcast".
inline constexpr SyncSide kSyncSides[2] = {
    {fault::MsgKind::kReduce, UpdateKind::kReduce, "reduce.extract",
     "reduce.downlink", "reduce.net", "reduce.staging", "reduce.uplink",
     "reduce.apply", "sync.extract_reduce", "sync.apply_reduce"},
    {fault::MsgKind::kBroadcast, UpdateKind::kBroadcast, "bcast.extract",
     "bcast.downlink", "bcast.net", "bcast.staging", "bcast.uplink",
     "bcast.apply", "sync.extract_broadcast", "sync.apply_broadcast"},
};

/// The untyped half of the distributed executor: everything that never
/// touches a program's label types — the cost model and wire protocol of
/// one message, network delivery under injected faults, tracing and
/// metrics, checkpoint and re-homing bookkeeping, and the run's stats.
/// Compiled once; `Executor<Program>` derives from it and keeps only the
/// code that reads or writes per-device program state.
///
/// Thread-safety rule: a method called from a parallel BSP phase touches
/// only the slots of the device it was called for (`fault_per_dev_[d]`,
/// `comm_per_dev_[d]`, `seq_out_[d]`/`seq_in_[d]`, `memory_[d]`, stats
/// entry `d`) and its own tracer tracks.
class Runtime {
 protected:
  /// Per-vertex byte sizes of the program's synced fields (and its extra
  /// per-vertex GPU state), for memory charging and re-init costs.
  struct ValueSizes {
    std::uint64_t reduce = 0;
    std::uint64_t bcast = 0;
    std::uint64_t extra = 0;
  };

  Runtime(const partition::DistGraph& dg, const comm::SyncStructure& sync,
          const sim::Topology& topo, const sim::CostParams& params,
          const EngineConfig& config, ValueSizes sizes);

  /// Receiver-side admission verdict for one arrived payload.
  enum class Admit : std::uint8_t { kApply, kDiscard, kHold };

  /// Outcome of handing one message to the simulated NIC.
  struct Delivery {
    sim::SimTime arrival;      ///< max() = fenced, never delivered
    bool corrupt = false;      ///< protocol off: payload must be perturbed
    std::uint64_t corrupt_h = 0;  ///< deterministic bit-flip selector
    bool duplicate = false;    ///< a ghost copy also arrives
    sim::SimTime dup_arrival;  ///< ghost arrival when duplicate
  };

  /// A shipped payload: its delivery and its network-hop span.
  struct Shipment {
    Delivery del;
    obs::SpanRef net_ref;
    [[nodiscard]] bool fenced() const {
      return del.arrival == sim::SimTime::max();
    }
  };

  /// The owned structures a layout swap retired; they must outlive the
  /// per-device rebuild, which still reads the old layout.
  struct RetiredLayout {
    std::unique_ptr<partition::DistGraph> dg;
    std::unique_ptr<comm::SyncStructure> sync;
  };

  // ---- setup -------------------------------------------------------------
  /// Rejects malformed configurations, sizes the per-device slots and
  /// wires observability. `checkpointable` and `program` describe the
  /// program the executor runs.
  void begin_setup(bool checkpointable, const std::string& program);
  /// Creates device d's memory and charges every engine buffer on it.
  void init_memory(int d, const partition::LocalGraph& lg);
  /// Resets every fault, gray-failure and SDC ledger for a fresh run.
  void reset_fault_state();
  void reset_channels(int d);

  // ---- observability -----------------------------------------------------
  /// Track layout: 0..D-1 per-device timelines, D..2D-1 "network from
  /// device d" (spans recorded by the sender, so the parallel BSP
  /// phases never race on a track), 2D the runtime track (checkpoint /
  /// rollback / re-homing, recorded from single-threaded contexts only).
  [[nodiscard]] obs::Scope dev_scope(int d) const {
    return obs::Scope{tracer_, d};
  }
  [[nodiscard]] obs::Scope net_scope(int d) const {
    return obs::Scope{tracer_, devices_ + d};
  }
  [[nodiscard]] obs::Scope rt_scope() const {
    return obs::Scope{tracer_, 2 * devices_};
  }

  /// Flight recorder / host profiler handles. Both fall back to the
  /// process-wide instances, so instrumentation is always wired: the
  /// recorder is genuinely always-on (lock-free, allocation-free), and
  /// the global profiler is disabled by default, making every scope a
  /// branch-and-return.
  [[nodiscard]] obs::FlightRecorder& flight() const {
    return config_.flight != nullptr ? *config_.flight
                                     : obs::FlightRecorder::global();
  }
  [[nodiscard]] obs::Profiler& prof() const {
    return config_.profiler != nullptr ? *config_.profiler
                                       : obs::Profiler::global();
  }

  // ---- compute -----------------------------------------------------------
  /// Charges the kernel device d just ran from `at`: its modeled time,
  /// inflated by an active straggler / degradation fault and memory-
  /// pressure spill, plus work stats and its timeline span. Returns it.
  sim::SimTime charge_kernel(int d, sim::SimTime at, const RoundCtx& ctx);
  /// Kernel metrics of device d's last charge_kernel. Called on the
  /// calling thread in device order, never from a parallel phase: the
  /// kernel-time histogram's floating-point sum depends on the order of
  /// its observations.
  void observe_kernel(int d, std::size_t frontier);
  /// Flips bit `bit % width` of the `size`-byte value at `v` (works for
  /// integral and floating label types alike).
  static void flip_bit(void* v, std::size_t size, int bit);

  // ---- wire protocol -----------------------------------------------------
  /// Seals `p` (see seal). The checksum is computed only under an
  /// active fault plan — on a clean run sealing is pure bookkeeping with
  /// zero modeled (and negligible real) cost, keeping clean timelines
  /// byte-identical.
  template <typename T>
  void seal_payload(comm::Payload<T>& p, int from, int to,
                    fault::MsgKind kind, std::uint64_t round) {
    if (seal(p.header, from, to, kind, round)) {
      p.header.checksum = comm::payload_checksum(p);
    }
  }

  /// Wire-protocol admission of `p` on device `d` (see admit). Unsealed
  /// payloads (protocol off) always apply — the unprotected failure mode
  /// under study.
  template <typename T>
  Admit admit_payload(int d, const comm::Payload<T>& p, fault::MsgKind kind,
                      bool allow_hold, sim::SimTime at) {
    if (!config_.wire_protocol || !p.header.sealed()) return Admit::kApply;
    return admit(d, p.header, p.from, kind, allow_hold, at,
                 comm::verify_payload(p));
  }

  template <typename T>
  [[nodiscard]] static std::uint64_t value_bytes(const comm::Payload<T>& p) {
    return p.count() * sizeof(T);
  }

  // ---- message costs and delivery ----------------------------------------
  void account_network(int from, int to, std::uint64_t bytes);
  /// Pays a sealed payload's send cost on device d's `clock` / copy
  /// `engine` and hands it to the NIC for `o`; traces it unless fenced.
  Shipment ship(int d, int o, const SyncSide& side, std::uint64_t value_bytes,
                std::uint64_t wire_bytes, std::uint64_t scanned,
                std::uint64_t round, sim::SimTime& clock,
                sim::SimTime& engine);
  /// BSP receive of one admitted payload on device o: waits for its
  /// arrival, then pays uplink + apply on the `t` / `engine` pipeline.
  void bsp_receive(int o, int from, const SyncSide& side,
                   std::uint64_t value_bytes, std::uint64_t wire_bytes,
                   sim::SimTime arrival, obs::SpanRef net_ref,
                   sim::SimTime& t, sim::SimTime& engine);
  /// The ghost copy of a duplicated BSP payload: discarded by sequence
  /// number under the wire protocol, else received again (returns true:
  /// the caller re-applies it).
  bool ghost_receive(int o, std::uint64_t value_bytes,
                     std::uint64_t wire_bytes, sim::SimTime dup_arrival,
                     sim::SimTime& t, sim::SimTime& engine);
  /// BASP receive of one admitted payload on device d's `clock`.
  void basp_receive(int d, int from, const SyncSide& side,
                    std::uint64_t value_bytes, std::uint64_t wire_bytes,
                    obs::SpanRef net_ref, sim::SimTime& clock,
                    std::uint32_t local_round);
  /// BASP bookkeeping of one delivered send: trace volume, network
  /// bytes, and Safra's send counter.
  void basp_sent(int d, int o, std::uint32_t local_round,
                 std::uint64_t bytes);

  // ---- BSP ---------------------------------------------------------------
  /// Marks the devices silent at `barrier`: lost (or evicted) ones stop
  /// computing and sending, and peers stop extracting toward them.
  void mark_silent(sim::SimTime barrier);
  /// Attributes this round's sync volume to its trace entry.
  void trace_round_volume();
  /// Barrier over the `done_` phase clocks: charges stragglers' waits
  /// and the runtime's task-mapping overhead; returns the new barrier.
  sim::SimTime bsp_barrier(sim::SimTime barrier);
  /// Crashes scheduled at or before `barrier` not yet handled.
  std::vector<int> due_crashes(sim::SimTime barrier);

  // ---- predicates --------------------------------------------------------
  [[nodiscard]] bool undetected_loss(sim::SimTime t) const;
  [[nodiscard]] int live_devices() const;
  [[nodiscard]] bool audit_skip(int d) const;
  [[nodiscard]] bool basp_silent(int o, sim::SimTime at) const;
  [[nodiscard]] bool is_partner(int sender, int receiver) const;
  [[nodiscard]] bool has_reduce_partner(int d) const;

  /// Exchange list a payload from `sender` to `receiver` travels on.
  /// Lists are indexed (mirror device, master device): a reduce flows
  /// mirrors(sender) -> master(receiver), a broadcast the other way.
  [[nodiscard]] const comm::ExchangeList& exchange_list(bool bcast,
                                                        int sender,
                                                        int receiver) const {
    return bcast ? sync().list(receiver, sender, bcast_filter_)
                 : sync().list(sender, receiver, reduce_filter_);
  }

  // ---- checkpoints and recovery ------------------------------------------
  /// Write side of a checkpoint whose device blobs are filled in: write
  /// cost, injected blob corruption, accounting, spans and the store
  /// save. Returns the slowest device's write time.
  sim::SimTime write_checkpoint(fault::Checkpoint& ck, sim::SimTime barrier);
  /// Whether checkpoints are read back against live state after writing.
  [[nodiscard]] bool verifies_checkpoints() const;
  /// Read-back of device d's blob against a `fresh` snapshot of its live
  /// state; returns true when the blob was repaired (must be re-saved).
  bool read_back(fault::Checkpoint& ck, int d, std::vector<char> fresh,
                 sim::SimTime& worst);
  [[nodiscard]] sim::SimTime restore_cost(std::size_t bytes) const;
  /// Accounts a rollback to last_ckpt_ at `t` that took `worst`: the
  /// recovery time, its runtime-track span `span` and flight event
  /// `event`, and the rollback metric.
  void note_rollback(sim::SimTime t, sim::SimTime worst, const char* span,
                     const char* event);
  /// Cost of a cold program re-init on a part with `num_local` proxies.
  [[nodiscard]] sim::SimTime reinit_cost(std::uint64_t num_local) const;

  // ---- re-homing ---------------------------------------------------------
  /// Silence origin of the device being evicted at `now`.
  [[nodiscard]] sim::SimTime silence_origin(int cd, sim::SimTime now,
                                            bool graceful) const;
  /// Free device memory per live device other than `cd`.
  [[nodiscard]] std::vector<std::uint64_t> free_bytes(int cd) const;
  /// Swaps in the rebuilt layout `next` and bumps the layout epoch;
  /// `evicted` (or -1) is marked dead. Returns the retired layout.
  RetiredLayout install_layout(partition::DistGraph&& next, int evicted);
  /// Adds to `cost` the migration of `bytes` of state from `src` (or the
  /// first live device when -1) to the first other live device, plus
  /// every live device's sync-metadata re-upload.
  sim::SimTime add_migration_cost(sim::SimTime cost, int src,
                                  std::uint64_t bytes);
  /// Re-creates device d's memory on the rebuilt layout part `lg`,
  /// keeping the all-time peak.
  void recharge_memory(int d, const partition::LocalGraph& lg);

  // ---- BASP --------------------------------------------------------------
  void basp_trace(std::uint32_t round, std::uint64_t active,
                  std::uint64_t edges, std::uint64_t volume);
  /// Restarts the Safra detector (its counters straddle dropped or
  /// rewound traffic): dead devices — or all when `all_passive` —
  /// start passive.
  void restart_termination(bool all_passive);
  /// Whether the running Safra token completes two clean circulations
  /// from here (a bounded number of advances).
  bool termination_settles();

  /// Folds the per-device ledgers into stats_ at the end of a run.
  void finish_stats();

  /// Current layout / exchange lists. These start at the caller's
  /// structures and are swapped to the owned rebuilt ones when a device
  /// eviction re-homes masters (the executor is the only writer).
  [[nodiscard]] const partition::DistGraph& dg() const { return *dgp_; }
  [[nodiscard]] const comm::SyncStructure& sync() const { return *syncp_; }

  const partition::DistGraph* dgp_;
  const comm::SyncStructure* syncp_;
  std::unique_ptr<partition::DistGraph> rehomed_dg_;
  std::unique_ptr<comm::SyncStructure> rehomed_sync_;
  const sim::Topology& topo_;
  const sim::CostParams& params_;
  sim::Interconnect net_;
  EngineConfig config_;
  ValueSizes sizes_;
  int devices_;
  comm::ProxyFilter reduce_filter_ = comm::ProxyFilter::kAll;
  comm::ProxyFilter bcast_filter_ = comm::ProxyFilter::kAll;

  // Untyped per-device slots: device memory, the kernel time of the last
  // round (for metrics), and per-channel wire sequence numbers. Channel
  // index is peer * 2 + kind (reduce / broadcast), reset on layout
  // rebuild (the epoch bump fences everything sealed before the reset).
  std::vector<std::unique_ptr<sim::DeviceMemory>> memory_;
  std::vector<sim::SimTime> kernel_time_;
  std::vector<std::vector<std::uint64_t>> seq_out_;
  std::vector<std::vector<std::uint64_t>> seq_in_;

  // BSP phase clocks (see Executor::reserve_round_buffers).
  std::vector<sim::SimTime> ready_, after_recv_, after_bext_, done_;
  std::vector<std::uint8_t> computed_;
  std::vector<sim::SimTime> park_start_;
  std::vector<comm::CommStats> comm_per_dev_;
  std::uint64_t traced_volume_ = 0;
  RunStats stats_;
  sim::SimTime total_time_;

  // Observability (all null when disabled; every use tests the handle).
  obs::Tracer* tracer_ = nullptr;
  obs::Counter* m_rounds_ = nullptr;
  obs::Counter* m_messages_ = nullptr;
  obs::Counter* m_bytes_ = nullptr;
  obs::Counter* m_checkpoints_ = nullptr;
  obs::Counter* m_rollbacks_ = nullptr;
  obs::Histogram* m_msg_size_ = nullptr;
  obs::Histogram* m_frontier_ = nullptr;
  obs::Histogram* m_kernel_us_ = nullptr;
  // Byzantine-network counters (registered only under an active plan).
  obs::Counter* m_net_anomalies_ = nullptr;
  obs::Counter* m_protocol_discards_ = nullptr;
  obs::Counter* m_partition_deferred_ = nullptr;
  // Gray-mitigation counters (registered only under degradation plans).
  obs::Counter* m_gray_migrations_ = nullptr;
  obs::Counter* m_gray_evictions_ = nullptr;

  // Fault-injection state.
  fault::FaultInjector injector_;
  std::vector<fault::FaultStats> fault_per_dev_;  // parallel-phase safe
  fault::FaultStats fault_global_;
  fault::Checkpoint last_ckpt_;
  fault::CheckpointStore ckpt_store_;
  std::size_t next_crash_ = 0;
  int force_sync_rounds_ = 0;  // keep BSP alive for post-recovery sync
  std::unique_ptr<TerminationDetector> td_;  // audited under faults
  // Permanent-loss state.
  fault::HeartbeatMonitor monitor_;
  // Gray-failure state: the degradation monitor and the per-device
  // bytes currently squatted by an active memory-pressure fault.
  fault::GrayFailureMonitor gray_;
  std::vector<std::uint64_t> pressure_squat_;
  std::vector<std::uint8_t> dead_;    // evicted devices (empty parts)
  std::vector<std::uint8_t> silent_;  // lost but not yet evicted (per round)
  std::uint32_t last_basp_ckpt_round_ = 0;
  // Layout epoch, sealed into every wire header and bumped on each
  // eviction/rebuild: traffic sealed against a dead layout is fence-
  // rejected on receipt instead of indexing rebuilt exchange lists.
  std::uint32_t epoch_ = 0;
  // Silent-data-corruption state (DESIGN.md §13): armed only while the
  // plan schedules SDC events, so clean runs execute none of it.
  integrity::DetectLagTracker sdc_lag_;
  std::vector<std::uint8_t> label_flip_done_;
  std::vector<std::uint8_t> ckpt_flip_done_;
  std::vector<int> sdc_repair_count_;  // escalation ledger, per device
  std::uint64_t audit_boundary_ = 0;   // audited-boundary counter
  int final_audits_ = 0;               // certify/revive loop safety valve
  std::uint64_t last_sdc_rollback_round_ =
      std::numeric_limits<std::uint64_t>::max();
  bool invariants_valid_ = true;  // cleared on re-home / migration
  obs::Counter* m_sdc_audits_ = nullptr;
  obs::Counter* m_sdc_detected_ = nullptr;
  obs::Counter* m_sdc_repaired_ = nullptr;
  static constexpr int kMaxFinalAudits = 5;

 private:
  /// Two-stage cost of a payload: extraction then PCIe downlink (send),
  /// or PCIe uplink then device apply (receive).
  struct StageCost {
    sim::SimTime first;   // extraction (send) / uplink (receive)
    sim::SimTime second;  // downlink (send)  / apply  (receive)
    [[nodiscard]] sim::SimTime total() const { return first + second; }
  };

  void setup_obs();
  void charge_memory(int d, const partition::LocalGraph& lg,
                     sim::DeviceMemory& mem);
  sim::SimTime apply_memory_pressure(int d, sim::SimTime at);
  [[nodiscard]] static std::size_t channel(int peer, fault::MsgKind kind) {
    return static_cast<std::size_t>(peer) * 2 +
           (kind == fault::MsgKind::kBroadcast ? 1 : 0);
  }
  /// Stamps the versioned wire header on an outgoing payload; returns
  /// whether the payload must also carry a checksum.
  bool seal(comm::WireHeader& h, int from, int to, fault::MsgKind kind,
            std::uint64_t round);
  Admit admit(int d, const comm::WireHeader& h, int from,
              fault::MsgKind kind, bool allow_hold, sim::SimTime at,
              bool checksum_ok);

  StageCost send_cost(int d, std::uint64_t value_bytes,
                      std::uint64_t wire_bytes, std::uint64_t list_size);
  StageCost receive_cost(int d, std::uint64_t value_bytes,
                         std::uint64_t wire_bytes);
  sim::SimTime advance_pipeline(StageCost c, sim::SimTime& stage1_clock,
                                sim::SimTime& stage2_clock) const;
  obs::SpanRef trace_send(int d, int o, const SyncSide& side,
                          const StageCost& c, sim::SimTime s0,
                          sim::SimTime sent, sim::SimTime arrival,
                          std::uint64_t bytes);
  void trace_recv(int d, int from, const SyncSide& side, const StageCost& c,
                  sim::SimTime s0, sim::SimTime end, std::uint64_t bytes,
                  obs::SpanRef net_ref);
  Delivery deliver_link(int from, int to, std::uint64_t bytes,
                        sim::SimTime sent, fault::MsgKind kind,
                        std::uint64_t round);
};

}  // namespace sg::engine
