#include "engine/runtime.hpp"

#include <cstring>
#include <stdexcept>

#include "engine/load_balancer.hpp"
#include "sim/gpu_cost_model.hpp"
#include "util/hash.hpp"

namespace sg::engine {

Runtime::Runtime(const partition::DistGraph& dg,
                 const comm::SyncStructure& sync, const sim::Topology& topo,
                 const sim::CostParams& params, const EngineConfig& config,
                 ValueSizes sizes)
    : dgp_(&dg),
      syncp_(&sync),
      topo_(topo),
      params_(params),
      net_(topo, params),
      config_(config),
      sizes_(sizes),
      devices_(dg.num_devices()) {
  if (topo_.num_devices() != devices_) {
    throw std::invalid_argument(
        "Executor: topology/partition device count mismatch");
  }
  injector_ = fault::FaultInjector(config_.fault_plan, &topo_);
}

// ---- setup ----------------------------------------------------------------

void Runtime::begin_setup(bool checkpointable, const std::string& program) {
  if (config_.fault_plan != nullptr && !config_.fault_plan->empty()) {
    // A malformed plan is an error, never a silent no-op.
    config_.fault_plan->validate_or_throw(devices_, topo_.num_hosts());
  }
  if (config_.checkpoint.interval_rounds > 0 && !checkpointable) {
    // S-gate: reject instead of silently skipping snapshots — a user
    // who configured a cadence must learn the model cannot honor it.
    throw std::invalid_argument(
        std::string("Executor: checkpointing requested (interval_rounds=") +
        std::to_string(config_.checkpoint.interval_rounds) +
        ") but program '" + program +
        "' has no archive() on its DeviceState; it cannot be "
        "checkpointed");
  }
  if (!injector_.losses().empty() && devices_ < 2) {
    throw std::invalid_argument(
        "Executor: the fault plan schedules a permanent device loss but "
        "the topology has no surviving device to re-home masters onto");
  }
  stats_.resize(devices_);
  memory_.resize(devices_);
  kernel_time_.assign(devices_, sim::SimTime{});
  seq_out_.resize(devices_);
  seq_in_.resize(devices_);
  setup_obs();
}

void Runtime::init_memory(int d, const partition::LocalGraph& lg) {
  auto& mem = memory_[d];
  mem = std::make_unique<sim::DeviceMemory>(d, topo_.spec(d).memory_bytes);
  if (config_.static_pool_bytes > 0) {
    // Lux-style fixed pool (Table III): claimed up front.
    mem->reserve_static(config_.static_pool_bytes);
  }
  charge_memory(d, lg, *mem);
}

void Runtime::reset_channels(int d) {
  seq_out_[d].assign(static_cast<std::size_t>(devices_) * 2, 0);
  seq_in_[d].assign(static_cast<std::size_t>(devices_) * 2, 0);
}

void Runtime::reset_fault_state() {
  comm_per_dev_.assign(devices_, comm::CommStats{});
  fault_per_dev_.assign(devices_, fault::FaultStats{});
  fault_global_ = fault::FaultStats{};
  last_ckpt_ = fault::Checkpoint{};
  next_crash_ = 0;
  force_sync_rounds_ = 0;
  if (!config_.checkpoint.dir.empty()) {
    ckpt_store_ = fault::CheckpointStore(config_.checkpoint.dir);
  }
  monitor_ = fault::HeartbeatMonitor(config_.health, &injector_, devices_);
  monitor_.set_metrics(config_.metrics);
  gray_ = fault::GrayFailureMonitor(&injector_, devices_,
                                    config_.mitigation, config_.health);
  gray_.set_metrics(config_.metrics);
  pressure_squat_.assign(devices_, 0);
  epoch_ = 0;
  dead_.assign(devices_, 0);
  silent_.assign(devices_, 0);
  last_basp_ckpt_round_ = 0;
  label_flip_done_.assign(injector_.label_flips().size(), 0);
  ckpt_flip_done_.assign(injector_.checkpoint_flips().size(), 0);
  sdc_repair_count_.assign(devices_, 0);
  sdc_lag_.clear();
  audit_boundary_ = 0;
  final_audits_ = 0;
  last_sdc_rollback_round_ = std::numeric_limits<std::uint64_t>::max();
  invariants_valid_ = true;
}

void Runtime::setup_obs() {
  tracer_ = config_.tracer;
  if (tracer_ != nullptr) {
    tracer_->require_tracks(2 * devices_ + 1);
    for (int d = 0; d < devices_; ++d) {
      tracer_->name_track(d, "gpu" + std::to_string(d));
      tracer_->name_track(devices_ + d, "net from gpu" + std::to_string(d));
    }
    tracer_->name_track(2 * devices_, "runtime");
  }
  if (config_.metrics != nullptr) {
    obs::Registry& reg = *config_.metrics;
    m_rounds_ = &reg.counter("engine.local_rounds");
    m_messages_ = &reg.counter("engine.messages_sent");
    m_bytes_ = &reg.counter("engine.sync_bytes");
    m_checkpoints_ = &reg.counter("fault.checkpoints");
    m_rollbacks_ = &reg.counter("fault.rollbacks");
    m_msg_size_ = &reg.histogram("engine.message_size_bytes",
                                 obs::Histogram::exp2_bounds(6, 24));
    m_frontier_ = &reg.histogram("engine.frontier_size",
                                 obs::Histogram::exp2_bounds(0, 24));
    m_kernel_us_ = &reg.histogram("engine.kernel_time_us",
                                  obs::Histogram::exp2_bounds(0, 20));
    // Byzantine-network counters exist only under an active fault
    // plan so a clean run's metric dump stays byte-identical.
    if (injector_.active()) {
      m_net_anomalies_ = &reg.counter("fault.net_anomalies");
      m_protocol_discards_ = &reg.counter("fault.protocol_discards");
      m_partition_deferred_ = &reg.counter("fault.partition_deferred");
    }
    // Mitigation counters exist only when the plan actually contains
    // degradation faults (same byte-identity contract).
    if (injector_.active() && injector_.has_degradation()) {
      m_gray_migrations_ = &reg.counter("gray.migrations");
      m_gray_evictions_ = &reg.counter("gray.evictions");
    }
    // SDC counters exist only when the plan actually injects silent
    // corruption (same byte-identity contract).
    if (injector_.active() && injector_.has_sdc()) {
      m_sdc_audits_ = &reg.counter("sdc.audits");
      m_sdc_detected_ = &reg.counter("sdc.detected");
      m_sdc_repaired_ = &reg.counter("sdc.repaired");
    }
  }
}

// ---- compute --------------------------------------------------------------

/// Registers every buffer the engine conceptually places on the GPU.
/// Throws sim::OutOfDeviceMemory when capacity is exceeded — the
/// "missing data points" of the paper's scaling figures.
void Runtime::charge_memory(int d, const partition::LocalGraph& lg,
                            sim::DeviceMemory& mem) {
  mem.allocate("graph", lg.bytes());
  const std::uint64_t label_bytes =
      static_cast<std::uint64_t>(lg.num_local) *
      (sizes_.reduce + sizes_.bcast + sizes_.extra);
  mem.allocate("labels", label_bytes);
  mem.allocate("worklist", static_cast<std::uint64_t>(lg.num_local) * 8 +
                               lg.num_local / 4);
  mem.allocate("sync_metadata", sync().metadata_bytes(d));
  if (config_.balancer == sim::Balancer::LB) {
    // Merrill-style load-balanced search needs a per-edge scan array.
    mem.allocate("lb_scratch", lg.num_out_edges() * 4);
  }
  if (config_.global_label_overhead_bytes > 0) {
    mem.allocate("global_arrays",
                 static_cast<std::uint64_t>(dg().global_vertices()) *
                     config_.global_label_overhead_bytes);
  }
  std::uint64_t buffers = 0;
  for (int o = 0; o < devices_; ++o) {
    buffers += static_cast<std::uint64_t>(
                   sync().list(d, o, comm::ProxyFilter::kAll).size()) *
               (sizes_.reduce + 4);
    buffers += static_cast<std::uint64_t>(
                   sync().list(o, d, comm::ProxyFilter::kAll).size()) *
               (sizes_.bcast + 4);
  }
  mem.allocate("comm_buffers", buffers);
}

sim::SimTime Runtime::charge_kernel(int d, sim::SimTime at,
                                    const RoundCtx& ctx) {
  const sim::KernelSchedule sched = analyze_kernel(
      ctx.work_sizes(), config_.balancer, topo_.spec(d).thread_blocks);
  const sim::GpuCostModel cost(topo_.spec(d), params_);
  sim::SimTime t = cost.kernel_time(sched, config_.balancer);
  if (injector_.active()) {
    const double slow = injector_.compute_slowdown(d, at);
    if (slow > 1.0) {
      const sim::SimTime extra = t * (slow - 1.0);
      // Attribution: the extra time is charged to whichever factor
      // binds — a gray degradation at (or above) the straggler level
      // owns the delay, else it stays straggler-attributed.
      const double degrade = injector_.degrade_slowdown(d, at);
      if (degrade > 1.0 && degrade >= slow) {
        fault_per_dev_[d].degrade_delay += extra;
        fault_per_dev_[d].degrade_for(d).degrade_delay += extra;
      } else {
        fault_per_dev_[d].straggler_delay += extra;
      }
      t += extra;
    }
    const sim::SimTime stall = apply_memory_pressure(d, at + t);
    t += stall;
    gray_.observe_kernel(d, t.seconds(), stall.seconds());
  } else {
    gray_.observe_kernel(d, t.seconds());
  }
  stats_.compute_time[d] += t;
  stats_.work_items[d] += ctx.total_edges();
  stats_.rounds[d] += 1;
  dev_scope(d).span(obs::SpanKind::kKernel, "kernel", at, at + t,
                    ctx.total_edges(), stats_.rounds[d]);
  kernel_time_[d] = t;
  return t;
}

void Runtime::observe_kernel(int d, std::size_t frontier) {
  if (m_rounds_ == nullptr) return;
  m_rounds_->inc();
  m_frontier_->observe(static_cast<double>(frontier));
  m_kernel_us_->observe(kernel_time_[d].micros());
}

/// Applies the memory-pressure fault in effect on device `d` at `at`:
/// an external squatter claims the ramped fraction of capacity. What
/// fits in free headroom is allocated under a "pressure" tag (the
/// migration planner sees the shrunken headroom); the deficit is
/// modeled as spill traffic staged over PCIe this round, returned as
/// a stall on the device's timeline. Touches only per-device state,
/// so the parallel BSP compute phase never races.
sim::SimTime Runtime::apply_memory_pressure(int d, sim::SimTime at) {
  const double frac = injector_.memory_pressure(d, at);
  std::uint64_t& squat = pressure_squat_[static_cast<std::size_t>(d)];
  if (frac <= 0.0 && squat == 0) return sim::SimTime{};
  sim::DeviceMemory& mem = *memory_[d];
  const std::uint64_t cap = mem.capacity();
  const auto want =
      static_cast<std::uint64_t>(frac * static_cast<double>(cap));
  if (want != squat) {
    if (squat > 0) mem.free("pressure");
    const std::uint64_t headroom = cap - mem.in_use();
    squat = std::min(want, headroom);
    if (squat > 0) mem.allocate("pressure", squat);
  }
  if (want == 0) return sim::SimTime{};
  fault::DegradeStats& ledger = fault_per_dev_[d].degrade_for(d);
  ledger.pressure_peak_bytes = std::max(ledger.pressure_peak_bytes, squat);
  const std::uint64_t deficit = want - squat;
  if (deficit == 0) return sim::SimTime{};
  const sim::SimTime stall = net_.host_to_device(deficit);
  fault_per_dev_[d].spill_bytes += deficit;
  fault_per_dev_[d].spill_stall += stall;
  ledger.spill_bytes += deficit;
  ledger.spill_stall = ledger.spill_stall + stall;
  dev_scope(d).span(obs::SpanKind::kPcie, "pressure.spill", at, at + stall,
                    deficit, static_cast<std::uint64_t>(d));
  return stall;
}

void Runtime::flip_bit(void* v, std::size_t size, int bit) {
  auto* bytes = static_cast<unsigned char*>(v);
  const unsigned b = static_cast<unsigned>(bit) % (size * 8);
  bytes[b / 8] ^= static_cast<unsigned char>(1u << (b % 8));
}

// ---- wire protocol --------------------------------------------------------

/// Stamps the versioned wire header on an outgoing payload: version,
/// kind, layout epoch, per-channel sequence number, sender round.
bool Runtime::seal(comm::WireHeader& h, int from, int to, fault::MsgKind kind,
                   std::uint64_t round) {
  if (!config_.wire_protocol) return false;
  h.version = comm::kWireVersion;
  h.kind = static_cast<std::uint8_t>(kind);
  h.epoch = epoch_;
  h.round = round;
  h.seq = seq_out_[from][channel(to, kind)]++;
  return injector_.active();
}

/// Wire-protocol admission on device `d` (DESIGN.md §11) of a sealed
/// payload from `from`: stale-epoch payloads are fence-rejected,
/// checksum mismatches (`checksum_ok` false) and already-seen sequence
/// numbers discarded, and sequence gaps held for in-order apply
/// (`allow_hold`; BSP's phase barrier makes gaps impossible, so it
/// admits and fast-forwards instead). Mutates only seq_in_[d] /
/// fault_per_dev_[d], so the parallel BSP apply phases never race.
Runtime::Admit Runtime::admit(int d, const comm::WireHeader& h, int from,
                              fault::MsgKind kind, bool allow_hold,
                              sim::SimTime at, bool checksum_ok) {
  fault::FaultStats& fs = fault_per_dev_[d];
  if (h.epoch != epoch_) {
    // Sealed under a pre-rebuild layout: its positions index exchange
    // lists that no longer exist. Safe to drop — the post-eviction
    // re-feed resends every proxy value.
    fs.fence_rejects += 1;
    fs.pair(from, d).fenced += 1;
    if (m_protocol_discards_ != nullptr) m_protocol_discards_->inc();
    flight().record(obs::FlightKind::kWire, d, from, h.epoch, "fence_reject",
                    at.seconds());
    return Admit::kDiscard;
  }
  if (!checksum_ok) {
    fs.messages_corrupted += 1;
    fs.pair(from, d).corrupted += 1;
    if (m_protocol_discards_ != nullptr) m_protocol_discards_->inc();
    flight().record(obs::FlightKind::kWire, d, from,
                    static_cast<std::int64_t>(h.seq), "checksum_reject",
                    at.seconds());
    return Admit::kDiscard;
  }
  std::uint64_t& expected = seq_in_[d][channel(from, kind)];
  if (h.seq < expected) {
    fs.duplicates_discarded += 1;
    if (m_protocol_discards_ != nullptr) m_protocol_discards_->inc();
    flight().record(obs::FlightKind::kWire, d, from,
                    static_cast<std::int64_t>(h.seq), "dup_discard",
                    at.seconds());
    return Admit::kDiscard;
  }
  if (h.seq > expected && allow_hold) return Admit::kHold;
  expected = h.seq + 1;
  return Admit::kApply;
}

// ---- message costs and delivery -------------------------------------------

/// Two-stage cost of an outgoing payload: GPU-side extraction, then
/// the PCIe downlink. Under overlap_comm the stages pipeline across
/// partners (extract partner i+1 while partner i's buffer is on the
/// bus). Byte accounting goes to a per-device slot so parallel BSP
/// phases do not race.
Runtime::StageCost Runtime::send_cost(int d, std::uint64_t value_bytes,
                                      std::uint64_t wire_bytes,
                                      std::uint64_t list_size) {
  const sim::GpuCostModel cost(topo_.spec(d), params_);
  StageCost c;
  if (config_.sync_mode == comm::SyncMode::kUO) {
    c.first = cost.extract_updates_time(list_size, value_bytes);
  } else {
    c.first = cost.buffer_copy_time(value_bytes);
  }
  c.second = net_.device_to_host(wire_bytes);
  comm_per_dev_[d].device_to_host_bytes += wire_bytes;
  comm_per_dev_[d].messages += 1;
  return c;
}

/// PCIe-uplink + device apply cost of one incoming payload.
Runtime::StageCost Runtime::receive_cost(int d, std::uint64_t value_bytes,
                                         std::uint64_t wire_bytes) {
  const sim::GpuCostModel cost(topo_.spec(d), params_);
  StageCost c;
  c.first = net_.host_to_device(wire_bytes);
  c.second = cost.buffer_copy_time(value_bytes);
  comm_per_dev_[d].host_to_device_bytes += wire_bytes;
  return c;
}

/// Advances a two-engine pipeline by one payload. Without overlap the
/// stages serialize on one timeline; with overlap stage two runs on a
/// copy/apply engine concurrently with the next payload's stage one.
/// Returns the payload's completion time.
sim::SimTime Runtime::advance_pipeline(StageCost c, sim::SimTime& stage1_clock,
                                       sim::SimTime& stage2_clock) const {
  stage1_clock += c.first;
  if (config_.overlap_comm) {
    stage2_clock = sim::max(stage2_clock, stage1_clock) + c.second;
  } else {
    stage1_clock += c.second;
    stage2_clock = stage1_clock;
  }
  return stage2_clock;
}

/// Send-side spans of one payload leaving device `d` for `o`:
/// extraction [s0, s0+first), downlink ending at `sent`, and the
/// network hop [sent, arrival) on d's network track. The downlink
/// span is anchored to `sent` so it is correct in both pipeline modes
/// (serialized and overlapped). Also feeds the send-side metrics.
/// Returns the network-hop span's ref so receive-side spans can be
/// causally linked to it (critical-path analysis). Same-host hops are
/// DRAM staging copies, not NIC traffic — they get a distinct
/// "*.staging" name so the breakdown taxonomy counts them as
/// device-host rather than inter-host.
obs::SpanRef Runtime::trace_send(int d, int o, const SyncSide& side,
                                 const StageCost& c, sim::SimTime s0,
                                 sim::SimTime sent, sim::SimTime arrival,
                                 std::uint64_t bytes) {
  obs::SpanRef net_ref;
  if (tracer_ != nullptr) {
    const auto peer = static_cast<std::uint64_t>(o);
    const obs::SpanRef ex = dev_scope(d).span(
        obs::SpanKind::kExtract, side.extract, s0, s0 + c.first, bytes, peer);
    const obs::SpanRef dl =
        dev_scope(d).span(obs::SpanKind::kPcie, side.downlink,
                          sent - c.second, sent, bytes, peer);
    const char* hop = topo_.same_host(d, o) ? side.staging : side.net;
    net_ref = net_scope(d).span(obs::SpanKind::kNet, hop, sent, arrival,
                                bytes, peer);
    tracer_->link(ex, dl);
    tracer_->link(dl, net_ref);
  }
  if (m_messages_ != nullptr) {
    m_messages_->inc();
    m_bytes_->inc(bytes);
    m_msg_size_->observe(static_cast<double>(bytes));
  }
  return net_ref;
}

/// Receive-side spans on device `d`: uplink [s0, s0+first) and apply
/// ending at `end` (anchored like the downlink above), causally
/// chained to the message's network hop via `net_ref`.
void Runtime::trace_recv(int d, int from, const SyncSide& side,
                         const StageCost& c, sim::SimTime s0,
                         sim::SimTime end, std::uint64_t bytes,
                         obs::SpanRef net_ref) {
  if (tracer_ == nullptr) return;
  const auto peer = static_cast<std::uint64_t>(from);
  const obs::SpanRef up = dev_scope(d).span(
      obs::SpanKind::kPcie, side.uplink, s0, s0 + c.first, bytes, peer);
  const obs::SpanRef ap = dev_scope(d).span(
      obs::SpanKind::kApply, side.apply, end - c.second, end, bytes, peer);
  tracer_->link(net_ref, up);
  tracer_->link(up, ap);
}

void Runtime::account_network(int from, int to, std::uint64_t bytes) {
  if (!topo_.same_host(from, to)) {
    comm_per_dev_[from].host_to_host_bytes += bytes;
  }
}

// Hash salts for deterministic anomaly shaping (independent of the
// injector's decision salts).
constexpr std::uint64_t kGhostDelaySalt = 0x53474748ULL;
constexpr std::uint64_t kReorderDelaySalt = 0x53475244ULL;
constexpr std::uint64_t kCorruptBitsSalt = 0x53474342ULL;

/// Self-healing host-to-host delivery: returns the arrival of a
/// message handed to the network at `sent`, after the full gauntlet
/// of injected network behaviour. Under an active fault plan:
///  * a partition separating the endpoint hosts holds the message at
///    the partition edge until heal — unless either endpoint crosses
///    its eviction fence before then, in which case the message is
///    discarded outright (fence reject: no split-brain traffic);
///  * each attempt may be dropped (timeout + backoff + retransmit);
///  * an attempt may be corrupted in flight: with the wire protocol
///    on the checksum catches it and the receiver NACKs the sender
///    into the same retry ladder; with it off the corrupted payload
///    is delivered and silently applied;
///  * the delivered copy may be duplicated (a ghost arrives later)
///    or reordered (arrival delayed past later traffic).
/// All decisions are pure seeded hashes, and only per-`from` stat
/// slots are touched, so this is safe from the parallel BSP phases.
Runtime::Delivery Runtime::deliver_link(int from, int to, std::uint64_t bytes,
                                        sim::SimTime sent,
                                        fault::MsgKind kind,
                                        std::uint64_t round) {
  Delivery r;
  if (!injector_.active()) {
    r.arrival = sent + net_.host_to_host(from, to, bytes);
    return r;
  }
  const int sh = topo_.host_of(from);
  const int dh = topo_.host_of(to);
  fault::FaultStats& fs = fault_per_dev_[from];
  // One more copy of the message crosses the wire.
  const auto retransmit = [&] {
    fs.retries += 1;
    fs.retransmitted_bytes += bytes;
    comm_per_dev_[from].retransmitted_messages += 1;
    comm_per_dev_[from].retransmitted_bytes += bytes;
  };
  sim::SimTime start = sent;
  // Partition gate: cross-partition traffic is held at the edge.
  while (injector_.hosts_partitioned(sh, dh, start)) {
    const sim::SimTime heal = injector_.partition_heal(sh, dh, start);
    if (monitor_.fenced(from, heal) || monitor_.fenced(to, heal)) {
      // An endpoint is evicted before the link heals: the message is
      // from/to a fenced side and must never be applied.
      fs.fence_rejects += 1;
      fs.pair(from, to).fenced += 1;
      if (m_protocol_discards_ != nullptr) m_protocol_discards_->inc();
      net_scope(from).span(obs::SpanKind::kNet, "net.fenced", start, start,
                           bytes, static_cast<std::uint64_t>(to));
      flight().record(obs::FlightKind::kWire, from, to,
                      static_cast<std::int64_t>(bytes), "fenced",
                      start.seconds());
      r.arrival = sim::SimTime::max();
      return r;
    }
    fs.partition_deferred += 1;
    fs.pair(from, to).deferred += 1;
    retransmit();
    if (m_partition_deferred_ != nullptr) m_partition_deferred_->inc();
    net_scope(from).span(obs::SpanKind::kNet, "net.partition_hold", start,
                         heal, bytes, static_cast<std::uint64_t>(to));
    flight().record(obs::FlightKind::kWire, from, to,
                    static_cast<std::int64_t>(bytes), "partition_hold",
                    start.seconds());
    start = heal;
  }
  sim::SimTime timeout = config_.retry.timeout;
  for (int attempt = 0;; ++attempt) {
    const double factor = injector_.link_delay_factor(sh, dh, start);
    const double lat = injector_.link_latency_factor(sh, dh, start);
    // Bandwidth derating scales the whole hop; latency derating adds
    // extra copies of the byte-independent share only (lat == 1, the
    // default, reproduces the pre-existing bandwidth-only model).
    sim::SimTime hop = net_.host_to_host(from, to, bytes) * factor;
    if (lat > 1.0) {
      hop = hop + net_.host_to_host_fixed(from, to) * (lat - 1.0);
    }
    const bool last = attempt >= config_.retry.max_retries;
    if (!last &&
        injector_.drops_message(from, to, kind, round, attempt, start)) {
      // Dropped: the bytes still crossed (part of) the wire, the
      // sender waits out the delivery timeout, then retransmits.
      fs.messages_dropped += 1;
      fs.pair(from, to).dropped += 1;
      retransmit();
      account_network(from, to, bytes);
      flight().record(obs::FlightKind::kWire, from, to, attempt, "drop",
                      start.seconds());
      start += timeout;
      timeout = timeout * config_.retry.backoff;
      continue;
    }
    // This attempt reaches the receiver. In-flight corruption:
    if (injector_.corrupts_message(from, to, kind, round, attempt, start)) {
      if (m_net_anomalies_ != nullptr) m_net_anomalies_->inc();
      if (config_.wire_protocol && !last) {
        // Checksum mismatch at the receiver NIC -> NACK -> the sender
        // retransmits with the same timeout/backoff ladder. Each
        // retransmission re-rolls, so a clean copy gets through.
        fs.messages_corrupted += 1;
        fs.pair(from, to).corrupted += 1;
        retransmit();
        account_network(from, to, bytes);
        net_scope(from).span(obs::SpanKind::kNet, "net.nack_retry", start,
                             start + timeout, bytes,
                             static_cast<std::uint64_t>(to));
        flight().record(obs::FlightKind::kWire, from, to, attempt,
                        "nack_retry", start.seconds());
        start += timeout;
        timeout = timeout * config_.retry.backoff;
        continue;
      }
      if (!config_.wire_protocol) {
        // Unprotected: the bit-flipped payload is delivered and will
        // be silently applied — the failure mode the checksum exists
        // to prevent (sg_chaos --inject-defect demonstrates it).
        r.corrupt = true;
        r.corrupt_h = static_cast<std::uint64_t>(
            injector_.anomaly_uniform(kCorruptBitsSalt, from, to, kind,
                                      round) *
            9007199254740992.0);
        fs.corrupt_applied += 1;
        fs.pair(from, to).corrupted += 1;
        flight().record(obs::FlightKind::kWire, from, to,
                        static_cast<std::int64_t>(round), "corrupt_applied",
                        start.seconds());
      }
      // Protocol on but the retry ladder is exhausted: the bounded
      // final attempt is modeled as verified end-to-end (delivered
      // clean) so no message is ever lost permanently.
    }
    sim::SimTime arrival = start + hop;
    if (injector_.reorders_message(from, to, kind, round, start)) {
      // Delayed past later traffic on the channel; the receiver's
      // reorder buffer (protocol on) restores apply order.
      const double u = injector_.anomaly_uniform(kReorderDelaySalt, from,
                                                 to, kind, round);
      arrival = arrival + config_.retry.timeout * (0.5 + 3.0 * u);
      fs.reorders_injected += 1;
      fs.pair(from, to).reordered += 1;
      if (m_net_anomalies_ != nullptr) m_net_anomalies_->inc();
      flight().record(obs::FlightKind::kWire, from, to,
                      static_cast<std::int64_t>(round), "reorder",
                      start.seconds());
    }
    if (injector_.duplicates_message(from, to, kind, round, start)) {
      const double u = injector_.anomaly_uniform(kGhostDelaySalt, from, to,
                                                 kind, round);
      r.duplicate = true;
      r.dup_arrival = arrival + config_.retry.timeout * (0.5 + 3.0 * u);
      fs.duplicates_injected += 1;
      fs.pair(from, to).duplicated += 1;
      if (m_net_anomalies_ != nullptr) m_net_anomalies_->inc();
      flight().record(obs::FlightKind::kWire, from, to,
                      static_cast<std::int64_t>(round), "dup_inject",
                      start.seconds());
    }
    r.arrival = arrival;
    return r;
  }
}

Runtime::Shipment Runtime::ship(int d, int o, const SyncSide& side,
                                std::uint64_t value_bytes,
                                std::uint64_t wire_bytes,
                                std::uint64_t scanned, std::uint64_t round,
                                sim::SimTime& clock, sim::SimTime& engine) {
  Shipment s;
  const sim::SimTime s0 = clock;
  const StageCost cost = send_cost(d, value_bytes, wire_bytes, scanned);
  stats_.device_comm_time[d] += cost.total();
  const sim::SimTime sent = advance_pipeline(cost, clock, engine);
  s.del = deliver_link(d, o, wire_bytes, sent, side.kind, round);
  if (s.fenced()) return s;
  s.net_ref = trace_send(d, o, side, cost, s0, sent, s.del.arrival,
                         wire_bytes);
  return s;
}

void Runtime::bsp_receive(int o, int from, const SyncSide& side,
                          std::uint64_t value_bytes,
                          std::uint64_t wire_bytes, sim::SimTime arrival,
                          obs::SpanRef net_ref, sim::SimTime& t,
                          sim::SimTime& engine) {
  if (arrival > t) {
    stats_.wait_time[o] += arrival - t;
    const obs::SpanRef waiting =
        dev_scope(o).span(obs::SpanKind::kWait, "wait.msg", t, arrival, 0,
                          static_cast<std::uint64_t>(from));
    if (tracer_ != nullptr) tracer_->link(net_ref, waiting);
    t = arrival;
  }
  const sim::SimTime s0 = t;
  const StageCost cost = receive_cost(o, value_bytes, wire_bytes);
  stats_.device_comm_time[o] += cost.total();
  t = advance_pipeline(cost, t, engine);
  trace_recv(o, from, side, cost, s0, t, wire_bytes, net_ref);
}

bool Runtime::ghost_receive(int o, std::uint64_t value_bytes,
                            std::uint64_t wire_bytes,
                            sim::SimTime dup_arrival, sim::SimTime& t,
                            sim::SimTime& engine) {
  if (config_.wire_protocol) {
    // The ghost's sequence number was consumed by the original:
    // discarded on arrival at zero modeled cost.
    fault_per_dev_[o].duplicates_discarded += 1;
    if (m_protocol_discards_ != nullptr) m_protocol_discards_->inc();
    return false;
  }
  // Unprotected receiver re-applies the ghost copy: idempotent for
  // min-style programs, double-counting for accumulators, and a stale
  // assign-broadcast resurrects old values — the defect sequence
  // numbers exist to prevent.
  if (dup_arrival > t) {
    stats_.wait_time[o] += dup_arrival - t;
    t = dup_arrival;
  }
  const StageCost gcost = receive_cost(o, value_bytes, wire_bytes);
  stats_.device_comm_time[o] += gcost.total();
  t = advance_pipeline(gcost, t, engine);
  return true;
}

/// Pays the uplink + apply cost of one admitted message on device d's
/// clock (shared by the in-order drain and the reorder-buffer release).
void Runtime::basp_receive(int d, int from, const SyncSide& side,
                           std::uint64_t value_bytes,
                           std::uint64_t wire_bytes, obs::SpanRef net_ref,
                           sim::SimTime& clock, std::uint32_t local_round) {
  const sim::SimTime s0 = clock;
  const StageCost cost = receive_cost(d, value_bytes, wire_bytes);
  stats_.device_comm_time[d] += cost.total();
  clock += cost.total();
  trace_recv(d, from, side, cost, s0, clock, wire_bytes, net_ref);
  basp_trace(local_round + 1, 0, 0, wire_bytes);
}

void Runtime::basp_sent(int d, int o, std::uint32_t local_round,
                        std::uint64_t bytes) {
  basp_trace(local_round, 0, 0, bytes);
  account_network(d, o, bytes);
  if (td_) td_->on_send(d);
}

// ---- BSP ------------------------------------------------------------------

void Runtime::mark_silent(sim::SimTime barrier) {
  if (!monitor_.active()) return;
  for (int d = 0; d < devices_; ++d) {
    silent_[d] = (dead_[d] || injector_.lost_at(d) <= barrier) ? 1 : 0;
  }
}

void Runtime::trace_round_volume() {
  if (!config_.collect_trace || stats_.trace.empty()) return;
  std::uint64_t volume = 0;
  for (const auto& c : comm_per_dev_) {
    volume += c.device_to_host_bytes + c.host_to_device_bytes;
  }
  stats_.trace.back().volume_bytes = volume - traced_volume_;
  traced_volume_ = volume;
}

sim::SimTime Runtime::bsp_barrier(sim::SimTime barrier) {
  // Barrier: stragglers stall everyone (Lux's failure mode at scale).
  int slowest = 0;  // barrier-release cause (ties: lowest device)
  sim::SimTime next_barrier = barrier;
  for (int d = 0; d < devices_; ++d) {
    if (done_[d] > next_barrier) slowest = d;
    next_barrier = sim::max(next_barrier, done_[d]);
  }
  // The barrier release is caused by the slowest device's last span;
  // linking it into every wait span lets the critical-path walk
  // follow the straggler's chain instead of blaming the waiters.
  obs::SpanRef release;
  if (tracer_ != nullptr) release = tracer_->last_ref(slowest);
  if (config_.charge_runtime_overhead) {
    // Centralized runtime task mapping serializes across devices.
    const sim::SimTime overhead =
        params_.runtime_task_overhead * static_cast<double>(devices_);
    if (tracer_ != nullptr) {
      const obs::SpanRef rt = rt_scope().span(
          obs::SpanKind::kOther, "runtime.barrier", next_barrier,
          next_barrier + overhead, 0, stats_.global_rounds);
      tracer_->link(release, rt);
      release = rt;
    }
    next_barrier += overhead;
  }
  for (int d = 0; d < devices_; ++d) {
    stats_.wait_time[d] += next_barrier - done_[d];
    if (next_barrier > done_[d]) {
      const obs::SpanRef waiting =
          dev_scope(d).span(obs::SpanKind::kWait, "wait.barrier", done_[d],
                            next_barrier, 0, stats_.global_rounds);
      if (tracer_ != nullptr) tracer_->link(release, waiting);
    }
  }
  return next_barrier;
}

std::vector<int> Runtime::due_crashes(sim::SimTime barrier) {
  std::vector<int> crashed;
  while (next_crash_ < injector_.crashes().size() &&
         injector_.crashes()[next_crash_].at <= barrier) {
    crashed.push_back(injector_.crashes()[next_crash_].device);
    ++next_crash_;
  }
  return crashed;
}

// ---- predicates -----------------------------------------------------------

/// A silence that will end in eviction has begun (<= t) but its
/// device has not been evicted yet: a permanent loss, or a partition
/// destined to outlast detection. Checkpoints are suppressed in this
/// state so a later rollback always lands on a pre-silence cut.
bool Runtime::undetected_loss(sim::SimTime t) const {
  if (!monitor_.active()) return false;
  for (int d = 0; d < devices_; ++d) {
    if (dead_[d]) continue;
    if (monitor_.fence_at(d) < sim::SimTime::max() &&
        monitor_.fence_origin(d) <= t) {
      return true;
    }
  }
  return false;
}

int Runtime::live_devices() const {
  int n = 0;
  for (int d = 0; d < devices_; ++d) n += dead_[d] ? 0 : 1;
  return n;
}

/// Audit-population skip rule: dead, BSP-silent, or fence-doomed
/// devices are out (their proxies are stale by design — a pending
/// eviction, not corruption — and would read as false digest splits).
bool Runtime::audit_skip(int d) const {
  if (dead_[d] != 0 || silent_[d] != 0) return true;
  return monitor_.active() && monitor_.fence_at(d) < sim::SimTime::max();
}

/// True when device o has permanently failed by time `at` (evicted,
/// or lost but not yet detected): it must not receive extractions nor
/// run local rounds.
bool Runtime::basp_silent(int o, sim::SimTime at) const {
  return dead_[o] != 0 || (monitor_.active() && injector_.lost_at(o) <= at);
}

/// True when device `sender` can send sync messages to `receiver`
/// (reduce from sender's mirrors, or broadcast from sender's masters).
bool Runtime::is_partner(int sender, int receiver) const {
  return sync().list(sender, receiver, reduce_filter_).size() > 0 ||
         sync().list(receiver, sender, bcast_filter_).size() > 0;
}

bool Runtime::has_reduce_partner(int d) const {
  for (int o = 0; o < devices_; ++o) {
    if (o != d && is_partner(o, d)) return true;
  }
  return false;
}

// ---- checkpoints and recovery ---------------------------------------------

sim::SimTime Runtime::write_checkpoint(fault::Checkpoint& ck,
                                       sim::SimTime barrier) {
  sim::SimTime worst;
  for (int d = 0; d < devices_; ++d) {
    const auto n = ck.devices[d].bytes.size();
    const sim::SimTime t =
        config_.checkpoint.write_latency + net_.device_to_host(n) +
        sim::SimTime{static_cast<double>(n) / config_.checkpoint.disk_bw};
    worst = sim::max(worst, t);  // devices snapshot in parallel
  }
  // kCheckpointBitFlip: corrupt the serialized blob *after* the
  // write-side checksum was computed, so the corruption rides to disk
  // undetected unless the policy's read-back verification is on.
  if (injector_.has_sdc()) {
    const auto& flips = injector_.checkpoint_flips();
    for (std::size_t i = 0; i < flips.size(); ++i) {
      if (ckpt_flip_done_[i] != 0 || flips[i].at > barrier) continue;
      ckpt_flip_done_[i] = 1;
      const int fd = flips[i].device;
      if (fd < 0 || fd >= devices_ || dead_[fd]) continue;
      auto& bytes = ck.devices[fd].bytes;
      if (bytes.empty()) continue;
      const std::uint64_t h = util::fnv1a64_value(
          static_cast<std::uint64_t>(ck.round) |
          (static_cast<std::uint64_t>(fd) << 32));
      const std::uint64_t pos = h % (bytes.size() * 8);
      bytes[pos / 8] = static_cast<char>(
          static_cast<unsigned char>(bytes[pos / 8]) ^
          static_cast<unsigned char>(1u << (pos % 8)));
      fault_global_.sdc_injected += 1;
      fault_global_.sdc_for(fd).checkpoint_flips += 1;
    }
  }
  fault_global_.checkpoints_taken += 1;
  fault_global_.checkpoint_bytes += ck.total_bytes();
  fault_global_.checkpoint_time += worst;
  rt_scope().span(obs::SpanKind::kCheckpoint, "checkpoint", barrier,
                  barrier + worst, ck.total_bytes(), ck.round);
  flight().record(obs::FlightKind::kCheckpoint, -1, ck.round,
                  static_cast<std::int64_t>(ck.total_bytes()), "checkpoint",
                  barrier.seconds());
  if (m_checkpoints_ != nullptr) m_checkpoints_->inc();
  if (ckpt_store_.persistent()) ckpt_store_.save(ck);
  return worst;
}

/// Read-back verification re-snapshots the (still clean) live state
/// and compares it against what was just written, so a corrupt blob is
/// caught while the clean source exists — not at restore time.
bool Runtime::verifies_checkpoints() const {
  return injector_.has_sdc() && config_.audit.enabled() &&
         config_.audit.check_checkpoints;
}

bool Runtime::read_back(fault::Checkpoint& ck, int d,
                        std::vector<char> fresh, sim::SimTime& worst) {
  worst = sim::max(worst, sim::SimTime{static_cast<double>(fresh.size()) /
                                       config_.checkpoint.disk_bw});
  if (fresh == ck.devices[d].bytes) return false;
  fault_global_.sdc_detected += 1;
  fault_global_.sdc_for(d).checkpoint_violations += 1;
  if (m_sdc_detected_ != nullptr) m_sdc_detected_->inc();
  if (!config_.audit.repairs()) return false;
  // Repair: discard the corrupt blob and rewrite it from the clean
  // live state (a copy-from-clean-source repair).
  ck.devices[d].bytes = std::move(fresh);
  fault_global_.sdc_repaired += 1;
  fault_global_.sdc_for(d).repairs_mirror += 1;
  if (m_sdc_repaired_ != nullptr) m_sdc_repaired_->inc();
  return true;
}

sim::SimTime Runtime::restore_cost(std::size_t bytes) const {
  return config_.checkpoint.restore_latency +
         sim::SimTime{static_cast<double>(bytes) /
                      config_.checkpoint.disk_bw} +
         net_.host_to_device(bytes);
}

void Runtime::note_rollback(sim::SimTime t, sim::SimTime worst,
                            const char* span, const char* event) {
  fault_global_.recovery_time += worst;
  rt_scope().span(obs::SpanKind::kCheckpoint, span, t, t + worst,
                  last_ckpt_.total_bytes(), last_ckpt_.round);
  flight().record(obs::FlightKind::kRollback, -1, last_ckpt_.round,
                  static_cast<std::int64_t>(last_ckpt_.total_bytes()), event,
                  t.seconds());
  if (m_rollbacks_ != nullptr) m_rollbacks_->inc();
}

sim::SimTime Runtime::reinit_cost(std::uint64_t num_local) const {
  const std::uint64_t label_bytes = num_local * (sizes_.reduce + sizes_.bcast);
  return config_.checkpoint.restore_latency +
         net_.host_to_device(label_bytes);
}

// ---- re-homing ------------------------------------------------------------

/// Silence origin: the loss instant, or — for a partition that
/// outlasted detection — the start of the covering window (the device
/// never "died"; lost_at is +inf then). A graceful eviction is silent
/// from `now`.
sim::SimTime Runtime::silence_origin(int cd, sim::SimTime now,
                                     bool graceful) const {
  return graceful ? now
         : monitor_.fence_origin(cd) < sim::SimTime::max()
             ? monitor_.fence_origin(cd)
             : injector_.lost_at(cd);
}

std::vector<std::uint64_t> Runtime::free_bytes(int cd) const {
  std::vector<std::uint64_t> free(static_cast<std::size_t>(devices_), 0);
  for (int d = 0; d < devices_; ++d) {
    if (d == cd || dead_[d]) continue;
    const auto& mem = *memory_[d];
    free[static_cast<std::size_t>(d)] = mem.capacity() - mem.in_use();
  }
  return free;
}

Runtime::RetiredLayout Runtime::install_layout(partition::DistGraph&& next,
                                               int evicted) {
  auto next_dg = std::make_unique<partition::DistGraph>(std::move(next));
  auto next_sync = std::make_unique<comm::SyncStructure>(*next_dg);
  RetiredLayout prev{std::move(rehomed_dg_), std::move(rehomed_sync_)};
  rehomed_dg_ = std::move(next_dg);
  rehomed_sync_ = std::move(next_sync);
  dgp_ = rehomed_dg_.get();
  syncp_ = rehomed_sync_.get();
  if (evicted >= 0) {
    dead_[evicted] = 1;
    silent_[evicted] = 1;
    if (monitor_.active()) monitor_.mark_evicted(evicted);
    gray_.retire(evicted);
  }
  // New layout epoch: anything sealed before this instant indexes
  // exchange lists that are about to be rebuilt, and is fence-
  // rejected on receipt.
  ++epoch_;
  // Re-homing reconciles monotone ledgers (e.g. pagerank's consumed
  // mass), which breaks the exact ABFT invariants; digest + checkpoint
  // auditing stay sound on the new layout.
  invariants_valid_ = false;
  return prev;
}

sim::SimTime Runtime::add_migration_cost(sim::SimTime cost, int src,
                                         std::uint64_t bytes) {
  int s0 = src;
  int s1 = -1;
  for (int d = 0; d < devices_ && s1 < 0; ++d) {
    if (dead_[d] || d == s0) continue;
    (s0 < 0 ? s0 : s1) = d;
  }
  if (s0 >= 0 && s1 >= 0) {
    cost = cost + net_.host_to_host(s0, s1, bytes);
  }
  sim::SimTime meta;
  for (int d = 0; d < devices_; ++d) {
    if (dead_[d]) continue;
    meta = sim::max(meta, net_.host_to_device(sync().metadata_bytes(d)));
  }
  return cost + meta;
}

void Runtime::recharge_memory(int d, const partition::LocalGraph& lg) {
  stats_.peak_memory[d] = std::max(stats_.peak_memory[d], memory_[d]->peak());
  // The fresh DeviceMemory drops any pressure squat; the next round
  // boundary re-applies whatever pressure window is still active.
  pressure_squat_[static_cast<std::size_t>(d)] = 0;
  init_memory(d, lg);
}

// ---- BASP -----------------------------------------------------------------

/// BASP counterpart of the BSP trace collection: accumulates activity
/// into the per-local-round aggregate (entry `round-1`, growing the
/// vector on demand). Single-threaded — BASP runs on one event queue.
/// `round` 0 (a pre-round flush during fault recovery) folds into
/// round 1.
void Runtime::basp_trace(std::uint32_t round, std::uint64_t active,
                         std::uint64_t edges, std::uint64_t volume) {
  if (!config_.collect_trace || config_.exec_model != ExecModel::kAsync) {
    return;
  }
  if (round == 0) round = 1;
  if (stats_.trace.size() < round) {
    const std::size_t old = stats_.trace.size();
    stats_.trace.resize(round);
    for (std::size_t i = old; i < round; ++i) {
      stats_.trace[i].round = static_cast<std::uint32_t>(i + 1);
    }
  }
  RoundTrace& tr = stats_.trace[round - 1];
  tr.active_vertices += active;
  tr.edges += edges;
  tr.volume_bytes += volume;
}

void Runtime::restart_termination(bool all_passive) {
  if (!td_) return;
  td_ = std::make_unique<TerminationDetector>(devices_);
  for (int o = 0; o < devices_; ++o) {
    if (all_passive || dead_[o]) td_->set_active(o, false);
  }
}

bool Runtime::termination_settles() {
  bool ok = td_->terminated();
  for (int i = 0; i < devices_ * 4 && !ok; ++i) ok = td_->try_advance();
  return ok;
}

void Runtime::finish_stats() {
  for (int d = 0; d < devices_; ++d) {
    stats_.peak_memory[d] =
        std::max(stats_.peak_memory[d], memory_[d]->peak());
    stats_.evicted[d] = dead_[d];
    stats_.comm += comm_per_dev_[d];
    stats_.faults += fault_per_dev_[d];
  }
  stats_.faults += fault_global_;
  stats_.faults.faults_injected =
      stats_.faults.device_crashes + injector_.windowed_events() +
      static_cast<std::uint64_t>(injector_.losses().size()) +
      static_cast<std::uint64_t>(injector_.label_flips().size()) +
      static_cast<std::uint64_t>(injector_.checkpoint_flips().size());
  stats_.total_time = total_time_;
}

}  // namespace sg::engine
