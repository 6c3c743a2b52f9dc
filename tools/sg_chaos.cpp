// sg_chaos: chaos soak harness for the fault-tolerance stacks.
//
// One driver runs five soak modes. For every scenario of the mode's
// matrix (benchmark x partition policy x BSP/BASP x device count) it
// prepares the mode's fault-free reference, draws seeded random fault
// plans, and runs each plan as one *case*: the mode's pair or triple of
// runs plus its check. A failing case is greedily shrunk to a minimal
// plan that still fails the same way, serialized as replayable JSON
// (`chaos_repro_[<tag>_]<scenario>_seed<N>.json`), and paired with a
// black-box `<stem>_flight.json` — the engine's flight recorder (round
// transitions, fault injections, wire anomalies, audit verdicts,
// evictions) dumped at failure time; read it with `sg_explain --flight`.
// `--replay` reads the mode from the reproducer's tag and re-runs the
// same case. An exception thrown by a run is a `run-error` outcome in
// soak, shrink and replay alike.
//
// Modes (reproducer tag; the runs of one case; what is checked):
//
//   (default, untagged) wire-protocol soak. Faults: message drops,
//   payload corruption, duplication, reordering, stragglers, network
//   partitions. Pair: fault-free oracle vs the faulted run, held to the
//   oracle contract below. --inject-defect turns the wire protocol off
//   (EngineConfig::wire_protocol=false) so anomalies hit the reducers
//   unprotected and the soak MUST fail.
//
//   --gray ("gray"). Faults: degradation only (device compute slowdown,
//   link bandwidth/latency derating, memory pressure). Triple: (a)
//   oracle, (b) observe-only (the monitor watches, never acts), (c)
//   mitigated (online shard migration). (b) and (c) are held to the
//   oracle contract, and when the degradation meaningfully inflated the
//   observe-only makespan, mitigation must recover a margin of it:
//     recovery = (b - c) / (b - a)  >=  margin
//   (see margin_for). --recovery-margin X overrides the margin; 0.99 is
//   unattainable and is this mode's self-test.
//
//   --sdc ("sdc"). Faults: label bit flips aimed at replicated mirror
//   copies taken from the partition's own exchange lists, defective-ALU
//   kernel windows, checkpoint-blob corruption. Triple: (a) oracle, (b)
//   unaudited twin (shows whether the corruption changed the answer),
//   (c) audited with AuditMode::kRepair. Zero undetected wrong answers
//   (see sdc_check). --inject-defect turns the auditor off
//   (AuditMode::kOff) so the corrupted run ships its wrong answer.
//
//   --serve ("serve"). Faults: device loss. Pair: 64 unbatched
//   single-source BfsProgram oracles (fault-free) vs one fused msbfs run
//   of the same 64 sources (the src/serve/ batch width) under the plan.
//   Every lane must be bit-exact: msbfs is idempotent and re-homable,
//   so loss recovery is exact per lane.
//
//   --serve-overload ("overload"). Faults: device loss and gray
//   degradation in the fused engine runs of a 4x-overload multi-tenant
//   trace replayed through serve::BatchScheduler with brownout, elastic
//   resharding and the fault-tolerant lifecycle armed. Pair: that
//   resilient scheduler vs a brownout-off twin on the same trace and
//   plan. Checks: (1) no query silently dropped — each is served or
//   rejected with a reason; (2) every non-degraded answer bit-exact
//   against sequential reference oracles; (3) every degraded answer
//   tagged and a sound finite upper bound on the true distance; (4) at
//   least kOverloadServeFloor of admitted queries served; (5) the
//   priority-0 deadline-hit ratio no worse than the twin's.
//   --inject-defect arms a lifecycle defect (every engine attempt
//   fails, zero retries) so check 4 MUST trip.
//
// Usage:
//   sg_chaos [--smoke] [--gray | --sdc | --serve | --serve-overload]
//            [--chaos-seed N] [--seeds N] [--no-shrink] [--keep-going]
//            [--inject-defect] [--recovery-margin X] [--out-dir DIR]
//   sg_chaos --replay FILE
//
//   --smoke          reduced scenario matrix, one plan per scenario
//   --chaos-seed N   base seed for plan generation (default 1)
//   --seeds N        plans per scenario (default 1 smoke, 2 full)
//   --no-shrink      write failing plans unshrunk
//   --keep-going     do not stop at the first failing scenario
//   --inject-defect  disable the defence under test (default, --sdc and
//                    --serve-overload only): the soak MUST fail and emit
//                    a shrunk reproducer — the harness's self-test
//   --recovery-margin X
//                    override the per-kind recovery margin (--gray only)
//   --out-dir DIR    where reproducer JSON files are written (default .)
//   --replay FILE    re-run a reproducer written by a previous soak
//
// Exit codes: 0 = all scenarios matched their oracle (or a replay did
// not reproduce), 1 = at least one failure (reproducer written) or a
// replay reproduced its failure, 2 = usage, reproducer or harness error.
//
// Oracle contract: bfs/cc/sssp/kcore results must be bit-identical to
// the fault-free run, including through partition-triggered evictions
// (idempotent programs recover exactly). Pagerank ranks are compared
// within a documented relative tolerance (anomaly-shifted arrival
// times permute float reductions); after an eviction the re-homed
// accumulator converges to a validly different fixed point, so evicted
// pagerank runs are held to invariants instead (finite, above the
// teleport base, total mass in the oracle's ballpark). BASP runs must
// additionally report clean Safra termination.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "algo/bfs.hpp"
#include "algo/msbfs.hpp"
#include "algo/reference.hpp"
#include "comm/sync_structure.hpp"
#include "engine/config.hpp"
#include "fault/chaos.hpp"
#include "fault/fault.hpp"
#include "fw/benchmark.hpp"
#include "integrity/audit.hpp"
#include "fw/dirgl.hpp"
#include "graph/generators.hpp"
#include "obs/flight.hpp"
#include "obs/json.hpp"
#include "partition/policy.hpp"
#include "serve/scheduler.hpp"
#include "serve/workload.hpp"
#include "sim/cost_params.hpp"
#include "sim/topology.hpp"
#include "util/hash.hpp"

namespace {

using namespace sg;

/// Relative tolerance for pagerank rank comparison (with a floor of
/// 1.0 on the scale, since ranks start at 1-alpha and are unnormalised
/// so hubs grow large): both runs converge to within pr_tolerance of
/// the fixed point, but fault-shifted arrival orders permute float
/// additions, so the two converged states may differ by a multiple of
/// the residual bound.
constexpr double kRankTolerance = 1e-3;

/// Once a device was evicted the elementwise comparison no longer
/// applies: a partition that outlasts detection rolls back to a
/// checkpoint and re-homes masters onto the survivors, and the
/// re-converged accumulator state is a validly different fixed point
/// (exact recovery is guaranteed — and soaked here — only for the
/// idempotent benchmarks). Evicted pagerank runs are instead held to
/// invariants: every rank finite and at least the teleport base
/// (1 - alpha), and total rank mass within this slack of the oracle's.
constexpr double kEvictedMassSlack = 0.25;

/// Per-vertex rank floor for evicted runs: the teleport term
/// (1 - pr_alpha) every vertex earns unconditionally, minus float fuzz.
constexpr double kRankFloor = 0.15 - 1e-3;

/// Per-device memory scale for the soak topologies. Generous (the
/// bench default) so that eviction-triggered re-homing always finds a
/// survivor with room for the orphaned masters, even when a plan
/// partitions away a whole host.
constexpr double kMemScale = 400.0;

struct Scenario {
  fw::Benchmark bench = fw::Benchmark::kBfs;
  partition::Policy policy = partition::Policy::OEC;
  engine::ExecModel model = engine::ExecModel::kSync;
  int devices = 4;
};

std::string label_of(const Scenario& s) {
  return std::string(fw::to_string(s.bench)) + "/" +
         partition::to_string(s.policy) + "/" +
         engine::to_string(s.model) + "/" + std::to_string(s.devices);
}

int num_hosts(const Scenario& s) {
  return sim::Topology::bridges(s.devices, kMemScale).num_hosts();
}

struct Options {
  bool smoke = false;
  std::string mode;  ///< reproducer tag of the selected mode; "" = wire
  std::uint64_t seed = 1;
  int seeds_per_scenario = -1;  // -1: 1 for smoke, 2 for full
  bool shrink = true;
  bool inject_defect = false;
  bool keep_going = false;
  std::optional<double> recovery_margin;  // <0: per-kind default
  std::string out_dir = ".";
  std::string replay;
};

unsigned long long ull(std::uint64_t v) { return v; }

[[gnu::format(printf, 1, 2)]] std::string strf(const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  return buf;
}

const graph::Csr& chaos_graph() {
  static const graph::Csr g = [] {
    graph::SyntheticSpec s;
    s.vertices = 600;
    s.edges = 5000;
    s.zipf_out = 0.7;
    s.zipf_in = 0.8;
    s.hub_in_frac = 0.05;
    s.communities = 3;
    s.seed = 7;
    return graph::synthetic(s);
  }();
  return g;
}

/// The scheduler soak's own graph: symmetric (so the brownout landmark
/// triangle bound is sound) with community structure and randomized
/// sssp weights — the chaos_graph() is asymmetric and unusable there.
const graph::Csr& overload_graph() {
  static const graph::Csr g = [] {
    graph::SyntheticSpec s;
    s.vertices = 1024;
    s.edges = 8000;
    s.zipf_out = 0.6;
    s.zipf_in = 0.6;
    s.communities = 4;
    s.symmetric = true;
    s.seed = 13;
    return graph::add_symmetric_weights(graph::synthetic(s), 1, 64, 13);
  }();
  return g;
}

const fw::Prepared& prepared(const graph::Csr& g, partition::Policy policy,
                             int devices) {
  static std::map<std::tuple<const graph::Csr*, partition::Policy, int>,
                  fw::Prepared>
      cache;
  const auto key = std::make_tuple(&g, policy, devices);
  auto it = cache.find(key);
  if (it == cache.end()) {
    it = cache.emplace(key, fw::prepare(g, policy, devices)).first;
  }
  return it->second;
}

/// What every run of a scenario over `g` starts from: the partition,
/// the simulated fleet and cost model, and the exec model's engine
/// variant (BSP = var3, BASP = var4).
struct Setup {
  const fw::Prepared& prep;
  sim::Topology topo;
  sim::CostParams params = sim::CostParams::for_scaled_datasets();
  engine::EngineConfig cfg;
  Setup(const graph::Csr& g, const Scenario& s)
      : prep(prepared(g, s.policy, s.devices)),
        topo(sim::Topology::bridges(s.devices, kMemScale)),
        cfg(engine::make_variant(s.model == engine::ExecModel::kSync
                                     ? engine::Variant::kVar3
                                     : engine::Variant::kVar4)) {}
};

/// Gray-run knobs: the soak tunes the monitor to the scenario scale
/// the way an operator would — the default 100us heartbeat cadence is
/// sized for production-length runs and would never tick inside these
/// micro-benchmarks, so the cadence is derived from the fault-free
/// oracle's makespan (~50 beats per run) and the sustain requirement
/// is shortened to match the handful of rounds these runs have.
struct GrayTuning {
  fault::MitigationMode mode = fault::MitigationMode::kObserve;
  sim::SimTime heartbeat;  ///< derived from the oracle makespan
};

/// One benchmark run over the chaos graph. An exception becomes a
/// failed run (ok = false) so every caller judges it as a run-error.
fw::BenchmarkRun run_scenario(const Scenario& s,
                              const fault::FaultPlan* plan,
                              bool wire_protocol,
                              const GrayTuning* gray = nullptr,
                              const integrity::AuditPolicy* audit = nullptr) {
  try {
    Setup e(chaos_graph(), s);
    e.cfg.wire_protocol = wire_protocol;
    e.cfg.fault_plan = plan;
    if (gray != nullptr) {
      e.cfg.mitigation.mode = gray->mode;
      // Micro-benchmarks finish in a handful of rounds, so a window
      // only spans a few evaluations. Two consecutive crossings is the
      // sweet spot: a transient blip's EWMA decays below the threshold
      // before the second evaluation (so we never pay migration churn
      // for a fault that is already over), while a genuine sustained
      // degrade stretches its own rounds enough to be seen twice.
      e.cfg.mitigation.sustain_rounds = 2;
      // With ~50 beats per run a degrade window may contain only one or
      // two stretched beats, and a stretched round can swallow the
      // whole window between two barriers — the estimate must converge
      // (and decay) within a beat or two for the barrier inside the
      // window to see an actionable score.
      e.cfg.mitigation.stretch_alpha = 0.4;
      e.cfg.health.heartbeat_interval = gray->heartbeat;
    }
    if (audit != nullptr) {
      e.cfg.audit = *audit;
    }
    // Accumulator programs need checkpoints for exact recovery should a
    // partition outlast detection and evict its minority side.
    if (s.bench == fw::Benchmark::kPagerank) {
      e.cfg.checkpoint.interval_rounds = 1;
    }
    return fw::DIrGL::run(s.bench, e.prep, e.topo, e.params, e.cfg);
  } catch (const std::exception& ex) {
    fw::BenchmarkRun r;
    r.ok = false;
    r.error = std::string("exception: ") + ex.what();
    return r;
  }
}

struct Outcome {
  std::string kind;  ///< empty = scenario matched its oracle
  std::string detail;
  [[nodiscard]] bool failed() const { return !kind.empty(); }
};

template <typename T>
Outcome compare_exact(const std::vector<T>& oracle,
                      const std::vector<T>& got, const char* what) {
  if (oracle.size() != got.size()) {
    return {"labels-mismatch",
            std::string(what) + " size " + std::to_string(got.size()) +
                " vs oracle " + std::to_string(oracle.size())};
  }
  for (std::size_t i = 0; i < oracle.size(); ++i) {
    if (got[i] != oracle[i]) {
      return {"labels-mismatch",
              std::string(what) + "[" + std::to_string(i) + "] = " +
                  std::to_string(got[i]) + " vs oracle " +
                  std::to_string(oracle[i])};
    }
  }
  return {};
}

Outcome check(const Scenario& s, const fw::BenchmarkRun& oracle,
              const fw::BenchmarkRun& r) {
  if (!r.ok) return {"run-error", r.error};
  if (!r.stats.faults.termination_clean) {
    return {"termination-unclean",
            "Safra audit found in-flight messages at termination"};
  }
  switch (s.bench) {
    case fw::Benchmark::kBfs:
      return compare_exact(oracle.dist32, r.dist32, "dist");
    case fw::Benchmark::kCc:
      return compare_exact(oracle.labels, r.labels, "label");
    case fw::Benchmark::kSssp:
      return compare_exact(oracle.dist64, r.dist64, "dist");
    case fw::Benchmark::kKcore:
      return compare_exact(oracle.in_core, r.in_core, "in_core");
    case fw::Benchmark::kPagerank: {
      if (oracle.ranks.size() != r.ranks.size()) {
        return {"labels-mismatch",
                "rank size " + std::to_string(r.ranks.size()) +
                    " vs oracle " + std::to_string(oracle.ranks.size())};
      }
      // Online shard migration re-homes the accumulator exactly (state
      // moves bit-for-bit) but changes the reduction grouping from then
      // on, so like an eviction it converges to a validly different
      // fixed point — the invariant contract applies to both.
      const bool evicted = r.stats.faults.evicted_devices > 0 ||
                           r.stats.faults.gray_migrations > 0 ||
                           r.stats.faults.gray_evictions > 0;
      double mass = 0.0;
      double oracle_mass = 0.0;
      for (std::size_t i = 0; i < r.ranks.size(); ++i) {
        if (!std::isfinite(r.ranks[i])) {
          return {"non-finite-rank",
                  "rank[" + std::to_string(i) + "] = " +
                      std::to_string(r.ranks[i])};
        }
        mass += r.ranks[i];
        oracle_mass += oracle.ranks[i];
        if (evicted) {
          if (r.ranks[i] < kRankFloor) {
            return {"rank-below-base",
                    "rank[" + std::to_string(i) + "] = " +
                        std::to_string(r.ranks[i]) +
                        " below teleport base after eviction"};
          }
          continue;
        }
        const double diff =
            std::abs(static_cast<double>(r.ranks[i]) - oracle.ranks[i]);
        const double scale =
            std::max(1.0, std::abs(static_cast<double>(oracle.ranks[i])));
        if (diff > kRankTolerance * scale) {
          return {"tolerance-exceeded",
                  "rank[" + std::to_string(i) + "] = " +
                      std::to_string(r.ranks[i]) + " vs oracle " +
                      std::to_string(oracle.ranks[i]) + " (diff " +
                      std::to_string(diff) + " > " +
                      std::to_string(kRankTolerance * scale) + ")"};
        }
      }
      if (evicted &&
          std::abs(mass - oracle_mass) > kEvictedMassSlack * oracle_mass) {
        return {"rank-mass-drift",
                "total rank " + std::to_string(mass) + " vs oracle " +
                    std::to_string(oracle_mass) +
                    " after eviction (slack " +
                    std::to_string(kEvictedMassSlack) + ")"};
      }
      return {};
    }
  }
  return {};
}

std::string sanitize(std::string s) {
  for (char& c : s) {
    if (c == '/' || c == ' ') c = '-';
  }
  return s;
}

/// Black-box companion of a reproducer: dumps the process-wide flight
/// recorder (which the failing runs just fed) next to `repro_path` as
/// `<stem>_flight.json`, then clears the ring so the next scenario's
/// dump holds only its own events. Returns the dump path (empty string
/// on I/O failure).
std::string dump_flight(const std::filesystem::path& repro_path) {
  std::filesystem::path dump = repro_path;
  dump.replace_extension();
  dump += "_flight.json";
  obs::FlightRecorder& rec = obs::FlightRecorder::global();
  const bool ok = rec.dump(dump, "chaos_failure", /*include_wall=*/true);
  rec.clear();
  if (!ok) {
    std::fprintf(stderr, "sg_chaos: FAILED to write flight dump %s\n",
                 dump.string().c_str());
    return {};
  }
  return dump.string();
}

/// A ChaosSpec over the scenario's fleet with message anomalies,
/// partitions and stragglers off and 1-2 events; the modes that use it
/// switch on their own fault kinds.
fault::ChaosSpec quiet_spec(const Scenario& s, sim::SimTime horizon) {
  fault::ChaosSpec spec;
  spec.num_devices = s.devices;
  spec.num_hosts = num_hosts(s);
  spec.horizon = horizon;
  spec.allow_drop = false;
  spec.allow_corrupt = false;
  spec.allow_duplicate = false;
  spec.allow_reorder = false;
  spec.allow_partition = false;
  spec.allow_straggler = false;
  spec.min_events = 1;
  spec.max_events = 2;
  return spec;
}

// ---- reproducer fields --------------------------------------------------

/// scenario.<key>, which must be a string.
const std::string& string_field(const obs::JsonValue& sc, const char* key) {
  const obs::JsonValue* v = sc.find(key);
  if (v == nullptr || v->kind != obs::JsonValue::Kind::kString) {
    throw std::runtime_error(std::string("scenario.") + key +
                             " is missing or not a string");
  }
  return v->string;
}

/// `v` as an integer within [lo, hi]; throws naming `key` when it is
/// absent, not a number, fractional or out of range.
double integer_field(const obs::JsonValue* v, const std::string& key,
                     double lo, double hi) {
  if (v == nullptr || v->kind != obs::JsonValue::Kind::kNumber ||
      v->number != std::floor(v->number) || v->number < lo ||
      v->number > hi) {
    throw std::runtime_error(key + " is missing or not an integer in [" +
                             obs::format_double(lo) + ", " +
                             obs::format_double(hi) + "]");
  }
  return v->number;
}

bool is_true(const obs::JsonValue& doc, const char* key) {
  const obs::JsonValue* v = doc.find(key);
  return v != nullptr && v->kind == obs::JsonValue::Kind::kBool && v->boolean;
}

// ---- the mode interface and the driver -----------------------------------

/// What tells the five modes apart besides their code.
struct ModeInfo {
  const char* tag;           ///< reproducer tag and file prefix; "" = wire
  const char* flag;          ///< selecting flag without "--"; "" = wire
  const char* noun;          ///< summary count: run(s), triple(s), case(s)
  const char* label_prefix;  ///< prefix of the [ok]/[FAIL] scenario label
  const char* replay_note;   ///< appended to the replay banner
  const char* pass_note;     ///< replay verdict when the case passes
  bool all_benches;          ///< matrix: bfs/cc/pagerank, or bfs only
  bool vary_devices;         ///< matrix: 4 and 8 devices (full), or 4
  bool takes_defect;         ///< accepts --inject-defect
  bool takes_margin;         ///< accepts --recovery-margin
};

/// One soak mode. The driver (soak(), replay()) owns the loop, shrink,
/// reproducer and exit code; a mode holds the current scenario's
/// fault-free reference and the current case's extras.
class Mode {
 public:
  Mode(ModeInfo i, const Options& opt) : info(i), opt_(opt) {}
  virtual ~Mode() = default;
  Mode(const Mode&) = delete;
  Mode& operator=(const Mode&) = delete;

  /// Middle of the soak banner, e.g. "wire protocol ON, ".
  [[nodiscard]] virtual std::string banner() const { return {}; }
  /// Runs scenario `s`'s fault-free reference; false (after saying why
  /// on stderr) is a harness error, exit 2.
  virtual bool prepare() = 0;
  /// Plan number `k` of the scenario, drawn from `seed`; also sets the
  /// case's extras (margin, audit policy, workload).
  virtual fault::FaultPlan make_plan(std::uint64_t seed, int k) = 0;
  /// The case's runs under `plan` and the mode's check. `stats` gets the
  /// counters of the [ok] line when the runs completed.
  virtual Outcome run_case(const fault::FaultPlan& plan,
                           std::string& stats) = 0;
  /// Reproducer fields after the tag, and their inverse.
  virtual void write_extras(obs::JsonWriter&) const {}
  virtual void read_extras(const obs::JsonValue& /*doc*/,
                           const fault::FaultPlan& /*plan*/) {}

  const ModeInfo info;
  Scenario s;
  bool wire = true;  ///< wire protocol of the faulted runs

 protected:
  const Options& opt_;
};

/// A case whose runs throw is a run-error, in soak, shrink and replay
/// alike.
Outcome run_guarded(Mode& m, const fault::FaultPlan& plan,
                    std::string& stats) {
  try {
    return m.run_case(plan, stats);
  } catch (const std::exception& e) {
    return {"run-error", std::string("exception: ") + e.what()};
  }
}

/// Every mode's matrix: benchmarks x policies x exec models x device
/// counts. Smoke keeps OEC (edge-cut) and CVC (vertex-cut).
std::vector<Scenario> scenario_matrix(const ModeInfo& m, bool smoke) {
  using partition::Policy;
  const std::vector<fw::Benchmark> benches =
      m.all_benches ? std::vector<fw::Benchmark>{fw::Benchmark::kBfs,
                                                 fw::Benchmark::kCc,
                                                 fw::Benchmark::kPagerank}
                    : std::vector<fw::Benchmark>{fw::Benchmark::kBfs};
  const std::vector<Policy> policies =
      smoke ? std::vector<Policy>{Policy::OEC, Policy::CVC}
            : std::vector<Policy>{Policy::OEC, Policy::IEC, Policy::HVC,
                                  Policy::CVC};
  const std::vector<int> devices = m.vary_devices && !smoke
                                       ? std::vector<int>{4, 8}
                                       : std::vector<int>{4};
  std::vector<Scenario> out;
  for (const auto b : benches) {
    for (const auto p : policies) {
      for (const auto md :
           {engine::ExecModel::kSync, engine::ExecModel::kAsync}) {
        for (const int d : devices) {
          out.push_back({b, p, md, d});
        }
      }
    }
  }
  if (smoke && m.all_benches && m.vary_devices) {
    // One 8-device pair so the wire smoke matrix still varies device
    // count.
    out.push_back({fw::Benchmark::kBfs, Policy::OEC,
                   engine::ExecModel::kSync, 8});
    out.push_back({fw::Benchmark::kBfs, Policy::OEC,
                   engine::ExecModel::kAsync, 8});
  }
  return out;
}

void print_case(const char* tag, const Mode& m, const fault::FaultPlan& plan,
                const std::string& stats) {
  std::printf("%-6s %-24s seed=%-12llu events=%zu%s\n", tag,
              (m.info.label_prefix + label_of(m.s)).c_str(), ull(plan.seed),
              plan.events.size(), stats.c_str());
}

void write_reproducer(const std::filesystem::path& path, const Mode& m,
                      const fault::FaultPlan& plan, const Outcome& o,
                      const fault::ShrinkStats* shrink) {
  obs::JsonWriter w;
  w.begin_object();
  w.kv("sg_chaos_schema", 1);
  w.key("scenario").begin_object();
  w.kv("benchmark", fw::to_string(m.s.bench));
  w.kv("policy", partition::to_string(m.s.policy));
  w.kv("exec_model", engine::to_string(m.s.model));
  w.kv("devices", m.s.devices);
  w.kv("wire_protocol", m.wire);
  w.end_object();
  if (*m.info.tag != '\0') w.kv(m.info.tag, true);
  m.write_extras(w);
  w.kv("failure", o.kind);
  w.kv("detail", o.detail);
  w.key("plan");
  fault::write_plan_json(w, plan);
  if (shrink != nullptr) {
    w.key("shrink").begin_object();
    w.kv("probes", shrink->probes);
    w.kv("removed_events", shrink->removed_events);
    w.kv("narrowed_windows", shrink->narrowed_windows);
    w.end_object();
  }
  w.end_object();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  const std::string doc = w.take();
  out.write(doc.data(), static_cast<std::streamsize>(doc.size()));
  out.put('\n');
}

int soak(Mode& m, const Options& opt) {
  const int seeds = opt.seeds_per_scenario > 0 ? opt.seeds_per_scenario
                    : opt.smoke                ? 1
                                               : 2;
  std::error_code ec;
  std::filesystem::create_directories(opt.out_dir, ec);
  const std::vector<Scenario> scenarios = scenario_matrix(m.info, opt.smoke);
  std::printf("sg_chaos%s%s: %zu scenarios x %d plan(s), %sbase seed %llu\n",
              *m.info.flag != '\0' ? " --" : "", m.info.flag,
              scenarios.size(), seeds, m.banner().c_str(), ull(opt.seed));
  int failures = 0;
  int runs = 0;
  const auto summary = [&] {
    std::printf("sg_chaos: %d %s, %d failure(s)\n", runs, m.info.noun,
                failures);
  };
  for (std::size_t si = 0; si < scenarios.size(); ++si) {
    m.s = scenarios[si];
    if (!m.prepare()) return 2;
    const int hosts = num_hosts(m.s);
    for (int k = 0; k < seeds; ++k) {
      const std::uint64_t seed =
          opt.seed + 1000003ULL * (si + 1) + 7919ULL * k;
      fault::FaultPlan plan;
      try {
        plan = m.make_plan(seed, k);
        plan.validate_or_throw(m.s.devices, hosts);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "sg_chaos: plan generation failed: %s\n",
                     e.what());
        return 2;
      }
      std::string stats;
      const Outcome o = run_guarded(m, plan, stats);
      ++runs;
      if (!o.failed()) {
        print_case("[ok]", m, plan, stats);
        continue;
      }
      ++failures;
      std::printf("[FAIL] %-24s seed=%llu: %s (%s)\n",
                  (m.info.label_prefix + label_of(m.s)).c_str(), ull(seed),
                  o.kind.c_str(), o.detail.c_str());
      fault::FaultPlan minimal = plan;
      fault::ShrinkStats shrink_stats;
      // The reproducer records the outcome of the plan it carries: after
      // a shrink that is one more run of the minimal plan, which also
      // leaves that run in the flight recorder for the dump below.
      Outcome minimal_outcome = o;
      if (opt.shrink) {
        const auto fails = [&](const fault::FaultPlan& cand) {
          std::string unused;
          return cand.validate(m.s.devices, hosts).empty() &&
                 run_guarded(m, cand, unused).kind == o.kind;
        };
        minimal = fault::shrink_plan(plan, fails, &shrink_stats);
        std::printf(
            "       shrunk %zu -> %zu event(s) in %d probe(s)\n",
            plan.events.size(), minimal.events.size(), shrink_stats.probes);
        std::string unused;
        minimal_outcome = run_guarded(m, minimal, unused);
      }
      const std::string tag = m.info.tag;
      const std::filesystem::path repro =
          std::filesystem::path(opt.out_dir) /
          ("chaos_repro_" + (tag.empty() ? "" : tag + "_") +
           sanitize(label_of(m.s)) + "_seed" + std::to_string(seed) +
           ".json");
      write_reproducer(repro, m, minimal, minimal_outcome,
                       opt.shrink ? &shrink_stats : nullptr);
      std::printf("       reproducer: %s (replay with --replay)\n",
                  repro.string().c_str());
      const std::string fdump = dump_flight(repro);
      if (!fdump.empty()) {
        std::printf("       flight dump: %s\n", fdump.c_str());
      }
      if (!opt.keep_going) {
        std::printf("sg_chaos: stopping at first failure "
                    "(--keep-going to continue)\n");
        summary();
        return 1;
      }
    }
  }
  summary();
  return failures > 0 ? 1 : 0;
}

// ---- modes judged against a fault-free benchmark oracle ------------------

class OracleMode : public Mode {
 public:
  using Mode::Mode;
  bool prepare() override {
    oracle_ = run_scenario(s, nullptr, true);
    if (!oracle_.ok) {
      std::fprintf(stderr, "sg_chaos: %s oracle failed: %s\n",
                   label_of(s).c_str(), oracle_.error.c_str());
      return false;
    }
    return true;
  }

 protected:
  fw::BenchmarkRun oracle_;
};

class WireMode final : public OracleMode {
 public:
  explicit WireMode(const Options& opt)
      : OracleMode({.tag = "",
                    .flag = "",
                    .noun = "run(s)",
                    .label_prefix = "",
                    .replay_note = "",
                    .pass_note = "run matched the fault-free oracle",
                    .all_benches = true,
                    .vary_devices = true,
                    .takes_defect = true,
                    .takes_margin = false},
                   opt) {
    wire = !opt.inject_defect;
  }
  [[nodiscard]] std::string banner() const override {
    return wire ? "wire protocol ON, "
                : "wire protocol OFF (--inject-defect), ";
  }
  fault::FaultPlan make_plan(std::uint64_t seed, int /*k*/) override {
    fault::ChaosSpec spec;
    spec.num_devices = s.devices;
    spec.num_hosts = num_hosts(s);
    spec.horizon = oracle_.stats.total_time;
    return fault::random_plan(seed, spec);
  }
  Outcome run_case(const fault::FaultPlan& plan,
                   std::string& stats) override {
    const fw::BenchmarkRun r = run_scenario(s, &plan, wire);
    if (r.ok) {
      const fault::FaultStats& f = r.stats.faults;
      stats = strf("  drop=%llu corrupt=%llu dup=%llu reorder=%llu "
                   "deferred=%llu",
                   ull(f.messages_dropped), ull(f.messages_corrupted),
                   ull(f.duplicates_injected), ull(f.reorders_injected),
                   ull(f.partition_deferred));
    }
    return check(s, oracle_, r);
  }
};

// ---- gray failures (--gray) ----------------------------------------------

/// Degrade windows shorter than this fraction of the fault-free
/// makespan are transients: the monitor is *designed* to ride them out
/// (the hysteresis would otherwise pay migration churn for a fault
/// that ends before the shards land), so no recovery is demanded.
constexpr double kTransientFraction = 0.25;

/// Per-scenario recovery margin, min'd across the plan's events; a
/// margin of zero means the cell is judged for determinism and label
/// exactness but not for makespan recovery. Zero for: vertex-cut
/// policies (HVC/CVC — most of a device's local edges there belong to
/// remotely-mastered vertices, so master migration cannot shed its
/// compute and the engine's shed guard stands down), link-degrade
/// events (no slow device to migrate off a host-link derate), and
/// transient windows (< kTransientFraction of the fault-free run —
/// deliberately ridden out, see above). Sustained device-degrade /
/// memory-pressure plans on edge-cut layouts must recover a real
/// fraction (0.15) of the inflation.
double margin_for(const fault::FaultPlan& plan, partition::Policy policy,
                  double oracle_seconds) {
  if (policy == partition::Policy::HVC ||
      policy == partition::Policy::CVC) {
    return 0.0;
  }
  double margin = 1.0;
  bool any = false;
  for (const fault::FaultEvent& e : plan.events) {
    double m = 0.0;
    switch (e.kind) {
      case fault::FaultKind::kDeviceDegrade:
      case fault::FaultKind::kMemoryPressure:
        m = oracle_seconds > 0.0 && e.duration.seconds() <
                                        kTransientFraction * oracle_seconds
                ? 0.0
                : 0.15;
        break;
      case fault::FaultKind::kLinkDegrade:
        m = 0.0;
        break;
      default:
        continue;
    }
    any = true;
    margin = std::min(margin, m);
  }
  return any ? margin : 0.0;
}

/// Inflations below this fraction of the oracle makespan are too mild
/// to judge a recovery ratio against: a comm-bound run barely notices
/// a compute derate, the monitor may legitimately never cross its
/// alert threshold, and shaving a sliver off a sliver is noise.
constexpr double kSloJudgeFraction = 0.15;

/// Heartbeats (and BASP gray polls) per fault-free run: the cadence
/// the soak hands the monitor, derived from the oracle makespan.
constexpr double kGrayBeatsPerRun = 50.0;

Outcome gray_check(const Scenario& s, const fw::BenchmarkRun& oracle,
                   const fw::BenchmarkRun& observe,
                   const fw::BenchmarkRun& mitigated, double margin) {
  Outcome o = check(s, oracle, observe);
  if (o.failed()) {
    o.kind = "observe-" + o.kind;
    return o;
  }
  o = check(s, oracle, mitigated);
  if (o.failed()) {
    o.kind = "mitigated-" + o.kind;
    return o;
  }
  const double ta = oracle.stats.total_time.seconds();
  const double tb = observe.stats.total_time.seconds();
  const double tc = mitigated.stats.total_time.seconds();
  // A non-positive margin means this cell has no recovery SLO — e.g.
  // vertex-cut layouts, where master migration cannot reliably shed
  // compute and the fixed cost (harvest + rebuild + forced sync
  // rounds) can exceed the remaining benefit on short runs. The cell
  // is still fully judged for determinism, label bit-exactness, and
  // invariants above; only the makespan ratio is exempt.
  if (margin <= 0.0) return {};
  const double inflation = tb - ta;
  if (inflation <= kSloJudgeFraction * ta) return {};
  const double recovery = (tb - tc) / inflation;
  if (recovery + 1e-9 < margin) {
    std::ostringstream d;
    d << "recovered " << recovery << " of " << inflation
      << "s makespan inflation (oracle " << ta << "s, observe-only " << tb
      << "s, mitigated " << tc << "s; margin " << margin << ")";
    return {"slo-recovery", d.str()};
  }
  return {};
}

/// Gray matrix (shared with --sdc): every policy meets every exec model
/// — migration planning depends on the replication structure, so all
/// four policies must prove out — at the 4-device/2-host shape where
/// one degraded device is a quarter of the fleet: big enough to hurt,
/// small enough that survivors always have headroom to adopt its
/// masters.
class GrayMode final : public OracleMode {
 public:
  explicit GrayMode(const Options& opt)
      : OracleMode({.tag = "gray",
                    .flag = "gray",
                    .noun = "triple(s)",
                    .label_prefix = "",
                    .replay_note = ", gray triple",
                    .pass_note = "triple satisfied the SLO oracle",
                    .all_benches = true,
                    .vary_devices = false,
                    .takes_defect = false,
                    .takes_margin = true},
                   opt) {}
  fault::FaultPlan make_plan(std::uint64_t seed, int /*k*/) override {
    // Degradation faults only: the SLO oracle compares makespans, and
    // message anomalies would fold retry noise into the inflation the
    // recovery ratio is judged against.
    fault::ChaosSpec spec = quiet_spec(s, oracle_.stats.total_time);
    spec.allow_degrade = true;
    spec.allow_link_degrade = spec.num_hosts >= 2;
    spec.allow_pressure = true;
    fault::FaultPlan plan = fault::random_plan(seed, spec);
    margin_ = opt_.recovery_margin.value_or(-1.0) >= 0.0
                  ? *opt_.recovery_margin
                  : margin_for(plan, s.policy,
                               oracle_.stats.total_time.seconds());
    return plan;
  }
  Outcome run_case(const fault::FaultPlan& plan,
                   std::string& stats) override {
    const sim::SimTime beat =
        oracle_.stats.total_time * (1.0 / kGrayBeatsPerRun);
    const GrayTuning observe{fault::MitigationMode::kObserve, beat};
    const GrayTuning migrate{fault::MitigationMode::kMigrate, beat};
    const fw::BenchmarkRun b = run_scenario(s, &plan, wire, &observe);
    const fw::BenchmarkRun c = run_scenario(s, &plan, wire, &migrate);
    if (c.ok) {
      const fault::FaultStats& f = c.stats.faults;
      const double ta = oracle_.stats.total_time.seconds();
      const double tb = b.stats.total_time.seconds();
      const double tc = c.stats.total_time.seconds();
      const double infl = tb - ta;
      stats = strf(" migr=%llu evict=%llu alerts=%llu infl=%.1f%% "
                   "recov=%.0f%%",
                   ull(f.gray_migrations), ull(f.gray_evictions),
                   ull(f.gray_alerts), ta > 0.0 ? 100.0 * infl / ta : 0.0,
                   infl > 0.0 ? 100.0 * (tb - tc) / infl : 0.0);
    }
    return gray_check(s, oracle_, b, c, margin_);
  }
  void write_extras(obs::JsonWriter& w) const override {
    w.kv("recovery_margin", margin_);
  }
  void read_extras(const obs::JsonValue& doc,
                   const fault::FaultPlan& plan) override {
    // Hand-written reproducers without a stored margin get the
    // per-kind fallback with no transient exemption (the oracle run
    // has not happened yet at parse time).
    const double fallback = margin_for(plan, s.policy, 0.0);
    const obs::JsonValue* mv = doc.find("recovery_margin");
    margin_ = mv != nullptr ? mv->num_or(fallback) : fallback;
  }

 private:
  double margin_ = 0.0;  ///< recovery margin the case is held to
};

// ---- silent data corruption (--sdc) --------------------------------------

/// A replicated vertex the plan can flip: `vertex`'s mirror copy is
/// resident on `device`, and it sits on a broadcast exchange list the
/// auditor digests — so a master-canonical mirror copy can repair the
/// flip bit-exactly and the digest check bounds its detection latency.
struct FlipTarget {
  int device = -1;
  std::int64_t vertex = -1;
};

/// The broadcast proxy filter the engine audits for each benchmark —
/// must match the program's SyncPattern (bfs/sssp push, pagerank pull,
/// cc reads both endpoints).
comm::ProxyFilter bcast_filter_of(fw::Benchmark b) {
  switch (b) {
    case fw::Benchmark::kBfs:
    case fw::Benchmark::kSssp:
      return comm::SyncPattern::push().broadcast_filter();
    case fw::Benchmark::kPagerank:
      return comm::SyncPattern::pull().broadcast_filter();
    default:
      return comm::ProxyFilter::kAll;
  }
}

/// Enumerates every digest-audited mirror entry of the partition, in a
/// deterministic (device, partner, list) order. When the benchmark's
/// broadcast surface is structurally empty (bfs under OEC: push +
/// outgoing-edge-cut elides the broadcast, so there is nothing to
/// digest), falls back to the full replication surface (kAll) — flips
/// there corrupt the masters through the min-reduce instead and are
/// caught by the final-audit certificate rather than a per-boundary
/// digest, which is exactly the coverage story DESIGN.md §13 claims.
std::vector<FlipTarget> sdc_targets(fw::Benchmark b,
                                    const fw::Prepared& prep, int devices) {
  auto collect = [&](comm::ProxyFilter filter) {
    std::vector<FlipTarget> out;
    for (int m = 0; m < devices; ++m) {
      const partition::LocalGraph& lg = prep.dist.part(m);
      for (int o = 0; o < devices; ++o) {
        if (o == m) continue;
        const comm::ExchangeList& list = prep.sync.list(m, o, filter);
        for (const graph::VertexId ml : list.mirror_local) {
          out.push_back({m, static_cast<std::int64_t>(lg.l2g[ml])});
        }
      }
    }
    return out;
  };
  std::vector<FlipTarget> out = collect(bcast_filter_of(b));
  if (out.empty()) out = collect(comm::ProxyFilter::kAll);
  return out;
}

/// splitmix64 — the harness's own little generator for picking flip
/// targets/bits/times from the plan seed (fault::random_plan's rng is
/// internal to chaos.cpp, and SDC plans are built from the partition
/// layout rather than blind).
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Builds the scenario's SDC plan: two label bit flips aimed at
/// distinct digest-audited mirror entries (times scattered across the
/// middle of the fault-free run so flips land at live barriers), plus
/// a kernel-SDC window for bfs/pagerank (CC's wrong-low kernel flips
/// reduce into the master min-wise and go digest-blind until the final
/// certificate — covered, but slow to shrink) and a checkpoint-blob
/// flip for pagerank (the only soaked benchmark that checkpoints).
/// Throws when the partition has no mirror to flip.
fault::FaultPlan sdc_plan(std::uint64_t seed, const Scenario& s,
                          sim::SimTime horizon) {
  const std::vector<FlipTarget> targets = sdc_targets(
      s.bench, prepared(chaos_graph(), s.policy, s.devices), s.devices);
  if (targets.empty()) {
    throw std::runtime_error(label_of(s) +
                             " has no digest-audited mirrors to flip");
  }
  fault::FaultPlan plan;
  plan.seed = seed;
  const double h = std::max(horizon.seconds(), 1e-9);
  std::uint64_t r = seed;
  std::size_t prev = targets.size();
  for (int i = 0; i < 2; ++i) {
    r = mix64(r);
    std::size_t pick = r % targets.size();
    if (pick == prev) pick = (pick + 1) % targets.size();
    prev = pick;
    const FlipTarget& t = targets[pick];
    r = mix64(r);
    // Low 30 bits: meaningful for every label type in the system (the
    // narrowest is 32 bits) without hitting a float's sign bit.
    const int bit = static_cast<int>(r % 30);
    r = mix64(r);
    const double frac =
        0.15 + 0.55 * static_cast<double>(r % 1000) / 1000.0;
    plan.flip_label(t.device, t.vertex, bit, sim::SimTime{h * frac});
  }
  if (s.bench != fw::Benchmark::kCc) {
    r = mix64(r);
    plan.sdc_kernel(static_cast<int>(r % static_cast<std::uint64_t>(
                        s.devices)),
                    sim::SimTime{h * 0.2}, sim::SimTime{h * 0.4}, 0.3);
  }
  if (s.bench == fw::Benchmark::kPagerank) {
    r = mix64(r);
    plan.corrupt_checkpoint(static_cast<int>(r % static_cast<std::uint64_t>(
                                s.devices)),
                            sim::SimTime{h * 0.3});
  }
  return plan;
}

/// The audited leg's policy. Pagerank audits every boundary (its pull
/// broadcast heals mirrors aggressively, so a wider interval would let
/// flips be overwritten before any audit sees them — legal but low
/// coverage); the integer benchmarks take interval 2 so the soak also
/// exercises nonzero detection lag. Escalation is pushed out of reach:
/// the soak judges answer exactness, and a mid-run eviction would move
/// pagerank to a different (valid) fixed point.
integrity::AuditPolicy sdc_policy(const Scenario& s, bool defect) {
  integrity::AuditPolicy p;
  p.mode = defect ? integrity::AuditMode::kOff
                  : integrity::AuditMode::kRepair;
  p.interval_rounds = s.bench == fw::Benchmark::kPagerank ? 1 : 2;
  p.escalate_after = 1000;
  return p;
}

/// The SDC oracle contract, per triple:
///  1. the audited run must match the fault-free oracle (per-benchmark
///     rules of check());
///  2. the plan must actually have landed (injections > 0);
///  3. zero undetected wrong answers — if the unaudited twin diverged
///     from the oracle, the audited run must have detected something
///     (value-neutral corruption may legitimately go unflagged);
///  4. Sync runs with auditing on: worst per-device detection lag
///     <= 2x the audit interval, in audited boundaries.
Outcome sdc_check(const Scenario& s, const fw::BenchmarkRun& oracle,
                  const fw::BenchmarkRun& unaudited,
                  const fw::BenchmarkRun& audited,
                  const integrity::AuditPolicy& pol) {
  Outcome a = check(s, oracle, audited);
  if (a.failed()) {
    a.kind = "audited-" + a.kind;
    return a;
  }
  const fault::FaultStats& f = audited.stats.faults;
  if (f.sdc_injected == 0) {
    return {"no-injection",
            "plan scheduled SDC events but none were applied"};
  }
  const Outcome u = unaudited.ok
                        ? check(s, oracle, unaudited)
                        : Outcome{"run-error", unaudited.error};
  if (u.failed() && f.sdc_detected == 0) {
    return {"undetected-corruption",
            "unaudited twin diverged (" + u.kind + ": " + u.detail +
                ") but the audited run detected nothing"};
  }
  if (s.model == engine::ExecModel::kSync && pol.enabled()) {
    const std::uint64_t bound =
        2ULL * static_cast<std::uint64_t>(
                   pol.interval_rounds < 1 ? 1 : pol.interval_rounds);
    for (const fault::SdcStats& d : f.sdc) {
      if (d.max_detect_lag_rounds > bound) {
        return {"detect-lag",
                "device " + std::to_string(d.device) + " detection lag " +
                    std::to_string(d.max_detect_lag_rounds) +
                    " audited boundaries exceeds 2x interval (" +
                    std::to_string(bound) + ")"};
      }
    }
  }
  return {};
}

class SdcMode final : public OracleMode {
 public:
  explicit SdcMode(const Options& opt)
      : OracleMode({.tag = "sdc",
                    .flag = "sdc",
                    .noun = "triple(s)",
                    .label_prefix = "",
                    .replay_note = ", sdc triple",
                    .pass_note = "triple satisfied the SDC oracle",
                    .all_benches = true,
                    .vary_devices = false,
                    .takes_defect = true,
                    .takes_margin = false},
                   opt) {}
  [[nodiscard]] std::string banner() const override {
    return opt_.inject_defect ? "auditor OFF (--inject-defect), "
                              : "auditor ON (repair), ";
  }
  fault::FaultPlan make_plan(std::uint64_t seed, int /*k*/) override {
    pol_ = sdc_policy(s, opt_.inject_defect);
    return sdc_plan(seed, s, oracle_.stats.total_time);
  }
  Outcome run_case(const fault::FaultPlan& plan,
                   std::string& stats) override {
    const fw::BenchmarkRun twin = run_scenario(s, &plan, wire);
    const fw::BenchmarkRun audited =
        run_scenario(s, &plan, wire, nullptr, &pol_);
    if (audited.ok) {
      const fault::FaultStats& f = audited.stats.faults;
      std::uint64_t lag = 0;
      for (const fault::SdcStats& d : f.sdc) {
        lag = std::max(lag, d.max_detect_lag_rounds);
      }
      stats = strf(" inj=%llu det=%llu rep=%llu audits=%llu lag=%llu",
                   ull(f.sdc_injected), ull(f.sdc_detected),
                   ull(f.sdc_repaired), ull(f.sdc_audits), ull(lag));
    }
    return sdc_check(s, oracle_, twin, audited, pol_);
  }
  void write_extras(obs::JsonWriter& w) const override {
    w.kv("audit_mode", integrity::to_string(pol_.mode));
    w.kv("audit_interval", pol_.interval_rounds);
  }
  void read_extras(const obs::JsonValue& doc,
                   const fault::FaultPlan& /*plan*/) override {
    pol_ = sdc_policy(s, false);
    const obs::JsonValue* am = doc.find("audit_mode");
    const std::string mode = am != nullptr ? am->str_or("repair")
                                           : "repair";
    if (!integrity::audit_mode_from_string(mode, pol_.mode)) {
      throw std::runtime_error("unknown audit_mode \"" + mode + "\"");
    }
    const obs::JsonValue* ai = doc.find("audit_interval");
    pol_.interval_rounds =
        ai != nullptr ? static_cast<int>(integer_field(
                            ai, "audit_interval", 1,
                            std::numeric_limits<int>::max()))
                      : 1;
  }

 private:
  integrity::AuditPolicy pol_;  ///< the audited leg's policy
};

// ---- serving-layer batched kernel (--serve) ------------------------------

/// The 64 fused sources: a fixed stride over the chaos graph, so a
/// replayed reproducer needs no recorded source list.
std::vector<graph::VertexId> serve_sources() {
  const graph::VertexId n = chaos_graph().num_vertices();
  std::vector<graph::VertexId> src;
  src.reserve(algo::MsBfsProgram::kMaxSources);
  for (graph::VertexId i = 0; i < algo::MsBfsProgram::kMaxSources; ++i) {
    src.push_back((i * 9) % n);
  }
  return src;
}

/// Serve matrix: the batched kernel's correctness depends on the
/// replication structure (lane masks cross the same mirror boundaries
/// as scalar labels) and the exec model, not on the benchmark — the
/// benchmark IS msbfs.
class ServeMode final : public Mode {
 public:
  explicit ServeMode(const Options& opt)
      : Mode({.tag = "serve",
              .flag = "serve",
              .noun = "run(s)",
              .label_prefix = "msbfs/",
              .replay_note = ", serve (fused msbfs)",
              .pass_note = "every msbfs lane matched its unbatched oracle",
              .all_benches = false,
              .vary_devices = true,
              .takes_defect = false,
              .takes_margin = false},
             opt) {}
  [[nodiscard]] std::string banner() const override {
    return strf("%zu fused lanes, ", serve_sources().size());
  }
  bool prepare() override {
    // Unbatched oracles: one fault-free single-source BfsProgram run
    // per lane — the exact thing the fused run claims to replace.
    algo::MsBfsResult fused;
    try {
      const Setup e(chaos_graph(), s);
      lanes_.clear();
      for (const graph::VertexId src : serve_sources()) {
        lanes_.push_back(algo::run_bfs(e.prep.dist, e.prep.sync, e.topo,
                                       e.params, e.cfg, src)
                             .dist);
      }
      fused = run_msbfs(nullptr);
    } catch (const std::exception& ex) {
      std::fprintf(stderr, "sg_chaos: %s oracle threw: %s\n",
                   label_of(s).c_str(), ex.what());
      return false;
    }
    // Fault-free fused run must already be bit-exact; a mismatch here
    // is a kernel bug, not a fault-tolerance bug — no plan to shrink.
    if (const Outcome o = lane_check(fused); o.failed()) {
      std::fprintf(stderr, "sg_chaos: %s fault-free msbfs diverged: %s\n",
                   label_of(s).c_str(), o.detail.c_str());
      return false;
    }
    horizon_ = fused.stats.total_time;
    return true;
  }
  fault::FaultPlan make_plan(std::uint64_t seed, int /*k*/) override {
    // Device losses only: the contract under soak is exact per-lane
    // recovery through eviction + re-home, not anomaly tolerance (the
    // wire-protocol soak already covers message chaos for
    // min-programs).
    fault::ChaosSpec spec = quiet_spec(s, horizon_);
    spec.allow_loss = true;
    spec.max_events = opt_.smoke ? 1 : 2;
    return fault::random_plan(seed, spec);
  }
  Outcome run_case(const fault::FaultPlan& plan,
                   std::string& stats) override {
    const algo::MsBfsResult r = run_msbfs(&plan);
    const fault::FaultStats& f = r.stats.faults;
    stats = strf(" evict=%llu rehomed=%llu rounds=%u",
                 ull(f.evicted_devices), ull(f.rehomed_masters),
                 r.stats.global_rounds);
    return lane_check(r);
  }

 private:
  algo::MsBfsResult run_msbfs(const fault::FaultPlan* plan) const {
    Setup e(chaos_graph(), s);
    e.cfg.fault_plan = plan;
    return algo::run_msbfs(e.prep.dist, e.prep.sync, e.topo, e.params,
                           e.cfg, serve_sources());
  }
  /// Per-lane bit-exact comparison of a fused msbfs run against the
  /// unbatched single-source oracles.
  [[nodiscard]] Outcome lane_check(const algo::MsBfsResult& got) const {
    for (std::size_t i = 0; i < lanes_.size(); ++i) {
      const Outcome o = compare_exact(
          lanes_[i], got.dist[i],
          ("lane" + std::to_string(i) + " dist").c_str());
      if (o.failed()) return {"serve-lane-mismatch", o.detail};
    }
    return {};
  }

  std::vector<std::vector<std::uint32_t>> lanes_;
  sim::SimTime horizon_;  ///< fault-free fused run length
};

// ---- serving scheduler under overload (--serve-overload) -----------------

/// 4x-overload trace: arrivals far above the fused-batch service rate,
/// tight deadline slack so the brownout deadline signal and lifecycle
/// expiry have something to act on. No PPR lanes — accumulator
/// recovery under device loss is the checkpoint layer's story
/// (test_fault), and the degraded path only covers distance queries.
serve::WorkloadSpec overload_workload(std::uint64_t seed, double factor) {
  serve::WorkloadSpec w;
  w.num_queries = 700;
  w.num_tenants = 4;
  w.arrival_rate_qps = 60000.0 * factor;
  w.tenant_skew = 1.2;
  w.source_skew = 0.7;
  // A source pool wider than the per-home cache budget: the cold
  // phase never ends, so fused engine runs keep the queue under
  // pressure for the whole trace instead of collapsing to cache hits.
  w.source_pool = 320;
  w.bfs_frac = 0.55;
  w.khop_frac = 0.15;
  w.ppr_frac = 0.0;
  w.deadline_slack_lo_ms = 0.5;
  w.deadline_slack_hi_ms = 8.0;
  w.priorities = 3;
  w.seed = seed;
  return w;
}

/// Resilient (or twin / defect) scheduler config for the soak. Token
/// buckets are left wide open: overload must reach the queue so the
/// brownout controller — not the admission layer — is what's under
/// test.
serve::ServeConfig overload_serve_cfg(bool brownout, bool defect) {
  serve::ServeConfig c;
  c.max_queue_depth = 256;
  c.default_limits = {.rate_qps = 1e6, .burst = 1024.0, .max_queued = 256};
  c.dist_cache_capacity = 192;
  c.ppr_cache_capacity = 64;
  c.brownout.enabled = brownout && !defect;
  c.lifecycle.enabled = true;
  c.reshard.enabled = true;
  c.reshard.num_homes = 2;
  // 4 tenants over 2 homes: the Zipf-1.2 head puts ~1.34x the mean on
  // home 0 — above this soak threshold, below the production default.
  c.reshard.imbalance_on = 1.3;
  c.reshard.imbalance_off = 1.1;
  if (defect) {
    // The self-test defect: every engine attempt fails and nothing
    // retries, so every queued query collapses to kEngineFailed and
    // the serve-floor check below MUST trip.
    c.lifecycle.fail_attempts = 1000000;
    c.lifecycle.max_retries = 0;
  }
  return c;
}

/// Served-fraction floor for the resilient leg (check 4): even at 4x
/// overload with a device lost, brownout answers or explicitly rejects
/// — it never collapses below this fraction of admitted queries.
constexpr double kOverloadServeFloor = 0.5;

/// Memoized sequential oracles over the overload graph.
class ServeOracle {
 public:
  const std::vector<std::uint32_t>& bfs(graph::VertexId s) {
    auto it = bfs_.find(s);
    if (it == bfs_.end()) {
      it = bfs_.emplace(s, algo::reference::bfs(overload_graph(), s)).first;
    }
    return it->second;
  }
  const std::vector<std::uint64_t>& sssp(graph::VertexId s) {
    auto it = sssp_.find(s);
    if (it == sssp_.end()) {
      it = sssp_.emplace(s, algo::reference::sssp(overload_graph(), s)).first;
    }
    return it->second;
  }

 private:
  std::map<graph::VertexId, std::vector<std::uint32_t>> bfs_;
  std::map<graph::VertexId, std::vector<std::uint64_t>> sssp_;
};

/// Checks one answer of the overload trace (contract items 1-3).
std::string overload_answer_check(const serve::Query& q,
                                  const serve::Answer& a,
                                  ServeOracle& oracle) {
  if (!a.served) {
    if (a.reject_reason == serve::RejectReason::kNone) {
      return "silently dropped: neither served nor rejected-with-reason";
    }
    return {};
  }
  const std::uint64_t bfs_truth =
      q.kind == serve::QueryKind::kBfsDist
          ? (oracle.bfs(q.source)[q.target] == algo::kInfDist
                 ? serve::kUnreachable
                 : oracle.bfs(q.source)[q.target])
          : 0;
  if (a.degraded) {
    std::uint64_t truth = serve::kUnreachable;
    if (q.kind == serve::QueryKind::kBfsDist) {
      truth = bfs_truth;
    } else if (q.kind == serve::QueryKind::kSsspDist) {
      truth = oracle.sssp(q.source)[q.target];
    } else {
      return "degraded answer on a non-distance query kind";
    }
    if (a.distance == serve::kUnreachable) {
      return "degraded answer is not a finite bound";
    }
    if (truth == serve::kUnreachable || a.distance < truth) {
      return "degraded bound " + std::to_string(a.distance) +
             " below true distance " + std::to_string(truth);
    }
    return {};
  }
  switch (q.kind) {
    case serve::QueryKind::kBfsDist:
      if (a.distance != bfs_truth) {
        return "bfs-dist " + std::to_string(a.distance) + " want " +
               std::to_string(bfs_truth);
      }
      return {};
    case serve::QueryKind::kSsspDist: {
      const std::uint64_t want = oracle.sssp(q.source)[q.target];
      if (a.distance != want) {
        return "sssp-dist " + std::to_string(a.distance) + " want " +
               std::to_string(want);
      }
      return {};
    }
    case serve::QueryKind::kKhopCount: {
      const auto& dist = oracle.bfs(q.source);
      std::uint64_t count = 0;
      std::uint64_t digest = util::kFnv1aOffset;
      for (graph::VertexId v = 0; v < dist.size(); ++v) {
        if (dist[v] <= q.k) {
          ++count;
          digest = util::fnv1a64_value(v, digest);
        }
      }
      if (a.khop_count != count || a.khop_digest != digest) {
        return "khop " + std::to_string(a.khop_count) + " want " +
               std::to_string(count);
      }
      return {};
    }
    case serve::QueryKind::kPprTopK:
      return "unexpected ppr answer in the overload trace";
  }
  return "unknown query kind";
}

double p0_hit_ratio(const serve::ServeReport& rep) {
  if (rep.by_priority.empty() || rep.by_priority[0].served == 0) return -1.0;
  return static_cast<double>(rep.by_priority[0].deadline_met) /
         static_cast<double>(rep.by_priority[0].served);
}

/// Overload matrix: the robustness layer hooks the dispatch boundary,
/// whose behaviour varies with the replication structure and exec
/// model — the benchmark is fixed (the scheduler picks its own
/// programs).
class OverloadMode final : public Mode {
 public:
  explicit OverloadMode(const Options& opt)
      : Mode({.tag = "overload",
              .flag = "serve-overload",
              .noun = "case(s)",
              .label_prefix = "serve-ovl/",
              .replay_note = ", serve-overload",
              .pass_note = "case satisfied the overload contract",
              .all_benches = false,
              .vary_devices = false,
              .takes_defect = true,
              .takes_margin = false},
             opt) {}
  [[nodiscard]] std::string banner() const override {
    return opt_.inject_defect ? "defect ARMED (--inject-defect), "
                              : "defect off, ";
  }
  bool prepare() override {
    // Horizon probe: one fault-free batch over the widest lane set
    // gives the per-run clock window plan events must land inside.
    try {
      const Setup e(overload_graph(), s);
      std::vector<graph::VertexId> lanes;
      for (graph::VertexId i = 0; i < algo::MsBfsProgram::kMaxSources; ++i) {
        lanes.push_back((i * 7) % overload_graph().num_vertices());
      }
      horizon_ = algo::run_msbfs(e.prep.dist, e.prep.sync, e.topo, e.params,
                                 e.cfg, lanes)
                     .stats.total_time;
    } catch (const std::exception& ex) {
      std::fprintf(stderr, "sg_chaos: %s horizon probe threw: %s\n",
                   label_of(s).c_str(), ex.what());
      return false;
    }
    return true;
  }
  fault::FaultPlan make_plan(std::uint64_t seed, int k) override {
    workload_seed_ = 42 + static_cast<std::uint64_t>(k);
    factor_ = 4.0;
    defect_ = opt_.inject_defect;
    // Loss + gray degradation only: each fused engine run replays the
    // plan on its own local clock, so the horizon is one batch's
    // duration, not the trace makespan.
    fault::ChaosSpec spec = quiet_spec(s, horizon_);
    spec.allow_loss = true;
    spec.allow_degrade = true;
    return fault::random_plan(seed, spec);
  }
  /// The resilient scheduler and its brownout-off twin under the same
  /// trace and plan, judged on the five-point contract.
  Outcome run_case(const fault::FaultPlan& plan,
                   std::string& stats) override {
    Setup e(overload_graph(), s);
    e.cfg.fault_plan = &plan;
    const std::vector<serve::Query> trace = serve::generate_workload(
        overload_workload(workload_seed_, factor_),
        overload_graph().num_vertices());
    const auto replay = [&](bool brownout) {
      serve::BatchScheduler sched(e.prep.dist, e.prep.sync, e.topo,
                                  e.params, e.cfg,
                                  overload_serve_cfg(brownout, defect_));
      std::vector<serve::Answer> answers = sched.run(trace);
      return std::pair<std::vector<serve::Answer>, serve::ServeReport>(
          std::move(answers), sched.report());
    };
    const auto [answers, rep] = replay(/*brownout=*/true);
    const auto [twin_answers, twin_rep] = replay(/*brownout=*/false);
    const double hit = p0_hit_ratio(rep);
    const double twin_hit = p0_hit_ratio(twin_rep);
    stats = strf(
        " served=%llu/%llu degraded=%llu shed=%llu retries=%llu "
        "hedges=%llu migr=%llu tier=%d p0=%.3f (twin %.3f)",
        ull(rep.served), ull(rep.submitted), ull(rep.degraded_served),
        ull(rep.rejected_by_reason[static_cast<std::size_t>(
            serve::RejectReason::kBrownoutShed)]),
        ull(rep.lifecycle.retries), ull(rep.lifecycle.hedges),
        ull(rep.reshard_migrations), rep.brownout_peak_tier, hit, twin_hit);

    // 1-3: conservation, bit-exactness, degraded-bound soundness.
    ServeOracle oracle;
    for (std::size_t i = 0; i < trace.size(); ++i) {
      const std::string err =
          overload_answer_check(trace[i], answers[i], oracle);
      if (!err.empty()) {
        return {"overload-answer",
                "query " + std::to_string(trace[i].id) + " (tenant " +
                    std::to_string(trace[i].tenant) + "): " + err};
      }
    }
    if (rep.served + rep.rejected != rep.submitted) {
      return {"overload-conservation",
              "served " + std::to_string(rep.served) + " + rejected " +
                  std::to_string(rep.rejected) + " != submitted " +
                  std::to_string(rep.submitted)};
    }
    // 4: the resilient leg must keep serving (the self-test defect
    // collapses this on purpose).
    if (rep.admitted > 0 &&
        static_cast<double>(rep.served) <
            kOverloadServeFloor * static_cast<double>(rep.admitted)) {
      return {"overload-serve-floor",
              "served " + std::to_string(rep.served) + " of " +
                  std::to_string(rep.admitted) + " admitted (floor " +
                  obs::format_double(kOverloadServeFloor) + ")"};
    }
    // 5: brownout must not cost top-priority deadline hits vs the
    // brownout-off twin under identical trace + faults.
    if (!defect_ && hit >= 0.0 && twin_hit >= 0.0 && hit + 1e-9 < twin_hit) {
      std::ostringstream d;
      d << "priority-0 deadline-hit " << hit << " with brownout vs "
        << twin_hit << " without";
      return {"overload-p0-regression", d.str()};
    }
    return {};
  }
  void write_extras(obs::JsonWriter& w) const override {
    w.kv("workload_seed", workload_seed_);
    w.kv("overload_factor", factor_);
    w.kv("defect", defect_);
  }
  void read_extras(const obs::JsonValue& doc,
                   const fault::FaultPlan& /*plan*/) override {
    const obs::JsonValue* ws = doc.find("workload_seed");
    // 2^53: the largest range a JSON number holds exactly.
    workload_seed_ = ws != nullptr ? static_cast<std::uint64_t>(
                                         integer_field(ws, "workload_seed",
                                                       0, 0x1p53))
                                   : 42;
    const obs::JsonValue* of = doc.find("overload_factor");
    factor_ = of != nullptr ? of->num_or(4.0) : 4.0;
    const obs::JsonValue* df = doc.find("defect");
    defect_ = df != nullptr && df->kind == obs::JsonValue::Kind::kBool &&
              df->boolean;
  }

 private:
  sim::SimTime horizon_;  ///< one fault-free fused batch
  // The case's workload: the trace is regenerated from (seed, factor),
  // and `defect_` re-arms the lifecycle self-test defect.
  std::uint64_t workload_seed_ = 42;
  double factor_ = 4.0;
  bool defect_ = false;
};

// ---- mode selection, replay, command line --------------------------------

/// The mode whose reproducer tag is `tag` ("" = wire).
std::unique_ptr<Mode> make_mode(const std::string& tag, const Options& opt) {
  if (tag == "gray") return std::make_unique<GrayMode>(opt);
  if (tag == "sdc") return std::make_unique<SdcMode>(opt);
  if (tag == "serve") return std::make_unique<ServeMode>(opt);
  if (tag == "overload") return std::make_unique<OverloadMode>(opt);
  return std::make_unique<WireMode>(opt);
}

int replay(const std::string& file) {
  std::ifstream in(file, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "sg_chaos: cannot open %s\n", file.c_str());
    return 2;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  const Options defaults;
  std::unique_ptr<Mode> m;
  fault::FaultPlan plan;
  std::string recorded_failure;
  try {
    const obs::JsonValue doc = obs::parse_json(ss.str());
    const obs::JsonValue* schema = doc.find("sg_chaos_schema");
    if (schema == nullptr || schema->num_or(0) != 1.0) {
      throw std::runtime_error("not an sg_chaos reproducer (schema 1)");
    }
    const obs::JsonValue* sc = doc.find("scenario");
    if (sc == nullptr || !sc->is_object()) {
      throw std::runtime_error("missing scenario object");
    }
    Scenario s;
    s.bench = fw::benchmark_from_string(string_field(*sc, "benchmark"));
    s.policy = partition::policy_from_string(string_field(*sc, "policy"));
    const std::string& model = string_field(*sc, "exec_model");
    if (model != "Sync" && model != "Async") {
      throw std::runtime_error("unknown exec_model \"" + model + "\"");
    }
    s.model = model == "Sync" ? engine::ExecModel::kSync
                              : engine::ExecModel::kAsync;
    s.devices = static_cast<int>(integer_field(
        sc->find("devices"), "scenario.devices", 1,
        std::numeric_limits<int>::max()));
    const obs::JsonValue* pl = doc.find("plan");
    if (pl == nullptr) throw std::runtime_error("missing plan object");
    plan = fault::plan_from_json(*pl);
    std::string tag;
    for (const char* t : {"gray", "sdc", "serve", "overload"}) {
      if (!is_true(doc, t)) continue;
      if (!tag.empty()) {
        throw std::runtime_error("carries two mode tags, \"" + tag +
                                 "\" and \"" + t + "\"");
      }
      tag = t;
    }
    m = make_mode(tag, defaults);
    m->s = s;
    const obs::JsonValue* wp = sc->find("wire_protocol");
    m->wire = wp == nullptr || wp->kind != obs::JsonValue::Kind::kBool ||
              wp->boolean;
    m->read_extras(doc, plan);
    const obs::JsonValue* fail = doc.find("failure");
    recorded_failure = fail != nullptr ? fail->str_or("") : "";
    plan.validate_or_throw(s.devices, num_hosts(s));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sg_chaos: %s: %s\n", file.c_str(), e.what());
    return 2;
  }
  std::printf("replaying %s: %s, wire_protocol=%s%s, plan events: %zu\n",
              file.c_str(), label_of(m->s).c_str(), m->wire ? "on" : "off",
              m->info.replay_note, plan.events.size());
  if (!m->prepare()) return 2;
  std::string stats;
  const Outcome o = run_guarded(*m, plan, stats);
  if (!stats.empty()) print_case("[run]", *m, plan, stats);
  if (o.failed()) {
    std::printf("reproduced: %s (%s)%s\n", o.kind.c_str(), o.detail.c_str(),
                o.kind == recorded_failure
                    ? ""
                    : " [failure kind differs from recording]");
    return 1;
  }
  std::printf("did not reproduce: %s\n", m->info.pass_note);
  return 0;
}

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--smoke] [--gray | --sdc | --serve | --serve-overload]\n"
      "          [--chaos-seed N] [--seeds N] [--no-shrink] [--keep-going]\n"
      "          [--inject-defect] [--recovery-margin X] [--out-dir DIR]\n"
      "       %s --replay FILE\n",
      argv0, argv0);
  return 2;
}

/// Parses all of `text` as a number; false on trailing junk or empty.
template <typename T>
bool parse_number(const char* text, T& out) {
  const char* end = text + std::strlen(text);
  const auto [p, ec] = std::from_chars(text, end, out);
  return ec == std::errc() && p == end && p != text;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const char* v = nullptr;
    if (a == "--recovery-margin" || a == "--chaos-seed" || a == "--seeds" ||
        a == "--out-dir" || a == "--replay") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "sg_chaos: %s needs a value\n", a.c_str());
        return 2;
      }
      v = argv[++i];
    }
    const auto bad_number = [&] {
      std::fprintf(stderr, "sg_chaos: %s needs a number, got \"%s\"\n",
                   a.c_str(), v);
      return 2;
    };
    if (a == "--smoke") {
      opt.smoke = true;
    } else if (a == "--gray" || a == "--sdc" || a == "--serve" ||
               a == "--serve-overload") {
      const std::string tag = a == "--serve-overload" ? "overload"
                                                      : a.substr(2);
      if (!opt.mode.empty() && opt.mode != tag) {
        std::fprintf(stderr, "sg_chaos: --sdc, --gray, --serve, and "
                             "--serve-overload are exclusive\n");
        return usage(argv[0]);
      }
      opt.mode = tag;
    } else if (a == "--recovery-margin") {
      double x = 0.0;
      if (!parse_number(v, x) || !std::isfinite(x)) return bad_number();
      opt.recovery_margin = x;
    } else if (a == "--chaos-seed") {
      if (!parse_number(v, opt.seed)) return bad_number();
    } else if (a == "--seeds") {
      if (!parse_number(v, opt.seeds_per_scenario)) return bad_number();
      if (opt.seeds_per_scenario <= 0) return usage(argv[0]);
    } else if (a == "--no-shrink") {
      opt.shrink = false;
    } else if (a == "--inject-defect") {
      opt.inject_defect = true;
    } else if (a == "--keep-going") {
      opt.keep_going = true;
    } else if (a == "--out-dir") {
      opt.out_dir = v;
    } else if (a == "--replay") {
      opt.replay = v;
    } else if (a == "--help" || a == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "sg_chaos: unknown flag %s\n", a.c_str());
      return usage(argv[0]);
    }
  }
  const std::unique_ptr<Mode> mode = make_mode(opt.mode, opt);
  if (opt.inject_defect && !mode->info.takes_defect) {
    std::fprintf(stderr, "sg_chaos: --inject-defect does not apply to --%s\n",
                 mode->info.flag);
    return 2;
  }
  if (opt.recovery_margin && !mode->info.takes_margin) {
    std::fprintf(stderr, "sg_chaos: --recovery-margin applies only to "
                         "--gray\n");
    return 2;
  }
  if (!opt.replay.empty()) return replay(opt.replay);
  return soak(*mode, opt);
}
