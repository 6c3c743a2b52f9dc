// Randomized property tests ("fuzz" sweeps over seeds): CSR builder vs
// a naive adjacency-map model, transpose/degree identities, validation,
// generator invariants, event-queue ordering against a reference sort,
// and whole-pipeline distributed-equals-reference checks on random
// graphs with random policies.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "algo/cc.hpp"
#include "algo/kcore.hpp"
#include "algo/min_dist.hpp"
#include "algo/pagerank.hpp"
#include "algo/reference.hpp"
#include "comm/sync_structure.hpp"
#include "fault/chaos.hpp"
#include "fault/checkpoint.hpp"
#include "fault/fault.hpp"
#include "graph/datasets.hpp"
#include "graph/generators.hpp"
#include "graph/validation.hpp"
#include "helpers.hpp"
#include "integrity/audit.hpp"
#include "partition/partition_io.hpp"
#include "serve/scheduler.hpp"
#include "serve/workload.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"

namespace sg {
namespace {

class Fuzz : public testing::TestWithParam<std::uint64_t> {};

std::vector<graph::Edge> random_edges(sim::Rng& rng, graph::VertexId n,
                                      std::size_t m, bool weighted) {
  std::vector<graph::Edge> edges;
  edges.reserve(m);
  for (std::size_t i = 0; i < m; ++i) {
    graph::Edge e;
    e.src = static_cast<graph::VertexId>(rng.bounded(n));
    e.dst = static_cast<graph::VertexId>(rng.bounded(n));
    e.weight = weighted ? rng.range(1, 1000) : 1;
    edges.push_back(e);
  }
  return edges;
}

TEST_P(Fuzz, BuildCsrMatchesNaiveModel) {
  sim::Rng rng{GetParam()};
  const auto n = static_cast<graph::VertexId>(2 + rng.bounded(200));
  const auto m = static_cast<std::size_t>(rng.bounded(2000));
  const auto edges = random_edges(rng, n, m, /*weighted=*/true);

  // Naive model: per-source sorted map keeping the min weight per edge.
  std::map<std::pair<graph::VertexId, graph::VertexId>, graph::Weight>
      model;
  for (const auto& e : edges) {
    auto [it, inserted] = model.try_emplace({e.src, e.dst}, e.weight);
    if (!inserted) it->second = std::min(it->second, e.weight);
  }

  const auto g = graph::build_csr(edges, n, /*weighted=*/true);
  ASSERT_TRUE(graph::validate(g, /*require_sorted=*/true,
                              /*forbid_self_loops=*/false,
                              /*forbid_duplicates=*/true))
      << graph::validate(g).reason;
  ASSERT_EQ(g.num_edges(), model.size());
  std::size_t checked = 0;
  for (graph::VertexId u = 0; u < n; ++u) {
    const auto nbrs = g.neighbors(u);
    const auto ws = g.weights(u);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const auto it = model.find({u, nbrs[i]});
      ASSERT_NE(it, model.end());
      EXPECT_EQ(ws[i], it->second);
      ++checked;
    }
  }
  EXPECT_EQ(checked, model.size());
}

TEST_P(Fuzz, TransposePreservesDegreesAndEdges) {
  sim::Rng rng{GetParam()};
  const auto n = static_cast<graph::VertexId>(2 + rng.bounded(150));
  const auto g = graph::build_csr(
      random_edges(rng, n, 1 + rng.bounded(1500), false), n);
  const auto r = g.transpose();
  ASSERT_EQ(r.num_vertices(), n);
  ASSERT_EQ(r.num_edges(), g.num_edges());
  ASSERT_TRUE(graph::validate(r, /*require_sorted=*/false));
  // Sum of in-degrees equals sum of out-degrees, and each edge flips.
  std::multiset<std::pair<graph::VertexId, graph::VertexId>> fwd, rev;
  for (graph::VertexId v = 0; v < n; ++v) {
    for (auto u : g.neighbors(v)) fwd.emplace(v, u);
    for (auto u : r.neighbors(v)) rev.emplace(u, v);
  }
  EXPECT_EQ(fwd, rev);
}

TEST_P(Fuzz, GeneratorsProduceValidGraphs) {
  sim::Rng rng{GetParam()};
  graph::SyntheticSpec s;
  s.vertices = static_cast<graph::VertexId>(64 + rng.bounded(2000));
  s.edges = 4 * s.vertices + rng.bounded(8 * s.vertices);
  s.zipf_out = 0.3 + rng.uniform() * 0.7;
  s.zipf_in = 0.3 + rng.uniform() * 0.7;
  s.hub_in_frac = rng.uniform() * 0.05;
  s.hub_out_frac = rng.uniform() * 0.02;
  s.communities = 1 + static_cast<std::uint32_t>(rng.bounded(12));
  s.tail_length = static_cast<std::uint32_t>(rng.bounded(s.vertices / 4));
  s.symmetric = rng.chance(0.3);
  s.seed = GetParam() * 31 + 7;
  const auto g = graph::synthetic(s);
  EXPECT_TRUE(graph::validate(g)) << graph::validate(g).reason;
  EXPECT_EQ(g.num_vertices(), s.vertices);
  EXPECT_TRUE(graph::weakly_connected(g));
}

TEST_P(Fuzz, EventQueueMatchesReferenceSort) {
  sim::Rng rng{GetParam()};
  sim::EventQueue q;
  const int n = 5 + static_cast<int>(rng.bounded(200));
  std::vector<std::pair<double, int>> expected;
  std::vector<int> fired;
  for (int i = 0; i < n; ++i) {
    const double t = rng.uniform() * 100.0;
    expected.emplace_back(t, i);
    q.schedule(sim::SimTime{t}, [&fired, i](sim::SimTime) {
      fired.push_back(i);
    });
  }
  std::stable_sort(expected.begin(), expected.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  q.run_to_completion();
  ASSERT_EQ(fired.size(), expected.size());
  for (int i = 0; i < n; ++i) EXPECT_EQ(fired[i], expected[i].second);
}

TEST_P(Fuzz, DistributedBfsAndCcMatchReferenceOnRandomGraphs) {
  sim::Rng rng{GetParam()};
  const auto n = static_cast<graph::VertexId>(16 + rng.bounded(400));
  const std::size_t m = n * (1 + rng.bounded(8));
  auto g = graph::build_csr(random_edges(rng, n, m, false), n);
  auto wg = graph::build_csr(random_edges(rng, n, m, /*weighted=*/true), n);
  const auto policies = test::all_policies();
  const auto policy = policies[rng.bounded(policies.size())];
  const int devices = 1 + static_cast<int>(rng.bounded(6));
  test::PreparedGraph prep(g, policy, devices);
  test::PreparedGraph wprep(wg, policy, devices);
  const auto t = test::topo(devices);
  const auto p = test::params();
  const auto src = static_cast<graph::VertexId>(rng.bounded(n));
  const auto k = static_cast<std::uint32_t>(1 + rng.bounded(6));
  const auto bfs = algo::reference::bfs(g, src);
  const auto cc = algo::reference::cc(g);
  const auto kcore = algo::reference::kcore(g, k);
  const auto sssp = algo::reference::sssp(wg, src);
  // BSP and BASP must agree with the oracles on every input.
  for (const auto model :
       {engine::ExecModel::kSync, engine::ExecModel::kAsync}) {
    const std::string where = std::string(partition::to_string(policy)) +
                              " d=" + std::to_string(devices) + " " +
                              engine::to_string(model);
    const auto c = test::cfg(model);
    EXPECT_EQ(algo::run_bfs(prep.dist, prep.sync, t, p, c, src).dist, bfs)
        << where;
    EXPECT_EQ(algo::run_cc(prep.dist, prep.sync, t, p, c).label, cc)
        << where;
    EXPECT_EQ(algo::run_kcore(prep.dist, prep.sync, t, p, c, k).in_core,
              kcore)
        << where << " k=" << k;
    EXPECT_EQ(algo::run_sssp(wprep.dist, wprep.sync, t, p, c, src).dist,
              sssp)
        << where;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Fuzz,
                         testing::Range<std::uint64_t>(1, 26));

// ---- on-disk envelope corruption fuzzing --------------------------------
//
// Every persisted artifact (partition-store 'SGPT' parts/manifest and
// fault-layer 'SGCK' checkpoints) shares one checksummed envelope:
//   magic(4) | version(4) | payload_size(8) | payload | fnv1a64(8).
// Property: *any* single bit-flip, truncation, or corrupt length field
// must surface as a descriptive std::runtime_error — never a crash,
// never an allocation bomb, and never a silently wrong load.

class CorruptionFuzz : public testing::TestWithParam<std::uint64_t> {};

std::filesystem::path fuzz_dir(const std::string& name) {
  const auto dir = std::filesystem::path(testing::TempDir()) / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::vector<char> slurp(const std::filesystem::path& p) {
  std::ifstream in(p, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void spew(const std::filesystem::path& p, const std::vector<char>& bytes) {
  std::ofstream out(p, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Runs `load` on a file whose bytes were mutated and asserts the
/// corruption is rejected with a descriptive error (non-trivial what()).
template <typename LoadFn>
void expect_descriptive_rejection(LoadFn&& load, const std::string& how) {
  try {
    load();
    ADD_FAILURE() << "corruption not detected (" << how << ")";
  } catch (const std::runtime_error& e) {
    EXPECT_GE(std::string(e.what()).size(), 10u)
        << "error message not descriptive (" << how << ")";
  } catch (...) {
    ADD_FAILURE() << "wrong exception type (" << how << ")";
  }
}

TEST_P(CorruptionFuzz, PartitionPartSurvivesBitFlipsAtRandomOffsets) {
  sim::Rng rng{GetParam()};
  const auto n = static_cast<graph::VertexId>(32 + rng.bounded(64));
  const auto g =
      graph::build_csr(random_edges(rng, n, 4 * n, true), n, true);
  const auto policies = test::all_policies();
  test::PreparedGraph prep(g, policies[rng.bounded(policies.size())], 2);
  const auto dir = fuzz_dir("sg_fuzz_part_" + std::to_string(GetParam()));
  partition::save_partition(prep.dist, dir);
  const auto part = dir / "part_1.sgp";
  const auto pristine = slurp(part);
  ASSERT_GT(pristine.size(), 24u);  // header + some payload + trailer

  // Sweep the whole header deterministically plus random payload/trailer
  // offsets: a flipped bit anywhere in the file must be caught.
  std::vector<std::size_t> offsets;
  for (std::size_t i = 0; i < 16; ++i) offsets.push_back(i);
  offsets.push_back(pristine.size() - 1);  // inside the checksum trailer
  for (int i = 0; i < 24; ++i) offsets.push_back(rng.bounded(pristine.size()));
  for (const std::size_t off : offsets) {
    auto bytes = pristine;
    bytes[off] =
        static_cast<char>(bytes[off] ^ (1u << rng.bounded(8)));
    spew(part, bytes);
    expect_descriptive_rejection(
        [&] { (void)partition::load_partition_part(dir, 1); },
        "bit flip at offset " + std::to_string(off));
  }

  // Restoring the pristine bytes makes the part loadable again (the
  // rejections above were about the data, not lingering state).
  spew(part, pristine);
  EXPECT_NO_THROW((void)partition::load_partition_part(dir, 1));
}

TEST_P(CorruptionFuzz, PartitionStoreSurvivesTruncationAtAnyLength) {
  sim::Rng rng{GetParam() * 977 + 5};
  const auto n = static_cast<graph::VertexId>(32 + rng.bounded(64));
  const auto g = graph::build_csr(random_edges(rng, n, 3 * n, false), n);
  test::PreparedGraph prep(g, partition::Policy::OEC, 2);
  const auto dir = fuzz_dir("sg_fuzz_trunc_" + std::to_string(GetParam()));
  partition::save_partition(prep.dist, dir);

  for (const char* name : {"part_0.sgp", "manifest.sgp"}) {
    const auto path = dir / name;
    const auto pristine = slurp(path);
    std::vector<std::uintmax_t> keeps{0, 3, 4, 7, 8, 15, 16,
                                      pristine.size() - 8,
                                      pristine.size() - 1};
    for (int i = 0; i < 12; ++i) keeps.push_back(rng.bounded(pristine.size()));
    for (const std::uintmax_t keep : keeps) {
      spew(path, pristine);
      std::filesystem::resize_file(path, keep);
      expect_descriptive_rejection(
          [&] { (void)partition::load_partition(dir); },
          std::string(name) + " truncated to " + std::to_string(keep));
    }
    spew(path, pristine);
  }
  EXPECT_NO_THROW((void)partition::load_partition(dir));
}

TEST_P(CorruptionFuzz, CheckpointEnvelopeSurvivesBitFlipsAndTruncation) {
  sim::Rng rng{GetParam() * 131 + 17};
  const auto dir = fuzz_dir("sg_fuzz_ckpt_" + std::to_string(GetParam()));
  const fault::CheckpointStore store(dir);
  fault::Checkpoint ck;
  ck.round = 1 + rng.bounded(50);
  ck.devices.resize(2);
  for (auto& dev : ck.devices) {
    dev.bytes.resize(16 + rng.bounded(240));
    for (auto& b : dev.bytes) b = static_cast<char>(rng.bounded(256));
  }
  store.save(ck);
  const int devices = static_cast<int>(ck.devices.size());
  ASSERT_NO_THROW((void)store.load(ck.round, devices));

  const auto victim = store.device_file(ck.round, 1);
  const auto pristine = slurp(victim);
  for (int i = 0; i < 24; ++i) {
    const std::size_t off = rng.bounded(pristine.size());
    auto bytes = pristine;
    bytes[off] = static_cast<char>(bytes[off] ^ (1u << rng.bounded(8)));
    spew(victim, bytes);
    expect_descriptive_rejection(
        [&] { (void)store.load(ck.round, devices); },
        "checkpoint bit flip at offset " + std::to_string(off));
  }
  for (int i = 0; i < 8; ++i) {
    spew(victim, pristine);
    std::filesystem::resize_file(victim, rng.bounded(pristine.size()));
    expect_descriptive_rejection(
        [&] { (void)store.load(ck.round, devices); },
        "checkpoint truncated");
  }
  spew(victim, pristine);
  const auto reloaded = store.load(ck.round, devices);
  ASSERT_EQ(reloaded.devices.size(), ck.devices.size());
  EXPECT_EQ(reloaded.devices[1].bytes, ck.devices[1].bytes);
}

TEST_P(CorruptionFuzz, CorruptLengthFieldIsRejectedWithoutAllocating) {
  sim::Rng rng{GetParam() * 31 + 3};
  const auto dir = fuzz_dir("sg_fuzz_len_" + std::to_string(GetParam()));
  const fault::CheckpointStore store(dir);
  fault::Checkpoint ck;
  ck.round = 4;
  ck.devices.resize(1);
  ck.devices[0].bytes.assign(64, 'x');
  store.save(ck);
  const auto path = store.device_file(4, 0);
  const auto pristine = slurp(path);

  // The declared payload size lives at bytes [8, 16). Writing absurd
  // values there must be rejected against the actual file size *before*
  // any allocation — a corrupted length field is not an excuse to try a
  // multi-exabyte resize (this was a latent bug: the reader used to
  // allocate `size` bytes on faith).
  const std::uint64_t absurd[] = {
      pristine.size(), pristine.size() + 1, std::uint64_t{1} << 40,
      std::uint64_t{1} << 60, ~std::uint64_t{0}, rng.next()};
  for (const std::uint64_t size : absurd) {
    auto bytes = pristine;
    std::memcpy(bytes.data() + 8, &size, sizeof size);
    spew(path, bytes);
    try {
      (void)store.load(4, 1);
      ADD_FAILURE() << "length " << size << " not rejected";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("corrupt length field"),
                std::string::npos)
          << "unexpected message for length " << size << ": " << e.what();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CorruptionFuzz,
                         testing::Range<std::uint64_t>(1, 13));

// ---- wire-protocol anomaly fuzzing --------------------------------------
//
// The versioned wire protocol (src/comm/wire.hpp) must mask every
// transport-level anomaly: corrupted frames fail their FNV-1a checksum
// and are NACKed and resent, duplicates are discarded by the
// per-(src,dst,field) sequence numbers, reordered frames are buffered
// back into delivery order, and dropped frames are recovered by
// NACK-driven retry. Property: under a seeded random schedule mixing
// all four anomalies, the idempotent traversals (bfs, cc) finish
// bit-identical to the fault-free run on both execution models with
// nothing evicted.

class WireFuzz : public testing::TestWithParam<std::uint64_t> {};

const graph::Csr& wire_graph() {
  static const graph::Csr g = [] {
    graph::SyntheticSpec s;
    s.vertices = 400;
    s.edges = 3200;
    s.zipf_out = 0.6;
    s.zipf_in = 0.7;
    s.hub_in_frac = 0.05;
    s.communities = 2;
    s.seed = 11;
    return graph::synthetic(s);
  }();
  return g;
}

/// Random schedule of drop/corrupt/duplicate/reorder windows scattered
/// across `horizon` (the fault-free run length), with the structural
/// fault kinds switched off — this suite isolates the wire layer.
fault::FaultPlan wire_anomaly_plan(std::uint64_t seed, int devices,
                                   sim::SimTime horizon) {
  fault::ChaosSpec spec;
  spec.num_devices = devices;
  spec.num_hosts = devices / 2;  // test::topo pairs two devices per host
  spec.horizon = horizon;
  spec.min_events = 1;
  spec.max_events = 6;
  spec.allow_partition = false;
  spec.allow_straggler = false;
  spec.allow_loss = false;
  return fault::random_plan(seed, spec);
}

TEST_P(WireFuzz, BfsAndCcBitExactUnderRandomWireAnomalies) {
  sim::Rng rng{GetParam() * 7919 + 13};
  const int devices = 4 + 2 * static_cast<int>(rng.bounded(3));  // 4, 6, 8
  const auto policies = test::all_policies();
  const auto policy = policies[rng.bounded(policies.size())];
  const auto model = rng.chance(0.5) ? engine::ExecModel::kSync
                                     : engine::ExecModel::kAsync;

  const auto& g = wire_graph();
  test::PreparedGraph prep(g, policy, devices);
  const auto t = test::topo(devices);
  const auto p = test::params();
  const auto src = graph::datasets::default_source(g);
  const auto base = test::cfg(model);
  const auto ff_bfs = algo::run_bfs(prep.dist, prep.sync, t, p, base, src);
  const auto ff_cc = algo::run_cc(prep.dist, prep.sync, t, p, base);

  const auto plan =
      wire_anomaly_plan(GetParam(), devices, ff_bfs.stats.total_time);
  auto faulty = base;
  faulty.fault_plan = &plan;

  const auto fr_bfs = algo::run_bfs(prep.dist, prep.sync, t, p, faulty, src);
  EXPECT_EQ(fr_bfs.dist, ff_bfs.dist)
      << partition::to_string(policy) << " d=" << devices
      << " model=" << static_cast<int>(model) << " seed=" << GetParam();
  EXPECT_EQ(fr_bfs.dist, algo::reference::bfs(g, src));
  EXPECT_EQ(fr_bfs.stats.faults.evicted_devices, 0u);

  const auto fr_cc = algo::run_cc(prep.dist, prep.sync, t, p, faulty);
  EXPECT_EQ(fr_cc.label, ff_cc.label)
      << partition::to_string(policy) << " d=" << devices
      << " seed=" << GetParam();
  EXPECT_EQ(fr_cc.label, algo::reference::cc(g));
  EXPECT_EQ(fr_cc.stats.faults.evicted_devices, 0u);
}

TEST_P(WireFuzz, FaultyRunsReplayByteIdenticalAcrossReruns) {
  // Determinism of the perturbed schedule itself: the same plan yields
  // the same labels, the same simulated finish time, and the same
  // anomaly counters on a rerun — this is what makes a sg_chaos
  // reproducer replayable.
  sim::Rng rng{GetParam() * 104729 + 7};
  const auto& g = wire_graph();
  const int devices = 4 + 2 * static_cast<int>(rng.bounded(3));
  test::PreparedGraph prep(g, partition::Policy::OEC, devices);
  const auto t = test::topo(devices);
  const auto p = test::params();
  const auto src = graph::datasets::default_source(g);
  const auto base = test::cfg(rng.chance(0.5) ? engine::ExecModel::kSync
                                              : engine::ExecModel::kAsync);
  const auto ff = algo::run_bfs(prep.dist, prep.sync, t, p, base, src);

  const auto plan =
      wire_anomaly_plan(GetParam() + 500, devices, ff.stats.total_time);
  auto faulty = base;
  faulty.fault_plan = &plan;
  const auto a = algo::run_bfs(prep.dist, prep.sync, t, p, faulty, src);
  const auto b = algo::run_bfs(prep.dist, prep.sync, t, p, faulty, src);
  EXPECT_EQ(a.dist, b.dist);
  EXPECT_EQ(a.stats.total_time, b.stats.total_time);
  EXPECT_EQ(a.stats.faults.messages_corrupted,
            b.stats.faults.messages_corrupted);
  EXPECT_EQ(a.stats.faults.duplicates_injected,
            b.stats.faults.duplicates_injected);
  EXPECT_EQ(a.stats.faults.reorders_injected,
            b.stats.faults.reorders_injected);
  EXPECT_EQ(a.stats.faults.messages_dropped, b.stats.faults.messages_dropped);
}

TEST_P(WireFuzz, PagerankBspBitExactUnderDuplicateStorm) {
  // Duplicates are the anomaly a non-idempotent accumulator cannot
  // tolerate without the wire protocol: a replayed AddOp frame would
  // double-count residual mass. Sequence-number dedupe must make a
  // whole-run duplicate storm invisible — bit-identical ranks.
  sim::Rng rng{GetParam() * 31 + 5};
  const auto& g = wire_graph();
  test::PreparedGraph prep(g, partition::Policy::OEC, 4);
  const auto t = test::topo(4);
  const auto p = test::params();
  const auto base = test::cfg(engine::ExecModel::kSync);
  const auto ff = algo::run_pagerank(prep.dist, prep.sync, t, p, base);

  fault::FaultPlan plan;
  plan.duplicate_messages(0.1 + 0.3 * rng.uniform(), sim::SimTime::zero(),
                          ff.stats.total_time);
  auto faulty = base;
  faulty.fault_plan = &plan;
  const auto fr = algo::run_pagerank(prep.dist, prep.sync, t, p, faulty);

  EXPECT_EQ(fr.rank, ff.rank);  // bit-identical floats
  EXPECT_GT(fr.stats.faults.duplicates_injected, 0u);
  EXPECT_GT(fr.stats.faults.duplicates_discarded, 0u);
  EXPECT_EQ(fr.stats.faults.evicted_devices, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireFuzz,
                         testing::Range<std::uint64_t>(1, 65));

// ---- gray-failure migration fuzzing -------------------------------------
//
// Online shard migration rewires partition ownership mid-run while the
// algorithm's frontier/labels are live. Property: for any random policy,
// device count, execution model, and seeded degradation schedule, a
// mitigated run produces labels bit-identical to the fault-free run
// (migration moves *where* vertices compute, never *what* they compute),
// and the perturbed schedule replays deterministically.

class GrayMigrationFuzz : public testing::TestWithParam<std::uint64_t> {};

/// Monitor tuning scaled to a micro-benchmark, mirroring what sg_chaos
/// --gray derives from the fault-free oracle.
engine::EngineConfig gray_cfg(engine::ExecModel model, sim::SimTime oracle) {
  auto c = test::cfg(model);
  c.mitigation.mode = fault::MitigationMode::kMigrate;
  c.mitigation.sustain_rounds = 1;
  c.mitigation.stretch_alpha = 0.4;
  c.health.heartbeat_interval = oracle * (1.0 / 50.0);
  return c;
}

TEST_P(GrayMigrationFuzz, MitigatedBfsAndCcStayBitExact) {
  sim::Rng rng{GetParam() * 6151 + 29};
  const int devices = 4 + 2 * static_cast<int>(rng.bounded(3));  // 4, 6, 8
  const auto policies = test::all_policies();
  const auto policy = policies[rng.bounded(policies.size())];
  const auto model = rng.chance(0.5) ? engine::ExecModel::kSync
                                     : engine::ExecModel::kAsync;

  const auto& g = wire_graph();
  test::PreparedGraph prep(g, policy, devices);
  const auto t = test::topo(devices);
  const auto p = test::params();
  const auto src = graph::datasets::default_source(g);
  const auto base = test::cfg(model);
  const auto ff_bfs = algo::run_bfs(prep.dist, prep.sync, t, p, base, src);
  const auto ff_cc = algo::run_cc(prep.dist, prep.sync, t, p, base);

  // One or two sustained degrade windows on random victims, severities
  // high enough that the monitor must engage, durations covering most
  // of the oracle makespan.
  const auto horizon = ff_bfs.stats.total_time;
  fault::FaultPlan plan;
  const int victims = 1 + static_cast<int>(rng.bounded(2));
  for (int i = 0; i < victims; ++i) {
    const int d = static_cast<int>(rng.bounded(devices));
    const double severity = 4.0 + 4.0 * rng.uniform();
    const auto start = horizon * (0.05 + 0.15 * rng.uniform());
    const auto duration = horizon * (0.5 + 0.4 * rng.uniform());
    if (rng.chance(0.5)) {
      plan.degrade_device(d, start, duration, severity,
                          /*onset=*/duration * 0.1,
                          /*recovery=*/duration * 0.1);
    } else {
      plan.degrade_device(d, start, duration, severity);
    }
  }
  auto mitigated = gray_cfg(model, horizon);
  mitigated.fault_plan = &plan;

  const auto a = algo::run_bfs(prep.dist, prep.sync, t, p, mitigated, src);
  EXPECT_EQ(a.dist, ff_bfs.dist)
      << partition::to_string(policy) << " d=" << devices
      << " model=" << static_cast<int>(model) << " seed=" << GetParam();
  EXPECT_EQ(a.dist, algo::reference::bfs(g, src));
  EXPECT_EQ(a.stats.faults.evicted_devices, 0u);

  const auto b = algo::run_bfs(prep.dist, prep.sync, t, p, mitigated, src);
  EXPECT_EQ(a.dist, b.dist);
  EXPECT_EQ(a.stats.total_time, b.stats.total_time);
  EXPECT_EQ(a.stats.faults.gray_migrations, b.stats.faults.gray_migrations);
  EXPECT_EQ(a.stats.faults.gray_alerts, b.stats.faults.gray_alerts);

  const auto fr_cc = algo::run_cc(prep.dist, prep.sync, t, p, mitigated);
  EXPECT_EQ(fr_cc.label, ff_cc.label)
      << partition::to_string(policy) << " d=" << devices
      << " seed=" << GetParam();
  EXPECT_EQ(fr_cc.label, algo::reference::cc(g));
}

INSTANTIATE_TEST_SUITE_P(Seeds, GrayMigrationFuzz,
                         testing::Range<std::uint64_t>(1, 25));

// ---- silent-data-corruption auditor fuzzing ------------------------------
//
// Random single-bit flips land in replicated mirror state (plus the
// occasional defective-ALU kernel window) while the integrity auditor
// (replica digests + ABFT invariants + final certificate, DESIGN.md
// §13) runs in kRepair mode. Property: zero undetected wrong answers —
// the audited run's labels are bit-identical to the fault-free run,
// and whenever the same plan run *without* the auditor shipped a
// different answer, the audited run must have flagged at least one
// violation (a flip may legitimately be value-neutral — e.g. healed by
// the next broadcast — but it must never be value-changing AND
// unseen). The perturbed-and-repaired schedule also replays
// byte-identically, which is what makes sg_chaos --sdc reproducers
// replayable.

class SdcFuzz : public testing::TestWithParam<std::uint64_t> {};

struct SdcTarget {
  int device = -1;
  std::int64_t vertex = -1;
};

/// Every replicated mirror entry of the partition: flips aimed here hit
/// state the auditor's digests/certificate provably cover, and the
/// master copy stays canonical for bit-exact repair.
std::vector<SdcTarget> sdc_mirror_targets(const test::PreparedGraph& prep,
                                          int devices) {
  std::vector<SdcTarget> out;
  for (int m = 0; m < devices; ++m) {
    const auto& lg = prep.dist.part(m);
    for (int o = 0; o < devices; ++o) {
      if (o == m) continue;
      const auto& list = prep.sync.list(m, o, comm::ProxyFilter::kAll);
      for (const auto ml : list.mirror_local) {
        out.push_back({m, static_cast<std::int64_t>(lg.l2g[ml])});
      }
    }
  }
  return out;
}

TEST_P(SdcFuzz, AuditedBfsAndCcNeverShipAWrongAnswer) {
  sim::Rng rng{GetParam() * 2654435761ULL + 97};
  const int devices = 4 + 2 * static_cast<int>(rng.bounded(3));  // 4, 6, 8
  const auto policies = test::all_policies();
  const auto policy = policies[rng.bounded(policies.size())];
  const auto model = rng.chance(0.5) ? engine::ExecModel::kSync
                                     : engine::ExecModel::kAsync;

  const auto& g = wire_graph();
  test::PreparedGraph prep(g, policy, devices);
  const auto t = test::topo(devices);
  const auto p = test::params();
  const auto src = graph::datasets::default_source(g);
  const auto base = test::cfg(model);
  const auto ff_bfs = algo::run_bfs(prep.dist, prep.sync, t, p, base, src);
  const auto ff_cc = algo::run_cc(prep.dist, prep.sync, t, p, base);

  const auto targets = sdc_mirror_targets(prep, devices);
  ASSERT_FALSE(targets.empty());
  const auto horizon = ff_bfs.stats.total_time;
  fault::FaultPlan plan;
  const int flips = 1 + static_cast<int>(rng.bounded(3));
  for (int i = 0; i < flips; ++i) {
    const SdcTarget& target = targets[rng.bounded(targets.size())];
    plan.flip_label(target.device, target.vertex,
                    static_cast<int>(rng.bounded(30)),
                    horizon * (0.1 + 0.7 * rng.uniform()));
  }
  if (rng.chance(0.5)) {
    plan.sdc_kernel(static_cast<int>(rng.bounded(devices)), horizon * 0.2,
                    horizon * 0.4, 0.2 + 0.3 * rng.uniform());
  }

  auto unaudited = base;
  unaudited.fault_plan = &plan;
  auto audited = unaudited;
  audited.audit.mode = integrity::AuditMode::kRepair;
  audited.audit.interval_rounds = 1 + static_cast<int>(rng.bounded(2));
  audited.audit.escalate_after = 1000;  // judge answers, not evictions

  const auto un_bfs = algo::run_bfs(prep.dist, prep.sync, t, p, unaudited,
                                    src);
  const auto au_bfs = algo::run_bfs(prep.dist, prep.sync, t, p, audited,
                                    src);
  EXPECT_EQ(au_bfs.dist, ff_bfs.dist)
      << partition::to_string(policy) << " d=" << devices
      << " model=" << static_cast<int>(model) << " seed=" << GetParam();
  EXPECT_GT(au_bfs.stats.faults.sdc_injected, 0u);
  EXPECT_TRUE(au_bfs.stats.faults.sdc_detected > 0 ||
              un_bfs.dist == ff_bfs.dist)
      << "undetected wrong answer: unaudited bfs diverged but the "
         "auditor flagged nothing (seed "
      << GetParam() << ")";

  // The repaired schedule replays byte-identically.
  const auto au2 = algo::run_bfs(prep.dist, prep.sync, t, p, audited, src);
  EXPECT_EQ(au_bfs.dist, au2.dist);
  EXPECT_EQ(au_bfs.stats.total_time, au2.stats.total_time);
  EXPECT_EQ(au_bfs.stats.faults.sdc_detected, au2.stats.faults.sdc_detected);
  EXPECT_EQ(au_bfs.stats.faults.sdc_repaired, au2.stats.faults.sdc_repaired);

  const auto un_cc = algo::run_cc(prep.dist, prep.sync, t, p, unaudited);
  const auto au_cc = algo::run_cc(prep.dist, prep.sync, t, p, audited);
  EXPECT_EQ(au_cc.label, ff_cc.label)
      << partition::to_string(policy) << " d=" << devices
      << " seed=" << GetParam();
  EXPECT_TRUE(au_cc.stats.faults.sdc_detected > 0 ||
              un_cc.label == ff_cc.label)
      << "undetected wrong answer: unaudited cc diverged but the "
         "auditor flagged nothing (seed "
      << GetParam() << ")";
}

INSTANTIATE_TEST_SUITE_P(Seeds, SdcFuzz,
                         testing::Range<std::uint64_t>(1, 25));

// Validation negative cases (hand-built malformed CSRs).
TEST(Validation, DetectsMalformedStructures) {
  using graph::Csr;
  // Non-monotone offsets (dips in the middle; the Csr constructor only
  // checks the final entry).
  EXPECT_FALSE(graph::validate(Csr{{0, 2, 1, 2}, {0, 1}}, false));
  // Destination out of range.
  EXPECT_FALSE(graph::validate(Csr{{0, 1}, {7}}));
  // Unsorted adjacency flagged only when sortedness is required.
  const Csr unsorted{{0, 2, 2}, {1, 0}};
  EXPECT_FALSE(graph::validate(unsorted, /*require_sorted=*/true));
  EXPECT_TRUE(graph::validate(unsorted, /*require_sorted=*/false));
  // Self loops / duplicates flagged on demand.
  const Csr selfy{{0, 1}, {0}};
  EXPECT_TRUE(graph::validate(selfy));
  EXPECT_FALSE(graph::validate(selfy, true, /*forbid_self_loops=*/true));
  const Csr dup{{0, 2, 2}, {1, 1}};
  EXPECT_TRUE(graph::validate(dup));
  EXPECT_FALSE(graph::validate(dup, true, false, /*forbid_duplicates=*/true));
}

// ---- overload-schedule fuzzing ------------------------------------------
//
// The serving layer's overload contract, over random arrival schedules
// and random armings of the three robustness layers: every submitted
// query is exactly one of served / rejected-with-reason (zero silent
// drops), every non-degraded served answer is bit-exact against the
// sequential references, every degraded answer is a sound upper bound,
// and the whole perturbed run replays byte-identically.

class OverloadServeFuzz : public testing::TestWithParam<std::uint64_t> {};

/// Symmetric pair-hashed-weight community graph — the shape the
/// landmark triangle bound (degraded tier) is sound on.
const graph::Csr& overload_fuzz_graph() {
  static const graph::Csr g = [] {
    graph::SyntheticSpec s;
    s.vertices = 400;
    s.edges = 3000;
    s.zipf_out = 0.6;
    s.zipf_in = 0.6;
    s.communities = 3;
    s.symmetric = true;
    s.seed = 19;
    return graph::add_symmetric_weights(graph::synthetic(s), 1, 64, 19);
  }();
  return g;
}

TEST_P(OverloadServeFuzz, ConservationSoundnessAndReplayUnderRandomLoad) {
  sim::Rng rng{GetParam() * 2477 + 11};
  const auto& g = overload_fuzz_graph();
  test::PreparedGraph prep(g, partition::Policy::CVC, 4);
  const auto t = test::topo(4);
  const auto p = test::params();
  const auto c = test::cfg(rng.chance(0.5) ? engine::ExecModel::kSync
                                           : engine::ExecModel::kAsync);

  serve::WorkloadSpec spec;
  spec.seed = GetParam() * 97 + 3;
  spec.num_queries = 160;
  spec.num_tenants = 2 + static_cast<std::uint32_t>(rng.bounded(4));
  spec.arrival_rate_qps = 5000.0 * std::pow(4.0, rng.uniform() * 3.0);
  spec.tenant_skew = 0.4 + rng.uniform();
  spec.source_skew = 0.4 + rng.uniform();
  spec.source_pool = 24 + static_cast<std::uint32_t>(rng.bounded(200));
  spec.bfs_frac = 0.5;
  spec.khop_frac = 0.2;
  spec.ppr_frac = 0.0;  // accumulator family: covered by its own suites
  spec.priorities = 1 + static_cast<std::uint32_t>(rng.bounded(3));
  spec.deadline_slack_lo_ms = 0.2 + rng.uniform();
  spec.deadline_slack_hi_ms = 2.0 + 10.0 * rng.uniform();
  const auto trace = serve::generate_workload(spec, g.num_vertices());

  serve::ServeConfig sc;
  sc.batch_width = 8 + static_cast<std::uint32_t>(rng.bounded(57));
  sc.max_queue_depth = 32 + static_cast<std::uint32_t>(rng.bounded(225));
  sc.dist_cache_capacity = 64 + static_cast<std::uint32_t>(rng.bounded(192));
  sc.default_limits = {.rate_qps = 2000.0 + 30000.0 * rng.uniform(),
                       .burst = 16.0 + 100.0 * rng.uniform(),
                       .max_queued = 128};
  if (rng.chance(0.7)) {
    sc.brownout.enabled = true;
    sc.brownout.score_on = 0.5 + 0.3 * rng.uniform();
    sc.brownout.sustain_evals = 1 + static_cast<int>(rng.bounded(2));
    sc.brownout.cooldown_evals = static_cast<int>(rng.bounded(3));
  }
  if (rng.chance(0.7)) {
    sc.reshard.enabled = true;
    sc.reshard.num_homes = 2 + static_cast<std::uint32_t>(rng.bounded(2));
    sc.reshard.imbalance_on = 1.1 + 0.4 * rng.uniform();
    sc.reshard.imbalance_off = 1.05;
    sc.reshard.sustain_evals = 1;
    sc.reshard.cooldown_evals = static_cast<int>(rng.bounded(3));
  }
  if (rng.chance(0.7)) {
    sc.lifecycle.enabled = true;
    sc.lifecycle.max_retries = static_cast<std::uint32_t>(rng.bounded(3));
    sc.lifecycle.hedge = rng.chance(0.5);
    if (rng.chance(0.3)) sc.lifecycle.fail_attempts = 1;  // transient fail
  }

  serve::BatchScheduler sched(prep.dist, prep.sync, t, p, c, sc);
  const auto answers = sched.run(trace);
  const auto& rep = sched.report();
  ASSERT_EQ(answers.size(), trace.size());
  EXPECT_EQ(rep.submitted, trace.size());
  EXPECT_EQ(rep.served + rep.rejected, rep.submitted);  // zero silent drops

  std::map<graph::VertexId, std::vector<std::uint32_t>> bfs;
  std::map<graph::VertexId, std::vector<std::uint64_t>> sssp;
  auto bfs_of = [&](graph::VertexId s) -> const std::vector<std::uint32_t>& {
    auto it = bfs.find(s);
    if (it == bfs.end()) it = bfs.emplace(s, algo::reference::bfs(g, s)).first;
    return it->second;
  };
  auto sssp_of = [&](graph::VertexId s) -> const std::vector<std::uint64_t>& {
    auto it = sssp.find(s);
    if (it == sssp.end()) {
      it = sssp.emplace(s, algo::reference::sssp(g, s)).first;
    }
    return it->second;
  };

  std::uint64_t reasons = 0;
  for (std::size_t i = 0; i < answers.size(); ++i) {
    const auto& q = trace[i];
    const auto& a = answers[i];
    if (!a.served) {
      EXPECT_NE(a.reject_reason, serve::RejectReason::kNone) << i;
      ++reasons;
      continue;
    }
    if (a.degraded) {
      // Sound upper bound on a distance kind, never a different family.
      ASSERT_TRUE(q.kind == serve::QueryKind::kBfsDist ||
                  q.kind == serve::QueryKind::kSsspDist)
          << i;
      const std::uint64_t truth =
          q.kind == serve::QueryKind::kBfsDist
              ? static_cast<std::uint64_t>(bfs_of(q.source)[q.target])
              : sssp_of(q.source)[q.target];
      ASSERT_NE(a.distance, serve::kUnreachable) << i;
      EXPECT_GE(a.distance, truth) << "unsound degraded bound, query " << i;
      continue;
    }
    switch (q.kind) {
      case serve::QueryKind::kBfsDist: {
        const std::uint32_t d = bfs_of(q.source)[q.target];
        const std::uint64_t want =
            d == algo::kInfDist ? serve::kUnreachable : d;
        EXPECT_EQ(a.distance, want) << i;
        break;
      }
      case serve::QueryKind::kSsspDist:
        EXPECT_EQ(a.distance, sssp_of(q.source)[q.target]) << i;
        break;
      case serve::QueryKind::kKhopCount: {
        const auto& dist = bfs_of(q.source);
        std::uint64_t count = 0;
        for (const auto d : dist) {
          if (d <= q.k) ++count;
        }
        EXPECT_EQ(a.khop_count, count) << i;
        break;
      }
      case serve::QueryKind::kPprTopK:
        ADD_FAILURE() << "ppr query in a ppr-free trace, query " << i;
        break;
    }
  }
  EXPECT_EQ(rep.rejected, reasons);

  // The whole perturbed schedule replays byte-identically.
  serve::BatchScheduler twin(prep.dist, prep.sync, t, p, c, sc);
  (void)twin.run(trace);
  EXPECT_EQ(twin.report_json(), sched.report_json());
}

INSTANTIATE_TEST_SUITE_P(Seeds, OverloadServeFuzz,
                         testing::Range<std::uint64_t>(1, 17));

}  // namespace
}  // namespace sg
