// Integrity-auditor tests (DESIGN.md §13): shard digest and divergence
// localization primitives, detection-lag bookkeeping, the enriched
// checksum-mismatch diagnostics in blob_io, engine-level detect/repair
// behavior under injected label flips and checkpoint corruption, and
// the clean-run report byte-identity contract (enabling the auditor on
// an uncorrupted run must not change a single report byte).
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "algo/cc.hpp"
#include "algo/min_dist.hpp"
#include "algo/pagerank.hpp"
#include "algo/reference.hpp"
#include "comm/sync_structure.hpp"
#include "fault/fault.hpp"
#include "graph/datasets.hpp"
#include "graph/generators.hpp"
#include "helpers.hpp"
#include "integrity/audit.hpp"
#include "integrity/auditor.hpp"
#include "obs/report.hpp"
#include "partition/blob_io.hpp"

namespace sg {
namespace {

using test::cfg;
using test::params;
using test::PreparedGraph;
using test::topo;

graph::Csr audit_graph() {
  graph::SyntheticSpec s;
  s.vertices = 600;
  s.edges = 5000;
  s.zipf_out = 0.7;
  s.zipf_in = 0.8;
  s.hub_in_frac = 0.05;
  s.communities = 3;
  s.seed = 7;
  return graph::synthetic(s);
}

/// All (mirror device, global vertex) pairs of the partition's full
/// replication surface — the state the digest audit provably covers.
struct MirrorTarget {
  int device = -1;
  std::int64_t vertex = -1;
};

std::vector<MirrorTarget> mirror_targets(const PreparedGraph& prep,
                                         int devices) {
  std::vector<MirrorTarget> out;
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

// ---- digest + divergence primitives ------------------------------------

TEST(ShardDigest, EqualShardContentsHashEqualOnBothSides) {
  const std::vector<std::uint32_t> master_vals = {5, 9, 1, 7, 3};
  const std::vector<std::uint32_t> mirror_vals = {0, 9, 0, 1, 7, 0, 3, 5};
  // Exchange-list order is shared: pair i on the mirror side references
  // the same vertex as pair i on the master side.
  const std::vector<std::uint32_t> master_idx = {0, 1, 2, 3};
  const std::vector<std::uint32_t> mirror_idx = {7, 1, 3, 4};
  EXPECT_EQ(integrity::shard_digest<std::uint32_t>(master_vals, master_idx),
            integrity::shard_digest<std::uint32_t>(mirror_vals, mirror_idx));
}

TEST(ShardDigest, SingleBitFlipSplitsTheDigestAndScanLocalizesIt) {
  std::vector<std::uint32_t> master_vals = {5, 9, 1, 7};
  std::vector<std::uint32_t> mirror_vals = master_vals;
  const std::vector<std::uint32_t> idx = {0, 1, 2, 3};
  mirror_vals[2] ^= 1u << 13;
  EXPECT_NE(integrity::shard_digest<std::uint32_t>(mirror_vals, idx),
            integrity::shard_digest<std::uint32_t>(master_vals, idx));
  const auto d = integrity::scan_divergence<std::uint32_t>(
      mirror_vals, idx, master_vals, idx);
  EXPECT_TRUE(d.any());
  EXPECT_EQ(d.count, 1u);
  EXPECT_EQ(d.first_mirror_local, 2u);
  EXPECT_EQ(d.first_master_local, 2u);
}

TEST(ShardDigest, OrderSensitivityMatchesExchangeListContract) {
  // Same multiset, different order, must NOT collide: the exchange list
  // fixes enumeration order on both sides, so order sensitivity is a
  // feature (it catches index-permutation corruption too).
  const std::vector<std::uint32_t> vals = {5, 9};
  const std::vector<std::uint32_t> fwd = {0, 1};
  const std::vector<std::uint32_t> rev = {1, 0};
  EXPECT_NE(integrity::shard_digest<std::uint32_t>(vals, fwd),
            integrity::shard_digest<std::uint32_t>(vals, rev));
}

TEST(DetectLagTracker, LagIsBoundariesFromEarliestPendingInjection) {
  integrity::DetectLagTracker t;
  t.note_injection(2, 10);
  t.note_injection(2, 12);
  t.note_injection(5, 11);
  EXPECT_EQ(t.pending(), 3u);
  // Flagging device 2 at boundary 13 reports lag to the *earliest*
  // unalarmed injection (10), and retires both of device 2's entries.
  EXPECT_EQ(t.note_detection(2, 13), 3);
  EXPECT_EQ(t.pending(), 1u);
  // Nothing pending for device 2 anymore: a fresh alarm has no ledger
  // entry to attribute (e.g. contamination spread) and reports -1.
  EXPECT_EQ(t.note_detection(2, 14), -1);
  EXPECT_EQ(t.note_detection(5, 11), 0);  // caught at its own boundary
  EXPECT_EQ(t.pending(), 0u);
}

// ---- enriched checksum-mismatch diagnostics ----------------------------

constexpr std::array<char, 4> kMagic = {'S', 'G', 'T', '1'};

std::filesystem::path fresh_dir(const std::string& name) {
  const auto dir = std::filesystem::path(testing::TempDir()) / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

void flip_byte(const std::filesystem::path& p, std::streamoff off) {
  std::fstream f(p, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open());
  f.seekg(off);
  char c = 0;
  f.read(&c, 1);
  c = static_cast<char>(c ^ 0x5a);
  f.seekp(off);
  f.write(&c, 1);
}

TEST(ChecksumMismatch, NamesBothDigestsAndTheFirstDifferingOffset) {
  const auto dir = fresh_dir("integrity_ckmsg");
  const auto path = dir / "blob.bin";
  const std::vector<char> payload = {'a', 'b', 'c', 'd', 'e', 'f', 'g', 'h'};
  partition::write_checksummed_file(path, kMagic, 1, payload);
  // Header is magic(4) + version(4) + size(8); corrupt payload byte 5.
  flip_byte(path, 16 + 5);
  try {
    (void)partition::read_checksummed_file(path, kMagic, 1, "test",
                                           &payload);
    FAIL() << "corrupt payload must throw";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("checksum mismatch"), std::string::npos) << msg;
    EXPECT_NE(msg.find("expected 0x"), std::string::npos) << msg;
    EXPECT_NE(msg.find("actual 0x"), std::string::npos) << msg;
    EXPECT_NE(msg.find("first differing block at byte offset 5 of 8"),
              std::string::npos)
        << msg;
  }
}

TEST(ChecksumMismatch, TrailerCorruptionIsCalledOutAsSuch) {
  const auto dir = fresh_dir("integrity_cktrailer");
  const auto path = dir / "blob.bin";
  const std::vector<char> payload = {'x', 'y', 'z', 'w'};
  partition::write_checksummed_file(path, kMagic, 1, payload);
  // Corrupt the stored checksum (last 8 bytes), not the payload.
  flip_byte(path, 16 + 4 + 2);
  try {
    (void)partition::read_checksummed_file(path, kMagic, 1, "test",
                                           &payload);
    FAIL() << "corrupt trailer must throw";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("payload matches reference"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("stored checksum corrupt"), std::string::npos)
        << msg;
  }
}

TEST(ChecksumMismatch, WithoutReferenceOnlyDigestsAreReported) {
  const auto dir = fresh_dir("integrity_cknoref");
  const auto path = dir / "blob.bin";
  const std::vector<char> payload = {'q', 'r', 's', 't'};
  partition::write_checksummed_file(path, kMagic, 1, payload);
  flip_byte(path, 16 + 1);
  try {
    (void)partition::read_checksummed_file(path, kMagic, 1, "test");
    FAIL() << "corrupt payload must throw";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("expected 0x"), std::string::npos) << msg;
    EXPECT_EQ(msg.find("first differing block"), std::string::npos) << msg;
  }
}

// ---- engine-level detect / repair --------------------------------------

fault::FaultPlan late_mirror_flips(const PreparedGraph& prep, int devices,
                                   sim::SimTime horizon, int count) {
  const auto targets = mirror_targets(prep, devices);
  fault::FaultPlan plan;
  for (int i = 0; i < count; ++i) {
    // Deterministic spread over distinct targets, late in the run so
    // the frontier has moved on and no broadcast silently heals them.
    const auto& tg = targets[(i * 97 + 13) % targets.size()];
    plan.flip_label(tg.device, tg.vertex, 3 + i,
                    horizon * (0.55 + 0.08 * i));
  }
  return plan;
}

TEST(AuditorEngine, DetectModeFlagsMirrorFlipsAndBlamesTheDevice) {
  const auto g = audit_graph();
  PreparedGraph prep(g, partition::Policy::CVC, 4);
  const auto t = topo(4);
  const auto p = params();
  const auto src = graph::datasets::default_source(g);
  const auto base = cfg(engine::ExecModel::kSync);
  const auto ff = algo::run_bfs(prep.dist, prep.sync, t, p, base, src);

  const auto plan = late_mirror_flips(prep, 4, ff.stats.total_time, 4);
  auto audited = base;
  audited.fault_plan = &plan;
  audited.audit.mode = integrity::AuditMode::kDetect;
  audited.audit.interval_rounds = 1;
  const auto run = algo::run_bfs(prep.dist, prep.sync, t, p, audited, src);

  const auto& f = run.stats.faults;
  EXPECT_GT(f.sdc_injected, 0u);
  EXPECT_GT(f.sdc_detected, 0u);
  EXPECT_GT(f.sdc_audits, 0u);
  // Detect-only: violations are counted and blamed but never healed.
  EXPECT_EQ(f.sdc_repaired, 0u);
  bool blamed = false;
  for (const auto& s : f.sdc) {
    if (s.digest_violations != 0 || s.invariant_violations != 0) {
      EXPECT_GE(s.device, 0);
      EXPECT_LT(s.device, 4);
      blamed = true;
    }
  }
  EXPECT_TRUE(blamed);
}

TEST(AuditorEngine, RepairModeHealsToBitExactAndCountsRepairs) {
  const auto g = audit_graph();
  PreparedGraph prep(g, partition::Policy::CVC, 4);
  const auto t = topo(4);
  const auto p = params();
  const auto src = graph::datasets::default_source(g);
  const auto base = cfg(engine::ExecModel::kSync);
  const auto ff = algo::run_bfs(prep.dist, prep.sync, t, p, base, src);

  const auto plan = late_mirror_flips(prep, 4, ff.stats.total_time, 4);
  auto audited = base;
  audited.fault_plan = &plan;
  audited.audit.mode = integrity::AuditMode::kRepair;
  audited.audit.interval_rounds = 1;
  audited.audit.escalate_after = 1000;
  const auto run = algo::run_bfs(prep.dist, prep.sync, t, p, audited, src);

  EXPECT_EQ(run.dist, ff.dist);  // bit-exact vs the fault-free oracle
  EXPECT_EQ(run.dist, algo::reference::bfs(g, src));
  const auto& f = run.stats.faults;
  EXPECT_GT(f.sdc_injected, 0u);
  EXPECT_GT(f.sdc_detected, 0u);
  EXPECT_GT(f.sdc_repaired, 0u);
  EXPECT_EQ(f.sdc_escalations, 0u);

  // The perturbed-and-repaired schedule replays byte-identically.
  const auto again = algo::run_bfs(prep.dist, prep.sync, t, p, audited,
                                   src);
  EXPECT_EQ(run.dist, again.dist);
  EXPECT_EQ(run.stats.total_time, again.stats.total_time);
  EXPECT_EQ(f.sdc_repaired, again.stats.faults.sdc_repaired);
}

TEST(AuditorEngine, RepeatOffenderEscalatesAndTheAnswerStaysExact) {
  const auto g = audit_graph();
  PreparedGraph prep(g, partition::Policy::CVC, 4);
  const auto t = topo(4);
  const auto p = params();
  const auto src = graph::datasets::default_source(g);
  const auto base = cfg(engine::ExecModel::kSync);
  const auto ff = algo::run_bfs(prep.dist, prep.sync, t, p, base, src);

  // Hammer one device repeatedly with escalate_after=1 so the second
  // confirmed violation trips the repeat-offender path.
  const auto targets = mirror_targets(prep, 4);
  int victim = -1;
  fault::FaultPlan plan;
  int placed = 0;
  for (const auto& tg : targets) {
    if (victim == -1) victim = tg.device;
    if (tg.device != victim) continue;
    plan.flip_label(tg.device, tg.vertex, 5,
                    ff.stats.total_time * (0.3 + 0.1 * placed));
    if (++placed == 4) break;
  }
  ASSERT_GE(placed, 2);
  auto audited = base;
  audited.fault_plan = &plan;
  audited.audit.mode = integrity::AuditMode::kRepair;
  audited.audit.interval_rounds = 1;
  audited.audit.escalate_after = 1;
  const auto run = algo::run_bfs(prep.dist, prep.sync, t, p, audited, src);

  EXPECT_TRUE(run.stats.faults.sdc_escalations > 0 ||
              run.stats.faults.sdc_detected < 2)
      << "two confirmed violations on one device must escalate";
  EXPECT_EQ(run.dist, ff.dist);
}

TEST(AuditorEngine, CheckpointCorruptionIsCaughtByReadBackVerify) {
  const auto g = audit_graph();
  PreparedGraph prep(g, partition::Policy::OEC, 4);
  const auto t = topo(4);
  const auto p = params();
  auto base = cfg(engine::ExecModel::kSync);
  base.checkpoint.interval_rounds = 1;
  const auto ff = algo::run_pagerank(prep.dist, prep.sync, t, p, base);

  fault::FaultPlan plan;
  plan.corrupt_checkpoint(1, ff.stats.total_time * 0.4);
  auto audited = base;
  audited.fault_plan = &plan;
  audited.audit.mode = integrity::AuditMode::kRepair;
  audited.audit.interval_rounds = 1;
  audited.audit.escalate_after = 1000;
  const auto run = algo::run_pagerank(prep.dist, prep.sync, t, p, audited);

  EXPECT_EQ(run.rank, ff.rank);  // bit-identical floats
  const auto& f = run.stats.faults;
  EXPECT_GT(f.sdc_injected, 0u);
  EXPECT_GT(f.sdc_detected, 0u);
  bool ckpt_flagged = false;
  for (const auto& s : f.sdc) {
    if (s.checkpoint_violations != 0) ckpt_flagged = true;
  }
  EXPECT_TRUE(ckpt_flagged);
}

// ---- clean-run report byte-identity ------------------------------------

TEST(AuditorEngine, CleanRunReportIsByteIdenticalWithAuditingEnabled) {
  const auto g = audit_graph();
  PreparedGraph prep(g, partition::Policy::OEC, 4);
  const auto t = topo(4);
  const auto p = params();
  const auto src = graph::datasets::default_source(g);

  const auto base = cfg(engine::ExecModel::kSync);
  auto audited = base;
  audited.audit.mode = integrity::AuditMode::kRepair;
  audited.audit.interval_rounds = 1;

  const auto off = algo::run_bfs(prep.dist, prep.sync, t, p, base, src);
  const auto on = algo::run_bfs(prep.dist, prep.sync, t, p, audited, src);
  EXPECT_EQ(off.dist, on.dist);
  EXPECT_EQ(off.stats.total_time, on.stats.total_time);

  obs::ReportMeta meta;
  meta.bench = "audit";
  meta.label = "clean";
  meta.benchmark = "bfs";
  meta.input = "synthetic-600";
  meta.system = "D-IrGL";
  meta.config = "Var4";
  meta.devices = 4;
  obs::ReportWriter woff("audit");
  woff.add(meta, off.stats);
  obs::ReportWriter won("audit");
  won.add(meta, on.stats);
  EXPECT_EQ(woff.json(), won.json());
}

}  // namespace
}  // namespace sg
