// Partition-store workflow: the paper's footnote-2 production pattern —
// "graphs can be partitioned once, and in-memory representations of the
// partitions can be written to disk. Applications can then load these
// partitions directly."
//
// This example partitions the twitter50 analogue for 16 GPUs, saves the
// partition, reloads it as a fresh application would, and shows that
// the loaded partition runs identically while skipping the partitioning
// cost entirely.
//
// Build & run:  ./build/examples/partition_store_workflow
#include <chrono>
#include <cstdio>
#include <filesystem>

#include "algo/min_dist.hpp"
#include "comm/sync_structure.hpp"
#include "graph/datasets.hpp"
#include "partition/dist_graph.hpp"
#include "partition/partition_io.hpp"
#include "sim/cost_params.hpp"
#include "sim/topology.hpp"

namespace {
double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}
}  // namespace

int main() {
  using namespace sg;
  const int gpus = 16;
  const auto dir =
      std::filesystem::temp_directory_path() / "scalegraph_partition_store";

  // ---- "Partitioning job": run once, persist the result. ----
  auto t0 = std::chrono::steady_clock::now();
  const auto g = graph::datasets::make("twitter50");
  const double gen_ms = ms_since(t0);

  t0 = std::chrono::steady_clock::now();
  const auto dg = partition::partition_graph(
      g, {.policy = partition::Policy::CVC, .num_devices = gpus});
  const double part_ms = ms_since(t0);

  t0 = std::chrono::steady_clock::now();
  partition::save_partition(dg, dir);
  const double save_ms = ms_since(t0);
  std::printf("partition job: generate %.0f ms, partition %.0f ms, "
              "save %.0f ms -> %s\n",
              gen_ms, part_ms, save_ms, dir.c_str());

  // ---- "Application": load the stored partition directly. ----
  t0 = std::chrono::steady_clock::now();
  const auto loaded = partition::load_partition(dir);
  const double load_ms = ms_since(t0);
  std::printf("application: loaded %d-device partition in %.0f ms "
              "(replication %.2f, policy %s)\n",
              loaded.num_devices(), load_ms,
              loaded.stats().replication_factor,
              partition::to_string(loaded.options().policy));

  // Both paths must produce identical results and identical simulated
  // performance.
  const auto topo = sim::Topology::bridges(gpus);
  const auto params = sim::CostParams::for_scaled_datasets();
  const engine::EngineConfig config;
  const auto src = graph::datasets::default_source(g);

  const comm::SyncStructure sync_orig(dg);
  const comm::SyncStructure sync_loaded(loaded);
  const auto a = algo::run_bfs(dg, sync_orig, topo, params, config, src);
  const auto b =
      algo::run_bfs(loaded, sync_loaded, topo, params, config, src);
  std::printf("bfs identical: %s (simulated %.4f ms vs %.4f ms)\n",
              a.dist == b.dist ? "yes" : "NO",
              a.stats.total_time.millis(), b.stats.total_time.millis());

  std::filesystem::remove_all(dir);
  return a.dist == b.dist ? 0 : 1;
}
