// Quickstart: the minimal end-to-end pipeline.
//
//   1. build (or load) a graph;
//   2. partition it across simulated GPUs with a policy;
//   3. run a benchmark under an engine configuration;
//   4. read the results and the simulated performance breakdown.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "algo/min_dist.hpp"
#include "comm/sync_structure.hpp"
#include "graph/generators.hpp"
#include "partition/dist_graph.hpp"
#include "sim/cost_params.hpp"
#include "sim/topology.hpp"

int main() {
  using namespace sg;

  // 1. A synthetic power-law graph: 16k vertices, ~260k edges.
  const graph::Csr g = graph::rmat({.scale = 14, .edge_factor = 16,
                                    .seed = 1});
  std::printf("graph: %u vertices, %llu edges\n", g.num_vertices(),
              static_cast<unsigned long long>(g.num_edges()));

  // 2. Partition for 8 GPUs with the Cartesian vertex-cut; build the
  //    memoized communication structure once.
  const auto dg = partition::partition_graph(
      g, {.policy = partition::Policy::CVC, .num_devices = 8});
  const comm::SyncStructure sync(dg);
  std::printf("partitioned: replication factor %.2f, static balance %.2f\n",
              dg.stats().replication_factor, dg.stats().static_balance);

  // 3. A Bridges-like cluster (2 P100s per host) and the default D-IrGL
  //    configuration: ALB load balancing + update-only sync + BASP.
  const auto topo = sim::Topology::bridges(8);
  const auto params = sim::CostParams::for_scaled_datasets();
  engine::EngineConfig config;  // defaults = Var4

  const graph::VertexId source = 0;
  const auto result = algo::run_bfs(dg, sync, topo, params, config, source);

  // 4. Results + simulated performance.
  std::uint64_t reached = 0;
  std::uint32_t max_dist = 0;
  for (std::uint32_t dist : result.dist) {
    if (dist != algo::kInfDist) {
      ++reached;
      max_dist = std::max(max_dist, dist);
    }
  }
  std::printf("bfs from %u: reached %llu vertices, eccentricity %u\n",
              source, static_cast<unsigned long long>(reached), max_dist);
  std::printf("simulated time: %.3f ms  (compute %.3f ms, device-comm "
              "%.3f ms, min wait %.3f ms)\n",
              result.stats.total_time.millis(),
              result.stats.max_compute().millis(),
              result.stats.max_device_comm().millis(),
              result.stats.min_wait().millis());
  std::printf("rounds: %u, edges relaxed: %llu, comm volume: %.2f MB, "
              "peak device memory: %.2f MB\n",
              result.stats.global_rounds,
              static_cast<unsigned long long>(result.stats.total_work()),
              static_cast<double>(result.stats.comm.total_volume()) / 1e6,
              static_cast<double>(result.stats.max_memory()) / 1e6);
  return 0;
}
