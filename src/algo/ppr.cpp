#include "algo/ppr.hpp"

#include <deque>

#include "algo/results.hpp"

namespace sg::algo {

PprResult run_ppr(const partition::DistGraph& dg,
                  const comm::SyncStructure& sync, const sim::Topology& topo,
                  const sim::CostParams& params,
                  const engine::EngineConfig& config, graph::VertexId seed,
                  double alpha, double epsilon) {
  return run_gathered<PprResult>(
      dg, sync, topo, params, config, PprProgram(seed, alpha, epsilon),
      [](const auto& st, graph::VertexId v) { return st.mass[v]; });
}

namespace reference {

std::vector<double> ppr(const graph::Csr& g, graph::VertexId seed,
                        double alpha, double epsilon) {
  const graph::VertexId n = g.num_vertices();
  std::vector<double> mass(n, 0.0);
  std::vector<double> resid(n, 0.0);
  std::vector<std::uint8_t> queued(n, 0);
  std::deque<graph::VertexId> queue;
  resid[seed] = 1.0;
  queue.push_back(seed);
  queued[seed] = 1;
  while (!queue.empty()) {
    const graph::VertexId v = queue.front();
    queue.pop_front();
    queued[v] = 0;
    if (resid[v] <= epsilon) continue;
    const double c = resid[v];
    resid[v] = 0.0;
    mass[v] += alpha * c;
    const auto deg = g.degree(v);
    if (deg == 0) {
      mass[v] += (1.0 - alpha) * c;  // dangling absorption
      continue;
    }
    const double share = (1.0 - alpha) * c / static_cast<double>(deg);
    for (const graph::VertexId u : g.neighbors(v)) {
      resid[u] += share;
      if (resid[u] > epsilon && queued[u] == 0) {
        queued[u] = 1;
        queue.push_back(u);
      }
    }
  }
  return mass;
}

}  // namespace reference
}  // namespace sg::algo
