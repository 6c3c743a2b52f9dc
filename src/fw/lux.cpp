#include "fw/lux.hpp"

#include "algo/pagerank.hpp"
#include "sim/device_memory.hpp"

namespace sg::fw {

BenchmarkRun Lux::run(Benchmark bench, const Prepared& prep,
                      const sim::Topology& topo,
                      const sim::CostParams& params, const RunParams& rp) {
  BenchmarkRun out;
  if (prep.dist.options().policy != partition::Policy::IEC) {
    out.error = "Lux supports only IEC partitioning";
    return out;
  }
  if (!supports(bench)) {
    out.error = std::string(to_string(bench)) +
                " is incorrect or not available in Lux";
    return out;
  }
  engine::EngineConfig cfg = config(topo);
  if (bench == Benchmark::kPagerank) {
    cfg.fixed_rounds = rp.lux_pr_rounds;
    try {
      auto r = algo::run_pagerank_lux(prep.dist, prep.sync, topo, params,
                                      cfg, rp.pr_alpha);
      out.ranks = std::move(r.rank);
      out.stats = std::move(r.stats);
      out.ok = true;
    } catch (const sim::OutOfDeviceMemory& oom) {
      out.error = std::string("out of device memory: ") + oom.what();
    }
    return out;
  }
  return dispatch(bench, prep, topo, params, cfg, rp);
}

}  // namespace sg::fw
