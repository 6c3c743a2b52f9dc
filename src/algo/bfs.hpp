#pragma once

// bfs lives in the min-distance family header. This name stays because
// the host-time benchmark (hostbench/hostbench.cpp) includes it for
// algo::kInfDist, and that tree is not edited alongside the library.
#include "algo/min_dist.hpp"
