// Layer probe: times the public functions of pbe, abe, pairing, math,
// crypto and the secure channel at one workload's own shapes (group, width,
// probed positions, token count, payload size and policy).
#pragma once

#include <string>
#include <vector>

#include "workload.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Appends one median timing per primitive to `out`. Keys and tokens come
/// from the deployment's ARA; the subscriber-side shapes from subscriber 0.
void probe_primitives(const Scenario& scenario, Deployment& deployment,
                      std::vector<Metric>& out);

}  // namespace perfbench
