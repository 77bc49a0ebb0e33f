// runtime.hpp — spawning and joining a parc "machine".
//
// Runtime::run(nranks, body) plays the role of mpirun: it creates the mailbox
// fabric, launches one std::thread per rank, executes `body(rank)` on each,
// and propagates the first exception thrown by any rank. The optional
// NetworkParams engage the virtual-time machine model (see fabric.hpp).
#pragma once

#include <functional>

#include "parc/fabric.hpp"
#include "parc/rank.hpp"

namespace hotlib::parc {

// Statistics of a completed run, for the benchmark harnesses.
struct RunStats {
  double max_vclock = 0.0;   // modelled makespan (seconds of virtual time)
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  FaultStats faults;              // injected-fault totals (zero without a plan)
  std::uint64_t retransmits = 0;  // reliable-ABM retries summed over ranks
  std::uint64_t abandoned_records = 0;  // lost for good after bounded retries
  bool degraded() const { return abandoned_records > 0; }
};

class Runtime {
 public:
  // Execute body on nranks concurrent ranks; rethrows the first rank failure.
  // An active FaultPlan makes the fabric adversarial (and switches every
  // rank's ABM layer to reliable mode).
  static RunStats run(int nranks, const std::function<void(Rank&)>& body,
                      NetworkParams net = {}, FaultPlan faults = {});
};

}  // namespace hotlib::parc
