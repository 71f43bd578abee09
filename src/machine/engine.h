// The execution engine: the simulator's main scheduling loop.
//
// Simulated time advances in a quantum/segment/commit model:
//
//   * Time is divided into quanta of `EngineConfig::quantum` simulated
//     cycles, starting at the minimum core clock of the running set.
//   * Within a quantum, each core runs a *segment*: consecutive steps that
//     touch only core-private state (registers, its own cache hierarchy,
//     race-free functional memory). A core stops at a step boundary when it
//     leaves the quantum window, halts, or its next step would issue a
//     coherence-fabric transaction. The cache stack's fused
//     `CacheStack::TryLoad/TryStore/TryPrefetch` decide that exactly: a
//     fabric-free access commits in the same pass, a fabric-bound one is
//     declined with no side effects.
//   * At the barrier that ends the segment phase, the cores stopped on a
//     fabric access are committed one at a time in canonical
//     (stop-cycle, cpu-id) order: the pending step executes whole — bus or
//     directory transaction, snoops of the other (quiescent) stacks, NUMA
//     first-touch page homing, victim writebacks. Segment phases and commit
//     batches alternate until every core has halted or reached the quantum
//     edge.
//   * Deferred round tasks (sample-batch delivery to COBRA's monitoring
//     threads, which may rewrite the binary image) run once per quantum, at
//     the quantum boundary, while all cores are quiescent, in registration
//     order.
//
// Every decision that affects simulated state is a function of simulated
// state alone, so a run is bit-reproducible (see DESIGN.md §5, "Execution
// engine").
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "support/simtypes.h"

namespace cobra::machine {

class Machine;

struct EngineConfig {
  // Quantum length in simulated cycles. This is a *semantic* parameter of
  // the execution model (it bounds how far a core may run ahead between
  // barriers and sets the round-task cadence): different Q are distinct
  // (equally valid, equally deterministic) timing models. The default is
  // large enough to amortize barrier costs yet small enough that cores
  // cannot starve each other of coherence responses.
  Cycle quantum = 1024;
};

// Runs the given (already Start()ed) cores of `machine` until all have
// halted.
void Run(Machine& machine, const std::vector<CpuId>& active,
         const EngineConfig& config);

// Parses an engine spec string of the form "serial[@Q]": "serial" runs at
// the default quantum, "serial@Q" (or just "@Q") at quantum Q > 0, which
// must fit in 64 bits. Empty means "serial". Aborts on a malformed spec.
EngineConfig ParseEngineSpec(std::string_view spec);

// The inverse of ParseEngineSpec: "serial" at the default quantum,
// "serial@Q" otherwise.
std::string FormatEngineSpec(const EngineConfig& config);

// The bench/examples knob: reads the COBRA_ENGINE environment variable
// (spec as above; unset or empty means "serial").
EngineConfig EngineConfigFromEnv();

}  // namespace cobra::machine
