// Simulated threading runtime: OpenMP-style fork/join teams over the
// machine's cores.
//
// A parallel region launches one simulated thread per core (thread i bound
// to CPU i, as the paper binds threads to processors), sets up each
// thread's argument registers, runs all cores to completion under the
// machine's deterministic execution engine, and joins with a barrier.  Loop
// iterations are divided with OpenMP's static schedule (contiguous chunks
// by thread id), which is the partitioning whose boundary lines produce
// the sharing behaviour the paper studies.
//
// The team carries an EngineConfig (machine/engine.h) for its regions. Its
// quantum is part of the timing model: it bounds how far a core runs ahead
// between barriers and sets how often round tasks (deferred sample delivery
// into COBRA) run — once per quantum, at the quantum boundary.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "cpu/regfile.h"
#include "machine/engine.h"
#include "machine/machine.h"
#include "support/simtypes.h"

namespace cobra::rt {

// [begin, end) iteration range.
struct IndexRange {
  std::int64_t begin = 0;
  std::int64_t end = 0;
  std::int64_t size() const { return end - begin; }
};

// OpenMP static schedule: contiguous chunk of [0, n) for thread `tid` of
// `num_threads` (remainder spread over the leading threads).
IndexRange StaticChunk(int tid, int num_threads, std::int64_t n);

class Team {
 public:
  // Uses CPUs [0, num_threads) of the machine. `engine` sets the quantum
  // the team's regions run at.
  Team(machine::Machine* machine, int num_threads,
       const machine::EngineConfig& engine = {});

  int num_threads() const { return num_threads_; }

  // Runs a parallel region: every thread starts at `entry` after `setup`
  // has initialized its registers. Returns the region's duration in cycles
  // (fork barrier to join barrier).
  Cycle Run(isa::Addr entry,
            const std::function<void(int tid, cpu::RegisterFile&)>& setup);

  machine::Machine& machine() { return *machine_; }

 private:
  machine::Machine* machine_;
  int num_threads_;
  machine::EngineConfig engine_;
};

}  // namespace cobra::rt
