// Shared harness for the Figure 3 motivation study: the OpenMP DAXPY
// kernel (Figure 1) compiled three ways — aggressive prefetch (icc
// baseline), prefetch removed, prefetch with .excl hints — swept over
// working-set sizes and thread counts on the simulated 4-way Itanium 2
// SMP server.
#pragma once

#include <cstdint>

#include "machine/engine.h"
#include "machine/machine.h"
#include "obs/registry.h"
#include "support/simtypes.h"

namespace cobra::bench {

enum class DaxpyVariant { kPrefetch, kNoprefetch, kExcl };

const char* DaxpyVariantName(DaxpyVariant variant);

struct DaxpyResult {
  Cycle cycles = 0;                 // timed region (after warm-up)
  std::uint64_t l3_misses = 0;      // all stacks, demand + prefetch
  std::uint64_t bus_memory = 0;     // system bus data transactions
  std::uint64_t coherent_events = 0;
  bool verified = false;            // y == y0 + reps * a * x
  // End-of-run observability-registry snapshot (the micro suite reports
  // its fingerprint per quantum).
  obs::Snapshot snapshot;
};

struct DaxpyParams {
  int threads = 4;
  std::size_t working_set_bytes = 128 * 1024;  // both arrays together
  DaxpyVariant variant = DaxpyVariant::kPrefetch;
  int reps = 40;         // outer j-loop trips (paper: 1,000,000)
  int warmup_reps = 4;   // excluded from the timed region
  machine::MachineConfig machine = machine::SmpServerConfig(4);
  // Execution-engine quantum; honours COBRA_ENGINE, e.g. "serial@512".
  machine::EngineConfig engine = machine::EngineConfigFromEnv();
};

DaxpyResult RunDaxpyExperiment(const DaxpyParams& params);

}  // namespace cobra::bench
