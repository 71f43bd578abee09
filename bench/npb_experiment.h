// Shared harness for the paper's main evaluation (Figures 5, 6, 7): each
// OpenMP NPB mini-benchmark runs three ways on a given machine —
//   * baseline: the icc-style aggressively-prefetching binary, untouched;
//   * COBRA/noprefetch: same binary, optimized at runtime;
//   * COBRA/prefetch.excl: same binary, exclusive-hint optimization —
// and reports wall cycles, total L3 misses, and system bus memory
// transactions, from which the per-figure binaries print their series.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "cobra/cobra.h"
#include "machine/engine.h"
#include "machine/machine.h"
#include "obs/registry.h"
#include "perfmon/sample.h"
#include "support/simtypes.h"

namespace cobra::bench {

enum class NpbMode { kBaseline, kCobraNoprefetch, kCobraExcl };

const char* NpbModeName(NpbMode mode);

struct NpbRunResult {
  Cycle cycles = 0;
  std::uint64_t l3_misses = 0;
  std::uint64_t bus_memory = 0;
  std::uint64_t coherent_events = 0;
  // Invalidation traffic components (the Fig. 7a adaptive-vs-always-on
  // `.excl` comparison): ownership transactions on the fabric, and lines
  // other caches lost to them.
  std::uint64_t bus_upgrades = 0;
  std::uint64_t bus_rd_inval_all_hitm = 0;
  std::uint64_t snoop_invalidations = 0;
  // Protocol-contrast traffic (the protocol_matrix experiment): Dragon
  // update broadcasts, cache-to-cache supplies (dirty everywhere; also
  // clean under MESIF), and dirty-victim writebacks.
  std::uint64_t bus_updates = 0;
  std::uint64_t c2c_transfers = 0;
  std::uint64_t bus_writebacks = 0;
  std::uint64_t remote_transactions = 0;
  std::uint64_t prefetch_bus_requests = 0;
  bool verified = false;
  core::CobraRuntime::Stats cobra;
  // Full observability-registry snapshot at the end of the run (every
  // cpuN.*, mem.*, bus.*, engine.*, perfmon.*, cobra.* metric).
  obs::Snapshot snapshot;
  // Sampled-mode bookkeeping (NpbOptions::sample enabled): phase counts,
  // checkpoint round-trips, detailed-instruction fraction. When sampled,
  // `cycles` and the traffic counters above are the SimPoint-style
  // projections, not direct measurements.
  bool sampled = false;
  perfmon::SampleOutcome sample;
};

// Extra knobs for ablation studies (all defaults reproduce the paper runs).
struct NpbOptions {
  // Compile the binary without prefetches instead of attaching COBRA
  // ("blind" static noprefetch, the strawman COBRA's selectivity beats).
  bool static_noprefetch_binary = false;
  // Compile every lfetch as lfetch.excl (always-on exclusive hints, the
  // non-adaptive strawman of Fig. 7a). Mutually exclusive with the above.
  bool static_excl_binary = false;
  // Ablation hook applied to the COBRA configuration before attach.
  std::function<void(core::CobraConfig&)> tweak_config;
  // Execution-engine quantum; honours COBRA_ENGINE, e.g. "serial@512".
  machine::EngineConfig engine = machine::EngineConfigFromEnv();
  // Sampled simulation (perfmon/sample.h): when enabled, the benchmark runs
  // twice — a fast-forward BBV profiling pass, then a sampled pass that
  // warms each representative interval from a checkpoint round-trip and
  // simulates only those in detail. Result counters are projections.
  perfmon::SampleConfig sample;
};

NpbRunResult RunNpbExperiment(const std::string& benchmark,
                              const machine::MachineConfig& machine_config,
                              int threads, NpbMode mode,
                              const NpbOptions& options = {});

}  // namespace cobra::bench
