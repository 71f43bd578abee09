// The unified paper-conformance benchmark suite behind tools/cobra_bench.
//
// One call runs every experiment the per-figure binaries used to print —
// Table 1, Figure 2's codegen shape, the Figure 3 DAXPY sweep, the NPB
// matrices behind Figures 5/6/7 on both machines, the DESIGN.md §4
// ablations and the ADORE-style insertion extension — and returns a single
// schema-stable support::Json document:
//
//   { schema_version, generator, suite, quick, engine,
//     experiments: [ { name, figure, description, machine, threads,
//                      rows: [...], derived: {...}, host: {...} }, ... ] }
//
// Row keys and types never depend on --quick or on measured values (only
// row *counts* change), so the golden-schema test can pin the document
// shape, and tests/paper_trends_test.cpp asserts the paper's headline
// trends directly on the returned tree.
//
// Every experiment also carries a "host" object (wall_seconds, sim_cycles,
// retired_insts, sim_cycles_per_host_second, sim_mips): host-side
// performance of the simulator itself. Its values are nondeterministic by
// nature; report-diffing tools (cobra_bench --compare) skip the object, and
// the underlying host.* registry metrics are excluded from determinism
// fingerprints.
#pragma once

#include <string>
#include <vector>

#include "machine/engine.h"
#include "support/json.h"

namespace cobra::bench {

struct SuiteOptions {
  // CI-sized matrices: fewer NPB benchmarks, one DAXPY working set, fewer
  // repetitions. Same experiments, same schema, < ~1 minute total.
  bool quick = false;
  // Substring filter on experiment names; empty runs everything.
  std::string only;
  // Progress lines on stderr (one per experiment) for interactive runs.
  bool echo = false;
  // Execution-engine quantum for every simulated run; honours
  // COBRA_ENGINE.
  machine::EngineConfig engine = machine::EngineConfigFromEnv();
  // Sampled simulation (cobra_bench --sample): the NPB matrices run the
  // two-pass BBV/checkpoint pipeline (perfmon/sample.h) and report
  // projected counters instead of direct measurements. Honours
  // COBRA_SAMPLE="<interval>[:<phases>]" for the schedule; same schema.
  bool sample = false;
};

// Experiment names in run order (for the --only filter).
std::vector<std::string> PaperExperimentNames();
std::vector<std::string> MicroExperimentNames();

// Names plus one-line descriptions, in run order (cobra_bench --list).
struct ExperimentInfo {
  std::string name;
  std::string description;
};
std::vector<ExperimentInfo> PaperExperimentList();
std::vector<ExperimentInfo> MicroExperimentList();

// Runs the paper-conformance suite / the quantum microbenchmark and
// returns the full report document described above.
support::Json RunPaperSuite(const SuiteOptions& options = {});
support::Json RunMicroSuite(const SuiteOptions& options = {});

}  // namespace cobra::bench
