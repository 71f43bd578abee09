// Standalone driver for the deterministic coherence fuzzer.
//
// Runs seeded random workloads (see src/verify/fuzz.h) on the SMP and/or
// NUMA machine shapes with the coherence checker + golden memory oracle
// enabled. Any invariant violation aborts with the seed (and engine spec)
// needed to replay. The engine quantum honours COBRA_ENGINE=serial[@Q].
//
//   cobra_fuzz [--cases=N] [--seed=N] [--machine=smp|numa|both]
//
//   --cases=N      seeds per machine shape (default 100)
//   --seed=N       run exactly one seed (also honoured from the
//                  COBRA_FUZZ_SEED environment variable)
//   --machine=...  restrict to one machine shape (default both)
//   --dump         print every case's fingerprint (counters + data hash)
//   --verify       also deploy every emitted loop of each case through the
//                  trace cache and run the patch-safety verifier on the
//                  deploy/revert/re-apply cycle (COBRA_VERIFY=1 does the
//                  same from the environment)
//   --planner      strategy-engine differential: run each case twice
//                  under an attached COBRA runtime (COBRA_PLANNER=heuristic
//                  vs =cost) and check the final memory images are
//                  bit-identical (the planner only picks which
//                  semantics-preserving patches go live); every deploy
//                  passes the patch-safety verifier
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "machine/engine.h"
#include "verify/fuzz.h"

namespace {

using cobra::verify::FuzzCase;

struct CliOptions {
  int cases = 100;
  bool have_seed = false;
  std::uint64_t seed = 0;
  bool run_smp = true;
  bool run_numa = true;
  bool dump = false;
  bool verify = false;
  bool planner = false;
};

[[noreturn]] void UsageError(const char* arg) {
  std::fprintf(stderr,
               "cobra_fuzz: bad argument '%s'\n"
               "usage: cobra_fuzz [--cases=N] [--seed=N] "
               "[--machine=smp|numa|both]\n",
               arg);
  std::exit(2);
}

CliOptions Parse(int argc, char** argv) {
  CliOptions opt;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--cases=", 8) == 0) {
      opt.cases = std::atoi(arg + 8);
      if (opt.cases <= 0) UsageError(arg);
    } else if (std::strncmp(arg, "--seed=", 7) == 0) {
      opt.have_seed = true;
      opt.seed = std::strtoull(arg + 7, nullptr, 0);
    } else if (std::strcmp(arg, "--machine=smp") == 0) {
      opt.run_numa = false;
    } else if (std::strcmp(arg, "--machine=numa") == 0) {
      opt.run_smp = false;
    } else if (std::strcmp(arg, "--machine=both") == 0) {
    } else if (std::strcmp(arg, "--dump") == 0) {
      opt.dump = true;
    } else if (std::strcmp(arg, "--verify") == 0) {
      opt.verify = true;
    } else if (std::strcmp(arg, "--planner") == 0) {
      opt.planner = true;
    } else {
      UsageError(arg);
    }
  }
  if (const char* env = std::getenv("COBRA_FUZZ_SEED");
      env != nullptr && *env != '\0') {
    opt.have_seed = true;
    opt.seed = std::strtoull(env, nullptr, 0);
  }
  if (const char* env = std::getenv("COBRA_VERIFY");
      env != nullptr && *env != '\0' && *env != '0') {
    opt.verify = true;
  }
  return opt;
}

int RunShape(FuzzCase (*make)(std::uint64_t), std::uint64_t seed_base,
             const CliOptions& opt,
             const cobra::machine::EngineConfig& engine,
             int* verifier_passes) {
  int mismatches = 0;
  const int cases = opt.have_seed ? 1 : opt.cases;
  for (int i = 0; i < cases; ++i) {
    const std::uint64_t seed =
        opt.have_seed ? opt.seed : seed_base + static_cast<std::uint64_t>(i);
    const FuzzCase c = make(seed);
    if (opt.planner) {
      const cobra::verify::PlannerCrossCheck xc =
          cobra::verify::RunFuzzCaseWithPlanner(c, engine);
      *verifier_passes += static_cast<int>(xc.verifier_passes);
      if (cobra::verify::MemoryImageOf(xc.heuristic_fingerprint) !=
          cobra::verify::MemoryImageOf(xc.cost_fingerprint)) {
        ++mismatches;
        std::fprintf(stderr,
                     "MISMATCH machine=%s seed=%" PRIu64
                     ": heuristic and cost-planner memory images differ\n"
                     "--- heuristic ---\n%s--- cost ---\n%s",
                     c.machine_name.c_str(), seed,
                     xc.heuristic_fingerprint.c_str(),
                     xc.cost_fingerprint.c_str());
      } else {
        std::printf("ok machine=%s seed=%" PRIu64 " planner deploys=%" PRIu64
                    "/%" PRIu64 " candidates=%" PRIu64 "\n",
                    c.machine_name.c_str(), seed, xc.heuristic_deployments,
                    xc.cost_deployments, xc.cost_candidates);
        if (opt.dump) std::fputs(xc.cost_fingerprint.c_str(), stdout);
      }
      continue;
    }
    if (opt.verify) {
      *verifier_passes += cobra::verify::VerifyFuzzDeployments(c);
    }
    const std::string fingerprint = RunFuzzCase(c, engine);
    std::printf("ok machine=%s seed=%" PRIu64 "\n", c.machine_name.c_str(),
                seed);
    if (opt.dump) std::fputs(fingerprint.c_str(), stdout);
  }
  return mismatches;
}

}  // namespace

int main(int argc, char** argv) {
  const CliOptions opt = Parse(argc, argv);
  const cobra::machine::EngineConfig engine =
      cobra::machine::EngineConfigFromEnv();
  int mismatches = 0;
  int verifier_passes = 0;
  if (opt.run_smp) {
    mismatches += RunShape(&cobra::verify::SmpFuzzCase, 1000, opt, engine,
                           &verifier_passes);
  }
  if (opt.run_numa) {
    mismatches += RunShape(&cobra::verify::NumaFuzzCase, 2000, opt, engine,
                           &verifier_passes);
  }
  if (opt.verify || opt.planner) {
    std::printf("cobra_fuzz: patch verifier ran %d passes\n", verifier_passes);
  }
  if (mismatches != 0) {
    std::fprintf(stderr, "cobra_fuzz: %d memory-image mismatch(es)\n",
                 mismatches);
    return 1;
  }
  std::puts("cobra_fuzz: all cases clean");
  return 0;
}
