// Deterministic coherence fuzzing: seeded random workloads run on the
// Section 5.1 machines with the coherence checker + golden memory oracle
// enabled.
//
// Each case must complete with zero invariant violations — the checker
// aborts the process otherwise, printing the seed and engine spec. The
// protocol, plan-cache and trace-JIT sweeps additionally diff fingerprints
// (timing state, coherence counters, data-segment hash) between runs that
// must agree.
//
// Knobs:
//   COBRA_FUZZ_CASES=<n>  seeds per machine shape (default 50)
//   COBRA_FUZZ_SEED=<n>   replay exactly one seed (overrides CASES)
//   COBRA_VERIFY=1        additionally deploy every emitted loop of each
//                         case through the trace cache and run the
//                         patch-safety verifier on deploy/revert/re-apply
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "isa/image.h"
#include "machine/engine.h"
#include "mem/protocol.h"
#include "tjit/tcache.h"
#include "verify/fuzz.h"

namespace cobra::verify {
namespace {

int CasesFromEnv() {
  if (const char* env = std::getenv("COBRA_FUZZ_CASES"); env && *env != '\0') {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 50;
}

bool SeedFromEnv(std::uint64_t* seed) {
  if (const char* env = std::getenv("COBRA_FUZZ_SEED"); env && *env != '\0') {
    *seed = std::strtoull(env, nullptr, 0);
    return true;
  }
  return false;
}

bool VerifyFromEnv() {
  const char* env = std::getenv("COBRA_VERIFY");
  return env != nullptr && *env != '\0' && *env != '0';
}

void RunSweep(FuzzCase (*make)(std::uint64_t), std::uint64_t seed_base) {
  std::uint64_t replay_seed = 0;
  const bool replay = SeedFromEnv(&replay_seed);
  const bool verify = VerifyFromEnv();
  const int cases = replay ? 1 : CasesFromEnv();
  int verifier_passes = 0;
  for (int i = 0; i < cases; ++i) {
    const std::uint64_t seed =
        replay ? replay_seed : seed_base + static_cast<std::uint64_t>(i);
    const FuzzCase c = make(seed);
    // A checker or verifier violation aborts inside the call — reaching the
    // next iteration is the zero-violation (and, for the verifier,
    // zero-false-positive) assertion.
    RunFuzzCase(c, machine::EngineConfig{});
    if (verify) verifier_passes += VerifyFuzzDeployments(c);
  }
  if (verify) {
    std::printf("[ COBRA    ] patch verifier: %d passes over %d cases\n",
                verifier_passes, cases);
  }
}

TEST(CoherenceFuzz, SmpSweepConforms) { RunSweep(&SmpFuzzCase, 1000); }

TEST(CoherenceFuzz, NumaSweepConforms) { RunSweep(&NumaFuzzCase, 2000); }

// Per-protocol conformance battery: every seed runs under all four
// coherence protocols on both machine shapes, with the checker's
// protocol-specific invariant sets armed. Each protocol must (a) survive
// with zero invariant violations and (b) agree with every other protocol
// on the final architectural memory image — the protocol decides *when*
// data moves, never *what* the program computes. Runs one machine
// execution per protocol per seed, so it uses fewer seeds than the
// single-protocol sweeps.
void RunProtocolSweep(FuzzCase (*make)(std::uint64_t),
                      std::uint64_t seed_base) {
  static constexpr mem::Protocol kProtocols[] = {
      mem::Protocol::kMesi, mem::Protocol::kMoesi, mem::Protocol::kDragon,
      mem::Protocol::kMesif};
  std::uint64_t replay_seed = 0;
  const bool replay = SeedFromEnv(&replay_seed);
  const int cases = replay ? 1 : std::min(CasesFromEnv(), 12);
  for (int i = 0; i < cases; ++i) {
    const std::uint64_t seed =
        replay ? replay_seed : seed_base + static_cast<std::uint64_t>(i);
    std::string baseline_image;
    for (const mem::Protocol protocol : kProtocols) {
      const FuzzCase c = WithProtocol(make(seed), protocol);
      const std::string image =
          MemoryImageOf(RunFuzzCase(c, machine::EngineConfig{}));
      if (protocol == mem::Protocol::kMesi) {
        baseline_image = image;
      } else {
        ASSERT_EQ(image, baseline_image)
            << "final memory image diverged from the MESI baseline under "
            << mem::ProtocolName(protocol)
            << "; replay with COBRA_FUZZ_SEED=" << seed << " (machine "
            << c.machine_name << ")";
      }
    }
  }
}

// Scalar-evolution soundness: every static affine / loop-invariant address
// claim of every solved loop is cross-checked against the address streams
// the cores actually perform. One contradicted delta anywhere fails the
// sweep — static analysis is only useful as a prior if it never lies.
void RunScevSweep(FuzzCase (*make)(std::uint64_t), std::uint64_t seed_base) {
  std::uint64_t replay_seed = 0;
  const bool replay = SeedFromEnv(&replay_seed);
  const int cases = replay ? 1 : CasesFromEnv();
  ScevSoundnessResult total;
  for (int i = 0; i < cases; ++i) {
    const std::uint64_t seed =
        replay ? replay_seed : seed_base + static_cast<std::uint64_t>(i);
    const ScevSoundnessResult r =
        CheckScevSoundness(make(seed), machine::EngineConfig{});
    ASSERT_EQ(r.contradictions, 0u)
        << r.first_contradiction
        << "; replay with COBRA_FUZZ_SEED=" << seed;
    total.loops_solved += r.loops_solved;
    total.claims += r.claims;
    total.deltas_checked += r.deltas_checked;
  }
  // The sweep must have exercised real claims, or it proves nothing.
  EXPECT_GT(total.loops_solved, 0u);
  EXPECT_GT(total.deltas_checked, 0u);
  std::printf(
      "[ COBRA    ] scev soundness: %llu loops solved, %llu claims, "
      "%llu deltas checked, 0 contradictions\n",
      static_cast<unsigned long long>(total.loops_solved),
      static_cast<unsigned long long>(total.claims),
      static_cast<unsigned long long>(total.deltas_checked));
}

TEST(ScevSoundness, SmpStaticClaimsMatchObservedStreams) {
  RunScevSweep(&SmpFuzzCase, 3000);
}

TEST(ScevSoundness, NumaStaticClaimsMatchObservedStreams) {
  RunScevSweep(&NumaFuzzCase, 4000);
}

TEST(CoherenceFuzz, SmpAllProtocolsConformAndAgreeOnMemory) {
  RunProtocolSweep(&SmpFuzzCase, 7000);
}

TEST(CoherenceFuzz, NumaAllProtocolsConformAndAgreeOnMemory) {
  RunProtocolSweep(&NumaFuzzCase, 8000);
}

// Exec-plan invalidation under live patching: each seed's workload runs
// interleaved with trace-cache deploy / revert / re-apply cycles, once with
// the per-slot plan cache enabled (the production configuration) and once
// with PlanAt rebuilding from the decoded twin on every fetch (the
// never-cached reference). The fingerprints must be bit-identical: any slot
// whose cached plan survived a patch would execute stale semantics and
// diverge. Under COBRA_VERIFY=1 (the CI verified sweep re-runs this label)
// the patch-safety verifier additionally checks every deployment step.
void RunPlanCacheSweep(FuzzCase (*make)(std::uint64_t),
                       std::uint64_t seed_base) {
  const machine::EngineConfig engine;
  std::uint64_t replay_seed = 0;
  const bool replay = SeedFromEnv(&replay_seed);
  // Each seed executes the workload ~10x (per patch state), so this sweep
  // uses fewer seeds than the single-run sweeps.
  const int cases = replay ? 1 : std::min(CasesFromEnv(), 8);
  for (int i = 0; i < cases; ++i) {
    const std::uint64_t seed =
        replay ? replay_seed : seed_base + static_cast<std::uint64_t>(i);
    const FuzzCase c = make(seed);
    const std::string cached = RunFuzzCaseWithDeployments(c, engine);
    isa::BinaryImage::TestOnlySetPlanCacheEnabled(false);
    const std::string uncached = RunFuzzCaseWithDeployments(c, engine);
    isa::BinaryImage::TestOnlySetPlanCacheEnabled(true);
    ASSERT_EQ(cached, uncached)
        << "plan cache diverged from the never-cached reference; replay "
           "with COBRA_FUZZ_SEED="
        << seed << " (machine " << c.machine_name << ")";
  }
}

TEST(CoherenceFuzz, PlanCacheInvalidationSmp) {
  RunPlanCacheSweep(&SmpFuzzCase, 3000);
}

TEST(CoherenceFuzz, PlanCacheInvalidationNuma) {
  RunPlanCacheSweep(&NumaFuzzCase, 4000);
}

// Translation-cache staleness audit: the same deploy / revert / re-apply
// schedules, run once with the trace JIT compiling and chaining superblocks
// and once forced onto the pure interpreter. Superblocks snapshot exec
// plans at compile time, so any block that survived a patch (a missed
// plan_generation flush) would execute the pre-patch code and diverge the
// fingerprint — timing state, coherence counters and the data-segment hash
// all at once. Machines capture COBRA_TJIT at construction, so the toggle
// wraps the whole run.
void RunTjitSweep(FuzzCase (*make)(std::uint64_t), std::uint64_t seed_base) {
  const machine::EngineConfig engine;
  std::uint64_t replay_seed = 0;
  const bool replay = SeedFromEnv(&replay_seed);
  const int cases = replay ? 1 : std::min(CasesFromEnv(), 8);
  for (int i = 0; i < cases; ++i) {
    const std::uint64_t seed =
        replay ? replay_seed : seed_base + static_cast<std::uint64_t>(i);
    const FuzzCase c = make(seed);
    const std::string jitted = RunFuzzCaseWithDeployments(c, engine);
    tjit::TestOnlySetTjitEnabled(false);
    const std::string interpreted = RunFuzzCaseWithDeployments(c, engine);
    tjit::TestOnlySetTjitEnabled(true);
    ASSERT_EQ(jitted, interpreted)
        << "superblock execution diverged from the interpreter under live "
           "patching; replay with COBRA_FUZZ_SEED="
        << seed << " (machine " << c.machine_name << ")";
  }
}

TEST(CoherenceFuzz, TjitInvalidationSmp) {
  RunTjitSweep(&SmpFuzzCase, 5000);
}

TEST(CoherenceFuzz, TjitInvalidationNuma) {
  RunTjitSweep(&NumaFuzzCase, 6000);
}

}  // namespace
}  // namespace cobra::verify
