// Deterministic coherence fuzzer: seeded random programs stressed under
// the coherence checker.
//
// Each seed expands into one generated workload — either a raw memory-op
// mix assembled instruction by instruction (per-thread store streams on
// false-sharing-prone offsets, shared read-only streams, ld.bias loads,
// lfetch/lfetch.excl streams roving over other threads' written lines) or
// a randomly-parameterized kgen kernel (stream loops, reductions with
// adjacent partial-sum slots, int32 fills/accumulates with chunk-boundary
// sharing). The case runs on a machine with the CoherenceChecker enabled
// and returns a fingerprint of everything observable (final timing state,
// per-CPU cache/coherence counters, a hash of the data segment), so the
// harness can assert serial ≡ parallel exactly like tests/engine_test.cpp.
//
// Replaying a failure: every checker abort prints the case's seed and
// machine/engine spec (via SetFailureContext); COBRA_FUZZ_SEED=<n> makes
// the test harness and the cobra_fuzz tool run just that seed.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "kgen/program.h"
#include "machine/engine.h"
#include "machine/machine.h"

namespace cobra::verify {

struct FuzzCase {
  std::uint64_t seed = 0;
  std::string machine_name;  // printed in the replay hint ("smp4", "numa8")
  machine::MachineConfig machine;
  int threads = 4;
};

// Canned machine shapes for fuzzing: the Section 5.1 hosts with a small
// memory and the coherence checker enabled.
FuzzCase SmpFuzzCase(std::uint64_t seed);
FuzzCase NumaFuzzCase(std::uint64_t seed);

// Re-targets a canned case at a coherence protocol: same seed, same
// generated program, same machine shape, but the fabric speaks `protocol`
// (and the replay hint says so). The architectural outcome of a case —
// the final memory image — must not depend on the protocol; only timing
// and traffic counters may differ.
FuzzCase WithProtocol(FuzzCase c, mem::Protocol protocol);

// Extracts the "memhash=..." final-memory-image line from a RunFuzzCase
// fingerprint (for cross-protocol equality checks, where the full
// fingerprint legitimately differs).
std::string MemoryImageOf(const std::string& fingerprint);

// Regenerates a case's seeded binary into `prog` without running it, for
// static tooling (cobra_lint --fuzz): the returned (name, entry) pairs
// cover every entry point to lint. Kgen-kernel cases register their
// kernels with the program; a raw memory-op mix registers none, so its
// hand-assembled entry is reported as "fuzz_raw_mix".
std::vector<std::pair<std::string, isa::Addr>> BuildFuzzProgram(
    const FuzzCase& c, kgen::Program& prog);

// Generates the seeded program, runs it to completion under `engine` with
// the checker validating every transaction, and returns the fingerprint.
// Any invariant violation aborts the process with the replay hint.
std::string RunFuzzCase(const FuzzCase& c, const machine::EngineConfig& engine);

// Patch-safety sweep for the same seeded program (COBRA_VERIFY=1 in the
// fuzz harness): regenerates the case, deploys every emitted loop region
// under each optimization kind, and exercises the rollback/re-apply cycle.
// Each step runs the patch-safety verifier; a violation (a false positive,
// since the trace cache itself produced the patches) aborts with the
// replay hint. Returns the number of verifier passes.
int VerifyFuzzDeployments(const FuzzCase& c);

// Differential validation of the scalar-evolution pass (ISSUE 8): solves
// every loop of the seeded program statically, then re-runs the workload
// with a per-core memory observer and checks each affine / loop-invariant
// address claim against the observed per-(cpu, pc) address stream —
// consecutive in-loop accesses must advance by exactly the static stride
// (or not at all, for invariant claims). A memory op outside the loop
// region resets that cpu's streams for the region (the thread left the
// loop; the next visit restarts the chrec from a fresh base).
struct ScevSoundnessResult {
  std::uint64_t loops_solved = 0;   // solved loops across the case
  std::uint64_t claims = 0;         // affine/invariant accesses claimed
  std::uint64_t deltas_checked = 0; // consecutive-access comparisons made
  std::uint64_t contradictions = 0; // observed deltas off the claim
  std::string first_contradiction;  // human-readable detail (empty if none)
};
ScevSoundnessResult CheckScevSoundness(const FuzzCase& c,
                                       const machine::EngineConfig& engine);

// Differential validation of the strategy-selection engines (cobra_fuzz
// --planner): runs the seeded workload twice under an attached
// CobraRuntime with an eager deterministic config — once per planner kind
// (per-loop heuristic / cost-model planner) — and returns both
// fingerprints plus the patch activity of each run. The planner only
// chooses *which* semantics-preserving patches go live, so the final
// memory images (MemoryImageOf) must be bit-identical; the caller asserts
// that. Every deploy/revert in both runs passes through the patch-safety
// verifier, which aborts on any violation (a false positive, since the
// trace cache produced the patches itself).
struct PlannerCrossCheck {
  std::string heuristic_fingerprint;
  std::string cost_fingerprint;
  std::uint64_t heuristic_deployments = 0;
  std::uint64_t cost_deployments = 0;
  std::uint64_t cost_candidates = 0;  // (loop, kind) pairs the planner scored
  std::uint64_t verifier_passes = 0;  // patch-safety verifier, both runs
};
PlannerCrossCheck RunFuzzCaseWithPlanner(const FuzzCase& c,
                                         const machine::EngineConfig& engine);

// Live-patching variant of RunFuzzCase: runs the seeded workload once over
// the original binary, then interleaves trace-cache deploy / revert /
// re-apply cycles (every emitted loop × every optimization kind) with full
// re-executions of the workload, and returns the final fingerprint. Every
// re-execution fetches through slots the preceding patch rewrote, so this
// is the harness that proves the per-slot exec-plan cache is invalidated
// correctly by live patching: with the cache disabled
// (isa::BinaryImage::TestOnlySetPlanCacheEnabled(false)) the fingerprint
// must be bit-identical to the cached run.
std::string RunFuzzCaseWithDeployments(const FuzzCase& c,
                                       const machine::EngineConfig& engine);

}  // namespace cobra::verify
