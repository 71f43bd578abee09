// CobraRuntime: the public entry point of the COBRA framework, and the
// optimization thread that drives it (Section 3.2).
//
// Attach it to a running Machine the way the real system is LD_PRELOADed
// into a process: it spins up one monitoring thread per working thread
// (fed by the perfmon sampling driver) and a single optimization thread
// that periodically:
//   1. aggregates the per-thread profiles into a system-wide view;
//   2. computes the coherent-access ratio (coherent snoop responses over
//      bus transactions) and, if it crosses the trigger threshold,
//   3. walks the hot loops discovered from BTB back-edges, keeps those
//      that contain prefetches and at least one delinquent load whose
//      DEAR latencies mark it as a *coherent* miss (the two-level filter
//      of Section 4),
//   4. builds an optimized trace per selected loop (noprefetch or
//      prefetch.excl) in the code cache and redirects the binary, and
//   5. judges every deployment epoch by *measurement*: global CPI averaged
//      over several sampling windows before vs after, reverting epochs
//      that made the program slower — and, in adaptive mode, retrying with
//      the alternative strategy and re-adapting from scratch when a phase
//      change is detected (Continuous Binary Re-Adaptation).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "analysis/scev.h"
#include "cobra/insertion.h"
#include "cobra/monitor.h"
#include "cobra/optimizer.h"
#include "cobra/planner.h"
#include "cobra/profile.h"
#include "cobra/trace_cache.h"
#include "machine/machine.h"
#include "perfmon/sampling.h"

namespace cobra::core {

struct CobraConfig {
  // Monitoring.
  std::uint64_t sampling_period_insts = 2000;
  std::size_t batch_size = 16;
  Cycle dear_first_level_threshold = 12;    // > L3 hit latency
  Cycle coherent_latency_threshold = 180;   // second-level DEAR filter
  // Cycles charged to a CPU for each delivered batch (signal handling +
  // buffer copy on that CPU). 0 = free monitoring.
  Cycle monitor_overhead_cycles = 0;

  // Optimization-thread policy.
  OptKind strategy = OptKind::kNoprefetch;
  std::uint64_t batches_per_evaluation = 2;  // wake period
  double coherent_ratio_threshold = 0.05;    // system-wide trigger
  std::uint64_t min_loop_hits = 8;           // hotness gate
  std::uint64_t max_deployments = 64;
  // Ablation switches for the two selection filters.
  bool require_coherent_ratio = true;
  bool require_coherent_load_in_loop = true;

  // Measured-epoch discipline (on by default: COBRA adapts by observation,
  // not faith). Each epoch measures the global CPI over `epoch_windows`
  // wake windows, deploys every qualifying loop, lets the system settle,
  // measures again, and keeps the epoch only if the program did not get
  // slower. Averaging several windows makes the comparison robust to the
  // program's rotating phase mix. Samples seen before
  // `attribution_warmup_samples` per thread are ignored (cold caches).
  bool measured_epochs = true;
  int epoch_windows = 6;
  double epoch_slowdown_threshold = 1.01;   // revert epoch if >1% slower
  int max_settle_windows = 6;               // deployment phase cap
  std::uint64_t attribution_warmup_samples = 24;

  // Adaptive strategy mode: a reverted epoch's loops may be retried with
  // the other optimization; plus phase-change re-adaptation.
  bool adaptive = false;
  double phase_change_threshold = 0.60;     // relative L3-per-inst shift

  // Static-analysis priors for the insertion strategy. When on, each
  // DEAR-inferred stride is cross-checked against the loop's scalar-
  // evolution solution (analysis::AnalyzeLoop, cached per head): a dynamic
  // stride on the static chrec lattice deploys after a single confirmation
  // instead of `stride_confirmations`; a contradicted stride is held back
  // until the profile agrees; a statically loop-invariant load is never
  // selected (its DEAR deltas are re-reference noise, not a stream).
  bool static_priors = false;
  int stride_confirmations = 3;  // confirmations required without a prior

  // Strategy selection engine (DESIGN.md §9). The per-loop heuristic is
  // the bit-identical default; PlannerKind::kCost routes every adaptation
  // epoch through the global profit/cost planner, which scores each
  // (loop, OptKind) candidate and solves for the best patch set under
  // `plan_budget`. COBRA_PLANNER=heuristic|cost overrides the default; an
  // explicit assignment in code wins over the environment.
  PlannerKind planner = PlannerFromEnv(PlannerKind::kHeuristic);
  double plan_budget = 64.0;             // SolvePlan budget, in cost units
  double plan_min_profit_delta = 256.0;  // cycles a plan revision must win
  std::uint64_t plan_cooldown_cycles = 100000;  // between plan revisions
};

class CobraRuntime {
 public:
  CobraRuntime(machine::Machine* machine, CobraConfig config);
  ~CobraRuntime();

  CobraRuntime(const CobraRuntime&) = delete;
  CobraRuntime& operator=(const CobraRuntime&) = delete;

  // Starts monitoring a working thread (paper: a monitoring thread is
  // created when a working thread is forked).
  void AttachThread(CpuId cpu, int tid);
  // Convenience: threads 0..n-1 bound to CPUs 0..n-1.
  void AttachAll(int num_threads);
  void DetachAll();

  struct Stats {
    std::uint64_t evaluations = 0;
    std::uint64_t deployments = 0;
    std::uint64_t rollbacks = 0;      // deployments reverted by a verdict
    std::uint64_t epochs_kept = 0;
    std::uint64_t epochs_reverted = 0;
    std::uint64_t strategy_switches = 0;
    std::uint64_t phase_changes = 0;
    std::uint64_t lfetches_rewritten = 0;
    std::uint64_t prefetches_inserted = 0;
    std::uint64_t patch_verifications = 0;  // passes of the safety verifier
    double last_coherent_ratio = 0.0;
    // Static-prior arbitration (static_priors on; all zero otherwise).
    std::uint64_t scev_loops_analyzed = 0;
    std::uint64_t scev_loops_solved = 0;
    std::uint64_t prior_hits = 0;           // dynamic stride on the lattice
    std::uint64_t prior_mismatches = 0;     // contradicted stride held back
    std::uint64_t invariant_suppressed = 0; // invariant loads never selected
    // Global time when the first trace went live (0 = none yet): the
    // latency-to-benefit figure the static_priors ablation compares.
    std::uint64_t first_deploy_cycles = 0;
  };

  const Stats& stats() const { return stats_; }
  const TraceCache& trace_cache() const { return trace_cache_; }
  // The cost-model planner (all-zero stats under the heuristic default).
  const Planner& planner() const { return planner_; }
  const SystemProfile& last_profile() const { return last_profile_; }
  const std::vector<std::unique_ptr<MonitoringThread>>& monitors() const {
    return monitors_;
  }
  const CobraConfig& config() const { return config_; }

  // Forces an optimization-thread wake-up now (tests; normally it runs on
  // the batch cadence).
  void ForceEvaluation() { OptimizationThreadWake(); }

 private:
  // Measured-epoch state machine.
  enum class EpochState {
    kMeasureOff,  // accumulating the pre-deployment CPI baseline
    kDeploying,   // deploying qualifying loops (until none new, or cap)
    kMeasureOn,   // accumulating the post-deployment CPI
    kHold,        // epoch kept; watching for new qualifying loops
  };

  void OnBatch(int cpu, std::span<const perfmon::Sample> batch);
  void OptimizationThreadWake();
  // Instant event on the machine's "cobra" trace lane (no-op untraced).
  void TraceInstant(std::string name);
  // Deploys every currently qualifying hot loop; returns how many. Under
  // PlannerKind::kCost, delegates to DeployPlanned.
  int DeployQualifying(const SystemProfile& profile);

  // Cost-planner path (DESIGN.md §9): qualification results cached by the
  // candidate pre-pass, reused verbatim by the deployment sweep so the
  // arbitration stats count once per wake, like the heuristic.
  struct PlannedQualification {
    LoopCandidate loop;
    std::vector<isa::Addr> lfetches;          // coherence kinds
    std::vector<InsertionCandidate> inserts;  // insertion kind
  };
  // Scores every qualifying (loop, OptKind) pair with estimated benefit
  // (DEAR latency mass × protocol-aware traffic shares) and cost (deploy
  // overhead + trace-cache slots + planted-prefetch bus occupancy).
  std::vector<PlanCandidate> GatherPlanCandidates(
      const SystemProfile& profile,
      std::map<isa::Addr, PlannedQualification>* qualified);
  // Solves/refreshes the plan, reverts live patches a revision dropped,
  // deploys the accepted set; returns how many went live this wake.
  int DeployPlanned(const SystemProfile& profile);
  void EpochStep(const SystemProfile& profile, double window_cpi);
  void PhaseDetect(const CounterTotals& window);
  void RevertEpoch();

  bool LoopQualifies(const SystemProfile& profile, const LoopCandidate& loop,
                     std::vector<isa::Addr>* lfetches) const;
  // Qualification for the ADORE-style insertion strategy: a hot loop with
  // *no* prefetches whose delinquent loads miss to memory (not coherence)
  // with a confidently inferred stride.
  bool LoopQualifiesForInsertion(const SystemProfile& profile,
                                 const LoopCandidate& loop,
                                 std::vector<InsertionCandidate>* out);
  // Scalar-evolution facts for a profiled loop, solved once per head and
  // cached (re-solved only if the sampled back edge moves).
  const analysis::LoopScev& ScevFor(const LoopCandidate& loop);

  machine::Machine* machine_;
  CobraConfig config_;
  perfmon::SamplingDriver driver_;
  TraceCache trace_cache_;
  obs::Registry::Registration metrics_;
  std::vector<std::unique_ptr<MonitoringThread>> monitors_;
  Stats stats_;
  SystemProfile last_profile_;
  std::uint64_t batches_since_wake_ = 0;

  Planner planner_;

  EpochState epoch_state_ = EpochState::kMeasureOff;
  double cpi_accum_ = 0.0;
  int cpi_windows_ = 0;
  double cpi_off_ = 0.0;            // baseline of the current epoch
  int settle_windows_ = 0;
  // Instructions retired across the kMeasureOn windows (cost planner
  // only): the realized-benefit figure credits (cpi_off - cpi_on) cycles
  // per measured instruction to the plan when an epoch is kept.
  double epoch_on_insts_ = 0.0;
  std::vector<int> epoch_deployments_;
  std::vector<isa::Addr> epoch_heads_;

  struct LoopHistory {
    bool tried_noprefetch = false;
    bool tried_excl = false;
    bool blacklisted = false;
  };
  std::map<isa::Addr, LoopHistory> history_;
  std::map<isa::Addr, analysis::LoopScev> scev_cache_;  // by head bundle
  CounterTotals window_start_{};
  // Machine::fast_forward_generation() at the last wake: a moved generation
  // means the window spanned a fast-forwarded gap and its CPI is garbage.
  std::uint64_t fast_forward_generation_ = 0;
  std::optional<double> reference_l3_per_inst_;
  bool phase_shift_pending_ = false;  // hysteresis for phase detection
};

}  // namespace cobra::core
