// Sampled simulation: the SimPoint-style two-pass pipeline built on the
// snapshot layer, BBV phase profiling and the cores' fast-forward mode.
//
//   Pass 1 (PhaseProfiler): run the workload fast-forward (functional-only,
//   no cache/fabric timing) with a BbvProfiler attached; cluster the
//   per-interval basic-block vectors into phases (perfmon/bbv.h).
//
//   Pass 2 (SampledRun): run the same workload again on a fresh machine.
//   A round task tracks the interval schedule recorded by pass 1. The
//   machine drops out of fast-forward `warmup_insts` before each
//   representative so caches and predictors re-converge (fast-forward
//   skips the memory hierarchy, so a cold representative would overstate
//   miss rates); at the representative's boundary it warms up through a
//   full checkpoint round-trip (Machine::SaveCheckpoint →
//   RestoreCheckpoint — exercising the snapshot layer mid-pipeline) and
//   begins measuring; everything else fast-forwards. Finish()
//   extrapolates: each counter's per-instruction rate measured over a
//   phase's representative projects onto every interval of that phase,
//   weighted by the interval's retired instructions.
//
// Both passes are deterministic: interval boundaries close at engine commit
// barriers (functions of simulated state), the checkpoint round-trip is an
// identity on simulated state, and clustering contains no randomness. The
// COBRA_SAMPLE environment variable
// ("<interval_insts>[:<max_phases>[:<warmup_insts>]]") configures the
// pipeline for cobra_bench --sample.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "machine/machine.h"
#include "obs/registry.h"
#include "perfmon/bbv.h"

namespace cobra::perfmon {

struct SampleConfig {
  // Detailed warm-up distance sentinel: half an interval (see below).
  static constexpr std::uint64_t kAutoWarmup = ~0ULL;

  std::uint64_t interval_insts = 0;  // 0 = sampling disabled
  int max_phases = 8;
  // Instructions of detailed-but-discarded simulation before each measured
  // representative: pass 2 leaves fast-forward early so caches and
  // predictors re-converge before measurement begins (fast-forward skips
  // the memory hierarchy entirely, so a representative entered cold would
  // overstate miss rates). 0 disables warm-up.
  std::uint64_t warmup_insts = kAutoWarmup;

  bool enabled() const { return interval_insts > 0; }
  std::uint64_t EffectiveWarmup() const {
    return warmup_insts == kAutoWarmup ? interval_insts / 2 : warmup_insts;
  }
};

// Parses "<interval>[:<phases>[:<warmup>]]" (e.g. "200000", "200000:6" or
// "200000:6:100000"). Every field is plain decimal digits. Returns false
// (leaving *out alone) on malformed text (including a sign or whitespace),
// a zero interval, a number that does not fit its field (64 bits for the
// interval, int for the phase cap, below kAutoWarmup for the warm-up), or
// a zero phase cap.
bool ParseSampleSpec(const char* text, SampleConfig* out);

// COBRA_SAMPLE environment knob: the parsed spec when set and valid, a
// disabled config otherwise.
SampleConfig SampleConfigFromEnv();

// Pass-1 artifact: the interval vectors, the cumulative machine-wide
// retired count at each interval's end (pass 2's switching schedule), and
// the phase clustering.
struct PhaseProfile {
  std::uint64_t interval_insts = 0;
  std::uint64_t warmup_insts = 0;  // resolved (never kAutoWarmup)
  std::vector<BasicBlockVector> intervals;
  std::vector<std::uint64_t> boundaries;
  PhasePlan plan;

  // True when interval `index` is the representative of its phase (pass 2
  // simulates exactly these in detail). Out-of-schedule intervals (beyond
  // the profiled run) are never representative.
  bool IsRepresentative(int index) const;
};

// Pass 1: switches the machine to fast-forward and attaches a BbvProfiler
// for the caller's workload run. Finish() closes the last interval,
// clusters, and restores the machine's previous fast-forward setting.
class PhaseProfiler {
 public:
  PhaseProfiler(machine::Machine* machine, const SampleConfig& config);
  ~PhaseProfiler();

  PhaseProfiler(const PhaseProfiler&) = delete;
  PhaseProfiler& operator=(const PhaseProfiler&) = delete;

  PhaseProfile Finish();

 private:
  machine::Machine* machine_;
  SampleConfig config_;
  BbvProfiler bbv_;
  bool prior_fast_forward_;
  bool finished_ = false;
};

// What a sampled run measured and projected. `projected` holds one
// extrapolated total per counter of the caller's probe, in probe order.
struct SampleOutcome {
  std::uint64_t intervals = 0;           // schedule length (pass 1)
  std::uint64_t phases = 0;
  std::uint64_t detailed_intervals = 0;  // representatives run in detail
  std::uint64_t detailed_retired = 0;    // insts in detail (incl. warm-up)
  std::uint64_t total_retired = 0;       // insts executed by pass 2
  std::uint64_t checkpoints = 0;         // save→restore warm-up round-trips
  std::uint64_t checkpoint_bytes = 0;    // size of the last snapshot blob
  std::uint64_t projected_cycles = 0;    // extrapolated detailed cycles
  std::vector<std::uint64_t> projected;
  // detailed_retired / total_retired: the wall-clock proxy (detailed
  // simulation dominates host cost; a fraction <= 1/3 is the >= 3x claim).
  double detailed_fraction = 0.0;
};

// Pass 2: attaches the phase-switching round task and the sample.* metric
// family (sample.intervals, sample.phases, sample.detailed_intervals,
// sample.detailed_retired, sample.checkpoints, sample.checkpoint_bytes,
// sample.projected_cycles) to the machine's registry for the lifetime of
// this object. The optional probe reads any cumulative counters to
// extrapolate alongside cycles (e.g. L3 misses, bus transactions).
class SampledRun {
 public:
  using CounterProbe = std::function<std::vector<std::uint64_t>()>;

  SampledRun(machine::Machine* machine, PhaseProfile profile,
             CounterProbe probe = {});
  ~SampledRun();

  SampledRun(const SampledRun&) = delete;
  SampledRun& operator=(const SampledRun&) = delete;

  // Closes any in-progress measurement and computes the projections.
  // Leaves the machine in detailed mode. Idempotent.
  SampleOutcome Finish();

 private:
  struct Measurement {
    std::uint64_t retired = 0;
    std::uint64_t cycles = 0;
    std::vector<std::uint64_t> counters;
    bool valid = false;
  };

  void OnBarrier();
  void EnsureDetailed(std::uint64_t retired);
  void EnsureFastForward(std::uint64_t retired);
  void BeginMeasurement(int interval, std::uint64_t retired);
  void EndMeasurement();
  std::uint64_t TotalRetired() const;
  std::vector<std::uint64_t> ReadProbe() const;

  machine::Machine* machine_;
  PhaseProfile profile_;
  CounterProbe probe_;
  obs::Registry::Registration metrics_;
  int round_task_id_ = -1;

  // warm_at_[i]: machine-wide retired count at which the machine must run
  // detailed while interval i executes (the start of the first
  // representative after i, minus the warm-up distance).
  std::vector<std::uint64_t> warm_at_;

  int interval_ = 0;            // schedule position
  bool detailed_ = false;       // machine in detailed mode (warm or measured)
  int measuring_ = -1;          // representative being measured, or -1
  std::uint64_t detailed_enter_retired_ = 0;
  std::uint64_t start_retired_ = 0;
  std::uint64_t start_cycles_ = 0;
  std::vector<std::uint64_t> start_counters_;

  std::vector<Measurement> measurements_;  // per cluster
  SampleOutcome outcome_;
  bool finished_ = false;
};

}  // namespace cobra::perfmon
