// Dynamic profiles: what COBRA learns from perfmon samples.
//
// Two data structures per monitored thread, exactly as Section 3/4 of the
// paper uses them:
//   * a delinquent-load table keyed by instruction address, fed by DEAR
//     records that pass the first-level latency filter (> L3 hit latency);
//     a second-level threshold separates *coherent* misses (latencies in
//     the 180-200+ range) from plain memory loads (120-150);
//   * a loop table built from BTB entries: a taken branch whose target is
//     at or below its source is a loop back-edge, giving the loop body
//     boundaries [target, source] without any static analysis.
// The optimization thread aggregates these across threads into a
// SystemProfile and adds system-wide counter-derived metrics (the
// coherent-access ratio of Section 4).
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "isa/types.h"
#include "perfmon/sampling.h"
#include "support/simtypes.h"

namespace cobra::core {

// Aggregated DEAR statistics for one load instruction.
struct DelinquentLoad {
  isa::Addr pc = 0;
  std::uint64_t samples = 0;           // DEAR records attributed to this pc
  std::uint64_t coherent_samples = 0;  // latency above the coherent threshold
  std::uint64_t total_latency = 0;
  isa::Addr last_data_addr = 0;

  // Stride inference from consecutive DEAR data addresses (ADORE-style,
  // used by the prefetch-insertion optimizer): the current candidate
  // stride and how many consecutive records confirmed it.
  std::int64_t stride = 0;
  std::uint32_t stride_confirmations = 0;

  friend bool operator==(const DelinquentLoad&,
                         const DelinquentLoad&) = default;

  double AvgLatency() const {
    return samples ? static_cast<double>(total_latency) /
                         static_cast<double>(samples)
                   : 0.0;
  }
};

// A loop candidate discovered from BTB back-edges.
struct LoopCandidate {
  isa::Addr head = 0;            // branch target (loop entry bundle)
  isa::Addr back_branch_pc = 0;  // branch source (the loop-closing branch)
  std::uint64_t hits = 0;        // BTB occurrences (hotness proxy)

  // Sampled execution-cost attribution: when two *consecutive* samples of
  // a thread land inside this loop, the elapsed cycles between them are
  // the loop's own cost for one sampling period of instructions. The
  // resulting cycles-per-sample metric is comparable across time for the
  // same loop (and between a loop and its optimized trace copy), which is
  // what the controller's trial verdicts use.
  std::uint64_t attributed_cycles = 0;
  std::uint64_t attributed_samples = 0;

  friend bool operator==(const LoopCandidate&,
                         const LoopCandidate&) = default;

  double CyclesPerSample() const {
    return attributed_samples ? static_cast<double>(attributed_cycles) /
                                    static_cast<double>(attributed_samples)
                              : 0.0;
  }
};

// Counter snapshot accumulated from samples. The sampling configuration
// fixes the four counters as {L3 misses, bus memory transactions,
// BUS_RD_HITM, BUS_RD_HIT}; cycles and instructions are derived from the
// sample timestamp and index.
struct CounterTotals {
  std::uint64_t l3_misses = 0;
  std::uint64_t bus_memory = 0;
  std::uint64_t bus_rd_hitm = 0;
  std::uint64_t bus_rd_hit = 0;
  Cycle cycles = 0;
  std::uint64_t instructions = 0;

  friend bool operator==(const CounterTotals&,
                         const CounterTotals&) = default;

  CounterTotals& operator+=(const CounterTotals& o) {
    l3_misses += o.l3_misses;
    bus_memory += o.bus_memory;
    bus_rd_hitm += o.bus_rd_hitm;
    bus_rd_hit += o.bus_rd_hit;
    cycles += o.cycles;
    instructions += o.instructions;
    return *this;
  }
  CounterTotals operator-(const CounterTotals& o) const {
    CounterTotals d = *this;
    d.l3_misses -= o.l3_misses;
    d.bus_memory -= o.bus_memory;
    d.bus_rd_hitm -= o.bus_rd_hitm;
    d.bus_rd_hit -= o.bus_rd_hit;
    d.cycles -= o.cycles;
    d.instructions -= o.instructions;
    return d;
  }

  // Fraction of bus data transactions that drew a coherent snoop response —
  // the paper's trigger metric for coherent-miss optimization.
  double CoherentRatio() const {
    return bus_memory ? static_cast<double>(bus_rd_hitm + bus_rd_hit) /
                            static_cast<double>(bus_memory)
                      : 0.0;
  }
};

// The indices the four HPM counters must be programmed with for the
// CounterTotals decoding above.
perfmon::SamplingConfig CobraSamplingConfig();

class ThreadProfile {
 public:
  // `coherent_latency_threshold` is the second-level DEAR filter;
  // `attribution_warmup_samples` suppresses cost attribution during the
  // cold-start phase so pre-optimization loop costs reflect steady state.
  explicit ThreadProfile(Cycle coherent_latency_threshold = 180,
                         std::uint64_t attribution_warmup_samples = 0)
      : coherent_threshold_(coherent_latency_threshold),
        attribution_warmup_(attribution_warmup_samples) {}

  void AddSample(const perfmon::Sample& sample);

  const std::map<isa::Addr, DelinquentLoad>& loads() const { return loads_; }
  const std::map<isa::Addr, LoopCandidate>& loops() const { return loops_; }
  const CounterTotals& totals() const { return totals_; }
  std::uint64_t samples_seen() const { return samples_seen_; }

  void Clear();

 private:
  Cycle coherent_threshold_;
  std::uint64_t attribution_warmup_;
  std::map<isa::Addr, DelinquentLoad> loads_;
  std::map<isa::Addr, LoopCandidate> loops_;  // keyed by head
  CounterTotals totals_;
  std::uint64_t samples_seen_ = 0;
  isa::Addr last_dear_pc_ = 0;
  Cycle last_dear_latency_ = 0;
  isa::Addr last_dear_addr_ = 0;
  isa::Addr prev_sample_pc_ = 0;
  Cycle prev_sample_time_ = 0;
  bool have_prev_sample_ = false;
};

// The optimization thread's aggregated view.
struct SystemProfile {
  CounterTotals totals;
  std::vector<LoopCandidate> hot_loops;          // sorted by hits, descending
  std::vector<DelinquentLoad> delinquent_loads;  // every filtered load
  std::vector<DelinquentLoad> coherent_loads;    // loads with coherent misses

  // Merges the given thread profiles.
  static SystemProfile Aggregate(
      const std::vector<const ThreadProfile*>& threads);
};

}  // namespace cobra::core
