// Basic-block-vector phase profiling (the SimPoint idea, adapted to the
// running machine): while the program executes — typically in fast-forward
// mode — every taken branch reports its target to a BbvProfiler, which
// attributes the instructions retired since the previous taken branch to
// the block that just ended. Fixed-length intervals of machine-wide retired
// instructions each yield one basic-block vector (block address → retired
// weight); clustering the interval vectors groups the program's execution
// into phases, and one *representative* interval per phase is all the
// detailed simulation a sampled run needs (sample.h drives that pipeline).
//
// Determinism: per-CPU accumulation only during segments, merged and
// interval-closed exclusively at quantum boundaries via a round task, while
// every core is quiescent. Clustering is deterministic k-means:
// farthest-first seeding from interval 0, lowest-index tie-breaks, no RNG
// and no wall-clock anywhere.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "cpu/core.h"
#include "isa/types.h"
#include "machine/machine.h"
#include "support/simtypes.h"

namespace cobra::perfmon {

// One profiling interval: block address → instructions attributed to it.
struct BasicBlockVector {
  std::map<isa::Addr, std::uint64_t> weights;
  std::uint64_t retired = 0;  // machine-wide retired count in this interval
};

class BbvProfiler final : public cpu::BlockProfiler {
 public:
  // Attaches to every core of `machine` and registers the interval-closing
  // round task. `interval_insts` is the interval length in machine-wide
  // retired instructions (an interval closes at the first quantum boundary
  // at or past the quota, so actual interval sizes quantize to quanta).
  BbvProfiler(machine::Machine* machine, std::uint64_t interval_insts);
  ~BbvProfiler() override;

  BbvProfiler(const BbvProfiler&) = delete;
  BbvProfiler& operator=(const BbvProfiler&) = delete;

  // cpu::BlockProfiler: called by a core on every taken branch — touches
  // this CPU's accumulator only.
  void OnTakenBranch(CpuId cpu, isa::Addr target,
                     std::uint64_t retired) override;

  // Closes the in-progress interval if it has any weight (end of run).
  void Finalize();

  const std::vector<BasicBlockVector>& intervals() const { return intervals_; }
  std::uint64_t interval_insts() const { return interval_insts_; }

 private:
  void OnBarrier();
  void CloseInterval(std::uint64_t total_retired);

  machine::Machine* machine_;
  std::uint64_t interval_insts_;

  struct PerCpu {
    isa::Addr current_block = 0;   // target of the last taken branch
    std::uint64_t last_retired = 0;
    std::map<isa::Addr, std::uint64_t> weights;
  };
  std::vector<PerCpu> per_cpu_;

  std::uint64_t interval_start_retired_ = 0;
  std::vector<BasicBlockVector> intervals_;
  int round_task_id_ = -1;
};

// One phase found by clustering: which intervals belong to it, which member
// stands for all of them, and how many intervals it speaks for.
struct PhaseCluster {
  int representative = 0;        // interval index (medoid of the cluster)
  std::uint64_t weight = 0;      // member count
  std::vector<int> members;      // interval indices, ascending
};

struct PhasePlan {
  std::vector<int> assignment;       // interval index → cluster index
  std::vector<PhaseCluster> clusters;
};

// Deterministic k-means over L1-normalized interval vectors (dimensions =
// union of block addresses, sorted): farthest-first seeding starting from
// interval 0, Lloyd iterations with lowest-index tie-breaks, medoid
// representatives. `max_phases` caps k at the interval count.
PhasePlan ClusterPhases(const std::vector<BasicBlockVector>& intervals,
                        int max_phases);

}  // namespace cobra::perfmon
