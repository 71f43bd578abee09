#include "perfmon/bbv.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "support/check.h"

namespace cobra::perfmon {

BbvProfiler::BbvProfiler(machine::Machine* machine,
                         std::uint64_t interval_insts)
    : machine_(machine), interval_insts_(interval_insts) {
  COBRA_CHECK(machine != nullptr);
  COBRA_CHECK(interval_insts > 0);
  per_cpu_.resize(static_cast<std::size_t>(machine->num_cpus()));
  for (CpuId cpu = 0; cpu < machine->num_cpus(); ++cpu) {
    cpu::Core& core = machine->core(cpu);
    per_cpu_[static_cast<std::size_t>(cpu)].last_retired =
        core.instructions_retired();
    interval_start_retired_ += core.instructions_retired();
    core.SetBlockProfiler(this);
  }
  round_task_id_ = machine->AddRoundTask([this] { OnBarrier(); });
}

BbvProfiler::~BbvProfiler() {
  for (CpuId cpu = 0; cpu < machine_->num_cpus(); ++cpu) {
    machine_->core(cpu).SetBlockProfiler(nullptr);
  }
  machine_->RemoveRoundTask(round_task_id_);
}

void BbvProfiler::OnTakenBranch(CpuId cpu, isa::Addr target,
                                std::uint64_t retired) {
  PerCpu& state = per_cpu_[static_cast<std::size_t>(cpu)];
  // The instructions retired since the previous taken branch belong to the
  // block that branch jumped to (straight-line code plus the branch).
  const std::uint64_t delta = retired - state.last_retired;
  if (delta != 0 && state.current_block != 0) {
    state.weights[state.current_block] += delta;
  }
  state.last_retired = retired;
  state.current_block = target;
}

void BbvProfiler::OnBarrier() {
  // All cores are quiescent here, and every run reaches the same quantum
  // boundaries with the same retired counts: interval boundaries are a
  // function of simulated state alone.
  std::uint64_t total_retired = 0;
  for (CpuId cpu = 0; cpu < machine_->num_cpus(); ++cpu) {
    total_retired += machine_->core(cpu).instructions_retired();
  }
  if (total_retired - interval_start_retired_ >= interval_insts_) {
    CloseInterval(total_retired);
  }
}

void BbvProfiler::CloseInterval(std::uint64_t total_retired) {
  BasicBlockVector interval;
  interval.retired = total_retired - interval_start_retired_;
  for (CpuId cpu = 0; cpu < machine_->num_cpus(); ++cpu) {
    PerCpu& state = per_cpu_[static_cast<std::size_t>(cpu)];
    // Attribute the tail (instructions since this CPU's last taken branch)
    // to the block it is still executing, so interval weights sum to the
    // interval's retired count.
    const cpu::Core& core = machine_->core(cpu);
    const std::uint64_t retired = core.instructions_retired();
    if (retired != state.last_retired && state.current_block != 0) {
      state.weights[state.current_block] += retired - state.last_retired;
      state.last_retired = retired;
    }
    for (const auto& [block, weight] : state.weights) {
      interval.weights[block] += weight;
    }
    state.weights.clear();
  }
  intervals_.push_back(std::move(interval));
  interval_start_retired_ = total_retired;
}

void BbvProfiler::Finalize() {
  std::uint64_t total_retired = 0;
  for (CpuId cpu = 0; cpu < machine_->num_cpus(); ++cpu) {
    total_retired += machine_->core(cpu).instructions_retired();
  }
  if (total_retired > interval_start_retired_) {
    CloseInterval(total_retired);
  }
}

namespace {

// Dense, L1-normalized view of the intervals over a shared dimension order.
std::vector<std::vector<double>> NormalizeIntervals(
    const std::vector<BasicBlockVector>& intervals,
    std::vector<isa::Addr>* dims) {
  for (const BasicBlockVector& interval : intervals) {
    for (const auto& [block, weight] : interval.weights) {
      dims->push_back(block);
    }
  }
  std::sort(dims->begin(), dims->end());
  dims->erase(std::unique(dims->begin(), dims->end()), dims->end());

  std::vector<std::vector<double>> out;
  out.reserve(intervals.size());
  for (const BasicBlockVector& interval : intervals) {
    std::vector<double> v(dims->size(), 0.0);
    double total = 0.0;
    for (const auto& [block, weight] : interval.weights) {
      total += static_cast<double>(weight);
    }
    if (total > 0.0) {
      for (const auto& [block, weight] : interval.weights) {
        const auto dim = static_cast<std::size_t>(
            std::lower_bound(dims->begin(), dims->end(), block) -
            dims->begin());
        v[dim] = static_cast<double>(weight) / total;
      }
    }
    out.push_back(std::move(v));
  }
  return out;
}

double L1Distance(const std::vector<double>& a, const std::vector<double>& b) {
  double d = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) d += std::fabs(a[i] - b[i]);
  return d;
}

}  // namespace

PhasePlan ClusterPhases(const std::vector<BasicBlockVector>& intervals,
                        int max_phases) {
  PhasePlan plan;
  if (intervals.empty() || max_phases <= 0) return plan;
  const std::size_t n = intervals.size();
  const std::size_t k = std::min(static_cast<std::size_t>(max_phases), n);

  std::vector<isa::Addr> dims;
  const std::vector<std::vector<double>> points =
      NormalizeIntervals(intervals, &dims);

  // Farthest-first seeding from interval 0: the next seed is the interval
  // farthest from its nearest existing seed (lowest index on ties).
  std::vector<std::size_t> seeds{0};
  while (seeds.size() < k) {
    std::size_t best = 0;
    double best_dist = -1.0;
    for (std::size_t i = 0; i < n; ++i) {
      double nearest = std::numeric_limits<double>::infinity();
      for (const std::size_t seed : seeds) {
        nearest = std::min(nearest, L1Distance(points[i], points[seed]));
      }
      if (nearest > best_dist) {
        best_dist = nearest;
        best = i;
      }
    }
    if (best_dist <= 0.0) break;  // fewer distinct points than k
    seeds.push_back(best);
  }

  std::vector<std::vector<double>> centroids;
  centroids.reserve(seeds.size());
  for (const std::size_t seed : seeds) centroids.push_back(points[seed]);

  // Lloyd iterations; every step breaks ties toward the lowest index.
  std::vector<int> assignment(n, 0);
  for (int iter = 0; iter < 20; ++iter) {
    bool changed = false;
    for (std::size_t i = 0; i < n; ++i) {
      int best_cluster = 0;
      double best_dist = std::numeric_limits<double>::infinity();
      for (std::size_t c = 0; c < centroids.size(); ++c) {
        const double d = L1Distance(points[i], centroids[c]);
        if (d < best_dist) {
          best_dist = d;
          best_cluster = static_cast<int>(c);
        }
      }
      if (assignment[i] != best_cluster) {
        assignment[i] = best_cluster;
        changed = true;
      }
    }
    if (!changed && iter > 0) break;
    for (std::size_t c = 0; c < centroids.size(); ++c) {
      std::vector<double> mean(dims.size(), 0.0);
      std::size_t members = 0;
      for (std::size_t i = 0; i < n; ++i) {
        if (assignment[i] != static_cast<int>(c)) continue;
        ++members;
        for (std::size_t d = 0; d < mean.size(); ++d) mean[d] += points[i][d];
      }
      if (members == 0) continue;  // keep the old centroid (empty cluster)
      for (double& v : mean) v /= static_cast<double>(members);
      centroids[c] = std::move(mean);
    }
  }

  // Medoid representative per non-empty cluster; clusters keep their
  // seeding order. Empty clusters are dropped, renumbering the rest.
  //
  // Steady-state preference: among members within 10% of the medoid's
  // distance to the centroid — equally representative at clustering
  // resolution — take the LATEST. A phase's early occurrences still carry
  // converging microarchitectural and runtime-optimizer state (caches
  // filling, an adaptive optimizer that has not deployed yet); the latest
  // equally-central member is closest to the phase's steady-state
  // behaviour, which is what the sampled projection multiplies out.
  std::vector<int> remap(centroids.size(), -1);
  for (std::size_t c = 0; c < centroids.size(); ++c) {
    PhaseCluster cluster;
    std::vector<double> dists;
    double best_dist = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < n; ++i) {
      if (assignment[i] != static_cast<int>(c)) continue;
      cluster.members.push_back(static_cast<int>(i));
      const double d = L1Distance(points[i], centroids[c]);
      dists.push_back(d);
      best_dist = std::min(best_dist, d);
    }
    for (std::size_t m = 0; m < cluster.members.size(); ++m) {
      if (dists[m] <= best_dist * 1.10 + 1e-12) {
        cluster.representative = cluster.members[m];  // latest in-band wins
      }
    }
    if (cluster.members.empty()) continue;
    cluster.weight = cluster.members.size();
    remap[c] = static_cast<int>(plan.clusters.size());
    plan.clusters.push_back(std::move(cluster));
  }
  plan.assignment.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    plan.assignment[i] = remap[static_cast<std::size_t>(assignment[i])];
  }
  return plan;
}

}  // namespace cobra::perfmon
