// Monitoring thread: one per working thread (Section 3.1).
//
// Receives sample batches from the perfmon driver (the "signal") and folds
// each sample straight into its thread profile. The optimization thread
// reads the profiles; it never touches the driver. The paper's copy of each
// batch into a User Sampling Buffer has no host-side counterpart here: its
// cost is simulated only, by CobraConfig::monitor_overhead_cycles.
#pragma once

#include <cstdint>
#include <span>

#include "cobra/profile.h"
#include "perfmon/sampling.h"

namespace cobra::core {

class MonitoringThread {
 public:
  MonitoringThread(int tid, CpuId cpu, Cycle coherent_latency_threshold,
                   std::uint64_t attribution_warmup_samples = 0)
      : tid_(tid),
        cpu_(cpu),
        profile_(coherent_latency_threshold, attribution_warmup_samples) {}

  int tid() const { return tid_; }
  CpuId cpu() const { return cpu_; }

  // Delivery path ("signal handler"): fold the kernel batch into the
  // running profile, one AddSample per sample.
  void Consume(std::span<const perfmon::Sample> batch) {
    for (const perfmon::Sample& sample : batch) profile_.AddSample(sample);
    ++batches_received_;
  }

  const ThreadProfile& profile() const { return profile_; }
  ThreadProfile& mutable_profile() { return profile_; }
  std::uint64_t batches_received() const { return batches_received_; }

 private:
  int tid_;
  CpuId cpu_;
  ThreadProfile profile_;
  std::uint64_t batches_received_ = 0;
};

}  // namespace cobra::core
