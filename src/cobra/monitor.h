// Monitoring thread: one per working thread (Section 3.1).
//
// Receives sample batches from the perfmon driver (the "signal"), copies
// them into its User Sampling Buffer, and updates its thread profile. The
// optimization thread reads the profiles; it never touches the driver.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cobra/profile.h"
#include "perfmon/sampling.h"

namespace cobra::core {

class MonitoringThread {
 public:
  MonitoringThread(int tid, CpuId cpu, Cycle coherent_latency_threshold,
                   std::uint64_t attribution_warmup_samples = 0,
                   std::size_t usb_capacity = 4096)
      : tid_(tid),
        cpu_(cpu),
        usb_capacity_(usb_capacity),
        profile_(coherent_latency_threshold, attribution_warmup_samples) {}

  int tid() const { return tid_; }
  CpuId cpu() const { return cpu_; }

  // Delivery path ("signal handler"): copy the kernel batch into the User
  // Sampling Buffer and fold it into the running profile.
  void Consume(std::span<const perfmon::Sample> batch) {
    for (const perfmon::Sample& sample : batch) {
      if (usb_.size() == usb_capacity_) usb_.erase(usb_.begin());
      usb_.push_back(sample);
      profile_.AddSample(sample);
    }
    ++batches_received_;
  }

  const ThreadProfile& profile() const { return profile_; }
  ThreadProfile& mutable_profile() { return profile_; }
  const std::vector<perfmon::Sample>& user_sampling_buffer() const {
    return usb_;
  }
  std::uint64_t batches_received() const { return batches_received_; }

 private:
  int tid_;
  CpuId cpu_;
  std::size_t usb_capacity_;
  std::vector<perfmon::Sample> usb_;
  ThreadProfile profile_;
  std::uint64_t batches_received_ = 0;
};

}  // namespace cobra::core
