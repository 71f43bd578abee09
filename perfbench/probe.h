// Host-speed probe for the host-performance benchmark.
//
// Other tenants of a shared host slow the worker down by up to 2x for tens
// of seconds at a time, and a loaded period can cover a whole run, so the
// pass times of two runs of the same code can differ by far more than any
// bound worth setting. The slow-down is local to the core the worker runs
// on: a thread on another CPU does not see it, and a fixed loop timed
// before and after a pass barely follows it.
//
// The probe measures it where it happens. Start() pins the calling thread
// to the CPU it runs on and starts a probe thread there (a new thread
// inherits the pin). The probe wakes every kPeriod and times one slice of
// fixed work that looks like the simulator to the core: an interpreter
// loop over a set-associative cache model and a 2 MiB memory. The slices
// interleave with the worker on the same core and caches, so a slice takes
// longer when the simulator runs slower. run.py scales the pass's host
// times by a reference slice time over the pass's mean slice time, raised
// to the measured sensitivity of the simulator relative to the probe.
//
// The probe takes about 1.5 % of the core; that share is part of every
// pass, traced or not.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>

namespace perfbench {

class HostProbe {
 public:
  HostProbe();
  ~HostProbe();
  HostProbe(const HostProbe&) = delete;
  HostProbe& operator=(const HostProbe&) = delete;

  // Pins the calling thread to its current CPU and starts the probe on the
  // same CPU. False, with `error` set, if the thread cannot be pinned.
  bool Start(std::string* error);
  // Stops and joins the probe thread. Safe to call more than once.
  void Stop();

  // Mean duration of a slice and the number of slices it is taken over
  // (the first, cold slice is left out). Valid after Stop().
  double MeanSliceSeconds() const;
  std::uint64_t slices() const { return slices_; }

 private:
  class Work;

  void Loop();

  std::unique_ptr<Work> work_;
  std::atomic<bool> stop_{false};
  double busy_s_ = 0.0;
  std::uint64_t slices_ = 0;
  std::thread thread_;  // last: it uses the members above
};

}  // namespace perfbench
