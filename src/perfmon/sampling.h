// perfmon-style sampling driver over the simulated HPM.
//
// Mirrors the structure in Section 3.1 of the paper: a kernel driver
// programs the performance counters and the DEAR latency filter, collects a
// sample every N retired instructions into a per-CPU Kernel Sampling
// Buffer, and "signals" the monitoring thread when a batch is ready; the
// monitoring thread folds the batch straight into its thread profile. The
// paper's copy into a User Sampling Buffer is modelled as simulated cost
// only (CobraConfig::monitor_overhead_cycles), with no host-side buffer.
//
// Each sample carries: sample index, PC, process/thread/processor ids, the
// four performance counters, the eight BTB address registers (four
// source/target pairs), and the latest DEAR record (miss instruction
// address, miss data address, latency).
//
// Delivery discipline: while the execution engine is driving the cores,
// full batches are queued per CPU and handed to the handlers at the next
// quantum boundary (a registered round task), in cpu-id order. The
// handlers feed COBRA's monitoring threads, whose optimizer may rewrite
// the binary image — deferring to quantum boundaries means rewrites only
// happen while every core is quiescent. Without an engine (unit tests
// driving cores by hand), batches deliver inline as the samples are
// collected.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "cpu/core.h"
#include "cpu/hpm.h"
#include "machine/machine.h"
#include "obs/registry.h"
#include "support/simtypes.h"

namespace cobra::perfmon {

struct Sample {
  std::uint64_t index = 0;  // per-CPU monotone sample number
  isa::Addr pc = 0;
  int pid = 0;
  int tid = 0;
  int cpu = 0;
  Cycle timestamp = 0;
  std::array<std::uint64_t, cpu::kNumHpmCounters> counters{};
  std::array<cpu::Btb::Entry, cpu::Btb::kEntries> btb{};
  cpu::Dear::Record dear{};
};

struct SamplingConfig {
  // Sampling period in retired instructions. The paper keeps this long
  // enough that monitoring overhead stays negligible.
  std::uint64_t period_insts = 2000;
  // Counter programming (the coherent-miss detector's default set).
  std::array<cpu::HpmEvent, cpu::kNumHpmCounters> events{
      cpu::HpmEvent::kCpuCycles, cpu::HpmEvent::kL3Misses,
      cpu::HpmEvent::kBusMemory, cpu::HpmEvent::kBusRdHitm};
  // DEAR filter: record loads with latency strictly greater than this.
  // 12 cycles = Itanium 2 L3 hit latency, the paper's first-level filter.
  Cycle dear_latency_threshold = 12;
  // Samples per delivery batch (kernel buffer "overflow" size).
  std::size_t batch_size = 16;
};

class SamplingDriver {
 public:
  // A delivery handler plays the role of the monitoring thread's signal
  // handler: it receives the batch just collected for one CPU.
  using DeliveryHandler = std::function<void(int cpu, std::span<const Sample>)>;

  SamplingDriver(machine::Machine* machine, SamplingConfig config);
  ~SamplingDriver();

  SamplingDriver(const SamplingDriver&) = delete;
  SamplingDriver& operator=(const SamplingDriver&) = delete;

  // Begins sampling `cpu` on behalf of simulated thread `tid`.
  void StartMonitoring(CpuId cpu, int tid, DeliveryHandler handler);

  // Stops sampling a CPU, flushing any partial batch to the handler.
  void StopMonitoring(CpuId cpu);
  void StopAll();

  std::uint64_t TotalSamples() const { return total_samples_; }
  // Batches handed to delivery handlers (the monitoring-thread "signals").
  std::uint64_t TotalBatches() const { return total_batches_; }
  const SamplingConfig& config() const { return config_; }

 private:
  struct PerCpu {
    bool active = false;
    int tid = 0;
    std::uint64_t next_index = 0;
    std::vector<Sample> kernel_buffer;
    // Full batches awaiting quantum-boundary delivery (engine runs only).
    std::vector<std::vector<Sample>> deferred;
    DeliveryHandler handler;
  };

  void CollectSample(cpu::Core& core);
  void Flush(CpuId cpu);
  void DeliverDeferred(CpuId cpu);
  void DrainDeferred();  // the registered round task

  machine::Machine* machine_;
  SamplingConfig config_;
  std::vector<PerCpu> per_cpu_;
  int round_task_id_ = -1;
  std::uint64_t total_samples_ = 0;
  std::uint64_t total_batches_ = 0;
  obs::Registry::Registration metrics_;
};

}  // namespace cobra::perfmon
