// Snooping front-side bus — the fabric of the 4-way Itanium 2 SMP server.
// The protocol spoken on it (MESI/MOESI/Dragon/MESIF) is the
// CoherencePolicy selected by MemConfig::protocol; MESI (Illinois) is the
// default and reproduces the paper's machine exactly.
//
// Timing: the bus is a single shared resource. Each transaction occupies it
// for `bus_data_occupancy` (data) or `bus_addr_occupancy` (address-only)
// cycles; a transaction issued while the bus is busy queues, and the
// queuing delay is charged to the requester.  This is the mechanism by
// which one thread's useless prefetch traffic slows every other processor
// down — the paper's second motivation for reducing prefetch
// aggressiveness at runtime.
#pragma once

#include <vector>

#include "mem/cache_stack.h"
#include "mem/coherence.h"
#include "mem/config.h"

namespace cobra::mem {

class SnoopBus : public CoherenceFabric {
 public:
  explicit SnoopBus(const MemConfig& cfg);

  void AttachStacks(std::vector<CacheStack*> stacks) override;

  FabricResult Request(CpuId cpu, BusOp op, Addr line_addr,
                       Cycle now) override;

  const BusEventCounts& TotalCounts() const override { return total_; }
  const BusEventCounts& CpuCounts(CpuId cpu) const override {
    return per_cpu_.at(static_cast<std::size_t>(cpu));
  }
  void ResetCounts() override;

  // Cycle at which the bus becomes free (testing / contention probes).
  Cycle free_at() const { return free_at_; }
  // Total cycles requests spent queued behind a busy bus.
  Cycle queue_cycles() const override { return queue_cycles_; }

  bool Checkpoint(support::StateIO& io) override {
    std::uint32_t cpus = static_cast<std::uint32_t>(per_cpu_.size());
    io.U32(cpus);
    if (!io.Expect(cpus == per_cpu_.size(), "bus CPUs", cpus,
                   static_cast<std::int64_t>(per_cpu_.size()))) {
      return false;
    }
    for (BusEventCounts& c : per_cpu_) c.Checkpoint(io);
    total_.Checkpoint(io);
    io.U64(free_at_);
    return io.U64(queue_cycles_);
  }

 private:
  MemConfig cfg_;
  const CoherencePolicy* policy_;
  std::vector<CacheStack*> stacks_;
  std::vector<BusEventCounts> per_cpu_;
  BusEventCounts total_;
  Cycle free_at_ = 0;
  Cycle queue_cycles_ = 0;
};

}  // namespace cobra::mem
