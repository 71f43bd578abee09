// Hardware Performance Monitor model: four selectable event counters, the
// Branch Trace Buffer (last four taken branch source/target pairs), and the
// Data Event Address Register (DEAR) with programmable latency filtering.
//
// These are the three Itanium 2 facilities COBRA is built on (Section 3.1):
// counters track system-wide bottlenecks (cache misses, coherent bus
// events), the BTB lets the trace selector discover loop boundaries from
// infrequent samples, and the DEAR pinpoints the exact loads whose miss
// latencies indicate coherent misses (the two-level filter of Section 4).
#pragma once

#include <array>
#include <cstdint>
#include <functional>

#include "isa/types.h"
#include "support/check.h"
#include "support/simtypes.h"
#include "support/snapshot.h"

namespace cobra::cpu {

// Events a counter can be programmed to track (Itanium 2 selector names).
enum class HpmEvent : std::uint8_t {
  kCpuCycles,
  kInstRetired,
  kL2Misses,
  kL3Misses,
  kBusMemory,            // BUS_MEMORY: data transactions this CPU initiated
  kBusRdHit,             // BUS_RD_HIT: reads snooped clean in another cache
  kBusRdHitm,            // BUS_RD_HITM
  kBusRdInvalAllHitm,    // BUS_RD_INVAL_ALL_HITM
  kBusUpgrades,          // BIL invalidation rounds (S->M upgrades)
  kL2Writebacks,
  kLoadsRetired,
  kStoresRetired,
  kPrefetchesRetired,
  kEventCount,
};

inline constexpr int kNumHpmCounters = 4;

// The HPM reads raw monotone event totals through this interface (the Core
// implements it by combining its own retire/cycle counts with the cache
// stack and fabric statistics).
class HpmSource {
 public:
  virtual ~HpmSource() = default;
  virtual std::uint64_t RawEventValue(HpmEvent event) const = 0;
};

class Hpm {
 public:
  explicit Hpm(const HpmSource* source) : source_(source) {
    COBRA_CHECK(source != nullptr);
  }

  // Programs counter `idx` to track `event` and zeroes it.
  void Select(int idx, HpmEvent event);
  HpmEvent SelectedEvent(int idx) const;

  // Current counter value (raw total minus the value at Select/Reset time).
  std::uint64_t Read(int idx) const;

  // Zeroes all counters without changing their event selection.
  void ResetCounters();

  // Selections and baselines only — the raw totals live in the source
  // (core/cache/fabric counters), which checkpoint separately.
  bool Checkpoint(support::StateIO& io) {
    for (Counter& c : counters_) {
      if (!io.Narrow<std::uint8_t>(
              c.event, 0,
              static_cast<std::int64_t>(HpmEvent::kEventCount) - 1,
              "hpm event")) {
        return false;
      }
      io.U64(c.baseline);
    }
    return io.Ok();
  }

 private:
  struct Counter {
    HpmEvent event = HpmEvent::kCpuCycles;
    std::uint64_t baseline = 0;
  };
  const HpmSource* source_;
  std::array<Counter, kNumHpmCounters> counters_{};
};

// Branch Trace Buffer: a 4-entry ring of (source, target) pairs for the
// last taken branches, exposed as 8 address registers like Itanium 2's.
class Btb {
 public:
  static constexpr int kEntries = 4;

  struct Entry {
    isa::Addr source = 0;
    isa::Addr target = 0;
  };

  void RecordTaken(isa::Addr source, isa::Addr target) {
    ring_[head_] = Entry{source, target};
    head_ = (head_ + 1) % kEntries;
    if (count_ < kEntries) ++count_;
  }

  int count() const { return count_; }

  // Entries ordered oldest -> newest.
  std::array<Entry, kEntries> Snapshot() const;

  void Clear() {
    ring_ = {};
    head_ = 0;
    count_ = 0;
  }

  bool Checkpoint(support::StateIO& io) {
    for (Entry& e : ring_) {
      io.U64(e.source);
      io.U64(e.target);
    }
    return io.Narrow<std::uint32_t>(head_, 0, kEntries - 1, "btb head") &&
           io.Narrow<std::uint32_t>(count_, 0, kEntries, "btb count");
  }

 private:
  std::array<Entry, kEntries> ring_{};
  int head_ = 0;
  int count_ = 0;
};

// Data Event Address Register: captures (instruction address, data address,
// latency) for load misses whose latency meets the programmed threshold.
// The paper programs the threshold to >12 cycles to skip L2-miss/L3-hit
// loads; COBRA's profiler applies a second, higher threshold to separate
// coherent misses from plain memory accesses.
class Dear {
 public:
  struct Record {
    isa::Addr inst_addr = 0;
    isa::Addr data_addr = 0;
    Cycle latency = 0;
    bool valid = false;
  };

  void SetLatencyThreshold(Cycle threshold) { threshold_ = threshold; }
  Cycle latency_threshold() const { return threshold_; }

  // Called by the core on every load; records if latency > threshold.
  void Observe(isa::Addr inst_addr, isa::Addr data_addr, Cycle latency) {
    if (latency <= threshold_) return;
    last_ = Record{inst_addr, data_addr, latency, true};
    ++qualified_count_;
  }

  const Record& last() const { return last_; }
  std::uint64_t qualified_count() const { return qualified_count_; }

  void Clear() {
    last_ = Record{};
    qualified_count_ = 0;
  }

  bool Checkpoint(support::StateIO& io) {
    io.U64(threshold_);
    io.U64(last_.inst_addr);
    io.U64(last_.data_addr);
    io.U64(last_.latency);
    io.Bool(last_.valid);
    return io.U64(qualified_count_);
  }

 private:
  Cycle threshold_ = 0;
  Record last_{};
  std::uint64_t qualified_count_ = 0;
};

}  // namespace cobra::cpu
