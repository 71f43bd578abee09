// Set-associative tag array with LRU replacement.
//
// Purely a timing/state model: no data is stored (functional state lives in
// MainMemory). Each line carries a MESI state, a `ready_at` cycle (nonzero
// while an in-flight fill — typically a prefetch — has reserved the line but
// the data has not yet arrived), and prefetch-usefulness bookkeeping.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "mem/coherence.h"
#include "support/check.h"
#include "support/simtypes.h"
#include "support/snapshot.h"

namespace cobra::mem {

class CacheArray {
 public:
  struct Line {
    Addr line_addr = 0;     // full line-aligned address (tag + set combined)
    Mesi state = Mesi::kI;
    Cycle ready_at = 0;     // fill completion time (0 = long since ready)
    std::uint64_t lru = 0;
    bool prefetched = false;  // brought in by lfetch...
    bool referenced = false;  // ...and later touched by a demand access
    // Set when a remote read downgrades this cache's Modified copy to
    // Shared. An lfetch.excl that hits such a line may re-acquire
    // exclusivity (the line is part of this thread's *written* working
    // set); read-shared lines never carry the bit, so exclusive prefetch
    // hints cannot steal data this thread only reads.
    bool was_dirty_here = false;
  };

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t dirty_evictions = 0;   // "writebacks" out of this level
    std::uint64_t useless_prefetch_evictions = 0;
  };

  CacheArray(std::size_t size_bytes, std::size_t line_bytes,
             int associativity);

  std::size_t line_bytes() const { return line_bytes_; }
  std::size_t num_sets() const { return sets_; }
  int associativity() const { return assoc_; }

  Addr LineAddrOf(Addr addr) const { return addr & ~(line_bytes_ - 1); }

  // Looks the line up without touching LRU (used by snoops). Returns
  // nullptr on miss. Inline with a per-set way hint: the demand path and
  // the cache stack's fused Try* accesses call this for every memory
  // access.
  Line* Probe(Addr addr) {
    const Addr line_addr = LineAddrOf(addr);
    const std::size_t set = SetOf(addr);
    Line* base = &lines_[set * static_cast<std::size_t>(assoc_)];
    // Way-hint fast path: a line can live in at most one way, so finding
    // it at the hinted way is exactly the scan's answer.
    Line& hinted = base[mru_way_[set]];
    if (hinted.state != Mesi::kI && hinted.line_addr == line_addr) {
      return &hinted;
    }
    for (int way = 0; way < assoc_; ++way) {
      Line& line = base[way];
      if (line.state != Mesi::kI && line.line_addr == line_addr) {
        mru_way_[set] = static_cast<std::uint8_t>(way);
        return &line;
      }
    }
    return nullptr;
  }
  const Line* Probe(Addr addr) const {
    return const_cast<CacheArray*>(this)->Probe(addr);
  }

  // Looks the line up and refreshes LRU on hit.
  Line* Touch(Addr addr) {
    Line* line = Probe(addr);
    if (line != nullptr) {
      line->lru = ++lru_clock_;
      ++stats_.hits;
    } else {
      ++stats_.misses;
    }
    return line;
  }

  // Touch() split apart for callers that already hold a Probe() result
  // (the cache stack's fused Try* accesses): TouchHit refreshes LRU and
  // counts the hit for a line this array returned from Probe; CountMiss
  // records the lookup miss a failed Touch would have counted.
  void TouchHit(Line* line) {
    line->lru = ++lru_clock_;
    ++stats_.hits;
  }
  void CountMiss() { ++stats_.misses; }

  // Inserts (or re-uses) the line, evicting the LRU victim if the set is
  // full. The victim (if any, and valid) is copied to `*victim` and
  // `victim_valid` set. Returns the inserted line.
  Line* Insert(Addr addr, Mesi state, Cycle ready_at, Line* victim,
               bool* victim_valid);

  // Drops the line if present (no writeback here; the stack handles that).
  void Invalidate(Addr addr);

  // Invalidate every line (between experiments).
  void Clear();

  const Stats& stats() const { return stats_; }
  void ResetStats() { stats_ = Stats{}; }

  // Iterates over all valid lines (testing/debug).
  template <typename Fn>
  void ForEachValid(Fn&& fn) const {
    for (const Line& line : lines_) {
      if (line.state != Mesi::kI) fn(line);
    }
  }

  // Geometry is config-derived and must match at restore; the mru_way_
  // lookup hint is host-only and simply reset (any value is correct).
  // `level` ("L1", "L2", "L3") names the array in a refusal.
  bool Checkpoint(support::StateIO& io, std::string_view level) {
    std::uint64_t sets = sets_;
    std::uint32_t assoc = static_cast<std::uint32_t>(assoc_);
    io.U64(sets);
    io.U32(assoc);
    const std::string name(level);
    if (!io.Expect(sets == sets_, name + " sets",
                   static_cast<std::int64_t>(sets),
                   static_cast<std::int64_t>(sets_)) ||
        !io.Expect(assoc == static_cast<std::uint32_t>(assoc_),
                   name + " associativity", assoc, assoc_)) {
      return false;
    }
    const std::string state_name = name + " line state";
    for (Line& line : lines_) {
      io.U64(line.line_addr);
      if (!io.Narrow<std::uint8_t>(line.state, 0,
                                   static_cast<std::int64_t>(Mesi::kSc),
                                   state_name)) {
        return false;
      }
      io.U64(line.ready_at);
      io.U64(line.lru);
      io.Bool(line.prefetched);
      io.Bool(line.referenced);
      io.Bool(line.was_dirty_here);
    }
    io.U64(lru_clock_);
    io.U64(stats_.hits);
    io.U64(stats_.misses);
    io.U64(stats_.evictions);
    io.U64(stats_.dirty_evictions);
    if (!io.U64(stats_.useless_prefetch_evictions)) return false;
    if (io.loading()) std::fill(mru_way_.begin(), mru_way_.end(), 0);
    return true;
  }

 private:
  std::size_t SetOf(Addr addr) const {
    return (addr >> line_shift_) & (sets_ - 1);
  }

  std::size_t line_bytes_;
  int line_shift_;  // log2(line_bytes_): division is too hot for SetOf
  std::size_t sets_;
  int assoc_;
  std::vector<Line> lines_;  // sets_ * assoc_, set-major
  // Per-set most-recently-hit way. A pure host-side lookup hint: Probe
  // checks this way first and only falls back to the full associativity
  // scan on a hint miss, so the ~99%-hit demand path and the fused Try*
  // accesses cost one tag compare instead of `assoc_`. Carries no
  // simulated state — hits find the same unique line with the same
  // LRU/stats effects the scan would.
  std::vector<std::uint8_t> mru_way_;  // sets_ entries
  std::uint64_t lru_clock_ = 0;
  Stats stats_;
};

}  // namespace cobra::mem
