// Per-CPU private cache hierarchy: L1D / L2 / L3, coherent at 128-byte
// (L2/L3 line) granularity, inclusive (L1 ⊆ L2 ⊆ L3). The coherence
// protocol (MESI/MOESI/Dragon/MESIF) is a CoherencePolicy picked by
// MemConfig::protocol; under the default MESI every path below behaves
// exactly as the original MESI-only implementation did.
//
// Itanium 2 idiosyncrasies modelled because COBRA depends on them:
//   * FP loads/stores bypass L1D and are served from L2 (so the DAXPY
//     kernel's ldfd latency ladder is 6 / 12 / ~130 / ~190 cycles);
//   * lfetch is non-binding: it never stalls the core, fills L2+L3 (nt1),
//     and with `.excl` requests the line in Exclusive state (RFO);
//   * ld.bias requests exclusivity on an integer load;
//   * lines being filled carry a `ready_at` cycle — a demand access that
//     arrives before an in-flight prefetch completes stalls only for the
//     remainder (partial prefetch coverage).
//
// The stack is a timing model: functional data lives in MainMemory.
#pragma once

#include <cstdint>

#include "mem/cache_array.h"
#include "mem/coherence.h"
#include "mem/config.h"
#include "obs/trace.h"

namespace cobra::mem {

class CacheStack {
 public:
  CacheStack(CpuId cpu, const MemConfig& cfg);

  void AttachFabric(CoherenceFabric* fabric) { fabric_ = fabric; }

  // Timeline sink for coherence transactions (nullptr disables).
  // FabricRequest only runs while every other core is quiescent (a
  // canonical commit, or the lone running core), one stack at a time.
  void AttachTrace(obs::TraceSink* trace, int trace_pid) {
    trace_ = trace;
    trace_pid_ = trace_pid;
  }

  CpuId cpu() const { return cpu_; }
  const MemConfig& config() const { return cfg_; }

  // Where a demand access was ultimately served from.
  enum class Source : std::uint8_t {
    kL1,
    kL2,
    kL3,
    kMemory,    // plain memory transaction (no other cache involved)
    kCoherent,  // another cache held the line Modified (HITM path)
    kRemote,    // NUMA: crossed the interconnect
  };

  struct AccessResult {
    Cycle latency = 0;
    Source source = Source::kL1;
  };

  // Demand accesses. `fp` routes around L1; `bias` is the ld.bias hint.
  AccessResult Load(Addr addr, int size, bool fp, bool bias, Cycle now);
  AccessResult Store(Addr addr, int size, Cycle now);

  // Non-binding prefetch (lfetch). Never stalls the core.
  void Prefetch(Addr addr, bool excl, Cycle now);

  // --- Fused decision + access ----------------------------------------------
  // The one place that decides whether an access needs the coherence
  // fabric. The execution engine (machine/engine.h) runs core-private
  // segments through these, so that every fabric transaction is committed
  // in canonical (cycle, cpu-id) order. The decision phase is pure (Probe
  // only updates the host-side way hint); if the access would reach the
  // fabric the call returns false with NO simulated side effects, and the
  // caller stops the segment so the engine can commit the full access.
  // Otherwise the commit phase replays the corresponding access's
  // fabric-free path effect-for-effect — same LRU updates, hit/miss counts,
  // fills and writeback counts — so Try* falling back to Load/Store/Prefetch
  // is bit-identical to always calling the full access.
  // Defined inline below the class: the superblock executor calls these for
  // every memory step, so the whole hit path must inline like Probe does.
  bool TryLoad(Addr addr, int size, bool fp, bool bias, Cycle now,
               AccessResult* out);
  bool TryStore(Addr addr, int size, Cycle now, AccessResult* out);
  bool TryPrefetch(Addr addr, bool excl, Cycle now);

  // While set, any fabric transaction from this stack aborts the simulation
  // (the engine sets it around core-private segments; a trip means a Try*
  // decision above fell out of sync with its access path).
  void set_fabric_guard(bool on) { fabric_guard_ = on; }

  // Fabric-initiated snoop of this stack.
  SnoopReply Snoop(Addr line_addr, SnoopType type);

  // --- Introspection (tests, COBRA detectors) ------------------------------
  Mesi LineState(Addr addr) const;     // state in L3 (kI if absent)
  const CoherencePolicy& policy() const { return *policy_; }
  // Non-destructive dirty probe (the fabric's first snoop phase for
  // best-effort exclusive prefetches, and MESIF's forwarder scan).
  bool HoldsDirty(Addr addr) const { return CohDirty(LineState(addr)); }
  bool PresentInL2(Addr addr) const { return l2_.Probe(addr) != nullptr; }
  bool PresentInL1(Addr addr) const { return l1_.Probe(addr) != nullptr; }

  struct Stats {
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t prefetches = 0;
    std::uint64_t prefetch_bus_requests = 0;   // prefetches that missed
    std::uint64_t prefetch_upgrades = 0;       // excl prefetch of an S line
    std::uint64_t l2_writebacks = 0;           // dirty L2 victims (to L3)
    std::uint64_t fabric_writebacks = 0;       // dirty L3 victims (to memory)
    std::uint64_t store_upgrades = 0;          // stores that needed S->M
    std::uint64_t store_updates = 0;           // Dragon: stores that BusUpd'd
    std::uint64_t snoop_downgrades = 0;        // M/E -> S from remote reads
    std::uint64_t snoop_invalidations = 0;     // lines lost to remote writes
    std::uint64_t snoop_updates = 0;           // Dragon: updates received
    std::uint64_t hitm_supplies = 0;           // dirty lines we supplied
    std::uint64_t buffered_stores = 0;         // store-buffer free retires
  };
  const Stats& stats() const { return stats_; }
  const CacheArray& l1() const { return l1_; }
  const CacheArray& l2() const { return l2_; }
  const CacheArray& l3() const { return l3_; }

  // Test-only fault injection: forces the MESI state of an already-cached
  // line in L3 (and L2, keeping the levels in lockstep) without any fabric
  // traffic, so checker tests can seed protocol violations. kI drops the
  // copy outright.
  void TestOnlyCorruptLine(Addr addr, Mesi state) {
    if (auto* line = l3_.Probe(addr)) line->state = state;
    if (auto* line = l2_.Probe(addr)) line->state = state;
  }

  // Mutable L2 access so checker tests can desynchronize a single level.
  CacheArray& TestOnlyL2() { return l2_; }

  // Demand + prefetch miss totals as the Itanium 2 HPM events report them.
  // Coherent write misses (stores to Shared lines that must be re-fetched
  // with ownership) count as L2/L3 misses, as on the hardware.
  std::uint64_t L2Misses() const {
    return l2_.stats().misses + coherent_write_misses_;
  }
  std::uint64_t L3Misses() const {
    return l3_.stats().misses + coherent_write_misses_;
  }

  // Drops all cached state and statistics (between experiments).
  void Reset();

  // Checkpointing: the three tag arrays, demand/coherence statistics and
  // the store-buffer occupancy. The fabric guard is engine scaffolding and
  // is never set between segments, so it is not saved.
  bool Checkpoint(support::StateIO& io);

 private:
  Addr CohLine(Addr addr) const { return l2_.LineAddrOf(addr); }

  // All fabric traffic funnels through these two (guard enforcement).
  // FabricRequest also drains the store buffer: any pending bufferable
  // store-hit cost is charged to this transaction's latency before it
  // commits, so buffering never reorders fabric-visible events.
  FabricResult FabricRequest(BusOp op, Addr line_addr, Cycle now);
  void FabricEvictNotify(Addr line_addr);

  // A store found the line resident but not writable: dispatch on the
  // policy's StoreSharedAction (read-invalidate / upgrade-in-place /
  // update-broadcast). `wait` is any in-flight-fill wait already accrued;
  // `in_l2` says whether the line currently sits in L2 (if not, upgrading
  // actions refill L2 from L3).
  AccessResult StoreToShared(Addr addr, Cycle wait, bool in_l2, Cycle now);

  // Store-buffer fast path: returns true (and counts the store as buffered)
  // if a writable-line store hit may retire without its store_hit_latency.
  bool BufferStoreHit() {
    if (pending_stores_ >= cfg_.store_buffer_entries) return false;
    ++pending_stores_;
    ++stats_.buffered_stores;
    return true;
  }

  // Installs a line into L3 (evicting/writing back as needed) and into L2.
  // Returns the L2 line.
  CacheArray::Line* Fill(Addr addr, Mesi state, Cycle ready_at,
                         bool prefetched, Cycle now);
  void FillL1(Addr addr, Cycle ready_at);
  void SetStateAll(Addr addr, Mesi state);
  void InvalidateAll(Addr addr);
  void EvictVictim(const CacheArray::Line& victim, Cycle now);

  static Source ClassifySource(const FabricResult& r);

  CpuId cpu_;
  const MemConfig cfg_;
  const CoherencePolicy* policy_;
  CoherenceFabric* fabric_ = nullptr;
  obs::TraceSink* trace_ = nullptr;
  int trace_pid_ = 0;
  CacheArray l1_;
  CacheArray l2_;
  CacheArray l3_;
  Stats stats_;
  std::uint64_t coherent_write_misses_ = 0;
  int pending_stores_ = 0;  // store-buffer occupancy (drained on fabric use)
  bool fabric_guard_ = false;
};

// --- Fused decision + access (inline: per-instruction hot path) -------------

inline bool CacheStack::TryLoad(Addr addr, int size, bool fp, bool bias,
                                Cycle now, AccessResult* out) {
  (void)size;
  // Decision phase: pure. L1 hits (integer only) and plain L2/L3 hits stay
  // private; an ld.bias hit on a non-writable L2 line upgrades in the
  // background; a full miss always reaches the fabric.
  CacheArray::Line* l1_line = fp ? nullptr : l1_.Probe(addr);
  CacheArray::Line* l2_line = nullptr;
  CacheArray::Line* l3_line = nullptr;
  if (l1_line == nullptr) {
    l2_line = l2_.Probe(addr);
    if (l2_line != nullptr) {
      if (bias && !CohWritable(l2_line->state) && policy_->bias_upgrades()) {
        return false;  // background ownership upgrade
      }
    } else {
      l3_line = l3_.Probe(addr);
      if (l3_line == nullptr) return false;  // full miss
    }
  }

  // Commit phase: exactly Load()'s fabric-free paths.
  ++stats_.loads;
  if (l1_line != nullptr) {
    l1_.TouchHit(l1_line);
    const Cycle wait = l1_line->ready_at > now ? l1_line->ready_at - now : 0;
    *out = {cfg_.l1_hit_latency + wait, Source::kL1};
    return true;
  }
  if (!fp) l1_.CountMiss();
  if (l2_line != nullptr) {
    l2_.TouchHit(l2_line);
    l2_line->referenced = true;
    if (auto* outer = l3_.Probe(addr)) outer->referenced = true;
    const Cycle wait = l2_line->ready_at > now ? l2_line->ready_at - now : 0;
    if (!fp) FillL1(addr, now + cfg_.l2_hit_latency);
    *out = {cfg_.l2_hit_latency + wait, Source::kL2};
    return true;
  }
  l2_.CountMiss();
  l3_.TouchHit(l3_line);
  l3_line->referenced = true;
  const Cycle wait = l3_line->ready_at > now ? l3_line->ready_at - now : 0;
  CacheArray::Line victim;
  bool victim_valid = false;
  auto* refill =
      l2_.Insert(CohLine(addr), l3_line->state, 0, &victim, &victim_valid);
  if (victim_valid && CohDirty(victim.state)) ++stats_.l2_writebacks;
  refill->referenced = true;
  if (!fp) FillL1(addr, now + cfg_.l3_hit_latency);
  *out = {cfg_.l3_hit_latency + wait, Source::kL3};
  return true;
}

inline bool CacheStack::TryStore(Addr addr, int size, Cycle now,
                                 AccessResult* out) {
  (void)size;
  // Decision phase: pure. Only M/E hits drain locally — every other
  // resident state needs invalidation, upgrade or update traffic first,
  // whichever the protocol prescribes; a miss reads for ownership.
  CacheArray::Line* l2_line = l2_.Probe(addr);
  CacheArray::Line* l3_line = nullptr;
  if (l2_line != nullptr) {
    if (!CohWritable(l2_line->state)) return false;
  } else {
    l3_line = l3_.Probe(addr);
    if (l3_line == nullptr || !CohWritable(l3_line->state)) return false;
  }

  // Commit phase: exactly Store()'s fabric-free paths (M/E hits).
  ++stats_.stores;
  if (l2_line != nullptr) {
    l2_.TouchHit(l2_line);
    l2_line->referenced = true;
    if (auto* outer = l3_.Probe(addr)) outer->referenced = true;
    const Cycle wait = l2_line->ready_at > now ? l2_line->ready_at - now : 0;
    if (l2_line->state == Mesi::kE) SetStateAll(addr, Mesi::kM);
    const Cycle hit_cost = BufferStoreHit() ? 0 : cfg_.store_hit_latency;
    *out = {hit_cost + wait, Source::kL2};
    return true;
  }
  l2_.CountMiss();
  l3_.TouchHit(l3_line);
  l3_line->referenced = true;
  const Cycle wait = l3_line->ready_at > now ? l3_line->ready_at - now : 0;
  SetStateAll(addr, Mesi::kM);
  CacheArray::Line victim;
  bool victim_valid = false;
  auto* refill = l2_.Insert(CohLine(addr), Mesi::kM, 0, &victim, &victim_valid);
  if (victim_valid && CohDirty(victim.state)) ++stats_.l2_writebacks;
  refill->referenced = true;
  *out = {cfg_.l3_hit_latency + wait, Source::kL3};
  return true;
}

inline bool CacheStack::TryPrefetch(Addr addr, bool excl, Cycle now) {
  const Addr line = CohLine(addr);
  // Decision phase: pure. An in-flight fill absorbs the prefetch (MSHR
  // merge); only an .excl upgrade of a previously-dirty Shared line or a
  // full miss reaches the fabric.
  CacheArray::Line* l2_line = l2_.Probe(line);
  CacheArray::Line* l3_line = nullptr;
  const bool excl_rfo = excl && policy_->excl_prefetch_rfo();
  if (l2_line != nullptr) {
    if (l2_line->ready_at <= now && excl_rfo &&
        !CohWritable(l2_line->state) && l2_line->was_dirty_here) {
      return false;
    }
  } else {
    l3_line = l3_.Probe(line);
    if (l3_line == nullptr) return false;
    if (l3_line->ready_at <= now && excl_rfo &&
        !CohWritable(l3_line->state) && l3_line->was_dirty_here) {
      return false;
    }
  }

  // Commit phase: exactly Prefetch()'s fabric-free paths.
  ++stats_.prefetches;
  if (l2_line != nullptr) {
    l2_.TouchHit(l2_line);
    return true;  // present (or fill in flight): nothing else to do
  }
  l2_.CountMiss();
  l3_.TouchHit(l3_line);
  if (l3_line->ready_at > now) return true;  // fill in flight: MSHR merge
  CacheArray::Line victim;
  bool victim_valid = false;
  auto* staged = l2_.Insert(line, l3_line->state, now + cfg_.l3_hit_latency,
                            &victim, &victim_valid);
  if (victim_valid && CohDirty(victim.state)) ++stats_.l2_writebacks;
  staged->prefetched = true;
  staged->referenced = false;
  return true;
}

}  // namespace cobra::mem
