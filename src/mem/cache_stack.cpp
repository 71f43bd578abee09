#include "mem/cache_stack.h"

#include "support/check.h"

namespace cobra::mem {

CacheStack::CacheStack(CpuId cpu, const MemConfig& cfg)
    : cpu_(cpu),
      cfg_(cfg),
      policy_(&CoherencePolicy::For(cfg.protocol)),
      l1_(cfg.l1.size_bytes, cfg.l1.line_bytes, cfg.l1.associativity),
      l2_(cfg.l2.size_bytes, cfg.l2.line_bytes, cfg.l2.associativity),
      l3_(cfg.l3.size_bytes, cfg.l3.line_bytes, cfg.l3.associativity) {
  COBRA_CHECK_MSG(cfg.l2.line_bytes == cfg.l3.line_bytes,
                  "coherence granularity is the (shared) L2/L3 line size");
  COBRA_CHECK_MSG(cfg.l1.line_bytes <= cfg.l2.line_bytes,
                  "L1 lines must not exceed the coherence line");
}

FabricResult CacheStack::FabricRequest(BusOp op, Addr line_addr, Cycle now) {
  COBRA_CHECK_MSG(!fabric_guard_,
                  "coherence transaction during a core-private segment "
                  "(Try* decision out of sync with the access path)");
  FabricResult r = fabric_->Request(cpu_, op, line_addr, now);
  if (pending_stores_ > 0) {
    // Drain-before-commit: buffered store-hit cost is paid here, before the
    // transaction's result is usable, so the fabric-visible event order is
    // exactly what it would be without the buffer.
    r.latency += static_cast<Cycle>(pending_stores_) * cfg_.store_hit_latency;
    pending_stores_ = 0;
  }
  if (trace_ != nullptr) {
    trace_->Complete(trace_pid_, static_cast<int>(cpu_), "coherence",
                     BusOpName(op), now, r.latency);
  }
  return r;
}

void CacheStack::FabricEvictNotify(Addr line_addr) {
  COBRA_CHECK_MSG(!fabric_guard_,
                  "eviction notification during a core-private segment "
                  "(Try* decision out of sync with the access path)");
  fabric_->EvictNotify(cpu_, line_addr);
}

CacheStack::Source CacheStack::ClassifySource(const FabricResult& r) {
  if (r.snoop == SnoopOutcome::kHitM) return Source::kCoherent;
  if (r.remote) return Source::kRemote;
  return Source::kMemory;
}

void CacheStack::SetStateAll(Addr addr, Mesi state) {
  if (auto* line = l3_.Probe(addr)) line->state = state;
  if (auto* line = l2_.Probe(addr)) line->state = state;
  // L1 lines are state-free copies; presence alone is tracked there.
}

void CacheStack::InvalidateAll(Addr addr) {
  const Addr line = CohLine(addr);
  for (Addr sub = line; sub < line + cfg_.l2.line_bytes;
       sub += cfg_.l1.line_bytes) {
    l1_.Invalidate(sub);
  }
  l2_.Invalidate(line);
  l3_.Invalidate(line);
}

void CacheStack::EvictVictim(const CacheArray::Line& victim, Cycle now) {
  // Inclusion: a line leaving L3 must leave L2 and L1 as well.  If any
  // inner copy is dirtier than the L3 copy that cannot happen here because
  // states are kept in lockstep by SetStateAll.
  for (Addr sub = victim.line_addr;
       sub < victim.line_addr + cfg_.l2.line_bytes;
       sub += cfg_.l1.line_bytes) {
    l1_.Invalidate(sub);
  }
  l2_.Invalidate(victim.line_addr);
  if (CohDirty(victim.state)) {
    // M, O and Sm victims all carry data newer than memory.
    ++stats_.fabric_writebacks;
    FabricRequest(BusOp::kWriteback, victim.line_addr, now);
  } else {
    FabricEvictNotify(victim.line_addr);
  }
}

CacheArray::Line* CacheStack::Fill(Addr addr, Mesi state, Cycle ready_at,
                                   bool prefetched, Cycle now) {
  const Addr line = CohLine(addr);
  CacheArray::Line victim;
  bool victim_valid = false;

  // L3 first (inclusive outer level).
  auto* l3_line = l3_.Insert(line, state, ready_at, &victim, &victim_valid);
  if (victim_valid) EvictVictim(victim, now);
  l3_line->prefetched = prefetched;
  l3_line->referenced = !prefetched;

  // Then L2. An L2 victim still resides in L3, so a dirty victim is only an
  // internal (L2->L3) writeback, which Itanium 2 counts as an L2 writeback.
  auto* l2_line = l2_.Insert(line, state, ready_at, &victim, &victim_valid);
  if (victim_valid && CohDirty(victim.state)) ++stats_.l2_writebacks;
  l2_line->prefetched = prefetched;
  l2_line->referenced = !prefetched;
  return l2_line;
}

void CacheStack::FillL1(Addr addr, Cycle ready_at) {
  CacheArray::Line victim;
  bool victim_valid = false;
  // L1 is write-through: victims are always clean, nothing to do with them.
  l1_.Insert(l1_.LineAddrOf(addr), Mesi::kS, ready_at, &victim, &victim_valid);
}

CacheStack::AccessResult CacheStack::Load(Addr addr, int size, bool fp,
                                          bool bias, Cycle now) {
  (void)size;
  ++stats_.loads;
  COBRA_CHECK(fabric_ != nullptr);

  // L1 (integer loads only; FP bypasses).
  if (!fp) {
    if (auto* line = l1_.Touch(addr)) {
      const Cycle wait = line->ready_at > now ? line->ready_at - now : 0;
      return {cfg_.l1_hit_latency + wait, Source::kL1};
    }
  }

  // L2.
  if (auto* line = l2_.Touch(addr)) {
    line->referenced = true;
    if (auto* outer = l3_.Probe(addr)) outer->referenced = true;
    const Cycle wait = line->ready_at > now ? line->ready_at - now : 0;
    if (!fp) FillL1(addr, now + cfg_.l2_hit_latency);
    if (bias && !CohWritable(line->state) && policy_->bias_upgrades()) {
      // ld.bias on a shared line: upgrade in the background. A dirty-shared
      // copy (MOESI O) keeps its data and becomes M; clean copies land in E.
      const Mesi old = line->state;
      const FabricResult r =
          FabricRequest(BusOp::kUpgrade, CohLine(addr), now);
      SetStateAll(addr, CohDirty(old)            ? Mesi::kM
                        : r.grant == Mesi::kI    ? old
                                                 : Mesi::kE);
    }
    return {cfg_.l2_hit_latency + wait, Source::kL2};
  }

  // L3.
  if (auto* line = l3_.Touch(addr)) {
    line->referenced = true;
    const Cycle wait = line->ready_at > now ? line->ready_at - now : 0;
    // Refill L2 from L3 (state follows the L3 copy).
    CacheArray::Line victim;
    bool victim_valid = false;
    auto* l2_line = l2_.Insert(CohLine(addr), line->state, 0, &victim,
                               &victim_valid);
    if (victim_valid && CohDirty(victim.state)) ++stats_.l2_writebacks;
    l2_line->referenced = true;
    if (!fp) FillL1(addr, now + cfg_.l3_hit_latency);
    return {cfg_.l3_hit_latency + wait, Source::kL3};
  }

  // Miss: go to the fabric. Under an update-based protocol there is no
  // read-for-ownership; biased loads miss like plain ones.
  const BusOp op =
      bias && policy_->bias_upgrades() ? BusOp::kReadExcl : BusOp::kRead;
  const FabricResult r = FabricRequest(op, CohLine(addr), now);
  Fill(addr, r.grant, now + r.latency, /*prefetched=*/false, now);
  if (!fp) FillL1(addr, now + r.latency);
  return {r.latency, ClassifySource(r)};
}

CacheStack::AccessResult CacheStack::StoreToShared(Addr addr, Cycle wait,
                                                   bool in_l2, Cycle now) {
  auto Charge = [&](Cycle bus_latency) {
    return cfg_.store_hit_latency +
           static_cast<Cycle>(static_cast<double>(bus_latency) *
                              cfg_.store_stall_fraction);
  };
  const Addr line = CohLine(addr);

  // Upgrading actions keep the line resident; if it only sits in L3, refill
  // L2 exactly as the writable L3-hit path does.
  auto RefillL2 = [&](Mesi state) {
    if (in_l2) return;
    CacheArray::Line victim;
    bool victim_valid = false;
    auto* l2_line = l2_.Insert(line, state, 0, &victim, &victim_valid);
    if (victim_valid && CohDirty(victim.state)) ++stats_.l2_writebacks;
    l2_line->referenced = true;
  };

  switch (policy_->store_shared_action()) {
    case StoreSharedAction::kReadInvalidate: {
      // Itanium 2 treats a store to a Shared line as an L2 write miss: the
      // line is re-fetched with a full read-invalidate transaction (this is
      // the "coherent L2 write misses lead to L3 misses" behaviour the
      // paper describes). Drop our copy and take the miss path.
      ++stats_.store_upgrades;
      ++coherent_write_misses_;
      InvalidateAll(addr);
      const FabricResult r = FabricRequest(BusOp::kReadExcl, line, now);
      Fill(addr, Mesi::kM, now + Charge(r.latency), /*prefetched=*/false,
           now);
      return {Charge(r.latency) + wait,
              r.remote ? Source::kRemote : Source::kCoherent};
    }
    case StoreSharedAction::kUpgrade: {
      // MOESI: invalidate the other copies in place — our data (S or O)
      // stays resident, so this is an upgrade round, not a write miss.
      ++stats_.store_upgrades;
      const FabricResult r = FabricRequest(BusOp::kUpgrade, line, now);
      SetStateAll(addr, Mesi::kM);
      RefillL2(Mesi::kM);
      return {Charge(r.latency) + wait,
              r.remote ? Source::kRemote : Source::kCoherent};
    }
    case StoreSharedAction::kUpdate: {
      // Dragon: broadcast the new data; remote copies stay valid and
      // clean-shared. We end up Sm (sharers remain) or M (last copy).
      ++stats_.store_updates;
      const FabricResult r = FabricRequest(BusOp::kUpdate, line, now);
      SetStateAll(addr, r.grant);
      RefillL2(r.grant);
      return {Charge(r.latency) + wait,
              r.remote ? Source::kRemote : Source::kCoherent};
    }
  }
  return {cfg_.store_hit_latency + wait, Source::kL2};  // unreachable
}

CacheStack::AccessResult CacheStack::Store(Addr addr, int size, Cycle now) {
  (void)size;
  ++stats_.stores;
  COBRA_CHECK(fabric_ != nullptr);

  auto Charge = [&](Cycle bus_latency) {
    return cfg_.store_hit_latency +
           static_cast<Cycle>(static_cast<double>(bus_latency) *
                              cfg_.store_stall_fraction);
  };

  // L2 (stores allocate at L2; L1 is write-through no-write-allocate).
  if (auto* line = l2_.Touch(addr)) {
    line->referenced = true;
    if (auto* outer = l3_.Probe(addr)) outer->referenced = true;
    const Cycle wait = line->ready_at > now ? line->ready_at - now : 0;
    if (CohWritable(line->state)) {
      if (line->state == Mesi::kE) SetStateAll(addr, Mesi::kM);
      const Cycle hit_cost = BufferStoreHit() ? 0 : cfg_.store_hit_latency;
      return {hit_cost + wait, Source::kL2};
    }
    return StoreToShared(addr, wait, /*in_l2=*/true, now);
  }

  // L3.
  if (auto* line = l3_.Touch(addr)) {
    line->referenced = true;
    const Cycle wait = line->ready_at > now ? line->ready_at - now : 0;
    if (!CohWritable(line->state)) {
      return StoreToShared(addr, wait, /*in_l2=*/false, now);
    }
    SetStateAll(addr, Mesi::kM);
    CacheArray::Line victim;
    bool victim_valid = false;
    auto* l2_line =
        l2_.Insert(CohLine(addr), Mesi::kM, 0, &victim, &victim_valid);
    if (victim_valid && CohDirty(victim.state)) ++stats_.l2_writebacks;
    l2_line->referenced = true;
    return {cfg_.l3_hit_latency + wait, Source::kL3};
  }

  // Miss. Invalidation protocols read for ownership; Dragon has no RFO —
  // read the line, then broadcast the update if other copies were found.
  if (policy_->store_shared_action() == StoreSharedAction::kUpdate) {
    const FabricResult r = FabricRequest(BusOp::kRead, CohLine(addr), now);
    Fill(addr, r.grant, now + Charge(r.latency), /*prefetched=*/false, now);
    if (!CohWritable(r.grant)) {
      ++stats_.store_updates;
      const FabricResult u =
          FabricRequest(BusOp::kUpdate, CohLine(addr), now);
      SetStateAll(addr, u.grant);
      return {Charge(r.latency + u.latency), ClassifySource(r)};
    }
    SetStateAll(addr, Mesi::kM);
    return {Charge(r.latency), ClassifySource(r)};
  }
  const FabricResult r =
      FabricRequest(BusOp::kReadExcl, CohLine(addr), now);
  Fill(addr, Mesi::kM, now + Charge(r.latency), /*prefetched=*/false, now);
  return {Charge(r.latency), ClassifySource(r)};
}

void CacheStack::Prefetch(Addr addr, bool excl, Cycle now) {
  ++stats_.prefetches;
  COBRA_CHECK(fabric_ != nullptr);
  const Addr line = CohLine(addr);

  // lfetch.excl installs the line dirty on Itanium 2 (see MemConfig).
  const Mesi excl_state =
      cfg_.excl_prefetch_installs_dirty ? Mesi::kM : Mesi::kE;
  // Under an update-based protocol there is no RFO: `.excl` degrades to a
  // plain prefetch (no upgrades, no exclusive hints on the fabric).
  const bool excl_rfo = excl && policy_->excl_prefetch_rfo();

  // Already in L2?
  if (auto* l2_line = l2_.Touch(line)) {
    // A fill still in flight: the prefetch merges into the outstanding
    // request (MSHR behaviour) — in particular an .excl prefetch must not
    // upgrade a line whose shared fallback data has not even arrived yet.
    if (l2_line->ready_at > now) return;
    if (excl_rfo && !CohWritable(l2_line->state) && l2_line->was_dirty_here) {
      ++stats_.prefetch_upgrades;
      const Mesi old = l2_line->state;
      FabricRequest(BusOp::kUpgrade, line, now);
      SetStateAll(line, CohDirty(old) ? Mesi::kM : excl_state);
    }
    return;
  }

  // In L3 only: stage into L2.
  if (auto* l3_line = l3_.Touch(line)) {
    if (l3_line->ready_at > now) return;  // fill in flight: MSHR merge
    Mesi state = l3_line->state;
    if (excl_rfo && !CohWritable(state) && l3_line->was_dirty_here) {
      ++stats_.prefetch_upgrades;
      FabricRequest(BusOp::kUpgrade, line, now);
      state = CohDirty(state) ? Mesi::kM : excl_state;
      l3_line->state = state;
    }
    CacheArray::Line victim;
    bool victim_valid = false;
    auto* l2_line = l2_.Insert(line, state, now + cfg_.l3_hit_latency, &victim,
                               &victim_valid);
    if (victim_valid && CohDirty(victim.state)) ++stats_.l2_writebacks;
    l2_line->prefetched = true;
    l2_line->referenced = false;
    return;
  }

  // Full miss: issue the bus transaction but do not stall the core.
  ++stats_.prefetch_bus_requests;
  const BusOp op = excl_rfo ? BusOp::kReadExclHint : BusOp::kRead;
  const FabricResult r = FabricRequest(op, line, now);
  // A best-effort exclusive prefetch may come back shared (hint not
  // honoured against a dirty remote line); install what was granted.
  const Mesi grant =
      excl_rfo && r.grant == Mesi::kE ? excl_state : r.grant;
  Fill(line, grant, now + r.latency, /*prefetched=*/true, now);
}

SnoopReply CacheStack::Snoop(Addr line_addr, SnoopType type) {
  auto* line = l3_.Probe(line_addr);
  if (line == nullptr) return SnoopReply::kMiss;

  const bool was_dirty = CohDirty(line->state);
  if (type == SnoopType::kRead) {
    // Remote read: move to the protocol's post-read state (S under MESI;
    // MOESI keeps dirty data as O, Dragon as Sm, MESIF demotes F to S). A
    // dirty line is supplied cache-to-cache; whether memory is also
    // updated is the fabric's call (MESI/MESIF write back, MOESI/Dragon
    // keep the dirty owner responsible).
    const Mesi next = policy_->SnoopReadNext(line->state);
    if (next != line->state) ++stats_.snoop_downgrades;
    if (was_dirty) {
      ++stats_.hitm_supplies;
      line->was_dirty_here = true;  // our written line, now shared
      if (auto* inner = l2_.Probe(line_addr)) inner->was_dirty_here = true;
    }
    SetStateAll(line_addr, next);
    return was_dirty ? SnoopReply::kHitM : SnoopReply::kHit;
  }

  if (type == SnoopType::kUpdate) {
    // Dragon BusUpd: accept the updater's data; any copy here — including
    // a previous Sm handing ownership over — is now clean-shared.
    ++stats_.snoop_updates;
    SetStateAll(line_addr, policy_->SnoopUpdateNext(line->state));
    return SnoopReply::kHit;
  }

  // Invalidate.
  ++stats_.snoop_invalidations;
  if (was_dirty) ++stats_.hitm_supplies;
  InvalidateAll(line_addr);
  return was_dirty ? SnoopReply::kHitM : SnoopReply::kHit;
}

Mesi CacheStack::LineState(Addr addr) const {
  const auto* line = l3_.Probe(addr);
  return line != nullptr ? line->state : Mesi::kI;
}

void CacheStack::Reset() {
  l1_.Clear();
  l2_.Clear();
  l3_.Clear();
  l1_.ResetStats();
  l2_.ResetStats();
  l3_.ResetStats();
  stats_ = Stats{};
  coherent_write_misses_ = 0;
  pending_stores_ = 0;
}

bool CacheStack::Checkpoint(support::StateIO& io) {
  if (!l1_.Checkpoint(io, "L1") || !l2_.Checkpoint(io, "L2") ||
      !l3_.Checkpoint(io, "L3")) {
    return false;
  }
  io.U64(stats_.loads);
  io.U64(stats_.stores);
  io.U64(stats_.prefetches);
  io.U64(stats_.prefetch_bus_requests);
  io.U64(stats_.prefetch_upgrades);
  io.U64(stats_.l2_writebacks);
  io.U64(stats_.fabric_writebacks);
  io.U64(stats_.store_upgrades);
  io.U64(stats_.store_updates);
  io.U64(stats_.snoop_downgrades);
  io.U64(stats_.snoop_invalidations);
  io.U64(stats_.snoop_updates);
  io.U64(stats_.hitm_supplies);
  io.U64(stats_.buffered_stores);
  io.U64(coherent_write_misses_);
  return io.Narrow<std::uint32_t>(pending_stores_, 0,
                                  cfg_.store_buffer_entries,
                                  "store buffer occupancy");
}

}  // namespace cobra::mem
