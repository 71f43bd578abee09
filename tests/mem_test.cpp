// Memory-system tests: main memory + first-touch pages, cache arrays, the
// MESI protocol over the snooping bus, the NUMA directory, prefetch
// semantics (including .excl), inclusion, writebacks, and bus contention.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "mem/cache_array.h"
#include "mem/cache_stack.h"
#include "mem/config.h"
#include "mem/directory.h"
#include "mem/main_memory.h"
#include "mem/snoop_bus.h"
#include "support/rng.h"
#include "support/snapshot.h"

namespace cobra::mem {
namespace {

// Everything a checkpoint carries: every line of every level (state, fill
// time, LRU stamp, prefetch bits), the L1/L2/L3 and CacheStack::Stats
// counters, coherent write misses and the store-buffer occupancy (or, for a
// fabric, its per-CPU event counts and occupancy state).
template <typename T>
std::vector<std::uint8_t> StateBlob(T& component) {
  support::StateWriter w;
  component.Checkpoint(w);
  return w.Finish();
}

// --- MainMemory ------------------------------------------------------------

TEST(MainMemory, ReadWriteRoundTrip) {
  MainMemory memory(1 << 20);
  memory.Write(0x100, 8, 0x1122334455667788ULL);
  EXPECT_EQ(memory.Read(0x100, 8), 0x1122334455667788ULL);
  EXPECT_EQ(memory.Read(0x100, 4), 0x55667788ULL);
  EXPECT_EQ(memory.Read(0x104, 4), 0x11223344ULL);
  memory.WriteDouble(0x200, 3.25);
  EXPECT_EQ(memory.ReadDouble(0x200), 3.25);
}

TEST(MainMemory, OutOfRangeAborts) {
  MainMemory memory(4096);
  EXPECT_DEATH(memory.Read(4095, 8), "out of simulated memory");
}

TEST(MainMemory, FirstTouchAssignsHome) {
  MainMemory memory(1 << 20, 16 * 1024);
  EXPECT_EQ(memory.HomeNode(0x100), -1);
  EXPECT_EQ(memory.TouchPage(0x100, 2), 2);
  EXPECT_EQ(memory.TouchPage(0x100, 3), 2);  // already homed
  EXPECT_EQ(memory.HomeNode(0x3fff), 2);     // same 16K page
  EXPECT_EQ(memory.HomeNode(0x4000), -1);    // next page untouched
}

TEST(MainMemory, PlaceRangePins) {
  MainMemory memory(1 << 20, 16 * 1024);
  memory.PlaceRange(0x4000, 0xc000, 1);
  EXPECT_EQ(memory.HomeNode(0x4000), 1);
  EXPECT_EQ(memory.HomeNode(0xbfff), 1);
  EXPECT_EQ(memory.TouchPage(0x4000, 0), 1);
}

// --- CacheArray -----------------------------------------------------------

TEST(CacheArray, HitsAndLru) {
  CacheArray cache(1024, 128, 2);  // 4 sets x 2 ways
  bool victim_valid = false;
  CacheArray::Line victim;
  cache.Insert(0x0000, Mesi::kE, 0, &victim, &victim_valid);
  EXPECT_FALSE(victim_valid);
  cache.Insert(0x0800, Mesi::kE, 0, &victim, &victim_valid);  // same set 0
  EXPECT_FALSE(victim_valid);
  EXPECT_NE(cache.Touch(0x0000), nullptr);  // refresh LRU of first line
  cache.Insert(0x1000, Mesi::kE, 0, &victim, &victim_valid);  // set 0 again
  ASSERT_TRUE(victim_valid);
  EXPECT_EQ(victim.line_addr, 0x0800u);  // LRU victim
  EXPECT_NE(cache.Probe(0x0000), nullptr);
  EXPECT_EQ(cache.Probe(0x0800), nullptr);
}

TEST(CacheArray, DirtyEvictionCounted) {
  CacheArray cache(256, 128, 1);  // 2 sets, direct-mapped
  bool victim_valid = false;
  CacheArray::Line victim;
  cache.Insert(0x0000, Mesi::kM, 0, &victim, &victim_valid);
  cache.Insert(0x0100, Mesi::kE, 0, &victim, &victim_valid);  // evicts set 0
  ASSERT_TRUE(victim_valid);
  EXPECT_EQ(victim.state, Mesi::kM);
  EXPECT_EQ(cache.stats().dirty_evictions, 1u);
}

TEST(CacheArray, UselessPrefetchEvictionCounted) {
  CacheArray cache(256, 128, 1);
  bool victim_valid = false;
  CacheArray::Line victim;
  auto* line = cache.Insert(0x0000, Mesi::kS, 0, &victim, &victim_valid);
  line->prefetched = true;
  line->referenced = false;
  cache.Insert(0x0100, Mesi::kE, 0, &victim, &victim_valid);
  EXPECT_EQ(cache.stats().useless_prefetch_evictions, 1u);
}

// --- Test fixture: N-CPU system over a snooping bus ------------------------

class SmpFixture : public ::testing::Test {
 protected:
  void Build(int cpus, int store_buffer_entries = 0) {
    cfg_ = ItaniumSmpConfig();
    cfg_.memory_bytes = 1 << 22;
    cfg_.store_buffer_entries = store_buffer_entries;
    bus_ = std::make_unique<SnoopBus>(cfg_);
    std::vector<CacheStack*> raw;
    for (int i = 0; i < cpus; ++i) {
      stacks_.push_back(std::make_unique<CacheStack>(i, cfg_));
      stacks_.back()->AttachFabric(bus_.get());
      raw.push_back(stacks_.back().get());
    }
    bus_->AttachStacks(raw);
  }

  CacheStack& stack(int i) { return *stacks_[static_cast<std::size_t>(i)]; }

  MemConfig cfg_;
  std::unique_ptr<SnoopBus> bus_;
  std::vector<std::unique_ptr<CacheStack>> stacks_;
};

TEST_F(SmpFixture, ColdLoadGetsExclusiveAndMemoryLatency) {
  Build(2);
  const auto result = stack(0).Load(0x1000, 8, false, false, 0);
  EXPECT_EQ(result.source, CacheStack::Source::kMemory);
  EXPECT_GE(result.latency, cfg_.memory_latency);
  EXPECT_EQ(stack(0).LineState(0x1000), Mesi::kE);
  EXPECT_EQ(bus_->TotalCounts().bus_memory, 1u);
}

TEST_F(SmpFixture, SecondLoadHitsL1ThenL2) {
  Build(1);
  stack(0).Load(0x1000, 8, false, false, 0);
  // Integer reload: L1 hit.
  auto r = stack(0).Load(0x1000, 8, false, false, 1000);
  EXPECT_EQ(r.source, CacheStack::Source::kL1);
  EXPECT_EQ(r.latency, cfg_.l1_hit_latency);
  // FP load bypasses L1: L2 hit.
  r = stack(0).Load(0x1000, 8, true, false, 2000);
  EXPECT_EQ(r.source, CacheStack::Source::kL2);
  EXPECT_EQ(r.latency, cfg_.l2_hit_latency);
}

TEST_F(SmpFixture, ReadSharingDowngradesToShared) {
  Build(2);
  stack(0).Load(0x1000, 8, false, false, 0);
  EXPECT_EQ(stack(0).LineState(0x1000), Mesi::kE);
  const auto r = stack(1).Load(0x1000, 8, false, false, 1000);
  EXPECT_EQ(stack(0).LineState(0x1000), Mesi::kS);
  EXPECT_EQ(stack(1).LineState(0x1000), Mesi::kS);
  EXPECT_EQ(r.source, CacheStack::Source::kMemory);  // clean snoop hit
  EXPECT_EQ(bus_->TotalCounts().bus_rd_hit, 1u);
}

TEST_F(SmpFixture, ReadOfModifiedLineIsCoherentMiss) {
  Build(2);
  stack(0).Store(0x1000, 8, 0);
  EXPECT_EQ(stack(0).LineState(0x1000), Mesi::kM);
  const auto r = stack(1).Load(0x1000, 8, false, false, 1000);
  EXPECT_EQ(r.source, CacheStack::Source::kCoherent);
  EXPECT_GE(r.latency, cfg_.hitm_latency);
  EXPECT_EQ(stack(0).LineState(0x1000), Mesi::kS);
  EXPECT_EQ(stack(1).LineState(0x1000), Mesi::kS);
  EXPECT_EQ(bus_->TotalCounts().bus_rd_hitm, 1u);
}

TEST_F(SmpFixture, StoreToSharedLineIsCoherentWriteMiss) {
  Build(2);
  stack(0).Load(0x1000, 8, false, false, 0);
  stack(1).Load(0x1000, 8, false, false, 100);  // both Shared now
  const auto l3_misses_before = stack(0).L3Misses();
  const auto r = stack(0).Store(0x1000, 8, 1000);
  EXPECT_EQ(stack(0).LineState(0x1000), Mesi::kM);
  EXPECT_EQ(stack(1).LineState(0x1000), Mesi::kI);  // invalidated
  // Itanium 2: the store to a Shared line is a full read-invalidate (an L2
  // write miss that also counts as an L3 miss), not an address-only BIL.
  EXPECT_EQ(bus_->TotalCounts().bus_upgrades, 0u);
  EXPECT_EQ(stack(0).stats().store_upgrades, 1u);
  EXPECT_EQ(stack(0).L3Misses(), l3_misses_before + 1);
  EXPECT_GE(r.latency, cfg_.memory_latency);
}

TEST_F(SmpFixture, StoreToExclusiveIsSilent) {
  Build(2);
  stack(0).Load(0x1000, 8, false, false, 0);
  const auto before = bus_->TotalCounts().bus_memory +
                      bus_->TotalCounts().bus_upgrades;
  const auto r = stack(0).Store(0x1000, 8, 1000);
  EXPECT_EQ(stack(0).LineState(0x1000), Mesi::kM);
  EXPECT_EQ(r.latency, cfg_.store_hit_latency);
  EXPECT_EQ(bus_->TotalCounts().bus_memory + bus_->TotalCounts().bus_upgrades,
            before);
}

// Named for the probe memo it once tested; the name stays so test history
// matches by name. A line invalidated by a remote store between two guarded
// segments makes the next TryLoad decline, leaving the stack untouched.
TEST_F(SmpFixture, ProbeMemoGenerationWrapClearsStaleEntries) {
  Build(2, /*store_buffer_entries=*/2);
  CacheStack& s = stack(0);
  s.Load(0x1000, 8, false, false, 0);  // line Exclusive in CPU0
  s.Load(0x2000, 8, false, false, 0);  // a second private line

  // First guarded segment: both accesses stay private, and the store to
  // the Exclusive line is buffered.
  CacheStack::AccessResult r;
  s.set_fabric_guard(true);
  ASSERT_TRUE(s.TryLoad(0x1000, 8, false, false, 500, &r));
  ASSERT_TRUE(s.TryStore(0x2000, 8, 510, &r));
  s.set_fabric_guard(false);
  ASSERT_EQ(s.stats().buffered_stores, 1u);

  // Between segments a remote store invalidates the line.
  stack(1).Store(0x1000, 8, 1000);
  ASSERT_EQ(s.LineState(0x1000), Mesi::kI);

  // Next guarded segment: the load needs the fabric again, and declining
  // it changes no stat, no line and not the store-buffer occupancy.
  const std::vector<std::uint8_t> before = StateBlob(s);
  const CacheStack::Stats stats_before = s.stats();
  s.set_fabric_guard(true);
  EXPECT_FALSE(s.TryLoad(0x1000, 8, false, false, 2000, &r));
  EXPECT_FALSE(s.TryLoad(0x1000, 8, /*fp=*/true, false, 2000, &r));
  s.set_fabric_guard(false);
  EXPECT_EQ(s.stats().loads, stats_before.loads);
  EXPECT_EQ(s.stats().buffered_stores, stats_before.buffered_stores);
  EXPECT_EQ(s.LineState(0x1000), Mesi::kI);
  EXPECT_EQ(s.LineState(0x2000), Mesi::kM);
  EXPECT_TRUE(StateBlob(s) == before);

  // The full access the engine then commits pays the still-buffered store.
  const auto full = s.Load(0x1000, 8, false, false, 2000);
  EXPECT_EQ(full.source, CacheStack::Source::kCoherent);
  EXPECT_GE(full.latency, cfg_.hitm_latency + cfg_.store_hit_latency);
}

TEST_F(SmpFixture, RfoOfModifiedLineCountsInvalHitm) {
  Build(2);
  stack(0).Store(0x1000, 8, 0);
  stack(1).Store(0x1000, 8, 1000);  // cold in CPU1: RFO hits M in CPU0
  EXPECT_EQ(stack(0).LineState(0x1000), Mesi::kI);
  EXPECT_EQ(stack(1).LineState(0x1000), Mesi::kM);
  EXPECT_EQ(bus_->TotalCounts().bus_rd_inval_all_hitm, 1u);
}

TEST_F(SmpFixture, PrefetchInstallsSharedOrExclusive) {
  Build(2);
  stack(0).Prefetch(0x1000, /*excl=*/false, 0);
  EXPECT_EQ(stack(0).LineState(0x1000), Mesi::kE);  // nobody else had it
  stack(1).Prefetch(0x1000, /*excl=*/false, 100);
  EXPECT_EQ(stack(0).LineState(0x1000), Mesi::kS);
  EXPECT_EQ(stack(1).LineState(0x1000), Mesi::kS);
}

TEST_F(SmpFixture, ExclPrefetchInvalidatesOtherCopies) {
  Build(2);
  stack(0).Load(0x1000, 8, false, false, 0);
  stack(1).Prefetch(0x1000, /*excl=*/true, 100);
  EXPECT_EQ(stack(0).LineState(0x1000), Mesi::kI);
  EXPECT_EQ(stack(1).LineState(0x1000), Mesi::kE);
  // The later store on CPU1 is then silent.
  const auto upgrades_before = bus_->TotalCounts().bus_upgrades;
  stack(1).Store(0x1000, 8, 200);
  EXPECT_EQ(bus_->TotalCounts().bus_upgrades, upgrades_before);
}

TEST_F(SmpFixture, ExclPrefetchReacquiresOwnWrittenLine) {
  Build(2);
  // CPU0 wrote the line; CPU1's read downgraded it to Shared. An exclusive
  // prefetch hint may re-acquire it (it is part of CPU0's written set).
  stack(0).Store(0x1000, 8, 0);
  stack(1).Load(0x1000, 8, false, false, 100);  // HITM: S in both
  stack(0).Prefetch(0x1000, /*excl=*/true, 2000);
  EXPECT_EQ(stack(0).LineState(0x1000), Mesi::kE);
  EXPECT_EQ(stack(1).LineState(0x1000), Mesi::kI);
  EXPECT_EQ(stack(0).stats().prefetch_upgrades, 1u);
}

TEST_F(SmpFixture, ExclPrefetchDoesNotStealReadSharedLines) {
  Build(2);
  // Both CPUs only ever read the line: the exclusive hint must not
  // invalidate the other reader's copy (read-shared data is not a
  // store-bound stream).
  stack(0).Load(0x1000, 8, false, false, 0);
  stack(1).Load(0x1000, 8, false, false, 100);  // S in both
  stack(0).Prefetch(0x1000, /*excl=*/true, 2000);
  EXPECT_EQ(stack(0).LineState(0x1000), Mesi::kS);
  EXPECT_EQ(stack(1).LineState(0x1000), Mesi::kS);
  EXPECT_EQ(stack(0).stats().prefetch_upgrades, 0u);
}

TEST_F(SmpFixture, ExclPrefetchDirtyInstallAblation) {
  auto cfg = ItaniumSmpConfig();
  cfg.excl_prefetch_installs_dirty = true;
  cfg.memory_bytes = 1 << 22;
  cfg_ = cfg;
  bus_ = std::make_unique<SnoopBus>(cfg_);
  stacks_.push_back(std::make_unique<CacheStack>(0, cfg_));
  stacks_.back()->AttachFabric(bus_.get());
  bus_->AttachStacks({stacks_.back().get()});
  stack(0).Prefetch(0x1000, /*excl=*/true, 0);
  EXPECT_EQ(stack(0).LineState(0x1000), Mesi::kM);
}

TEST_F(SmpFixture, PrefetchedLineStallsOnlyForRemainder) {
  Build(1);
  stack(0).Prefetch(0x1000, false, 0);  // ready at ~memory_latency
  // Demand load shortly after: waits the remainder, not the full latency.
  const auto r = stack(0).Load(0x1000, 8, true, false, 50);
  EXPECT_LT(r.latency, cfg_.memory_latency);
  EXPECT_GT(r.latency, cfg_.l2_hit_latency);
  // Long after: plain L2 hit.
  const auto r2 = stack(0).Load(0x1008, 8, true, false, 10000);
  EXPECT_EQ(r2.latency, cfg_.l2_hit_latency);
}

TEST_F(SmpFixture, PrefetchIsDroppedWhenLinePresent) {
  Build(1);
  stack(0).Load(0x1000, 8, false, false, 0);
  const auto bus_before = bus_->TotalCounts().bus_memory;
  stack(0).Prefetch(0x1000, false, 100);
  EXPECT_EQ(bus_->TotalCounts().bus_memory, bus_before);
}

TEST_F(SmpFixture, BusContentionQueuesRequests) {
  Build(2);
  // Two simultaneous cold loads: the second queues behind the first.
  const auto r0 = stack(0).Load(0x1000, 8, false, false, 0);
  const auto r1 = stack(1).Load(0x2000, 8, false, false, 0);
  EXPECT_EQ(r0.latency, cfg_.memory_latency);
  EXPECT_EQ(r1.latency, cfg_.memory_latency + cfg_.bus_data_occupancy);
  EXPECT_EQ(bus_->queue_cycles(), cfg_.bus_data_occupancy);
}

TEST_F(SmpFixture, InclusionL3EvictionInvalidatesInnerLevels) {
  Build(1);
  // Fill one L3 set past its associativity and check early lines left L2/L1.
  const Addr stride =
      cfg_.l3.line_bytes * (cfg_.l3.size_bytes / cfg_.l3.line_bytes /
                            static_cast<Addr>(cfg_.l3.associativity));
  stack(0).Load(0x0, 8, false, false, 0);
  EXPECT_TRUE(stack(0).PresentInL1(0x0));
  for (int i = 1; i <= cfg_.l3.associativity; ++i) {
    stack(0).Load(static_cast<Addr>(i) * stride, 8, false, false, 0);
  }
  EXPECT_EQ(stack(0).LineState(0x0), Mesi::kI);
  EXPECT_FALSE(stack(0).PresentInL2(0x0));
  EXPECT_FALSE(stack(0).PresentInL1(0x0));
}

TEST_F(SmpFixture, DirtyL3EvictionWritesBack) {
  Build(1);
  const Addr stride =
      cfg_.l3.line_bytes * (cfg_.l3.size_bytes / cfg_.l3.line_bytes /
                            static_cast<Addr>(cfg_.l3.associativity));
  stack(0).Store(0x0, 8, 0);
  for (int i = 1; i <= cfg_.l3.associativity; ++i) {
    stack(0).Load(static_cast<Addr>(i) * stride, 8, false, false, 0);
  }
  EXPECT_EQ(stack(0).stats().fabric_writebacks, 1u);
  EXPECT_EQ(bus_->TotalCounts().bus_writebacks, 1u);
}

TEST_F(SmpFixture, PerCpuCountsAttributeToRequester) {
  Build(2);
  stack(0).Store(0x1000, 8, 0);
  stack(1).Load(0x1000, 8, false, false, 100);
  EXPECT_EQ(bus_->CpuCounts(1).bus_rd_hitm, 1u);
  EXPECT_EQ(bus_->CpuCounts(0).bus_rd_hitm, 0u);
}

// MESI invariant sweep: after a random workload, no line is M/E in one
// stack while valid in another.
TEST_F(SmpFixture, MesiInvariantHoldsUnderRandomTraffic) {
  Build(4);
  std::uint64_t rng = 12345;
  auto next = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  for (int step = 0; step < 20000; ++step) {
    const int cpu = static_cast<int>(next() % 4);
    const Addr addr = (next() % 64) * 64;  // 64 hot sublines
    const int op = static_cast<int>(next() % 4);
    if (op == 0) {
      stack(cpu).Store(addr, 8, static_cast<Cycle>(step) * 10);
    } else if (op == 1) {
      stack(cpu).Prefetch(addr, next() % 2 == 0,
                          static_cast<Cycle>(step) * 10);
    } else {
      stack(cpu).Load(addr, 8, op == 2, false, static_cast<Cycle>(step) * 10);
    }
  }
  for (Addr line = 0; line < 64 * 64; line += cfg_.l2.line_bytes) {
    int exclusive_holders = 0;
    int holders = 0;
    for (int cpu = 0; cpu < 4; ++cpu) {
      const Mesi state = stack(cpu).LineState(line);
      if (state != Mesi::kI) ++holders;
      if (state == Mesi::kM || state == Mesi::kE) ++exclusive_holders;
    }
    EXPECT_LE(exclusive_holders, 1) << "line " << line;
    if (exclusive_holders == 1) {
      EXPECT_EQ(holders, 1) << "line " << line;
    }
  }
}

// --- Directory (NUMA) fixture ------------------------------------------------

class NumaFixture : public ::testing::Test {
 protected:
  void Build(int cpus) {
    cfg_ = AltixNumaConfig();
    cfg_.memory_bytes = 1 << 22;
    memory_ = std::make_unique<MainMemory>(cfg_.memory_bytes, cfg_.page_bytes);
    dir_ = std::make_unique<DirectoryFabric>(cfg_, memory_.get(), cpus);
    std::vector<CacheStack*> raw;
    for (int i = 0; i < cpus; ++i) {
      stacks_.push_back(std::make_unique<CacheStack>(i, cfg_));
      stacks_.back()->AttachFabric(dir_.get());
      raw.push_back(stacks_.back().get());
    }
    dir_->AttachStacks(raw);
  }

  CacheStack& stack(int i) { return *stacks_[static_cast<std::size_t>(i)]; }

  MemConfig cfg_;
  std::unique_ptr<MainMemory> memory_;
  std::unique_ptr<DirectoryFabric> dir_;
  std::vector<std::unique_ptr<CacheStack>> stacks_;
};

TEST_F(NumaFixture, FirstTouchHomesPageAtRequester) {
  Build(4);
  stack(2).Load(0x1000, 8, false, false, 0);  // CPU2 = node 1
  EXPECT_EQ(memory_->HomeNode(0x1000), 1);
}

TEST_F(NumaFixture, LocalVsRemoteLatency) {
  Build(4);
  memory_->PlaceRange(0x0, 0x8000, /*node=*/0);
  const auto local = stack(0).Load(0x1000, 8, false, false, 0);
  const auto remote = stack(2).Load(0x2000, 8, false, false, 0);
  EXPECT_FALSE(local.source == CacheStack::Source::kRemote);
  EXPECT_EQ(remote.source, CacheStack::Source::kRemote);
  EXPECT_GT(remote.latency, local.latency + 2 * cfg_.link_hop_latency);
}

TEST_F(NumaFixture, DirectoryTracksOwnerAndSharers) {
  Build(4);
  stack(0).Load(0x1000, 8, false, false, 0);
  const auto* entry = dir_->Lookup(0x1000 & ~Addr{127});
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->owner, 0);
  stack(2).Load(0x1000, 8, false, false, 100);
  entry = dir_->Lookup(0x1000 & ~Addr{127});
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->owner, -1);
  EXPECT_EQ(entry->sharers, 0b101u);
  EXPECT_EQ(stack(0).LineState(0x1000), Mesi::kS);
}

TEST_F(NumaFixture, RemoteDirtyReadIsThreeHopCoherentMiss) {
  Build(8);
  memory_->PlaceRange(0x0, 0x8000, 0);
  stack(6).Store(0x1000, 8, 0);  // node 3 owns the line dirty
  const auto r = stack(2).Load(0x1000, 8, false, false, 10000);
  EXPECT_EQ(r.source, CacheStack::Source::kCoherent);
  // requester(node1) -> home(node0) -> owner(node3) -> requester: 3 legs.
  EXPECT_GE(r.latency, cfg_.hitm_latency + 3 * 2 * cfg_.link_hop_latency);
  EXPECT_EQ(stack(6).LineState(0x1000), Mesi::kS);
}

TEST_F(NumaFixture, UpgradeInvalidatesPreciselyTheSharers) {
  Build(8);
  stack(0).Load(0x1000, 8, false, false, 0);
  stack(3).Load(0x1000, 8, false, false, 100);
  stack(5).Load(0x1000, 8, false, false, 200);
  stack(3).Store(0x1000, 8, 1000);
  EXPECT_EQ(stack(0).LineState(0x1000), Mesi::kI);
  EXPECT_EQ(stack(5).LineState(0x1000), Mesi::kI);
  EXPECT_EQ(stack(3).LineState(0x1000), Mesi::kM);
  const auto* entry = dir_->Lookup(0x1000 & ~Addr{127});
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->owner, 3);
}

TEST_F(NumaFixture, EvictNotifyKeepsDirectoryExact) {
  Build(2);
  const Addr stride =
      cfg_.l3.line_bytes * (cfg_.l3.size_bytes / cfg_.l3.line_bytes /
                            static_cast<Addr>(cfg_.l3.associativity));
  stack(0).Load(0x0, 8, false, false, 0);
  EXPECT_NE(dir_->Lookup(0x0), nullptr);
  for (int i = 1; i <= cfg_.l3.associativity; ++i) {
    stack(0).Load(static_cast<Addr>(i) * stride, 8, false, false, 0);
  }
  EXPECT_EQ(dir_->Lookup(0x0), nullptr);  // clean drop was reported
}

TEST_F(NumaFixture, MesiInvariantHoldsUnderRandomTraffic) {
  Build(8);
  std::uint64_t rng = 99;
  auto next = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  for (int step = 0; step < 30000; ++step) {
    const int cpu = static_cast<int>(next() % 8);
    const Addr addr = (next() % 128) * 64;
    const int op = static_cast<int>(next() % 4);
    if (op == 0) {
      stack(cpu).Store(addr, 8, static_cast<Cycle>(step) * 10);
    } else if (op == 1) {
      stack(cpu).Prefetch(addr, next() % 2 == 0,
                          static_cast<Cycle>(step) * 10);
    } else {
      stack(cpu).Load(addr, 8, op == 2, false, static_cast<Cycle>(step) * 10);
    }
  }
  for (Addr line = 0; line < 128 * 64; line += cfg_.l2.line_bytes) {
    int exclusive_holders = 0;
    int holders = 0;
    for (int cpu = 0; cpu < 8; ++cpu) {
      const Mesi state = stack(cpu).LineState(line);
      if (state != Mesi::kI) ++holders;
      if (state == Mesi::kM || state == Mesi::kE) ++exclusive_holders;
    }
    EXPECT_LE(exclusive_holders, 1) << "line " << line;
    if (exclusive_holders == 1) {
      EXPECT_EQ(holders, 1) << "line " << line;
    }
    // Directory agreement: every holder is known to the directory.
    const auto* entry = dir_->Lookup(line);
    for (int cpu = 0; cpu < 8; ++cpu) {
      if (stack(cpu).LineState(line) != Mesi::kI) {
        ASSERT_NE(entry, nullptr) << "line " << line;
        const bool known = (entry->sharers >> cpu) & 1;
        EXPECT_TRUE(known || entry->owner == cpu)
            << "line " << line << " cpu " << cpu;
      }
    }
  }
}

// --- CacheArray property test ------------------------------------------------
// Random op sequences against an exact executable model of the array:
// per-set MRU->LRU lists plus the counter semantics of Touch/Insert/
// Invalidate. Everything is compared exactly — victim identity, counter
// values, final residency and full LRU order.

TEST(CacheArrayProperty, RandomOpsMatchExactReferenceModel) {
  constexpr int kAssoc = 4;
  constexpr std::size_t kSets = 4;
  constexpr Addr kLine = 128;
  constexpr int kDistinctLines = 64;
  CacheArray cache(kSets * kAssoc * kLine, kLine, kAssoc);

  struct ModelLine {
    Addr addr = 0;
    Mesi state = Mesi::kI;
    bool prefetched = false;
    bool referenced = false;
  };
  std::array<std::vector<ModelLine>, kSets> model;  // MRU at the front

  auto FindIn = [](std::vector<ModelLine>& set, Addr line_addr) {
    return std::find_if(
        set.begin(), set.end(),
        [line_addr](const ModelLine& l) { return l.addr == line_addr; });
  };

  support::Rng rng(0xc0b7a);
  CacheArray::Stats expect;
  std::uint64_t touches = 0;
  constexpr std::array<Mesi, 3> kStates = {Mesi::kE, Mesi::kS, Mesi::kM};

  for (int step = 0; step < 20000; ++step) {
    const Addr line_addr = kLine * rng.NextBounded(kDistinctLines);
    const Addr addr = line_addr + rng.NextBounded(kLine);  // any byte of it
    auto& set = model[(line_addr / kLine) % kSets];
    switch (rng.NextBounded(8)) {
      case 0:
      case 1:
      case 2: {  // Touch: LRU bump on hit, hit/miss counters
        ++touches;
        CacheArray::Line* line = cache.Touch(addr);
        auto it = FindIn(set, line_addr);
        if (it != set.end()) {
          ++expect.hits;
          ASSERT_NE(line, nullptr);
          ASSERT_EQ(line->line_addr, line_addr);
          ASSERT_EQ(line->state, it->state);
          const ModelLine ml = *it;
          set.erase(it);
          set.insert(set.begin(), ml);
        } else {
          ++expect.misses;
          ASSERT_EQ(line, nullptr);
        }
        break;
      }
      case 3:
      case 4:
      case 5: {  // Insert: exact hit > invalid way > LRU victim
        const Mesi state = kStates[rng.NextBounded(kStates.size())];
        bool victim_valid = false;
        CacheArray::Line victim;
        CacheArray::Line* line =
            cache.Insert(addr, state, 0, &victim, &victim_valid);
        ASSERT_NE(line, nullptr);
        auto it = FindIn(set, line_addr);
        if (it != set.end()) {
          // Re-insert over the existing copy keeps prefetch bookkeeping.
          ASSERT_FALSE(victim_valid);
          ModelLine ml = *it;
          ml.state = state;
          set.erase(it);
          set.insert(set.begin(), ml);
        } else if (static_cast<int>(set.size()) < kAssoc) {
          ASSERT_FALSE(victim_valid);
          set.insert(set.begin(), ModelLine{line_addr, state, false, false});
        } else {
          ASSERT_TRUE(victim_valid);
          const ModelLine lru = set.back();
          ASSERT_EQ(victim.line_addr, lru.addr);
          ASSERT_EQ(victim.state, lru.state);
          ASSERT_EQ(victim.prefetched, lru.prefetched);
          ASSERT_EQ(victim.referenced, lru.referenced);
          ++expect.evictions;
          if (lru.state == Mesi::kM) ++expect.dirty_evictions;
          if (lru.prefetched && !lru.referenced) {
            ++expect.useless_prefetch_evictions;
          }
          set.pop_back();
          set.insert(set.begin(), ModelLine{line_addr, state, false, false});
        }
        ASSERT_EQ(line->state, state);
        ASSERT_EQ(line->prefetched, set.front().prefetched);
        ASSERT_EQ(line->referenced, set.front().referenced);
        // Sometimes mark the fill the way CacheStack does: as a prefetch,
        // or as a demand access referencing a prefetched line.
        if (rng.NextBounded(4) == 0) {
          line->prefetched = true;
          set.front().prefetched = true;
        } else if (rng.NextBounded(4) == 0) {
          line->referenced = true;
          set.front().referenced = true;
        }
        break;
      }
      case 6: {  // Invalidate: drop if present, no counters
        cache.Invalidate(addr);
        auto it = FindIn(set, line_addr);
        if (it != set.end()) set.erase(it);
        break;
      }
      default: {  // Probe: no LRU or counter side effects
        const CacheArray& ccache = cache;
        const CacheArray::Line* line = ccache.Probe(addr);
        auto it = FindIn(set, line_addr);
        if (it != set.end()) {
          ASSERT_NE(line, nullptr);
          ASSERT_EQ(line->state, it->state);
        } else {
          ASSERT_EQ(line, nullptr);
        }
        break;
      }
    }
  }

  // Counters are exact (and therefore can never have gone "negative" /
  // wrapped: each is bounded by the model's event count).
  const CacheArray::Stats& got = cache.stats();
  EXPECT_EQ(got.hits, expect.hits);
  EXPECT_EQ(got.misses, expect.misses);
  EXPECT_EQ(got.evictions, expect.evictions);
  EXPECT_EQ(got.dirty_evictions, expect.dirty_evictions);
  EXPECT_EQ(got.useless_prefetch_evictions, expect.useless_prefetch_evictions);
  EXPECT_EQ(got.hits + got.misses, touches);
  EXPECT_LE(got.dirty_evictions, got.evictions);
  EXPECT_LE(got.useless_prefetch_evictions, got.evictions);

  // Final residency and full LRU order: valid lines per set, most recently
  // used first, must equal the model lists element for element.
  struct Seen {
    Addr addr;
    Mesi state;
    std::uint64_t lru;
  };
  std::array<std::vector<Seen>, kSets> seen;
  std::size_t resident = 0;
  cache.ForEachValid([&seen, &resident](const CacheArray::Line& line) {
    seen[(line.line_addr / kLine) % kSets].push_back(
        {line.line_addr, line.state, line.lru});
    ++resident;
  });
  std::size_t model_resident = 0;
  for (std::size_t s = 0; s < kSets; ++s) model_resident += model[s].size();
  ASSERT_EQ(resident, model_resident);
  for (std::size_t s = 0; s < kSets; ++s) {
    std::sort(seen[s].begin(), seen[s].end(),
              [](const Seen& a, const Seen& b) { return a.lru > b.lru; });
    ASSERT_EQ(seen[s].size(), model[s].size());
    for (std::size_t i = 0; i < seen[s].size(); ++i) {
      EXPECT_EQ(seen[s][i].addr, model[s][i].addr) << "set " << s << " mru#" << i;
      EXPECT_EQ(seen[s][i].state, model[s][i].state) << "set " << s << " mru#" << i;
    }
  }
}

// --- Fused Try* accesses against the full accesses ---------------------------
// Try* is the only place that decides whether an access needs the fabric:
// the engine runs every segment through it and commits each declined
// access with Load/Store/Prefetch. Two identically built systems take the
// same seeded op stream. System A runs each op the way a segment and its
// commit do: Try* under the fabric guard, the full access only when Try*
// declines. System B always calls the full access. After every op the
// results and the complete state of every stack and of the fabric must be
// identical, and Try* must have declined exactly the accesses whose full
// path reached the fabric (a needless decline is invisible to the state
// comparison but would move the engine's commit order).

enum class FusedOp { kLoad, kLoadFp, kLoadBias, kStore, kPrefetch, kPrefetchExcl };
constexpr std::array<const char*, 6> kFusedOpNames = {
    "ld", "ldf", "ld.bias", "st", "lfetch", "lfetch.excl"};

struct FusedSystem {
  FusedSystem(const MemConfig& cfg, int cpus, bool numa)
      : memory(cfg.memory_bytes, cfg.page_bytes) {
    if (numa) {
      fabric = std::make_unique<DirectoryFabric>(cfg, &memory, cpus);
    } else {
      fabric = std::make_unique<SnoopBus>(cfg);
    }
    std::vector<CacheStack*> raw;
    for (int i = 0; i < cpus; ++i) {
      stacks.push_back(std::make_unique<CacheStack>(i, cfg));
      stacks.back()->AttachFabric(fabric.get());
      raw.push_back(stacks.back().get());
    }
    fabric->AttachStacks(raw);
  }

  MainMemory memory;
  std::unique_ptr<CoherenceFabric> fabric;
  std::vector<std::unique_ptr<CacheStack>> stacks;
};

// Runs `op` on `s`; with `fused` it tries the Try* access first (a fabric
// call from inside Try* trips the guard and aborts). Sets *declined when
// Try* returned false.
CacheStack::AccessResult RunFusedOp(CacheStack& s, FusedOp op, Addr addr,
                                    Cycle now, bool fused, bool* declined) {
  CacheStack::AccessResult r;
  *declined = false;
  if (fused) {
    s.set_fabric_guard(true);
    bool done = false;
    switch (op) {
      case FusedOp::kLoad: done = s.TryLoad(addr, 8, false, false, now, &r); break;
      case FusedOp::kLoadFp: done = s.TryLoad(addr, 8, true, false, now, &r); break;
      case FusedOp::kLoadBias: done = s.TryLoad(addr, 8, false, true, now, &r); break;
      case FusedOp::kStore: done = s.TryStore(addr, 8, now, &r); break;
      case FusedOp::kPrefetch: done = s.TryPrefetch(addr, false, now); break;
      case FusedOp::kPrefetchExcl: done = s.TryPrefetch(addr, true, now); break;
    }
    s.set_fabric_guard(false);
    if (done) return r;
    *declined = true;
  }
  switch (op) {
    case FusedOp::kLoad: return s.Load(addr, 8, false, false, now);
    case FusedOp::kLoadFp: return s.Load(addr, 8, true, false, now);
    case FusedOp::kLoadBias: return s.Load(addr, 8, false, true, now);
    case FusedOp::kStore: return s.Store(addr, 8, now);
    case FusedOp::kPrefetch: s.Prefetch(addr, false, now); break;
    case FusedOp::kPrefetchExcl: s.Prefetch(addr, true, now); break;
  }
  return r;
}

void CheckTryMatchesFullAccess(bool numa, int cpus) {
  struct Variant {
    int store_buffer_entries;
    bool excl_prefetch_installs_dirty;
  };
  constexpr std::array<Variant, 3> kVariants = {
      Variant{0, false}, Variant{4, false}, Variant{0, true}};
  constexpr std::array<Protocol, 4> kProtocols = {
      Protocol::kMesi, Protocol::kMoesi, Protocol::kDragon, Protocol::kMesif};
  constexpr int kLines = 48;
  constexpr int kHotLines = 12;
  constexpr int kOps = 2500;

  for (const Protocol protocol : kProtocols) {
    for (const Variant& v : kVariants) {
      MemConfig cfg = numa ? AltixNumaConfig() : ItaniumSmpConfig();
      cfg.protocol = protocol;
      cfg.store_buffer_entries = v.store_buffer_entries;
      cfg.excl_prefetch_installs_dirty = v.excl_prefetch_installs_dirty;
      cfg.memory_bytes = 1 << 20;
      // A tiny hierarchy, so a few dozen lines exercise L1/L2/L3 evictions,
      // dirty victims and L2 refills from L3.
      cfg.l1 = {512, 64, 2};
      cfg.l2 = {1024, 128, 2};
      cfg.l3 = {2048, 128, 4};
      SCOPED_TRACE(std::string(ProtocolName(protocol)) +
                   " store_buffer=" + std::to_string(v.store_buffer_entries) +
                   " excl_dirty=" +
                   std::to_string(v.excl_prefetch_installs_dirty));

      FusedSystem a(cfg, cpus, numa);
      FusedSystem b(cfg, cpus, numa);
      support::Rng rng(0x7f1e5 + static_cast<std::uint64_t>(protocol));
      Cycle now = 0;
      int fused_commits = 0;
      int declines = 0;
      int inflight_waits = 0;
      for (int step = 0; step < kOps; ++step) {
        const int cpu = static_cast<int>(rng.NextBounded(cpus));
        const int line = static_cast<int>(
            rng.NextBounded(4) != 0 ? rng.NextBounded(kHotLines)
                                    : rng.NextBounded(kLines));
        // Lines spread over 8 pages (NUMA homes differ), any 8-byte word.
        const Addr addr = static_cast<Addr>(line % 8) * cfg.page_bytes +
                          static_cast<Addr>(line / 8) * cfg.l2.line_bytes +
                          8 * rng.NextBounded(16);
        const auto op = static_cast<FusedOp>(rng.NextBounded(6));
        // Small clock steps against ~130-cycle fills: demand accesses and
        // prefetches regularly land on fills still in flight.
        now += rng.NextBounded(24);

        bool declined = false;
        bool unused = false;
        const std::vector<std::uint8_t> fabric_before = StateBlob(*b.fabric);
        const auto ra = RunFusedOp(*a.stacks[static_cast<std::size_t>(cpu)],
                                   op, addr, now, /*fused=*/true, &declined);
        const auto rb = RunFusedOp(*b.stacks[static_cast<std::size_t>(cpu)],
                                   op, addr, now, /*fused=*/false, &unused);
        ++(declined ? declines : fused_commits);
        // An L2 hit costs more than the L2 hit latency only while the
        // line's fill is still in flight.
        if (!declined && ra.source == CacheStack::Source::kL2 &&
            ra.latency > cfg.l2_hit_latency) {
          ++inflight_waits;
        }

        const std::string where =
            "op #" + std::to_string(step) + " " +
            kFusedOpNames[static_cast<std::size_t>(op)] + " cpu" +
            std::to_string(cpu) + " addr " + std::to_string(addr) + " now " +
            std::to_string(now) + (declined ? " (declined)" : " (fused)");
        ASSERT_EQ(ra.latency, rb.latency) << where;
        ASSERT_EQ(ra.source, rb.source) << where;
        for (int c = 0; c < cpus; ++c) {
          const std::size_t i = static_cast<std::size_t>(c);
          ASSERT_TRUE(StateBlob(*a.stacks[i]) == StateBlob(*b.stacks[i]))
              << where << ": stack of cpu" << c << " diverged";
        }
        const std::vector<std::uint8_t> fabric_after = StateBlob(*b.fabric);
        ASSERT_TRUE(StateBlob(*a.fabric) == fabric_after)
            << where << ": fabric diverged";
        // Every fabric transaction advances the fabric's occupancy clock.
        ASSERT_EQ(declined, fabric_after != fabric_before)
            << where << ": Try* decision disagrees with the full access";
        ASSERT_EQ(a.memory.HomeNode(addr), b.memory.HomeNode(addr)) << where;
      }
      // The stream must exercise both outcomes and the in-flight waits.
      EXPECT_GT(fused_commits, kOps / 4);
      EXPECT_GT(declines, kOps / 20);
      EXPECT_GT(inflight_waits, 0);
    }
  }
}

TEST(FusedAccessProperty, SmpTryMatchesFullAccess) {
  CheckTryMatchesFullAccess(/*numa=*/false, /*cpus=*/3);
}

TEST(FusedAccessProperty, NumaTryMatchesFullAccess) {
  CheckTryMatchesFullAccess(/*numa=*/true, /*cpus=*/4);
}

}  // namespace
}  // namespace cobra::mem
