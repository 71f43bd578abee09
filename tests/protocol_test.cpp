// Per-protocol conformance battery for the pluggable coherence layer:
//
//   1. CoherencePolicy tables (snoop transitions, legal states, traits)
//      checked exhaustively against hand-written oracles;
//   2. CacheStack state-transition tables: every reachable (cpu0 state,
//      cpu1 state, local op) cell on a two-stack snooping bus, per
//      protocol, against a hand-written MESI/MOESI/Dragon/MESIF oracle —
//      the cells with a valid cpu1 copy exercise every snooped-op row too;
//   3. traffic-class checks (Dragon never invalidates, MESIF forwards
//      clean lines cache-to-cache, MOESI shares dirty without a memory
//      writeback);
//   4. the optional store buffer: free store hits, drain-before-commit,
//      off-by-default equivalence, engine determinism;
//   5. fault-injection death tests proving the CoherenceChecker fires for
//      each protocol-specific invariant (protocol-state, protocol-op,
//      single-owner-of-dirty, exactly-one-forwarder, update-delivery,
//      no-stale-copy);
//   6. whole-machine runs per protocol (checker on) with protocol-
//      characteristic traffic assertions.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "isa/assembler.h"
#include "isa/instruction.h"
#include "kgen/program.h"
#include "machine/engine.h"
#include "machine/machine.h"
#include "mem/cache_stack.h"
#include "mem/coherence.h"
#include "mem/config.h"
#include "mem/protocol.h"
#include "mem/snoop_bus.h"
#include "rt/team.h"
#include "verify/coherence_checker.h"
#include "verify/fuzz.h"

namespace cobra::mem {
namespace {

// --- 1. CoherencePolicy tables ---------------------------------------------

constexpr Protocol kAllProtocols[] = {Protocol::kMesi, Protocol::kMoesi,
                                      Protocol::kDragon, Protocol::kMesif};
constexpr CohState kAllStates[] = {CohState::kI,  CohState::kS, CohState::kE,
                                   CohState::kM,  CohState::kO, CohState::kF,
                                   CohState::kSm, CohState::kSc};

TEST(Protocol, NamesParseRoundTrip) {
  for (const Protocol p : kAllProtocols) {
    Protocol parsed = Protocol::kMesi;
    ASSERT_TRUE(ParseProtocol(ProtocolName(p), &parsed)) << ProtocolName(p);
    EXPECT_EQ(parsed, p);
  }
  Protocol parsed = Protocol::kMesi;
  EXPECT_TRUE(ParseProtocol("MOESI", &parsed));  // case-insensitive
  EXPECT_EQ(parsed, Protocol::kMoesi);
  EXPECT_FALSE(ParseProtocol("mosi", &parsed));
  EXPECT_FALSE(ParseProtocol("", &parsed));
  EXPECT_FALSE(ParseProtocol("dragonfly", &parsed));
}

TEST(Protocol, EnvSelectsPresetProtocol) {
  ::setenv("COBRA_PROTOCOL", "dragon", 1);
  EXPECT_EQ(ItaniumSmpConfig().protocol, Protocol::kDragon);
  EXPECT_EQ(AltixNumaConfig().protocol, Protocol::kDragon);
  ::setenv("COBRA_PROTOCOL", "mesif", 1);
  EXPECT_EQ(ItaniumSmpConfig().protocol, Protocol::kMesif);
  ::setenv("COBRA_PROTOCOL", "bogus", 1);
  EXPECT_EQ(ItaniumSmpConfig().protocol, Protocol::kMesi);  // fallback
  ::unsetenv("COBRA_PROTOCOL");
  EXPECT_EQ(ItaniumSmpConfig().protocol, Protocol::kMesi);
}

TEST(Protocol, PolicyTraits) {
  const CoherencePolicy& mesi = CoherencePolicy::For(Protocol::kMesi);
  EXPECT_FALSE(mesi.update_based());
  EXPECT_EQ(mesi.store_shared_action(), StoreSharedAction::kReadInvalidate);
  EXPECT_FALSE(mesi.dirty_share_on_read());
  EXPECT_FALSE(mesi.clean_forwarding());
  EXPECT_EQ(mesi.read_grant_shared(), CohState::kS);
  EXPECT_TRUE(mesi.bias_upgrades());
  EXPECT_TRUE(mesi.excl_prefetch_rfo());

  const CoherencePolicy& moesi = CoherencePolicy::For(Protocol::kMoesi);
  EXPECT_FALSE(moesi.update_based());
  EXPECT_EQ(moesi.store_shared_action(), StoreSharedAction::kUpgrade);
  EXPECT_TRUE(moesi.dirty_share_on_read());
  EXPECT_FALSE(moesi.clean_forwarding());
  EXPECT_EQ(moesi.read_grant_shared(), CohState::kS);

  const CoherencePolicy& dragon = CoherencePolicy::For(Protocol::kDragon);
  EXPECT_TRUE(dragon.update_based());
  EXPECT_EQ(dragon.store_shared_action(), StoreSharedAction::kUpdate);
  EXPECT_TRUE(dragon.dirty_share_on_read());
  EXPECT_EQ(dragon.read_grant_shared(), CohState::kSc);
  EXPECT_FALSE(dragon.bias_upgrades());      // no RFO under Dragon
  EXPECT_FALSE(dragon.excl_prefetch_rfo());

  const CoherencePolicy& mesif = CoherencePolicy::For(Protocol::kMesif);
  EXPECT_FALSE(mesif.update_based());
  EXPECT_EQ(mesif.store_shared_action(), StoreSharedAction::kReadInvalidate);
  EXPECT_FALSE(mesif.dirty_share_on_read());
  EXPECT_TRUE(mesif.clean_forwarding());
  EXPECT_EQ(mesif.read_grant_shared(), CohState::kF);
}

TEST(Protocol, LegalStatesExhaustive) {
  // Hand-written oracle: which of the eight states each protocol may hold.
  const auto legal = [](Protocol p, CohState s) {
    switch (s) {
      case CohState::kI:
      case CohState::kE:
      case CohState::kM:
        return true;
      case CohState::kS:
        return p != Protocol::kDragon;  // Dragon splits S into Sc/Sm
      case CohState::kO:
        return p == Protocol::kMoesi;
      case CohState::kF:
        return p == Protocol::kMesif;
      case CohState::kSm:
      case CohState::kSc:
        return p == Protocol::kDragon;
    }
    return false;
  };
  for (const Protocol p : kAllProtocols) {
    const CoherencePolicy& policy = CoherencePolicy::For(p);
    for (const CohState s : kAllStates) {
      EXPECT_EQ(policy.LegalState(s), legal(p, s))
          << ProtocolName(p) << " state " << CohStateName(s);
    }
  }
}

TEST(Protocol, SnoopReadNextExhaustive) {
  // Hand-written oracle for the remote-read transition of every state.
  const auto oracle = [](Protocol p, CohState s) {
    if (!CohValid(s)) return CohState::kI;
    switch (p) {
      case Protocol::kMesi:
      case Protocol::kMesif:  // F demotes to S; the requester is the new F
        return CohState::kS;
      case Protocol::kMoesi:
        return CohDirty(s) ? CohState::kO : CohState::kS;
      case Protocol::kDragon:
        return CohDirty(s) ? CohState::kSm : CohState::kSc;
    }
    return CohState::kI;
  };
  for (const Protocol p : kAllProtocols) {
    const CoherencePolicy& policy = CoherencePolicy::For(p);
    for (const CohState s : kAllStates) {
      EXPECT_EQ(policy.SnoopReadNext(s), oracle(p, s))
          << ProtocolName(p) << " state " << CohStateName(s);
    }
  }
}

TEST(Protocol, SnoopUpdateNextExhaustive) {
  // A BusUpd leaves every surviving remote copy clean-shared.
  const CoherencePolicy& dragon = CoherencePolicy::For(Protocol::kDragon);
  for (const CohState s : kAllStates) {
    EXPECT_EQ(dragon.SnoopUpdateNext(s),
              CohValid(s) ? CohState::kSc : CohState::kI)
        << CohStateName(s);
  }
}

// --- 2. CacheStack transition tables ----------------------------------------

enum class LocalOp { kLoad, kStore };

struct TransitionCell {
  Mesi s0;       // cpu0's pre-state (the acting CPU)
  Mesi s1;       // cpu1's pre-state
  LocalOp op;    // cpu0's operation
  Mesi post0;    // expected cpu0 state
  Mesi post1;    // expected cpu1 state
};

class ProtocolPairFixture : public ::testing::Test {
 protected:
  void Build(Protocol protocol, int cpus = 2) {
    cfg_ = ItaniumSmpConfig();
    cfg_.memory_bytes = 1 << 22;
    cfg_.protocol = protocol;
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

  // Installs `line` honestly (so inclusion, ready_at and the bus agree it
  // is cached), then forces the asked-for pre-states.
  void Seed(Addr line, Mesi s0, Mesi s1) {
    Cycle now = 0;
    if (s0 != Mesi::kI) stack(0).Load(line, 8, false, false, now);
    now += 10000;
    if (s1 != Mesi::kI) stack(1).Load(line, 8, false, false, now);
    if (s0 != Mesi::kI) stack(0).TestOnlyCorruptLine(line, s0);
    if (s1 != Mesi::kI) stack(1).TestOnlyCorruptLine(line, s1);
    ASSERT_EQ(stack(0).LineState(line), s0);
    ASSERT_EQ(stack(1).LineState(line), s1);
  }

  void RunTable(Protocol protocol, const std::vector<TransitionCell>& table) {
    // A fresh system per cell: no cross-cell cache or bus-timing coupling.
    for (const TransitionCell& cell : table) {
      stacks_.clear();
      Build(protocol);
      const Addr line = 0x10000;
      Seed(line, cell.s0, cell.s1);
      const Cycle now = 100000;  // all seeded fills are long since settled
      if (cell.op == LocalOp::kLoad) {
        stack(0).Load(line, 8, false, false, now);
      } else {
        stack(0).Store(line, 8, now);
      }
      EXPECT_EQ(stack(0).LineState(line), cell.post0)
          << ProtocolName(protocol) << " (" << MesiName(cell.s0) << ","
          << MesiName(cell.s1) << ") "
          << (cell.op == LocalOp::kLoad ? "load" : "store") << " -> cpu0";
      EXPECT_EQ(stack(1).LineState(line), cell.post1)
          << ProtocolName(protocol) << " (" << MesiName(cell.s0) << ","
          << MesiName(cell.s1) << ") "
          << (cell.op == LocalOp::kLoad ? "load" : "store") << " -> cpu1";
    }
  }

  MemConfig cfg_;
  std::unique_ptr<SnoopBus> bus_;
  std::vector<std::unique_ptr<CacheStack>> stacks_;
};

TEST_F(ProtocolPairFixture, MesiTransitionTable) {
  using S = Mesi;
  const std::vector<TransitionCell> table = {
      // Loads: cold miss takes E; any remote copy demotes to S everywhere.
      {S::kI, S::kI, LocalOp::kLoad, S::kE, S::kI},
      {S::kI, S::kS, LocalOp::kLoad, S::kS, S::kS},
      {S::kI, S::kE, LocalOp::kLoad, S::kS, S::kS},
      {S::kI, S::kM, LocalOp::kLoad, S::kS, S::kS},
      {S::kS, S::kI, LocalOp::kLoad, S::kS, S::kI},
      {S::kS, S::kS, LocalOp::kLoad, S::kS, S::kS},
      {S::kE, S::kI, LocalOp::kLoad, S::kE, S::kI},
      {S::kM, S::kI, LocalOp::kLoad, S::kM, S::kI},
      // Stores: every path ends with a sole Modified copy.
      {S::kI, S::kI, LocalOp::kStore, S::kM, S::kI},
      {S::kI, S::kS, LocalOp::kStore, S::kM, S::kI},
      {S::kI, S::kE, LocalOp::kStore, S::kM, S::kI},
      {S::kI, S::kM, LocalOp::kStore, S::kM, S::kI},
      {S::kS, S::kI, LocalOp::kStore, S::kM, S::kI},
      {S::kS, S::kS, LocalOp::kStore, S::kM, S::kI},
      {S::kE, S::kI, LocalOp::kStore, S::kM, S::kI},
      {S::kM, S::kI, LocalOp::kStore, S::kM, S::kI},
  };
  RunTable(Protocol::kMesi, table);
}

TEST_F(ProtocolPairFixture, MoesiTransitionTable) {
  using S = Mesi;
  const std::vector<TransitionCell> table = {
      // Loads: a dirty remote copy stays resident as Owned.
      {S::kI, S::kI, LocalOp::kLoad, S::kE, S::kI},
      {S::kI, S::kS, LocalOp::kLoad, S::kS, S::kS},
      {S::kI, S::kE, LocalOp::kLoad, S::kS, S::kS},
      {S::kI, S::kM, LocalOp::kLoad, S::kS, S::kO},
      {S::kI, S::kO, LocalOp::kLoad, S::kS, S::kO},
      {S::kS, S::kI, LocalOp::kLoad, S::kS, S::kI},
      {S::kS, S::kO, LocalOp::kLoad, S::kS, S::kO},
      {S::kO, S::kI, LocalOp::kLoad, S::kO, S::kI},
      {S::kO, S::kS, LocalOp::kLoad, S::kO, S::kS},
      {S::kE, S::kI, LocalOp::kLoad, S::kE, S::kI},
      {S::kM, S::kI, LocalOp::kLoad, S::kM, S::kI},
      // Stores: shared-class holders upgrade in place (including O).
      {S::kI, S::kI, LocalOp::kStore, S::kM, S::kI},
      {S::kI, S::kS, LocalOp::kStore, S::kM, S::kI},
      {S::kI, S::kE, LocalOp::kStore, S::kM, S::kI},
      {S::kI, S::kM, LocalOp::kStore, S::kM, S::kI},
      {S::kI, S::kO, LocalOp::kStore, S::kM, S::kI},
      {S::kS, S::kI, LocalOp::kStore, S::kM, S::kI},
      {S::kS, S::kS, LocalOp::kStore, S::kM, S::kI},
      {S::kS, S::kO, LocalOp::kStore, S::kM, S::kI},
      {S::kO, S::kI, LocalOp::kStore, S::kM, S::kI},
      {S::kO, S::kS, LocalOp::kStore, S::kM, S::kI},
      {S::kE, S::kI, LocalOp::kStore, S::kM, S::kI},
      {S::kM, S::kI, LocalOp::kStore, S::kM, S::kI},
  };
  RunTable(Protocol::kMoesi, table);
}

TEST_F(ProtocolPairFixture, MesifTransitionTable) {
  using S = Mesi;
  const std::vector<TransitionCell> table = {
      // Loads: the newest sharer always becomes the forwarder; the old F
      // (or E/M owner) demotes to plain S.
      {S::kI, S::kI, LocalOp::kLoad, S::kE, S::kI},
      {S::kI, S::kS, LocalOp::kLoad, S::kF, S::kS},
      {S::kI, S::kE, LocalOp::kLoad, S::kF, S::kS},
      {S::kI, S::kM, LocalOp::kLoad, S::kF, S::kS},
      {S::kI, S::kF, LocalOp::kLoad, S::kF, S::kS},
      {S::kS, S::kI, LocalOp::kLoad, S::kS, S::kI},
      {S::kS, S::kF, LocalOp::kLoad, S::kS, S::kF},
      {S::kF, S::kI, LocalOp::kLoad, S::kF, S::kI},
      {S::kF, S::kS, LocalOp::kLoad, S::kF, S::kS},
      {S::kE, S::kI, LocalOp::kLoad, S::kE, S::kI},
      {S::kM, S::kI, LocalOp::kLoad, S::kM, S::kI},
      // Stores: like MESI, every path invalidates the rest.
      {S::kI, S::kI, LocalOp::kStore, S::kM, S::kI},
      {S::kI, S::kS, LocalOp::kStore, S::kM, S::kI},
      {S::kI, S::kF, LocalOp::kStore, S::kM, S::kI},
      {S::kI, S::kM, LocalOp::kStore, S::kM, S::kI},
      {S::kS, S::kI, LocalOp::kStore, S::kM, S::kI},
      {S::kS, S::kF, LocalOp::kStore, S::kM, S::kI},
      {S::kF, S::kI, LocalOp::kStore, S::kM, S::kI},
      {S::kF, S::kS, LocalOp::kStore, S::kM, S::kI},
      {S::kE, S::kI, LocalOp::kStore, S::kM, S::kI},
      {S::kM, S::kI, LocalOp::kStore, S::kM, S::kI},
  };
  RunTable(Protocol::kMesif, table);
}

TEST_F(ProtocolPairFixture, DragonTransitionTable) {
  using S = Mesi;
  const std::vector<TransitionCell> table = {
      // Loads: dirty remote copies hand out data and stay Sm; clean ones
      // become Sc. No invalidations anywhere.
      {S::kI, S::kI, LocalOp::kLoad, S::kE, S::kI},
      {S::kI, S::kSc, LocalOp::kLoad, S::kSc, S::kSc},
      {S::kI, S::kE, LocalOp::kLoad, S::kSc, S::kSc},
      {S::kI, S::kM, LocalOp::kLoad, S::kSc, S::kSm},
      {S::kI, S::kSm, LocalOp::kLoad, S::kSc, S::kSm},
      {S::kSc, S::kI, LocalOp::kLoad, S::kSc, S::kI},
      {S::kSc, S::kSc, LocalOp::kLoad, S::kSc, S::kSc},
      {S::kSc, S::kSm, LocalOp::kLoad, S::kSc, S::kSm},
      {S::kSm, S::kI, LocalOp::kLoad, S::kSm, S::kI},
      {S::kSm, S::kSc, LocalOp::kLoad, S::kSm, S::kSc},
      {S::kE, S::kI, LocalOp::kLoad, S::kE, S::kI},
      {S::kM, S::kI, LocalOp::kLoad, S::kM, S::kI},
      // Stores: remote copies are *updated in place*, never invalidated;
      // the writer holds Sm while sharers remain, M once it is alone.
      {S::kI, S::kI, LocalOp::kStore, S::kM, S::kI},
      {S::kI, S::kSc, LocalOp::kStore, S::kSm, S::kSc},
      {S::kI, S::kE, LocalOp::kStore, S::kSm, S::kSc},
      {S::kI, S::kM, LocalOp::kStore, S::kSm, S::kSc},
      {S::kI, S::kSm, LocalOp::kStore, S::kSm, S::kSc},
      {S::kSc, S::kI, LocalOp::kStore, S::kM, S::kI},
      {S::kSc, S::kSc, LocalOp::kStore, S::kSm, S::kSc},
      {S::kSc, S::kSm, LocalOp::kStore, S::kSm, S::kSc},
      {S::kSm, S::kI, LocalOp::kStore, S::kM, S::kI},
      {S::kSm, S::kSc, LocalOp::kStore, S::kSm, S::kSc},
      {S::kE, S::kI, LocalOp::kStore, S::kM, S::kI},
      {S::kM, S::kI, LocalOp::kStore, S::kM, S::kI},
  };
  RunTable(Protocol::kDragon, table);
}

// --- 3. Traffic classes -----------------------------------------------------

TEST_F(ProtocolPairFixture, DragonStoreToSharedBroadcastsUpdate) {
  Build(Protocol::kDragon);
  stack(0).Load(0x1000, 8, false, false, 0);
  stack(1).Load(0x1000, 8, false, false, 10000);
  ASSERT_EQ(stack(0).LineState(0x1000), Mesi::kSc);
  stack(0).Store(0x1000, 8, 20000);
  EXPECT_EQ(stack(0).LineState(0x1000), Mesi::kSm);
  EXPECT_EQ(stack(1).LineState(0x1000), Mesi::kSc);  // still valid!
  EXPECT_EQ(bus_->TotalCounts().bus_updates, 1u);
  EXPECT_EQ(bus_->TotalCounts().bus_upgrades, 0u);
  EXPECT_EQ(stack(1).stats().snoop_invalidations, 0u);
  EXPECT_EQ(stack(1).stats().snoop_updates, 1u);
  EXPECT_EQ(stack(0).stats().store_updates, 1u);
}

TEST_F(ProtocolPairFixture, MesifCleanForwardSuppliesCacheToCache) {
  Build(Protocol::kMesif, 3);
  stack(0).Load(0x1000, 8, false, false, 0);  // E
  const auto r1 = stack(1).Load(0x1000, 8, false, false, 10000);
  // The sole E copy forwarded: cache-to-cache at forward latency, not
  // memory latency.
  EXPECT_EQ(r1.latency, cfg_.forward_latency);
  EXPECT_EQ(bus_->TotalCounts().c2c_transfers, 1u);
  EXPECT_EQ(stack(1).LineState(0x1000), Mesi::kF);
  // And the F copy keeps forwarding to the next reader.
  const auto r2 = stack(2).Load(0x1000, 8, false, false, 20000);
  EXPECT_EQ(r2.latency, cfg_.forward_latency);
  EXPECT_EQ(bus_->TotalCounts().c2c_transfers, 2u);
  EXPECT_EQ(stack(2).LineState(0x1000), Mesi::kF);
  EXPECT_EQ(stack(1).LineState(0x1000), Mesi::kS);
}

TEST_F(ProtocolPairFixture, MesiCleanSharingGoesToMemoryInstead) {
  Build(Protocol::kMesi, 3);
  stack(0).Load(0x1000, 8, false, false, 0);
  const auto r1 = stack(1).Load(0x1000, 8, false, false, 10000);
  EXPECT_EQ(r1.latency, cfg_.memory_latency);
  EXPECT_EQ(bus_->TotalCounts().c2c_transfers, 0u);
}

TEST_F(ProtocolPairFixture, MoesiDirtyShareKeepsOwnerResponsible) {
  Build(Protocol::kMoesi);
  stack(0).Store(0x1000, 8, 0);
  ASSERT_EQ(stack(0).LineState(0x1000), Mesi::kM);
  stack(1).Load(0x1000, 8, false, false, 10000);
  EXPECT_EQ(stack(0).LineState(0x1000), Mesi::kO);
  EXPECT_EQ(stack(1).LineState(0x1000), Mesi::kS);
  EXPECT_EQ(bus_->TotalCounts().bus_rd_hitm, 1u);
  EXPECT_EQ(bus_->TotalCounts().c2c_transfers, 1u);
  // MESI would hold the bus for an implicit memory writeback after the
  // HITM supply; MOESI leaves the owner responsible, so the transaction
  // occupies one data slot, not two.
  EXPECT_EQ(bus_->free_at(), 10000 + cfg_.bus_data_occupancy);
}

// --- 4. The optional store buffer -------------------------------------------

TEST_F(ProtocolPairFixture, StoreBufferOffByDefault) {
  Build(Protocol::kMesi);
  EXPECT_EQ(cfg_.store_buffer_entries, 0);
  stack(0).Store(0x1000, 8, 0);
  const auto r = stack(0).Store(0x1000, 8, 100000);  // M hit
  EXPECT_EQ(r.latency, cfg_.store_hit_latency);
  EXPECT_EQ(stack(0).stats().buffered_stores, 0u);
}

class StoreBufferFixture : public ProtocolPairFixture {
 protected:
  void BuildBuffered(int entries) {
    cfg_ = ItaniumSmpConfig();
    cfg_.memory_bytes = 1 << 22;
    cfg_.store_buffer_entries = entries;
    bus_ = std::make_unique<SnoopBus>(cfg_);
    std::vector<CacheStack*> raw;
    for (int i = 0; i < 2; ++i) {
      stacks_.push_back(std::make_unique<CacheStack>(i, cfg_));
      stacks_.back()->AttachFabric(bus_.get());
      raw.push_back(stacks_.back().get());
    }
    bus_->AttachStacks(raw);
  }
};

TEST_F(StoreBufferFixture, BufferedHitsAreFreeUntilFull) {
  BuildBuffered(4);
  stack(0).Store(0x1000, 8, 0);  // miss: installs M, buffer untouched
  for (int i = 0; i < 4; ++i) {
    const auto r = stack(0).Store(0x1000, 8, 100000 + i);
    EXPECT_EQ(r.latency, 0u) << "buffered store " << i;
  }
  EXPECT_EQ(stack(0).stats().buffered_stores, 4u);
  // Buffer full: the fifth hit pays the pipeline cost again.
  const auto r = stack(0).Store(0x1000, 8, 200000);
  EXPECT_EQ(r.latency, cfg_.store_hit_latency);
  EXPECT_EQ(stack(0).stats().buffered_stores, 4u);
}

TEST_F(StoreBufferFixture, DrainChargedBeforeNextCoherenceTransaction) {
  BuildBuffered(4);
  stack(0).Store(0x1000, 8, 0);
  for (int i = 0; i < 3; ++i) stack(0).Store(0x1000, 8, 100000 + i);
  ASSERT_EQ(stack(0).stats().buffered_stores, 3u);
  // The next fabric transaction (a cold load far away) drains the three
  // pending stores first: their cost lands on this operation's latency.
  const auto undrained = cfg_.memory_latency;
  const auto r = stack(0).Load(0x80000, 8, false, false, 200000);
  EXPECT_EQ(r.latency, undrained + 3 * cfg_.store_hit_latency);
  // Drained: the next buffered window starts empty.
  const auto r2 = stack(0).Store(0x1000, 8, 300000);
  EXPECT_EQ(r2.latency, 0u);
  EXPECT_EQ(stack(0).stats().buffered_stores, 4u);
}

TEST(StoreBuffer, DisabledBufferMatchesDefaultConfigExactly) {
  // store_buffer_entries = 0 *is* the paper configuration: forcing it
  // explicitly must not perturb a single fingerprinted value.
  const verify::FuzzCase base = verify::SmpFuzzCase(97);
  verify::FuzzCase off = base;
  off.machine.mem.store_buffer_entries = 0;
  const machine::EngineConfig engine;
  EXPECT_EQ(verify::RunFuzzCase(base, engine),
            verify::RunFuzzCase(off, engine));
}

}  // namespace
}  // namespace cobra::mem

// --- 5 & 6. Whole-machine conformance + checker fault injection -------------

namespace cobra::verify {
namespace {

using mem::Mesi;

struct RanWorkload {
  std::unique_ptr<kgen::Program> prog;
  std::unique_ptr<machine::Machine> m;
  mem::Addr shared_line = 0;
};

// Every thread reads word 0 of one shared line and stores to its own word
// of the *same* line: the load leaves the line shared-class, so the store
// that follows exercises the protocol's store-to-shared transaction
// (read-invalidate, in-place upgrade, or update broadcast) plus dirty
// supplies on the other threads' next reads. Word 0 is never written, so
// the golden memory oracle stays exact.
RanWorkload RunContendedWorkload(machine::MachineConfig cfg, int threads) {
  using namespace cobra::isa;
  RanWorkload w;
  w.prog = std::make_unique<kgen::Program>();
  w.shared_line = w.prog->Alloc(256);

  Assembler a(&w.prog->image());
  const auto loop = a.NewLabel();
  a.Emit(MovImm(30, 31));  // 32 iterations
  a.Emit(MovToAr(AppReg::kLC, 30));
  a.FlushBundle();
  a.Bind(loop);
  a.Emit(Ld(8, 29, 8));    // all threads read the same word
  a.Emit(St(8, 9, 10));    // each thread stores its own word of that line
  a.Emit(AddImm(10, 10, 1));
  a.EmitBranch(BrCloop(0), loop);
  a.Emit(Break());
  const Addr entry = a.Finish();

  cfg.verify_coherence = true;
  w.m = std::make_unique<machine::Machine>(cfg, &w.prog->image());
  rt::Team team(w.m.get(), threads, machine::EngineConfig{});
  const mem::Addr shared = w.shared_line;
  team.Run(entry, [shared](int tid, cpu::RegisterFile& regs) {
    regs.WriteGr(8, shared);
    regs.WriteGr(9, shared + 8 + static_cast<std::uint64_t>(tid) * 8);
    regs.WriteGr(10, 0x100 + static_cast<std::uint64_t>(tid));
  });
  return w;
}

// Read-only variant: threads share reads of one line and dirty private
// lines. Under the invalidation protocols this leaves the shared line
// resident in *every* stack (S/F mix), which the corruption-based death
// tests below need — the contended workload ends with all but the last
// writer invalidated.
RanWorkload RunSharedReadWorkload(machine::MachineConfig cfg, int threads) {
  using namespace cobra::isa;
  RanWorkload w;
  w.prog = std::make_unique<kgen::Program>();
  w.shared_line = w.prog->Alloc(256);
  const mem::Addr own_base =
      w.prog->Alloc(static_cast<std::uint64_t>(threads) * 128 + 128);

  Assembler a(&w.prog->image());
  const auto loop = a.NewLabel();
  a.Emit(MovImm(30, 31));  // 32 iterations
  a.Emit(MovToAr(AppReg::kLC, 30));
  a.FlushBundle();
  a.Bind(loop);
  a.Emit(Ld(8, 29, 8));
  a.Emit(St(8, 9, 10));
  a.Emit(AddImm(10, 10, 1));
  a.EmitBranch(BrCloop(0), loop);
  a.Emit(Break());
  const Addr entry = a.Finish();

  cfg.verify_coherence = true;
  w.m = std::make_unique<machine::Machine>(cfg, &w.prog->image());
  rt::Team team(w.m.get(), threads, machine::EngineConfig{});
  const mem::Addr shared = w.shared_line;
  team.Run(entry, [shared, own_base](int tid, cpu::RegisterFile& regs) {
    regs.WriteGr(8, shared);
    regs.WriteGr(9, own_base + static_cast<std::uint64_t>(tid) * 128);
    regs.WriteGr(10, 0x100 + static_cast<std::uint64_t>(tid));
  });
  return w;
}

machine::MachineConfig SmpWith(mem::Protocol p) {
  machine::MachineConfig cfg = machine::SmpServerConfig(4);
  cfg.mem.protocol = p;
  return cfg;
}

machine::MachineConfig NumaWith(mem::Protocol p) {
  machine::MachineConfig cfg = machine::AltixConfig(4);
  cfg.mem.protocol = p;
  return cfg;
}

TEST(ProtocolConformance, MoesiSharesDirtyWithoutInvalidation) {
  for (const bool numa : {false, true}) {
    RanWorkload w = RunContendedWorkload(
        numa ? NumaWith(mem::Protocol::kMoesi) : SmpWith(mem::Protocol::kMoesi),
        4);
    ASSERT_NE(w.m->checker(), nullptr);
    w.m->checker()->CheckAll();  // full per-protocol invariant sweep
    const mem::BusEventCounts& bus = w.m->fabric().TotalCounts();
    EXPECT_GT(bus.bus_upgrades, 0u) << "numa=" << numa;  // in-place upgrades
    EXPECT_GT(bus.c2c_transfers, 0u) << "numa=" << numa;
    EXPECT_EQ(bus.bus_updates, 0u) << "numa=" << numa;
  }
}

TEST(ProtocolConformance, DragonNeverInvalidates) {
  for (const bool numa : {false, true}) {
    RanWorkload w = RunContendedWorkload(
        numa ? NumaWith(mem::Protocol::kDragon)
             : SmpWith(mem::Protocol::kDragon),
        4);
    ASSERT_NE(w.m->checker(), nullptr);
    w.m->checker()->CheckAll();
    const mem::BusEventCounts& bus = w.m->fabric().TotalCounts();
    EXPECT_GT(bus.bus_updates, 0u) << "numa=" << numa;
    EXPECT_EQ(bus.bus_upgrades, 0u) << "numa=" << numa;
    EXPECT_EQ(bus.bus_rd_inval_all_hitm, 0u) << "numa=" << numa;
    std::uint64_t invalidations = 0;
    for (int cpu = 0; cpu < w.m->num_cpus(); ++cpu) {
      invalidations += w.m->stack(cpu).stats().snoop_invalidations;
    }
    EXPECT_EQ(invalidations, 0u) << "numa=" << numa;
  }
}

TEST(ProtocolConformance, MesifForwardsCleanLines) {
  for (const bool numa : {false, true}) {
    RanWorkload w = RunContendedWorkload(
        numa ? NumaWith(mem::Protocol::kMesif) : SmpWith(mem::Protocol::kMesif),
        4);
    ASSERT_NE(w.m->checker(), nullptr);
    w.m->checker()->CheckAll();
    EXPECT_GT(w.m->fabric().TotalCounts().c2c_transfers, 0u)
        << "numa=" << numa;
  }
}

// --- Fault injection: each protocol-specific invariant must fire -----------

using ProtocolCheckerDeath = ::testing::Test;

TEST(ProtocolCheckerDeath, ForeignStateViolatesProtocolState) {
  RanWorkload w = RunSharedReadWorkload(SmpWith(mem::Protocol::kMesi), 4);
  // Owned does not exist under MESI.
  w.m->stack(1).TestOnlyCorruptLine(w.shared_line, Mesi::kO);
  EXPECT_DEATH(w.m->checker()->CheckLineSettled(w.shared_line),
               "protocol-state");
}

TEST(ProtocolCheckerDeath, TwoOwnedCopiesViolateSingleOwnerOfDirty) {
  RanWorkload w = RunSharedReadWorkload(SmpWith(mem::Protocol::kMoesi), 4);
  ASSERT_NE(w.m->stack(0).LineState(w.shared_line), Mesi::kI);
  ASSERT_NE(w.m->stack(1).LineState(w.shared_line), Mesi::kI);
  w.m->stack(0).TestOnlyCorruptLine(w.shared_line, Mesi::kO);
  w.m->stack(1).TestOnlyCorruptLine(w.shared_line, Mesi::kO);
  EXPECT_DEATH(w.m->checker()->CheckLineSettled(w.shared_line),
               "single-owner-of-dirty");
}

TEST(ProtocolCheckerDeath, TwoForwardersViolateExactlyOneForwarder) {
  RanWorkload w = RunSharedReadWorkload(SmpWith(mem::Protocol::kMesif), 4);
  ASSERT_NE(w.m->stack(0).LineState(w.shared_line), Mesi::kI);
  ASSERT_NE(w.m->stack(1).LineState(w.shared_line), Mesi::kI);
  w.m->stack(0).TestOnlyCorruptLine(w.shared_line, Mesi::kF);
  w.m->stack(1).TestOnlyCorruptLine(w.shared_line, Mesi::kF);
  EXPECT_DEATH(w.m->checker()->CheckLineSettled(w.shared_line),
               "exactly-one-forwarder");
}

TEST(ProtocolCheckerDeath, TwoSmCopiesViolateUpdateDelivery) {
  RanWorkload w = RunContendedWorkload(SmpWith(mem::Protocol::kDragon), 4);
  ASSERT_NE(w.m->stack(0).LineState(w.shared_line), Mesi::kI);
  ASSERT_NE(w.m->stack(1).LineState(w.shared_line), Mesi::kI);
  w.m->stack(0).TestOnlyCorruptLine(w.shared_line, Mesi::kSm);
  w.m->stack(1).TestOnlyCorruptLine(w.shared_line, Mesi::kSm);
  EXPECT_DEATH(w.m->checker()->CheckLineSettled(w.shared_line),
               "update-delivery");
}

TEST(ProtocolCheckerDeath, ExclusiveBesideCopiesViolatesNoStaleCopy) {
  RanWorkload w = RunContendedWorkload(SmpWith(mem::Protocol::kDragon), 4);
  ASSERT_NE(w.m->stack(0).LineState(w.shared_line), Mesi::kI);
  ASSERT_NE(w.m->stack(1).LineState(w.shared_line), Mesi::kI);
  // A Modified copy while others still hold the line: those copies missed
  // an update broadcast and are stale.
  w.m->stack(0).TestOnlyCorruptLine(w.shared_line, Mesi::kM);
  w.m->stack(1).TestOnlyCorruptLine(w.shared_line, Mesi::kSc);
  EXPECT_DEATH(w.m->checker()->CheckLineSettled(w.shared_line),
               "no-stale-copy");
}

TEST(ProtocolCheckerDeath, UpdateUnderInvalidationProtocolViolatesProtocolOp) {
  RanWorkload w = RunContendedWorkload(SmpWith(mem::Protocol::kMesi), 4);
  EXPECT_DEATH(
      w.m->checker()->Request(0, mem::BusOp::kUpdate, w.shared_line, 0),
      "protocol-op");
}

TEST(ProtocolCheckerDeath, RfoUnderDragonViolatesProtocolOp) {
  RanWorkload w = RunContendedWorkload(SmpWith(mem::Protocol::kDragon), 4);
  EXPECT_DEATH(
      w.m->checker()->Request(0, mem::BusOp::kReadExcl, w.shared_line, 0),
      "protocol-op");
}

}  // namespace
}  // namespace cobra::verify
