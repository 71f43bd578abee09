// Trace-JIT tests: the superblock compiler, the translation-cache
// lifecycle (harvest / compile / chain / invalidate), and — the part that
// keeps the JIT honest — side-exit exactness: wherever a superblock stops
// (mispredicted branch, predicate-off path, quantum boundary, fabric-bound
// access), the interpreter must land on the exact slot with identical
// register, memory and timing state. Every exactness test runs the same
// program on two machines in quantum lockstep, one with the JIT enabled and
// one forced onto the pure interpreter, and diffs core state at every
// quantum edge.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "cpu/core.h"
#include "isa/assembler.h"
#include "isa/image.h"
#include "isa/instruction.h"
#include "machine/machine.h"
#include "tjit/superblock.h"
#include "tjit/tcache.h"

namespace cobra::tjit {
namespace {

using isa::Addr;
using isa::AddImm;
using isa::AndReg;
using isa::Assembler;
using isa::BinaryImage;
using isa::BrCloop;
using isa::BrCond;
using isa::Break;
using isa::CmpImm;
using isa::CmpRel;
using isa::Encode;
using isa::Instruction;
using isa::Ld;
using isa::Ldf;
using isa::Lfetch;
using isa::MovImm;
using isa::Nop;
using isa::Pred;
using isa::St;
using isa::Stf;

// --- Superblock compiler ----------------------------------------------------

class CompilerFixture : public ::testing::Test {
 protected:
  CompilerFixture() : image_(0x40000000) {}

  Addr Assemble(const std::function<void(Assembler&)>& build) {
    Assembler a(&image_);
    const Addr entry = image_.code_end();
    build(a);
    a.Finish();
    return entry;
  }

  BinaryImage image_;
};

TEST_F(CompilerFixture, CompilesStraightLineUntilBreak) {
  const Addr entry = Assemble([](Assembler& a) {
    a.Emit(MovImm(8, 40));
    a.Emit(AddImm(9, 8, 2));
    a.Emit(Break());
  });
  Superblock sb;
  ASSERT_TRUE(CompileTrace(image_, entry, 512, &sb));
  // The trace stops at the break (uncompilable) with both ALU steps in.
  ASSERT_EQ(sb.steps.size(), 2u);
  EXPECT_EQ(sb.entry, entry);
  EXPECT_EQ(sb.steps[0].kind, StepKind::kAlu);
  EXPECT_TRUE(sb.steps[0].slot0);
  EXPECT_EQ(sb.steps[0].next_idx, 1u);
  EXPECT_EQ(sb.steps[1].next_idx, kNoStep);  // exit edge, chained at runtime
}

TEST_F(CompilerFixture, FusesNopRuns) {
  const Addr entry = Assemble([](Assembler& a) {
    for (int i = 0; i < 6; ++i) a.Emit(Nop());
    a.Emit(Break());
  });
  Superblock sb;
  ASSERT_TRUE(CompileTrace(image_, entry, 512, &sb));
  ASSERT_EQ(sb.steps.size(), 1u);
  EXPECT_EQ(sb.steps[0].kind, StepKind::kNopRun);
  EXPECT_EQ(sb.steps[0].count, 6u);
  EXPECT_EQ(sb.steps[0].slot0_count, 2u);  // two full nop bundles
}

TEST_F(CompilerFixture, CountedLoopGetsInternalBackEdge) {
  Addr loop = 0;
  Assemble([&loop](Assembler& a) {
    const Assembler::Label head = a.NewLabel();
    a.Bind(head);
    loop = a.NextBundleAddr();
    a.Emit(AddImm(8, 8, 1));
    a.EmitBranch(BrCloop(0), head);
    a.Emit(Break());
  });
  Superblock sb;
  ASSERT_TRUE(CompileTrace(image_, loop, 512, &sb));
  // AddImm, the slot-1 nop pad, and the branch whose taken edge loops back
  // to step 0 — the executor never leaves the block while the loop runs.
  ASSERT_EQ(sb.steps.size(), 3u);
  EXPECT_EQ(sb.steps[2].kind, StepKind::kBranch);
  EXPECT_EQ(sb.steps[2].taken_pc, loop);
  EXPECT_EQ(sb.steps[2].taken_idx, 0u);
  EXPECT_EQ(sb.steps[2].next_idx, kNoStep);  // loop exit: chained at runtime
}

TEST_F(CompilerFixture, RoutesMemoryOpsByKind) {
  const Addr entry = Assemble([](Assembler& a) {
    a.Emit(MovImm(9, 0x1000));
    a.Emit(Ld(8, 10, 9));
    a.Emit(St(8, 9, 10));
    a.Emit(Ldf(8, 9));
    a.Emit(Stf(9, 8));
    a.Emit(Lfetch(9));
    a.Emit(Break());
  });
  Superblock sb;
  ASSERT_TRUE(CompileTrace(image_, entry, 512, &sb));
  ASSERT_EQ(sb.steps.size(), 6u);
  EXPECT_EQ(sb.steps[1].kind, StepKind::kLd);
  EXPECT_EQ(sb.steps[2].kind, StepKind::kSt);
  EXPECT_EQ(sb.steps[3].kind, StepKind::kLdf);
  EXPECT_EQ(sb.steps[4].kind, StepKind::kStf);
  EXPECT_EQ(sb.steps[5].kind, StepKind::kLfetch);
}

TEST_F(CompilerFixture, RefusesStaleSlots) {
  const Addr entry = Assemble([](Assembler& a) {
    a.Emit(MovImm(8, 1));
    a.Emit(Nop());
    a.Emit(Nop());
    a.Emit(AddImm(8, 8, 1));  // second bundle, slot 0
    a.Emit(Break());
  });
  image_.TestOnlyCorruptSlot(entry + isa::kBundleBytes, Encode(Nop()));
  Superblock sb;
  ASSERT_TRUE(CompileTrace(image_, entry, 512, &sb));
  // The trace must stop before the stale slot: only the first bundle.
  ASSERT_EQ(sb.steps.size(), 2u);
  EXPECT_EQ(sb.steps[1].kind, StepKind::kNopRun);
  EXPECT_EQ(sb.steps[1].count, 2u);
}

TEST_F(CompilerFixture, StaleEntryCompilesToNothing) {
  const Addr entry = Assemble([](Assembler& a) {
    a.Emit(MovImm(8, 1));
    a.Emit(Break());
  });
  image_.TestOnlyCorruptSlot(entry, Encode(Nop()));
  Superblock sb;
  EXPECT_FALSE(CompileTrace(image_, entry, 512, &sb));
}

TEST_F(CompilerFixture, HonorsMaxSteps) {
  const Addr entry = Assemble([](Assembler& a) {
    for (int i = 0; i < 12; ++i) a.Emit(AddImm(8, 8, 1));
    a.Emit(Break());
  });
  Superblock sb;
  ASSERT_TRUE(CompileTrace(image_, entry, 4, &sb));
  EXPECT_EQ(sb.steps.size(), 4u);
}

// --- Translation cache lifecycle --------------------------------------------

class TcacheFixture : public CompilerFixture {
 protected:
  // A counted self-loop plus trailing break; returns the loop head.
  Addr AssembleLoop() {
    Addr loop = 0;
    Assemble([&loop](Assembler& a) {
      const Assembler::Label head = a.NewLabel();
      a.Bind(head);
      loop = a.NextBundleAddr();
      a.Emit(AddImm(8, 8, 1));
      a.EmitBranch(BrCloop(0), head);
      a.Emit(Break());
    });
    return loop;
  }

  TjitConfig SmallConfig() {
    TjitConfig cfg;
    cfg.hot_threshold = 3;
    cfg.max_trace_steps = 16;
    cfg.max_cache_steps = 16;
    return cfg;
  }
};

TEST_F(TcacheFixture, HarvestsAtThresholdAndCaches) {
  const Addr loop = AssembleLoop();
  TranslationCache tc(&image_, SmallConfig());
  EXPECT_TRUE(tc.BeginSegment());  // first segment adopts the generation
  EXPECT_EQ(tc.Lookup(loop), nullptr);
  EXPECT_EQ(tc.NoteLoopEdge(loop), nullptr);  // count 1
  EXPECT_EQ(tc.NoteLoopEdge(loop), nullptr);  // count 2
  Superblock* sb = tc.NoteLoopEdge(loop);     // count 3 = threshold
  ASSERT_NE(sb, nullptr);
  EXPECT_EQ(sb->entry, loop);
  EXPECT_EQ(tc.stats().compiles, 1u);
  EXPECT_EQ(tc.Lookup(loop), sb);
  EXPECT_EQ(tc.NoteLoopEdge(loop), sb);  // cached, no recompile
  EXPECT_EQ(tc.stats().compiles, 1u);
  EXPECT_EQ(tc.Chain(loop), sb);
}

TEST_F(TcacheFixture, FlushesWhenThePlanGenerationMoves) {
  const Addr loop = AssembleLoop();
  TranslationCache tc(&image_, SmallConfig());
  tc.BeginSegment();
  for (int i = 0; i < 3; ++i) tc.NoteLoopEdge(loop);
  ASSERT_NE(tc.Lookup(loop), nullptr);

  // An unchanged generation keeps the cache.
  EXPECT_FALSE(tc.BeginSegment());
  EXPECT_NE(tc.Lookup(loop), nullptr);

  // Any patch bumps plan_generation; the next segment flushes wholesale.
  image_.Patch(loop, AddImm(8, 8, 2));
  EXPECT_TRUE(tc.BeginSegment());
  EXPECT_EQ(tc.stats().flushes, 1u);
  EXPECT_EQ(tc.Lookup(loop), nullptr);
  EXPECT_EQ(tc.Chain(loop), nullptr);
}

TEST_F(TcacheFixture, NegativeCachesUncompilableHeads) {
  const Addr loop = AssembleLoop();
  image_.TestOnlyCorruptSlot(loop, Encode(Nop()));
  TranslationCache tc(&image_, SmallConfig());
  tc.BeginSegment();
  for (int i = 0; i < 8; ++i) EXPECT_EQ(tc.NoteLoopEdge(loop), nullptr);
  EXPECT_EQ(tc.stats().compiles, 0u);  // one failed attempt, never retried
  EXPECT_EQ(tc.Lookup(loop), nullptr);
}

TEST_F(TcacheFixture, EvictsWholesaleWhenOverCapacity) {
  // Two independent loops; a cache sized for one block forces a flush when
  // the second compiles.
  Addr loop_a = 0;
  Addr loop_b = 0;
  Assemble([&](Assembler& a) {
    const Assembler::Label head_a = a.NewLabel();
    a.Bind(head_a);
    loop_a = a.NextBundleAddr();
    a.Emit(AddImm(8, 8, 1));
    a.EmitBranch(BrCloop(0), head_a);
    const Assembler::Label head_b = a.NewLabel();
    a.Bind(head_b);
    loop_b = a.NextBundleAddr();
    a.Emit(AddImm(9, 9, 1));
    a.EmitBranch(BrCloop(0), head_b);
    a.Emit(Break());
  });
  TjitConfig cfg = SmallConfig();
  cfg.max_trace_steps = 4;
  cfg.max_cache_steps = 4;  // room for one block only
  TranslationCache tc(&image_, cfg);
  tc.BeginSegment();
  for (int i = 0; i < 3; ++i) tc.NoteLoopEdge(loop_a);
  ASSERT_NE(tc.Lookup(loop_a), nullptr);
  for (int i = 0; i < 3; ++i) tc.NoteLoopEdge(loop_b);
  EXPECT_GE(tc.stats().flushes, 1u);
  EXPECT_LE(tc.total_steps(), cfg.max_cache_steps);
}

// --- COBRA_TJIT --------------------------------------------------------------

// Sets COBRA_TJIT for one scope and restores the prior value (CI runs the
// whole suite under COBRA_TJIT=off).
class ScopedTjitEnv {
 public:
  explicit ScopedTjitEnv(const char* value) {
    if (const char* prior = std::getenv("COBRA_TJIT")) prior_ = prior;
    setenv("COBRA_TJIT", value, 1);
  }
  ~ScopedTjitEnv() {
    if (prior_) {
      setenv("COBRA_TJIT", prior_->c_str(), 1);
    } else {
      unsetenv("COBRA_TJIT");
    }
  }

 private:
  std::optional<std::string> prior_;
};

TEST(TjitEnv, AcceptsOnAndOffForms) {
  TestOnlySetTjitEnabled(true);
  for (const char* on : {"on", "1", ""}) {
    ScopedTjitEnv env(on);
    EXPECT_TRUE(TjitConfigFromEnv().enabled) << on;
  }
  for (const char* off : {"off", "0", "OFF"}) {
    ScopedTjitEnv env(off);
    EXPECT_FALSE(TjitConfigFromEnv().enabled) << off;
  }
}

// A mistyped value must not silently leave the JIT on.
TEST(TjitEnvDeathTest, RejectsUnknownValuesNamingTheAcceptedForms) {
  for (const char* bad : {"no", "offf"}) {
    EXPECT_DEATH(
        {
          setenv("COBRA_TJIT", bad, 1);
          TjitConfigFromEnv();
        },
        std::string("COBRA_TJIT=") + bad + " is not one of on, 1, off, 0, OFF")
        << bad;
  }
}

// --- Side-exit exactness against the interpreter ----------------------------

class SideExitFixture : public ::testing::Test {
 protected:
  SideExitFixture() : image_(0x40000000) {}

  // Builds one image and two single-CPU machines over it: `jit_` with the
  // trace JIT (machines capture COBRA_TJIT at construction) and `interp_`
  // forced onto the pure interpreter.
  void Build(const std::function<void(Assembler&)>& build) {
    Assembler a(&image_);
    entry_ = image_.code_end();
    build(a);
    a.Finish();
    machine::MachineConfig cfg = machine::SmpServerConfig(1);
    cfg.mem.memory_bytes = 1 << 22;
    jit_ = std::make_unique<machine::Machine>(cfg, &image_);
    TestOnlySetTjitEnabled(false);
    interp_ = std::make_unique<machine::Machine>(cfg, &image_);
    TestOnlySetTjitEnabled(true);
    ASSERT_NE(jit_->core(0).tjit(), nullptr);
    ASSERT_EQ(interp_->core(0).tjit(), nullptr);
  }

  // Runs both cores to completion in quantum lockstep, diffing full core
  // state at every quantum edge — which is exactly where superblocks are
  // split by side exits, fabric commits and quantum stops.
  void RunLockstep(Cycle quantum) {
    cpu::Core& a = jit_->core(0);
    cpu::Core& b = interp_->core(0);
    a.Start(entry_);
    b.Start(entry_);
    Cycle q_end = 0;
    for (int guard = 0; !a.halted() || !b.halted(); ++guard) {
      ASSERT_LT(guard, 1000000) << "lockstep run did not terminate";
      q_end += quantum;
      a.RunQuantum(q_end);
      b.RunQuantum(q_end);
      ASSERT_EQ(a.pc(), b.pc()) << "pc diverged at quantum edge " << q_end;
      ASSERT_EQ(a.now(), b.now()) << "clock diverged at edge " << q_end;
      ASSERT_EQ(a.instructions_retired(), b.instructions_retired());
      ASSERT_EQ(a.halted(), b.halted());
      for (int r = 8; r <= 15; ++r) {
        ASSERT_EQ(a.regs().ReadGr(r), b.regs().ReadGr(r)) << "r" << r;
      }
      for (int f = 8; f <= 10; ++f) {
        ASSERT_EQ(a.regs().ReadFr(f), b.regs().ReadFr(f)) << "f" << f;
      }
    }
    // The JIT machine must actually have executed superblocks, or the
    // comparison proved nothing.
    EXPECT_GT(a.superblock_retired(), 0u);
    // And the simulated memory images must be byte-equal where written.
    for (Addr addr = 0x1000; addr < 0x1000 + 64 * 8; addr += 8) {
      ASSERT_EQ(jit_->memory().Read(addr, 8), interp_->memory().Read(addr, 8))
          << "memory diverged at 0x" << std::hex << addr;
    }
  }

  BinaryImage image_;
  Addr entry_ = 0;
  std::unique_ptr<machine::Machine> jit_;
  std::unique_ptr<machine::Machine> interp_;
};

// A data-dependent exit branch: the compiled trace assumes the loop keeps
// going, so the final not-taken back edge is a genuine mispredicted-branch
// side exit, mid-block, with live register state.
TEST_F(SideExitFixture, MispredictedBranchLandsExactly) {
  Build([](Assembler& a) {
    a.Emit(MovImm(8, 0));
    a.Emit(MovImm(9, 0x1000));
    const Assembler::Label head = a.NewLabel();
    a.Bind(head);
    a.Emit(AddImm(8, 8, 1));
    a.Emit(St(8, 9, 8));
    a.Emit(Ld(8, 10, 9));
    a.Emit(CmpImm(CmpRel::kLt, 1, 2, 8, 300));
    a.EmitBranch(BrCond(1, 0), head);
    a.Emit(AddImm(11, 10, 7));  // lands here on the final not-taken exit
    a.Emit(Break());
  });
  RunLockstep(50);
  EXPECT_EQ(jit_->core(0).regs().ReadGr(8), 300u);
  EXPECT_EQ(jit_->core(0).regs().ReadGr(11), 307u);
}

// Predication: the store retires with no architectural effect on odd
// iterations. The superblock carries the op; the predicate is evaluated
// live each pass, in both directions.
TEST_F(SideExitFixture, PredicateOffPathMatches) {
  Build([](Assembler& a) {
    a.Emit(MovImm(8, 0));
    a.Emit(MovImm(9, 0x1000));
    a.Emit(MovImm(12, 1));
    const Assembler::Label head = a.NewLabel();
    a.Bind(head);
    a.Emit(AddImm(8, 8, 1));
    a.Emit(AndReg(11, 8, 12));
    a.Emit(CmpImm(CmpRel::kEq, 1, 2, 11, 0));
    a.Emit(Pred(1, St(8, 9, 8)));   // even iterations only
    a.Emit(Pred(2, AddImm(13, 13, 1)));  // odd iterations only
    a.Emit(CmpImm(CmpRel::kLt, 3, 4, 8, 250));
    a.EmitBranch(BrCond(3, 0), head);
    a.Emit(Break());
  });
  RunLockstep(64);
  EXPECT_EQ(jit_->core(0).regs().ReadGr(13), 125u);  // odd count
  EXPECT_EQ(jit_->memory().Read(0x1000, 8), 250u);   // last even store
}

// FP loads/stores and lfetch drive the fused TryLoad/TryStore/TryPrefetch
// cache paths (fp routes around L1; lfetch must neither stall nor diverge
// prefetch bookkeeping).
TEST_F(SideExitFixture, FpAndPrefetchPathsMatch) {
  Build([](Assembler& a) {
    a.Emit(MovImm(8, 0));
    a.Emit(MovImm(9, 0x1000));
    a.Emit(MovImm(10, 0x2000));
    const Assembler::Label head = a.NewLabel();
    a.Bind(head);
    a.Emit(Lfetch(10));
    a.Emit(Ldf(8, 9));
    a.Emit(isa::Fma(9, 8, 1, 1));  // f9 = f8 * 1 + 1
    a.Emit(Stf(9, 9));
    a.Emit(AddImm(9, 9, 8));
    a.Emit(AddImm(10, 10, 128));
    a.Emit(AddImm(8, 8, 1));
    a.Emit(CmpImm(CmpRel::kLt, 1, 2, 8, 200));
    a.EmitBranch(BrCond(1, 0), head);
    a.Emit(Break());
  });
  RunLockstep(100);
}

// A tiny, prime quantum forces superblocks to stop mid-trace (and mid
// nop-run) at arbitrary phases; every stop must leave the architecturally
// exact slot for the interpreter and resume precisely there.
TEST_F(SideExitFixture, QuantumBoundariesSplitTracesExactly) {
  Build([](Assembler& a) {
    a.Emit(MovImm(8, 0));
    a.Emit(MovImm(9, 0x1000));
    const Assembler::Label head = a.NewLabel();
    a.Bind(head);
    a.Emit(AddImm(8, 8, 1));
    for (int i = 0; i < 7; ++i) a.Emit(Nop());
    a.Emit(St(8, 9, 8));
    a.Emit(CmpImm(CmpRel::kLt, 1, 2, 8, 150));
    a.EmitBranch(BrCond(1, 0), head);
    a.Emit(Break());
  });
  RunLockstep(7);
}

// Live patching: rewriting a loop-body instruction mid-run must flush the
// translation cache (plan_generation) and re-harvest; both machines see the
// new semantics at the same instruction boundary.
TEST_F(SideExitFixture, PatchInvalidatesCompiledTraces) {
  Addr body = 0;
  Build([&body](Assembler& a) {
    a.Emit(MovImm(8, 0));
    a.Emit(MovImm(10, 0));
    const Assembler::Label head = a.NewLabel();
    a.Bind(head);
    body = a.NextBundleAddr();
    a.Emit(AddImm(10, 10, 1));
    a.Emit(AddImm(8, 8, 1));
    a.Emit(CmpImm(CmpRel::kLt, 1, 2, 8, 2000));
    a.EmitBranch(BrCond(1, 0), head);
    a.Emit(Break());
  });

  cpu::Core& a = jit_->core(0);
  cpu::Core& b = interp_->core(0);
  a.Start(entry_);
  b.Start(entry_);
  // Phase 1: long enough to compile and run the original superblock.
  a.RunQuantum(2000);
  b.RunQuantum(2000);
  ASSERT_EQ(a.pc(), b.pc());
  ASSERT_FALSE(a.halted());
  const std::uint64_t sb_before = a.superblock_retired();
  EXPECT_GT(sb_before, 0u);
  EXPECT_GT(a.tjit()->stats().compiles, 0u);

  // Patch the accumulator step (r10 += 1 -> += 5). Both machines share the
  // image, so the rewrite is visible to both at the same boundary.
  image_.Patch(body, AddImm(10, 10, 5));

  Cycle q_end = 2000;
  while (!a.halted() || !b.halted()) {
    q_end += 100;
    a.RunQuantum(q_end);
    b.RunQuantum(q_end);
    ASSERT_EQ(a.pc(), b.pc());
    ASSERT_EQ(a.now(), b.now());
    ASSERT_EQ(a.regs().ReadGr(10), b.regs().ReadGr(10));
  }
  // The cache flushed on the generation bump and re-harvested the patched
  // loop into a fresh block.
  EXPECT_GE(a.tjit()->stats().flushes, 1u);
  EXPECT_GT(a.superblock_retired(), sb_before);
  // And the patched semantics actually took effect (not 2000: late
  // iterations add 5), identically on both machines.
  EXPECT_GT(a.regs().ReadGr(10), 2000u);
  EXPECT_EQ(a.regs().ReadGr(10), b.regs().ReadGr(10));
}

}  // namespace
}  // namespace cobra::tjit
