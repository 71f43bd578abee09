// COBRA framework tests: profile aggregation, loop discovery from BTB
// samples, the two-level DEAR filter, trace-cache deployment/rollback
// mechanics (including behavioural equivalence of patched binaries), the
// optimizers, and the end-to-end runtime on the DAXPY pathology.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <random>
#include <span>
#include <vector>

#include "cobra/cobra.h"
#include "isa/assembler.h"
#include "kgen/emitters.h"
#include "kgen/program.h"
#include "machine/machine.h"
#include "rt/team.h"

namespace cobra::core {
namespace {

using isa::Addr;

// --- ThreadProfile ------------------------------------------------------------

perfmon::Sample MakeSample(std::uint64_t index, Addr pc) {
  perfmon::Sample sample;
  sample.index = index;
  sample.pc = pc;
  return sample;
}

TEST(ThreadProfile, DearRecordsDedupAndClassify) {
  ThreadProfile profile(/*coherent_latency_threshold=*/180);
  perfmon::Sample s = MakeSample(0, 0x1000);
  s.dear = cpu::Dear::Record{0x1010, 0x9000, 130, true};
  profile.AddSample(s);
  // Same record carried in the next sample: must not double count.
  s.index = 1;
  profile.AddSample(s);
  // A new, coherent-latency record.
  s.index = 2;
  s.dear = cpu::Dear::Record{0x1010, 0x9080, 195, true};
  profile.AddSample(s);

  ASSERT_EQ(profile.loads().size(), 1u);
  const DelinquentLoad& load = profile.loads().begin()->second;
  EXPECT_EQ(load.samples, 2u);
  EXPECT_EQ(load.coherent_samples, 1u);
  EXPECT_EQ(load.total_latency, 130u + 195u);
}

// Feeds one DEAR record per sample and returns the resulting load entry.
DelinquentLoad RunDearStream(std::initializer_list<Addr> data_addrs) {
  ThreadProfile profile;
  std::uint64_t index = 0;
  for (const Addr addr : data_addrs) {
    perfmon::Sample s = MakeSample(index++, 0x1000);
    s.dear = cpu::Dear::Record{0x1010, addr, 130, true};
    profile.AddSample(s);
  }
  return profile.loads().begin()->second;
}

TEST(ThreadProfile, StrideConfirmationIsDirectionIndependent) {
  // Ascending stream around stride 256, wobbling by 8 — inside the
  // max(|stride|/8, 64) tolerance.
  const DelinquentLoad up = RunDearStream({0x9000, 0x9100, 0x9208, 0x9300});
  EXPECT_EQ(up.stride, 256);
  EXPECT_EQ(up.stride_confirmations, 3u);
  // The mirror-image descending stream must confirm identically.
  const DelinquentLoad down = RunDearStream({0x9300, 0x9200, 0x90f8, 0x9000});
  EXPECT_EQ(down.stride, -256);
  EXPECT_EQ(down.stride_confirmations, 3u);
}

TEST(ThreadProfile, StrideToleranceFloorIsSymmetricNearSmallStrides) {
  // |stride| = 8 puts the tolerance at the floor (64). A wobble of 56 in
  // magnitude must confirm for both directions.
  const DelinquentLoad up = RunDearStream({0x9000, 0x9008, 0x9048});
  EXPECT_EQ(up.stride, 8);
  EXPECT_EQ(up.stride_confirmations, 2u);
  const DelinquentLoad down = RunDearStream({0x9048, 0x9040, 0x9000});
  EXPECT_EQ(down.stride, -8);
  EXPECT_EQ(down.stride_confirmations, 2u);
}

TEST(ThreadProfile, StrideSignFlipRestartsConfirmation) {
  // Two confirmed ascending deltas, then the stream turns around: the
  // direction check must reset the candidate, not confirm by magnitude.
  const DelinquentLoad load = RunDearStream({0x9000, 0x9100, 0x9200, 0x9100});
  EXPECT_EQ(load.stride, -256);
  EXPECT_EQ(load.stride_confirmations, 1u);
}

TEST(StaticPriorArbitration, MismatchLaterConfirmedDynamically) {
  // Regression for the stride_confirmations x static_priors interplay: a
  // dynamic stride that first *contradicts* the static chrec is held back
  // (kMismatch), but when the profiled stream later locks onto the
  // lattice, the very next confirmation must arbitrate kConfirmed — the
  // prior fast path deploys on a single confirmation, even though the
  // sign flip that preceded it reset the confirmation counter to one.
  kgen::Program prog;
  const kgen::LoopInfo daxpy = EmitDaxpy(prog, "daxpy", kgen::PrefetchPolicy{});
  const analysis::LoopScev scev =
      analysis::AnalyzeLoop(prog.image(), daxpy.head, daxpy.back_branch_pc);
  ASSERT_TRUE(scev.solved);
  const analysis::MemAccess* affine = nullptr;
  for (const analysis::MemAccess& access : scev.accesses) {
    if (access.cls == analysis::AddrClass::kAffine) affine = &access;
  }
  ASSERT_NE(affine, nullptr);
  ASSERT_GT(affine->stride, 0);

  // Phase 1: the DEAR stream runs *against* the static direction — the
  // profile's stride is off the lattice and the load is held back.
  const std::int64_t s = affine->stride;
  const Addr base = 0x9000;
  const DelinquentLoad descending = RunDearStream(
      {base + 2 * s, base + s, base});  // stride -s, 2 confirmations
  EXPECT_EQ(descending.stride, -s);
  EXPECT_EQ(ArbitrateStaticPrior(scev, affine->pc, descending.stride),
            PriorVerdict::kMismatch);

  // Phase 2: the stream turns around onto the static stride. The sign
  // flip restarts confirmation at one — below any stride_confirmations
  // setting above 1 — yet the prior must qualify the load immediately.
  const DelinquentLoad converged = RunDearStream(
      {base + 2 * s, base + s, base, base + s});  // tail delta +s
  EXPECT_EQ(converged.stride, s);
  EXPECT_EQ(converged.stride_confirmations, 1u);
  const CobraConfig config;
  EXPECT_LT(converged.stride_confirmations,
            static_cast<std::uint64_t>(config.stride_confirmations));
  EXPECT_EQ(ArbitrateStaticPrior(scev, affine->pc, converged.stride),
            PriorVerdict::kConfirmed);

  // Off-lattice strides stay held back; an unanalyzed pc carries no prior.
  EXPECT_EQ(ArbitrateStaticPrior(scev, affine->pc, s + 4),
            PriorVerdict::kMismatch);
  EXPECT_EQ(ArbitrateStaticPrior(scev, affine->pc, 0),
            PriorVerdict::kMismatch);
  EXPECT_EQ(ArbitrateStaticPrior(scev, /*load_pc=*/0, s),
            PriorVerdict::kNoPrior);
}

TEST(ThreadProfile, LoopDiscoveryFromBackwardBranches) {
  ThreadProfile profile;
  perfmon::Sample s = MakeSample(0, 0x1000);
  s.btb[0] = {0x1042, 0x1020};  // backward: loop [0x1020, 0x1042]
  s.btb[1] = {0x1010, 0x1050};  // forward: not a loop
  profile.AddSample(s);
  profile.AddSample(MakeSample(1, 0x1001));  // empty BTB: no-op

  ASSERT_EQ(profile.loops().size(), 1u);
  const LoopCandidate& loop = profile.loops().begin()->second;
  EXPECT_EQ(loop.head, 0x1020u);
  EXPECT_EQ(loop.back_branch_pc, 0x1042u);
  EXPECT_EQ(loop.hits, 1u);
}

TEST(SystemProfile, AggregatesAndSortsByHotness) {
  ThreadProfile a, b;
  perfmon::Sample s = MakeSample(0, 0);
  s.btb[0] = {0x1042, 0x1020};
  s.btb[1] = {0x2042, 0x2020};
  a.AddSample(s);
  perfmon::Sample t = MakeSample(0, 0);
  t.btb[0] = {0x2042, 0x2020};
  b.AddSample(t);

  const SystemProfile merged = SystemProfile::Aggregate({&a, &b});
  ASSERT_EQ(merged.hot_loops.size(), 2u);
  EXPECT_EQ(merged.hot_loops[0].head, 0x2020u);  // 2 hits
  EXPECT_EQ(merged.hot_loops[0].hits, 2u);
  EXPECT_EQ(merged.hot_loops[1].head, 0x1020u);
}

// Delivering a stream in 16-sample batches must build exactly the profile
// that feeding the same samples to a bare ThreadProfile builds. The stream
// is longer than 3 x 4096 samples, so it would wrap any per-thread sample
// buffer of 4096 entries several times.
TEST(MonitoringThread, BatchedDeliveryMatchesDirectProfile) {
  constexpr std::size_t kSamples = 3 * 4096 + 1000;
  constexpr std::size_t kBatch = 16;
  std::mt19937_64 rng(20070910);
  std::vector<perfmon::Sample> stream;
  stream.reserve(kSamples);
  Cycle now = 0;
  std::uint64_t l3 = 0, bus = 0, hitm = 0, hit = 0;
  for (std::size_t i = 0; i < kSamples; ++i) {
    // Four loops of 0x40 bytes each; samples land inside or between them.
    const Addr loop_head = 0x1000 + 0x100 * (rng() % 4);
    perfmon::Sample s = MakeSample(i, loop_head + rng() % 0x60);
    now += 500 + rng() % 1500;
    s.timestamp = now;
    l3 += rng() % 8;
    bus += rng() % 16;
    hitm += rng() % 4;
    hit += rng() % 4;
    s.counters = {l3, bus, hitm, hit};
    for (cpu::Btb::Entry& entry : s.btb) {
      if (rng() % 3 == 0) continue;  // leave some entries empty
      const Addr head = 0x1000 + 0x100 * (rng() % 4);
      // Mostly back-edges, some forward branches.
      entry = rng() % 5 == 0 ? cpu::Btb::Entry{head, head + 0x80}
                             : cpu::Btb::Entry{head + 0x40, head};
    }
    if (rng() % 2 == 0) {
      s.dear = cpu::Dear::Record{0x1010 + 0x100 * (rng() % 4),
                                 0x90000 + 128 * (rng() % 4096),
                                 120 + rng() % 100, true};
    }
    stream.push_back(s);
  }

  MonitoringThread monitor(/*tid=*/0, /*cpu=*/0,
                           /*coherent_latency_threshold=*/180,
                           /*attribution_warmup_samples=*/64);
  for (std::size_t at = 0; at < stream.size(); at += kBatch) {
    const std::size_t n = std::min(kBatch, stream.size() - at);
    monitor.Consume(std::span<const perfmon::Sample>(stream).subspan(at, n));
  }
  ThreadProfile direct(/*coherent_latency_threshold=*/180,
                       /*attribution_warmup_samples=*/64);
  for (const perfmon::Sample& s : stream) direct.AddSample(s);

  EXPECT_EQ(monitor.batches_received(), (kSamples + kBatch - 1) / kBatch);
  const ThreadProfile& batched = monitor.profile();
  EXPECT_EQ(batched.samples_seen(), kSamples);
  EXPECT_EQ(batched.loops(), direct.loops());
  EXPECT_EQ(batched.loads(), direct.loads());
  EXPECT_EQ(batched.totals(), direct.totals());
  // The stream exercises every part of the profile.
  EXPECT_EQ(batched.loops().size(), 4u);
  EXPECT_EQ(batched.loads().size(), 4u);
  std::uint64_t attributed = 0;
  for (const auto& [head, loop] : batched.loops()) {
    attributed += loop.attributed_samples;
  }
  EXPECT_GT(attributed, 0u);
}

TEST(CounterTotals, CoherentRatio) {
  CounterTotals totals;
  totals.bus_memory = 200;
  totals.bus_rd_hitm = 30;
  totals.bus_rd_hit = 20;
  EXPECT_DOUBLE_EQ(totals.CoherentRatio(), 0.25);
  EXPECT_DOUBLE_EQ(CounterTotals{}.CoherentRatio(), 0.0);
}

// --- Optimizer over raw images -------------------------------------------------

TEST(Optimizer, FindAndRewriteLfetches) {
  isa::BinaryImage image;
  const Addr b0 = image.AppendBundle(isa::Lfetch(40), isa::Nop(),
                                     isa::Pred(16, isa::LfetchPostInc(41, 8)));
  const Addr b1 = image.AppendBundle(isa::Nop(), isa::Lfetch(42),
                                     isa::Break());
  auto pcs = FindLfetches(image, b0, b1);
  ASSERT_EQ(pcs.size(), 3u);

  EXPECT_EQ(ApplyOptimization(image, b0, b1, OptKind::kNoprefetch), 3);
  EXPECT_EQ(image.Fetch(pcs[0]).op, isa::Opcode::kNop);
  EXPECT_EQ(image.Fetch(pcs[1]).op, isa::Opcode::kAddImm);  // post-inc kept
  EXPECT_TRUE(FindLfetches(image, b0, b1).empty());
}

TEST(Optimizer, ExclSetsHintOnceAndCounts) {
  isa::BinaryImage image;
  isa::LfetchHint excl;
  excl.excl = true;
  const Addr b0 = image.AppendBundle(isa::Lfetch(40), isa::Lfetch(41, excl),
                                     isa::Nop());
  // Only the plain lfetch is rewritten; the pre-hinted one is left alone.
  EXPECT_EQ(ApplyOptimization(image, b0, b0, OptKind::kPrefetchExcl), 1);
  EXPECT_TRUE(image.Fetch(isa::MakePc(b0, 0)).lf_hint.excl);
  EXPECT_EQ(ApplyOptimization(image, b0, b0, OptKind::kPrefetchExcl), 0);
}

TEST(Optimizer, NoneKindLeavesCodeUntouched) {
  isa::BinaryImage image;
  const Addr b0 = image.AppendBundle(isa::Lfetch(40), isa::Nop(), isa::Nop());
  EXPECT_EQ(ApplyOptimization(image, b0, b0, OptKind::kNone), 0);
  EXPECT_EQ(image.Fetch(isa::MakePc(b0, 0)).op, isa::Opcode::kLfetch);
}

// --- TraceCache -----------------------------------------------------------------

class TraceCacheFixture : public ::testing::Test {
 protected:
  // A DAXPY program plus machinery to execute and verify it.
  void Build() {
    info_ = EmitDaxpy(prog_, "daxpy", kgen::PrefetchPolicy{});
    x_ = prog_.Alloc(kN * 8);
    y_ = prog_.Alloc(kN * 8);
    machine::MachineConfig cfg = machine::SmpServerConfig(2);
    cfg.mem.memory_bytes = 1 << 22;
    machine_ = std::make_unique<machine::Machine>(cfg, &prog_.image());
    team_ = std::make_unique<rt::Team>(machine_.get(), 2);
  }

  void InitArrays() {
    for (int i = 0; i < kN; ++i) {
      machine_->memory().WriteDouble(x_ + 8 * static_cast<Addr>(i), 1.0 + i);
      machine_->memory().WriteDouble(y_ + 8 * static_cast<Addr>(i), 5.0 - i);
    }
  }

  void RunDaxpy() {
    team_->Run(info_.entry, [&](int tid, cpu::RegisterFile& regs) {
      const auto chunk = rt::StaticChunk(tid, 2, kN);
      regs.WriteGr(14, x_ + 8 * static_cast<Addr>(chunk.begin));
      regs.WriteGr(15, y_ + 8 * static_cast<Addr>(chunk.begin));
      regs.WriteGr(16, static_cast<std::uint64_t>(chunk.size()));
      regs.WriteFr(6, 2.0);
    });
  }

  bool VerifyOnePass() {
    for (int i = 0; i < kN; ++i) {
      const double expected = 2.0 * (1.0 + i) + (5.0 - i);
      if (machine_->memory().ReadDouble(y_ + 8 * static_cast<Addr>(i)) !=
          expected) {
        return false;
      }
    }
    return true;
  }

  static constexpr int kN = 257;
  kgen::Program prog_;
  kgen::LoopInfo info_;
  Addr x_ = 0, y_ = 0;
  std::unique_ptr<machine::Machine> machine_;
  std::unique_ptr<rt::Team> team_;
};

TEST_F(TraceCacheFixture, DeployPreservesBehaviour) {
  Build();
  TraceCache cache(&prog_.image());
  const int id = cache.Deploy(
      LoopRegion{info_.head, info_.back_branch_pc}, OptKind::kNoprefetch);
  ASSERT_GE(id, 0);
  EXPECT_TRUE(cache.Get(id)->active);
  EXPECT_GT(cache.Get(id)->lfetches_rewritten, 0);
  // The original head bundle now redirects into the code cache.
  const isa::Instruction branch =
      prog_.image().Fetch(isa::MakePc(info_.head, 2));
  EXPECT_EQ(branch.op, isa::Opcode::kBrl);
  EXPECT_TRUE(prog_.image().InCodeCache(cache.Get(id)->trace_head));

  InitArrays();
  RunDaxpy();
  EXPECT_TRUE(VerifyOnePass());  // optimized trace computes the same values
}

TEST_F(TraceCacheFixture, RevertRestoresOriginalBits) {
  Build();
  const isa::EncodedSlot before[3] = {
      prog_.image().Raw(isa::MakePc(info_.head, 0)),
      prog_.image().Raw(isa::MakePc(info_.head, 1)),
      prog_.image().Raw(isa::MakePc(info_.head, 2))};
  TraceCache cache(&prog_.image());
  const int id = cache.Deploy(
      LoopRegion{info_.head, info_.back_branch_pc}, OptKind::kNoprefetch);
  ASSERT_GE(id, 0);
  cache.Revert(id);
  EXPECT_FALSE(cache.Get(id)->active);
  for (unsigned slot = 0; slot < 3; ++slot) {
    EXPECT_EQ(prog_.image().Raw(isa::MakePc(info_.head, slot)),
              before[slot]);
  }
  // Reapply re-redirects without rebuilding.
  const auto built = cache.traces_built();
  cache.Reapply(id);
  EXPECT_TRUE(cache.Get(id)->active);
  EXPECT_EQ(cache.traces_built(), built);
  InitArrays();
  RunDaxpy();
  EXPECT_TRUE(VerifyOnePass());
}

TEST_F(TraceCacheFixture, DoubleDeployRefusedWhileActive) {
  Build();
  TraceCache cache(&prog_.image());
  const LoopRegion region{info_.head, info_.back_branch_pc};
  const int first = cache.Deploy(region, OptKind::kNoprefetch);
  ASSERT_GE(first, 0);
  EXPECT_EQ(cache.Deploy(region, OptKind::kPrefetchExcl), -1);
  cache.Revert(first);
  // After revert, redeploying (e.g. with the other strategy) is allowed.
  const int second = cache.Deploy(region, OptKind::kPrefetchExcl);
  EXPECT_GE(second, 0);
  EXPECT_NE(second, first);
}

TEST_F(TraceCacheFixture, RefusesEscapingRegions) {
  Build();
  // A region with a forward branch escaping it (the kernel entry guard).
  TraceCache cache(&prog_.image());
  const LoopRegion bogus{info_.entry, info_.back_branch_pc};
  EXPECT_EQ(cache.Deploy(bogus, OptKind::kNoprefetch), -1);
}

TEST_F(TraceCacheFixture, RefusesCodeCacheRegions) {
  Build();
  TraceCache cache(&prog_.image());
  const int id = cache.Deploy(
      LoopRegion{info_.head, info_.back_branch_pc}, OptKind::kNone);
  ASSERT_GE(id, 0);
  const Addr trace_head = cache.Get(id)->trace_head;
  // The trace's own loop must not be re-deployed (infinite regress).
  const Addr trace_back = trace_head + (isa::BundleAddr(info_.back_branch_pc) -
                                        isa::BundleAddr(info_.head));
  EXPECT_EQ(cache.Deploy(LoopRegion{trace_head, isa::MakePc(trace_back, 2)},
                         OptKind::kNoprefetch),
            -1);
}

// --- End-to-end runtime on the DAXPY pathology -----------------------------------

class RuntimeFixture : public ::testing::Test {
 protected:
  struct RunResult {
    Cycle cycles = 0;
    bool verified = false;
  };

  // Runs `reps` DAXPY passes over a small working set with 2 threads,
  // optionally under COBRA; returns wall cycles for the measured reps.
  RunResult Run(bool with_cobra, const CobraConfig& config, int reps = 30) {
    kgen::Program prog;
    const kgen::LoopInfo daxpy =
        EmitDaxpy(prog, "daxpy", kgen::PrefetchPolicy{});
    constexpr std::int64_t kN = 8192;  // 128K working set
    const Addr x = prog.Alloc(kN * 8);
    const Addr y = prog.Alloc(kN * 8);
    machine::MachineConfig cfg = machine::SmpServerConfig(2);
    cfg.mem.memory_bytes = 1 << 24;
    machine::Machine machine(cfg, &prog.image());
    for (std::int64_t i = 0; i < kN; ++i) {
      machine.memory().WriteDouble(x + 8 * static_cast<Addr>(i), 1.0);
      machine.memory().WriteDouble(y + 8 * static_cast<Addr>(i), 2.0);
    }

    std::unique_ptr<CobraRuntime> cobra;
    if (with_cobra) {
      cobra = std::make_unique<CobraRuntime>(&machine, config);
      cobra->AttachAll(2);
    }

    rt::Team team(&machine, 2);
    auto Rep = [&] {
      team.Run(daxpy.entry, [&](int tid, cpu::RegisterFile& regs) {
        const auto chunk = rt::StaticChunk(tid, 2, kN);
        regs.WriteGr(14, x + 8 * static_cast<Addr>(chunk.begin));
        regs.WriteGr(15, y + 8 * static_cast<Addr>(chunk.begin));
        regs.WriteGr(16, static_cast<std::uint64_t>(chunk.size()));
        regs.WriteFr(6, 0.5);
      });
    };
    for (int i = 0; i < 6; ++i) Rep();  // warm-up + COBRA learning time
    const Cycle start = machine.GlobalTime();
    for (int i = 0; i < reps; ++i) Rep();
    RunResult result;
    result.cycles = machine.GlobalTime() - start;
    if (cobra) stats_ = cobra->stats();

    result.verified = true;
    for (std::int64_t i = 0; i < kN; ++i) {
      double expected = 2.0;
      for (int rep = 0; rep < reps + 6; ++rep) {
        expected = std::fma(0.5, 1.0, expected);
      }
      if (machine.memory().ReadDouble(y + 8 * static_cast<Addr>(i)) !=
          expected) {
        result.verified = false;
      }
    }
    return result;
  }

  CobraRuntime::Stats stats_{};
};

TEST_F(RuntimeFixture, NoprefetchStrategySpeedsUpSharingBoundDaxpy) {
  CobraConfig config;
  config.strategy = OptKind::kNoprefetch;
  // DAXPY's coherence cost is store-side (write misses); the load-only DEAR
  // cannot see it, so the per-loop load filter must be relaxed here — the
  // same blind spot the paper's heuristic has on hardware.
  config.require_coherent_load_in_loop = false;
  const RunResult baseline = Run(false, config);
  const RunResult optimized = Run(true, config);
  ASSERT_TRUE(baseline.verified);
  ASSERT_TRUE(optimized.verified);  // patched binary still correct
  EXPECT_GT(stats_.deployments, 0u);
  EXPECT_GT(stats_.lfetches_rewritten, 0u);
  EXPECT_GT(stats_.last_coherent_ratio, 0.0);
  // COBRA must recover a good part of the prefetch-induced coherence cost.
  EXPECT_LT(static_cast<double>(optimized.cycles),
            static_cast<double>(baseline.cycles) * 0.97);
}

TEST_F(RuntimeFixture, ExclStrategyDeploysAndStaysBounded) {
  CobraConfig config;
  config.strategy = OptKind::kPrefetchExcl;
  config.require_coherent_load_in_loop = false;
  const RunResult baseline = Run(false, config);
  const RunResult optimized = Run(true, config);
  ASSERT_TRUE(optimized.verified);
  EXPECT_GT(stats_.deployments, 0u);
  EXPECT_GT(stats_.lfetches_rewritten, 0u);
  // Flipping .excl on DAXPY's single alternating chain also hints the
  // read-only x stream — the hazard the paper itself notes ("it could
  // still fetch unnecessary cache lines from other processors"), which is
  // why excl is the weaker of the two optimizations (Fig. 5). The damage
  // must stay bounded; the win cases are exercised by the stencil test
  // below and the NPB suite.
  EXPECT_LT(static_cast<double>(optimized.cycles),
            static_cast<double>(baseline.cycles) * 1.10);
}

TEST_F(RuntimeFixture, CoherentRatioGateBlocksQuietPrograms) {
  CobraConfig config;
  config.strategy = OptKind::kNoprefetch;
  config.coherent_ratio_threshold = 1.1;  // impossible: always below
  Run(true, config);
  EXPECT_GT(stats_.evaluations, 0u);
  EXPECT_EQ(stats_.deployments, 0u);
}

TEST_F(RuntimeFixture, TwoLevelFilterCanBeAblated) {
  CobraConfig config;
  config.strategy = OptKind::kNoprefetch;
  config.require_coherent_load_in_loop = false;
  config.require_coherent_ratio = false;
  Run(true, config);
  // Without the filters COBRA still deploys (more eagerly).
  EXPECT_GT(stats_.deployments, 0u);
}

TEST_F(RuntimeFixture, AdaptiveModeKeepsGoodDeployments) {
  CobraConfig config;
  config.strategy = OptKind::kNoprefetch;
  config.adaptive = true;
  config.require_coherent_load_in_loop = false;
  const RunResult baseline = Run(false, config);
  const RunResult optimized = Run(true, config, 60);
  ASSERT_TRUE(optimized.verified);
  EXPECT_GT(stats_.deployments, 0u);
  // The beneficial noprefetch deployment must survive (no rollback storm).
  EXPECT_LT(stats_.rollbacks, stats_.deployments);
  EXPECT_LT(static_cast<double>(optimized.cycles) /
                static_cast<double>(60) * 30.0,
            static_cast<double>(baseline.cycles) * 1.02);
}

// Halo-exchange stencil: each thread READS lines its neighbours WRITE, so
// coherent misses appear on loads and pass the full two-level DEAR filter.
TEST(RuntimeStencil, FullFilterPathDeploysOnTrueSharing) {
  kgen::Program prog;
  kgen::StreamLoopSpec spec;
  spec.op = kgen::StreamOp::kStencil3Sym;
  const kgen::LoopInfo stencil = EmitStreamLoop(prog, "smooth", spec);
  constexpr std::int64_t kN = 8192;
  const Addr in = prog.Alloc((kN + 2) * 8);
  const Addr out = prog.Alloc((kN + 2) * 8);
  machine::MachineConfig mcfg = machine::SmpServerConfig(4);
  mcfg.mem.memory_bytes = 1 << 24;
  machine::Machine machine(mcfg, &prog.image());
  for (std::int64_t i = 0; i < kN + 2; ++i) {
    machine.memory().WriteDouble(in + 8 * static_cast<Addr>(i), 1.0);
  }

  CobraConfig config;
  config.strategy = OptKind::kNoprefetch;  // full two-level filter active
  CobraRuntime cobra(&machine, config);
  cobra.AttachAll(4);

  rt::Team team(&machine, 4);
  Addr src = in, dst = out;
  for (int step = 0; step < 30; ++step) {
    team.Run(stencil.entry, [&](int tid, cpu::RegisterFile& regs) {
      const auto chunk = rt::StaticChunk(tid, 4, kN);
      regs.WriteGr(14, src + 8 * static_cast<Addr>(chunk.begin));      // left
      regs.WriteGr(15, src + 8 * static_cast<Addr>(chunk.begin + 1));  // mid
      regs.WriteGr(16, src + 8 * static_cast<Addr>(chunk.begin + 2));  // right
      regs.WriteGr(17, dst + 8 * static_cast<Addr>(chunk.begin + 1));
      regs.WriteGr(18, static_cast<std::uint64_t>(chunk.size()));
      regs.WriteFr(6, 0.25);
      regs.WriteFr(7, 0.5);
    });
    std::swap(src, dst);
  }

  const auto& stats = cobra.stats();
  EXPECT_GT(stats.last_coherent_ratio, 0.0);
  EXPECT_GT(stats.deployments, 0u);  // loads qualified via the DEAR filter
  // At least one coherent delinquent load was identified.
  EXPECT_FALSE(cobra.last_profile().coherent_loads.empty());
}

TEST_F(RuntimeFixture, MonitoringOverheadIsCharged) {
  CobraConfig config;
  config.monitor_overhead_cycles = 500;
  config.coherent_ratio_threshold = 1.1;  // no deployments: isolate overhead
  const RunResult cheap = Run(false, config);
  const RunResult monitored = Run(true, config);
  EXPECT_GT(monitored.cycles, cheap.cycles);
}

}  // namespace
}  // namespace cobra::core
