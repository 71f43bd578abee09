// Kernel-generator tests: every emitter is validated functionally against a
// host-side reference, and the generated code shape (Figure 2 properties:
// prologue burst, steady-state prefetch distance, rotating chains) is
// checked structurally.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <ostream>
#include <vector>

#include "isa/disasm.h"
#include "kgen/emitters.h"
#include "kgen/program.h"
#include "machine/machine.h"
#include "rt/team.h"

namespace cobra::kgen {
namespace {

using isa::Addr;

class KgenFixture : public ::testing::Test {
 protected:
  void BuildMachine(int cpus = 4) {
    machine::MachineConfig cfg = machine::SmpServerConfig(cpus);
    cfg.mem.memory_bytes = 1 << 24;
    machine_ = std::make_unique<machine::Machine>(cfg, &prog_.image());
    team_ = std::make_unique<rt::Team>(machine_.get(), cpus);
  }

  void WriteArray(Addr base, const std::vector<double>& v) {
    for (std::size_t i = 0; i < v.size(); ++i) {
      machine_->memory().WriteDouble(base + 8 * i, v[i]);
    }
  }
  std::vector<double> ReadArray(Addr base, std::size_t n) {
    std::vector<double> out(n);
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = machine_->memory().ReadDouble(base + 8 * i);
    }
    return out;
  }

  Program prog_;
  std::unique_ptr<machine::Machine> machine_;
  std::unique_ptr<rt::Team> team_;
};

// --- DAXPY (Figure 2) -------------------------------------------------------

TEST_F(KgenFixture, DaxpyMatchesReferenceAcrossThreadCounts) {
  const LoopInfo info = EmitDaxpy(prog_, "daxpy", PrefetchPolicy{});
  constexpr int kN = 503;  // odd size: uneven chunks
  const Addr x = prog_.Alloc(kN * 8);
  const Addr y = prog_.Alloc(kN * 8);
  BuildMachine(4);

  for (int threads = 1; threads <= 4; ++threads) {
    std::vector<double> xs(kN), ys(kN);
    for (int i = 0; i < kN; ++i) {
      xs[static_cast<std::size_t>(i)] = 0.5 * i;
      ys[static_cast<std::size_t>(i)] = 100.0 - i;
    }
    WriteArray(x, xs);
    WriteArray(y, ys);
    const double a = 2.25;

    // The team always has 4 members; members beyond `threads` get empty
    // chunks (the kernel's n<=0 guard exits immediately).
    team_->Run(info.entry, [&](int tid, cpu::RegisterFile& regs) {
      const auto chunk = tid < threads ? rt::StaticChunk(tid, threads, kN)
                                       : rt::IndexRange{};
      regs.WriteGr(14, x + 8 * static_cast<Addr>(chunk.begin));
      regs.WriteGr(15, y + 8 * static_cast<Addr>(chunk.begin));
      regs.WriteGr(16, static_cast<std::uint64_t>(chunk.size()));
      regs.WriteFr(6, a);
    });

    const auto result = ReadArray(y, kN);
    for (int i = 0; i < kN; ++i) {
      EXPECT_EQ(result[static_cast<std::size_t>(i)],
                std::fma(a, xs[static_cast<std::size_t>(i)],
                         ys[static_cast<std::size_t>(i)]))
          << "i=" << i << " threads=" << threads;
    }
  }
}

TEST_F(KgenFixture, DaxpyCodeHasFigure2Shape) {
  const LoopInfo info = EmitDaxpy(prog_, "daxpy", PrefetchPolicy{});
  // One steady-state lfetch inside the loop.
  ASSERT_EQ(info.lfetch_pcs.size(), 1u);
  EXPECT_GE(info.lfetch_pcs[0], info.head);
  EXPECT_LT(info.lfetch_pcs[0], info.back_branch_pc);
  // The loop closes with br.ctop.
  EXPECT_EQ(prog_.image().Fetch(info.back_branch_pc).op,
            isa::Opcode::kBrCtop);
  // Prologue: six lfetches before the loop head (the Figure 2 burst).
  int prologue_lfetches = 0;
  for (Addr b = info.entry; b < info.head; b += isa::kBundleBytes) {
    for (unsigned s = 0; s < 3; ++s) {
      if (prog_.image().Fetch(isa::MakePc(b, s)).op == isa::Opcode::kLfetch) {
        ++prologue_lfetches;
      }
    }
  }
  EXPECT_EQ(prologue_lfetches, 6);
  // The disassembly of the kernel contains the signature instructions.
  const std::string text =
      isa::DisassembleRange(prog_.image(), info.head,
                            isa::BundleAddr(info.back_branch_pc) + 16);
  EXPECT_NE(text.find("(p16) ldfd f32=[r2],8"), std::string::npos) << text;
  EXPECT_NE(text.find("(p16) lfetch.nt1 [r43]"), std::string::npos) << text;
  EXPECT_NE(text.find("(p21) fma.d f44=f6,f37,f43"), std::string::npos);
  EXPECT_NE(text.find("(p23) stfd [r40]=f46"), std::string::npos);
  EXPECT_NE(text.find("(p16) add r41=16,r43"), std::string::npos);
  EXPECT_NE(text.find("br.ctop.sptk"), std::string::npos);
}

TEST_F(KgenFixture, DaxpyNoprefetchVariantHasNoLfetch) {
  const LoopInfo info = EmitDaxpy(prog_, "daxpy", PrefetchPolicy::None());
  EXPECT_TRUE(info.lfetch_pcs.empty());
  StaticStats stats = prog_.CountStatic();
  EXPECT_EQ(stats.lfetch, 0u);
  EXPECT_EQ(stats.br_ctop, 1u);
}

TEST_F(KgenFixture, DaxpyPrefetchOvershootsChunkBoundary) {
  const LoopInfo info = EmitDaxpy(prog_, "daxpy", PrefetchPolicy{});
  constexpr int kN = 4096;
  const Addr x = prog_.Alloc(kN * 8);
  const Addr y = prog_.Alloc(kN * 8);
  BuildMachine(2);
  // Thread 0 owns [0, kN/2): with a 1200-byte prefetch distance its lfetches
  // reach into thread 1's half, pulling lines thread 1 writes.
  team_->Run(info.entry, [&](int tid, cpu::RegisterFile& regs) {
    const auto chunk = rt::StaticChunk(tid, 2, kN);
    regs.WriteGr(14, x + 8 * static_cast<Addr>(chunk.begin));
    regs.WriteGr(15, y + 8 * static_cast<Addr>(chunk.begin));
    regs.WriteGr(16, static_cast<std::uint64_t>(chunk.size()));
    regs.WriteFr(6, 1.0);
  });
  // Thread 0's stack holds x-lines at/after the boundary that it never
  // accesses demand-wise — prefetch overshoot. (Its overshot *y* lines are
  // invalidated again by thread 1's stores; x is read-only so the stale
  // prefetched copies survive to be observed.)
  const Addr boundary_line = (x + 8 * (kN / 2)) & ~Addr{127};
  bool overshoot = false;
  for (int l = 0; l < 9; ++l) {
    if (machine_->stack(0).LineState(boundary_line + 128u * l) !=
        mem::Mesi::kI) {
      overshoot = true;
    }
  }
  EXPECT_TRUE(overshoot);
  // And the overshoot caused real coherence traffic: thread 0's prefetches
  // of y lines thread 1 had already modified are HITM reads that downgrade
  // thread 1's dirty lines. (The full invalidation ping-pong of Figure 3
  // needs the repeated outer passes exercised by the Fig. 3 bench.)
  EXPECT_GT(machine_->stack(1).stats().snoop_downgrades, 0u);
  EXPECT_GT(machine_->fabric().TotalCounts().bus_rd_hitm, 0u);
}

// --- Stream loops ------------------------------------------------------------

struct StreamCase {
  StreamOp op;
  const char* name;
};

// Prints the case by name instead of as raw bytes (uninitialized padding
// and a build-dependent pointer), so the listed test name is stable.
void PrintTo(const StreamCase& c, std::ostream* os) { *os << c.name; }

class StreamLoopTest : public KgenFixture,
                       public ::testing::WithParamInterface<StreamCase> {};

TEST_P(StreamLoopTest, MatchesReference) {
  const StreamCase param = GetParam();
  StreamLoopSpec spec;
  spec.op = param.op;
  const LoopInfo info = EmitStreamLoop(prog_, param.name, spec);

  constexpr int kN = 257;
  const int k = StreamOpInputs(param.op);
  std::vector<Addr> in(3);
  for (int s = 0; s < 3; ++s) in[static_cast<std::size_t>(s)] = prog_.Alloc(kN * 8);
  const Addr out = prog_.Alloc(kN * 8);
  BuildMachine(2);

  std::vector<std::vector<double>> data(3, std::vector<double>(kN));
  for (int s = 0; s < 3; ++s) {
    for (int i = 0; i < kN; ++i) {
      data[static_cast<std::size_t>(s)][static_cast<std::size_t>(i)] =
          0.25 * i + s * 1000.0;
    }
    WriteArray(in[static_cast<std::size_t>(s)],
               data[static_cast<std::size_t>(s)]);
  }
  const double a = 1.5, b = -0.75;

  team_->Run(info.entry, [&](int tid, cpu::RegisterFile& regs) {
    const auto chunk = rt::StaticChunk(tid, 2, kN);
    for (int s = 0; s < k; ++s) {
      regs.WriteGr(ArgReg(s),
                   in[static_cast<std::size_t>(s)] +
                       8 * static_cast<Addr>(chunk.begin));
    }
    regs.WriteGr(17, out + 8 * static_cast<Addr>(chunk.begin));
    regs.WriteGr(18, static_cast<std::uint64_t>(chunk.size()));
    regs.WriteFr(6, a);
    regs.WriteFr(7, b);
  });

  const auto result = ReadArray(out, kN);
  for (int i = 0; i < kN; ++i) {
    const auto ui = static_cast<std::size_t>(i);
    const double x = data[0][ui], y = data[1][ui], w = data[2][ui];
    double expected = 0.0;
    switch (param.op) {
      case StreamOp::kCopy: expected = x; break;
      case StreamOp::kScale: expected = std::fma(a, x, 0.0); break;
      case StreamOp::kDaxpy: expected = std::fma(a, x, y); break;
      case StreamOp::kAdd: expected = std::fma(x, 1.0, y); break;
      case StreamOp::kTriad: expected = std::fma(a, y, x); break;
      case StreamOp::kStencil3Sym:
        expected = std::fma(a, std::fma(x, 1.0, w), std::fma(b, y, 0.0));
        break;
      case StreamOp::kBlend4:
        expected = std::fma(std::fma(a, x, 0.0), y, std::fma(b, w, 0.0));
        break;
    }
    EXPECT_EQ(result[ui], expected) << param.name << " i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, StreamLoopTest,
    ::testing::Values(StreamCase{StreamOp::kCopy, "copy"},
                      StreamCase{StreamOp::kScale, "scale"},
                      StreamCase{StreamOp::kDaxpy, "daxpy2"},
                      StreamCase{StreamOp::kAdd, "add"},
                      StreamCase{StreamOp::kTriad, "triad"},
                      StreamCase{StreamOp::kStencil3Sym, "stencil"},
                      StreamCase{StreamOp::kBlend4, "blend"}),
    [](const ::testing::TestParamInfo<StreamCase>& info) {
      return info.param.name;
    });

TEST_F(KgenFixture, StreamLoopAliasedOutputInPlaceUpdate) {
  StreamLoopSpec spec;
  spec.op = StreamOp::kDaxpy;
  spec.output_aliases_input = 1;  // out = y
  const LoopInfo info = EmitStreamLoop(prog_, "daxpy_inplace", spec);
  constexpr int kN = 64;
  const Addr x = prog_.Alloc(kN * 8);
  const Addr y = prog_.Alloc(kN * 8);
  BuildMachine(1);
  std::vector<double> xs(kN, 2.0), ys(kN, 10.0);
  WriteArray(x, xs);
  WriteArray(y, ys);
  team_->Run(info.entry, [&](int, cpu::RegisterFile& regs) {
    regs.WriteGr(14, x);
    regs.WriteGr(15, y);
    regs.WriteGr(17, y);
    regs.WriteGr(18, kN);
    regs.WriteFr(6, 3.0);
  });
  const auto result = ReadArray(y, kN);
  for (double v : result) EXPECT_EQ(v, 16.0);
}

// --- Reductions -----------------------------------------------------------------

TEST_F(KgenFixture, ReductionsMatchReference) {
  const LoopInfo dot = EmitReduction(prog_, "dot", ReduceOp::kDot, {});
  const LoopInfo sum = EmitReduction(prog_, "sum", ReduceOp::kSum, {});
  const LoopInfo sumsq =
      EmitReduction(prog_, "sumsq", ReduceOp::kSumSq, {});
  const LoopInfo max = EmitReduction(prog_, "max", ReduceOp::kMax, {});
  constexpr int kN = 301;
  const Addr x = prog_.Alloc(kN * 8);
  const Addr y = prog_.Alloc(kN * 8);
  const Addr partials = prog_.Alloc(4 * 8);
  BuildMachine(4);

  std::vector<double> xs(kN), ys(kN);
  for (int i = 0; i < kN; ++i) {
    xs[static_cast<std::size_t>(i)] = std::sin(0.1 * i);
    ys[static_cast<std::size_t>(i)] = std::cos(0.1 * i);
  }
  WriteArray(x, xs);
  WriteArray(y, ys);

  auto RunReduce = [&](const LoopInfo& info) {
    team_->Run(info.entry, [&](int tid, cpu::RegisterFile& regs) {
      const auto chunk = rt::StaticChunk(tid, 4, kN);
      regs.WriteGr(14, x + 8 * static_cast<Addr>(chunk.begin));
      regs.WriteGr(15, y + 8 * static_cast<Addr>(chunk.begin));
      regs.WriteGr(16, static_cast<std::uint64_t>(chunk.size()));
      regs.WriteGr(17, partials + 8 * static_cast<Addr>(tid));
    });
    return ReadArray(partials, 4);
  };

  // Dot: compare against per-chunk host accumulation (same fma order).
  auto parts = RunReduce(dot);
  for (int tid = 0; tid < 4; ++tid) {
    const auto chunk = rt::StaticChunk(tid, 4, kN);
    double acc = 0.0;
    for (std::int64_t i = chunk.begin; i < chunk.end; ++i) {
      acc = std::fma(xs[static_cast<std::size_t>(i)],
                     ys[static_cast<std::size_t>(i)], acc);
    }
    EXPECT_EQ(parts[static_cast<std::size_t>(tid)], acc);
  }

  parts = RunReduce(sum);
  for (int tid = 0; tid < 4; ++tid) {
    const auto chunk = rt::StaticChunk(tid, 4, kN);
    double acc = 0.0;
    for (std::int64_t i = chunk.begin; i < chunk.end; ++i) {
      acc = std::fma(xs[static_cast<std::size_t>(i)], 1.0, acc);
    }
    EXPECT_EQ(parts[static_cast<std::size_t>(tid)], acc);
  }

  parts = RunReduce(sumsq);
  for (int tid = 0; tid < 4; ++tid) {
    const auto chunk = rt::StaticChunk(tid, 4, kN);
    double acc = 0.0;
    for (std::int64_t i = chunk.begin; i < chunk.end; ++i) {
      const double v = xs[static_cast<std::size_t>(i)];
      acc = std::fma(v, v, acc);
    }
    EXPECT_EQ(parts[static_cast<std::size_t>(tid)], acc);
  }

  parts = RunReduce(max);
  for (int tid = 0; tid < 4; ++tid) {
    const auto chunk = rt::StaticChunk(tid, 4, kN);
    double acc = -1e300;
    for (std::int64_t i = chunk.begin; i < chunk.end; ++i) {
      acc = std::fmax(acc, xs[static_cast<std::size_t>(i)]);
    }
    EXPECT_EQ(parts[static_cast<std::size_t>(tid)], acc);
  }
}

// --- CSR matvec --------------------------------------------------------------------

TEST_F(KgenFixture, CsrMatvecMatchesReference) {
  const LoopInfo info = EmitCsrMatvec(prog_, "spmv", {});
  constexpr int kRows = 61;
  // Build a small banded matrix in CSR.
  std::vector<std::int64_t> rowptr{0};
  std::vector<std::int64_t> col;
  std::vector<double> vals;
  for (int i = 0; i < kRows; ++i) {
    for (int j = i - 2; j <= i + 2; ++j) {
      if (j < 0 || j >= kRows) continue;
      col.push_back(j);
      vals.push_back(1.0 / (1 + std::abs(i - j)));
    }
    rowptr.push_back(static_cast<std::int64_t>(col.size()));
  }
  const Addr rowptr_a = prog_.Alloc(rowptr.size() * 8);
  const Addr col_a = prog_.Alloc(col.size() * 8);
  const Addr vals_a = prog_.Alloc(vals.size() * 8);
  const Addr p_a = prog_.Alloc(kRows * 8);
  const Addr q_a = prog_.Alloc(kRows * 8);
  BuildMachine(4);
  for (std::size_t i = 0; i < rowptr.size(); ++i) {
    machine_->memory().WriteAs<std::int64_t>(rowptr_a + 8 * i, rowptr[i]);
  }
  for (std::size_t i = 0; i < col.size(); ++i) {
    machine_->memory().WriteAs<std::int64_t>(col_a + 8 * i, col[i]);
    machine_->memory().WriteDouble(vals_a + 8 * i, vals[i]);
  }
  std::vector<double> p(kRows);
  for (int i = 0; i < kRows; ++i) p[static_cast<std::size_t>(i)] = 1.0 + 0.01 * i;
  WriteArray(p_a, p);

  team_->Run(info.entry, [&](int tid, cpu::RegisterFile& regs) {
    const auto chunk = rt::StaticChunk(tid, 4, kRows);
    regs.WriteGr(14, rowptr_a);
    regs.WriteGr(15, col_a);
    regs.WriteGr(16, vals_a);
    regs.WriteGr(17, p_a);
    regs.WriteGr(18, q_a);
    regs.WriteGr(19, static_cast<std::uint64_t>(chunk.begin));
    regs.WriteGr(20, static_cast<std::uint64_t>(chunk.end));
  });

  const auto q = ReadArray(q_a, kRows);
  for (int i = 0; i < kRows; ++i) {
    double acc = 0.0;
    for (std::int64_t k = rowptr[static_cast<std::size_t>(i)];
         k < rowptr[static_cast<std::size_t>(i) + 1]; ++k) {
      acc = std::fma(
          vals[static_cast<std::size_t>(k)],
          p[static_cast<std::size_t>(col[static_cast<std::size_t>(k)])], acc);
    }
    EXPECT_EQ(q[static_cast<std::size_t>(i)], acc) << i;
  }
}

// --- Integer kernels -----------------------------------------------------------------

TEST_F(KgenFixture, HistogramCountsKeys) {
  const LoopInfo info = EmitHistogram(prog_, "hist", {});
  constexpr int kN = 1000, kK = 32;
  const Addr keys = prog_.Alloc(kN * 4);
  const Addr hist = prog_.Alloc(kK * 4);
  BuildMachine(1);
  std::vector<int> expected(kK, 0);
  for (int i = 0; i < kN; ++i) {
    const int key = (i * 7919) % kK;
    machine_->memory().WriteAs<std::int32_t>(keys + 4 * static_cast<Addr>(i),
                                             key);
    ++expected[static_cast<std::size_t>(key)];
  }
  team_->Run(info.entry, [&](int, cpu::RegisterFile& regs) {
    regs.WriteGr(14, keys);
    regs.WriteGr(15, hist);
    regs.WriteGr(16, kN);
  });
  for (int k = 0; k < kK; ++k) {
    EXPECT_EQ(machine_->memory().ReadAs<std::int32_t>(
                  hist + 4 * static_cast<Addr>(k)),
              expected[static_cast<std::size_t>(k)]);
  }
}

TEST_F(KgenFixture, ScanAndPermuteSortKeys) {
  const LoopInfo hist_info = EmitHistogram(prog_, "hist", {});
  const LoopInfo scan_info = EmitScan(prog_, "scan", {});
  const LoopInfo perm_info = EmitPermute(prog_, "perm", {});
  constexpr int kN = 500, kK = 16;
  const Addr keys = prog_.Alloc(kN * 4);
  const Addr hist = prog_.Alloc(kK * 4);
  const Addr offsets = prog_.Alloc(kK * 4);
  const Addr total = prog_.Alloc(8);
  const Addr rank = prog_.Alloc(kN * 4);
  const Addr out = prog_.Alloc(kN * 4);
  BuildMachine(1);
  std::vector<std::int32_t> key_data(kN);
  for (int i = 0; i < kN; ++i) {
    key_data[static_cast<std::size_t>(i)] =
        static_cast<std::int32_t>((i * 2654435761u) % kK);
    machine_->memory().WriteAs<std::int32_t>(keys + 4 * static_cast<Addr>(i),
                                             key_data[static_cast<std::size_t>(i)]);
  }
  team_->Run(hist_info.entry, [&](int, cpu::RegisterFile& regs) {
    regs.WriteGr(14, keys);
    regs.WriteGr(15, hist);
    regs.WriteGr(16, kN);
  });
  team_->Run(scan_info.entry, [&](int, cpu::RegisterFile& regs) {
    regs.WriteGr(14, hist);
    regs.WriteGr(15, offsets);
    regs.WriteGr(16, kK);
    regs.WriteGr(17, total);
  });
  EXPECT_EQ(machine_->memory().ReadAs<std::int64_t>(total), kN);
  // Host computes ranks from the scanned offsets (stable counting sort).
  std::vector<std::int32_t> cursor(kK);
  for (int k = 0; k < kK; ++k) {
    cursor[static_cast<std::size_t>(k)] =
        machine_->memory().ReadAs<std::int32_t>(offsets +
                                                4 * static_cast<Addr>(k));
  }
  for (int i = 0; i < kN; ++i) {
    machine_->memory().WriteAs<std::int32_t>(
        rank + 4 * static_cast<Addr>(i),
        cursor[static_cast<std::size_t>(
            key_data[static_cast<std::size_t>(i)])]++);
  }
  team_->Run(perm_info.entry, [&](int, cpu::RegisterFile& regs) {
    regs.WriteGr(14, keys);
    regs.WriteGr(15, rank);
    regs.WriteGr(16, out);
    regs.WriteGr(17, kN);
  });
  std::int32_t prev = -1;
  for (int i = 0; i < kN; ++i) {
    const auto v = machine_->memory().ReadAs<std::int32_t>(
        out + 4 * static_cast<Addr>(i));
    EXPECT_GE(v, prev);
    prev = v;
  }
}

TEST_F(KgenFixture, WhileCopyMatchesAndUsesWtop) {
  const LoopInfo info = EmitWhileCopy(prog_, "wcopy", {});
  EXPECT_EQ(prog_.image().Fetch(info.back_branch_pc).op,
            isa::Opcode::kBrWtop);
  constexpr int kN = 77;
  const Addr x = prog_.Alloc(kN * 8);
  const Addr out = prog_.Alloc(kN * 8);
  BuildMachine(1);
  std::vector<double> xs(kN);
  for (int i = 0; i < kN; ++i) xs[static_cast<std::size_t>(i)] = 7.0 - i;
  WriteArray(x, xs);
  team_->Run(info.entry, [&](int, cpu::RegisterFile& regs) {
    regs.WriteGr(14, x);
    regs.WriteGr(15, out);
    regs.WriteGr(16, kN);
  });
  EXPECT_EQ(ReadArray(out, kN), xs);
}

TEST_F(KgenFixture, EpKernelMatchesHostReplay) {
  const LoopInfo info = EmitEpKernel(prog_, "ep", {});
  constexpr std::uint64_t kSeed = 0x12345678u;
  constexpr int kTrials = 5000;
  const Addr acc_a = prog_.Alloc(8);
  const Addr rej_a = prog_.Alloc(8);
  const Addr sum_a = prog_.Alloc(8);
  BuildMachine(1);
  team_->Run(info.entry, [&](int, cpu::RegisterFile& regs) {
    regs.WriteGr(14, kSeed);
    regs.WriteGr(15, kTrials);
    regs.WriteGr(16, acc_a);
    regs.WriteGr(17, rej_a);
    regs.WriteGr(18, sum_a);
    regs.WriteFr(6, 2.0);
    regs.WriteFr(7, 3.0);
  });
  // Host replay with identical arithmetic.
  std::uint64_t s = kSeed;
  auto next = [&s] {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  };
  auto deviate = [&next] {
    const std::uint64_t bits =
        (next() & 0xfffffffffffffULL) | 0x3ff0000000000000ULL;
    double v;
    __builtin_memcpy(&v, &bits, 8);
    return std::fma(v, 2.0, -3.0);
  };
  std::int64_t accepted = 0, rejected = 0;
  double sum = 0.0;
  for (int i = 0; i < kTrials; ++i) {
    const double x = deviate();
    const double y = deviate();
    double r2 = std::fma(x, x, 0.0);
    r2 = std::fma(y, y, r2);
    if (r2 <= 1.0) {
      ++accepted;
      sum = std::fma(std::sqrt(r2), 1.0, sum);
    } else {
      ++rejected;
    }
  }
  EXPECT_EQ(machine_->memory().ReadAs<std::int64_t>(acc_a), accepted);
  EXPECT_EQ(machine_->memory().ReadAs<std::int64_t>(rej_a), rejected);
  EXPECT_EQ(machine_->memory().ReadDouble(sum_a), sum);
  EXPECT_GT(accepted, kTrials / 2);  // pi/4 of trials accepted
}

// --- Static statistics (Table 1 machinery) ---------------------------------------

TEST_F(KgenFixture, CountStaticTallyByBranchKind) {
  EmitDaxpy(prog_, "daxpy", PrefetchPolicy{});          // 1 ctop, 7 lfetch
  EmitReduction(prog_, "dot", ReduceOp::kDot, PrefetchPolicy{});  // cloop, 2 lf
  EmitWhileCopy(prog_, "wcopy", PrefetchPolicy{});      // wtop, 1 lfetch
  const StaticStats stats = prog_.CountStatic();
  EXPECT_EQ(stats.br_ctop, 1u);
  EXPECT_EQ(stats.br_cloop, 1u);
  EXPECT_EQ(stats.br_wtop, 1u);
  EXPECT_EQ(stats.lfetch, 7u + 2u + 1u);
}

TEST_F(KgenFixture, CodeCacheExcludedFromStaticCounts) {
  EmitDaxpy(prog_, "daxpy", PrefetchPolicy{});
  const StaticStats before = prog_.CountStatic();
  prog_.image().BeginCodeCache();
  prog_.image().AppendBundle(isa::Lfetch(40), isa::Lfetch(41),
                             isa::Break());
  EXPECT_EQ(prog_.CountStatic().lfetch, before.lfetch);
}

TEST_F(KgenFixture, StaticExclPolicyHintsTheStoredStream) {
  const LoopInfo info = EmitDaxpy(prog_, "daxpy", PrefetchPolicy::Excl());
  // The .excl study variant splits the alternating chain: x stays a plain
  // prefetch, the stored stream (y) carries .excl.
  ASSERT_EQ(info.lfetch_pcs.size(), 2u);
  EXPECT_FALSE(prog_.image().Fetch(info.lfetch_pcs[0]).lf_hint.excl);  // x
  EXPECT_TRUE(prog_.image().Fetch(info.lfetch_pcs[1]).lf_hint.excl);   // y
  // Stream loops (whose hint COBRA flips at runtime) hint every lfetch.
  StreamLoopSpec spec;
  spec.op = StreamOp::kDaxpy;
  spec.prefetch = PrefetchPolicy::Excl();
  const LoopInfo stream = EmitStreamLoop(prog_, "sdaxpy", spec);
  for (const Addr pc : stream.lfetch_pcs) {
    EXPECT_TRUE(prog_.image().Fetch(pc).lf_hint.excl);
  }
}

TEST_F(KgenFixture, ExclDaxpyStillComputesCorrectly) {
  const LoopInfo info = EmitDaxpy(prog_, "daxpy", PrefetchPolicy::Excl());
  constexpr int kN = 333;
  const Addr x = prog_.Alloc(kN * 8);
  const Addr y = prog_.Alloc(kN * 8);
  BuildMachine(2);
  std::vector<double> xs(kN), ys(kN);
  for (int i = 0; i < kN; ++i) {
    xs[static_cast<std::size_t>(i)] = 1.0 + i;
    ys[static_cast<std::size_t>(i)] = 2.0 * i;
  }
  WriteArray(x, xs);
  WriteArray(y, ys);
  team_->Run(info.entry, [&](int tid, cpu::RegisterFile& regs) {
    const auto chunk = rt::StaticChunk(tid, 2, kN);
    regs.WriteGr(14, x + 8 * static_cast<Addr>(chunk.begin));
    regs.WriteGr(15, y + 8 * static_cast<Addr>(chunk.begin));
    regs.WriteGr(16, static_cast<std::uint64_t>(chunk.size()));
    regs.WriteFr(6, -1.25);
  });
  const auto result = ReadArray(y, kN);
  for (int i = 0; i < kN; ++i) {
    EXPECT_EQ(result[static_cast<std::size_t>(i)],
              std::fma(-1.25, xs[static_cast<std::size_t>(i)],
                       ys[static_cast<std::size_t>(i)]));
  }
}

}  // namespace
}  // namespace cobra::kgen
