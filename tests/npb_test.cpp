// NPB mini-suite tests: every benchmark builds, runs and verifies on SMP
// and NUMA machines at several thread counts; static statistics have the
// Table 1 structure; the result benchmarks exhibit the coherent-miss
// behaviour the paper's detector keys on, while EP/IS do not.
#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <string>

#include "npb/common.h"

namespace cobra::npb {
namespace {

struct SuiteCase {
  const char* name;
  int threads;
  bool numa;
};

std::string CaseLabel(const SuiteCase& c) {
  return std::string(c.name) + "_t" + std::to_string(c.threads) +
         (c.numa ? "_numa" : "_smp");
}

std::string CaseName(const ::testing::TestParamInfo<SuiteCase>& info) {
  return CaseLabel(info.param);
}

// Without a printer gtest dumps the parameter's raw bytes — including the
// name pointer, which moves with every build and load address — into the
// test's listed name.
void PrintTo(const SuiteCase& c, std::ostream* os) { *os << CaseLabel(c); }

class NpbSuiteTest : public ::testing::TestWithParam<SuiteCase> {};

TEST_P(NpbSuiteTest, RunsAndVerifies) {
  const SuiteCase param = GetParam();
  auto benchmark = MakeBenchmark(param.name);
  kgen::Program prog;
  benchmark->Build(prog, kgen::PrefetchPolicy{});

  machine::MachineConfig cfg = param.numa
                                   ? machine::AltixConfig(param.threads)
                                   : machine::SmpServerConfig(param.threads);
  cfg.mem.memory_bytes = 1 << 25;
  machine::Machine machine(cfg, &prog.image());
  benchmark->Init(machine, param.threads);

  rt::Team team(&machine, param.threads);
  const Cycle cycles = benchmark->Run(team);
  EXPECT_GT(cycles, 0u);
  EXPECT_TRUE(benchmark->Verify(machine)) << param.name;
}

std::vector<SuiteCase> AllCases() {
  static const char* kNames[] = {"bt", "sp", "lu", "ft",
                                 "mg", "cg", "ep", "is"};
  std::vector<SuiteCase> cases;
  for (const char* name : kNames) {
    cases.push_back(SuiteCase{name, 1, false});
    cases.push_back(SuiteCase{name, 4, false});
    cases.push_back(SuiteCase{name, 8, true});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, NpbSuiteTest,
                         ::testing::ValuesIn(AllCases()), CaseName);

TEST(NpbStatic, Table1StructureHolds) {
  // lfetch and SWP-branch counts per benchmark: every result benchmark has
  // prefetches and br.ctop loops; FT has br.wtop loops; the noprefetch
  // compile has zero lfetches.
  for (const std::string& name : SuiteNames()) {
    auto benchmark = MakeBenchmark(name);
    kgen::Program prog;
    benchmark->Build(prog, kgen::PrefetchPolicy{});
    const kgen::StaticStats stats = prog.CountStatic();
    if (name != "ep") {
      EXPECT_GT(stats.lfetch, 0u) << name;
    }
    if (name == "ft") {
      EXPECT_GE(stats.br_wtop, 4u);
    }
    if (name == "bt" || name == "sp" || name == "lu" || name == "mg") {
      EXPECT_GT(stats.br_ctop, 5u) << name;
      EXPECT_EQ(stats.br_wtop, 0u) << name;
    }

    auto noprefetch = MakeBenchmark(name);
    kgen::Program bare;
    noprefetch->Build(bare, kgen::PrefetchPolicy::None());
    EXPECT_EQ(bare.CountStatic().lfetch, 0u) << name;
  }
}

TEST(NpbStatic, MgHasTheLargestLoopInventory) {
  // Table 1: MG and CG carry the most prefetches; MG has the most loops.
  std::uint64_t mg_loops = 0, bt_loops = 0;
  {
    auto mg = MakeBenchmark("mg");
    kgen::Program prog;
    mg->Build(prog, kgen::PrefetchPolicy{});
    const auto stats = prog.CountStatic();
    mg_loops = stats.br_ctop + stats.br_cloop + stats.br_wtop;
  }
  {
    auto bt = MakeBenchmark("bt");
    kgen::Program prog;
    bt->Build(prog, kgen::PrefetchPolicy{});
    const auto stats = prog.CountStatic();
    bt_loops = stats.br_ctop + stats.br_cloop + stats.br_wtop;
  }
  EXPECT_GT(mg_loops, bt_loops);
}

TEST(NpbCoherence, ResultBenchmarksShowCoherentTraffic) {
  // The six Figure 5 benchmarks must produce coherent bus events at 4
  // threads (the paper: 60-70% of class-S accesses are coherent).
  for (const std::string& name : ResultBenchmarkNames()) {
    auto benchmark = MakeBenchmark(name);
    kgen::Program prog;
    benchmark->Build(prog, kgen::PrefetchPolicy{});
    machine::MachineConfig cfg = machine::SmpServerConfig(4);
    cfg.mem.memory_bytes = 1 << 25;
    machine::Machine machine(cfg, &prog.image());
    benchmark->Init(machine, 4);
    rt::Team team(&machine, 4);
    benchmark->Run(team);
    const auto& bus = machine.fabric().TotalCounts();
    EXPECT_GT(bus.CoherentEvents(), 100u) << name;
  }
}

TEST(NpbCoherence, EpHasNoCoherentTraffic) {
  auto benchmark = MakeBenchmark("ep");
  kgen::Program prog;
  benchmark->Build(prog, kgen::PrefetchPolicy{});
  machine::MachineConfig cfg = machine::SmpServerConfig(4);
  cfg.mem.memory_bytes = 1 << 25;
  machine::Machine machine(cfg, &prog.image());
  benchmark->Init(machine, 4);
  rt::Team team(&machine, 4);
  benchmark->Run(team);
  const auto& bus = machine.fabric().TotalCounts();
  // EP touches almost no memory: coherent events are negligible.
  EXPECT_LT(bus.bus_rd_hitm, 10u);
}

TEST(NpbDeterminism, RepeatRunsAreBitIdentical) {
  auto RunOnce = [] {
    auto benchmark = MakeBenchmark("cg");
    kgen::Program prog;
    benchmark->Build(prog, kgen::PrefetchPolicy{});
    machine::MachineConfig cfg = machine::SmpServerConfig(4);
    cfg.mem.memory_bytes = 1 << 25;
    machine::Machine machine(cfg, &prog.image());
    benchmark->Init(machine, 4);
    rt::Team team(&machine, 4);
    return benchmark->Run(team);
  };
  EXPECT_EQ(RunOnce(), RunOnce());
}

}  // namespace
}  // namespace cobra::npb
