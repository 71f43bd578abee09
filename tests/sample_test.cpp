// Sampled-simulation pipeline tests: spec parsing, deterministic BBV
// phase clustering (including the steady-state medoid preference), and the
// two-pass PhaseProfiler -> SampledRun pipeline end to end — schedule
// shape, checkpoint accounting, the detailed-fraction wall proxy, and a
// sanity corridor on the projected cycle total against a full detailed
// run of the same workload.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <limits>
#include <vector>

#include "kgen/emitters.h"
#include "kgen/program.h"
#include "machine/machine.h"
#include "perfmon/bbv.h"
#include "perfmon/sample.h"
#include "rt/team.h"

namespace cobra {
namespace {

using perfmon::BasicBlockVector;
using perfmon::PhasePlan;
using perfmon::SampleConfig;

// --- Spec parsing --------------------------------------------------------

TEST(SampleSpec, ParsesIntervalOnly) {
  SampleConfig c;
  ASSERT_TRUE(perfmon::ParseSampleSpec("200000", &c));
  EXPECT_EQ(c.interval_insts, 200000u);
  EXPECT_EQ(c.max_phases, 8);
  EXPECT_EQ(c.warmup_insts, SampleConfig::kAutoWarmup);
  EXPECT_EQ(c.EffectiveWarmup(), 100000u);  // auto = interval / 2
  EXPECT_TRUE(c.enabled());
}

TEST(SampleSpec, ParsesPhasesAndWarmup) {
  SampleConfig c;
  ASSERT_TRUE(perfmon::ParseSampleSpec("200000:6", &c));
  EXPECT_EQ(c.interval_insts, 200000u);
  EXPECT_EQ(c.max_phases, 6);
  EXPECT_EQ(c.warmup_insts, SampleConfig::kAutoWarmup);

  ASSERT_TRUE(perfmon::ParseSampleSpec("200000:6:50000", &c));
  EXPECT_EQ(c.warmup_insts, 50000u);
  EXPECT_EQ(c.EffectiveWarmup(), 50000u);

  // Explicit zero disables warm-up (distinct from the auto sentinel).
  ASSERT_TRUE(perfmon::ParseSampleSpec("200000:6:0", &c));
  EXPECT_EQ(c.warmup_insts, 0u);
  EXPECT_EQ(c.EffectiveWarmup(), 0u);

  // The largest values each field holds are accepted, not saturated.
  ASSERT_TRUE(perfmon::ParseSampleSpec(
      "18446744073709551615:2147483647:18446744073709551614", &c));
  EXPECT_EQ(c.interval_insts, std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(c.max_phases, std::numeric_limits<int>::max());
  EXPECT_EQ(c.warmup_insts, std::numeric_limits<std::uint64_t>::max() - 1);
}

TEST(SampleSpec, RejectsMalformedSpecs) {
  SampleConfig c;
  c.interval_insts = 777;  // must be left alone on failure
  EXPECT_FALSE(perfmon::ParseSampleSpec(nullptr, &c));
  EXPECT_FALSE(perfmon::ParseSampleSpec("", &c));
  EXPECT_FALSE(perfmon::ParseSampleSpec("abc", &c));
  EXPECT_FALSE(perfmon::ParseSampleSpec("0", &c));
  EXPECT_FALSE(perfmon::ParseSampleSpec("100x", &c));
  EXPECT_FALSE(perfmon::ParseSampleSpec("100:", &c));
  EXPECT_FALSE(perfmon::ParseSampleSpec("100:0", &c));
  EXPECT_FALSE(perfmon::ParseSampleSpec("100:-2", &c));
  EXPECT_FALSE(perfmon::ParseSampleSpec("100:4:", &c));
  EXPECT_FALSE(perfmon::ParseSampleSpec("100:4:-5", &c));
  EXPECT_FALSE(perfmon::ParseSampleSpec("100:4:xyz", &c));
  EXPECT_FALSE(perfmon::ParseSampleSpec("100:4:9junk", &c));
  // A sign, leading whitespace or an out-of-range number in any field.
  for (const char* hostile :
       {"-1", "+100", " 100", "\t100", "18446744073709551616",
        "99999999999999999999", "100:+4", "100: 4", "100:4294967297",
        "100:2147483648", "100:4:+5", "100:4: 5",
        "100:4:18446744073709551615", "100:4:18446744073709551616"}) {
    EXPECT_FALSE(perfmon::ParseSampleSpec(hostile, &c)) << hostile;
  }
  EXPECT_EQ(c.interval_insts, 777u);
}

TEST(SampleSpec, EnvKnobRoundTrips) {
  ASSERT_EQ(setenv("COBRA_SAMPLE", "12345:3:99", 1), 0);
  SampleConfig c = perfmon::SampleConfigFromEnv();
  EXPECT_EQ(c.interval_insts, 12345u);
  EXPECT_EQ(c.max_phases, 3);
  EXPECT_EQ(c.warmup_insts, 99u);

  ASSERT_EQ(setenv("COBRA_SAMPLE", "garbage", 1), 0);
  c = perfmon::SampleConfigFromEnv();
  EXPECT_FALSE(c.enabled());

  ASSERT_EQ(unsetenv("COBRA_SAMPLE"), 0);
  c = perfmon::SampleConfigFromEnv();
  EXPECT_FALSE(c.enabled());
}

// --- Clustering ----------------------------------------------------------

BasicBlockVector MakeInterval(isa::Addr block, std::uint64_t weight) {
  BasicBlockVector v;
  v.weights[block] = weight;
  v.retired = weight;
  return v;
}

TEST(PhaseClustering, RepresentativeIsLatestEquallyCentralMember) {
  // Two alternating phases of identical vectors: every member of a cluster
  // sits at distance zero from its centroid, so the steady-state
  // preference must pick the LATEST occurrence (early occurrences carry
  // converging cache/optimizer state in a real run).
  std::vector<BasicBlockVector> intervals;
  intervals.push_back(MakeInterval(0x100, 10));  // phase A, interval 0
  intervals.push_back(MakeInterval(0x200, 10));  // phase B, interval 1
  intervals.push_back(MakeInterval(0x100, 10));  // A, 2
  intervals.push_back(MakeInterval(0x200, 10));  // B, 3
  intervals.push_back(MakeInterval(0x100, 10));  // A, 4

  const PhasePlan plan = perfmon::ClusterPhases(intervals, 2);
  ASSERT_EQ(plan.clusters.size(), 2u);
  ASSERT_EQ(plan.assignment.size(), 5u);
  EXPECT_EQ(plan.assignment[0], plan.assignment[2]);
  EXPECT_EQ(plan.assignment[0], plan.assignment[4]);
  EXPECT_EQ(plan.assignment[1], plan.assignment[3]);
  EXPECT_NE(plan.assignment[0], plan.assignment[1]);

  const auto& a = plan.clusters[static_cast<std::size_t>(plan.assignment[0])];
  const auto& b = plan.clusters[static_cast<std::size_t>(plan.assignment[1])];
  EXPECT_EQ(a.representative, 4);  // latest A, not the first
  EXPECT_EQ(b.representative, 3);  // latest B
  EXPECT_EQ(a.weight, 3u);
  EXPECT_EQ(b.weight, 2u);
}

TEST(PhaseClustering, DeterministicAcrossCalls) {
  std::vector<BasicBlockVector> intervals;
  for (int i = 0; i < 12; ++i) {
    BasicBlockVector v;
    // Three interleaved patterns with mild per-interval noise.
    v.weights[0x1000 + (i % 3) * 0x40] = 100;
    v.weights[0x2000] = 10 + static_cast<std::uint64_t>(i);
    v.retired = 110 + static_cast<std::uint64_t>(i);
    intervals.push_back(std::move(v));
  }
  const PhasePlan first = perfmon::ClusterPhases(intervals, 4);
  const PhasePlan second = perfmon::ClusterPhases(intervals, 4);
  EXPECT_EQ(first.assignment, second.assignment);
  ASSERT_EQ(first.clusters.size(), second.clusters.size());
  for (std::size_t c = 0; c < first.clusters.size(); ++c) {
    EXPECT_EQ(first.clusters[c].representative,
              second.clusters[c].representative);
    EXPECT_EQ(first.clusters[c].members, second.clusters[c].members);
  }
}

// --- Two-pass pipeline ---------------------------------------------------

// A workload with two distinct phases: a DAXPY-heavy stretch, then a
// dot-product stretch, then DAXPY again.
struct PipelineWorkload {
  kgen::LoopInfo daxpy;
  kgen::LoopInfo dot;
  mem::Addr x = 0;
  mem::Addr y = 0;
  mem::Addr partials = 0;
};

constexpr std::int64_t kN = 4096;
constexpr int kThreads = 4;

PipelineWorkload BuildPipeline(kgen::Program& prog) {
  PipelineWorkload w;
  w.daxpy = EmitDaxpy(prog, "daxpy", kgen::PrefetchPolicy{});
  w.dot = EmitReduction(prog, "dot", kgen::ReduceOp::kDot,
                        kgen::PrefetchPolicy{});
  w.x = prog.Alloc(kN * 8);
  w.y = prog.Alloc(kN * 8);
  w.partials = prog.Alloc(kThreads * 8);
  return w;
}

void RunPhasedWorkload(machine::Machine& machine, const PipelineWorkload& w) {
  for (std::int64_t i = 0; i < kN; ++i) {
    machine.memory().WriteDouble(w.x + 8 * static_cast<mem::Addr>(i), 1.0);
    machine.memory().WriteDouble(w.y + 8 * static_cast<mem::Addr>(i), 2.0);
  }
  rt::Team team(&machine, kThreads);
  auto daxpy_setup = [&](int tid, cpu::RegisterFile& regs) {
    const auto chunk = rt::StaticChunk(tid, kThreads, kN);
    regs.WriteGr(14, w.x + 8 * static_cast<mem::Addr>(chunk.begin));
    regs.WriteGr(15, w.y + 8 * static_cast<mem::Addr>(chunk.begin));
    regs.WriteGr(16, static_cast<std::uint64_t>(chunk.size()));
    regs.WriteFr(6, 0.5);
  };
  auto dot_setup = [&](int tid, cpu::RegisterFile& regs) {
    const auto chunk = rt::StaticChunk(tid, kThreads, kN);
    regs.WriteGr(14, w.x + 8 * static_cast<mem::Addr>(chunk.begin));
    regs.WriteGr(15, w.y + 8 * static_cast<mem::Addr>(chunk.begin));
    regs.WriteGr(16, static_cast<std::uint64_t>(chunk.size()));
    regs.WriteGr(17, w.partials + 8 * static_cast<mem::Addr>(tid));
  };
  for (int rep = 0; rep < 4; ++rep) team.Run(w.daxpy.entry, daxpy_setup);
  for (int rep = 0; rep < 8; ++rep) team.Run(w.dot.entry, dot_setup);
  for (int rep = 0; rep < 4; ++rep) team.Run(w.daxpy.entry, daxpy_setup);
}

perfmon::PhaseProfile ProfilePipeline(const SampleConfig& config) {
  kgen::Program prog;
  const PipelineWorkload w = BuildPipeline(prog);
  machine::MachineConfig cfg = machine::SmpServerConfig(kThreads);
  cfg.mem.memory_bytes = 1 << 23;
  machine::Machine machine(cfg, &prog.image());
  perfmon::PhaseProfiler profiler(&machine, config);
  RunPhasedWorkload(machine, w);
  return profiler.Finish();
}

SampleConfig PipelineConfig() {
  SampleConfig config;
  config.interval_insts = 30000;
  config.max_phases = 4;
  return config;
}

TEST(SampledPipeline, ProfileScheduleIsWellFormed) {
  const perfmon::PhaseProfile profile = ProfilePipeline(PipelineConfig());
  ASSERT_GT(profile.intervals.size(), 2u);
  ASSERT_EQ(profile.boundaries.size(), profile.intervals.size());
  EXPECT_EQ(profile.warmup_insts, PipelineConfig().EffectiveWarmup());
  std::uint64_t cumulative = 0;
  int representatives = 0;
  for (std::size_t i = 0; i < profile.intervals.size(); ++i) {
    EXPECT_GT(profile.intervals[i].retired, 0u);
    cumulative += profile.intervals[i].retired;
    EXPECT_EQ(profile.boundaries[i], cumulative);
    if (profile.IsRepresentative(static_cast<int>(i))) ++representatives;
  }
  EXPECT_EQ(representatives, static_cast<int>(profile.plan.clusters.size()));
  EXPECT_GE(profile.plan.clusters.size(), 2u);  // daxpy + dot phases
  // Out-of-schedule indexes are never representative.
  EXPECT_FALSE(profile.IsRepresentative(-1));
  EXPECT_FALSE(
      profile.IsRepresentative(static_cast<int>(profile.intervals.size())));
}

TEST(SampledPipeline, ProfilingIsDeterministic) {
  const perfmon::PhaseProfile first = ProfilePipeline(PipelineConfig());
  const perfmon::PhaseProfile second = ProfilePipeline(PipelineConfig());
  EXPECT_EQ(first.boundaries, second.boundaries);
  EXPECT_EQ(first.plan.assignment, second.plan.assignment);
  ASSERT_EQ(first.plan.clusters.size(), second.plan.clusters.size());
  for (std::size_t c = 0; c < first.plan.clusters.size(); ++c) {
    EXPECT_EQ(first.plan.clusters[c].representative,
              second.plan.clusters[c].representative);
  }
}

TEST(SampledPipeline, SampledRunMeasuresAndProjects) {
  const perfmon::PhaseProfile profile = ProfilePipeline(PipelineConfig());
  const std::uint64_t profiled_retired = profile.boundaries.back();

  // Full detailed reference for the projection corridor.
  std::uint64_t full_cycles = 0;
  {
    kgen::Program prog;
    const PipelineWorkload w = BuildPipeline(prog);
    machine::MachineConfig cfg = machine::SmpServerConfig(kThreads);
    cfg.mem.memory_bytes = 1 << 23;
    machine::Machine machine(cfg, &prog.image());
    RunPhasedWorkload(machine, w);
    full_cycles = machine.GlobalTime();
  }

  kgen::Program prog;
  const PipelineWorkload w = BuildPipeline(prog);
  machine::MachineConfig cfg = machine::SmpServerConfig(kThreads);
  cfg.mem.memory_bytes = 1 << 23;
  machine::Machine machine(cfg, &prog.image());
  perfmon::SampledRun sampled(&machine, profile);
  RunPhasedWorkload(machine, w);
  const perfmon::SampleOutcome outcome = sampled.Finish();

  EXPECT_EQ(outcome.intervals, profile.intervals.size());
  EXPECT_EQ(outcome.phases, profile.plan.clusters.size());
  // Every representative was simulated in detail, each warmed up through
  // one checkpoint round-trip.
  EXPECT_EQ(outcome.detailed_intervals, outcome.phases);
  EXPECT_EQ(outcome.checkpoints, outcome.detailed_intervals);
  EXPECT_GT(outcome.checkpoint_bytes, 0u);
  // Pass 2 executes the same instruction stream pass 1 profiled.
  EXPECT_EQ(outcome.total_retired, profiled_retired);
  // The wall proxy: most of the run was fast-forwarded.
  EXPECT_GT(outcome.detailed_retired, 0u);
  EXPECT_LT(outcome.detailed_fraction, 1.0);
  EXPECT_GT(outcome.detailed_fraction, 0.0);
  // The machine leaves pass 2 in detailed mode.
  EXPECT_FALSE(machine.fast_forward());
  // Projection corridor: the extrapolated cycle total tracks the full
  // detailed run within a loose factor (this is a smoke bound, not an
  // accuracy claim — bench/suite.cpp's sampled_accuracy experiment
  // measures real error).
  ASSERT_GT(outcome.projected_cycles, 0u);
  EXPECT_GT(outcome.projected_cycles, full_cycles / 3);
  EXPECT_LT(outcome.projected_cycles, full_cycles * 3);
}

TEST(SampledPipeline, DisabledConfigIsRejected) {
  SampleConfig config;  // interval_insts == 0
  EXPECT_FALSE(config.enabled());
}

}  // namespace
}  // namespace cobra
