// Execution-engine determinism tests: running the same workload twice on
// fresh machines must produce bit-identical simulations — same final cycle
// counts, same cache and coherence statistics, same HPM values, and the
// same per-CPU sampled streams (pc / timestamp / counters / BTB / DEAR),
// sample for sample — for every workload and machine geometry. Any state
// that leaked from the host (addresses, iteration order of unordered
// containers, wall-clock) would show up here as run-to-run jitter. The
// host-parallel suite runs several machines side by side, one per host
// thread, and holds each of them to the single-threaded result, so state
// shared across machines in one process shows up the same way.
//
// The fingerprint below serializes everything an experiment could observe;
// any divergence between runs shows up as a string diff. The spec tests
// pin the COBRA_ENGINE grammar, serial[@Q].
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cobra/cobra.h"
#include "kgen/emitters.h"
#include "kgen/program.h"
#include "machine/engine.h"
#include "machine/machine.h"
#include "npb/common.h"
#include "obs/registry.h"
#include "perfmon/sampling.h"
#include "rt/team.h"
#include "support/check.h"
#include "verify/fuzz.h"

namespace cobra {
namespace {

void AppendSample(std::ostringstream& out, CpuId cpu,
                  const perfmon::Sample& s) {
  out << "sample cpu=" << cpu << " idx=" << s.index << " pc=" << s.pc
      << " tid=" << s.tid << " t=" << s.timestamp;
  out << " ctr=";
  for (const std::uint64_t c : s.counters) out << c << ",";
  out << " btb=";
  for (const auto& e : s.btb) out << e.source << ">" << e.target << ",";
  out << " dear=" << s.dear.inst_addr << "/" << s.dear.data_addr << "/"
      << s.dear.latency << "/" << s.dear.valid << "\n";
}

// Everything observable about a finished run: global time, per-CPU core and
// cache-stack state, per-CPU and total fabric counts.
void AppendMachineState(std::ostringstream& out, machine::Machine& m) {
  out << "global_time=" << m.GlobalTime() << "\n";
  for (CpuId cpu = 0; cpu < m.num_cpus(); ++cpu) {
    const cpu::Core& core = m.core(cpu);
    const mem::CacheStack& stack = m.stack(cpu);
    const mem::CacheStack::Stats& ss = stack.stats();
    const mem::BusEventCounts& bus = m.fabric().CpuCounts(cpu);
    out << "cpu" << cpu << " now=" << core.now() << " pc=" << core.pc()
        << " retired=" << core.instructions_retired()
        << " dropped=" << core.lfetches_dropped() << " loads=" << ss.loads
        << " stores=" << ss.stores << " pf=" << ss.prefetches
        << " pf_bus=" << ss.prefetch_bus_requests
        << " pf_up=" << ss.prefetch_upgrades << " l2wb=" << ss.l2_writebacks
        << " fwb=" << ss.fabric_writebacks << " st_up=" << ss.store_upgrades
        << " sn_down=" << ss.snoop_downgrades
        << " sn_inv=" << ss.snoop_invalidations << " hitm=" << ss.hitm_supplies
        << " l2m=" << stack.L2Misses() << " l3m=" << stack.L3Misses()
        << " bus_mem=" << bus.bus_memory << " rd_hit=" << bus.bus_rd_hit
        << " rd_hitm=" << bus.bus_rd_hitm
        << " rd_inv_hitm=" << bus.bus_rd_inval_all_hitm
        << " upg=" << bus.bus_upgrades << " wb=" << bus.bus_writebacks
        << " remote=" << bus.remote_transactions << "\n";
  }
  const mem::BusEventCounts& total = m.fabric().TotalCounts();
  out << "bus_total=" << total.bus_memory << "/" << total.CoherentEvents()
      << "/" << total.remote_transactions << "\n";
  // The observability registry reads every live counter in the machine —
  // including the engine's own quantum/segment/commit tallies. A mismatch
  // diffs metric-by-metric below.
  const obs::Snapshot snapshot = m.registry().Take();
  out << "registry_fp=" << snapshot.Fingerprint() << "\n"
      << snapshot.ToString();
}

struct DaxpyFingerprint {
  std::string samples;  // delivered sample stream, in delivery order
  std::string state;    // final machine state
};

// DAXPY with recorded sampling streams (no COBRA): repeated runs must agree
// on the machine state AND on every delivered sample.
DaxpyFingerprint RunDaxpyFingerprint(
    const machine::MachineConfig& machine_cfg, int threads,
    const machine::EngineConfig& engine = machine::EngineConfig{}) {
  kgen::Program prog;
  const kgen::LoopInfo daxpy =
      EmitDaxpy(prog, "daxpy", kgen::PrefetchPolicy{});
  constexpr std::int64_t kN = 16384;  // 256 KB working set
  const mem::Addr x = prog.Alloc(kN * 8);
  const mem::Addr y = prog.Alloc(kN * 8);

  machine::MachineConfig cfg = machine_cfg;
  cfg.mem.memory_bytes = 1 << 23;
  machine::Machine machine(cfg, &prog.image());
  for (std::int64_t i = 0; i < kN; ++i) {
    machine.memory().WriteDouble(x + 8 * static_cast<mem::Addr>(i), 1.0);
    machine.memory().WriteDouble(y + 8 * static_cast<mem::Addr>(i), 2.0);
  }

  std::ostringstream out;
  perfmon::SamplingConfig pcfg;
  pcfg.period_insts = 700;
  pcfg.batch_size = 4;
  perfmon::SamplingDriver driver(&machine, pcfg);
  for (int tid = 0; tid < threads; ++tid) {
    driver.StartMonitoring(
        tid, tid, [&out](CpuId cpu, std::span<const perfmon::Sample> batch) {
          for (const perfmon::Sample& s : batch) AppendSample(out, cpu, s);
        });
  }

  rt::Team team(&machine, threads, engine);
  for (int rep = 0; rep < 6; ++rep) {
    team.Run(daxpy.entry, [&](int tid, cpu::RegisterFile& regs) {
      const auto chunk = rt::StaticChunk(tid, threads, kN);
      regs.WriteGr(14, x + 8 * static_cast<mem::Addr>(chunk.begin));
      regs.WriteGr(15, y + 8 * static_cast<mem::Addr>(chunk.begin));
      regs.WriteGr(16, static_cast<std::uint64_t>(chunk.size()));
      regs.WriteFr(6, 0.5);
    });
  }
  driver.StopAll();
  std::ostringstream state;
  AppendMachineState(state, machine);
  return {out.str(), state.str()};
}

// An NPB kernel under the full COBRA runtime (sampling -> detection ->
// runtime patching): the optimizer's decisions must also be identical.
std::string RunNpbFingerprint(
    const std::string& benchmark, const machine::MachineConfig& machine_cfg,
    int threads, const machine::EngineConfig& engine = machine::EngineConfig{}) {
  auto bench = npb::MakeBenchmark(benchmark);
  kgen::Program prog;
  bench->Build(prog, kgen::PrefetchPolicy{});

  machine::MachineConfig cfg = machine_cfg;
  cfg.mem.memory_bytes = 1 << 25;
  machine::Machine machine(cfg, &prog.image());
  bench->Init(machine, threads);

  core::CobraConfig config;
  config.sampling_period_insts = 1000;
  config.strategy = core::OptKind::kNoprefetch;
  core::CobraRuntime cobra(&machine, config);
  cobra.AttachAll(threads);

  rt::Team team(&machine, threads, engine);
  const Cycle cycles = bench->Run(team);

  std::ostringstream out;
  out << "cycles=" << cycles << " verified=" << bench->Verify(machine) << "\n";
  const auto& stats = cobra.stats();
  out << "cobra eval=" << stats.evaluations << " deploy=" << stats.deployments
      << " rollbacks=" << stats.rollbacks << " kept=" << stats.epochs_kept
      << " reverted=" << stats.epochs_reverted
      << " rewritten=" << stats.lfetches_rewritten
      << " inserted=" << stats.prefetches_inserted
      << " ratio=" << stats.last_coherent_ratio << "\n";
  AppendMachineState(out, machine);
  return out.str();
}

// Repeated runs on fresh machines must agree with themselves.
void ExpectDaxpyRunsIdentical(const machine::MachineConfig& cfg, int threads) {
  const DaxpyFingerprint first = RunDaxpyFingerprint(cfg, threads);
  const DaxpyFingerprint second = RunDaxpyFingerprint(cfg, threads);
  EXPECT_EQ(first.state, second.state);
  EXPECT_EQ(first.samples, second.samples);
  EXPECT_FALSE(first.samples.empty());
}

TEST(EngineReproducibility, DaxpySmpRunsAreIdentical) {
  ExpectDaxpyRunsIdentical(machine::SmpServerConfig(4), 4);
}

TEST(EngineReproducibility, DaxpyNumaRunsAreIdentical) {
  ExpectDaxpyRunsIdentical(machine::AltixConfig(8), 8);
}

TEST(EngineReproducibility, NpbCgSmpWithCobraRunsAreIdentical) {
  const std::string first =
      RunNpbFingerprint("cg", machine::SmpServerConfig(4), 4);
  EXPECT_EQ(first, RunNpbFingerprint("cg", machine::SmpServerConfig(4), 4));
}

TEST(EngineReproducibility, NpbCgNumaWithCobraRunsAreIdentical) {
  const std::string first = RunNpbFingerprint("cg", machine::AltixConfig(8), 8);
  EXPECT_EQ(first, RunNpbFingerprint("cg", machine::AltixConfig(8), 8));
}

// One fixed-seed fuzz-generated random workload (see src/verify/fuzz.h)
// per machine shape, run with the coherence checker enabled: the
// fingerprint includes the data-segment hash, so a lost or misordered
// store fails here even if the timing state happens to agree.
TEST(EngineReproducibility, FuzzWorkloadSmpRunsAreIdentical) {
  const verify::FuzzCase c = verify::SmpFuzzCase(7);
  EXPECT_EQ(verify::RunFuzzCase(c, machine::EngineConfig{}),
            verify::RunFuzzCase(c, machine::EngineConfig{}));
}

TEST(EngineReproducibility, FuzzWorkloadNumaRunsAreIdentical) {
  const verify::FuzzCase c = verify::NumaFuzzCase(7);
  EXPECT_EQ(verify::RunFuzzCase(c, machine::EngineConfig{}),
            verify::RunFuzzCase(c, machine::EngineConfig{}));
}

// Host-parallel runs: "parallel:N[@Q]" names N host threads, each building
// and simulating its own fresh machine at the same time, at quantum Q (the
// default when absent). This is a test-harness label, not an engine spec —
// ParseEngineSpec rejects it. One machine is only ever driven by one host
// thread, but several machines may run side by side in one process (a
// benchmark worker, a pool of experiment rows), and they share process
// state: the plan-cache switch, the host-performance totals, the checker's
// replay context, per-thread plan scratch. Every concurrent run must equal
// the single-threaded reference at the same quantum.
struct HostParallelSpec {
  int host_threads = 1;
  machine::EngineConfig engine;
};

HostParallelSpec ParseHostParallelSpec(const std::string& spec) {
  const std::string prefix = "parallel:";
  COBRA_CHECK_MSG(spec.rfind(prefix, 0) == 0, "expected parallel:N[@Q]");
  const std::size_t at = spec.find('@');
  const std::string threads =
      spec.substr(prefix.size(), at == std::string::npos
                                     ? std::string::npos
                                     : at - prefix.size());
  HostParallelSpec parsed;
  parsed.host_threads = std::stoi(threads);
  COBRA_CHECK_MSG(parsed.host_threads >= 1 && parsed.host_threads <= 8,
                  "host-parallel runs take 1..8 threads");
  parsed.engine = machine::ParseEngineSpec(
      at == std::string::npos ? std::string() : spec.substr(at));
  return parsed;
}

// Runs `fn` once on each of `n` host threads at the same time; returns the
// results in thread order.
template <typename Fn>
auto RunOnHostThreads(int n, const Fn& fn) -> std::vector<decltype(fn())> {
  std::vector<decltype(fn())> results(static_cast<std::size_t>(n));
  std::vector<std::thread> threads;
  for (int i = 0; i < n; ++i) {
    threads.emplace_back(
        [&results, &fn, i] { results[static_cast<std::size_t>(i)] = fn(); });
  }
  for (std::thread& t : threads) t.join();
  return results;
}

class EngineDeterminism : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override { spec_ = ParseHostParallelSpec(GetParam()); }

  const machine::EngineConfig& Engine() const { return spec_.engine; }

  template <typename Fn>
  auto Concurrently(const Fn& fn) const {
    return RunOnHostThreads(spec_.host_threads, fn);
  }

 private:
  HostParallelSpec spec_;
};

TEST_P(EngineDeterminism, DaxpySmpMatchesSerial) {
  const DaxpyFingerprint serial =
      RunDaxpyFingerprint(machine::SmpServerConfig(4), 4, Engine());
  for (const DaxpyFingerprint& run : Concurrently([this] {
         return RunDaxpyFingerprint(machine::SmpServerConfig(4), 4, Engine());
       })) {
    EXPECT_EQ(serial.state, run.state);
    EXPECT_EQ(serial.samples, run.samples);
  }
}

TEST_P(EngineDeterminism, DaxpyNumaMatchesSerial) {
  const DaxpyFingerprint serial =
      RunDaxpyFingerprint(machine::AltixConfig(8), 8, Engine());
  for (const DaxpyFingerprint& run : Concurrently([this] {
         return RunDaxpyFingerprint(machine::AltixConfig(8), 8, Engine());
       })) {
    EXPECT_EQ(serial.state, run.state);
    EXPECT_EQ(serial.samples, run.samples);
  }
}

TEST_P(EngineDeterminism, NpbCgSmpWithCobraMatchesSerial) {
  const std::string serial =
      RunNpbFingerprint("cg", machine::SmpServerConfig(4), 4, Engine());
  for (const std::string& run : Concurrently([this] {
         return RunNpbFingerprint("cg", machine::SmpServerConfig(4), 4,
                                  Engine());
       })) {
    EXPECT_EQ(serial, run);
  }
}

TEST_P(EngineDeterminism, NpbCgNumaWithCobraMatchesSerial) {
  const std::string serial =
      RunNpbFingerprint("cg", machine::AltixConfig(8), 8, Engine());
  for (const std::string& run : Concurrently([this] {
         return RunNpbFingerprint("cg", machine::AltixConfig(8), 8, Engine());
       })) {
    EXPECT_EQ(serial, run);
  }
}

// The fuzz workloads run with the coherence checker live, so every
// concurrent run also sets and clears the checker's replay context.
TEST_P(EngineDeterminism, FuzzWorkloadSmpMatchesSerial) {
  const verify::FuzzCase c = verify::SmpFuzzCase(7);
  const std::string serial = verify::RunFuzzCase(c, Engine());
  for (const std::string& run :
       Concurrently([&] { return verify::RunFuzzCase(c, Engine()); })) {
    EXPECT_EQ(serial, run);
  }
}

TEST_P(EngineDeterminism, FuzzWorkloadNumaMatchesSerial) {
  const verify::FuzzCase c = verify::NumaFuzzCase(7);
  const std::string serial = verify::RunFuzzCase(c, Engine());
  for (const std::string& run :
       Concurrently([&] { return verify::RunFuzzCase(c, Engine()); })) {
    EXPECT_EQ(serial, run);
  }
}

// parallel:1 moves the run onto one other host thread; parallel:2 and :4
// run machines side by side; the @256 variant checks the same holds at a
// non-default quantum.
INSTANTIATE_TEST_SUITE_P(Engines, EngineDeterminism,
                         ::testing::Values("parallel:1", "parallel:2",
                                           "parallel:4", "parallel:4@256"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == ':' || c == '@') c = '_';
                           }
                           return name;
                         });

// Back-to-back runs on each of several concurrent host threads must agree
// with each other: state a host thread keeps between machines (per-thread
// plan scratch) or shares with the other threads would show up here as
// run-to-run jitter.
TEST(EngineReproducibility, RepeatedParallelRunsAreIdentical) {
  const auto runs = RunOnHostThreads(4, [] {
    std::vector<DaxpyFingerprint> pair;
    pair.push_back(RunDaxpyFingerprint(machine::SmpServerConfig(4), 4));
    pair.push_back(RunDaxpyFingerprint(machine::SmpServerConfig(4), 4));
    return pair;
  });
  const DaxpyFingerprint& first = runs.front().front();
  EXPECT_FALSE(first.samples.empty());
  for (const std::vector<DaxpyFingerprint>& pair : runs) {
    for (const DaxpyFingerprint& run : pair) {
      EXPECT_EQ(first.state, run.state);
      EXPECT_EQ(first.samples, run.samples);
    }
  }
}

// The largest quantum puts the whole run in one window: the window end
// saturates instead of wrapping below the core clocks (which would stop
// every core from advancing), so the run must finish and compute DAXPY.
TEST(EngineQuantum, MaxQuantumDaxpyFinishesAndVerifies) {
  constexpr int kThreads = 2;
  constexpr int kReps = 3;
  constexpr std::int64_t kN = 4096;
  kgen::Program prog;
  const kgen::LoopInfo daxpy =
      EmitDaxpy(prog, "daxpy", kgen::PrefetchPolicy{});
  const mem::Addr x = prog.Alloc(kN * 8);
  const mem::Addr y = prog.Alloc(kN * 8);
  machine::MachineConfig cfg = machine::SmpServerConfig(kThreads);
  cfg.mem.memory_bytes = 1 << 22;
  machine::Machine machine(cfg, &prog.image());
  for (std::int64_t i = 0; i < kN; ++i) {
    machine.memory().WriteDouble(x + 8 * static_cast<mem::Addr>(i), 1.0);
    machine.memory().WriteDouble(y + 8 * static_cast<mem::Addr>(i), 2.0);
  }

  machine::EngineConfig engine;
  engine.quantum = std::numeric_limits<Cycle>::max();
  rt::Team team(&machine, kThreads, engine);
  for (int rep = 0; rep < kReps; ++rep) {
    team.Run(daxpy.entry, [&](int tid, cpu::RegisterFile& regs) {
      const auto chunk = rt::StaticChunk(tid, kThreads, kN);
      regs.WriteGr(14, x + 8 * static_cast<mem::Addr>(chunk.begin));
      regs.WriteGr(15, y + 8 * static_cast<mem::Addr>(chunk.begin));
      regs.WriteGr(16, static_cast<std::uint64_t>(chunk.size()));
      regs.WriteFr(6, 0.5);
    });
  }
  for (std::int64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(machine.memory().ReadDouble(y + 8 * static_cast<mem::Addr>(i)),
              2.0 + kReps * 0.5)
        << "element " << i;
  }
  // One window per region: each Team::Run is a single quantum.
  EXPECT_EQ(machine.engine_counters().quanta,
            static_cast<std::uint64_t>(kReps));
}

// Two-thread DAXPY whose arrays end exactly at the end of simulated memory,
// so the lfetches that run ahead of the last iterations are dropped. With
// `observe`, a memory observer counts its calls per CPU; `verify` arms the
// coherence checker.
struct ObservedDaxpy {
  std::string state;
  std::vector<std::uint64_t> observed;   // observer calls per CPU
  std::vector<std::uint64_t> performed;  // ld + st + lfetch (dropped too)
  std::uint64_t dropped = 0;
};

ObservedDaxpy RunObservedDaxpy(bool observe, bool verify) {
  constexpr int kThreads = 2;
  constexpr std::int64_t kN = 4096;
  kgen::Program prog;
  const kgen::LoopInfo daxpy =
      EmitDaxpy(prog, "daxpy", kgen::PrefetchPolicy{});
  const mem::Addr x = prog.Alloc(kN * 8);
  const mem::Addr y = prog.Alloc(kN * 8);
  machine::MachineConfig cfg = machine::SmpServerConfig(kThreads);
  cfg.mem.memory_bytes = y + kN * 8;
  cfg.verify_coherence = verify;
  machine::Machine machine(cfg, &prog.image());
  for (std::int64_t i = 0; i < kN; ++i) {
    machine.memory().WriteDouble(x + 8 * static_cast<mem::Addr>(i), 1.0);
    machine.memory().WriteDouble(y + 8 * static_cast<mem::Addr>(i), 2.0);
  }
  ObservedDaxpy out;
  out.observed.assign(kThreads, 0);
  if (observe) {
    for (CpuId cpu = 0; cpu < kThreads; ++cpu) {
      std::uint64_t* count = &out.observed[static_cast<std::size_t>(cpu)];
      machine.core(cpu).SetMemObserver(
          [count](isa::Addr, isa::Addr) { ++*count; });
    }
  }
  rt::Team team(&machine, kThreads);
  team.Run(daxpy.entry, [&](int tid, cpu::RegisterFile& regs) {
    const auto chunk = rt::StaticChunk(tid, kThreads, kN);
    regs.WriteGr(14, x + 8 * static_cast<mem::Addr>(chunk.begin));
    regs.WriteGr(15, y + 8 * static_cast<mem::Addr>(chunk.begin));
    regs.WriteGr(16, static_cast<std::uint64_t>(chunk.size()));
    regs.WriteFr(6, 0.5);
  });
  std::ostringstream state;
  AppendMachineState(state, machine);
  out.state = state.str();
  for (CpuId cpu = 0; cpu < kThreads; ++cpu) {
    const mem::CacheStack::Stats& ss = machine.stack(cpu).stats();
    const std::uint64_t dropped = machine.core(cpu).lfetches_dropped();
    out.performed.push_back(ss.loads + ss.stores + ss.prefetches + dropped);
    out.dropped += dropped;
  }
  return out;
}

// Segments commit fabric-free accesses through the fused Try* path whether
// or not hooks are attached. The memory observer must fire exactly once per
// performed op (dropped lfetches included), and attaching it or the
// checker must not change a single simulated value.
TEST(EngineSegments, MemObserverSeesEveryPerformedOpOnce) {
  const ObservedDaxpy plain = RunObservedDaxpy(false, false);
  ASSERT_GT(plain.dropped, 0u);
  for (const bool verify : {false, true}) {
    SCOPED_TRACE(verify ? "checker armed" : "checker off");
    const ObservedDaxpy observed = RunObservedDaxpy(true, verify);
    EXPECT_EQ(observed.state, plain.state);
    EXPECT_EQ(observed.observed, observed.performed);
  }
}

TEST(EngineSpec, ParsesSerialAndQuantum) {
  const Cycle kDefault = machine::EngineConfig{}.quantum;
  EXPECT_EQ(machine::ParseEngineSpec("serial").quantum, kDefault);
  EXPECT_EQ(machine::ParseEngineSpec("").quantum, kDefault);
  EXPECT_EQ(machine::ParseEngineSpec("serial@2048").quantum, 2048u);
  EXPECT_EQ(machine::ParseEngineSpec("@512").quantum, 512u);
  EXPECT_EQ(machine::ParseEngineSpec("serial@18446744073709551615").quantum,
            std::numeric_limits<Cycle>::max());
}

TEST(EngineSpecDeathTest, RejectsMalformedSpecsNamingTheGrammar) {
  // The retired host-parallel engine's spec forms are malformed too.
  const std::string retired = "parallel";
  for (const std::string& spec :
       {retired, retired + ":4", retired + "@512", std::string("serial@"),
        std::string("serial@0"), std::string("serial@-1"),
        std::string("serial@1x"), std::string("Serial")}) {
    EXPECT_DEATH(machine::ParseEngineSpec(spec), "serial\\[@Q\\]") << spec;
  }
}

// 2^64 - 1 has 20 digits; 99999999999999999999 wraps a 64-bit accumulator
// (to 7766279631452241919) and must be rejected, not silently accepted.
TEST(EngineSpecDeathTest, RejectsQuantumThatOverflows64Bits) {
  EXPECT_DEATH(machine::ParseEngineSpec("serial@99999999999999999999"),
               "does not fit in 64 bits");
  EXPECT_DEATH(machine::ParseEngineSpec("serial@18446744073709551616"),
               "does not fit in 64 bits");
}

TEST(EngineSpec, FormatRoundTripsThroughParse) {
  EXPECT_EQ(machine::FormatEngineSpec(machine::EngineConfig{}), "serial");
  for (const Cycle quantum :
       {Cycle{1}, Cycle{256}, Cycle{1023}, Cycle{1024}, Cycle{4096},
        std::numeric_limits<Cycle>::max()}) {
    machine::EngineConfig c;
    c.quantum = quantum;
    const std::string spec = machine::FormatEngineSpec(c);
    EXPECT_EQ(machine::ParseEngineSpec(spec).quantum, quantum) << spec;
  }
  machine::EngineConfig c;
  c.quantum = 512;
  EXPECT_EQ(machine::FormatEngineSpec(c), "serial@512");
}

}  // namespace
}  // namespace cobra
