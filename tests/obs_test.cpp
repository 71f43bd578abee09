// Observability-layer unit tests: the metric registry (probes, snapshots,
// fingerprints, RAII registration groups), the Chrome trace-event sink
// (its output must parse as the JSON chrome://tracing loads), the JSON
// document model itself (round-tripping, exact integers, schema
// signatures), and a whole-machine check that the registry's aggregate
// metrics agree with the counters they summarize.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>

#include "kgen/emitters.h"
#include "kgen/program.h"
#include "machine/engine.h"
#include "machine/machine.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "rt/team.h"
#include "support/json.h"

namespace cobra {
namespace {

using support::Json;

// --- Registry --------------------------------------------------------------

TEST(Registry, SnapshotIsNameSortedAndQueryable) {
  obs::Registry registry;
  std::uint64_t a = 7;
  registry.Register("mem.l3.miss", [&a] { return a; });
  registry.Register("bus.occupancy", [] { return std::uint64_t{3}; });
  registry.Register("mem.l2.miss", [] { return std::uint64_t{11}; });

  const obs::Snapshot snap = registry.Take();
  ASSERT_EQ(snap.metrics.size(), 3u);
  EXPECT_EQ(snap.metrics[0].name, "bus.occupancy");
  EXPECT_EQ(snap.metrics[1].name, "mem.l2.miss");
  EXPECT_EQ(snap.metrics[2].name, "mem.l3.miss");
  EXPECT_TRUE(snap.Has("mem.l3.miss"));
  EXPECT_FALSE(snap.Has("mem.l4.miss"));
  EXPECT_EQ(snap.Value("mem.l3.miss"), 7u);
  EXPECT_EQ(snap.SumPrefix("mem."), 18u);
  EXPECT_EQ(snap.SumPrefix(""), 21u);

  // Probes are live: the next snapshot sees the new value.
  a = 100;
  EXPECT_EQ(registry.Take().Value("mem.l3.miss"), 100u);
}

TEST(Registry, FingerprintTracksNamesAndValues) {
  obs::Registry registry;
  std::uint64_t v = 1;
  registry.Register("a", [&v] { return v; });
  const std::uint64_t fp1 = registry.Take().Fingerprint();
  EXPECT_EQ(registry.Take().Fingerprint(), fp1);  // stable
  v = 2;
  const std::uint64_t fp2 = registry.Take().Fingerprint();
  EXPECT_NE(fp1, fp2);

  // Same values under a different name hash differently.
  obs::Registry other;
  std::uint64_t w = 2;
  other.Register("b", [&w] { return w; });
  EXPECT_NE(other.Take().Fingerprint(), fp2);
}

TEST(Registry, HostMetricsExcludedFromFingerprintAndDump) {
  obs::Registry registry;
  registry.Register("sim.counter", [] { return std::uint64_t{42}; });
  const std::uint64_t fp_sim_only = registry.Take().Fingerprint();
  const std::string dump_sim_only = registry.Take().ToString();

  // A host-class probe is sampled like any metric but must not perturb the
  // determinism fingerprint or the diffable dump, whatever value it reads.
  std::uint64_t wall = 123456;
  registry.RegisterHost("host.wall_ns", [&wall] { return wall; });
  obs::Snapshot snap = registry.Take();
  ASSERT_EQ(snap.metrics.size(), 2u);
  EXPECT_TRUE(snap.Has("host.wall_ns"));
  EXPECT_EQ(snap.Value("host.wall_ns"), 123456u);
  EXPECT_EQ(snap.Fingerprint(), fp_sim_only);
  EXPECT_EQ(snap.ToString(), dump_sim_only);

  wall = 999;  // "another run": different host reading, same fingerprint
  EXPECT_EQ(registry.Take().Fingerprint(), fp_sim_only);
}

TEST(Registry, DuplicateNameAborts) {
  obs::Registry registry;
  registry.Register("x", [] { return std::uint64_t{0}; });
  EXPECT_DEATH(registry.Register("x", [] { return std::uint64_t{0}; }),
               "duplicate metric name");
}

TEST(Registry, UnregisterAndRegistrationGroup) {
  obs::Registry registry;
  const int id = registry.Register("gone", [] { return std::uint64_t{1}; });
  registry.Unregister(id);
  EXPECT_FALSE(registry.Take().Has("gone"));

  {
    obs::Registry::Registration group(&registry);
    group.Add("scoped.a", [] { return std::uint64_t{1}; });
    group.Add("scoped.b", [] { return std::uint64_t{2}; });
    EXPECT_EQ(registry.Take().SumPrefix("scoped."), 3u);
  }
  // The group released its probes; the name is free again.
  EXPECT_FALSE(registry.Take().Has("scoped.a"));
  registry.Register("scoped.a", [] { return std::uint64_t{9}; });
  EXPECT_EQ(registry.Take().Value("scoped.a"), 9u);
}

// --- Machine integration ---------------------------------------------------

// The aggregate metrics must equal the sums of what they aggregate, and the
// engine tallies must be live after a run.
TEST(Registry, MachineMetricsAgreeWithCounters) {
  kgen::Program prog;
  const kgen::LoopInfo daxpy =
      EmitDaxpy(prog, "daxpy", kgen::PrefetchPolicy{});
  constexpr std::int64_t kN = 4096;
  const mem::Addr x = prog.Alloc(kN * 8);
  const mem::Addr y = prog.Alloc(kN * 8);
  machine::Machine machine(machine::SmpServerConfig(4), &prog.image());
  for (std::int64_t i = 0; i < kN; ++i) {
    machine.memory().WriteDouble(x + 8 * static_cast<mem::Addr>(i), 1.0);
    machine.memory().WriteDouble(y + 8 * static_cast<mem::Addr>(i), 2.0);
  }
  rt::Team team(&machine, 4);
  team.Run(daxpy.entry, [&](int tid, cpu::RegisterFile& regs) {
    const auto chunk = rt::StaticChunk(tid, 4, kN);
    regs.WriteGr(14, x + 8 * static_cast<mem::Addr>(chunk.begin));
    regs.WriteGr(15, y + 8 * static_cast<mem::Addr>(chunk.begin));
    regs.WriteGr(16, static_cast<std::uint64_t>(chunk.size()));
    regs.WriteFr(6, 0.5);
  });

  const obs::Snapshot snap = machine.registry().Take();
  std::uint64_t l3 = 0;
  for (int cpu = 0; cpu < machine.num_cpus(); ++cpu) {
    l3 += machine.stack(cpu).L3Misses();
    EXPECT_EQ(snap.Value("cpu" + std::to_string(cpu) + ".retired"),
              machine.core(cpu).instructions_retired());
  }
  EXPECT_GT(l3, 0u);
  EXPECT_EQ(snap.Value("mem.l3.miss"), l3);
  EXPECT_EQ(snap.Value("mem.l3.miss"),
            snap.SumPrefix("mem.cpu0.l3.") + snap.SumPrefix("mem.cpu1.l3.") +
                snap.SumPrefix("mem.cpu2.l3.") + snap.SumPrefix("mem.cpu3.l3."));
  // Fabric metrics are registered under the active protocol's prefix.
  const std::string fab =
      std::string("fabric.") + mem::ProtocolName(machine.config().mem.protocol);
  EXPECT_EQ(snap.Value(fab + ".memory"),
            machine.fabric().TotalCounts().bus_memory);
  EXPECT_EQ(snap.Value("machine.global_time"), machine.GlobalTime());
  EXPECT_GT(snap.Value("engine.quanta"), 0u);
  EXPECT_GT(snap.Value("engine.commits"), 0u);

  // The engine accounted the run's host-perf: simulated-work counters are
  // exact (sum of core deltas), wall-clock is host-dependent so only its
  // presence is checked.
  EXPECT_EQ(snap.Value("host.runs"), 1u);
  EXPECT_GT(snap.Value("host.sim_cycles"), 0u);
  EXPECT_GT(snap.Value("host.retired"), 0u);
  EXPECT_TRUE(snap.Has("host.wall_ns"));
}

// --- Trace sink ------------------------------------------------------------

TEST(TraceSink, WritesChromeLoadableJson) {
  obs::TraceSink sink;
  const int pid = sink.BeginProcess("smpx4");
  sink.NameThread(pid, 0, "cpu0");
  sink.Complete(pid, 0, "coherence", "read", 100, 40);
  sink.Complete(pid, 0, "engine", "quantum", 0, 1024);
  sink.Instant(pid, 5, "cobra", "deploy.noprefetch", 2048);
  EXPECT_EQ(sink.event_count(), 5u);  // 2 metadata + 3 events

  std::ostringstream out;
  sink.WriteJson(out);
  std::string error;
  const auto doc = Json::Parse(out.str(), &error);
  ASSERT_TRUE(doc.has_value()) << error;

  // The shape chrome://tracing expects: an object with a traceEvents
  // array whose records carry ph/pid/tid/ts.
  const Json& events = doc->At("traceEvents");
  ASSERT_TRUE(events.is_array());
  ASSERT_EQ(events.size(), 5u);
  EXPECT_EQ(events.elements()[0].At("ph").AsString(), "M");
  EXPECT_EQ(events.elements()[0].At("name").AsString(), "process_name");
  EXPECT_EQ(events.elements()[0].At("args").At("name").AsString(), "smpx4");
  const Json& read = events.elements()[2];
  EXPECT_EQ(read.At("ph").AsString(), "X");
  EXPECT_EQ(read.At("cat").AsString(), "coherence");
  EXPECT_EQ(read.At("ts").AsInt(), 100);
  EXPECT_EQ(read.At("dur").AsInt(), 40);
  EXPECT_EQ(read.At("pid").AsInt(), pid);
  const Json& instant = events.elements()[4];
  EXPECT_EQ(instant.At("ph").AsString(), "i");
  EXPECT_EQ(instant.At("s").AsString(), "t");
  EXPECT_EQ(instant.At("name").AsString(), "deploy.noprefetch");
}

TEST(TraceSink, MachineEmitsTimelineWhenAttached) {
  obs::TraceSink sink;
  kgen::Program prog;
  const kgen::LoopInfo daxpy =
      EmitDaxpy(prog, "daxpy", kgen::PrefetchPolicy{});
  constexpr std::int64_t kN = 2048;
  const mem::Addr x = prog.Alloc(kN * 8);
  const mem::Addr y = prog.Alloc(kN * 8);
  machine::Machine machine(machine::SmpServerConfig(2), &prog.image());
  machine.SetTraceSink(&sink);
  for (std::int64_t i = 0; i < kN; ++i) {
    machine.memory().WriteDouble(x + 8 * static_cast<mem::Addr>(i), 1.0);
    machine.memory().WriteDouble(y + 8 * static_cast<mem::Addr>(i), 2.0);
  }
  rt::Team team(&machine, 2);
  team.Run(daxpy.entry, [&](int tid, cpu::RegisterFile& regs) {
    const auto chunk = rt::StaticChunk(tid, 2, kN);
    regs.WriteGr(14, x + 8 * static_cast<mem::Addr>(chunk.begin));
    regs.WriteGr(15, y + 8 * static_cast<mem::Addr>(chunk.begin));
    regs.WriteGr(16, static_cast<std::uint64_t>(chunk.size()));
    regs.WriteFr(6, 0.5);
  });

  std::ostringstream out;
  sink.WriteJson(out);
  std::string error;
  const auto doc = Json::Parse(out.str(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  // Count events per category: the run must have produced engine quanta
  // and coherence transactions on the machine's pid.
  std::size_t quanta = 0;
  std::size_t coherence = 0;
  for (const Json& e : doc->At("traceEvents").elements()) {
    const Json* cat = e.Find("cat");
    if (cat == nullptr) continue;
    if (cat->AsString() == "engine") ++quanta;
    if (cat->AsString() == "coherence") ++coherence;
  }
  EXPECT_GT(quanta, 0u);
  EXPECT_GT(coherence, 0u);
}

// A quantum event spans the cycles its window actually covered, not the
// configured quantum: at the largest quantum each region is one window, and
// its event must not reach past the cycles the run simulated.
TEST(TraceSink, QuantumEventsSpanTheCyclesRun) {
  obs::TraceSink sink;
  kgen::Program prog;
  const kgen::LoopInfo daxpy =
      EmitDaxpy(prog, "daxpy", kgen::PrefetchPolicy{});
  constexpr std::int64_t kN = 1024;
  constexpr int kReps = 2;
  const mem::Addr x = prog.Alloc(kN * 8);
  const mem::Addr y = prog.Alloc(kN * 8);
  machine::Machine machine(machine::SmpServerConfig(2), &prog.image());
  machine.SetTraceSink(&sink);
  for (std::int64_t i = 0; i < kN; ++i) {
    machine.memory().WriteDouble(x + 8 * static_cast<mem::Addr>(i), 1.0);
    machine.memory().WriteDouble(y + 8 * static_cast<mem::Addr>(i), 2.0);
  }
  machine::EngineConfig engine;
  engine.quantum = std::numeric_limits<Cycle>::max();
  rt::Team team(&machine, 2, engine);
  for (int rep = 0; rep < kReps; ++rep) {
    team.Run(daxpy.entry, [&](int tid, cpu::RegisterFile& regs) {
      const auto chunk = rt::StaticChunk(tid, 2, kN);
      regs.WriteGr(14, x + 8 * static_cast<mem::Addr>(chunk.begin));
      regs.WriteGr(15, y + 8 * static_cast<mem::Addr>(chunk.begin));
      regs.WriteGr(16, static_cast<std::uint64_t>(chunk.size()));
      regs.WriteFr(6, 0.5);
    });
  }
  Cycle sim_cycles = 0;
  for (CpuId cpu = 0; cpu < machine.num_cpus(); ++cpu) {
    sim_cycles = std::max(sim_cycles, machine.core(cpu).now());
  }
  ASSERT_GT(sim_cycles, 0u);

  std::ostringstream out;
  sink.WriteJson(out);
  std::string error;
  const auto doc = Json::Parse(out.str(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  int quanta = 0;
  for (const Json& e : doc->At("traceEvents").elements()) {
    const Json* name = e.Find("name");
    if (e.At("ph").AsString() != "X" || name->AsString() != "quantum") {
      continue;
    }
    ++quanta;
    const double dur = e.At("dur").AsDouble();
    EXPECT_GT(dur, 0.0);
    EXPECT_LE(dur, static_cast<double>(sim_cycles));
  }
  EXPECT_EQ(quanta, kReps);  // one window per region
}

// --- JSON model ------------------------------------------------------------

TEST(JsonModel, BuildDumpParseRoundTrip) {
  Json doc = Json::Object();
  doc.Set("int", std::int64_t{1234567890123456789});
  doc.Set("neg", -42);
  doc.Set("dbl", 0.1);
  doc.Set("str", "line\n\"quoted\"\ttab");
  doc.Set("yes", true);
  doc.Set("null", Json());
  Json arr = Json::Array();
  arr.Append(1);
  arr.Append("two");
  doc.Set("arr", std::move(arr));

  const std::string text = doc.Dump();
  std::string error;
  const auto parsed = Json::Parse(text, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->Dump(), text);  // fixed point
  EXPECT_EQ(parsed->At("int").AsInt(), 1234567890123456789);
  EXPECT_EQ(parsed->At("neg").AsInt(), -42);
  EXPECT_DOUBLE_EQ(parsed->At("dbl").AsDouble(), 0.1);
  EXPECT_EQ(parsed->At("str").AsString(), "line\n\"quoted\"\ttab");
  EXPECT_TRUE(parsed->At("yes").AsBool());
  EXPECT_EQ(parsed->At("null").kind(), Json::Kind::kNull);
  EXPECT_EQ(parsed->At("arr").elements()[1].AsString(), "two");
}

TEST(JsonModel, ParseRejectsMalformedInput) {
  for (const char* bad : {"", "{", "{ ", "{\"a\":1,", "[1,]", "{\"a\":}",
                          "tru", "1 2", "{\"a\":1,}", "\"unterminated"}) {
    std::string error;
    EXPECT_FALSE(Json::Parse(bad, &error).has_value()) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

TEST(JsonModel, SchemaSignatureErasesValuesKeepsShape) {
  const auto a = Json::Parse(R"({"b": 1, "a": [ {"x": 1.5}, {"x": 2} ]})");
  const auto b = Json::Parse(R"({"a": [ {"x": 99} ], "b": -7})");
  const auto c = Json::Parse(R"({"a": [ {"x": "s"} ], "b": 0})");
  ASSERT_TRUE(a && b && c);
  // Same keys/types (key order and array length don't matter) -> equal.
  EXPECT_EQ(a->SchemaSignature(), b->SchemaSignature());
  // A type change inside array elements -> different.
  EXPECT_NE(a->SchemaSignature(), c->SchemaSignature());
}

}  // namespace
}  // namespace cobra
