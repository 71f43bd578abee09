// perfbench_worker: runs ONE pass of one host-performance workload and
// prints its raw measurements as a JSON document on stdout.
//
//   perfbench_worker <paper_quick|smp_mg_cobra|numa_daxpy_share>
//                    [--trace] [--smoke] [--baseline] [--golden=FILE]
//                    [--spans=FILE]
//
// The simulator is driven only through its public functions. Every call
// into a layer is timed from here with a span (spans.h); the counters come
// from what the program already exports: the machine's obs::Registry
// snapshot, machine::GlobalHostPerfTotals(), and the `host` objects of the
// cobra_bench report. run.py starts one worker per pass, so peak RSS
// belongs to that pass alone, and turns the passes into medians.
//
// Every pass runs pinned to one CPU next to a HostProbe (probe.h), whose
// mean slice time says how fast the host ran the pass.
//
// --trace adds what costs host time of its own: a round-task bracket around
// COBRA's round tasks (one span per engine round) and a SaveCheckpoint ->
// RestoreCheckpoint round trip of the final machine, outside the timed row.
// Without --trace no round task is registered.
//
// --smoke shrinks every workload (mg instead of mg@16, 200 DAXPY reps, one
// quick npb_smp experiment) for the benchmark's own tests.
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "cobra/cobra.h"
#include "compare.h"
#include "kgen/emitters.h"
#include "kgen/program.h"
#include "machine/engine.h"
#include "machine/machine.h"
#include "npb/common.h"
#include "obs/registry.h"
#include "rt/team.h"
#include "probe.h"
#include "spans.h"
#include "suite.h"
#include "support/json.h"

namespace perfbench {
namespace {

using cobra::support::Json;
namespace machine = cobra::machine;

struct Options {
  std::string workload;
  bool trace = false;
  bool smoke = false;
  // smp_mg_cobra without COBRA: the simulated baseline cycles run.py pins
  // (run.py --bless) to report the workload's COBRA speedup.
  bool baseline = false;
  std::string golden;
  std::string spans_path;
};

// Everything one pass measured. `metrics` holds the per-layer values the
// workload reaches from outside; run.py reports the rest as not reached.
struct Pass {
  double wall_s = 0.0;
  double setup_s = 0.0;
  std::uint64_t retired = 0;
  std::uint64_t rows = 0;
  bool verified = false;
  std::string fingerprint;
  std::uint64_t sim_cycles = 0;
  std::uint64_t compare_diffs = 0;
  std::vector<std::string> diffs;
  std::optional<double> cobra_speedup;
  std::map<std::string, double> metrics;
  // HostProbe's mean slice time over the pass, and its slice count.
  double probe_s = 0.0;
  std::uint64_t probe_slices = 0;
};

// Metric name -> value, summed over every registry dump of the pass.
using Counters = std::map<std::string, std::uint64_t, std::less<>>;

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}
bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

// Sum of the per-CPU family `<prefix>N<suffix>` (e.g. mem.cpuN.loads).
std::uint64_t SumPerCpu(const Counters& c, std::string_view prefix,
                        std::string_view suffix) {
  std::uint64_t total = 0;
  for (const auto& [name, value] : c) {
    if (StartsWith(name, prefix) && EndsWith(name, suffix) &&
        name.size() > prefix.size() + suffix.size()) {
      const std::string_view mid(name.data() + prefix.size(),
                                 name.size() - prefix.size() - suffix.size());
      if (mid.find_first_not_of("0123456789") == std::string_view::npos) {
        total += value;
      }
    }
  }
  return total;
}

// Sum of `fabric.<protocol>.<field>` over protocols (whole-fabric totals,
// not the per-CPU `fabric.<protocol>.cpuN.<field>` entries).
std::uint64_t SumFabric(const Counters& c, std::string_view field) {
  std::uint64_t total = 0;
  for (const auto& [name, value] : c) {
    if (!StartsWith(name, "fabric.")) continue;
    const std::string_view rest = std::string_view(name).substr(7);
    const std::size_t dot = rest.find('.');
    if (dot != std::string_view::npos && rest.substr(dot + 1) == field) {
      total += value;
    }
  }
  return total;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::uint64_t Get(const Counters& c, std::string_view name) {
  const auto it = c.find(name);
  return it == c.end() ? 0 : it->second;
}

// The counter-derived per-layer metrics (mem, fabric, engine, perfmon,
// cobra, tjit). Host-class tjit.* counters exist only in live snapshots.
void AddCounterMetrics(const Counters& c, Pass* pass) {
  auto& m = pass->metrics;
  const double retired = static_cast<double>(SumPerCpu(c, "cpu", ".retired"));
  const double kinst = retired / 1000.0;
  const auto put = [&m](const char* name, std::uint64_t v) {
    m[name] = static_cast<double>(v);
  };

  put("engine.rounds", Get(c, "engine.rounds"));
  put("engine.segments", Get(c, "engine.segments"));
  put("engine.commits", Get(c, "engine.commits"));
  m["engine.commits_per_kinst"] =
      Ratio(static_cast<double>(Get(c, "engine.commits")), kinst);

  const std::uint64_t loads = SumPerCpu(c, "mem.cpu", ".loads");
  const std::uint64_t stores = SumPerCpu(c, "mem.cpu", ".stores");
  const std::uint64_t prefetches = SumPerCpu(c, "mem.cpu", ".prefetches");
  put("mem.loads", loads);
  put("mem.stores", stores);
  put("mem.prefetches", prefetches);
  put("mem.l3_miss", Get(c, "mem.l3.miss"));
  m["mem.ops_per_kinst"] =
      Ratio(static_cast<double>(loads + stores + prefetches), kinst);
  put("mem.snoop_invalidations",
      SumPerCpu(c, "mem.cpu", ".snoop_invalidations"));
  put("mem.store_upgrades", SumPerCpu(c, "mem.cpu", ".store_upgrades"));

  put("fabric.memory", SumFabric(c, "memory"));
  put("fabric.coherent", SumFabric(c, "coherent"));
  put("fabric.upgrades", SumFabric(c, "upgrades"));
  put("fabric.c2c", SumFabric(c, "c2c"));
  put("fabric.remote", SumFabric(c, "remote"));
  m["fabric.coherent_per_kinst"] =
      Ratio(static_cast<double>(SumFabric(c, "coherent")), kinst);

  put("perfmon.samples", Get(c, "perfmon.samples"));
  put("perfmon.batches", Get(c, "perfmon.batches"));

  const std::uint64_t evaluations = Get(c, "cobra.evaluations");
  put("cobra.evaluations", evaluations);
  put("cobra.deployments", Get(c, "cobra.deployments"));
  put("cobra.rollbacks", Get(c, "cobra.rollbacks"));
  put("cobra.patch_verifications", Get(c, "cobra.patch_verifications"));
  m["cobra.deploy_ratio"] =
      Ratio(static_cast<double>(Get(c, "cobra.deployments")),
            static_cast<double>(evaluations));

  if (c.count("tjit.hits") != 0) {
    put("tjit.compiles", Get(c, "tjit.compiles"));
    put("tjit.flushes", Get(c, "tjit.flushes"));
    put("tjit.side_exits", Get(c, "tjit.side_exits"));
    m["tjit.hit_ratio"] =
        Ratio(static_cast<double>(Get(c, "tjit.hits")),
              static_cast<double>(Get(c, "tjit.hits") + Get(c, "tjit.misses")));
  }
}

// Host-wide engine totals over the pass (every machine the pass built).
void AddHostPerf(const machine::HostPerf& before,
                 const machine::HostPerf& after, Pass* pass) {
  const double engine_s =
      static_cast<double>(after.wall_ns - before.wall_ns) * 1e-9;
  pass->retired = after.retired - before.retired;
  pass->metrics["bench.outside_engine_s"] = pass->wall_s - engine_s;
  pass->metrics["tjit.sb_share"] =
      Ratio(static_cast<double>(after.sb_retired - before.sb_retired),
            static_cast<double>(pass->retired));
}

// Opens a span in the first round task and closes it in the last one, so
// it covers every round task registered in between (perfmon delivery, the
// COBRA monitors and optimization thread).
class RoundTaskBracket {
 public:
  RoundTaskBracket(SpanRecorder& recorder, int row)
      : recorder_(recorder), row_(row) {}
  void Open() { open_ = recorder_.Begin("cobra.round_task", row_); }
  void Close() { recorder_.End(open_); }

 private:
  SpanRecorder& recorder_;
  int row_;
  int open_ = -1;
};

// SaveCheckpoint -> RestoreCheckpoint of `source` into a fresh machine of
// the same configuration built over a regenerated program; the restored
// registry fingerprint must equal the source's. Runs after the timed row.
template <typename BuildProgram>
void SnapshotRoundTrip(SpanRecorder& rec, machine::Machine& source,
                       BuildProgram build_program, Pass* pass) {
  std::vector<std::uint8_t> blob;
  {
    const ScopedSpan span(rec, "snapshot.save", 0);
    blob = source.SaveCheckpoint();
  }
  cobra::kgen::Program program;
  build_program(program);
  machine::Machine target(source.config(), &program.image());
  std::string error;
  bool restored = false;
  {
    const ScopedSpan span(rec, "snapshot.restore", 0);
    restored = target.RestoreCheckpoint(blob, &error);
  }
  pass->metrics["snapshot.save_s"] = rec.TotalSeconds("snapshot.save");
  pass->metrics["snapshot.restore_s"] = rec.TotalSeconds("snapshot.restore");
  pass->metrics["snapshot.bytes"] = static_cast<double>(blob.size());
  if (!restored) {
    pass->diffs.push_back("snapshot restore rejected: " + error);
  } else if (target.registry().Take().Fingerprint() !=
             source.registry().Take().Fingerprint()) {
    pass->diffs.push_back("snapshot round trip changed the fingerprint");
  }
}

std::string Hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

// Gate values, span times and counters of a single-machine pass. Set-up is
// everything in the row before the first engine run.
void Finish(const cobra::obs::Snapshot& snapshot, const SpanRecorder& rec,
            bool trace, const machine::HostPerf& before, Pass* pass) {
  auto& m = pass->metrics;
  pass->rows = 1;
  m["bench.rows"] = 1.0;
  pass->fingerprint = Hex(snapshot.Fingerprint());
  pass->wall_s = rec.TotalSeconds("bench.row");
  pass->setup_s = static_cast<double>(rec.FirstStartNs("engine.run") -
                                      rec.FirstStartNs("bench.row")) *
                  1e-9;
  m["kgen.build_s"] = rec.TotalSeconds("kgen.build");
  m["machine.construct_s"] = rec.TotalSeconds("machine.construct");
  m["engine.run_s"] = rec.TotalSeconds("engine.run");
  m["verify.check_s"] = rec.TotalSeconds("verify.check");
  AddHostPerf(before, machine::GlobalHostPerfTotals(), pass);

  Counters counters;
  for (const cobra::obs::Metric& metric : snapshot.metrics) {
    counters[metric.name] += metric.value;
  }
  AddCounterMetrics(counters, pass);
  m["engine.us_per_round"] = Ratio(m["engine.run_s"] * 1e6, m["engine.rounds"]);
  if (trace) {
    const double round_task_s = rec.TotalSeconds("cobra.round_task");
    m["cobra.round_task_s"] = round_task_s;
    m["engine.segment_s"] = m["engine.run_s"] - round_task_s;
    m["cobra.host_share"] = Ratio(round_task_s, m["engine.run_s"]);
    m["cobra.us_per_evaluation"] =
        Ratio(round_task_s * 1e6, m["cobra.evaluations"]);
  }
}

// --- paper_quick ------------------------------------------------------------

std::optional<Json> ReadJson(const std::string& path, std::string* error) {
  std::ifstream in(path);
  if (!in.good()) {
    *error = "cannot read " + path;
    return std::nullopt;
  }
  std::stringstream text;
  text << in.rdbuf();
  return Json::Parse(text.str(), error);
}

Pass RunPaperQuick(const Options& opt, SpanRecorder& rec) {
  Pass pass;
  cobra::bench::SuiteOptions suite;
  suite.quick = true;
  // One NPB matrix for the smoke pass; the full pass runs all 11.
  if (opt.smoke) suite.only = "npb_smp";

  const machine::HostPerf before = machine::GlobalHostPerfTotals();
  Json report;
  {
    const ScopedSpan row(rec, "bench.row", 0);
    const ScopedSpan call(rec, "bench.run_paper_suite", 0);
    report = cobra::bench::RunPaperSuite(suite);
  }
  pass.wall_s = rec.TotalSeconds("bench.row");
  AddHostPerf(before, machine::GlobalHostPerfTotals(), &pass);
  // Rows are internal to the one call: everything outside engine runs is
  // set-up (program generation, machine construction, verify, report).
  pass.setup_s = pass.metrics["bench.outside_engine_s"];
  pass.metrics["engine.run_s"] = pass.wall_s - pass.setup_s;

  // Counters: the sum of every row's registry dump (the NPB-matrix rows
  // carry one); host-class counters are not in the report.
  Counters counters;
  double speedup_sum = 0.0;
  int speedup_n = 0;
  pass.verified = true;
  for (const Json& e : report.At("experiments").elements()) {
    const std::string& name = e.At("name").AsString();
    pass.metrics["bench." + name + ".host_s"] =
        e.At("host").At("wall_seconds").AsDouble();
    double full_wall = 0.0;
    double sampled_wall = 0.0;
    for (const Json& row : e.At("rows").elements()) {
      ++pass.rows;
      if (const Json* v = row.Find("verified")) {
        pass.verified = pass.verified && v->AsBool();
      }
      if (const Json* dump = row.Find("counters")) {
        for (const Json& entry : dump->elements()) {
          counters[entry.At("name").AsString()] +=
              static_cast<std::uint64_t>(entry.At("value").AsInt());
        }
      }
      if (name == "sampled_accuracy") {
        full_wall += row.At("host").At("full_wall_seconds").AsDouble();
        sampled_wall += row.At("host").At("sampled_wall_seconds").AsDouble();
      }
    }
    if (name == "sampled_accuracy") {
      pass.metrics["sample.wall_speedup"] = Ratio(full_wall, sampled_wall);
    }
    // The paper's Figure 5 headline: mean noprefetch speedup over SMP and
    // NUMA (the smoke pass runs SMP only).
    if (name == "npb_smp" || name == "npb_numa") {
      speedup_sum += e.At("derived").At("speedup_noprefetch_avg").AsDouble();
      ++speedup_n;
    }
  }
  if (speedup_n > 0) pass.cobra_speedup = speedup_sum / speedup_n;
  pass.metrics["bench.rows"] = static_cast<double>(pass.rows);
  AddCounterMetrics(counters, &pass);

  // Gate: the report must match the committed golden, restricted to the
  // experiments this pass ran (all of them unless --smoke).
  std::string error;
  std::optional<Json> golden = ReadJson(opt.golden, &error);
  if (!golden.has_value()) {
    pass.compare_diffs = 1;
    pass.diffs.push_back(opt.golden + ": " + error);
    return pass;
  }
  Json ran = Json::Array();
  for (const Json& e : golden->At("experiments").elements()) {
    if (e.At("name").AsString().find(suite.only) != std::string::npos) {
      ran.Append(e);
    }
  }
  golden->Set("experiments", std::move(ran));
  const cobra::bench::CompareResult cmp =
      cobra::bench::CompareReports(*golden, report);
  pass.compare_diffs = cmp.total_diffs;
  pass.diffs = cmp.diffs;
  return pass;
}

// --- smp_mg_cobra -----------------------------------------------------------

Pass RunSmpMgCobra(const Options& opt, SpanRecorder& rec) {
  Pass pass;
  const std::string benchmark = opt.smoke ? "mg" : "mg@16";
  constexpr int kThreads = 4;
  const auto build_program = [&benchmark](cobra::kgen::Program& prog) {
    cobra::npb::MakeBenchmark(benchmark)->Build(prog,
                                                cobra::kgen::PrefetchPolicy{});
  };
  const machine::HostPerf before = machine::GlobalHostPerfTotals();
  RoundTaskBracket bracket(rec, 0);

  cobra::kgen::Program prog;
  std::unique_ptr<cobra::npb::NpbBenchmark> bench;
  std::unique_ptr<machine::Machine> m;
  std::unique_ptr<cobra::core::CobraRuntime> cobra;
  std::unique_ptr<cobra::rt::Team> team;
  cobra::obs::Snapshot snapshot;
  {
    const ScopedSpan row(rec, "bench.row", 0);
    {
      const ScopedSpan s(rec, "kgen.build", 0);
      bench = cobra::npb::MakeBenchmark(benchmark);
      bench->Build(prog, cobra::kgen::PrefetchPolicy{});
    }
    {
      const ScopedSpan s(rec, "machine.construct", 0);
      machine::MachineConfig cfg = machine::SmpServerConfig(kThreads);
      cfg.mem.memory_bytes = 1 << 25;
      m = std::make_unique<machine::Machine>(cfg, &prog.image());
      bench->Init(*m, kThreads);
    }
    // Round tasks run in registration order: this one precedes the
    // sampling driver's, which the CobraRuntime constructor registers.
    if (opt.trace) m->AddRoundTask([&bracket] { bracket.Open(); });
    if (!opt.baseline) {
      const ScopedSpan s(rec, "cobra.attach", 0);
      // The npb_smp row's configuration (bench/npb_experiment.cpp).
      cobra::core::CobraConfig config;
      config.sampling_period_insts = 1000;
      config.strategy = cobra::core::OptKind::kNoprefetch;
      cobra = std::make_unique<cobra::core::CobraRuntime>(m.get(), config);
      cobra->AttachAll(kThreads);
    }
    if (opt.trace) m->AddRoundTask([&bracket] { bracket.Close(); });
    {
      const ScopedSpan s(rec, "machine.team", 0);
      team = std::make_unique<cobra::rt::Team>(m.get(), kThreads,
                                               machine::EngineConfigFromEnv());
    }
    {
      const ScopedSpan s(rec, "engine.run", 0);
      pass.sim_cycles = bench->Run(*team);
    }
    {
      const ScopedSpan s(rec, "verify.check", 0);
      pass.verified = bench->Verify(*m);
    }
    snapshot = m->registry().Take();
  }
  Finish(snapshot, rec, opt.trace, before, &pass);
  if (opt.trace) {
    // The fresh machine has no runtime attached; detach this one so both
    // registries hold the same metric set.
    cobra.reset();
    SnapshotRoundTrip(rec, *m, build_program, &pass);
  }
  return pass;
}

// --- numa_daxpy_share -------------------------------------------------------

Pass RunNumaDaxpyShare(const Options& opt, SpanRecorder& rec) {
  using cobra::mem::Addr;
  Pass pass;
  constexpr int kThreads = 8;
  // x and y together; 1 KiB of each per thread, so every partition
  // boundary falls inside the prefetch distance of the neighbour's stream.
  constexpr std::int64_t kWorkingSetBytes = 16 * 1024;
  constexpr std::int64_t n = kWorkingSetBytes / 16;
  constexpr int kWarmupReps = 4;
  const int reps = opt.smoke ? 200 : 16000;
  constexpr double a = 0.5;

  Addr x = 0;
  Addr y = 0;
  cobra::kgen::LoopInfo daxpy;
  const auto build_program = [&](cobra::kgen::Program& prog) {
    daxpy = cobra::kgen::EmitDaxpy(prog, "daxpy", cobra::kgen::PrefetchPolicy{});
    x = prog.Alloc(static_cast<std::uint64_t>(n) * 8, 128);
    y = prog.Alloc(static_cast<std::uint64_t>(n) * 8, 128);
  };
  const machine::HostPerf before = machine::GlobalHostPerfTotals();
  RoundTaskBracket bracket(rec, 0);

  cobra::kgen::Program prog;
  std::unique_ptr<machine::Machine> m;
  std::unique_ptr<cobra::rt::Team> team;
  cobra::obs::Snapshot snapshot;
  {
    const ScopedSpan row(rec, "bench.row", 0);
    {
      const ScopedSpan s(rec, "kgen.build", 0);
      build_program(prog);
    }
    {
      const ScopedSpan s(rec, "machine.construct", 0);
      m = std::make_unique<machine::Machine>(machine::AltixConfig(kThreads),
                                             &prog.image());
      for (std::int64_t i = 0; i < n; ++i) {
        m->memory().WriteDouble(x + 8 * static_cast<Addr>(i), 1.0 + 0.001 * i);
        m->memory().WriteDouble(y + 8 * static_cast<Addr>(i), 2.0 - 0.001 * i);
      }
      // First-touch placement: each partition lands on its thread's node.
      for (int tid = 0; tid < kThreads; ++tid) {
        const auto chunk = cobra::rt::StaticChunk(tid, kThreads, n);
        const int node = m->NodeOf(tid);
        m->memory().PlaceRange(x + 8 * static_cast<Addr>(chunk.begin),
                               x + 8 * static_cast<Addr>(chunk.end), node);
        m->memory().PlaceRange(y + 8 * static_cast<Addr>(chunk.begin),
                               y + 8 * static_cast<Addr>(chunk.end), node);
      }
    }
    // COBRA stays detached: nothing runs between the two bracket tasks.
    if (opt.trace) {
      m->AddRoundTask([&bracket] { bracket.Open(); });
      m->AddRoundTask([&bracket] { bracket.Close(); });
    }
    {
      const ScopedSpan s(rec, "machine.team", 0);
      team = std::make_unique<cobra::rt::Team>(m.get(), kThreads,
                                               machine::EngineConfigFromEnv());
    }
    {
      const ScopedSpan s(rec, "engine.run", 0);
      for (int rep = 0; rep < kWarmupReps + reps; ++rep) {
        team->Run(daxpy.entry, [&](int tid, cobra::cpu::RegisterFile& regs) {
          const auto chunk = cobra::rt::StaticChunk(tid, kThreads, n);
          regs.WriteGr(14, x + 8 * static_cast<Addr>(chunk.begin));
          regs.WriteGr(15, y + 8 * static_cast<Addr>(chunk.begin));
          regs.WriteGr(16, static_cast<std::uint64_t>(chunk.size()));
          regs.WriteFr(6, a);
        });
      }
      pass.sim_cycles = m->GlobalTime();
    }
    {
      // y == y0 + reps * a * x, with the simulator's fused multiply-add.
      const ScopedSpan s(rec, "verify.check", 0);
      pass.verified = true;
      for (std::int64_t i = 0; i < n && pass.verified; ++i) {
        double expected = 2.0 - 0.001 * i;
        const double xi = 1.0 + 0.001 * i;
        for (int rep = 0; rep < kWarmupReps + reps; ++rep) {
          expected = __builtin_fma(a, xi, expected);
        }
        pass.verified =
            m->memory().ReadDouble(y + 8 * static_cast<Addr>(i)) == expected;
      }
    }
    snapshot = m->registry().Take();
  }
  Finish(snapshot, rec, opt.trace, before, &pass);
  if (opt.trace) SnapshotRoundTrip(rec, *m, build_program, &pass);
  return pass;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

Json ToJson(const Pass& pass, const Options& opt, const SpanRecorder& rec) {
  Json out = Json::Object();
  out.Set("workload", opt.workload);
  out.Set("smoke", opt.smoke);
  out.Set("trace", opt.trace);
  out.Set("build_type", PERFBENCH_BUILD_TYPE);
  out.Set("compiler", __VERSION__);
  out.Set("wall_s", pass.wall_s);
  out.Set("setup_s", pass.setup_s);
  out.Set("probe_s", pass.probe_s);
  out.Set("probe_slices", pass.probe_slices);
  out.Set("retired", pass.retired);
  out.Set("peak_rss_mb", PeakRssMb());
  out.Set("rows", pass.rows);
  out.Set("verified", pass.verified);
  out.Set("fingerprint", pass.fingerprint);
  out.Set("sim_cycles", pass.sim_cycles);
  out.Set("compare_diffs", pass.compare_diffs);
  Json diffs = Json::Array();
  for (const std::string& d : pass.diffs) diffs.Append(d);
  out.Set("diffs", std::move(diffs));
  if (pass.cobra_speedup.has_value()) {
    out.Set("cobra_speedup", *pass.cobra_speedup);
  }
  Json layers = Json::Object();
  for (const auto& [layer, totals] : rec.LayerSelfTimes()) {
    Json t = Json::Object();
    t.Set("self_s", totals.self_s);
    t.Set("count", totals.count);
    layers.Set(layer, std::move(t));
  }
  out.Set("layers", std::move(layers));
  Json metrics = Json::Object();
  for (const auto& [name, value] : pass.metrics) metrics.Set(name, value);
  out.Set("metrics", std::move(metrics));
  return out;
}

bool FlagValue(const char* arg, const char* flag, std::string* value) {
  const std::size_t n = std::strlen(flag);
  if (std::strncmp(arg, flag, n) != 0 || arg[n] != '=') return false;
  *value = arg + n + 1;
  return true;
}

int Main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--trace") == 0) {
      opt.trace = true;
    } else if (std::strcmp(arg, "--smoke") == 0) {
      opt.smoke = true;
    } else if (std::strcmp(arg, "--baseline") == 0) {
      opt.baseline = true;
    } else if (FlagValue(arg, "--golden", &opt.golden) ||
               FlagValue(arg, "--spans", &opt.spans_path)) {
    } else if (arg[0] != '-' && opt.workload.empty()) {
      opt.workload = arg;
    } else {
      std::fprintf(stderr, "perfbench_worker: unknown argument %s\n", arg);
      return 2;
    }
  }

  HostProbe probe;
  std::string error;
  if (!probe.Start(&error)) {
    std::fprintf(stderr, "perfbench_worker: %s\n", error.c_str());
    return 1;
  }
  SpanRecorder rec;
  Pass pass;
  if (opt.workload == "paper_quick") {
    pass = RunPaperQuick(opt, rec);
  } else if (opt.workload == "smp_mg_cobra") {
    pass = RunSmpMgCobra(opt, rec);
  } else if (opt.workload == "numa_daxpy_share") {
    pass = RunNumaDaxpyShare(opt, rec);
  } else {
    std::fprintf(stderr, "perfbench_worker: unknown workload '%s'\n",
                 opt.workload.c_str());
    return 2;
  }
  probe.Stop();
  pass.probe_s = probe.MeanSliceSeconds();
  pass.probe_slices = probe.slices();
  if (!opt.spans_path.empty() && !rec.WriteJsonl(opt.spans_path)) {
    std::fprintf(stderr, "perfbench_worker: cannot write %s\n",
                 opt.spans_path.c_str());
    return 1;
  }
  std::fputs(ToJson(pass, opt, rec).Dump().c_str(), stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
