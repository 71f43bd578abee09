#include "suite.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <memory>
#include <utility>

#include "cobra/cobra.h"
#include "daxpy_experiment.h"
#include "kgen/emitters.h"
#include "kgen/program.h"
#include "machine/machine.h"
#include "mem/protocol.h"
#include "npb/common.h"
#include "npb_experiment.h"
#include "obs/trace.h"
#include "perfmon/sample.h"
#include "rt/team.h"
#include "support/check.h"

namespace cobra::bench {
namespace {

using support::Json;

std::string FingerprintHex(std::uint64_t fp) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, fp);
  return buf;
}

// The per-row counter dump: every registry metric as {name, value}. An
// array of uniform objects keeps the document schema independent of the
// machine's CPU count (4-way SMP and 8-way NUMA rows have different metric
// *lists* but the same shape).
Json SnapshotCounters(const obs::Snapshot& snapshot) {
  Json counters = Json::Array();
  for (const obs::Metric& m : snapshot.metrics) {
    // Host-class readings are nondeterministic; they are reported once per
    // experiment in the "host" object, never in the counter dumps that
    // reports are diffed by.
    if (m.host) continue;
    Json entry = Json::Object();
    entry.Set("name", m.name);
    entry.Set("value", m.value);
    counters.Append(std::move(entry));
  }
  return counters;
}

// The per-experiment "host" object: how fast the host simulated, measured
// process-wide around the experiment body. Every value here varies run to
// run; report-comparison tools must ignore the whole object (cobra_bench
// --compare does).
Json HostPerfJson(const machine::HostPerf& before,
                  const machine::HostPerf& after, double wall_seconds) {
  const std::uint64_t sim_cycles = after.sim_cycles - before.sim_cycles;
  const std::uint64_t retired = after.retired - before.retired;
  const std::uint64_t sb_retired = after.sb_retired - before.sb_retired;
  Json host = Json::Object();
  host.Set("wall_seconds", wall_seconds);
  host.Set("engine_runs", after.runs - before.runs);
  host.Set("sim_cycles", sim_cycles);
  host.Set("retired_insts", retired);
  // Instructions retired inside the trace-JIT's superblock executor (0 with
  // COBRA_TJIT=off), and the share of all retired instructions that ran
  // there — the JIT coverage this experiment achieved.
  host.Set("sb_retired_insts", sb_retired);
  host.Set("sb_share",
           retired > 0 ? static_cast<double>(sb_retired) /
                             static_cast<double>(retired)
                       : 0.0);
  host.Set("sim_cycles_per_host_second",
           wall_seconds > 0.0 ? static_cast<double>(sim_cycles) / wall_seconds
                              : 0.0);
  host.Set("sim_mips", wall_seconds > 0.0
                           ? static_cast<double>(retired) / wall_seconds / 1e6
                           : 0.0);
  return host;
}

Json BeginExperiment(const char* name, const char* figure,
                     const char* description, const char* machine,
                     int threads) {
  Json e = Json::Object();
  e.Set("name", name);
  e.Set("figure", figure);
  e.Set("description", description);
  e.Set("machine", machine);
  e.Set("threads", threads);
  return e;
}

double Speedup(const NpbRunResult& base, const NpbRunResult& opt) {
  return static_cast<double>(base.cycles) / static_cast<double>(opt.cycles);
}

double Ratio(std::uint64_t opt, std::uint64_t base) {
  return base == 0 ? 0.0
                   : static_cast<double>(opt) / static_cast<double>(base);
}

// The sampled-run schedule for --sample NPB matrices: COBRA_SAMPLE when
// set, otherwise an interval sized for the class-S instruction counts.
perfmon::SampleConfig MatrixSampleConfig() {
  perfmon::SampleConfig config = perfmon::SampleConfigFromEnv();
  if (!config.enabled()) {
    config.interval_insts = 100000;
    config.max_phases = 8;
  }
  return config;
}

// --- Table 1: static loop / prefetch statistics ----------------------------

constexpr const char* kDescTable1 =
    "lfetch / br.ctop / br.cloop / br.wtop counts per compiler-generated "
    "OpenMP NPB binary";

Json RunTable1(const SuiteOptions&) {
  Json e = BeginExperiment("table1_static_stats", "Table 1", kDescTable1,
                           "none", 0);
  Json rows = Json::Array();
  std::uint64_t lfetch_total = 0;
  for (const std::string& name : npb::SuiteNames()) {
    auto benchmark = npb::MakeBenchmark(name);
    kgen::Program prog;
    benchmark->Build(prog, kgen::PrefetchPolicy{});
    const kgen::StaticStats stats = prog.CountStatic();
    lfetch_total += stats.lfetch;
    Json row = Json::Object();
    row.Set("benchmark", name);
    row.Set("lfetch", stats.lfetch);
    row.Set("br_ctop", stats.br_ctop);
    row.Set("br_cloop", stats.br_cloop);
    row.Set("br_wtop", stats.br_wtop);
    rows.Append(std::move(row));
  }
  e.Set("rows", std::move(rows));
  Json derived = Json::Object();
  derived.Set("lfetch_total", lfetch_total);
  e.Set("derived", std::move(derived));
  return e;
}

// --- Figure 2: DAXPY codegen shape -----------------------------------------

constexpr const char* kDescFig2 =
    "structural properties of the generated DAXPY assembly (6 prologue "
    "lfetches + 1 rotating steady-state lfetch, br.ctop loop)";

Json RunFig2(const SuiteOptions&) {
  Json e = BeginExperiment("fig2_codegen", "Figure 2", kDescFig2, "none", 0);
  kgen::Program prog;
  const kgen::LoopInfo daxpy =
      EmitDaxpy(prog, "daxpy", kgen::PrefetchPolicy{});
  const kgen::StaticStats stats = prog.CountStatic();
  const bool back_branch_is_ctop =
      prog.image().Fetch(daxpy.back_branch_pc).op == isa::Opcode::kBrCtop;

  Json rows = Json::Array();
  auto AddProp = [&rows](const char* property, std::uint64_t value) {
    Json row = Json::Object();
    row.Set("property", property);
    row.Set("value", value);
    rows.Append(std::move(row));
  };
  AddProp("steady_state_lfetch_pcs", daxpy.lfetch_pcs.size());
  AddProp("static_lfetch", stats.lfetch);
  AddProp("br_ctop", stats.br_ctop);
  AddProp("back_branch_is_ctop", back_branch_is_ctop ? 1 : 0);
  e.Set("rows", std::move(rows));

  Json derived = Json::Object();
  derived.Set("shape_ok", daxpy.lfetch_pcs.size() == 1 && stats.lfetch == 7 &&
                              stats.br_ctop == 1 && back_branch_is_ctop);
  e.Set("derived", std::move(derived));
  return e;
}

// --- Figure 3: DAXPY working-set / thread-count sweep ----------------------

constexpr const char* kDescFig3 =
    "normalized DAXPY execution time, prefetch vs noprefetch vs "
    "prefetch.excl, per working set (1-thread prefetch = 1)";

Json RunFig3(const SuiteOptions& options) {
  Json e = BeginExperiment("fig3_daxpy", "Figure 3", kDescFig3, "smp4", 4);
  const std::size_t working_sets_full[] = {128 * 1024, 512 * 1024,
                                           2 * 1024 * 1024};
  const std::size_t working_sets_quick[] = {128 * 1024};
  const std::size_t* working_sets =
      options.quick ? working_sets_quick : working_sets_full;
  const std::size_t num_ws = options.quick ? 1 : 3;
  const DaxpyVariant variants[] = {DaxpyVariant::kPrefetch,
                                   DaxpyVariant::kNoprefetch,
                                   DaxpyVariant::kExcl};

  Json rows = Json::Array();
  double noprefetch_vs_prefetch_4t = 0.0;
  double excl_vs_prefetch_4t = 0.0;
  for (std::size_t w = 0; w < num_ws; ++w) {
    const std::size_t ws = working_sets[w];
    double baseline = 0.0;
    double prefetch_4t = 0.0;
    for (const int threads : {1, 2, 4}) {
      for (const DaxpyVariant variant : variants) {
        DaxpyParams params;
        params.threads = threads;
        params.working_set_bytes = ws;
        params.variant = variant;
        params.engine = options.engine;
        if (options.quick) {
          params.reps = 16;
          params.warmup_reps = 2;
        }
        const DaxpyResult r = RunDaxpyExperiment(params);
        const double cycles = static_cast<double>(r.cycles);
        if (baseline == 0.0) baseline = cycles;  // (1 thread, prefetch)
        if (threads == 4 && variant == DaxpyVariant::kPrefetch) {
          prefetch_4t = cycles;
        }
        // Only the first (smallest) working set feeds the headline derived
        // numbers — the paper's 128K column is where noprefetch wins.
        if (w == 0 && threads == 4 && prefetch_4t > 0.0) {
          if (variant == DaxpyVariant::kNoprefetch) {
            noprefetch_vs_prefetch_4t = prefetch_4t / cycles;
          } else if (variant == DaxpyVariant::kExcl) {
            excl_vs_prefetch_4t = prefetch_4t / cycles;
          }
        }
        Json row = Json::Object();
        row.Set("working_set_kib", ws / 1024);
        row.Set("threads", threads);
        row.Set("variant", DaxpyVariantName(variant));
        row.Set("cycles", static_cast<std::uint64_t>(r.cycles));
        row.Set("normalized", cycles / baseline);
        row.Set("l3_misses", r.l3_misses);
        row.Set("bus_memory", r.bus_memory);
        row.Set("verified", r.verified);
        rows.Append(std::move(row));
      }
    }
  }
  e.Set("rows", std::move(rows));
  Json derived = Json::Object();
  derived.Set("noprefetch_speedup_4t_128k", noprefetch_vs_prefetch_4t);
  derived.Set("excl_speedup_4t_128k", excl_vs_prefetch_4t);
  e.Set("derived", std::move(derived));
  return e;
}

// --- Figures 5/6/7: the NPB matrix on each machine -------------------------

// One benchmark × mode grid per machine covers three paper figures at once:
// speedup (Fig. 5), L3 misses (Fig. 6) and bus/invalidation traffic
// (Fig. 7). The fourth mode — the always-on `.excl` binary — is the
// non-adaptive strawman COBRA's measured epochs beat in Fig. 7(a).
struct NpbModeSpec {
  const char* name;
  NpbMode mode;
  bool static_excl;
};

constexpr NpbModeSpec kNpbModes[] = {
    {"prefetch", NpbMode::kBaseline, false},
    {"noprefetch", NpbMode::kCobraNoprefetch, false},
    {"prefetch.excl", NpbMode::kCobraExcl, false},
    {"static.excl", NpbMode::kBaseline, true},
};

Json NpbRow(const std::string& benchmark, const char* mode_name,
            const NpbRunResult& r, const NpbRunResult& base) {
  Json row = Json::Object();
  row.Set("benchmark", benchmark);
  row.Set("mode", mode_name);
  row.Set("cycles", static_cast<std::uint64_t>(r.cycles));
  row.Set("speedup", Speedup(base, r));
  row.Set("l3_misses", r.l3_misses);
  const std::uint64_t demand =
      r.l3_misses >= r.prefetch_bus_requests
          ? r.l3_misses - r.prefetch_bus_requests
          : 0;
  row.Set("demand_l3_misses", demand);
  row.Set("bus_memory", r.bus_memory);
  row.Set("coherent_events", r.coherent_events);
  row.Set("bus_upgrades", r.bus_upgrades);
  row.Set("bus_rd_inval_all_hitm", r.bus_rd_inval_all_hitm);
  row.Set("invalidation_traffic", r.bus_upgrades + r.bus_rd_inval_all_hitm);
  row.Set("snoop_invalidations", r.snoop_invalidations);
  row.Set("remote_transactions", r.remote_transactions);
  row.Set("prefetch_bus_requests", r.prefetch_bus_requests);
  row.Set("verified", r.verified);
  Json cobra = Json::Object();
  cobra.Set("evaluations", r.cobra.evaluations);
  cobra.Set("deployments", r.cobra.deployments);
  cobra.Set("rollbacks", r.cobra.rollbacks);
  cobra.Set("epochs_kept", r.cobra.epochs_kept);
  cobra.Set("epochs_reverted", r.cobra.epochs_reverted);
  cobra.Set("strategy_switches", r.cobra.strategy_switches);
  cobra.Set("phase_changes", r.cobra.phase_changes);
  cobra.Set("lfetches_rewritten", r.cobra.lfetches_rewritten);
  cobra.Set("prefetches_inserted", r.cobra.prefetches_inserted);
  cobra.Set("patch_verifications", r.cobra.patch_verifications);
  row.Set("cobra", std::move(cobra));
  // Sampled-run bookkeeping, present (zeroed) on full runs too so the
  // report schema does not depend on --sample.
  row.Set("sampled", r.sampled);
  Json sample = Json::Object();
  sample.Set("intervals", r.sample.intervals);
  sample.Set("phases", r.sample.phases);
  sample.Set("detailed_intervals", r.sample.detailed_intervals);
  sample.Set("checkpoints", r.sample.checkpoints);
  sample.Set("checkpoint_bytes", r.sample.checkpoint_bytes);
  sample.Set("detailed_fraction", r.sample.detailed_fraction);
  row.Set("sample", std::move(sample));
  row.Set("registry_fingerprint", FingerprintHex(r.snapshot.Fingerprint()));
  row.Set("counters", SnapshotCounters(r.snapshot));
  return row;
}

constexpr const char* kDescNpbSmp =
    "OpenMP NPB (class S) under COBRA on the 4-way SMP server: speedup, L3 "
    "misses and bus/invalidation traffic per benchmark and optimization "
    "mode";
constexpr const char* kDescNpbNuma =
    "OpenMP NPB (class S) under COBRA on the 8-way cc-NUMA system: speedup, "
    "L3 misses and bus/invalidation traffic per benchmark and optimization "
    "mode";

Json RunNpbMatrix(const SuiteOptions& options, bool numa) {
  const char* name = numa ? "npb_numa" : "npb_smp";
  const char* figure = numa ? "Figures 5b, 6b, 7b" : "Figures 5a, 6a, 7a";
  const auto machine =
      numa ? machine::AltixConfig(8) : machine::SmpServerConfig(4);
  const int threads = numa ? 8 : 4;
  Json e = BeginExperiment(name, figure, numa ? kDescNpbNuma : kDescNpbSmp,
                           numa ? "numa8" : "smp4", threads);

  const std::vector<std::string> benchmarks =
      options.quick ? std::vector<std::string>{"lu", "mg", "cg"}
                    : npb::ResultBenchmarkNames();

  Json rows = Json::Array();
  // Per-mode accumulators for the derived averages/totals (skipping the
  // baseline, whose ratios are 1 by definition).
  double speedup_sum[4] = {};
  double l3_ratio_sum[4] = {};
  double bus_ratio_sum[4] = {};
  std::uint64_t invalidations_total[4] = {};
  std::uint64_t snoop_invalidations_total[4] = {};
  for (const std::string& benchmark : benchmarks) {
    if (options.echo) {
      std::fprintf(stderr, "[cobra_bench]   %s %s\n", name, benchmark.c_str());
    }
    NpbRunResult base;
    for (int m = 0; m < 4; ++m) {
      const NpbModeSpec& spec = kNpbModes[m];
      NpbOptions npb_options;
      npb_options.engine = options.engine;
      npb_options.static_excl_binary = spec.static_excl;
      if (options.sample) {
        npb_options.sample = MatrixSampleConfig();
        // Class-S runs retire a few million instructions; at the default
        // epoch cadence COBRA would still be baselining when the sampled
        // run's short detailed bursts end. Converge early instead (the
        // sampled_accuracy experiment applies the same cadence to both
        // run styles and pins the resulting error).
        npb_options.tweak_config = [](core::CobraConfig& config) {
          config.batches_per_evaluation = 1;
          config.epoch_windows = 2;
          config.max_settle_windows = 3;
        };
      }
      const NpbRunResult r =
          RunNpbExperiment(benchmark, machine, threads, spec.mode, npb_options);
      if (m == 0) base = r;
      speedup_sum[m] += Speedup(base, r);
      l3_ratio_sum[m] += Ratio(r.l3_misses, base.l3_misses);
      bus_ratio_sum[m] += Ratio(r.bus_memory, base.bus_memory);
      invalidations_total[m] += r.bus_upgrades + r.bus_rd_inval_all_hitm;
      snoop_invalidations_total[m] += r.snoop_invalidations;
      rows.Append(NpbRow(benchmark, spec.name, r, base));
    }
  }
  e.Set("rows", std::move(rows));

  const double n = static_cast<double>(benchmarks.size());
  Json derived = Json::Object();
  derived.Set("benchmarks", static_cast<std::uint64_t>(benchmarks.size()));
  derived.Set("speedup_noprefetch_avg", speedup_sum[1] / n);
  derived.Set("speedup_excl_avg", speedup_sum[2] / n);
  derived.Set("speedup_static_excl_avg", speedup_sum[3] / n);
  derived.Set("l3_ratio_noprefetch_avg", l3_ratio_sum[1] / n);
  derived.Set("l3_ratio_excl_avg", l3_ratio_sum[2] / n);
  derived.Set("bus_ratio_noprefetch_avg", bus_ratio_sum[1] / n);
  derived.Set("bus_ratio_excl_avg", bus_ratio_sum[2] / n);
  derived.Set("invalidations_cobra_excl_total", invalidations_total[2]);
  derived.Set("invalidations_static_excl_total", invalidations_total[3]);
  derived.Set("snoop_invalidations_cobra_excl_total",
              snoop_invalidations_total[2]);
  derived.Set("snoop_invalidations_static_excl_total",
              snoop_invalidations_total[3]);
  e.Set("derived", std::move(derived));
  return e;
}

Json RunNpbSmp(const SuiteOptions& options) {
  return RunNpbMatrix(options, /*numa=*/false);
}
Json RunNpbNuma(const SuiteOptions& options) {
  return RunNpbMatrix(options, /*numa=*/true);
}

// --- Coherence-protocol matrix (DESIGN.md §Coherence protocols) ------------

constexpr const char* kDescProtocolMatrix =
    "sharing-heavy NPB kernels under each coherence protocol "
    "(MESI/MOESI/Dragon/MESIF), static.excl binary vs adaptive COBRA: "
    "cycles plus invalidation / update / cache-to-cache / writeback "
    "traffic";

Json RunProtocolMatrix(const SuiteOptions& options) {
  Json e = BeginExperiment("protocol_matrix", "DESIGN.md, Coherence protocols",
                           kDescProtocolMatrix, "smp4", 4);
  const std::vector<std::string> benchmarks =
      options.quick ? std::vector<std::string>{"cg"}
                    : std::vector<std::string>{"cg", "mg", "ft"};
  static constexpr mem::Protocol kProtocols[] = {
      mem::Protocol::kMesi, mem::Protocol::kMoesi, mem::Protocol::kDragon,
      mem::Protocol::kMesif};
  struct ModeSpec {
    const char* name;
    bool static_excl;
  };
  static constexpr ModeSpec kModes[] = {{"static.excl", true},
                                        {"adaptive", false}};

  Json rows = Json::Array();
  // Per-protocol totals across benchmarks and modes, for the trend
  // assertions (Dragon: updates, zero invalidations; MESIF: clean c2c).
  std::uint64_t invalidations[4] = {};
  std::uint64_t snoop_invalidations[4] = {};
  std::uint64_t updates[4] = {};
  std::uint64_t c2c[4] = {};
  std::uint64_t writebacks[4] = {};
  std::uint64_t cycles[4] = {};
  for (const std::string& benchmark : benchmarks) {
    for (int pi = 0; pi < 4; ++pi) {
      machine::MachineConfig machine = machine::SmpServerConfig(4);
      machine.mem.protocol = kProtocols[pi];
      if (options.echo) {
        std::fprintf(stderr, "[cobra_bench]   protocol_matrix %s %s\n",
                     benchmark.c_str(),
                     mem::ProtocolName(kProtocols[pi]));
      }
      for (const ModeSpec& mode : kModes) {
        NpbOptions npb_options;
        npb_options.engine = options.engine;
        npb_options.static_excl_binary = mode.static_excl;
        const NpbRunResult r = RunNpbExperiment(
            benchmark, machine, 4,
            mode.static_excl ? NpbMode::kBaseline : NpbMode::kCobraExcl,
            npb_options);
        const std::uint64_t inval = r.bus_upgrades + r.bus_rd_inval_all_hitm;
        invalidations[pi] += inval;
        snoop_invalidations[pi] += r.snoop_invalidations;
        updates[pi] += r.bus_updates;
        c2c[pi] += r.c2c_transfers;
        writebacks[pi] += r.bus_writebacks;
        cycles[pi] += r.cycles;
        Json row = Json::Object();
        row.Set("benchmark", benchmark);
        row.Set("protocol", mem::ProtocolName(kProtocols[pi]));
        row.Set("mode", mode.name);
        row.Set("cycles", r.cycles);
        row.Set("l3_misses", r.l3_misses);
        row.Set("bus_memory", r.bus_memory);
        row.Set("invalidations", inval);
        row.Set("snoop_invalidations", r.snoop_invalidations);
        row.Set("updates", r.bus_updates);
        row.Set("c2c_transfers", r.c2c_transfers);
        row.Set("writebacks", r.bus_writebacks);
        rows.Append(std::move(row));
      }
    }
  }
  e.Set("rows", std::move(rows));

  Json derived = Json::Object();
  derived.Set("benchmarks", static_cast<std::uint64_t>(benchmarks.size()));
  for (int pi = 0; pi < 4; ++pi) {
    const std::string p = mem::ProtocolName(kProtocols[pi]);
    derived.Set(p + "_invalidations_total", invalidations[pi]);
    derived.Set(p + "_snoop_invalidations_total", snoop_invalidations[pi]);
    derived.Set(p + "_updates_total", updates[pi]);
    derived.Set(p + "_c2c_total", c2c[pi]);
    derived.Set(p + "_writebacks_total", writebacks[pi]);
    derived.Set(p + "_cycles_total", cycles[pi]);
  }
  e.Set("derived", std::move(derived));
  return e;
}

// --- Ablations (DESIGN.md §4) ----------------------------------------------

constexpr const char* kDescAblations =
    "COBRA design-choice ablations: selection filters, measured epochs, "
    "blind static noprefetch, monitoring overhead";

Json RunAblations(const SuiteOptions& options) {
  Json e = BeginExperiment("ablations", "DESIGN.md §4", kDescAblations,
                           "smp4", 4);
  const auto machine = machine::SmpServerConfig(4);
  const int threads = 4;
  const std::vector<std::string> benchmarks =
      options.quick ? std::vector<std::string>{"cg"}
                    : std::vector<std::string>{"ft", "mg", "cg"};

  Json rows = Json::Array();
  auto AddRow = [&rows](const std::string& benchmark,
                        const std::string& configuration, double speedup,
                        std::uint64_t deployments, std::uint64_t rollbacks) {
    Json row = Json::Object();
    row.Set("benchmark", benchmark);
    row.Set("configuration", configuration);
    row.Set("speedup", speedup);
    row.Set("deployments", deployments);
    row.Set("rollbacks", rollbacks);
    rows.Append(std::move(row));
  };

  for (const std::string& benchmark : benchmarks) {
    if (options.echo) {
      std::fprintf(stderr, "[cobra_bench]   ablations %s\n",
                   benchmark.c_str());
    }
    NpbOptions base_options;
    base_options.engine = options.engine;
    const auto base = RunNpbExperiment(benchmark, machine, threads,
                                       NpbMode::kBaseline, base_options);
    auto Cobra = [&](const char* configuration, NpbOptions npb_options) {
      npb_options.engine = options.engine;
      const auto r = RunNpbExperiment(benchmark, machine, threads,
                                      NpbMode::kCobraNoprefetch, npb_options);
      AddRow(benchmark, configuration, Speedup(base, r), r.cobra.deployments,
             r.cobra.rollbacks);
    };
    Cobra("full", NpbOptions{});
    {
      NpbOptions o;
      o.tweak_config = [](core::CobraConfig& cfg) {
        cfg.require_coherent_load_in_loop = false;
        cfg.require_coherent_ratio = false;
      };
      Cobra("A1_filters_off", std::move(o));
    }
    {
      NpbOptions o;
      o.static_noprefetch_binary = true;
      o.engine = options.engine;
      const auto r = RunNpbExperiment(benchmark, machine, threads,
                                      NpbMode::kBaseline, o);
      AddRow(benchmark, "A2_blind_static_noprefetch", Speedup(base, r), 0, 0);
    }
    {
      NpbOptions o;
      o.tweak_config = [](core::CobraConfig& cfg) {
        cfg.measured_epochs = false;
      };
      Cobra("A3_measured_epochs_off", std::move(o));
    }
    for (const Cycle overhead : {Cycle{500}, Cycle{4000}}) {
      NpbOptions o;
      o.tweak_config = [overhead](core::CobraConfig& cfg) {
        cfg.monitor_overhead_cycles = overhead;
      };
      Cobra(("A4_overhead_" + std::to_string(overhead)).c_str(),
            std::move(o));
    }
  }
  e.Set("rows", std::move(rows));
  Json derived = Json::Object();
  derived.Set("benchmarks", static_cast<std::uint64_t>(benchmarks.size()));
  e.Set("derived", std::move(derived));
  return e;
}

// --- ADORE-style runtime prefetch insertion (extension) --------------------

struct InsertionRun {
  Cycle cycles = 0;
  std::uint64_t l3_misses = 0;
  std::uint64_t prefetch_bus_requests = 0;
  std::uint64_t prefetches_inserted = 0;
};

InsertionRun RunInsertionOnce(bool static_prefetch, bool with_cobra,
                              int threads, int reps,
                              const machine::EngineConfig& engine) {
  kgen::Program prog;
  const kgen::LoopInfo daxpy =
      EmitDaxpy(prog, "daxpy",
                static_prefetch ? kgen::PrefetchPolicy{}
                                : kgen::PrefetchPolicy::None());
  constexpr std::int64_t kN = 262144;  // 4 MB working set: memory-bound
  const mem::Addr x = prog.Alloc(kN * 8);
  const mem::Addr y = prog.Alloc(kN * 8);
  machine::MachineConfig cfg = machine::SmpServerConfig(threads);
  cfg.mem.memory_bytes = 1 << 26;
  machine::Machine machine(cfg, &prog.image());
  for (std::int64_t i = 0; i < kN; ++i) {
    machine.memory().WriteDouble(x + 8 * static_cast<mem::Addr>(i), 1.0);
    machine.memory().WriteDouble(y + 8 * static_cast<mem::Addr>(i), 2.0);
  }

  std::unique_ptr<core::CobraRuntime> cobra;
  if (with_cobra) {
    core::CobraConfig config;
    config.strategy = core::OptKind::kInsertPrefetch;
    cobra = std::make_unique<core::CobraRuntime>(&machine, config);
    cobra->AttachAll(threads);
  }

  rt::Team team(&machine, threads, engine);
  const Cycle start = machine.GlobalTime();
  for (int rep = 0; rep < reps; ++rep) {
    team.Run(daxpy.entry, [&](int tid, cpu::RegisterFile& regs) {
      const auto chunk = rt::StaticChunk(tid, threads, kN);
      regs.WriteGr(14, x + 8 * static_cast<mem::Addr>(chunk.begin));
      regs.WriteGr(15, y + 8 * static_cast<mem::Addr>(chunk.begin));
      regs.WriteGr(16, static_cast<std::uint64_t>(chunk.size()));
      regs.WriteFr(6, 0.5);
    });
  }
  InsertionRun run;
  run.cycles = machine.GlobalTime() - start;
  for (int cpu = 0; cpu < machine.num_cpus(); ++cpu) {
    run.l3_misses += machine.stack(cpu).L3Misses();
    run.prefetch_bus_requests +=
        machine.stack(cpu).stats().prefetch_bus_requests;
  }
  if (cobra) run.prefetches_inserted = cobra->stats().prefetches_inserted;
  return run;
}

constexpr const char* kDescInsertion =
    "ADORE-style runtime prefetch insertion into a conservatively "
    "compiled (noprefetch) memory-bound DAXPY";

Json RunInsertion(const SuiteOptions& options) {
  Json e = BeginExperiment("adore_insertion", "extension", kDescInsertion,
                           "smp", 0);
  const std::vector<int> thread_counts =
      options.quick ? std::vector<int>{2} : std::vector<int>{1, 2};
  const int reps = options.quick ? 8 : 12;

  Json rows = Json::Array();
  auto DemandL3 = [](const InsertionRun& run) {
    return run.l3_misses >= run.prefetch_bus_requests
               ? run.l3_misses - run.prefetch_bus_requests
               : 0;
  };
  double speedup_inserted_vs_bare = 0.0;
  double demand_l3_inserted_over_bare = 0.0;
  for (const int threads : thread_counts) {
    if (options.echo) {
      std::fprintf(stderr, "[cobra_bench]   adore_insertion %dt\n", threads);
    }
    const InsertionRun bare =
        RunInsertionOnce(false, false, threads, reps, options.engine);
    const InsertionRun inserted =
        RunInsertionOnce(false, true, threads, reps, options.engine);
    const InsertionRun compiled =
        RunInsertionOnce(true, false, threads, reps, options.engine);
    auto AddRow = [&](const char* config, const InsertionRun& run) {
      Json row = Json::Object();
      row.Set("threads", threads);
      row.Set("config", config);
      row.Set("cycles", static_cast<std::uint64_t>(run.cycles));
      row.Set("vs_bare", static_cast<double>(run.cycles) /
                             static_cast<double>(bare.cycles));
      row.Set("l3_misses", run.l3_misses);
      row.Set("demand_l3_misses", DemandL3(run));
      row.Set("prefetches_inserted", run.prefetches_inserted);
      rows.Append(std::move(row));
    };
    AddRow("bare", bare);
    AddRow("cobra.insertion", inserted);
    AddRow("static.prefetch", compiled);
    // The last (largest) thread count feeds the headline derived numbers.
    speedup_inserted_vs_bare = static_cast<double>(bare.cycles) /
                               static_cast<double>(inserted.cycles);
    demand_l3_inserted_over_bare =
        Ratio(DemandL3(inserted), DemandL3(bare));
  }
  e.Set("rows", std::move(rows));
  Json derived = Json::Object();
  derived.Set("speedup_inserted_vs_bare", speedup_inserted_vs_bare);
  derived.Set("demand_l3_inserted_over_bare", demand_l3_inserted_over_bare);
  e.Set("derived", std::move(derived));
  return e;
}

// --- Static-priors ablation (scalar-evolution priors) ----------------------

struct PriorsRun {
  Cycle cycles = 0;
  core::CobraRuntime::Stats stats;
};

PriorsRun RunStaticPriorsOnce(bool priors, int reps,
                              const machine::EngineConfig& engine) {
  kgen::Program prog;
  const kgen::LoopInfo daxpy =
      EmitDaxpy(prog, "daxpy", kgen::PrefetchPolicy::None());
  constexpr std::int64_t kN = 262144;  // 4 MB working set: memory-bound
  const mem::Addr x = prog.Alloc(kN * 8);
  const mem::Addr y = prog.Alloc(kN * 8);
  machine::MachineConfig cfg = machine::SmpServerConfig(1);
  cfg.mem.memory_bytes = 1 << 26;
  machine::Machine machine(cfg, &prog.image());
  for (std::int64_t i = 0; i < kN; ++i) {
    machine.memory().WriteDouble(x + 8 * static_cast<mem::Addr>(i), 1.0);
    machine.memory().WriteDouble(y + 8 * static_cast<mem::Addr>(i), 2.0);
  }

  // Eager wake windows make stride *confirmation* the qualification
  // bottleneck; a sampling period coprime to the loop body length rotates
  // the wake phase through the loop (a commensurate period parks every
  // wake on the same mid-bundle pc and the quiesce check starves); a deep
  // confirmation requirement makes the dynamic-only run watch the stream
  // repeat for several windows before it trusts the stride.
  core::CobraConfig config;
  config.strategy = core::OptKind::kInsertPrefetch;
  config.measured_epochs = false;
  config.batch_size = 1;
  config.batches_per_evaluation = 1;
  config.min_loop_hits = 1;
  config.sampling_period_insts = 1999;
  config.stride_confirmations = 8;
  config.static_priors = priors;
  core::CobraRuntime cobra(&machine, config);
  cobra.AttachAll(1);

  rt::Team team(&machine, 1, engine);
  const Cycle start = machine.GlobalTime();
  for (int rep = 0; rep < reps; ++rep) {
    team.Run(daxpy.entry, [&](int, cpu::RegisterFile& regs) {
      regs.WriteGr(14, x);
      regs.WriteGr(15, y);
      regs.WriteGr(16, static_cast<std::uint64_t>(kN));
      regs.WriteFr(6, 0.5);
    });
  }
  PriorsRun run;
  run.cycles = machine.GlobalTime() - start;
  run.stats = cobra.stats();
  return run;
}

constexpr const char* kDescStaticPriors =
    "scalar-evolution static priors: cycles until the first trace goes "
    "live on a noprefetch DAXPY — dynamic-only stride profiling vs "
    "profile-confirmed static chrecs";

Json RunStaticPriors(const SuiteOptions& options) {
  Json e = BeginExperiment("static_priors", "extension", kDescStaticPriors,
                           "smp1", 1);
  const int reps = options.quick ? 8 : 12;
  Json rows = Json::Array();
  std::uint64_t first_deploy[2] = {};
  std::uint64_t prior_hits_on = 0;
  for (const bool priors : {false, true}) {
    if (options.echo) {
      std::fprintf(stderr, "[cobra_bench]   static_priors %s\n",
                   priors ? "on" : "off");
    }
    const PriorsRun r = RunStaticPriorsOnce(priors, reps, options.engine);
    first_deploy[priors ? 1 : 0] = r.stats.first_deploy_cycles;
    if (priors) prior_hits_on = r.stats.prior_hits;
    Json row = Json::Object();
    row.Set("configuration",
            priors ? "static_priors.on" : "static_priors.off");
    row.Set("cycles", static_cast<std::uint64_t>(r.cycles));
    row.Set("first_deploy_cycles", r.stats.first_deploy_cycles);
    row.Set("deployments", r.stats.deployments);
    row.Set("prefetches_inserted", r.stats.prefetches_inserted);
    row.Set("scev_loops_analyzed", r.stats.scev_loops_analyzed);
    row.Set("scev_loops_solved", r.stats.scev_loops_solved);
    row.Set("prior_hits", r.stats.prior_hits);
    row.Set("prior_mismatches", r.stats.prior_mismatches);
    row.Set("invariant_suppressed", r.stats.invariant_suppressed);
    rows.Append(std::move(row));
  }
  e.Set("rows", std::move(rows));
  Json derived = Json::Object();
  derived.Set("first_deploy_off", first_deploy[0]);
  derived.Set("first_deploy_on", first_deploy[1]);
  derived.Set("first_deploy_on_over_off",
              Ratio(first_deploy[1], first_deploy[0]));
  derived.Set("prior_hits", prior_hits_on);
  e.Set("derived", std::move(derived));
  return e;
}

// --- Cost-model planner ablation (DESIGN.md §9) ----------------------------

struct PlannerRun {
  Cycle cycles = 0;
  core::CobraRuntime::Stats stats;
  core::PlannerStats planner;
};

// One planner-ablation run: the prefetching DAXPY pathology (coherent
// misses from prefetch streams crossing chunk boundaries into neighbours'
// write regions) on `cfg`, under an attached runtime. `segments` is the
// phase schedule: each entry names the kernel (0 = A, 1 = B) one rep
// executes; single-kernel workloads pass all-zero schedules. Both planner
// kinds run the *same* config apart from `kind` itself.
PlannerRun RunPlannerOnce(core::PlannerKind kind, machine::MachineConfig cfg,
                          int threads, std::int64_t n,
                          const std::vector<int>& segments,
                          core::CobraConfig config,
                          const machine::EngineConfig& engine) {
  kgen::Program prog;
  const kgen::LoopInfo kernel_a =
      EmitDaxpy(prog, "daxpy_a", kgen::PrefetchPolicy{});
  const kgen::LoopInfo kernel_b =
      EmitDaxpy(prog, "daxpy_b", kgen::PrefetchPolicy{});
  const mem::Addr xa = prog.Alloc(n * 8);
  const mem::Addr ya = prog.Alloc(n * 8);
  const mem::Addr xb = prog.Alloc(n * 8);
  const mem::Addr yb = prog.Alloc(n * 8);
  machine::Machine machine(cfg, &prog.image());
  for (std::int64_t i = 0; i < n; ++i) {
    for (const mem::Addr base : {xa, xb}) {
      machine.memory().WriteDouble(base + 8 * static_cast<mem::Addr>(i), 1.0);
    }
    for (const mem::Addr base : {ya, yb}) {
      machine.memory().WriteDouble(base + 8 * static_cast<mem::Addr>(i), 2.0);
    }
  }

  config.planner = kind;  // the one knob the pair differs in
  core::CobraRuntime cobra(&machine, config);
  cobra.AttachAll(threads);

  rt::Team team(&machine, threads, engine);
  const Cycle start = machine.GlobalTime();
  for (const int segment : segments) {
    const kgen::LoopInfo& kernel = segment == 0 ? kernel_a : kernel_b;
    const mem::Addr x = segment == 0 ? xa : xb;
    const mem::Addr y = segment == 0 ? ya : yb;
    team.Run(kernel.entry, [&](int tid, cpu::RegisterFile& regs) {
      const auto chunk = rt::StaticChunk(tid, threads, n);
      regs.WriteGr(14, x + 8 * static_cast<mem::Addr>(chunk.begin));
      regs.WriteGr(15, y + 8 * static_cast<mem::Addr>(chunk.begin));
      regs.WriteGr(16, static_cast<std::uint64_t>(chunk.size()));
      regs.WriteFr(6, 0.5);
    });
  }
  PlannerRun run;
  run.cycles = machine.GlobalTime() - start;
  run.stats = cobra.stats();
  run.planner = cobra.planner().stats();
  return run;
}

constexpr const char* kDescPlanner =
    "cost-model planner vs per-loop heuristic: coherent SMP DAXPY, a "
    "NUMA false-sharing case where the heuristic's eager .excl backfires,"
    " and a phase-shifting schedule that exercises plan hysteresis";

Json RunPlanner(const SuiteOptions& options) {
  Json e = BeginExperiment("planner", "DESIGN.md §9", kDescPlanner,
                           "smp4+numa8", 0);

  // The planner trends pin MESI explicitly (like protocol_matrix's rows):
  // the benefit model's traffic shares are protocol-aware, and the trend
  // assertions must hold regardless of the ambient COBRA_PROTOCOL loop.
  struct Workload {
    const char* name;
    machine::MachineConfig machine;
    int threads;
    std::int64_t n;
    std::vector<int> segments;
    core::CobraConfig config;
  };
  std::vector<Workload> workloads;
  {
    // W1: the quickstart pathology — measured epochs on, the noprefetch
    // strategy wins, and the kept epoch feeds realized benefit back into
    // the cost run's estimate ledger.
    Workload w;
    w.name = "smp.coherent";
    w.machine = machine::SmpServerConfig(4);
    w.machine.mem.protocol = mem::Protocol::kMesi;
    w.machine.mem.memory_bytes = 1 << 24;
    w.threads = 4;
    w.n = 8192;  // 128 KB working set: cache-resident, coherence-bound
    w.segments.assign(options.quick ? 40 : 64, 0);
    w.config.strategy = core::OptKind::kNoprefetch;
    w.config.require_coherent_load_in_loop = false;
    workloads.push_back(std::move(w));
  }
  {
    // W2: NUMA false sharing under an eagerly deployed .excl heuristic
    // (measured epochs off — the non-adaptive strawman). Exclusive
    // prefetch RFO-steals boundary lines across the directory fabric; the
    // cost model prices that remote traffic and declines the .excl
    // candidate in favour of noprefetch.
    Workload w;
    w.name = "numa.false_sharing";
    w.machine = machine::AltixConfig(8);
    w.machine.mem.protocol = mem::Protocol::kMesi;
    w.machine.mem.memory_bytes = 1 << 24;
    w.threads = 8;
    w.n = 8192;  // 8 KB chunks/thread: prefetch streams straddle chunks
    w.segments.assign(options.quick ? 24 : 40, 0);
    w.config.strategy = core::OptKind::kPrefetchExcl;
    w.config.measured_epochs = false;
    w.config.require_coherent_load_in_loop = false;
    workloads.push_back(std::move(w));
  }
  {
    // W3: phase-shifting schedule over two kernels with budget for one
    // patch on either side (max_deployments for the heuristic, plan_budget
    // for the cost planner). Once the second phase's cumulative latency
    // mass overtakes the first's, the fresh solve flips — and the cooldown
    // must suppress the revision (rejected_hysteresis > 0) instead of
    // thrashing the standing plan.
    Workload w;
    w.name = "phase.shift";
    w.machine = machine::SmpServerConfig(4);
    w.machine.mem.protocol = mem::Protocol::kMesi;
    w.machine.mem.memory_bytes = 1 << 24;
    w.threads = 4;
    w.n = 8192;
    for (int cycle = 0; cycle < (options.quick ? 3 : 5); ++cycle) {
      w.segments.insert(w.segments.end(), 4, 0);
      w.segments.insert(w.segments.end(), 6, 1);
    }
    w.config.strategy = core::OptKind::kNoprefetch;
    w.config.measured_epochs = false;
    w.config.require_coherent_load_in_loop = false;
    w.config.max_deployments = 1;
    w.config.plan_budget = 2.0;  // one daxpy patch costs ~1.6 units
    w.config.plan_min_profit_delta = 0.0;
    w.config.plan_cooldown_cycles = ~std::uint64_t{0} >> 1;  // never elapses
    workloads.push_back(std::move(w));
  }

  Json rows = Json::Array();
  Json derived = Json::Object();
  std::uint64_t phase_rejected_hysteresis = 0;
  for (const Workload& w : workloads) {
    if (options.echo) {
      std::fprintf(stderr, "[cobra_bench]   planner %s\n", w.name);
    }
    PlannerRun runs[2];
    for (const core::PlannerKind kind :
         {core::PlannerKind::kHeuristic, core::PlannerKind::kCost}) {
      const int i = kind == core::PlannerKind::kCost ? 1 : 0;
      runs[i] = RunPlannerOnce(kind, w.machine, w.threads, w.n, w.segments,
                               w.config, options.engine);
      const PlannerRun& r = runs[i];
      Json row = Json::Object();
      row.Set("workload", w.name);
      row.Set("planner", core::PlannerKindName(kind));
      row.Set("cycles", static_cast<std::uint64_t>(r.cycles));
      row.Set("deployments", r.stats.deployments);
      row.Set("rollbacks", r.stats.rollbacks);
      row.Set("lfetches_rewritten", r.stats.lfetches_rewritten);
      row.Set("planner_candidates", r.planner.candidates_seen);
      row.Set("planner_accepted", r.planner.accepted);
      row.Set("planner_rejected_budget", r.planner.rejected_budget);
      row.Set("planner_rejected_hysteresis", r.planner.rejected_hysteresis);
      row.Set("planner_plan_revisions", r.planner.plan_revisions);
      row.Set("planner_estimated_benefit_cycles",
              static_cast<std::uint64_t>(r.planner.estimated_benefit));
      row.Set("planner_realized_benefit_cycles",
              static_cast<std::uint64_t>(r.planner.realized_benefit));
      rows.Append(std::move(row));
    }
    const std::string key =
        std::string("cost_over_heuristic_") +
        std::string(w.name).substr(0, std::string(w.name).find('.'));
    derived.Set(key, static_cast<double>(runs[1].cycles) /
                         static_cast<double>(runs[0].cycles));
    if (std::string(w.name) == "smp.coherent") {
      derived.Set("estimated_benefit_cycles",
                  static_cast<std::uint64_t>(runs[1].planner.estimated_benefit));
      derived.Set("realized_benefit_cycles",
                  static_cast<std::uint64_t>(runs[1].planner.realized_benefit));
    }
    if (std::string(w.name) == "phase.shift") {
      phase_rejected_hysteresis = runs[1].planner.rejected_hysteresis;
    }
  }
  derived.Set("phase_rejected_hysteresis", phase_rejected_hysteresis);
  e.Set("rows", std::move(rows));
  e.Set("derived", std::move(derived));
  return e;
}

// --- Sampled-vs-full accuracy (snapshots + BBV phases) ---------------------

constexpr const char* kDescSampledAccuracy =
    "sampled simulation accuracy on a beyond-class-S MG: full-detail vs "
    "checkpoint-warmed BBV-phase projections, per-mode cycle/traffic error "
    "and projected-speedup error";

Json RunSampledAccuracy(const SuiteOptions& options) {
  Json e = BeginExperiment("sampled_accuracy", "extension",
                           kDescSampledAccuracy, "smp4", 4);
  // Scaled MG (mg@N multiplies every grid level): the suite's biggest
  // COBRA effect (Fig. 5's largest speedup), so the directional check is
  // robust, and large enough that the detailed-instruction fraction of a
  // sampled run sits well under 1/3 — the wall-clock-reduction claim —
  // yet CI-sized in quick mode.
  const std::string benchmark = options.quick ? "mg@2" : "mg@4";
  perfmon::SampleConfig sample;
  sample.interval_insts = options.quick ? 200000 : 300000;
  sample.max_phases = 6;

  const auto machine = machine::SmpServerConfig(4);
  const NpbMode modes[] = {NpbMode::kBaseline, NpbMode::kCobraNoprefetch};

  // Accelerated epoch cadence, applied to the FULL and the SAMPLED run
  // alike (the comparison stays apples-to-apples): COBRA's measured-epoch
  // machine only advances while the HPM runs, and a sampled run simulates
  // a few hundred thousand detailed instructions in total. At the default
  // cadence the runtime would still be measuring its baseline when the
  // run ends — in both variants COBRA must converge early relative to the
  // instructions it can observe.
  const auto quick_epochs = [](core::CobraConfig& config) {
    config.batches_per_evaluation = 1;
    config.epoch_windows = 2;
    config.max_settle_windows = 3;
  };

  Json rows = Json::Array();
  double full_cycles[2] = {};
  double sampled_cycles[2] = {};
  double detailed_fraction_max = 0.0;
  double full_wall[2] = {};
  double sampled_wall[2] = {};
  for (int m = 0; m < 2; ++m) {
    if (options.echo) {
      std::fprintf(stderr, "[cobra_bench]   sampled_accuracy %s %s\n",
                   benchmark.c_str(), NpbModeName(modes[m]));
    }
    NpbOptions full_options;
    full_options.engine = options.engine;
    full_options.tweak_config = quick_epochs;
    auto t0 = std::chrono::steady_clock::now();
    const NpbRunResult full =
        RunNpbExperiment(benchmark, machine, 4, modes[m], full_options);
    full_wall[m] =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();

    NpbOptions sampled_options;
    sampled_options.engine = options.engine;
    sampled_options.tweak_config = quick_epochs;
    sampled_options.sample = sample;
    t0 = std::chrono::steady_clock::now();
    const NpbRunResult sampled =
        RunNpbExperiment(benchmark, machine, 4, modes[m], sampled_options);
    sampled_wall[m] =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();

    full_cycles[m] = static_cast<double>(full.cycles);
    sampled_cycles[m] = static_cast<double>(sampled.cycles);
    detailed_fraction_max =
        std::max(detailed_fraction_max, sampled.sample.detailed_fraction);

    auto Error = [](std::uint64_t projected, std::uint64_t measured) {
      return measured == 0 ? 0.0
                           : std::abs(static_cast<double>(projected) -
                                      static_cast<double>(measured)) /
                                 static_cast<double>(measured);
    };
    Json row = Json::Object();
    row.Set("benchmark", benchmark);
    row.Set("mode", NpbModeName(modes[m]));
    row.Set("full_cycles", static_cast<std::uint64_t>(full.cycles));
    row.Set("projected_cycles", static_cast<std::uint64_t>(sampled.cycles));
    row.Set("cycles_error", Error(sampled.cycles, full.cycles));
    row.Set("full_l3_misses", full.l3_misses);
    row.Set("projected_l3_misses", sampled.l3_misses);
    row.Set("l3_error", Error(sampled.l3_misses, full.l3_misses));
    row.Set("full_bus_memory", full.bus_memory);
    row.Set("projected_bus_memory", sampled.bus_memory);
    row.Set("bus_error", Error(sampled.bus_memory, full.bus_memory));
    row.Set("intervals", sampled.sample.intervals);
    row.Set("phases", sampled.sample.phases);
    row.Set("detailed_intervals", sampled.sample.detailed_intervals);
    row.Set("checkpoints", sampled.sample.checkpoints);
    row.Set("checkpoint_bytes", sampled.sample.checkpoint_bytes);
    row.Set("detailed_fraction", sampled.sample.detailed_fraction);
    row.Set("verified", full.verified && sampled.verified);
    // Host wall-clock of the two runs: nondeterministic, so under a "host"
    // key (cobra_bench --compare skips those at any depth).
    Json host = Json::Object();
    host.Set("full_wall_seconds", full_wall[m]);
    host.Set("sampled_wall_seconds", sampled_wall[m]);
    host.Set("wall_speedup",
             sampled_wall[m] > 0.0 ? full_wall[m] / sampled_wall[m] : 0.0);
    row.Set("host", std::move(host));
    rows.Append(std::move(row));
  }
  e.Set("rows", std::move(rows));

  // The figure future trends tests pin: does the sampled run project the
  // same COBRA speedup the full run measures?
  const double speedup_full = full_cycles[1] > 0.0
                                  ? full_cycles[0] / full_cycles[1]
                                  : 0.0;
  const double speedup_sampled = sampled_cycles[1] > 0.0
                                     ? sampled_cycles[0] / sampled_cycles[1]
                                     : 0.0;
  Json derived = Json::Object();
  derived.Set("speedup_full", speedup_full);
  derived.Set("speedup_sampled", speedup_sampled);
  derived.Set("speedup_error",
              speedup_full > 0.0
                  ? std::abs(speedup_sampled - speedup_full) / speedup_full
                  : 0.0);
  derived.Set("directional_ok",
              (speedup_full >= 1.0) == (speedup_sampled >= 1.0));
  derived.Set("detailed_fraction_max", detailed_fraction_max);
  // Deterministic wall-clock proxy: detailed simulation dominates host
  // cost, so 1/fraction bounds the reduction sampling buys. >= 3 backs the
  // ">= 3x wall-clock reduction" claim without comparing wall seconds.
  derived.Set("wall_reduction_proxy",
              detailed_fraction_max > 0.0 ? 1.0 / detailed_fraction_max : 0.0);
  Json host = Json::Object();
  host.Set("wall_speedup_baseline",
           sampled_wall[0] > 0.0 ? full_wall[0] / sampled_wall[0] : 0.0);
  host.Set("wall_speedup_cobra",
           sampled_wall[1] > 0.0 ? full_wall[1] / sampled_wall[1] : 0.0);
  derived.Set("host", std::move(host));
  e.Set("derived", std::move(derived));
  return e;
}

// --- Micro suite: execution-engine quantum ---------------------------------

DaxpyParams MicroDaxpyParams(const SuiteOptions& options) {
  DaxpyParams params;
  params.threads = 4;
  params.working_set_bytes = 128 * 1024;
  params.variant = DaxpyVariant::kPrefetch;
  params.reps = options.quick ? 8 : 20;
  params.warmup_reps = 2;
  return params;
}

constexpr const char* kDescQuantumSweep =
    "the quantum is a semantic timing-model parameter: different Q give "
    "different (equally deterministic) cycle counts";

Json RunQuantumSweep(const SuiteOptions& options) {
  Json e = BeginExperiment("quantum_sweep", "DESIGN.md §7", kDescQuantumSweep,
                           "smp4", 4);
  Json rows = Json::Array();
  for (const Cycle quantum : {Cycle{256}, Cycle{1024}, Cycle{4096}}) {
    DaxpyParams params = MicroDaxpyParams(options);
    params.engine = options.engine;
    params.engine.quantum = quantum;
    const DaxpyResult r = RunDaxpyExperiment(params);
    Json row = Json::Object();
    row.Set("quantum", static_cast<std::uint64_t>(quantum));
    row.Set("cycles", static_cast<std::uint64_t>(r.cycles));
    row.Set("registry_fingerprint",
            FingerprintHex(r.snapshot.Fingerprint()));
    rows.Append(std::move(row));
  }
  e.Set("rows", std::move(rows));
  Json derived = Json::Object();
  derived.Set("quanta", 3);
  e.Set("derived", std::move(derived));
  return e;
}

// --- Suite assembly --------------------------------------------------------

struct ExperimentDef {
  const char* name;
  Json (*fn)(const SuiteOptions&);
  const char* description;  // the same string the experiment's JSON carries
};

constexpr ExperimentDef kPaperExperiments[] = {
    {"table1_static_stats", RunTable1, kDescTable1},
    {"fig2_codegen", RunFig2, kDescFig2},
    {"fig3_daxpy", RunFig3, kDescFig3},
    {"npb_smp", RunNpbSmp, kDescNpbSmp},
    {"npb_numa", RunNpbNuma, kDescNpbNuma},
    {"protocol_matrix", RunProtocolMatrix, kDescProtocolMatrix},
    {"ablations", RunAblations, kDescAblations},
    {"adore_insertion", RunInsertion, kDescInsertion},
    {"static_priors", RunStaticPriors, kDescStaticPriors},
    {"planner", RunPlanner, kDescPlanner},
    {"sampled_accuracy", RunSampledAccuracy, kDescSampledAccuracy},
};

constexpr ExperimentDef kMicroExperiments[] = {
    {"quantum_sweep", RunQuantumSweep, kDescQuantumSweep},
};

template <std::size_t N>
Json RunSuite(const char* suite_name, const ExperimentDef (&defs)[N],
              const SuiteOptions& options) {
  Json doc = Json::Object();
  doc.Set("schema_version", 1);
  doc.Set("generator", "cobra_bench");
  doc.Set("suite", suite_name);
  doc.Set("quick", options.quick);
  doc.Set("engine", machine::FormatEngineSpec(options.engine));
  // The ambient coherence protocol (COBRA_PROTOCOL): every preset-built
  // machine in the suite runs under it. protocol_matrix additionally pins
  // each protocol explicitly, regardless of this value.
  doc.Set("protocol",
          mem::ProtocolName(mem::ProtocolFromEnv(mem::Protocol::kMesi)));
  Json experiments = Json::Array();
  for (const ExperimentDef& def : defs) {
    if (!options.only.empty() &&
        std::string_view(def.name).find(options.only) ==
            std::string_view::npos) {
      continue;
    }
    if (options.echo) {
      std::fprintf(stderr, "[cobra_bench] %s\n", def.name);
    }
    const machine::HostPerf before = machine::GlobalHostPerfTotals();
    const auto t0 = std::chrono::steady_clock::now();
    Json e = def.fn(options);
    const double wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    e.Set("host",
          HostPerfJson(before, machine::GlobalHostPerfTotals(), wall_seconds));
    experiments.Append(std::move(e));
    // Each experiment gets its own COBRA_TRACE timeline segment; flushing
    // between them bounds memory and makes partial traces useful.
    obs::FlushEnvTrace();
  }
  doc.Set("experiments", std::move(experiments));
  return doc;
}

template <std::size_t N>
std::vector<std::string> Names(const ExperimentDef (&defs)[N]) {
  std::vector<std::string> names;
  for (const ExperimentDef& def : defs) names.emplace_back(def.name);
  return names;
}

template <std::size_t N>
std::vector<ExperimentInfo> Infos(const ExperimentDef (&defs)[N]) {
  std::vector<ExperimentInfo> infos;
  for (const ExperimentDef& def : defs) {
    infos.push_back({def.name, def.description});
  }
  return infos;
}

}  // namespace

std::vector<std::string> PaperExperimentNames() {
  return Names(kPaperExperiments);
}
std::vector<std::string> MicroExperimentNames() {
  return Names(kMicroExperiments);
}
std::vector<ExperimentInfo> PaperExperimentList() {
  return Infos(kPaperExperiments);
}
std::vector<ExperimentInfo> MicroExperimentList() {
  return Infos(kMicroExperiments);
}

Json RunPaperSuite(const SuiteOptions& options) {
  return RunSuite("paper", kPaperExperiments, options);
}
Json RunMicroSuite(const SuiteOptions& options) {
  return RunSuite("micro", kMicroExperiments, options);
}

}  // namespace cobra::bench
