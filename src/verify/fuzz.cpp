#include "verify/fuzz.h"

#include <cstdint>
#include <map>
#include <sstream>
#include <utility>
#include <vector>

#include "analysis/scev.h"
#include "cobra/controller.h"
#include "cobra/optimizer.h"
#include "cobra/trace_cache.h"
#include "isa/assembler.h"
#include "isa/instruction.h"
#include "kgen/emitters.h"
#include "kgen/program.h"
#include "mem/main_memory.h"
#include "rt/team.h"
#include "support/check.h"
#include "support/rng.h"
#include "verify/coherence_checker.h"

namespace cobra::verify {

namespace {

// Per-thread register setup, expressible as base + tid * stride so the
// generator can describe every workload's launch uniformly.
struct GrInit {
  int reg = 0;
  std::uint64_t base = 0;
  std::uint64_t per_tid = 0;
};

struct FrInit {
  int reg = 0;
  double value = 0.0;
};

// Seeded bulk initialization of a data region (applied host-side before
// the run; the oracle snapshots memory afterwards).
struct RegionFill {
  enum Kind { kDoubles, kWords, kInts32 };
  mem::Addr begin = 0;
  std::uint64_t count = 0;
  Kind kind = kWords;
  std::uint64_t seed = 0;
};

struct GeneratedCase {
  isa::Addr entry = 0;
  std::vector<GrInit> grs;
  std::vector<FrInit> frs;
  std::vector<RegionFill> fills;
  // Hand-assembled loops (head, back-branch pc) that register no kgen
  // LoopInfo — the scev soundness harness analyzes these too.
  std::vector<std::pair<isa::Addr, isa::Addr>> loops;
};

// --- Raw memory-op mix ------------------------------------------------------
// A single counted loop whose body interleaves independent access streams:
//
//   * store streams: each thread stores to its own 8-byte word of a line,
//     advancing one 128-B line per iteration — adjacent threads' words
//     share lines (false sharing, no true sharing), with a value register
//     bumped every iteration so the oracle sees evolving data;
//   * load-own streams: loads walking a store stream's region at the
//     thread's own offset (read-after-write against the oracle);
//   * shared read-only streams: every thread walks the same 8-byte-stride
//     region (Shared copies everywhere), as plain, FP (L1-bypassing) or
//     ld.bias (background-upgrade) loads;
//   * lfetch streams: one prefetch per iteration roving over a written
//     region at a per-thread line offset, .excl with probability 1/2 —
//     best-effort RFOs that steal other threads' dirty lines.
GeneratedCase GenerateRawMix(kgen::Program& prog, support::Rng& rng,
                             int threads) {
  using namespace cobra::isa;
  (void)threads;
  GeneratedCase g;

  const int iters = 48 + static_cast<int>(rng.NextBounded(112));
  constexpr std::int64_t kLine = 128;

  int next_reg = 8;  // r29..r31 reserved: load sink + loop-count setup
  auto TakeReg = [&next_reg] {
    COBRA_CHECK_MSG(next_reg <= 28, "fuzz raw mix ran out of registers");
    return next_reg++;
  };
  auto AllocStreamRegion = [&](std::int64_t stride) {
    return prog.Alloc(static_cast<std::uint64_t>(iters + 16) *
                      static_cast<std::uint64_t>(stride));
  };

  std::vector<std::vector<Instruction>> groups;
  std::vector<mem::Addr> store_regions;

  const int n_store = 1 + static_cast<int>(rng.NextBounded(3));
  for (int s = 0; s < n_store; ++s) {
    const mem::Addr region = AllocStreamRegion(kLine);
    store_regions.push_back(region);
    const int base = TakeReg();
    const int val = TakeReg();
    const int size = 1 << rng.NextBounded(4);  // 1 / 2 / 4 / 8 bytes
    g.grs.push_back({base, region, 8});
    g.grs.push_back({val, rng.NextU64(), 0x1001});
    g.fills.push_back({region, static_cast<std::uint64_t>(iters + 16) * 16,
                       RegionFill::kWords, rng.NextU64()});
    groups.push_back(
        {AddImm(val, val, 1 + static_cast<std::int64_t>(rng.NextBounded(7))),
         StPostInc(size, base, val, kLine)});
  }

  const int n_load_own = static_cast<int>(rng.NextBounded(2));
  for (int s = 0; s < n_load_own; ++s) {
    const mem::Addr region = store_regions[rng.NextBounded(store_regions.size())];
    const int base = TakeReg();
    const int size = 1 << rng.NextBounded(4);
    g.grs.push_back({base, region, 8});
    groups.push_back({LdPostInc(size, 29, base, kLine)});
  }

  const int n_shared = 1 + static_cast<int>(rng.NextBounded(3));
  for (int s = 0; s < n_shared; ++s) {
    const mem::Addr region = AllocStreamRegion(8);
    const int base = TakeReg();
    g.grs.push_back({base, region, 0});
    g.fills.push_back({region, static_cast<std::uint64_t>(iters + 16),
                       RegionFill::kWords, rng.NextU64()});
    switch (rng.NextBounded(3)) {
      case 0:
        groups.push_back({LdPostInc(8, 29, base, 8)});
        break;
      case 1:
        groups.push_back({LdfPostInc(9, base, 8)});
        break;
      default:
        groups.push_back({LdPostInc(8, 29, base, 8, LoadHint::kBias)});
        break;
    }
  }

  const int n_prefetch = 1 + static_cast<int>(rng.NextBounded(3));
  for (int s = 0; s < n_prefetch; ++s) {
    const mem::Addr region =
        rng.NextBounded(10) < 7
            ? store_regions[rng.NextBounded(store_regions.size())]
            : AllocStreamRegion(kLine);
    const int base = TakeReg();
    g.grs.push_back({base, region, kLine});
    LfetchHint hint;
    hint.excl = rng.NextBounded(2) == 0;
    groups.push_back({LfetchPostInc(base, kLine, hint)});
  }

  // Shuffle the per-iteration interleaving once, per seed.
  for (std::size_t i = groups.size(); i > 1; --i) {
    std::swap(groups[i - 1], groups[rng.NextBounded(i)]);
  }

  Assembler a(&prog.image());
  const auto loop = a.NewLabel();
  a.Emit(MovImm(30, iters - 1));
  a.Emit(MovToAr(AppReg::kLC, 30));
  a.FlushBundle();
  a.Bind(loop);
  const isa::Addr head = prog.image().code_end();
  for (const auto& group : groups) {
    for (const Instruction& inst : group) a.Emit(inst);
  }
  const isa::Addr back = a.EmitBranch(BrCloop(0), loop);
  a.Emit(Break());
  g.entry = a.Finish();
  g.loops.push_back({head, back});
  return g;
}

// --- Random kgen kernels ----------------------------------------------------
// The racy emitters (histogram, rank, scan) are excluded: the cross-protocol
// and cross-planner memory-image checks require a final image that does not
// depend on timing, i.e. regions free of simulated data races.

kgen::PrefetchPolicy RandomPrefetch(support::Rng& rng) {
  kgen::PrefetchPolicy pf;
  pf.enabled = rng.NextBounded(10) < 8;
  pf.distance_bytes = 128 * (1 + static_cast<int>(rng.NextBounded(12)));
  pf.prologue_prefetches = static_cast<int>(rng.NextBounded(7));
  pf.excl = rng.NextBounded(2) == 0;
  return pf;
}

GeneratedCase GenerateStreamLoop(kgen::Program& prog, support::Rng& rng,
                                 int threads) {
  GeneratedCase g;
  kgen::StreamLoopSpec spec;
  spec.op = static_cast<kgen::StreamOp>(
      rng.NextBounded(static_cast<std::uint64_t>(kgen::kNumStreamOps)));
  spec.prefetch = RandomPrefetch(rng);
  const kgen::LoopInfo info = EmitStreamLoop(
      prog, std::string("fuzz_") + kgen::StreamOpName(spec.op), spec);
  g.entry = info.entry;

  const std::uint64_t per = 64 + rng.NextBounded(192);
  const std::uint64_t n = per * static_cast<std::uint64_t>(threads);
  const int inputs = kgen::StreamOpInputs(spec.op);
  for (int i = 0; i < inputs; ++i) {
    const mem::Addr base = prog.Alloc(n * 8);
    g.grs.push_back({kgen::ArgReg(i), base, 8 * per});
    g.fills.push_back({base, n, RegionFill::kDoubles, rng.NextU64()});
  }
  const mem::Addr out = prog.Alloc(n * 8);
  g.grs.push_back({17, out, 8 * per});
  g.grs.push_back({18, per, 0});
  g.frs.push_back({6, rng.NextDouble(-1.5, 1.5)});
  g.frs.push_back({7, rng.NextDouble(-1.5, 1.5)});
  return g;
}

GeneratedCase GenerateReduction(kgen::Program& prog, support::Rng& rng,
                                int threads) {
  GeneratedCase g;
  const auto op = static_cast<kgen::ReduceOp>(rng.NextBounded(4));
  const kgen::LoopInfo info =
      EmitReduction(prog, "fuzz_reduce", op, RandomPrefetch(rng));
  g.entry = info.entry;

  const std::uint64_t per = 64 + rng.NextBounded(192);
  const std::uint64_t n = per * static_cast<std::uint64_t>(threads);
  const mem::Addr x = prog.Alloc(n * 8);
  const mem::Addr y = prog.Alloc(n * 8);
  // Adjacent 8-byte partial slots: every thread's result store false-shares
  // one coherence line.
  const mem::Addr partials =
      prog.Alloc(8 * static_cast<std::uint64_t>(threads));
  g.grs.push_back({14, x, 8 * per});
  g.grs.push_back({15, y, 8 * per});
  g.grs.push_back({16, per, 0});
  g.grs.push_back({17, partials, 8});
  g.fills.push_back({x, n, RegionFill::kDoubles, rng.NextU64()});
  g.fills.push_back({y, n, RegionFill::kDoubles, rng.NextU64()});
  return g;
}

GeneratedCase GenerateFill32(kgen::Program& prog, support::Rng& rng,
                             int threads) {
  GeneratedCase g;
  const kgen::LoopInfo info =
      EmitFill32(prog, "fuzz_fill", RandomPrefetch(rng));
  g.entry = info.entry;

  const std::uint64_t per = 128 + rng.NextBounded(384);
  const std::uint64_t n = per * static_cast<std::uint64_t>(threads);
  const mem::Addr buf = prog.Alloc(n * 4);
  g.grs.push_back({14, buf, 4 * per});
  g.grs.push_back({15, per, 0});
  g.grs.push_back({16, rng.NextBounded(1u << 30), 0});
  return g;
}

GeneratedCase GenerateIntAccumulate(kgen::Program& prog, support::Rng& rng,
                                    int threads) {
  GeneratedCase g;
  const kgen::LoopInfo info =
      EmitIntAccumulate(prog, "fuzz_acc", RandomPrefetch(rng));
  g.entry = info.entry;

  const std::uint64_t per = 128 + rng.NextBounded(384);
  const std::uint64_t n = per * static_cast<std::uint64_t>(threads);
  const mem::Addr src = prog.Alloc(n * 4);
  const mem::Addr dst = prog.Alloc(n * 4);
  g.grs.push_back({14, src, 4 * per});
  g.grs.push_back({15, dst, 4 * per});
  g.grs.push_back({16, per, 0});
  g.fills.push_back({src, n, RegionFill::kInts32, rng.NextU64()});
  g.fills.push_back({dst, n, RegionFill::kInts32, rng.NextU64()});
  return g;
}

GeneratedCase Generate(kgen::Program& prog, support::Rng& rng, int threads) {
  switch (rng.NextBounded(10)) {
    case 0:
    case 1:
    case 2:
    case 3:
    case 4:
      return GenerateRawMix(prog, rng, threads);
    case 5:
    case 6:
      return GenerateStreamLoop(prog, rng, threads);
    case 7:
      return GenerateReduction(prog, rng, threads);
    case 8:
      return GenerateFill32(prog, rng, threads);
    default:
      return GenerateIntAccumulate(prog, rng, threads);
  }
}

void ApplyFills(mem::MainMemory& memory,
                const std::vector<RegionFill>& fills) {
  for (const RegionFill& f : fills) {
    support::Rng rng(f.seed);
    switch (f.kind) {
      case RegionFill::kDoubles:
        for (std::uint64_t i = 0; i < f.count; ++i) {
          memory.WriteDouble(f.begin + 8 * i, rng.NextDouble(-2.0, 2.0));
        }
        break;
      case RegionFill::kWords:
        for (std::uint64_t i = 0; i < f.count; ++i) {
          memory.WriteAs<std::uint64_t>(f.begin + 8 * i, rng.NextU64());
        }
        break;
      case RegionFill::kInts32:
        for (std::uint64_t i = 0; i < f.count; ++i) {
          memory.WriteAs<std::uint32_t>(
              f.begin + 4 * i, static_cast<std::uint32_t>(rng.NextU64()));
        }
        break;
    }
  }
}

std::uint64_t HashMemory(const mem::MainMemory& memory, mem::Addr end) {
  const std::uint8_t* data = memory.raw();
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a
  for (mem::Addr a = 0; a < end; ++a) {
    h ^= data[a];
    h *= 1099511628211ULL;
  }
  return h;
}

// Everything observable about the finished run — same spirit as
// tests/engine_test.cpp's AppendMachineState, plus a data-segment hash.
std::string Fingerprint(machine::Machine& m, mem::Addr data_end) {
  std::ostringstream out;
  out << "global_time=" << m.GlobalTime() << "\n";
  for (CpuId cpu = 0; cpu < m.num_cpus(); ++cpu) {
    const cpu::Core& core = m.core(cpu);
    const mem::CacheStack& stack = m.stack(cpu);
    const mem::CacheStack::Stats& ss = stack.stats();
    const mem::BusEventCounts& bus = m.fabric().CpuCounts(cpu);
    out << "cpu" << cpu << " now=" << core.now()
        << " retired=" << core.instructions_retired()
        << " dropped=" << core.lfetches_dropped() << " loads=" << ss.loads
        << " stores=" << ss.stores << " pf=" << ss.prefetches
        << " pf_bus=" << ss.prefetch_bus_requests
        << " pf_up=" << ss.prefetch_upgrades << " l2wb=" << ss.l2_writebacks
        << " fwb=" << ss.fabric_writebacks << " st_up=" << ss.store_upgrades
        << " sn_down=" << ss.snoop_downgrades
        << " sn_inv=" << ss.snoop_invalidations << " hitm=" << ss.hitm_supplies
        << " st_upd=" << ss.store_updates << " sn_upd=" << ss.snoop_updates
        << " buf_st=" << ss.buffered_stores
        << " l2m=" << stack.L2Misses() << " l3m=" << stack.L3Misses()
        << " bus_mem=" << bus.bus_memory << " rd_hit=" << bus.bus_rd_hit
        << " rd_hitm=" << bus.bus_rd_hitm
        << " rd_inv_hitm=" << bus.bus_rd_inval_all_hitm
        << " upg=" << bus.bus_upgrades << " upd=" << bus.bus_updates
        << " c2c=" << bus.c2c_transfers << " wb=" << bus.bus_writebacks
        << " remote=" << bus.remote_transactions << "\n";
  }
  const mem::BusEventCounts& total = m.fabric().TotalCounts();
  out << "bus_total=" << total.bus_memory << "/" << total.CoherentEvents()
      << "/" << total.remote_transactions << "\n";
  out << "memhash=" << HashMemory(m.memory(), data_end) << "\n";
  return out.str();
}

}  // namespace

FuzzCase SmpFuzzCase(std::uint64_t seed) {
  FuzzCase c;
  c.seed = seed;
  c.machine_name = "smp4";
  c.machine = machine::SmpServerConfig(4);
  c.machine.mem.memory_bytes = 1 << 22;
  c.machine.verify_coherence = true;
  c.threads = 4;
  return c;
}

FuzzCase NumaFuzzCase(std::uint64_t seed) {
  FuzzCase c;
  c.seed = seed;
  c.machine_name = "numa8";
  c.machine = machine::AltixConfig(8);
  c.machine.mem.memory_bytes = 1 << 22;
  c.machine.verify_coherence = true;
  c.threads = 8;
  return c;
}

FuzzCase WithProtocol(FuzzCase c, mem::Protocol protocol) {
  c.machine.mem.protocol = protocol;
  c.machine_name += std::string(".") + mem::ProtocolName(protocol);
  return c;
}

std::string MemoryImageOf(const std::string& fingerprint) {
  const std::size_t pos = fingerprint.find("memhash=");
  COBRA_CHECK_MSG(pos != std::string::npos,
                  "fingerprint carries no memory-image line");
  const std::size_t end = fingerprint.find('\n', pos);
  return fingerprint.substr(pos, end - pos);
}

std::vector<std::pair<std::string, isa::Addr>> BuildFuzzProgram(
    const FuzzCase& c, kgen::Program& prog) {
  support::Rng rng(c.seed ^ 0x5bf0b5a2d192a3c1ULL);
  const GeneratedCase g = Generate(prog, rng, c.threads);
  std::vector<std::pair<std::string, isa::Addr>> kernels = prog.kernels();
  if (kernels.empty()) kernels.push_back({"fuzz_raw_mix", g.entry});
  return kernels;
}

std::string RunFuzzCase(const FuzzCase& c,
                        const machine::EngineConfig& engine) {
  kgen::Program prog;
  // Decouple the generator stream from the seed's raw value.
  support::Rng rng(c.seed ^ 0x5bf0b5a2d192a3c1ULL);
  const GeneratedCase g = Generate(prog, rng, c.threads);

  machine::Machine m(c.machine, &prog.image());
  ApplyFills(m.memory(), g.fills);

  std::ostringstream ctx;
  ctx << "fuzz seed=" << c.seed << " machine=" << c.machine_name
      << " threads=" << c.threads
      << " engine=" << machine::FormatEngineSpec(engine)
      << " -- rerun just this case with COBRA_FUZZ_SEED=" << c.seed;
  SetFailureContext(ctx.str());

  rt::Team team(&m, c.threads, engine);
  team.Run(g.entry, [&g](int tid, cpu::RegisterFile& regs) {
    for (const GrInit& init : g.grs) {
      regs.WriteGr(init.reg,
                   init.base + static_cast<std::uint64_t>(tid) * init.per_tid);
    }
    for (const FrInit& init : g.frs) regs.WriteFr(init.reg, init.value);
  });
  SetFailureContext("");

  return Fingerprint(m, prog.data_break());
}

PlannerCrossCheck RunFuzzCaseWithPlanner(const FuzzCase& c,
                                         const machine::EngineConfig& engine) {
  struct RunOut {
    std::string fingerprint;
    std::uint64_t deployments = 0;
    std::uint64_t candidates = 0;
    std::uint64_t verifications = 0;
  };
  const auto RunKind = [&](core::PlannerKind kind) -> RunOut {
    kgen::Program prog;
    support::Rng rng(c.seed ^ 0x5bf0b5a2d192a3c1ULL);
    const GeneratedCase g = Generate(prog, rng, c.threads);

    machine::Machine m(c.machine, &prog.image());
    ApplyFills(m.memory(), g.fills);

    std::ostringstream ctx;
    ctx << "fuzz planner=" << core::PlannerKindName(kind) << " seed=" << c.seed
        << " machine=" << c.machine_name << " threads=" << c.threads
        << " engine=" << machine::FormatEngineSpec(engine)
        << " -- rerun just this case with COBRA_FUZZ_SEED=" << c.seed;
    SetFailureContext(ctx.str());

    // Eager, fully explicit runtime config: deploy-on-sight (no measured
    // epochs) maximizes live-patch activity per seed, and both runs share
    // every knob except the strategy-selection engine under test. The
    // planner kind is assigned in code so an ambient COBRA_PLANNER cannot
    // skew the differential.
    core::CobraConfig config;
    config.planner = kind;
    config.batch_size = 8;
    config.batches_per_evaluation = 1;
    config.min_loop_hits = 4;
    config.require_coherent_ratio = false;
    config.require_coherent_load_in_loop = false;
    config.measured_epochs = false;
    config.static_priors = true;
    config.plan_cooldown_cycles = 0;     // every wake may revise the plan...
    config.plan_min_profit_delta = 0.0;  // ...on any strict improvement
    core::CobraRuntime cobra(&m, config);
    cobra.AttachAll(c.threads);

    rt::Team team(&m, c.threads, engine);
    // Two passes: the runtime deploys mid-flight during the first, and the
    // second executes start to finish through whatever patches went live.
    for (int rep = 0; rep < 2; ++rep) {
      team.Run(g.entry, [&g](int tid, cpu::RegisterFile& regs) {
        for (const GrInit& init : g.grs) {
          regs.WriteGr(init.reg, init.base +
                                     static_cast<std::uint64_t>(tid) *
                                         init.per_tid);
        }
        for (const FrInit& init : g.frs) regs.WriteFr(init.reg, init.value);
      });
    }
    cobra.DetachAll();
    SetFailureContext("");

    RunOut out;
    out.deployments = cobra.stats().deployments;
    out.candidates = cobra.planner().stats().candidates_seen;
    out.verifications = cobra.stats().patch_verifications;
    out.fingerprint = Fingerprint(m, prog.data_break());
    return out;
  };

  const RunOut heuristic = RunKind(core::PlannerKind::kHeuristic);
  const RunOut cost = RunKind(core::PlannerKind::kCost);

  PlannerCrossCheck result;
  result.heuristic_fingerprint = heuristic.fingerprint;
  result.cost_fingerprint = cost.fingerprint;
  result.heuristic_deployments = heuristic.deployments;
  result.cost_deployments = cost.deployments;
  result.cost_candidates = cost.candidates;
  result.verifier_passes = heuristic.verifications + cost.verifications;
  return result;
}

std::string RunFuzzCaseWithDeployments(const FuzzCase& c,
                                       const machine::EngineConfig& engine) {
  kgen::Program prog;
  support::Rng rng(c.seed ^ 0x5bf0b5a2d192a3c1ULL);
  const GeneratedCase g = Generate(prog, rng, c.threads);

  machine::Machine m(c.machine, &prog.image());
  ApplyFills(m.memory(), g.fills);

  std::ostringstream ctx;
  ctx << "fuzz live-patch seed=" << c.seed << " machine=" << c.machine_name
      << " threads=" << c.threads
      << " engine=" << machine::FormatEngineSpec(engine)
      << " -- rerun just this case with COBRA_FUZZ_SEED=" << c.seed;
  SetFailureContext(ctx.str());

  rt::Team team(&m, c.threads, engine);
  const auto RunOnce = [&] {
    team.Run(g.entry, [&g](int tid, cpu::RegisterFile& regs) {
      for (const GrInit& init : g.grs) {
        regs.WriteGr(init.reg, init.base +
                                   static_cast<std::uint64_t>(tid) *
                                       init.per_tid);
      }
      for (const FrInit& init : g.frs) regs.WriteFr(init.reg, init.value);
    });
  };

  RunOnce();  // baseline pass over the original binary
  core::TraceCache cache(&prog.image());
  for (const kgen::LoopInfo& loop : prog.loops()) {
    for (const core::OptKind opt :
         {core::OptKind::kNoprefetch, core::OptKind::kPrefetchExcl,
          core::OptKind::kNone}) {
      const int id = cache.Deploy({loop.head, loop.back_branch_pc}, opt);
      if (id < 0) continue;  // region gated out before any patching
      RunOnce();  // execute through the redirected entry
      cache.Revert(id);
      RunOnce();  // back over the restored original slots
      cache.Reapply(id);
      RunOnce();  // and through the re-applied patch
      cache.Revert(id);
    }
  }
  SetFailureContext("");

  return Fingerprint(m, prog.data_break());
}

ScevSoundnessResult CheckScevSoundness(const FuzzCase& c,
                                       const machine::EngineConfig& engine) {
  kgen::Program prog;
  support::Rng rng(c.seed ^ 0x5bf0b5a2d192a3c1ULL);
  const GeneratedCase g = Generate(prog, rng, c.threads);

  // Loop inventory: kgen kernels register LoopInfo; the raw mix records
  // its hand-assembled loop in the generated case.
  std::vector<std::pair<isa::Addr, isa::Addr>> regions = g.loops;
  for (const kgen::LoopInfo& loop : prog.loops()) {
    regions.push_back({loop.head, loop.back_branch_pc});
  }

  // Solve statically BEFORE the run: the analyzer sees only the binary.
  struct Claim {
    analysis::AddrClass cls = analysis::AddrClass::kUnknown;
    std::int64_t stride = 0;
  };
  struct Region {
    isa::Addr lo = 0;
    isa::Addr hi = 0;
    std::vector<isa::Addr> claim_pcs;
  };
  std::map<isa::Addr, Claim> claims;  // by access pc
  std::vector<Region> watched;
  ScevSoundnessResult result;
  for (const auto& [head, back] : regions) {
    const analysis::LoopScev scev =
        analysis::AnalyzeLoop(prog.image(), head, back);
    if (!scev.solved) continue;
    ++result.loops_solved;
    Region region{isa::BundleAddr(head),
                  isa::MakePc(isa::BundleAddr(back), 2), {}};
    for (const analysis::MemAccess& access : scev.accesses) {
      if (access.cls == analysis::AddrClass::kUnknown) continue;
      claims[access.pc] = Claim{access.cls, access.stride};
      region.claim_pcs.push_back(access.pc);
      ++result.claims;
    }
    if (!region.claim_pcs.empty()) watched.push_back(std::move(region));
  }
  if (claims.empty()) return result;

  // The address streams are architectural: the coherence oracle adds
  // nothing here, so run without it.
  machine::MachineConfig mcfg = c.machine;
  mcfg.verify_coherence = false;
  machine::Machine m(mcfg, &prog.image());
  ApplyFills(m.memory(), g.fills);

  std::ostringstream ctx;
  ctx << "fuzz scev-soundness seed=" << c.seed << " machine=" << c.machine_name
      << " threads=" << c.threads
      << " engine=" << machine::FormatEngineSpec(engine)
      << " -- rerun just this case with COBRA_FUZZ_SEED=" << c.seed;
  SetFailureContext(ctx.str());

  // Per-cpu observation state: each core's address stream is checked on
  // its own, and the tallies merge after the run.
  struct CpuTally {
    std::map<isa::Addr, isa::Addr> seen;  // last address per claimed pc,
                                          // valid while inside the loop
    std::uint64_t deltas_checked = 0;
    std::uint64_t contradictions = 0;
    std::string first_contradiction;
  };
  std::vector<CpuTally> tallies(static_cast<std::size_t>(m.num_cpus()));
  for (CpuId cpu = 0; cpu < m.num_cpus(); ++cpu) {
    CpuTally* tally = &tallies[static_cast<std::size_t>(cpu)];
    m.core(cpu).SetMemObserver([&claims, &watched, tally, cpu,
                                &c](isa::Addr pc, isa::Addr addr) {
      for (const Region& region : watched) {
        if (pc >= region.lo && pc <= region.hi) continue;
        for (const isa::Addr claim_pc : region.claim_pcs) {
          tally->seen.erase(claim_pc);  // cpu left this loop: stream restarts
        }
      }
      const auto claim = claims.find(pc);
      if (claim == claims.end()) return;
      if (const auto prev = tally->seen.find(pc); prev != tally->seen.end()) {
        ++tally->deltas_checked;
        const std::int64_t delta = static_cast<std::int64_t>(addr) -
                                   static_cast<std::int64_t>(prev->second);
        const std::int64_t want =
            claim->second.cls == analysis::AddrClass::kAffine
                ? claim->second.stride
                : 0;
        if (delta != want && tally->contradictions++ == 0) {
          std::ostringstream os;
          os << "scev claim contradicted at pc 0x" << std::hex << pc
             << std::dec << " on cpu " << cpu << ": static "
             << (want == 0 ? "invariant address" : "stride") << " " << want
             << " but observed delta " << delta << " (seed " << c.seed << ", "
             << c.machine_name << ")";
          tally->first_contradiction = os.str();
        }
      }
      tally->seen[pc] = addr;
    });
  }

  rt::Team team(&m, c.threads, engine);
  team.Run(g.entry, [&g](int tid, cpu::RegisterFile& regs) {
    for (const GrInit& init : g.grs) {
      regs.WriteGr(init.reg,
                   init.base + static_cast<std::uint64_t>(tid) * init.per_tid);
    }
    for (const FrInit& init : g.frs) regs.WriteFr(init.reg, init.value);
  });
  SetFailureContext("");

  for (const CpuTally& tally : tallies) {
    result.deltas_checked += tally.deltas_checked;
    result.contradictions += tally.contradictions;
    if (result.first_contradiction.empty()) {
      result.first_contradiction = tally.first_contradiction;
    }
  }
  return result;
}

int VerifyFuzzDeployments(const FuzzCase& c) {
  kgen::Program prog;
  support::Rng rng(c.seed ^ 0x5bf0b5a2d192a3c1ULL);
  (void)Generate(prog, rng, c.threads);

  std::ostringstream ctx;
  ctx << "fuzz patch-verify seed=" << c.seed << " machine=" << c.machine_name
      << " -- rerun just this case with COBRA_FUZZ_SEED=" << c.seed;
  SetFailureContext(ctx.str());

  // Raw-mix cases register no LoopInfo; the kgen-kernel cases contribute
  // their randomly parameterized loops (policy, distance, operation).
  core::TraceCache cache(&prog.image());
  for (const kgen::LoopInfo& loop : prog.loops()) {
    for (const core::OptKind opt :
         {core::OptKind::kNoprefetch, core::OptKind::kPrefetchExcl,
          core::OptKind::kNone}) {
      const int id =
          cache.Deploy({loop.head, loop.back_branch_pc}, opt);
      if (id < 0) continue;  // region gated out before any patching
      // Deploy, Revert, Reapply and the final Revert each run the
      // checking verifier (abort on violation).
      cache.Revert(id);
      cache.Reapply(id);
      cache.Revert(id);
    }
  }
  SetFailureContext("");
  return static_cast<int>(cache.verifications());
}

}  // namespace cobra::verify
