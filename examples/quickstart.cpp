// Quickstart: the smallest complete COBRA session.
//
// 1. Generate an aggressively-prefetching DAXPY binary (what icc -O3 gives
//    an OpenMP loop on Itanium 2).
// 2. Boot a simulated 4-way Itanium 2 SMP machine with the binary.
// 3. Attach the COBRA runtime (monitoring threads + optimization thread).
// 4. Run the OpenMP-style parallel loop repeatedly; COBRA discovers the
//    hot loop from BTB samples, detects the coherent-miss pathology, and
//    patches the binary at runtime.
// 5. Compare against an identical run without COBRA.
//
// Build & run:  ./build/examples/quickstart
// Set COBRA_ENGINE=serial@Q to run at a different engine quantum Q — a
// different (equally deterministic) timing model.
#include <cstdio>

#include "cobra/cobra.h"
#include "kgen/emitters.h"
#include "kgen/program.h"
#include "machine/engine.h"
#include "machine/machine.h"
#include "rt/team.h"

using namespace cobra;

namespace {

struct RunResult {
  Cycle cycles = 0;
  core::CobraRuntime::Stats stats;
};

RunResult RunDaxpy(bool with_cobra) {
  // --- 1. The program: a Figure 2 style DAXPY kernel --------------------
  kgen::Program prog;
  const kgen::LoopInfo daxpy =
      EmitDaxpy(prog, "daxpy", kgen::PrefetchPolicy{});
  constexpr std::int64_t kN = 8192;  // 128 KB working set (x[] + y[])
  const mem::Addr x = prog.Alloc(kN * 8);
  const mem::Addr y = prog.Alloc(kN * 8);

  // --- 2. The machine: 4-way Itanium 2 SMP ------------------------------
  machine::MachineConfig cfg = machine::SmpServerConfig(4);
  cfg.mem.memory_bytes = 1 << 24;
  machine::Machine machine(cfg, &prog.image());
  for (std::int64_t i = 0; i < kN; ++i) {
    machine.memory().WriteDouble(x + 8 * static_cast<mem::Addr>(i), 1.0);
    machine.memory().WriteDouble(y + 8 * static_cast<mem::Addr>(i), 2.0);
  }

  // --- 3. COBRA, preloaded like the real shared library -----------------
  std::unique_ptr<core::CobraRuntime> cobra;
  if (with_cobra) {
    core::CobraConfig config;
    config.strategy = core::OptKind::kNoprefetch;
    // DAXPY's coherence cost is on stores, which the load-only DEAR cannot
    // see; rely on the system-wide coherent-ratio trigger instead.
    config.require_coherent_load_in_loop = false;
    cobra = std::make_unique<core::CobraRuntime>(&machine, config);
    cobra->AttachAll(4);
  }

  // --- 4. The OpenMP-style outer loop ------------------------------------
  const machine::EngineConfig engine = machine::EngineConfigFromEnv();
  rt::Team team(&machine, 4, engine);
  std::printf("  [engine: %s]\n", machine::FormatEngineSpec(engine).c_str());
  const Cycle start = machine.GlobalTime();
  for (int rep = 0; rep < 40; ++rep) {
    team.Run(daxpy.entry, [&](int tid, cpu::RegisterFile& regs) {
      const auto chunk = rt::StaticChunk(tid, 4, kN);
      regs.WriteGr(14, x + 8 * static_cast<mem::Addr>(chunk.begin));
      regs.WriteGr(15, y + 8 * static_cast<mem::Addr>(chunk.begin));
      regs.WriteGr(16, static_cast<std::uint64_t>(chunk.size()));
      regs.WriteFr(6, 0.5);
    });
  }

  RunResult result;
  result.cycles = machine.GlobalTime() - start;
  if (cobra) result.stats = cobra->stats();
  return result;
}

}  // namespace

int main() {
  std::printf("COBRA quickstart: OpenMP DAXPY, 128K working set, 4 threads\n\n");
  const RunResult baseline = RunDaxpy(false);
  const RunResult optimized = RunDaxpy(true);

  std::printf("baseline (icc prefetch binary): %10llu cycles\n",
              static_cast<unsigned long long>(baseline.cycles));
  std::printf("under COBRA:                    %10llu cycles  (%.1f%% faster)\n",
              static_cast<unsigned long long>(optimized.cycles),
              100.0 * (static_cast<double>(baseline.cycles) /
                           static_cast<double>(optimized.cycles) -
                       1.0));
  std::printf(
      "\nwhat COBRA did: %llu evaluations, coherent ratio %.2f, "
      "%llu traces deployed,\n%llu prefetches rewritten, %llu rollbacks\n",
      static_cast<unsigned long long>(optimized.stats.evaluations),
      optimized.stats.last_coherent_ratio,
      static_cast<unsigned long long>(optimized.stats.deployments),
      static_cast<unsigned long long>(optimized.stats.lfetches_rewritten),
      static_cast<unsigned long long>(optimized.stats.rollbacks));
  return 0;
}
