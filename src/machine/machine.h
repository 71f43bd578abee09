// Machine: a complete simulated multiprocessor (the paper's two evaluation
// hosts from Section 5.1).
//
// Owns the main memory, one cache stack + core per CPU, and the coherence
// fabric (snooping bus for the 4-way Itanium 2 SMP server, directory over a
// fat-tree for the SGI Altix cc-NUMA system).  Cores execute under the
// execution engine (machine/engine.h): simulated time advances in fixed
// cycle quanta, cores run core-private segments between barriers, and every
// coherence transaction commits in canonical (cycle, cpu-id) order — so
// every experiment is bit-reproducible.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cpu/core.h"
#include "isa/image.h"
#include "mem/cache_stack.h"
#include "mem/coherence.h"
#include "mem/config.h"
#include "mem/directory.h"
#include "mem/main_memory.h"
#include "mem/snoop_bus.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "support/simtypes.h"
#include "support/snapshot.h"

namespace cobra::verify {
class CoherenceChecker;
}

namespace cobra::tjit {
class TranslationCache;
}

namespace cobra::machine {

enum class FabricKind { kSnoopBus, kDirectory };

// Scheduling-loop counters, maintained by the execution engine. Every field
// is a function of simulated state alone, so two runs at equal quantum
// agree exactly — the registry-fingerprint determinism test relies on this.
struct EngineCounters {
  std::uint64_t quanta = 0;          // quantum windows executed
  std::uint64_t segment_phases = 0;  // segment fan-outs (barriers)
  std::uint64_t segments = 0;        // core-private segments run
  std::uint64_t commits = 0;         // fabric steps committed canonically
  std::uint64_t rounds = 0;          // round-task batches run
};

// Host-side performance accounting: how much simulated work the engine did
// and how long it took in host wall-clock. Written by the execution engine
// around each Run(); purely observational (never read by simulation) and
// exposed through host-class registry probes that are excluded from
// determinism fingerprints (see obs::Metric::host).
struct HostPerf {
  std::uint64_t wall_ns = 0;     // host wall-clock inside engine runs
  std::uint64_t runs = 0;        // engine Run() invocations
  std::uint64_t sim_cycles = 0;  // simulated cycles advanced, summed over cores
  std::uint64_t retired = 0;     // instructions retired, summed over cores
  std::uint64_t sb_retired = 0;  // subset retired in the superblock executor
};

// Process-wide HostPerf totals across every Machine ever constructed. The
// bench driver samples these around each experiment (experiments build and
// discard machines freely, so per-machine counters alone would be lost).
HostPerf GlobalHostPerfTotals();

struct MachineConfig {
  int num_cpus = 4;
  FabricKind fabric = FabricKind::kSnoopBus;
  mem::MemConfig mem = mem::ItaniumSmpConfig();
  // Wraps the fabric in a verify::CoherenceChecker that validates every
  // transaction against the MESI/directory invariants and diffs every load
  // against a sequentially-consistent golden memory. Off by default so
  // benchmark timings are unaffected; tests that stress the fabric turn it
  // on. The COBRA_VERIFY environment variable (0/1) overrides this.
  bool verify_coherence = false;
};

// The 4-way Itanium 2 SMP server of Section 5.1.
MachineConfig SmpServerConfig(int num_cpus = 4);

// The SGI Altix cc-NUMA system of Section 5.1 (2-CPU nodes).
MachineConfig AltixConfig(int num_cpus = 8);

class Machine {
 public:
  // The image is owned by the caller (it is the program, not the machine).
  Machine(const MachineConfig& cfg, isa::BinaryImage* image);
  ~Machine();

  int num_cpus() const { return static_cast<int>(cores_.size()); }
  const MachineConfig& config() const { return cfg_; }

  cpu::Core& core(CpuId cpu) { return *cores_.at(static_cast<std::size_t>(cpu)); }
  mem::CacheStack& stack(CpuId cpu) {
    return *stacks_.at(static_cast<std::size_t>(cpu));
  }
  const mem::CacheStack& stack(CpuId cpu) const {
    return *stacks_.at(static_cast<std::size_t>(cpu));
  }
  mem::MainMemory& memory() { return *memory_; }
  mem::CoherenceFabric& fabric() { return *fabric_; }
  const mem::CoherenceFabric& fabric() const { return *fabric_; }
  isa::BinaryImage& image() { return *image_; }

  // The coherence checker, or nullptr when verification is off. fabric()
  // keeps returning the real fabric either way (counters, queue cycles and
  // introspection are unaffected by verification).
  verify::CoherenceChecker* checker() { return checker_.get(); }

  // NUMA node of a CPU (0 for all CPUs on the snooping bus).
  int NodeOf(CpuId cpu) const;

  // --- Observability --------------------------------------------------------
  // Central metric registry. The machine registers its own hierarchical
  // counters (cpuN.*, mem.*, fabric.<protocol>.*, engine.*) at
  // construction; subsystems
  // with a shorter lifetime (CobraRuntime, SamplingDriver) add theirs via
  // obs::Registry::Registration. registry().Take() is the one queryable
  // snapshot of everything.
  obs::Registry& registry() { return registry_; }

  EngineCounters& engine_counters() { return engine_counters_; }
  const EngineCounters& engine_counters() const { return engine_counters_; }

  // Adds one engine run's host-side measurements to this machine's totals
  // and to the process-wide totals (GlobalHostPerfTotals).
  void AccumulateHostPerf(const HostPerf& delta);
  const HostPerf& host_perf() const { return host_perf_; }

  // Chrome trace-event timeline (nullptr = disabled). The constructor wires
  // obs::EnvTraceSink(), so setting COBRA_TRACE=<file> traces every machine
  // in the process; tests may override with their own sink. Threads: one
  // lane per CPU (tid = CpuId), plus an `engine` lane for quantum windows
  // and a `cobra` lane for deploy/revert instants.
  void SetTraceSink(obs::TraceSink* trace);
  obs::TraceSink* trace() { return trace_; }
  int trace_pid() const { return trace_pid_; }
  int trace_engine_tid() const { return num_cpus(); }
  int trace_cobra_tid() const { return num_cpus() + 1; }

  // Simulated wall-clock: the maximum core time.
  Cycle GlobalTime() const;

  // Barrier: advances every core to GlobalTime().
  void SyncCores();

  // Runs the given cores until all have halted, under the execution engine
  // at the default quantum (rt::Team accepts an EngineConfig for others).
  void RunUntilAllHalted(const std::vector<CpuId>& active);

  // Drops all cached lines and statistics; clears fabric counters and each
  // core's clock. Memory *contents* and page placement are preserved.
  void ResetTiming();

  // --- Checkpointing ---------------------------------------------------------
  // Serializes every component that carries simulated state (image, memory,
  // fabric, per-CPU cache stacks and cores, engine counters) as named
  // sections of a sealed blob (magic, version, checksum). Restoring into a
  // freshly built machine of the same configuration is fingerprint-identical
  // to never having paused: the restore happens in place (no reallocation),
  // so pointers the engine and runtime hold into cores/stacks stay valid.
  // Attach subsystems (COBRA runtime, perfmon) BEFORE restoring — restore
  // only rewrites state, it does not recreate hooks. Host-side acceleration
  // state (translation caches, superblock resume hints, way hints) is simply
  // dropped.
  //
  // RestoreCheckpoint returns false with a diagnostic naming the refused
  // section and field. The header, the checksum and the machine-shape
  // section (CPU count, fabric kind, protocol) are checked before anything
  // is mutated, and no blob-supplied count sizes an allocation beyond the
  // bytes left in its section. A blob that passes those gates but is
  // refused later — e.g. a cache geometry that differs from this machine's
  // — leaves the sections already restored (image, memory, fabric, ...)
  // rewritten: the machine must then be rebuilt or restored again.
  std::vector<std::uint8_t> SaveCheckpoint() const;
  bool RestoreCheckpoint(const std::vector<std::uint8_t>& blob,
                         std::string* error = nullptr);

  // --- Fast-forward (sampled simulation) -------------------------------------
  // Switches every core between detailed timing simulation and
  // functional-only fast-forward (see cpu::Core::SetFastForward). Only legal
  // while cores are quiescent — round tasks call it at quantum boundaries,
  // or callers flip it between runs.
  void SetFastForward(bool on);
  bool fast_forward() const { return fast_forward_; }
  // Bumped on every effective mode flip. Observers whose measurements span
  // simulated time (e.g. COBRA's CPI windows) compare generations to detect
  // that a window crossed a fast-forwarded gap and must be discarded.
  std::uint64_t fast_forward_generation() const {
    return fast_forward_generation_;
  }

  // --- Engine integration ----------------------------------------------------
  // True while the execution engine is driving the cores. Subsystems that
  // deliver callbacks into shared state (e.g. perfmon sample batches, which
  // reach COBRA's optimizer and may rewrite the binary image) must defer
  // delivery to a round task while an engine is active.
  bool engine_active() const { return engine_depth_ > 0; }

  // Round tasks run once per engine quantum, at the quantum boundary,
  // while all cores are quiescent, in registration order. Returns an id
  // for RemoveRoundTask.
  int AddRoundTask(std::function<void()> task);
  void RemoveRoundTask(int id);
  void RunRoundTasks();

  // Engine entry/exit bookkeeping. On the outermost entry the coherence
  // checker (if enabled) re-snapshots functional memory into its golden
  // oracle (host-side setup writes between runs are not simulated stores);
  // on the outermost exit it runs a final full sweep and memory diff.
  void EngineEnter();
  void EngineExit();

  // RAII marker used by the engine around a run (see engine_active()).
  class EngineScope {
   public:
    explicit EngineScope(Machine& m) : m_(m) { m_.EngineEnter(); }
    ~EngineScope() { m_.EngineExit(); }
    EngineScope(const EngineScope&) = delete;
    EngineScope& operator=(const EngineScope&) = delete;

   private:
    Machine& m_;
  };

 private:
  // The section list behind Save/RestoreCheckpoint, in blob order.
  bool Checkpoint(support::StateIO& io);

  void RegisterMetrics();

  MachineConfig cfg_;
  isa::BinaryImage* image_;
  std::unique_ptr<mem::MainMemory> memory_;
  std::unique_ptr<mem::CoherenceFabric> fabric_;
  std::unique_ptr<verify::CoherenceChecker> checker_;  // null unless enabled
  std::vector<std::unique_ptr<mem::CacheStack>> stacks_;
  std::vector<std::unique_ptr<cpu::Core>> cores_;
  // Per-core trace-JIT translation caches (empty when COBRA_TJIT=off).
  // Per-core because superblocks embed core-local chain pointers.
  std::vector<std::unique_ptr<tjit::TranslationCache>> tjit_caches_;

  obs::Registry registry_;
  EngineCounters engine_counters_;
  HostPerf host_perf_;
  obs::TraceSink* trace_ = nullptr;
  int trace_pid_ = 0;

  bool fast_forward_ = false;
  std::uint64_t fast_forward_generation_ = 0;
  int engine_depth_ = 0;
  std::vector<std::pair<int, std::function<void()>>> round_tasks_;
  int next_round_task_id_ = 0;
};

}  // namespace cobra::machine
