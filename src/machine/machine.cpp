#include "machine/machine.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <string>

#include "machine/engine.h"
#include "support/check.h"
#include "tjit/tcache.h"
#include "verify/coherence_checker.h"

namespace cobra::machine {

namespace {
// Process-wide HostPerf accumulators. Relaxed atomics: every engine run adds
// to them and the bench driver reads them between experiments; they stay
// atomic so machines driven from different host threads can share them. No
// ordering is needed beyond the totals being eventually consistent.
struct GlobalHostCounters {
  std::atomic<std::uint64_t> wall_ns{0};
  std::atomic<std::uint64_t> runs{0};
  std::atomic<std::uint64_t> sim_cycles{0};
  std::atomic<std::uint64_t> retired{0};
  std::atomic<std::uint64_t> sb_retired{0};
};
GlobalHostCounters g_host_perf;
}  // namespace

HostPerf GlobalHostPerfTotals() {
  HostPerf t;
  t.wall_ns = g_host_perf.wall_ns.load(std::memory_order_relaxed);
  t.runs = g_host_perf.runs.load(std::memory_order_relaxed);
  t.sim_cycles = g_host_perf.sim_cycles.load(std::memory_order_relaxed);
  t.retired = g_host_perf.retired.load(std::memory_order_relaxed);
  t.sb_retired = g_host_perf.sb_retired.load(std::memory_order_relaxed);
  return t;
}

void Machine::AccumulateHostPerf(const HostPerf& delta) {
  host_perf_.wall_ns += delta.wall_ns;
  host_perf_.runs += delta.runs;
  host_perf_.sim_cycles += delta.sim_cycles;
  host_perf_.retired += delta.retired;
  host_perf_.sb_retired += delta.sb_retired;
  g_host_perf.wall_ns.fetch_add(delta.wall_ns, std::memory_order_relaxed);
  g_host_perf.runs.fetch_add(delta.runs, std::memory_order_relaxed);
  g_host_perf.sim_cycles.fetch_add(delta.sim_cycles,
                                   std::memory_order_relaxed);
  g_host_perf.retired.fetch_add(delta.retired, std::memory_order_relaxed);
  g_host_perf.sb_retired.fetch_add(delta.sb_retired,
                                   std::memory_order_relaxed);
}

MachineConfig SmpServerConfig(int num_cpus) {
  MachineConfig cfg;
  cfg.num_cpus = num_cpus;
  cfg.fabric = FabricKind::kSnoopBus;
  cfg.mem = mem::ItaniumSmpConfig();
  return cfg;
}

MachineConfig AltixConfig(int num_cpus) {
  MachineConfig cfg;
  cfg.num_cpus = num_cpus;
  cfg.fabric = FabricKind::kDirectory;
  cfg.mem = mem::AltixNumaConfig();
  return cfg;
}

Machine::Machine(const MachineConfig& cfg, isa::BinaryImage* image)
    : cfg_(cfg), image_(image) {
  COBRA_CHECK(image != nullptr);
  COBRA_CHECK(cfg.num_cpus >= 1);

  memory_ = std::make_unique<mem::MainMemory>(cfg.mem.memory_bytes,
                                              cfg.mem.page_bytes);

  const mem::DirectoryFabric* directory = nullptr;
  if (cfg.fabric == FabricKind::kSnoopBus) {
    fabric_ = std::make_unique<mem::SnoopBus>(cfg.mem);
  } else {
    auto dir = std::make_unique<mem::DirectoryFabric>(cfg.mem, memory_.get(),
                                                      cfg.num_cpus);
    directory = dir.get();
    fabric_ = std::move(dir);
  }

  bool verify = cfg.verify_coherence;
  if (const char* env = std::getenv("COBRA_VERIFY"); env && *env != '\0') {
    verify = *env != '0';
  }
  if (verify) {
    checker_ = std::make_unique<verify::CoherenceChecker>(
        memory_.get(), fabric_.get(), directory);
  }
  // The stacks talk to the checker (which forwards to the real fabric)
  // when verification is on; the real fabric still snoops them directly.
  mem::CoherenceFabric* front =
      checker_ ? static_cast<mem::CoherenceFabric*>(checker_.get())
               : fabric_.get();

  std::vector<mem::CacheStack*> raw_stacks;
  for (CpuId cpu = 0; cpu < cfg.num_cpus; ++cpu) {
    stacks_.push_back(std::make_unique<mem::CacheStack>(cpu, cfg.mem));
    stacks_.back()->AttachFabric(front);
    raw_stacks.push_back(stacks_.back().get());
  }
  front->AttachStacks(raw_stacks);

  for (CpuId cpu = 0; cpu < cfg.num_cpus; ++cpu) {
    cores_.push_back(std::make_unique<cpu::Core>(
        cpu, image_, memory_.get(), stacks_[static_cast<std::size_t>(cpu)].get(),
        fabric_.get()));
    if (checker_) cores_.back()->AttachChecker(checker_.get());
  }

  // Trace JIT: one translation cache per core (superblocks embed core-local
  // chain pointers, and segment phases touch the caches in parallel).
  // COBRA_TJIT=off leaves the cores on the pure PR5 interpreter path.
  if (const tjit::TjitConfig tjit_cfg = tjit::TjitConfigFromEnv();
      tjit_cfg.enabled) {
    for (auto& core : cores_) {
      tjit_caches_.push_back(
          std::make_unique<tjit::TranslationCache>(image_, tjit_cfg));
      core->AttachTjit(tjit_caches_.back().get());
    }
  }

  RegisterMetrics();
  SetTraceSink(obs::EnvTraceSink());
}

void Machine::RegisterMetrics() {
  // Probes read the owning subsystem's live counters at snapshot time; all
  // captured pointers are members of this Machine, which outlives the
  // registry's users. Fabric counters are read from the *real* fabric
  // (fabric_), never the checker front, so verification stays invisible.
  const auto add = [this](std::string name, obs::Registry::Probe probe) {
    registry_.Register(std::move(name), std::move(probe));
  };

  // Fabric traffic metrics carry the active coherence protocol in their
  // prefix (fabric.mesi.*, fabric.dragon.*, ...), so two runs under
  // different protocols can never be confused: the metric names — and with
  // them the registry fingerprint and the bench JSON schema — differ.
  const std::string fab =
      std::string("fabric.") + mem::ProtocolName(cfg_.mem.protocol);

  for (CpuId cpu = 0; cpu < cfg_.num_cpus; ++cpu) {
    const std::string n = std::to_string(cpu);
    const cpu::Core* core = cores_[static_cast<std::size_t>(cpu)].get();
    const mem::CacheStack* stack = stacks_[static_cast<std::size_t>(cpu)].get();

    add("cpu" + n + ".cycles", [core] { return core->now(); });
    add("cpu" + n + ".retired",
        [core] { return core->instructions_retired(); });
    add("cpu" + n + ".lfetches_dropped",
        [core] { return core->lfetches_dropped(); });

    add("mem.cpu" + n + ".l2.miss", [stack] { return stack->L2Misses(); });
    add("mem.cpu" + n + ".l3.miss", [stack] { return stack->L3Misses(); });
    add("mem.cpu" + n + ".loads", [stack] { return stack->stats().loads; });
    add("mem.cpu" + n + ".stores", [stack] { return stack->stats().stores; });
    add("mem.cpu" + n + ".prefetches",
        [stack] { return stack->stats().prefetches; });
    add("mem.cpu" + n + ".prefetch_bus_requests",
        [stack] { return stack->stats().prefetch_bus_requests; });
    add("mem.cpu" + n + ".prefetch_upgrades",
        [stack] { return stack->stats().prefetch_upgrades; });
    add("mem.cpu" + n + ".writebacks",
        [stack] { return stack->stats().fabric_writebacks; });
    add("mem.cpu" + n + ".store_upgrades",
        [stack] { return stack->stats().store_upgrades; });
    add("mem.cpu" + n + ".snoop_downgrades",
        [stack] { return stack->stats().snoop_downgrades; });
    add("mem.cpu" + n + ".snoop_invalidations",
        [stack] { return stack->stats().snoop_invalidations; });
    add("mem.cpu" + n + ".hitm_supplies",
        [stack] { return stack->stats().hitm_supplies; });
    add("mem.cpu" + n + ".store_updates",
        [stack] { return stack->stats().store_updates; });
    add("mem.cpu" + n + ".snoop_updates",
        [stack] { return stack->stats().snoop_updates; });
    add("mem.cpu" + n + ".buffered_stores",
        [stack] { return stack->stats().buffered_stores; });

    const mem::CoherenceFabric* fabric = fabric_.get();
    add(fab + ".cpu" + n + ".memory",
        [fabric, cpu] { return fabric->CpuCounts(cpu).bus_memory; });
    add(fab + ".cpu" + n + ".coherent",
        [fabric, cpu] { return fabric->CpuCounts(cpu).CoherentEvents(); });
  }

  const auto agg = [this](auto get) {
    std::uint64_t total = 0;
    for (const auto& stack : stacks_) total += get(*stack);
    return total;
  };
  add("mem.l2.miss", [this, agg] {
    return agg([](const mem::CacheStack& s) { return s.L2Misses(); });
  });
  add("mem.l3.miss", [this, agg] {
    return agg([](const mem::CacheStack& s) { return s.L3Misses(); });
  });
  add("mem.prefetches", [this, agg] {
    return agg([](const mem::CacheStack& s) { return s.stats().prefetches; });
  });

  const mem::CoherenceFabric* fabric = fabric_.get();
  add(fab + ".memory", [fabric] { return fabric->TotalCounts().bus_memory; });
  add(fab + ".rd_hit", [fabric] { return fabric->TotalCounts().bus_rd_hit; });
  add(fab + ".rd_hitm",
      [fabric] { return fabric->TotalCounts().bus_rd_hitm; });
  add(fab + ".rd_inval_all_hitm",
      [fabric] { return fabric->TotalCounts().bus_rd_inval_all_hitm; });
  add(fab + ".upgrades",
      [fabric] { return fabric->TotalCounts().bus_upgrades; });
  add(fab + ".updates",
      [fabric] { return fabric->TotalCounts().bus_updates; });
  add(fab + ".c2c", [fabric] {
    return fabric->TotalCounts().c2c_transfers;
  });
  add(fab + ".writebacks",
      [fabric] { return fabric->TotalCounts().bus_writebacks; });
  add(fab + ".remote",
      [fabric] { return fabric->TotalCounts().remote_transactions; });
  add(fab + ".coherent",
      [fabric] { return fabric->TotalCounts().CoherentEvents(); });
  add(fab + ".occupancy", [fabric] { return fabric->queue_cycles(); });

  add("engine.quanta", [this] { return engine_counters_.quanta; });
  add("engine.segment_phases",
      [this] { return engine_counters_.segment_phases; });
  add("engine.segments", [this] { return engine_counters_.segments; });
  add("engine.commits", [this] { return engine_counters_.commits; });
  add("engine.rounds", [this] { return engine_counters_.rounds; });

  add("machine.global_time", [this] { return GlobalTime(); });

  // Host-side performance readings: sampled into snapshots like any metric
  // but flagged host-class, so fingerprints and ToString dumps skip them
  // (they vary run to run by construction).
  registry_.RegisterHost("host.wall_ns",
                         [this] { return host_perf_.wall_ns; });
  registry_.RegisterHost("host.runs", [this] { return host_perf_.runs; });
  registry_.RegisterHost("host.sim_cycles",
                         [this] { return host_perf_.sim_cycles; });
  registry_.RegisterHost("host.retired",
                         [this] { return host_perf_.retired; });
  registry_.RegisterHost("host.sb_retired",
                         [this] { return host_perf_.sb_retired; });

  // Translation-cache counters are host-class by design: whether a step ran
  // through a superblock or the interpreter is a host implementation detail
  // with zero simulated effect, so COBRA_TJIT=on/off must (and does) leave
  // every fingerprinted metric bit-identical. Registered even when the JIT
  // is disabled so snapshot shape is mode-independent.
  const auto tjit_sum = [this](auto get) {
    return [this, get] {
      std::uint64_t total = 0;
      for (const auto& tc : tjit_caches_) total += get(tc->stats());
      return total;
    };
  };
  registry_.RegisterHost("tjit.hits", tjit_sum([](const tjit::TjitStats& s) {
                           return s.hits;
                         }));
  registry_.RegisterHost("tjit.misses",
                         tjit_sum([](const tjit::TjitStats& s) {
                           return s.misses;
                         }));
  registry_.RegisterHost("tjit.compiles",
                         tjit_sum([](const tjit::TjitStats& s) {
                           return s.compiles;
                         }));
  registry_.RegisterHost("tjit.compiled_steps",
                         tjit_sum([](const tjit::TjitStats& s) {
                           return s.compiled_steps;
                         }));
  registry_.RegisterHost("tjit.flushes",
                         tjit_sum([](const tjit::TjitStats& s) {
                           return s.flushes;
                         }));
  registry_.RegisterHost("tjit.chains", tjit_sum([](const tjit::TjitStats& s) {
                           return s.chains;
                         }));
  registry_.RegisterHost("tjit.side_exits",
                         tjit_sum([](const tjit::TjitStats& s) {
                           return s.side_exits;
                         }));
  registry_.RegisterHost("tjit.sb_retired", [this] {
    std::uint64_t total = 0;
    for (const auto& core : cores_) total += core->superblock_retired();
    return total;
  });
}

void Machine::SetTraceSink(obs::TraceSink* trace) {
  trace_ = trace;
  if (trace_ == nullptr) return;
  const char* fabric_name =
      cfg_.fabric == FabricKind::kSnoopBus ? "smp" : "numa";
  trace_pid_ = trace_->BeginProcess(std::string(fabric_name) + "x" +
                                    std::to_string(num_cpus()));
  for (CpuId cpu = 0; cpu < cfg_.num_cpus; ++cpu) {
    trace_->NameThread(trace_pid_, cpu, "cpu" + std::to_string(cpu));
  }
  trace_->NameThread(trace_pid_, trace_engine_tid(), "engine");
  trace_->NameThread(trace_pid_, trace_cobra_tid(), "cobra");
  for (auto& stack : stacks_) stack->AttachTrace(trace_, trace_pid_);
}

int Machine::NodeOf(CpuId cpu) const {
  if (cfg_.fabric == FabricKind::kSnoopBus) return 0;
  return cpu / cfg_.mem.cpus_per_node;
}

Cycle Machine::GlobalTime() const {
  Cycle t = 0;
  for (const auto& core : cores_) t = std::max(t, core->now());
  return t;
}

void Machine::SyncCores() {
  const Cycle t = GlobalTime();
  for (auto& core : cores_) core->set_now(t);
}

Machine::~Machine() = default;

void Machine::RunUntilAllHalted(const std::vector<CpuId>& active) {
  Run(*this, active, EngineConfig{});
}

int Machine::AddRoundTask(std::function<void()> task) {
  const int id = next_round_task_id_++;
  round_tasks_.emplace_back(id, std::move(task));
  return id;
}

void Machine::RemoveRoundTask(int id) {
  std::erase_if(round_tasks_,
                [id](const auto& entry) { return entry.first == id; });
}

void Machine::RunRoundTasks() {
  ++engine_counters_.rounds;
  for (const auto& [id, task] : round_tasks_) task();
  if (checker_) checker_->OnRoundTasks();
}

void Machine::EngineEnter() {
  if (engine_depth_++ == 0 && checker_) checker_->OnRunBegin();
}

void Machine::EngineExit() {
  if (--engine_depth_ == 0 && checker_) checker_->OnRunEnd();
}

bool Machine::Checkpoint(support::StateIO& io) {
  const auto section = [&io](std::string_view name, auto&& fields) {
    return io.BeginSection(name) && fields() && io.EndSection();
  };
  // Shape gate first: nothing is mutated until the blob is known to match
  // this machine's geometry and protocol.
  std::uint32_t cpus = static_cast<std::uint32_t>(cores_.size());
  std::uint8_t fabric_kind = static_cast<std::uint8_t>(cfg_.fabric);
  std::uint8_t protocol = static_cast<std::uint8_t>(cfg_.mem.protocol);
  if (!section("machine", [&] {
        io.U32(cpus);
        io.U8(fabric_kind);
        io.U8(protocol);
        return io.Expect(cpus == cores_.size(), "CPUs", cpus,
                         static_cast<std::int64_t>(cores_.size())) &&
               io.Expect(fabric_kind == static_cast<std::uint8_t>(cfg_.fabric),
                         "fabric kind", fabric_kind,
                         static_cast<std::int64_t>(cfg_.fabric)) &&
               io.Expect(
                   protocol == static_cast<std::uint8_t>(cfg_.mem.protocol),
                   "protocol", protocol,
                   static_cast<std::int64_t>(cfg_.mem.protocol));
      })) {
    return false;
  }

  // The checker front delegates to the real fabric, so the bytes are the
  // same either way; going through it lets restore re-sync the oracle.
  mem::CoherenceFabric* front =
      checker_ ? static_cast<mem::CoherenceFabric*>(checker_.get())
               : fabric_.get();
  // Memory before fabric: the checker front re-snapshots its golden oracle
  // from functional memory when its fabric section restores.
  if (!section("image", [&] { return image_->Checkpoint(io); }) ||
      !section("memory", [&] { return memory_->Checkpoint(io); }) ||
      !section("fabric", [&] { return front->Checkpoint(io); })) {
    return false;
  }
  for (std::size_t cpu = 0; cpu < stacks_.size(); ++cpu) {
    if (!section("stack" + std::to_string(cpu),
                 [&] { return stacks_[cpu]->Checkpoint(io); })) {
      return false;
    }
  }
  for (std::size_t cpu = 0; cpu < cores_.size(); ++cpu) {
    if (!section("cpu" + std::to_string(cpu),
                 [&] { return cores_[cpu]->Checkpoint(io); })) {
      return false;
    }
  }
  if (!section("engine", [&] {
        io.U64(engine_counters_.quanta);
        io.U64(engine_counters_.segment_phases);
        io.U64(engine_counters_.segments);
        io.U64(engine_counters_.commits);
        return io.U64(engine_counters_.rounds);
      })) {
    return false;
  }

  // Host-side acceleration state is dropped, not restored: superblocks may
  // bake in plans from before the image restore. BeginSegment would catch a
  // generation change, but a restore can land on the *same* generation with
  // different bits, so flush unconditionally.
  if (io.loading()) {
    for (auto& tc : tjit_caches_) tc->Flush();
  }
  return true;
}

std::vector<std::uint8_t> Machine::SaveCheckpoint() const {
  support::StateWriter w;
  // Saving only reads the fields Checkpoint lists.
  const_cast<Machine*>(this)->Checkpoint(w);
  return w.Finish();
}

bool Machine::RestoreCheckpoint(const std::vector<std::uint8_t>& blob,
                                std::string* error) {
  support::StateReader r;
  if (!r.Open(blob) || !Checkpoint(r) || !r.AtEnd()) {
    if (error != nullptr) {
      *error = r.Ok() ? "trailing bytes after machine sections" : r.error();
    }
    return false;
  }
  return true;
}

void Machine::SetFastForward(bool on) {
  if (fast_forward_ != on) ++fast_forward_generation_;
  fast_forward_ = on;
  for (auto& core : cores_) core->SetFastForward(on);
}

void Machine::ResetTiming() {
  for (auto& stack : stacks_) stack->Reset();
  fabric_->ResetCounts();
  for (auto& core : cores_) core->set_now(0);
  engine_counters_ = EngineCounters{};
  if (checker_) checker_->OnResetTiming();
}

}  // namespace cobra::machine
