#include "machine/engine.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>

#include "cpu/core.h"
#include "machine/machine.h"
#include "mem/cache_stack.h"
#include "support/check.h"

namespace cobra::machine {
namespace {

constexpr const char* kSpecGrammar =
    "engine spec must be serial[@Q] with Q a positive cycle count";
constexpr Cycle kMaxCycle = std::numeric_limits<Cycle>::max();

// Advances one core to the end of its current segment: consecutive steps
// that stay inside the quantum window and touch only core-private state.
// The fabric guard turns any Try*/access-path mismatch into a hard error
// instead of a silent determinism bug.
void RunSegment(cpu::Core& core, mem::CacheStack& stack, Cycle q_end) {
  stack.set_fabric_guard(true);
  core.RunSegment(q_end);
  stack.set_fabric_guard(false);
}

struct PendingCommit {
  cpu::Core* core;
  Cycle stop_now;
};

// One quantum window of the segment/commit machinery: alternate segment
// phases with canonical commits until every core has halted or reached the
// quantum edge.
void RunCommitRounds(Machine& m, const std::vector<cpu::Core*>& running,
                     Cycle q_end, EngineCounters& counters) {
  std::vector<PendingCommit> pending;
  for (;;) {
    for (cpu::Core* core : running) {
      RunSegment(*core, m.stack(core->id()), q_end);
    }
    ++counters.segment_phases;
    counters.segments += running.size();

    // A core still inside the window is stopped on a fabric access (the
    // Try* decision is exact); everyone else halted or reached the quantum
    // edge.
    pending.clear();
    for (cpu::Core* core : running) {
      if (!core->halted() && core->now() < q_end) {
        pending.push_back({core, core->now()});
      }
    }
    if (pending.empty()) return;
    counters.commits += pending.size();

    // Canonical commit order: (stop cycle, cpu id). Each pending step
    // executes whole — fabric transaction, snoops, victim writebacks —
    // while every other core is quiescent.
    std::sort(pending.begin(), pending.end(),
              [](const PendingCommit& a, const PendingCommit& b) {
                if (a.stop_now != b.stop_now) return a.stop_now < b.stop_now;
                return a.core->id() < b.core->id();
              });
    for (const PendingCommit& p : pending) p.core->Step();
  }
}

// Parses a decimal quantum: one or more digits, no sign, no overflow.
Cycle ParseQuantum(std::string_view text) {
  COBRA_CHECK_MSG(!text.empty(), kSpecGrammar);
  Cycle value = 0;
  for (char c : text) {
    COBRA_CHECK_MSG(c >= '0' && c <= '9', kSpecGrammar);
    const Cycle digit = static_cast<Cycle>(c - '0');
    COBRA_CHECK_MSG(value <= (kMaxCycle - digit) / 10,
                    "engine spec: quantum does not fit in 64 bits "
                    "(spec must be serial[@Q])");
    value = value * 10 + digit;
  }
  COBRA_CHECK_MSG(value > 0, kSpecGrammar);
  return value;
}

}  // namespace

void Run(Machine& m, const std::vector<CpuId>& active,
         const EngineConfig& config) {
  COBRA_CHECK_MSG(config.quantum > 0, "engine quantum must be positive");
  std::vector<cpu::Core*> running;
  running.reserve(active.size());
  for (CpuId cpu : active) {
    cpu::Core* core = &m.core(cpu);
    COBRA_CHECK_MSG(!core->halted(), "active core was never started");
    running.push_back(core);
  }
  Machine::EngineScope scope(m);
  EngineCounters& counters = m.engine_counters();

  // Host-perf accounting: wall-clock around the whole run, simulated-work
  // deltas from the cores themselves. Purely observational (host-class
  // metrics, excluded from fingerprints); nothing here feeds simulation.
  const auto host_start = std::chrono::steady_clock::now();
  HostPerf delta;
  delta.runs = 1;
  std::uint64_t cycles_before = 0;
  std::uint64_t retired_before = 0;
  std::uint64_t sb_retired_before = 0;
  for (const cpu::Core* core : running) {
    cycles_before += core->now();
    retired_before += core->instructions_retired();
    sb_retired_before += core->superblock_retired();
  }

  while (!running.empty()) {
    Cycle window = running.front()->now();
    for (cpu::Core* core : running) window = std::min(window, core->now());
    // Saturating: a quantum near 2^64 must not wrap the window end below
    // the core clocks (no core would ever advance).
    const Cycle q_end = config.quantum > kMaxCycle - window
                            ? kMaxCycle
                            : window + config.quantum;

    if (running.size() == 1) {
      // One runnable core: program order *is* canonical commit order, so
      // the segment/commit machinery adds nothing — run straight to the
      // quantum edge. The step stream is identical to the segmented path
      // (a declined Try* access changes no state). RunQuantum routes
      // through the superblock executor when a translation cache is
      // attached (fabric-bound steps commit inline).
      running.front()->RunQuantum(q_end);
    } else {
      RunCommitRounds(m, running, q_end, counters);
    }
    ++counters.quanta;
    if (obs::TraceSink* trace = m.trace()) {
      // The cycles the window actually covered: up to the furthest core
      // clock, capped at the window end (a final stall may overshoot it).
      Cycle reached = window;
      for (const cpu::Core* core : running) {
        reached = std::max(reached, core->now());
      }
      trace->Complete(m.trace_pid(), m.trace_engine_tid(), "engine",
                      "quantum", window, std::min(reached, q_end) - window);
    }

    // Round tasks (deferred sample delivery into COBRA, whose optimizer
    // may patch the binary) run at quantum boundaries, not at commit
    // barriers: a core pending on a fabric access is parked at a
    // phase-locked mid-bundle pc (always the same spot in a one-bundle
    // loop), which would permanently fail the optimizer's patch-quiesce
    // check. At a quantum edge the stop position varies with the window
    // phase, as it did under instruction-interleaved delivery.
    m.RunRoundTasks();

    std::erase_if(running, [](cpu::Core* core) { return core->halted(); });
  }

  for (CpuId cpu : active) {
    const cpu::Core& core = m.core(cpu);
    delta.sim_cycles += core.now();
    delta.retired += core.instructions_retired();
    delta.sb_retired += core.superblock_retired();
  }
  delta.sim_cycles -= cycles_before;
  delta.retired -= retired_before;
  delta.sb_retired -= sb_retired_before;
  delta.wall_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - host_start)
          .count());
  m.AccumulateHostPerf(delta);
}

EngineConfig ParseEngineSpec(std::string_view spec) {
  EngineConfig config;
  if (const auto at = spec.find('@'); at != std::string_view::npos) {
    config.quantum = ParseQuantum(spec.substr(at + 1));
    spec = spec.substr(0, at);
  }
  COBRA_CHECK_MSG(spec.empty() || spec == "serial", kSpecGrammar);
  return config;
}

std::string FormatEngineSpec(const EngineConfig& config) {
  if (config.quantum == EngineConfig{}.quantum) return "serial";
  return "serial@" + std::to_string(config.quantum);
}

EngineConfig EngineConfigFromEnv() {
  const char* spec = std::getenv("COBRA_ENGINE");
  if (spec == nullptr || *spec == '\0') return EngineConfig{};
  return ParseEngineSpec(spec);
}

}  // namespace cobra::machine
