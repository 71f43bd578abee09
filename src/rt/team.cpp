#include "rt/team.h"

#include <algorithm>
#include <string>

#include "support/check.h"
#include "verify/coherence_checker.h"

namespace cobra::rt {

IndexRange StaticChunk(int tid, int num_threads, std::int64_t n) {
  COBRA_CHECK(num_threads >= 1 && tid >= 0 && tid < num_threads);
  const std::int64_t base = n / num_threads;
  const std::int64_t rem = n % num_threads;
  const std::int64_t begin =
      static_cast<std::int64_t>(tid) * base + std::min<std::int64_t>(tid, rem);
  const std::int64_t len = base + (tid < rem ? 1 : 0);
  return IndexRange{begin, begin + len};
}

Team::Team(machine::Machine* machine, int num_threads,
           const machine::EngineConfig& engine)
    : machine_(machine),
      num_threads_(num_threads),
      engine_(engine) {
  COBRA_CHECK(machine != nullptr);
  COBRA_CHECK_MSG(num_threads >= 1 && num_threads <= machine->num_cpus(),
                  "team larger than the machine");
}

Cycle Team::Run(isa::Addr entry,
                const std::function<void(int, cpu::RegisterFile&)>& setup) {
  // When the coherence checker is live and no harness (e.g. the fuzzer)
  // has already set a replay context, tag aborts with the engine and team
  // shape so a violation in an ordinary test run is still diagnosable.
  const bool tag_context = machine_->checker() != nullptr &&
                           verify::FailureContext().empty();
  if (tag_context) {
    verify::SetFailureContext("team run: engine=" +
                              machine::FormatEngineSpec(engine_) +
                              " threads=" + std::to_string(num_threads_));
  }

  // Fork barrier: all participating cores start at the same instant.
  machine_->SyncCores();
  const Cycle start = machine_->GlobalTime();

  std::vector<CpuId> active;
  for (int tid = 0; tid < num_threads_; ++tid) {
    cpu::Core& core = machine_->core(tid);
    core.set_now(start);
    core.regs().Reset();
    if (setup) setup(tid, core.regs());
    core.Start(entry);
    active.push_back(tid);
  }

  machine::Run(*machine_, active, engine_);

  // Join barrier.
  machine_->SyncCores();
  if (tag_context) verify::SetFailureContext("");
  return machine_->GlobalTime() - start;
}

}  // namespace cobra::rt
