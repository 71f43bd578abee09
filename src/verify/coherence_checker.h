// Online coherence/consistency checker: a decorator around the machine's
// CoherenceFabric that validates every transaction against the active
// protocol's invariants (MESI, MOESI, Dragon or MESIF — taken from the
// attached stacks' CoherencePolicy), plus a golden memory oracle that
// shadows the functional memory in commit order.
//
// The checker sits between the cache stacks and the real fabric (snooping
// bus or NUMA directory): stacks issue requests to the checker, which
// captures the pre-transaction line states of every stack, forwards the
// request, and then asserts that the snoop outcome, the granted state and
// the post-transaction states of all other caches are consistent with what
// it observed. After the requesting memory operation finishes (the line is
// installed), per-line *settled* invariants are re-checked:
//
//   * single-writer / multiple-reader: at most one M/E copy of a line
//     system-wide, and an M/E copy excludes every other copy;
//   * protocol-state: every resident state is legal under the active
//     protocol (no O outside MOESI, no F outside MESIF, ...);
//   * single-owner-of-dirty (MOESI): at most one dirty (M/O/Sm) copy;
//   * exactly-one-forwarder (MESIF): at most one F copy system-wide;
//   * update-delivery / no-stale-copy (Dragon): at most one Sm copy, and
//     every copy surviving a BusUpd is clean-shared (Sc) — an M/E copy
//     coexisting with others means an update broadcast was missed;
//   * protocol-op: invalidation transactions (RFO, upgrade) never appear
//     under an update-based protocol, and BusUpd never appears under an
//     invalidation protocol;
//   * intra-stack lockstep: an L2 copy carries the same coherence state as
//     the L3 copy (inclusion keeps them paired), and L1 presence implies
//     L3 presence;
//   * directory exactness (NUMA only): the home directory's sharer vector
//     is exactly the set of stacks holding the line, and its owner field
//     is exactly the unique *responsible* holder (M/E, plus MOESI's O,
//     MESIF's F, Dragon's Sm), or -1.
//
// The golden oracle is a flat byte array updated by every store at commit
// order. Every load's returned value is diffed against it, and every dirty
// writeback (plus a full sweep at run end) re-checks that the functional
// memory and the oracle agree — any lost or misordered store in a parallel
// engine run shows up as a byte diff.
//
// All violations abort with a diagnostic naming the invariant, the line
// address, every CPU's state and — if SetFailureContext was called (the
// fuzz harness does) — the seed/machine/engine spec needed to replay.
//
// The checker is a pure observer of timing state: enabling it must not
// change a single simulated cycle or counter, only validate them.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "mem/cache_stack.h"
#include "mem/coherence.h"
#include "mem/directory.h"
#include "mem/main_memory.h"
#include "support/simtypes.h"

namespace cobra::verify {

// Replay hint printed by every checker abort (e.g. "fuzz seed=17
// machine=smp4 engine=serial@256 — rerun with COBRA_FUZZ_SEED=17").
// Empty clears it. One per host thread: a machine is driven by the thread
// that set the hint, and machines on other threads keep their own.
void SetFailureContext(std::string context);
const std::string& FailureContext();

class CoherenceChecker final : public mem::CoherenceFabric {
 public:
  struct Options {
    // Run the full-system sweep every Nth quantum boundary. The
    // per-transaction and per-op settled checks are always on; the sweep
    // re-validates *every* resident line, which is too expensive to do at
    // every quantum. A final sweep always runs when the engine exits.
    int sweep_every = 7;
  };

  // `inner` is the real fabric; `directory` is the same object when the
  // machine is a NUMA directory fabric (nullptr on the snooping bus).
  // The checker does not own any of them.
  CoherenceChecker(mem::MainMemory* memory, mem::CoherenceFabric* inner,
                   const mem::DirectoryFabric* directory, Options opts);
  CoherenceChecker(mem::MainMemory* memory, mem::CoherenceFabric* inner,
                   const mem::DirectoryFabric* directory)
      : CoherenceChecker(memory, inner, directory, Options{}) {}

  // --- CoherenceFabric (the stacks talk to the checker) ---------------------
  mem::FabricResult Request(CpuId cpu, mem::BusOp op, mem::Addr line_addr,
                            Cycle now) override;
  void AttachStacks(std::vector<mem::CacheStack*> stacks) override;
  void EvictNotify(CpuId cpu, mem::Addr line_addr) override;
  const mem::BusEventCounts& TotalCounts() const override {
    return inner_->TotalCounts();
  }
  const mem::BusEventCounts& CpuCounts(CpuId cpu) const override {
    return inner_->CpuCounts(cpu);
  }
  void ResetCounts() override { inner_->ResetCounts(); }

  // Checkpointing: the blob carries the real fabric's state; the oracle's
  // shadow re-snapshots from the (already restored) functional memory, and
  // the host-side verification counters intentionally start fresh.
  bool Checkpoint(support::StateIO& io) override {
    if (!inner_->Checkpoint(io)) return false;
    if (io.loading()) SyncShadow();
    return true;
  }

  // --- Golden memory oracle (called by cpu::Core at commit order) -----------
  // `value` is the raw value the core observed/wrote (zero-extended for
  // sub-8-byte accesses, the bit pattern for FP accesses).
  void OnLoad(CpuId cpu, mem::Addr addr, int size, std::uint64_t value);
  void OnStore(CpuId cpu, mem::Addr addr, int size, std::uint64_t value);
  // Called at the end of every memory operation: re-checks the settled
  // invariants for each line the operation's fabric traffic touched.
  void OnOpSettled(CpuId cpu);

  // --- Machine integration ---------------------------------------------------
  void OnRunBegin();    // engine starting: snapshot memory into the oracle
  void OnRunEnd();      // engine idle again: full sweep + full memory diff
  void OnRoundTasks();  // quantum boundary: throttled full sweep
  void OnResetTiming();

  // --- Direct validation (also used by the fault-injection tests) -----------
  void CheckAll();                            // every resident line + directory
  void CheckLineSettled(mem::Addr line_addr); // one line's settled invariants
  void SyncShadow();                          // re-snapshot functional memory
  // Diffs oracle vs functional memory over [addr, addr+bytes).
  void DiffShadow(mem::Addr addr, std::size_t bytes, const char* what);

  struct Stats {
    std::uint64_t transactions = 0;   // fabric requests checked
    std::uint64_t loads = 0;          // load values diffed against the oracle
    std::uint64_t stores = 0;         // stores applied to the oracle
    std::uint64_t lines_settled = 0;  // per-line settled re-checks
    std::uint64_t sweeps = 0;         // full-system sweeps
  };
  Stats stats() const;

 private:
  [[noreturn]] void Fail(const char* invariant, mem::Addr line_addr,
                         const std::string& detail) const;
  std::string DescribeLine(mem::Addr line_addr) const;
  void Journal(mem::Addr line_addr);

  mem::MainMemory* memory_;
  mem::CoherenceFabric* inner_;
  const mem::DirectoryFabric* dir_;  // nullptr on the snooping bus
  Options opts_;
  std::vector<mem::CacheStack*> stacks_;
  // Active protocol, taken from the attached stacks (MESI until attach).
  const mem::CoherencePolicy* policy_ =
      &mem::CoherencePolicy::For(mem::Protocol::kMesi);
  std::size_t line_bytes_ = 128;
  std::size_t l1_line_bytes_ = 64;

  std::vector<std::uint8_t> shadow_;

  // Lines touched by the in-flight memory operation's fabric traffic.
  static constexpr int kJournalCap = 64;
  std::array<mem::Addr, kJournalCap> journal_{};
  int journal_size_ = 0;

  // Per-CPU oracle counters.
  struct PerCpuStats {
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
  };
  std::vector<PerCpuStats> per_cpu_;

  std::uint64_t transactions_ = 0;
  std::uint64_t lines_settled_ = 0;
  std::uint64_t sweeps_ = 0;
  std::uint64_t barriers_seen_ = 0;
};

}  // namespace cobra::verify
