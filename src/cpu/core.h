// In-order MIA-64 core: functional interpreter + cycle-approximate timing.
//
// Timing model (uniform across all code versions, which is what the
// paper's comparisons require):
//   * one cycle per bundle issued (the interpreter charges it when it
//     executes slot 0);
//   * loads and stores additionally stall the core for the latency the
//     cache stack reports (misses expose full memory/coherence latency;
//     an in-flight prefetched line stalls only for the remainder);
//   * lfetch never stalls (non-binding), but its bus traffic delays
//     everyone through fabric occupancy;
//   * taken branches cost one extra cycle.
//
// The core implements HpmSource by combining its own retire/cycle counts
// with its cache stack's statistics and its per-CPU fabric event counts, so
// the Hpm/Btb/Dear models observe exactly what the hardware would.
#pragma once

#include <functional>

#include "cpu/hpm.h"
#include "cpu/regfile.h"
#include "isa/exec_plan.h"
#include "isa/image.h"
#include "mem/cache_stack.h"
#include "mem/coherence.h"
#include "mem/main_memory.h"
#include "support/simtypes.h"

namespace cobra::verify {
class CoherenceChecker;
}

namespace cobra::tjit {
class TranslationCache;
struct Superblock;
}

namespace cobra::cpu {

// Defined in core.cpp: the per-opcode handler table the execute path
// dispatches through (friend of Core so handlers touch core state directly).
struct ExecOps;

// Observes every taken branch with the core's retire count, the raw feed
// the BBV phase profiler builds per-interval basic-block vectors from
// (block weight = instructions retired since the previous taken branch).
class BlockProfiler {
 public:
  virtual ~BlockProfiler() = default;
  virtual void OnTakenBranch(CpuId cpu, isa::Addr target,
                             std::uint64_t retired) = 0;
};

class Core final : public HpmSource {
 public:
  Core(CpuId id, isa::BinaryImage* image, mem::MainMemory* memory,
       mem::CacheStack* stack, const mem::CoherenceFabric* fabric);

  CpuId id() const { return id_; }

  // Attaches the coherence checker's golden memory oracle: every load's
  // returned value is diffed against it, every store is applied to it, and
  // the per-line settled invariants are re-checked after each memory op.
  void AttachChecker(verify::CoherenceChecker* checker) {
    checker_ = checker;
  }

  // Observes every architecturally performed data-memory access (load,
  // store, lfetch — dropped out-of-range lfetches included) as
  // (pc, address), exactly once per op on every execution path;
  // predicated-off slots never fire. The scalar-evolution differential
  // harness replays these streams against the static stride claims.
  using MemObserver = std::function<void(isa::Addr pc, isa::Addr addr)>;
  void SetMemObserver(MemObserver observer) {
    mem_observer_ = std::move(observer);
  }

  // --- Control --------------------------------------------------------------
  // Unhalts the core and begins execution at `entry` (bundle-aligned).
  void Start(isa::Addr entry);
  bool halted() const { return halted_; }
  isa::Addr pc() const { return pc_; }

  Cycle now() const { return now_; }
  void set_now(Cycle t) { now_ = t; }

  // Executes exactly one instruction (abort if halted).
  void Step();

  // Segment hot loop for the execution engine: steps until the core halts,
  // leaves the quantum window, or its next step would issue a coherence
  // fabric transaction. Memory steps go through the cache stack's fused
  // Try* accesses, which decide fabric need and, when the access stays
  // core-private, perform it in one pass; a fabric-bound step is left
  // uncommitted (the pc stays on it) for the engine to commit with Step()
  // in canonical (cycle, cpu-id) order while all other cores are
  // quiescent. The result is step-for-step identical to Step(). The caller
  // is expected to hold the cache stack's fabric guard. With a translation
  // cache attached (AttachTjit), hot traces run through compiled
  // superblocks instead of the interpreter, with identical simulated
  // effects.
  void RunSegment(Cycle q_end);

  // Full quantum window for a single runnable core (no segmentation
  // needed: program order is canonical commit order). Equivalent to
  //   while (!halted() && now() < q_end) Step();
  // but routes through RunSegment so the superblock executor and fused
  // cache accesses are used; fabric-bound steps execute inline.
  void RunQuantum(Cycle q_end);

  // --- Trace JIT -------------------------------------------------------------
  // Attaches this core's translation cache (owned by the Machine; nullptr
  // detaches). See tjit/tcache.h for the invalidation contract.
  void AttachTjit(tjit::TranslationCache* tc) {
    tjit_ = tc;
    resume_sb_ = nullptr;
  }
  tjit::TranslationCache* tjit() { return tjit_; }
  // Instructions retired inside the superblock executor (host-side
  // accounting; a subset of instructions_retired()).
  std::uint64_t superblock_retired() const { return tjit_retired_; }

  // --- State ------------------------------------------------------------------
  RegisterFile& regs() { return regs_; }
  const RegisterFile& regs() const { return regs_; }
  Hpm& hpm() { return hpm_; }
  Btb& btb() { return btb_; }
  const Btb& btb() const { return btb_; }
  Dear& dear() { return dear_; }
  const Dear& dear() const { return dear_; }
  mem::CacheStack& stack() { return *stack_; }

  std::uint64_t instructions_retired() const { return retired_; }
  std::uint64_t lfetches_dropped() const { return lfetches_dropped_; }

  // --- Sampling hook (perfmon driver) ----------------------------------------
  // Invokes `hook` every `period_insts` retired instructions. A period of 0
  // disables sampling.
  void SetRetireHook(std::uint64_t period_insts,
                     std::function<void(Core&)> hook);

  // --- BBV profiling ---------------------------------------------------------
  // Attaches the basic-block-vector profiler (nullptr detaches). No fast
  // path skips it: branches execute through DoBranchPlan/TakeBranch on the
  // interpreter, fused and superblock paths alike.
  void SetBlockProfiler(BlockProfiler* profiler) { bbv_ = profiler; }

  // --- Fast-forward mode -----------------------------------------------------
  // Functional-only execution: architectural effects (registers, memory,
  // pc, retire counts and hooks) are exact, but loads/stores/lfetches skip
  // the cache stack and coherence fabric entirely — no hit/miss stats, no
  // DEAR observations, no stall cycles, no bus occupancy. Time advances by
  // issue and branch charges only. Switch only at quantum boundaries (via
  // a round task): mid-segment mode flips would tear the timing model.
  void SetFastForward(bool on) { fast_forward_ = on; }
  bool fast_forward() const { return fast_forward_; }

  // --- Checkpointing ---------------------------------------------------------
  // Architectural + timing state (registers, HPM/BTB/DEAR, pc, clock,
  // retire/sample counters). Host-side execution hints (superblock resume
  // state) are dropped: the tjit re-enters traces naturally. The retire
  // hook closure itself is not serialized — restore into a machine whose
  // runtime has already re-attached (AttachAll) and the restored
  // sample_period_/until_sample_ counters resume the saved cadence.
  bool Checkpoint(support::StateIO& io);

  // --- HpmSource ---------------------------------------------------------------
  std::uint64_t RawEventValue(HpmEvent event) const override;

 private:
  friend struct ExecOps;

  // Executes one instruction from its plan: routes branches and memory ops
  // on the classification bits, squashes on a false qualifying predicate,
  // and dispatches everything else through the ExecOps handler table.
  void ExecutePlan(const isa::ExecPlan& plan);
  // Issue cost: Itanium 2 issues `issue_width_bundles` bundles per cycle;
  // charged at slot 0 (branch targets are bundle-aligned, so every executed
  // bundle passes through slot 0).
  void ChargeIssue() { ChargeIssueFor(isa::SlotOf(pc_) == 0); }
  // Same charge with the slot-0 test precomputed (superblock steps carry
  // it; the fused memory path needs it before the pc advances).
  void ChargeIssueFor(bool slot0) {
    if (slot0) {
      if (++bundle_credit_ >= issue_width_) {
        bundle_credit_ = 0;
        ++now_;
      }
    }
  }
  void RetireTail() {
    ++retired_;
    if (sample_period_ != 0 && --until_sample_ == 0) {
      until_sample_ = sample_period_;
      sample_hook_(*this);
    }
  }
  void AdvancePc() {
    const unsigned slot = isa::SlotOf(pc_);
    pc_ = slot < 2 ? pc_ + 1 : isa::BundleAddr(pc_) + isa::kBundleBytes;
  }
  void TakeBranch(isa::Addr target, bool loop_branch);
  void DoMemoryOpPlan(const isa::ExecPlan& plan, isa::Addr addr);
  void DoBranchPlan(const isa::ExecPlan& plan);

  // Fused decision + memory access for a segment: decides fabric need with
  // the cache stack's Try* accesses and, when fabric-free, performs the
  // access exactly like ChargeIssue + DoMemoryOpPlan. Returns false with
  // no simulated side effects when the step must stop the segment; the
  // issue cycle is charged only on success (the access time is computed
  // as if it had been). Does not advance the pc. TryMemoryOp picks the
  // instantiation once per op: kHooks adds the checker and memory-observer
  // calls and the fast-forward commit, so the common instantiation carries
  // no per-op hook tests.
  bool TryMemoryOp(const isa::ExecPlan& plan, isa::Addr addr, bool slot0);
  template <bool kHooks>
  bool TryMemoryOpPlan(const isa::ExecPlan& plan, isa::Addr addr, bool slot0);

  // Tjit-enabled segment loop: interpreter with loop-edge harvesting, the
  // superblock executor, and exit chaining (see docs/DISPATCH.md).
  void RunSegmentTjit(Cycle q_end);
  // Runs superblocks starting at (sb, idx) until a side exit (returns
  // false; the interpreter continues at pc()) or a fabric/quantum stop
  // (returns true; the segment ends, with a resume hint saved so the next
  // segment re-enters the block mid-trace).
  bool RunSuperblocks(tjit::Superblock* sb, std::uint32_t idx, Cycle q_end);
  bool ExecSuperblockLoop(tjit::Superblock* sb, std::uint32_t idx,
                          Cycle q_end);

  CpuId id_;
  isa::BinaryImage* image_;
  mem::MainMemory* memory_;
  mem::CacheStack* stack_;
  const mem::CoherenceFabric* fabric_;
  verify::CoherenceChecker* checker_ = nullptr;  // null unless verifying
  MemObserver mem_observer_;  // empty unless a harness is watching
  BlockProfiler* bbv_ = nullptr;  // null unless phase-profiling
  bool fast_forward_ = false;
  // Immutable timing parameters hoisted out of MemConfig (const after
  // CacheStack construction) so the per-instruction path avoids the
  // pointer chase.
  int issue_width_;
  Cycle load_hide_;

  RegisterFile regs_;
  Hpm hpm_;
  Btb btb_;
  Dear dear_;

  isa::Addr pc_ = 0;
  bool halted_ = true;
  int bundle_credit_ = 0;
  Cycle now_ = 0;
  std::uint64_t retired_ = 0;
  std::uint64_t lfetches_dropped_ = 0;

  std::uint64_t sample_period_ = 0;
  std::uint64_t until_sample_ = 0;
  std::function<void(Core&)> sample_hook_;

  // --- Trace JIT -------------------------------------------------------------
  tjit::TranslationCache* tjit_ = nullptr;  // null: pure interpreter
  // Resume hint: where to re-enter the last superblock after a fabric
  // commit or quantum edge split it. Consumed (and cleared) at the next
  // segment start; validated by pc match and dropped whenever the cache
  // flushes, so it can never point into a destroyed block.
  tjit::Superblock* resume_sb_ = nullptr;
  std::uint32_t resume_idx_ = 0;
  isa::Addr resume_pc_ = 0;
  std::uint64_t tjit_retired_ = 0;
};

}  // namespace cobra::cpu
