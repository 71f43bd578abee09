#include "cpu/core.h"

#include <array>
#include <bit>
#include <cmath>

#include "support/check.h"
#include "tjit/superblock.h"
#include "tjit/tcache.h"
#include "verify/coherence_checker.h"

namespace cobra::cpu {

using isa::Addr;
using isa::ExecPlan;
using isa::Opcode;

namespace {

bool CmpEval(isa::CmpRel rel, std::uint64_t a, std::uint64_t b) {
  const auto sa = static_cast<std::int64_t>(a);
  const auto sb = static_cast<std::int64_t>(b);
  switch (rel) {
    case isa::CmpRel::kEq: return a == b;
    case isa::CmpRel::kNe: return a != b;
    case isa::CmpRel::kLt: return sa < sb;
    case isa::CmpRel::kLe: return sa <= sb;
    case isa::CmpRel::kGt: return sa > sb;
    case isa::CmpRel::kGe: return sa >= sb;
    case isa::CmpRel::kLtu: return a < b;
    case isa::CmpRel::kGeu: return a >= b;
  }
  COBRA_UNREACHABLE("bad cmp relation");
}

bool FCmpEval(isa::FCmpRel rel, double a, double b) {
  switch (rel) {
    case isa::FCmpRel::kEq: return a == b;
    case isa::FCmpRel::kNe: return a != b;
    case isa::FCmpRel::kLt: return a < b;
    case isa::FCmpRel::kLe: return a <= b;
    case isa::FCmpRel::kGt: return a > b;
    case isa::FCmpRel::kGe: return a >= b;
  }
  COBRA_UNREACHABLE("bad fcmp relation");
}

}  // namespace

// Per-opcode execute handlers. Each handler performs the instruction's
// architectural effect and advances the pc itself (kBreak leaves the pc at
// the break). Branch and memory opcodes never reach this table — ExecutePlan
// routes them on the classification bits first — so their entries (and the
// stale-plan sentinel) abort.
struct ExecOps {
  using Handler = void (*)(Core&, const ExecPlan&);

  static void Bad(Core&, const ExecPlan&) {
    COBRA_UNREACHABLE("plan dispatch reached a non-ALU or stale handler");
  }

  static void Nop(Core& c, const ExecPlan&) { c.AdvancePc(); }
  static void Break(Core& c, const ExecPlan&) {
    c.halted_ = true;  // pc stays at the break
  }

  static void AddReg(Core& c, const ExecPlan& p) {
    c.regs_.WriteGr(p.r1, c.regs_.ReadGr(p.r2) + c.regs_.ReadGr(p.r3));
    c.AdvancePc();
  }
  static void SubReg(Core& c, const ExecPlan& p) {
    c.regs_.WriteGr(p.r1, c.regs_.ReadGr(p.r2) - c.regs_.ReadGr(p.r3));
    c.AdvancePc();
  }
  static void AddImm(Core& c, const ExecPlan& p) {
    c.regs_.WriteGr(p.r1, c.regs_.ReadGr(p.r2) +
                              static_cast<std::uint64_t>(p.imm));
    c.AdvancePc();
  }
  static void ShlAdd(Core& c, const ExecPlan& p) {
    c.regs_.WriteGr(p.r1,
                    (c.regs_.ReadGr(p.r2) << p.imm) + c.regs_.ReadGr(p.r3));
    c.AdvancePc();
  }
  static void And(Core& c, const ExecPlan& p) {
    c.regs_.WriteGr(p.r1, c.regs_.ReadGr(p.r2) & c.regs_.ReadGr(p.r3));
    c.AdvancePc();
  }
  static void Or(Core& c, const ExecPlan& p) {
    c.regs_.WriteGr(p.r1, c.regs_.ReadGr(p.r2) | c.regs_.ReadGr(p.r3));
    c.AdvancePc();
  }
  static void Xor(Core& c, const ExecPlan& p) {
    c.regs_.WriteGr(p.r1, c.regs_.ReadGr(p.r2) ^ c.regs_.ReadGr(p.r3));
    c.AdvancePc();
  }
  static void AndImm(Core& c, const ExecPlan& p) {
    c.regs_.WriteGr(p.r1, c.regs_.ReadGr(p.r2) &
                              static_cast<std::uint64_t>(p.imm));
    c.AdvancePc();
  }
  static void OrImm(Core& c, const ExecPlan& p) {
    c.regs_.WriteGr(p.r1, c.regs_.ReadGr(p.r2) |
                              static_cast<std::uint64_t>(p.imm));
    c.AdvancePc();
  }
  static void ShlImm(Core& c, const ExecPlan& p) {
    c.regs_.WriteGr(p.r1, c.regs_.ReadGr(p.r2) << p.imm);
    c.AdvancePc();
  }
  static void ShrImm(Core& c, const ExecPlan& p) {
    c.regs_.WriteGr(p.r1, c.regs_.ReadGr(p.r2) >> p.imm);
    c.AdvancePc();
  }
  static void SarImm(Core& c, const ExecPlan& p) {
    c.regs_.WriteGr(p.r1,
                    static_cast<std::uint64_t>(
                        static_cast<std::int64_t>(c.regs_.ReadGr(p.r2)) >>
                        p.imm));
    c.AdvancePc();
  }
  static void MovImm(Core& c, const ExecPlan& p) {
    c.regs_.WriteGr(p.r1, static_cast<std::uint64_t>(p.imm));
    c.AdvancePc();
  }
  static void MovReg(Core& c, const ExecPlan& p) {
    c.regs_.WriteGr(p.r1, c.regs_.ReadGr(p.r2));
    c.AdvancePc();
  }
  static void Sxt4(Core& c, const ExecPlan& p) {
    c.regs_.WriteGr(p.r1,
                    static_cast<std::uint64_t>(static_cast<std::int64_t>(
                        static_cast<std::int32_t>(c.regs_.ReadGr(p.r2)))));
    c.AdvancePc();
  }
  static void Zxt4(Core& c, const ExecPlan& p) {
    c.regs_.WriteGr(p.r1, c.regs_.ReadGr(p.r2) & 0xffffffffULL);
    c.AdvancePc();
  }
  static void Cmp(Core& c, const ExecPlan& p) {
    const bool t = CmpEval(static_cast<isa::CmpRel>(p.aux),
                           c.regs_.ReadGr(p.r2), c.regs_.ReadGr(p.r3));
    c.regs_.WritePr(p.p1, t);
    if (p.p2 != 0) c.regs_.WritePr(p.p2, !t);
    c.AdvancePc();
  }
  static void CmpImm(Core& c, const ExecPlan& p) {
    const bool t =
        CmpEval(static_cast<isa::CmpRel>(p.aux), c.regs_.ReadGr(p.r2),
                static_cast<std::uint64_t>(p.imm));
    c.regs_.WritePr(p.p1, t);
    if (p.p2 != 0) c.regs_.WritePr(p.p2, !t);
    c.AdvancePc();
  }

  static void MovToAr(Core& c, const ExecPlan& p) {
    if (static_cast<isa::AppReg>(p.imm) == isa::AppReg::kLC) {
      c.regs_.set_lc(c.regs_.ReadGr(p.r2));
    } else {
      c.regs_.set_ec(c.regs_.ReadGr(p.r2));
    }
    c.AdvancePc();
  }
  static void MovFromAr(Core& c, const ExecPlan& p) {
    c.regs_.WriteGr(p.r1, static_cast<isa::AppReg>(p.imm) == isa::AppReg::kLC
                              ? c.regs_.lc()
                              : c.regs_.ec());
    c.AdvancePc();
  }
  static void MovToPrRot(Core& c, const ExecPlan& p) {
    c.regs_.SetRotatingPredicates(static_cast<std::uint64_t>(p.imm));
    c.AdvancePc();
  }
  static void ClrRrb(Core& c, const ExecPlan&) {
    c.regs_.ClearRrb();
    c.AdvancePc();
  }

  // IA-64 fma.d and friends are *fused*: a single rounding.
  static void Fma(Core& c, const ExecPlan& p) {
    c.regs_.WriteFr(p.r1, std::fma(c.regs_.ReadFr(p.r2), c.regs_.ReadFr(p.r3),
                                   c.regs_.ReadFr(p.extra)));
    c.AdvancePc();
  }
  static void Fms(Core& c, const ExecPlan& p) {
    c.regs_.WriteFr(p.r1, std::fma(c.regs_.ReadFr(p.r2), c.regs_.ReadFr(p.r3),
                                   -c.regs_.ReadFr(p.extra)));
    c.AdvancePc();
  }
  static void Fnma(Core& c, const ExecPlan& p) {
    c.regs_.WriteFr(p.r1, std::fma(-c.regs_.ReadFr(p.r2), c.regs_.ReadFr(p.r3),
                                   c.regs_.ReadFr(p.extra)));
    c.AdvancePc();
  }
  static void Fmov(Core& c, const ExecPlan& p) {
    c.regs_.WriteFr(p.r1, c.regs_.ReadFr(p.r2));
    c.AdvancePc();
  }
  static void Fneg(Core& c, const ExecPlan& p) {
    c.regs_.WriteFr(p.r1, -c.regs_.ReadFr(p.r2));
    c.AdvancePc();
  }
  static void Fabs(Core& c, const ExecPlan& p) {
    c.regs_.WriteFr(p.r1, std::fabs(c.regs_.ReadFr(p.r2)));
    c.AdvancePc();
  }
  static void Frcpa(Core& c, const ExecPlan& p) {
    c.regs_.WriteFr(p.r1, 1.0 / c.regs_.ReadFr(p.r2));
    c.AdvancePc();
  }
  static void Fsqrt(Core& c, const ExecPlan& p) {
    c.regs_.WriteFr(p.r1, std::sqrt(c.regs_.ReadFr(p.r2)));
    c.AdvancePc();
  }
  static void Fmin(Core& c, const ExecPlan& p) {
    c.regs_.WriteFr(p.r1,
                    std::fmin(c.regs_.ReadFr(p.r2), c.regs_.ReadFr(p.r3)));
    c.AdvancePc();
  }
  static void Fmax(Core& c, const ExecPlan& p) {
    c.regs_.WriteFr(p.r1,
                    std::fmax(c.regs_.ReadFr(p.r2), c.regs_.ReadFr(p.r3)));
    c.AdvancePc();
  }
  static void Fcmp(Core& c, const ExecPlan& p) {
    const bool t = FCmpEval(static_cast<isa::FCmpRel>(p.aux),
                            c.regs_.ReadFr(p.r2), c.regs_.ReadFr(p.r3));
    c.regs_.WritePr(p.p1, t);
    if (p.p2 != 0) c.regs_.WritePr(p.p2, !t);
    c.AdvancePc();
  }
  static void Setf(Core& c, const ExecPlan& p) {
    c.regs_.WriteFr(p.r1, std::bit_cast<double>(c.regs_.ReadGr(p.r2)));
    c.AdvancePc();
  }
  static void Getf(Core& c, const ExecPlan& p) {
    c.regs_.WriteGr(p.r1, std::bit_cast<std::uint64_t>(c.regs_.ReadFr(p.r2)));
    c.AdvancePc();
  }
  static void FcvtFx(Core& c, const ExecPlan& p) {
    // Truncate toward zero (value kept in the FR as a double; see DESIGN).
    c.regs_.WriteFr(p.r1, std::trunc(c.regs_.ReadFr(p.r2)));
    c.AdvancePc();
  }
  static void FcvtXf(Core& c, const ExecPlan& p) {
    c.regs_.WriteFr(p.r1, c.regs_.ReadFr(p.r2));
    c.AdvancePc();
  }
};

namespace {

constexpr std::size_t Idx(Opcode op) { return static_cast<std::size_t>(op); }

constexpr std::array<ExecOps::Handler, isa::kNumPlanHandlers> MakePlanTable() {
  std::array<ExecOps::Handler, isa::kNumPlanHandlers> t{};
  for (auto& h : t) h = &ExecOps::Bad;
  t[Idx(Opcode::kNop)] = &ExecOps::Nop;
  t[Idx(Opcode::kBreak)] = &ExecOps::Break;
  t[Idx(Opcode::kAddReg)] = &ExecOps::AddReg;
  t[Idx(Opcode::kSubReg)] = &ExecOps::SubReg;
  t[Idx(Opcode::kAddImm)] = &ExecOps::AddImm;
  t[Idx(Opcode::kShlAdd)] = &ExecOps::ShlAdd;
  t[Idx(Opcode::kAnd)] = &ExecOps::And;
  t[Idx(Opcode::kOr)] = &ExecOps::Or;
  t[Idx(Opcode::kXor)] = &ExecOps::Xor;
  t[Idx(Opcode::kAndImm)] = &ExecOps::AndImm;
  t[Idx(Opcode::kOrImm)] = &ExecOps::OrImm;
  t[Idx(Opcode::kShlImm)] = &ExecOps::ShlImm;
  t[Idx(Opcode::kShrImm)] = &ExecOps::ShrImm;
  t[Idx(Opcode::kSarImm)] = &ExecOps::SarImm;
  t[Idx(Opcode::kMovImm)] = &ExecOps::MovImm;
  t[Idx(Opcode::kMovReg)] = &ExecOps::MovReg;
  t[Idx(Opcode::kSxt4)] = &ExecOps::Sxt4;
  t[Idx(Opcode::kZxt4)] = &ExecOps::Zxt4;
  t[Idx(Opcode::kCmp)] = &ExecOps::Cmp;
  t[Idx(Opcode::kCmpImm)] = &ExecOps::CmpImm;
  t[Idx(Opcode::kMovToAr)] = &ExecOps::MovToAr;
  t[Idx(Opcode::kMovFromAr)] = &ExecOps::MovFromAr;
  t[Idx(Opcode::kMovToPrRot)] = &ExecOps::MovToPrRot;
  t[Idx(Opcode::kClrRrb)] = &ExecOps::ClrRrb;
  t[Idx(Opcode::kFma)] = &ExecOps::Fma;
  t[Idx(Opcode::kFms)] = &ExecOps::Fms;
  t[Idx(Opcode::kFnma)] = &ExecOps::Fnma;
  t[Idx(Opcode::kFmov)] = &ExecOps::Fmov;
  t[Idx(Opcode::kFneg)] = &ExecOps::Fneg;
  t[Idx(Opcode::kFabs)] = &ExecOps::Fabs;
  t[Idx(Opcode::kFrcpa)] = &ExecOps::Frcpa;
  t[Idx(Opcode::kFsqrt)] = &ExecOps::Fsqrt;
  t[Idx(Opcode::kFmin)] = &ExecOps::Fmin;
  t[Idx(Opcode::kFmax)] = &ExecOps::Fmax;
  t[Idx(Opcode::kFcmp)] = &ExecOps::Fcmp;
  t[Idx(Opcode::kSetf)] = &ExecOps::Setf;
  t[Idx(Opcode::kGetf)] = &ExecOps::Getf;
  t[Idx(Opcode::kFcvtFx)] = &ExecOps::FcvtFx;
  t[Idx(Opcode::kFcvtXf)] = &ExecOps::FcvtXf;
  return t;
}

constexpr std::array<ExecOps::Handler, isa::kNumPlanHandlers> kPlanHandlers =
    MakePlanTable();

}  // namespace

Core::Core(CpuId id, isa::BinaryImage* image, mem::MainMemory* memory,
           mem::CacheStack* stack, const mem::CoherenceFabric* fabric)
    : id_(id),
      image_(image),
      memory_(memory),
      stack_(stack),
      fabric_(fabric),
      hpm_(this) {
  COBRA_CHECK(image != nullptr && memory != nullptr && stack != nullptr &&
              fabric != nullptr);
  issue_width_ = stack_->config().issue_width_bundles;
  load_hide_ = stack_->config().load_hide_cycles;
}

void Core::Start(Addr entry) {
  COBRA_CHECK_MSG(isa::SlotOf(entry) == 0, "entry must be bundle-aligned");
  pc_ = entry;
  halted_ = false;
}

void Core::SetRetireHook(std::uint64_t period_insts,
                         std::function<void(Core&)> hook) {
  sample_period_ = period_insts;
  until_sample_ = period_insts;
  sample_hook_ = std::move(hook);
}

std::uint64_t Core::RawEventValue(HpmEvent event) const {
  const mem::CacheStack::Stats& ss = stack_->stats();
  const mem::BusEventCounts& bus = fabric_->CpuCounts(id_);
  switch (event) {
    case HpmEvent::kCpuCycles: return now_;
    case HpmEvent::kInstRetired: return retired_;
    case HpmEvent::kL2Misses: return stack_->L2Misses();
    case HpmEvent::kL3Misses: return stack_->L3Misses();
    case HpmEvent::kBusMemory: return bus.bus_memory;
    case HpmEvent::kBusRdHit: return bus.bus_rd_hit;
    case HpmEvent::kBusRdHitm: return bus.bus_rd_hitm;
    case HpmEvent::kBusRdInvalAllHitm: return bus.bus_rd_inval_all_hitm;
    case HpmEvent::kBusUpgrades: return bus.bus_upgrades;
    case HpmEvent::kL2Writebacks: return ss.l2_writebacks;
    case HpmEvent::kLoadsRetired: return ss.loads;
    case HpmEvent::kStoresRetired: return ss.stores;
    case HpmEvent::kPrefetchesRetired: return ss.prefetches;
    case HpmEvent::kEventCount: break;
  }
  COBRA_UNREACHABLE("bad HPM event selector");
}

void Core::Step() {
  COBRA_CHECK_MSG(!halted_, "stepping a halted core");
  const ExecPlan& plan = image_->PlanAt(pc_);
  ChargeIssue();
  ExecutePlan(plan);
  RetireTail();
}

void Core::RunSegment(Cycle q_end) {
  if (tjit_ != nullptr) {
    RunSegmentTjit(q_end);
    return;
  }
  while (!halted_ && now_ < q_end) {
    const ExecPlan& plan = image_->PlanAt(pc_);
    if ((plan.cls & isa::kPlanMem) && regs_.ReadPr(plan.qp)) {
      // Fused step: the classification, predicate and address are exactly
      // what ExecutePlan would recompute.
      if (!TryMemoryOp(plan, regs_.ReadGr(plan.r2), isa::SlotOf(pc_) == 0)) {
        return;  // fabric-bound: nothing was committed
      }
      AdvancePc();
      RetireTail();
      continue;
    }
    ChargeIssue();
    ExecutePlan(plan);
    RetireTail();
  }
}

void Core::RunQuantum(Cycle q_end) {
  if (tjit_ == nullptr) {
    // Pure interpreter: stepping straight through is fastest.
    while (!halted_ && now_ < q_end) Step();
    return;
  }
  // With the trace JIT, run segments (which stop just before any
  // fabric-bound step) and commit those steps inline — with one runnable
  // core there is nothing to order against. The step stream is identical
  // to pure stepping: segments replay the interpreter exactly and a Try*
  // access that declines changes no simulated state.
  while (!halted_ && now_ < q_end) {
    RunSegmentTjit(q_end);
    if (!halted_ && now_ < q_end) Step();
  }
}

void Core::RunSegmentTjit(Cycle q_end) {
  tjit::TranslationCache& tc = *tjit_;
  if (tc.BeginSegment()) resume_sb_ = nullptr;  // patches landed: flushed

  // Re-enter the superblock a fabric commit or quantum edge split, or look
  // the entry pc up. The hint is consumed exactly once, here.
  tjit::Superblock* sb = nullptr;
  std::uint32_t start_idx = 0;
  if (!halted_ && now_ < q_end) {
    if (resume_sb_ != nullptr && pc_ == resume_pc_) {
      sb = resume_sb_;
      start_idx = resume_idx_;
    } else if (isa::SlotOf(pc_) == 0) {
      sb = tc.Lookup(pc_);
    }
  }
  resume_sb_ = nullptr;

  for (;;) {
    if (sb != nullptr) {
      if (RunSuperblocks(sb, start_idx, q_end)) return;
      // Side exit: pc_ is architecturally exact; interpret from here.
      sb = nullptr;
      start_idx = 0;
    }
    while (!halted_ && now_ < q_end) {
      const ExecPlan& plan = image_->PlanAt(pc_);
      if ((plan.cls & isa::kPlanMem) && regs_.ReadPr(plan.qp)) {
        if (!TryMemoryOp(plan, regs_.ReadGr(plan.r2),
                         isa::SlotOf(pc_) == 0)) {
          return;  // fabric-bound: nothing was committed
        }
        AdvancePc();
        RetireTail();
        continue;
      }
      if (plan.cls & isa::kPlanBranch) {
        const Addr from = pc_;
        ChargeIssue();
        DoBranchPlan(plan);
        RetireTail();
        // Harvest: a taken backward (or self) branch marks a loop head.
        if (pc_ <= from) {
          sb = tc.NoteLoopEdge(pc_);
          if (sb != nullptr) break;
        }
        continue;
      }
      ChargeIssue();
      ExecutePlan(plan);
      RetireTail();
    }
    if (sb == nullptr) return;  // halted or quantum edge
  }
}

bool Core::RunSuperblocks(tjit::Superblock* sb, std::uint32_t idx,
                          Cycle q_end) {
  const std::uint64_t retired_before = retired_;
  const bool stop = ExecSuperblockLoop(sb, idx, q_end);
  tjit_retired_ += retired_ - retired_before;
  return stop;
}

// The superblock executor. Invariant: at the top of every iteration pc_ is
// architecturally correct and equals steps[idx].pc — every path below that
// moves `idx` also moves pc_ the way the interpreter would, so a stop or
// side exit at any point lands the interpreter on the exact slot with
// identical register/memory/timing state.
bool Core::ExecSuperblockLoop(tjit::Superblock* sb, std::uint32_t idx,
                              Cycle q_end) {
  tjit::TranslationCache& tc = *tjit_;
  tjit::Step* steps = sb->steps.data();

  // Leave the trace at an edge with no compiled continuation: chain to the
  // successor block when one exists (memoized per edge), else side-exit.
  // Returns false to side-exit, true to continue at (sb, idx = 0).
  const auto ExitOrChain = [&](tjit::Superblock** chain_slot) -> bool {
    tjit::Superblock* chained = *chain_slot;
    if (chained != nullptr) {
      ++tc.stats().chains;
    } else if (isa::SlotOf(pc_) == 0) {
      chained = tc.Chain(pc_);
      *chain_slot = chained;
    }
    if (chained == nullptr) {
      ++tc.stats().side_exits;
      return false;
    }
    sb = chained;
    steps = sb->steps.data();
    idx = 0;
    return true;
  };

  for (;;) {
    if (now_ >= q_end) {
      // Quantum edge: resume exactly here next segment.
      resume_sb_ = sb;
      resume_idx_ = idx;
      resume_pc_ = pc_;
      return true;
    }
    tjit::Step& s = steps[idx];
    switch (s.kind) {
      case tjit::StepKind::kBranch: {
        ChargeIssueFor(s.slot0);
        DoBranchPlan(s.plan);
        RetireTail();
        const bool taken = pc_ == s.taken_pc;
        const std::uint32_t next = taken ? s.taken_idx : s.next_idx;
        if (next == tjit::kNoStep) {
          if (!ExitOrChain(taken ? &s.chain_taken : &s.chain_next)) {
            return false;
          }
          continue;
        }
        idx = next;
        continue;
      }

      case tjit::StepKind::kNopRun: {
        if (sample_period_ != 0 && until_sample_ <= s.count) {
          // The retire hook would fire mid-run: let the interpreter
          // execute the singles (pc_ is still at the run's first nop).
          ++tc.stats().side_exits;
          return false;
        }
        const int total = bundle_credit_ + static_cast<int>(s.slot0_count);
        const Cycle adv = static_cast<Cycle>(total / issue_width_);
        if (now_ + adv >= q_end) {
          // The batched issue charge could cross the quantum edge mid-run;
          // the interpreter stops at the exact slot.
          ++tc.stats().side_exits;
          return false;
        }
        now_ += adv;
        bundle_credit_ = total % issue_width_;
        retired_ += s.count;
        if (sample_period_ != 0) until_sample_ -= s.count;
        pc_ = s.next_pc;
        if (s.next_idx == tjit::kNoStep) {
          if (!ExitOrChain(&s.chain_next)) return false;
          continue;
        }
        idx = s.next_idx;
        continue;
      }

      case tjit::StepKind::kLd:
      case tjit::StepKind::kLdf:
      case tjit::StepKind::kSt:
      case tjit::StepKind::kStf:
      case tjit::StepKind::kLfetch: {
        if (!regs_.ReadPr(s.plan.qp)) {
          // Squashed: retires with no architectural effect.
          ChargeIssueFor(s.slot0);
          pc_ = s.next_pc;
          RetireTail();
        } else {
          if (!TryMemoryOp(s.plan, regs_.ReadGr(s.plan.r2), s.slot0)) {
            if (s.next_idx != tjit::kNoStep) {
              // The engine commits this step via Step(); resume after it.
              resume_sb_ = sb;
              resume_idx_ = s.next_idx;
              resume_pc_ = s.next_pc;
            }
            return true;
          }
          pc_ = s.next_pc;
          RetireTail();
        }
        if (s.next_idx == tjit::kNoStep) {
          if (!ExitOrChain(&s.chain_next)) return false;
          continue;
        }
        idx = s.next_idx;
        continue;
      }

      case tjit::StepKind::kAlu: {
        ChargeIssueFor(s.slot0);
        if (!regs_.ReadPr(s.plan.qp)) {
          pc_ = s.next_pc;  // squash
        } else {
          kPlanHandlers[s.plan.handler](*this, s.plan);  // advances pc_
        }
        RetireTail();
        if (s.next_idx == tjit::kNoStep) {
          if (!ExitOrChain(&s.chain_next)) return false;
          continue;
        }
        idx = s.next_idx;
        continue;
      }
    }
    COBRA_UNREACHABLE("bad step kind");
  }
}

bool Core::TryMemoryOp(const ExecPlan& plan, Addr addr, bool slot0) {
  return checker_ != nullptr || mem_observer_ || fast_forward_
             ? TryMemoryOpPlan<true>(plan, addr, slot0)
             : TryMemoryOpPlan<false>(plan, addr, slot0);
}

template <bool kHooks>
bool Core::TryMemoryOpPlan(const ExecPlan& plan, Addr addr, bool slot0) {
  if constexpr (kHooks) {
    if (fast_forward_) {
      // Functional-only ops never touch the cache stack or the fabric, so
      // they always commit inside the segment.
      ChargeIssueFor(slot0);
      DoMemoryOpPlan(plan, addr);
      return true;
    }
  }
  // The access time is computed as if the issue cycle had been charged
  // (Step() charges it before the access); the charge is applied only once
  // the access is known to stay fabric-free. The checker sees the same
  // values DoMemoryOpPlan hands it.
  const Cycle access_now =
      now_ + ((slot0 && bundle_credit_ + 1 >= issue_width_) ? 1 : 0);
  const Cycle hide = load_hide_;
  const auto Stall = [hide](Cycle latency) {
    return latency > hide ? latency - hide : 0;
  };

  switch (static_cast<Opcode>(plan.handler)) {
    case Opcode::kLd: {
      mem::CacheStack::AccessResult result;
      if (!stack_->TryLoad(addr, plan.size, /*fp=*/false,
                           (plan.cls & isa::kPlanBias) != 0, access_now,
                           &result)) {
        return false;
      }
      ChargeIssueFor(slot0);
      const std::uint64_t value = memory_->Read(addr, plan.size);
      regs_.WriteGr(plan.r1, value);
      if (kHooks && checker_ != nullptr) {
        checker_->OnLoad(id_, addr, plan.size, value);
      }
      now_ += Stall(result.latency);
      dear_.Observe(pc_, addr, result.latency);
      break;
    }
    case Opcode::kLdf: {
      mem::CacheStack::AccessResult result;
      if (!stack_->TryLoad(addr, 8, /*fp=*/true, /*bias=*/false, access_now,
                           &result)) {
        return false;
      }
      ChargeIssueFor(slot0);
      const double value = memory_->ReadDouble(addr);
      regs_.WriteFr(plan.r1, value);
      if (kHooks && checker_ != nullptr) {
        checker_->OnLoad(id_, addr, 8, std::bit_cast<std::uint64_t>(value));
      }
      now_ += Stall(result.latency);
      dear_.Observe(pc_, addr, result.latency);
      break;
    }
    case Opcode::kSt: {
      mem::CacheStack::AccessResult result;
      if (!stack_->TryStore(addr, plan.size, access_now, &result)) {
        return false;
      }
      ChargeIssueFor(slot0);
      std::uint64_t value = regs_.ReadGr(plan.r3);
      if (plan.size < 8) value &= (1ULL << (plan.size * 8)) - 1;
      memory_->Write(addr, plan.size, value);
      if (kHooks && checker_ != nullptr) {
        checker_->OnStore(id_, addr, plan.size, value);
      }
      now_ += result.latency;
      break;
    }
    case Opcode::kStf: {
      mem::CacheStack::AccessResult result;
      if (!stack_->TryStore(addr, 8, access_now, &result)) return false;
      ChargeIssueFor(slot0);
      const double value = regs_.ReadFr(plan.r3);
      memory_->WriteDouble(addr, value);
      if (kHooks && checker_ != nullptr) {
        checker_->OnStore(id_, addr, 8, std::bit_cast<std::uint64_t>(value));
      }
      now_ += result.latency;
      break;
    }
    case Opcode::kLfetch: {
      if (addr >= memory_->size()) {
        // Non-faulting: dropped without touching the cache stack.
        ChargeIssueFor(slot0);
        ++lfetches_dropped_;
        break;
      }
      if (!stack_->TryPrefetch(addr, (plan.cls & isa::kPlanExcl) != 0,
                               access_now)) {
        return false;
      }
      ChargeIssueFor(slot0);
      break;
    }
    default:
      COBRA_UNREACHABLE("not a memory op");
  }

  if (kHooks && mem_observer_) mem_observer_(pc_, addr);
  if (plan.cls & isa::kPlanPostInc) {
    regs_.WriteGr(plan.r2, addr + static_cast<std::uint64_t>(plan.imm));
  }
  // A fabric-free op journals no lines; settling keeps the checker's per-op
  // protocol identical to DoMemoryOpPlan's.
  if (kHooks && checker_ != nullptr) checker_->OnOpSettled(id_);
  return true;
}

void Core::TakeBranch(Addr target, bool loop_branch) {
  btb_.RecordTaken(pc_, target);
  // Every taken branch (any execution path) funnels through here, so the
  // BBV profiler sees the complete block-entry stream without forcing the
  // interpreter path.
  if (bbv_ != nullptr) bbv_->OnTakenBranch(id_, target, retired_);
  // Itanium's counted-loop branches (br.ctop/br.cloop/br.wtop) are
  // perfectly predicted and take no bubble; other taken branches pay one.
  if (!loop_branch) ++now_;
  pc_ = isa::BundleAddr(target);
  bundle_credit_ = 0;  // issue group ends at a taken branch
}

void Core::DoMemoryOpPlan(const ExecPlan& plan, Addr addr) {
  // Every architectural data access the fused path does not commit
  // funnels through here (TryMemoryOpPlan fires the observer for the rest):
  // exactly one callback per performed op.
  if (mem_observer_) mem_observer_(pc_, addr);

  if (fast_forward_) {
    // Functional-only commit: exact architectural effects, no cache stack,
    // no DEAR, no stall cycles, no checker (the golden-memory oracle
    // checks settled cache invariants that FF deliberately skips).
    switch (static_cast<Opcode>(plan.handler)) {
      case Opcode::kLd:
        regs_.WriteGr(plan.r1, memory_->Read(addr, plan.size));
        break;
      case Opcode::kLdf:
        regs_.WriteFr(plan.r1, memory_->ReadDouble(addr));
        break;
      case Opcode::kSt: {
        std::uint64_t value = regs_.ReadGr(plan.r3);
        if (plan.size < 8) value &= (1ULL << (plan.size * 8)) - 1;
        memory_->Write(addr, plan.size, value);
        break;
      }
      case Opcode::kStf:
        memory_->WriteDouble(addr, regs_.ReadFr(plan.r3));
        break;
      case Opcode::kLfetch:
        if (addr >= memory_->size()) ++lfetches_dropped_;
        break;  // non-binding: no architectural effect in bounds
      default:
        COBRA_UNREACHABLE("not a memory op");
    }
    if (plan.cls & isa::kPlanPostInc) {
      regs_.WriteGr(plan.r2, addr + static_cast<std::uint64_t>(plan.imm));
    }
    return;
  }

  // Software pipelining / compiler scheduling hides a window of load
  // latency; only the remainder stalls the core. DEAR observes the full
  // latency (the hardware captures it at the memory system, not the
  // pipeline).
  const Cycle hide = load_hide_;
  auto Stall = [hide](Cycle latency) {
    return latency > hide ? latency - hide : 0;
  };

  switch (static_cast<Opcode>(plan.handler)) {
    case Opcode::kLd: {
      const std::uint64_t value = memory_->Read(addr, plan.size);
      regs_.WriteGr(plan.r1, value);
      if (checker_ != nullptr) checker_->OnLoad(id_, addr, plan.size, value);
      const auto result =
          stack_->Load(addr, plan.size, /*fp=*/false,
                       (plan.cls & isa::kPlanBias) != 0, now_);
      now_ += Stall(result.latency);
      dear_.Observe(pc_, addr, result.latency);
      break;
    }
    case Opcode::kLdf: {
      const double value = memory_->ReadDouble(addr);
      regs_.WriteFr(plan.r1, value);
      if (checker_ != nullptr) {
        checker_->OnLoad(id_, addr, 8, std::bit_cast<std::uint64_t>(value));
      }
      const auto result =
          stack_->Load(addr, 8, /*fp=*/true, /*bias=*/false, now_);
      now_ += Stall(result.latency);
      dear_.Observe(pc_, addr, result.latency);
      break;
    }
    case Opcode::kSt: {
      std::uint64_t value = regs_.ReadGr(plan.r3);
      if (plan.size < 8) value &= (1ULL << (plan.size * 8)) - 1;
      memory_->Write(addr, plan.size, value);
      if (checker_ != nullptr) checker_->OnStore(id_, addr, plan.size, value);
      now_ += stack_->Store(addr, plan.size, now_).latency;
      break;
    }
    case Opcode::kStf: {
      const double value = regs_.ReadFr(plan.r3);
      memory_->WriteDouble(addr, value);
      if (checker_ != nullptr) {
        checker_->OnStore(id_, addr, 8, std::bit_cast<std::uint64_t>(value));
      }
      now_ += stack_->Store(addr, 8, now_).latency;
      break;
    }
    case Opcode::kLfetch: {
      // Non-binding and non-faulting: a prefetch past the end of the data
      // segment (the Figure 2 pathology would fault otherwise) is dropped.
      if (addr < memory_->size()) {
        stack_->Prefetch(addr, (plan.cls & isa::kPlanExcl) != 0, now_);
      } else {
        ++lfetches_dropped_;
      }
      break;
    }
    default:
      COBRA_UNREACHABLE("not a memory op");
  }

  if (plan.cls & isa::kPlanPostInc) {
    regs_.WriteGr(plan.r2, addr + static_cast<std::uint64_t>(plan.imm));
  }

  // The op is complete (lines installed, victims written back): re-check
  // the settled invariants of every line its fabric traffic touched.
  if (checker_ != nullptr) checker_->OnOpSettled(id_);
}

void Core::DoBranchPlan(const ExecPlan& plan) {
  auto Target = [&]() -> Addr {
    return isa::BundleAddr(pc_) +
           static_cast<Addr>(plan.imm *
                             static_cast<std::int64_t>(isa::kBundleBytes));
  };

  switch (static_cast<Opcode>(plan.handler)) {
    case Opcode::kBrCond:
      if (regs_.ReadPr(plan.qp)) {
        TakeBranch(Target(), /*loop_branch=*/false);
      } else {
        AdvancePc();
      }
      return;

    case Opcode::kBrCloop:
      if (regs_.lc() != 0) {
        regs_.set_lc(regs_.lc() - 1);
        TakeBranch(Target(), /*loop_branch=*/true);
      } else {
        AdvancePc();
      }
      return;

    case Opcode::kBrCtop:
      // IA-64 modulo-scheduled counted-loop branch.
      if (regs_.lc() != 0) {
        regs_.set_lc(regs_.lc() - 1);
        regs_.WritePr(63, true);   // becomes p16 after rotation
        regs_.RotateDown();
        TakeBranch(Target(), /*loop_branch=*/true);
      } else if (regs_.ec() > 1) {
        regs_.set_ec(regs_.ec() - 1);
        regs_.WritePr(63, false);
        regs_.RotateDown();
        TakeBranch(Target(), /*loop_branch=*/true);  // epilogue stages drain
      } else {
        if (regs_.ec() != 0) regs_.set_ec(regs_.ec() - 1);
        regs_.WritePr(63, false);
        AdvancePc();               // final exit: no rotation
      }
      return;

    case Opcode::kBrWtop:
      // IA-64 modulo-scheduled while-loop branch.
      if (regs_.ReadPr(plan.qp)) {
        regs_.WritePr(63, false);
        regs_.RotateDown();
        TakeBranch(Target(), /*loop_branch=*/true);
      } else if (regs_.ec() > 1) {
        regs_.set_ec(regs_.ec() - 1);
        regs_.WritePr(63, false);
        regs_.RotateDown();
        TakeBranch(Target(), /*loop_branch=*/true);
      } else {
        if (regs_.ec() != 0) regs_.set_ec(regs_.ec() - 1);
        regs_.WritePr(63, false);
        AdvancePc();
      }
      return;

    case Opcode::kBrl:
      TakeBranch(static_cast<Addr>(plan.imm), /*loop_branch=*/false);
      return;

    default:
      COBRA_UNREACHABLE("not a branch");
  }
}

bool Core::Checkpoint(support::StateIO& io) {
  if (!regs_.Checkpoint(io) || !hpm_.Checkpoint(io) || !btb_.Checkpoint(io) ||
      !dear_.Checkpoint(io)) {
    return false;
  }
  io.U64(pc_);
  io.Bool(halted_);
  if (!io.Narrow<std::uint32_t>(bundle_credit_, 0, issue_width_,
                                "bundle credit")) {
    return false;
  }
  io.U64(now_);
  io.U64(retired_);
  io.U64(lfetches_dropped_);
  io.U64(sample_period_);
  if (!io.U64(until_sample_)) return false;
  if (io.loading()) {
    // Host-side superblock resume hints never survive a restore: they point
    // into the saved process's translation cache. The next tjit segment
    // simply looks the pc up again.
    resume_sb_ = nullptr;
    resume_idx_ = 0;
    resume_pc_ = 0;
  }
  return true;
}

void Core::ExecutePlan(const ExecPlan& plan) {
  // Branch opcodes interpret predicates themselves (br.cond's qp *is* its
  // condition; br.ctop/br.wtop execute regardless).
  if (plan.cls & isa::kPlanBranch) {
    DoBranchPlan(plan);
    return;
  }

  // Qualifying predicate: a squashed instruction still retires but has no
  // architectural effect (no post-increment either).
  if (!regs_.ReadPr(plan.qp)) {
    AdvancePc();
    return;
  }

  if (plan.cls & isa::kPlanMem) {
    DoMemoryOpPlan(plan, regs_.ReadGr(plan.r2));
    AdvancePc();
    return;
  }

  kPlanHandlers[plan.handler](*this, plan);
}

}  // namespace cobra::cpu
