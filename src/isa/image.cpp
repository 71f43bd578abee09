#include "isa/image.h"

#include <algorithm>

#include "support/check.h"

namespace cobra::isa {

std::atomic<bool> BinaryImage::plan_cache_enabled_{true};

void BinaryImage::TestOnlySetPlanCacheEnabled(bool enabled) {
  plan_cache_enabled_.store(enabled, std::memory_order_relaxed);
}

BinaryImage::BinaryImage(Addr code_base) : code_base_(code_base) {
  COBRA_CHECK_MSG(BundleAddr(code_base) == code_base,
                  "code base must be bundle-aligned");
}

Addr BinaryImage::AppendBundle(const Instruction& s0, const Instruction& s1,
                               const Instruction& s2) {
  const Addr addr = code_end();
  for (const Instruction* inst : {&s0, &s1, &s2}) {
    slots_.push_back(Encode(*inst));
    decoded_.push_back(*inst);
    plans_.push_back(BuildExecPlan(*inst));
  }
  ++plan_generation_;
  return addr;
}

Addr BinaryImage::BeginCodeCache() {
  COBRA_CHECK_MSG(code_cache_start_ == 0, "code cache already started");
  code_cache_start_ = code_end();
  return code_cache_start_;
}

void BinaryImage::PatchRaw(Addr pc, const EncodedSlot& slot) {
  const std::size_t idx = SlotIndex(pc);
  slots_[idx] = slot;
  decoded_[idx] = Decode(slot);  // aborts on malformed patches
  plans_[idx] = BuildExecPlan(decoded_[idx]);
  ++plan_generation_;
  ++patch_count_;
  if (!corrupt_slots_.empty()) {
    // A valid patch heals a previously corrupted slot.
    corrupt_slots_.erase(
        std::remove(corrupt_slots_.begin(), corrupt_slots_.end(), idx),
        corrupt_slots_.end());
  }
}

void BinaryImage::Patch(Addr pc, const Instruction& inst) {
  PatchRaw(pc, Encode(inst));
}

void BinaryImage::TestOnlyCorruptSlot(Addr pc, const EncodedSlot& slot) {
  const std::size_t idx = SlotIndex(pc);
  slots_[idx] = slot;  // decoded twin intentionally left stale
  plans_[idx] = StaleExecPlan();
  ++plan_generation_;
  if (std::find(corrupt_slots_.begin(), corrupt_slots_.end(), idx) ==
      corrupt_slots_.end()) {
    corrupt_slots_.push_back(idx);
  }
}

void BinaryImage::CheckNotStale(std::size_t idx) const {
  COBRA_CHECK_MSG(std::find(corrupt_slots_.begin(), corrupt_slots_.end(),
                            idx) == corrupt_slots_.end(),
                  "fetch from a slot whose raw words no longer match its "
                  "decoded twin (TestOnlyCorruptSlot without a re-patch)");
}

const ExecPlan& BinaryImage::RebuildPlanUncached(std::size_t idx) const {
  thread_local ExecPlan scratch;
  scratch = BuildExecPlan(decoded_[idx]);
  return scratch;
}

void BinaryImage::SetLfetchExcl(Addr pc, bool excl) {
  EncodedSlot slot = Raw(pc);
  COBRA_CHECK_MSG(IsLfetchHead(slot.head), "slot does not hold an lfetch");
  if (excl) {
    slot.head |= enc::kExclBit;
  } else {
    slot.head &= ~enc::kExclBit;
  }
  PatchRaw(pc, slot);
}

bool BinaryImage::Checkpoint(support::StateIO& io) {
  std::uint64_t code_base = code_base_;
  std::uint64_t cache_start = code_cache_start_;
  std::uint64_t num_slots = slots_.size();
  io.U64(code_base);
  io.U64(cache_start);
  if (!io.Count(num_slots, 8 + 8, "slot") ||
      !io.Expect(code_base == code_base_, "code base",
                 static_cast<std::int64_t>(code_base),
                 static_cast<std::int64_t>(code_base_)) ||
      !io.Expect(num_slots % 3 == 0, "slot count (a multiple of 3)",
                 static_cast<std::int64_t>(num_slots), 3)) {
    return false;
  }
  // Loading reads into a scratch vector, so a short blob leaves the image
  // untouched.
  std::vector<EncodedSlot> loaded(io.loading() ? num_slots : 0);
  for (EncodedSlot& slot : io.loading() ? loaded : slots_) {
    io.U64(slot.head);
    io.I64(slot.imm);
  }
  std::uint64_t patches = patch_count_;
  std::uint64_t generation = plan_generation_;
  io.U64(patches);
  if (!io.U64(generation)) return false;
  if (!io.loading()) return true;
  slots_ = std::move(loaded);
  decoded_.resize(slots_.size());
  plans_.resize(slots_.size());
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    decoded_[i] = Decode(slots_[i]);  // aborts on malformed bits, same as a
                                      // live PatchRaw of those words would
    plans_[i] = BuildExecPlan(decoded_[i]);
  }
  code_cache_start_ = cache_start;
  corrupt_slots_.clear();
  patch_count_ = patches;
  plan_generation_ = generation;
  return true;
}

void BinaryImage::NopOutLfetch(Addr pc) {
  const Instruction inst = Fetch(pc);
  COBRA_CHECK_MSG(inst.op == Opcode::kLfetch, "slot does not hold an lfetch");
  if (inst.post_inc) {
    // Preserve the address-stream side effect: base += inc.
    Instruction add = AddImm(inst.r2, inst.r2, inst.imm);
    add.unit = Unit::kM;  // occupies the same M slot it replaces
    add.qp = inst.qp;
    Patch(pc, add);
  } else {
    Instruction nop = Nop(Unit::kM);
    nop.qp = inst.qp;
    Patch(pc, nop);
  }
}

}  // namespace cobra::isa
