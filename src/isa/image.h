// BinaryImage: the executable text segment of a simulated program.
//
// Code is stored as encoded 128-bit slots grouped into 3-slot bundles.
// Architecturally a bundle occupies 16 bytes, so instruction addresses
// advance by kBundleBytes per bundle with the slot number in the low bits
// (as on IA-64).  The image also manages a *code cache* region appended
// after the static text — the "trace cache in the same address space"
// where COBRA materializes optimized traces — and supports in-place
// patching of any slot, which is how the original binary is redirected to
// those traces and how prefetch hints are rewritten.
//
// A decoded twin of every slot is kept alongside the encoded words purely
// as a decode cache, and a flattened ExecPlan twin (see isa/exec_plan.h) is
// kept alongside that for the core's hot dispatch path; all mutation goes
// through the encoded representation so that patches are honest bit-level
// binary edits, and every raw patch rebuilds both cached twins in the same
// call, so neither can drift from the bits.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "isa/encoding.h"
#include "isa/exec_plan.h"
#include "isa/instruction.h"
#include "isa/types.h"
#include "support/check.h"
#include "support/snapshot.h"

namespace cobra::isa {

class BinaryImage {
 public:
  // `code_base` must be bundle-aligned. The default places text well away
  // from the data segment of MainMemory.
  explicit BinaryImage(Addr code_base = kDefaultCodeBase);

  static constexpr Addr kDefaultCodeBase = 0x4000'0000ULL;

  // --- Building -----------------------------------------------------------
  // Appends a bundle; returns its (bundle-aligned) address.
  Addr AppendBundle(const Instruction& s0, const Instruction& s1,
                    const Instruction& s2);

  // --- Geometry -----------------------------------------------------------
  Addr code_base() const { return code_base_; }
  Addr code_end() const {
    return code_base_ + static_cast<Addr>(NumBundles()) * kBundleBytes;
  }
  std::size_t NumBundles() const { return slots_.size() / 3; }
  bool Contains(Addr pc) const {
    return BundleAddr(pc) >= code_base_ && BundleAddr(pc) < code_end();
  }

  // Marks the current end of text as the start of the code cache; bundles
  // appended afterwards belong to the cache. Returns the boundary address.
  Addr BeginCodeCache();
  Addr code_cache_start() const { return code_cache_start_; }
  bool InCodeCache(Addr pc) const {
    return code_cache_start_ != 0 && BundleAddr(pc) >= code_cache_start_;
  }

  // --- Access -------------------------------------------------------------
  // Decoded instruction at `pc` (slot must be 0..2, address in range).
  // Aborts if the slot's raw words were overwritten without re-decoding
  // (TestOnlyCorruptSlot): a stale decode must never execute.
  const Instruction& Fetch(Addr pc) const {
    const std::size_t idx = SlotIndex(pc);
    if (!corrupt_slots_.empty()) CheckNotStale(idx);
    return decoded_[idx];
  }

  // Execution plan at `pc` — the core's hot path dispatches on this instead
  // of re-classifying the decoded instruction every step. Same staleness
  // contract as Fetch. With the plan cache disabled (test-only knob below)
  // the plan is rebuilt from the decoded twin on every call, which is the
  // reference behaviour the cached plans must be bit-identical to.
  const ExecPlan& PlanAt(Addr pc) const {
    const std::size_t idx = SlotIndex(pc);
    if (!corrupt_slots_.empty()) CheckNotStale(idx);
    if (!plan_cache_enabled_.load(std::memory_order_relaxed)) {
      return RebuildPlanUncached(idx);
    }
    return plans_[idx];
  }

  const EncodedSlot& Raw(Addr pc) const { return slots_[SlotIndex(pc)]; }

  // --- Patching (bit-level binary edits) -----------------------------------
  // Replaces the raw encoded slot; the decoded twin is refreshed by
  // re-decoding, so a malformed patch aborts immediately.
  void PatchRaw(Addr pc, const EncodedSlot& slot);

  // Encodes and writes `inst` at `pc`.
  void Patch(Addr pc, const Instruction& inst);

  // Sets or clears the lfetch `.excl` hint bit in place. Aborts if the slot
  // does not hold an lfetch.
  void SetLfetchExcl(Addr pc, bool excl);

  // Rewrites the lfetch at `pc` into a semantic no-op: a plain `nop.m`, or —
  // when the lfetch carried a post-increment — an `add base = inc, base`
  // that preserves the address stream for later instructions.
  void NopOutLfetch(Addr pc);

  // Number of raw patches applied over the image's lifetime.
  std::uint64_t patch_count() const { return patch_count_; }

  // Monotone counter bumped by every mutation of the plan cache (patches,
  // appends, and test-only corruption). External consumers that hold plan
  // references across patch points can compare generations to detect
  // invalidation; tests assert that runtime patching bumps it.
  std::uint64_t plan_generation() const { return plan_generation_; }

  // --- Checkpointing --------------------------------------------------------
  // The blob carries only the raw encoded slots (the honest bit-level
  // state); restore re-decodes every slot to rebuild the decoded and plan
  // twins, exactly as PatchRaw would. The saved image may hold MORE bundles
  // than the restoring one: trace bundles appended to the code cache after
  // the builder ran are recreated by growing the image.
  bool Checkpoint(support::StateIO& io);

  // Test-only fault injection: writes the raw slot WITHOUT re-decoding, so
  // tests can seed corrupt encodings for the lint / patch-safety verifier
  // to catch. The decoded and plan twins are marked stale (and the plan
  // generation bumped): Fetch/PlanAt at this pc abort until a valid patch
  // lands, so a stale decode can never silently execute.
  void TestOnlyCorruptSlot(Addr pc, const EncodedSlot& slot);

  // Test-only, process-global: disables the plan cache so PlanAt rebuilds
  // from the decoded twin on every call. Used by the fuzz harness to prove
  // cached plans are bit-identical to the never-cached reference.
  static void TestOnlySetPlanCacheEnabled(bool enabled);

  // True when the slot at `pc` is in the corrupt list (raw words written
  // without a re-decode). Fetch/PlanAt on such a slot abort; the superblock
  // compiler (tjit/superblock.cpp) checks this first so a stale plan can
  // never be baked into a trace.
  bool SlotKnownStale(Addr pc) const {
    if (corrupt_slots_.empty()) return false;
    const std::size_t idx = SlotIndex(pc);
    for (const std::size_t corrupt : corrupt_slots_) {
      if (corrupt == idx) return true;
    }
    return false;
  }

 private:
  // Inline: runs once per simulated instruction (Fetch/PlanAt).
  std::size_t SlotIndex(Addr pc) const {
    COBRA_CHECK_MSG(Contains(pc), "instruction address outside image");
    const unsigned slot = SlotOf(pc);
    COBRA_CHECK_MSG(slot < 3, "invalid slot number");
    const auto bundle =
        static_cast<std::size_t>((BundleAddr(pc) - code_base_) / kBundleBytes);
    return bundle * 3 + slot;
  }
  // Aborts if slot `idx` is in the corrupt list (raw words no longer match
  // the decoded twin). Out of line: the hot path only pays the empty check.
  void CheckNotStale(std::size_t idx) const;
  const ExecPlan& RebuildPlanUncached(std::size_t idx) const;

  static std::atomic<bool> plan_cache_enabled_;

  Addr code_base_;
  Addr code_cache_start_ = 0;
  std::vector<EncodedSlot> slots_;
  std::vector<Instruction> decoded_;
  std::vector<ExecPlan> plans_;
  std::vector<std::size_t> corrupt_slots_;
  std::uint64_t patch_count_ = 0;
  std::uint64_t plan_generation_ = 0;
};

}  // namespace cobra::isa
