// Trace cache and code deployment (Section 3's trace management).
//
// Optimized binary traces are materialized in a code-cache region appended
// to the program image — the same address space as the running binary, as
// in the paper — and the original code is patched to redirect into them:
// the loop's head bundle is replaced by a long branch (brl) to the trace
// copy. Because the copy preserves bundle distances, every in-region
// relative branch (in particular the loop back-edge) remains correct
// without fixups; a trailing brl returns to the original fall-through.
//
// Deployments are reversible: the saved head bundle can be restored
// (rollback), and re-applied later — the mechanism behind COBRA's
// *continuous re-adaptation*.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <vector>

#include "analysis/verifier.h"
#include "cobra/optimizer.h"
#include "isa/image.h"

namespace cobra::core {

// A loop region in the original binary: bundles [head, back_branch].
struct LoopRegion {
  isa::Addr head = 0;
  isa::Addr back_branch_pc = 0;
};

class TraceCache {
 public:
  explicit TraceCache(isa::BinaryImage* image);

  struct Deployment {
    int id = -1;
    LoopRegion loop;
    isa::Addr trace_head = 0;
    OptKind opt = OptKind::kNone;
    int lfetches_rewritten = 0;
    bool active = false;
  };

  // Builds an optimized trace for `loop` and redirects the original code
  // into it. Returns the deployment id, or -1 if the region fails the CFG
  // region oracle (analysis::CheckLoopRegion), is not safely relocatable,
  // or is already deployed/inside the code cache. Every successful
  // deployment is re-verified by the patch-safety verifier; a
  // non-whitelisted binary delta aborts the process.
  int Deploy(const LoopRegion& loop, OptKind opt);

  // Restores the original head bundle (trace retained for Reapply).
  void Revert(int id);
  // Re-patches the head bundle of a reverted deployment.
  void Reapply(int id);

  // Diffs the deployment's trace (and head-bundle state) against the
  // original region. Pure query: reports, never aborts.
  analysis::PatchReport VerifyDeployment(int id) const;
  // VerifyDeployment + abort on violation; counts toward verifications().
  // Called internally after Deploy/Revert/Reapply, and by the controller
  // after it edits a trace in place (prefetch insertion).
  analysis::PatchReport CheckDeployment(int id);
  std::uint64_t verifications() const { return verifications_; }

  // Deployment covering `head`, or nullptr.
  const Deployment* FindByHead(isa::Addr head) const;
  const Deployment* Get(int id) const;

  const std::vector<Deployment>& deployments() const { return deployments_; }
  std::uint64_t traces_built() const { return traces_built_; }
  std::uint64_t redirects_active() const { return redirects_active_; }

 private:
  bool RegionIsRelocatable(const LoopRegion& loop) const;

  isa::BinaryImage* image_;
  std::vector<Deployment> deployments_;
  std::map<isa::Addr, std::array<isa::EncodedSlot, 3>> saved_bundles_;
  std::uint64_t traces_built_ = 0;
  std::uint64_t redirects_active_ = 0;
  std::uint64_t verifications_ = 0;
};

}  // namespace cobra::core
