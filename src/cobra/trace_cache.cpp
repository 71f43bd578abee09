#include "cobra/trace_cache.h"

#include "analysis/cfg.h"
#include "support/check.h"

namespace cobra::core {

TraceCache::TraceCache(isa::BinaryImage* image) : image_(image) {
  COBRA_CHECK(image != nullptr);
  if (image_->code_cache_start() == 0) image_->BeginCodeCache();
}

bool TraceCache::RegionIsRelocatable(const LoopRegion& loop) const {
  const isa::Addr begin = isa::BundleAddr(loop.head);
  const isa::Addr end = isa::BundleAddr(loop.back_branch_pc);
  if (begin > end) return false;
  if (!image_->Contains(begin) || !image_->Contains(end)) return false;
  if (image_->InCodeCache(begin)) return false;  // already a trace
  const auto num_bundles =
      static_cast<std::int64_t>((end - begin) / isa::kBundleBytes) + 1;
  for (isa::Addr bundle = begin; bundle <= end;
       bundle += isa::kBundleBytes) {
    for (unsigned slot = 0; slot < 3; ++slot) {
      const isa::Instruction& inst = image_->Fetch(isa::MakePc(bundle, slot));
      if (!isa::IsBranch(inst.op)) continue;
      if (inst.op == isa::Opcode::kBrl) return false;  // absolute target
      // Relative branch: target must stay inside [begin, end].
      const auto offset =
          static_cast<std::int64_t>((bundle - begin) / isa::kBundleBytes);
      const std::int64_t target = offset + inst.imm;
      if (target < 0 || target >= num_bundles) return false;
    }
  }
  return true;
}

int TraceCache::Deploy(const LoopRegion& loop, OptKind opt) {
  // Refuse only if an *active* deployment already covers this head; a
  // reverted loop may be redeployed (possibly with a different strategy).
  if (const Deployment* existing = FindByHead(isa::BundleAddr(loop.head));
      existing != nullptr && existing->active) {
    return -1;
  }
  if (image_->InCodeCache(loop.head)) return -1;  // already a trace
  // CFG region oracle: the back edge must close a natural loop fully
  // contained in [head, back_branch].
  if (!analysis::CheckLoopRegion(*image_, loop.head, loop.back_branch_pc)
           .ok) {
    return -1;
  }
  if (!RegionIsRelocatable(loop)) return -1;

  const isa::Addr begin = isa::BundleAddr(loop.head);
  const isa::Addr end = isa::BundleAddr(loop.back_branch_pc);

  // Copy the loop body into the code cache (raw slots: bundle distances are
  // preserved, so in-region relative branches need no fixup).
  const isa::Addr trace_head = image_->code_end();
  for (isa::Addr bundle = begin; bundle <= end;
       bundle += isa::kBundleBytes) {
    // Copy before appending: Fetch returns references into the image's own
    // storage, which AppendBundle may reallocate.
    const isa::Instruction slot0 = image_->Fetch(isa::MakePc(bundle, 0));
    const isa::Instruction slot1 = image_->Fetch(isa::MakePc(bundle, 1));
    const isa::Instruction slot2 = image_->Fetch(isa::MakePc(bundle, 2));
    image_->AppendBundle(slot0, slot1, slot2);
  }
  // Exit stub: fall through back to the original code after the loop.
  image_->AppendBundle(isa::Nop(isa::Unit::kM), isa::Nop(isa::Unit::kI),
                       isa::Brl(end + isa::kBundleBytes));
  ++traces_built_;

  // Apply the optimization to the trace copy only.
  const isa::Addr trace_end =
      trace_head + (end - begin);  // last copied bundle
  const int rewritten = ApplyOptimization(*image_, trace_head, trace_end, opt);

  // Save the original head bundle and redirect it into the trace.
  std::array<isa::EncodedSlot, 3> saved{};
  for (unsigned slot = 0; slot < 3; ++slot) {
    saved[slot] = image_->Raw(isa::MakePc(begin, slot));
  }
  saved_bundles_[begin] = saved;
  image_->Patch(isa::MakePc(begin, 0), isa::Nop(isa::Unit::kM));
  image_->Patch(isa::MakePc(begin, 1), isa::Nop(isa::Unit::kI));
  image_->Patch(isa::MakePc(begin, 2), isa::Brl(trace_head));
  ++redirects_active_;

  Deployment deployment;
  deployment.id = static_cast<int>(deployments_.size());
  deployment.loop = loop;
  deployment.loop.head = begin;
  deployment.trace_head = trace_head;
  deployment.opt = opt;
  deployment.lfetches_rewritten = rewritten;
  deployment.active = true;
  deployments_.push_back(deployment);
  CheckDeployment(deployment.id);
  return deployment.id;
}

analysis::PatchReport TraceCache::VerifyDeployment(int id) const {
  COBRA_CHECK(id >= 0 && static_cast<std::size_t>(id) < deployments_.size());
  const Deployment& deployment = deployments_[static_cast<std::size_t>(id)];
  const auto it = saved_bundles_.find(deployment.loop.head);
  COBRA_CHECK(it != saved_bundles_.end());
  return analysis::VerifyTracePatch(
      *image_, deployment.loop.head, deployment.loop.back_branch_pc,
      it->second, deployment.trace_head, deployment.active);
}

analysis::PatchReport TraceCache::CheckDeployment(int id) {
  analysis::PatchReport report = VerifyDeployment(id);
  ++verifications_;
  COBRA_CHECK_MSG(report.ok, report.ToString().c_str());
  return report;
}

void TraceCache::Revert(int id) {
  COBRA_CHECK(id >= 0 && static_cast<std::size_t>(id) < deployments_.size());
  Deployment& deployment = deployments_[static_cast<std::size_t>(id)];
  if (!deployment.active) return;
  const auto it = saved_bundles_.find(deployment.loop.head);
  COBRA_CHECK(it != saved_bundles_.end());
  for (unsigned slot = 0; slot < 3; ++slot) {
    image_->PatchRaw(isa::MakePc(deployment.loop.head, slot),
                     it->second[slot]);
  }
  deployment.active = false;
  --redirects_active_;
  CheckDeployment(id);
}

void TraceCache::Reapply(int id) {
  COBRA_CHECK(id >= 0 && static_cast<std::size_t>(id) < deployments_.size());
  Deployment& deployment = deployments_[static_cast<std::size_t>(id)];
  if (deployment.active) return;
  image_->Patch(isa::MakePc(deployment.loop.head, 0),
                isa::Nop(isa::Unit::kM));
  image_->Patch(isa::MakePc(deployment.loop.head, 1),
                isa::Nop(isa::Unit::kI));
  image_->Patch(isa::MakePc(deployment.loop.head, 2),
                isa::Brl(deployment.trace_head));
  deployment.active = true;
  ++redirects_active_;
  CheckDeployment(id);
}

const TraceCache::Deployment* TraceCache::FindByHead(isa::Addr head) const {
  const Deployment* found = nullptr;
  for (const Deployment& deployment : deployments_) {
    if (deployment.loop.head != isa::BundleAddr(head)) continue;
    found = &deployment;          // latest wins...
    if (deployment.active) break; // ...unless an active one exists
  }
  return found;
}

const TraceCache::Deployment* TraceCache::Get(int id) const {
  if (id < 0 || static_cast<std::size_t>(id) >= deployments_.size()) {
    return nullptr;
  }
  return &deployments_[static_cast<std::size_t>(id)];
}

}  // namespace cobra::core
