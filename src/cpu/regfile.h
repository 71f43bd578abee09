// MIA-64 architectural register file, including the rotating register
// machinery that IA-64 software pipelining is built on.
//
// General registers r32..r127, floating registers f32..f127 and predicate
// registers p16..p63 rotate: a logical register name maps to a physical
// slot offset by the rotating register base (RRB), and the modulo-scheduled
// loop branches decrement the RRBs so that a value written to r32 in one
// iteration is read as r33 in the next.  This is exactly the mechanism the
// icc-generated DAXPY kernel in the paper's Figure 2 uses to alternate
// prefetch target addresses between the x[] and y[] streams.
#pragma once

#include <array>
#include <cstdint>

#include "isa/types.h"
#include "support/check.h"
#include "support/snapshot.h"

namespace cobra::cpu {

class RegisterFile {
 public:
  RegisterFile();

  // The register accessors are inline: they run several times per simulated
  // instruction and the rotation arithmetic below is branch-free enough to
  // fold into the caller.

  // --- General registers ---------------------------------------------------
  std::uint64_t ReadGr(int r) const {
    COBRA_CHECK(r >= 0 && r < isa::kNumGr);
    if (r == 0) return 0;
    return gr_[static_cast<std::size_t>(PhysGr(r))];
  }
  void WriteGr(int r, std::uint64_t value) {
    COBRA_CHECK(r >= 0 && r < isa::kNumGr);
    COBRA_CHECK_MSG(r != 0, "write to r0 is illegal");
    gr_[static_cast<std::size_t>(PhysGr(r))] = value;
  }

  // --- Floating registers (hold doubles; f0 = +0.0, f1 = 1.0) --------------
  double ReadFr(int r) const {
    COBRA_CHECK(r >= 0 && r < isa::kNumFr);
    if (r == 0) return 0.0;
    if (r == 1) return 1.0;
    return fr_[static_cast<std::size_t>(PhysFr(r))];
  }
  void WriteFr(int r, double value) {
    COBRA_CHECK(r >= 0 && r < isa::kNumFr);
    COBRA_CHECK_MSG(r > 1, "write to f0/f1 is illegal");
    fr_[static_cast<std::size_t>(PhysFr(r))] = value;
  }

  // --- Predicate registers (p0 hardwired to 1) -----------------------------
  bool ReadPr(int p) const {
    COBRA_CHECK(p >= 0 && p < isa::kNumPr);
    if (p == 0) return true;
    return pr_[static_cast<std::size_t>(PhysPr(p))];
  }
  void WritePr(int p, bool value) {
    COBRA_CHECK(p >= 0 && p < isa::kNumPr);
    COBRA_CHECK_MSG(p != 0, "write to p0 is illegal");
    pr_[static_cast<std::size_t>(PhysPr(p))] = value;
  }

  // Sets the 48 rotating predicates from a bit mask: bit i -> p(16+i)
  // (mov pr.rot = imm).
  void SetRotatingPredicates(std::uint64_t mask);

  // --- Application registers ------------------------------------------------
  std::uint64_t lc() const { return lc_; }
  void set_lc(std::uint64_t v) { lc_ = v; }
  std::uint64_t ec() const { return ec_; }
  void set_ec(std::uint64_t v) { ec_ = v; }

  // --- Rotation --------------------------------------------------------------
  // Decrements all three RRBs (the effect of a taken br.ctop/br.wtop).
  // Inline: charged on every taken modulo-scheduled loop branch.
  void RotateDown() {
    rrb_gr_ = rrb_gr_ == 0 ? isa::kNumRotGr - 1 : rrb_gr_ - 1;
    rrb_fr_ = rrb_fr_ == 0 ? isa::kNumRotFr - 1 : rrb_fr_ - 1;
    rrb_pr_ = rrb_pr_ == 0 ? isa::kNumRotPr - 1 : rrb_pr_ - 1;
  }
  // Resets all RRBs to zero (clrrrb).
  void ClearRrb();
  int rrb_gr() const { return rrb_gr_; }
  int rrb_pr() const { return rrb_pr_; }

  // Resets every register, predicate, AR and RRB to the power-on state.
  void Reset();

  // --- Checkpointing ---------------------------------------------------------
  // Physical-slot order (rotation-independent): the RRBs travel alongside,
  // so a restored file maps logical names exactly as the saved one did.
  bool Checkpoint(support::StateIO& io) {
    for (std::uint64_t& v : gr_) io.U64(v);
    for (double& v : fr_) io.F64(v);
    for (bool& v : pr_) io.Bool(v);
    io.U64(lc_);
    io.U64(ec_);
    return io.Narrow<std::uint32_t>(rrb_gr_, 0, isa::kNumRotGr - 1, "rrb.gr") &&
           io.Narrow<std::uint32_t>(rrb_fr_, 0, isa::kNumRotFr - 1, "rrb.fr") &&
           io.Narrow<std::uint32_t>(rrb_pr_, 0, isa::kNumRotPr - 1, "rrb.pr");
  }

 private:
  // Rotation maps a logical name to `first + (name - first + rrb) % num`.
  // The RRBs stay in [0, num) (RotateDown/ClearRrb maintain this) and the
  // logical offset is < num, so the sum is < 2*num and the modulo reduces
  // to at most one subtraction — this runs for every register access on the
  // interpreter's hot path.
  static int PhysRot(int reg, int first, int num, int rrb) {
    int t = reg - first + rrb;
    if (t >= num) t -= num;
    return first + t;
  }
  int PhysGr(int r) const {
    if (r < isa::kFirstRotGr) return r;
    return PhysRot(r, isa::kFirstRotGr, isa::kNumRotGr, rrb_gr_);
  }
  int PhysFr(int r) const {
    if (r < isa::kFirstRotFr) return r;
    return PhysRot(r, isa::kFirstRotFr, isa::kNumRotFr, rrb_fr_);
  }
  int PhysPr(int p) const {
    if (p < isa::kFirstRotPr) return p;
    return PhysRot(p, isa::kFirstRotPr, isa::kNumRotPr, rrb_pr_);
  }

  std::array<std::uint64_t, isa::kNumGr> gr_{};
  std::array<double, isa::kNumFr> fr_{};
  std::array<bool, isa::kNumPr> pr_{};
  std::uint64_t lc_ = 0;
  std::uint64_t ec_ = 0;
  int rrb_gr_ = 0;
  int rrb_fr_ = 0;
  int rrb_pr_ = 0;
};

}  // namespace cobra::cpu
