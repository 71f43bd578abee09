// Unit tests for the MIA-64 ISA layer: encoding round-trips, image
// construction, assembler label resolution, binary patching, and the
// disassembler's Itanium syntax.
#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "isa/assembler.h"
#include "isa/disasm.h"
#include "isa/encoding.h"
#include "isa/image.h"
#include "isa/instruction.h"

namespace cobra::isa {
namespace {

// --- Encoding round-trips ---------------------------------------------------

class EncodeRoundTrip : public ::testing::TestWithParam<Instruction> {};

TEST_P(EncodeRoundTrip, DecodeRecoversInstruction) {
  const Instruction inst = GetParam();
  const EncodedSlot slot = Encode(inst);
  EXPECT_EQ(Decode(slot), inst) << Disassemble(inst);
}

std::vector<Instruction> AllRepresentativeInstructions() {
  std::vector<Instruction> insts = {
      Nop(Unit::kM),
      Nop(Unit::kI),
      Break(),
      AddReg(3, 4, 5),
      SubReg(127, 126, 125),
      AddImm(8, 16, -1),
      AddImm(41, 43, 16),
      ShlAdd(9, 8, 2, 15),
      AndReg(1, 2, 3),
      OrReg(4, 5, 6),
      XorReg(26, 26, 8),
      AndImm(9, 26, 0xfffffffffffffLL),
      OrImm(9, 9, 0x3ff0000000000000LL),
      ShlImm(8, 26, 13),
      ShrImm(8, 26, 7),
      SarImm(8, 26, 63),
      MovImm(7, -123456789012345LL),
      MovReg(2, 14),
      Sxt4(3, 4),
      Zxt4(5, 6),
      Cmp(CmpRel::kLt, 15, 14, 28, 16),
      Cmp(CmpRel::kGeu, 8, 9, 1, 2),
      CmpImm(CmpRel::kLe, 8, 0, 16, 0),
      MovToAr(AppReg::kLC, 8),
      MovToAr(AppReg::kEC, 9),
      MovFromAr(10, AppReg::kLC),
      MovToPrRot(1),
      ClrRrb(),
      Ld(8, 28, 27),
      Ld(4, 10, 9, LoadHint::kBias),
      Ld(2, 10, 9, LoadHint::kAcq),
      LdPostInc(8, 13, 11, 8),
      LdPostInc(4, 8, 26, 4),
      St(4, 9, 10),
      StPostInc(4, 27, 8, 4),
      St(8, 16, 27),
      Ldf(38, 33),
      LdfPostInc(32, 2, 8),
      Stf(40, 46),
      StfPostInc(29, 44, 8),
      Lfetch(43),
      Lfetch(43, LfetchHint{Temporal::kNt1, true, false}),
      Lfetch(43, LfetchHint{Temporal::kNta, false, true}),
      LfetchPostInc(28, 8, LfetchHint{Temporal::kNt2, true, true}),
      Fma(44, 6, 37, 43),
      Fms(13, 13, 6, 7),
      Fnma(10, 11, 12, 13),
      Fmov(44, 34),
      Fneg(9, 10),
      Fabs(11, 12),
      Frcpa(13, 14),
      Fsqrt(15, 15),
      Fmin(20, 21, 22),
      Fmax(8, 8, 10),
      Fcmp(FCmpRel::kLe, 8, 9, 15, 1),
      Setf(13, 9),
      Getf(9, 13),
      FcvtFx(10, 11),
      FcvtXf(12, 13),
      BrCond(8, -5),
      BrCloop(-3),
      BrCtop(-4),
      BrWtop(15, -2),
      Brl(0x40000130),
      Pred(16, LdfPostInc(32, 2, 8)),
      Pred(23, Stf(40, 46)),
      Pred(21, Fma(44, 6, 37, 43)),
  };
  return insts;
}

INSTANTIATE_TEST_SUITE_P(AllOpcodes, EncodeRoundTrip,
                         ::testing::ValuesIn(AllRepresentativeInstructions()));

// The representative set must stay in lockstep with the opcode enum: a new
// opcode without a round-trip sample here silently escapes every encode,
// decode, and disassembly test.
TEST(EncodeRoundTrip, RepresentativeSetCoversEveryOpcode) {
  std::array<bool, static_cast<std::size_t>(Opcode::kOpcodeCount)> seen{};
  for (const Instruction& inst : AllRepresentativeInstructions()) {
    seen[static_cast<std::size_t>(inst.op)] = true;
  }
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_TRUE(seen[i]) << "opcode enum value " << i
                         << " has no representative instruction";
  }
}

// Full-image round trip over every opcode: assemble the whole set into a
// BinaryImage, then decode each raw slot back and compare the disassembly
// text — the end-to-end path COBRA's patcher and tracer rely on.
TEST(BinaryImage, EveryOpcodeRoundTripsThroughAnImageToIdenticalText) {
  const std::vector<Instruction> insts = AllRepresentativeInstructions();
  BinaryImage image;
  for (std::size_t i = 0; i < insts.size(); i += 3) {
    auto at = [&insts](std::size_t j) {
      return j < insts.size() ? insts[j] : Nop();
    };
    image.AppendBundle(at(i), at(i + 1), at(i + 2));
  }
  std::size_t idx = 0;
  for (Addr bundle = image.code_base(); bundle < image.code_end();
       bundle += kBundleBytes) {
    for (unsigned slot = 0; slot < 3 && idx < insts.size(); ++slot, ++idx) {
      const Addr pc = MakePc(bundle, slot);
      EXPECT_EQ(image.Fetch(pc), insts[idx]) << Disassemble(insts[idx]);
      const std::string text = Disassemble(Decode(image.Raw(pc)));
      EXPECT_EQ(text, Disassemble(insts[idx]));
    }
  }
  EXPECT_EQ(idx, insts.size());
}

TEST(Encoding, ExclBitIsWhereThePatcherExpects) {
  LfetchHint plain;
  LfetchHint excl;
  excl.excl = true;
  const EncodedSlot a = Encode(Lfetch(43, plain));
  const EncodedSlot b = Encode(Lfetch(43, excl));
  EXPECT_EQ(a.head ^ b.head, enc::kExclBit);
  EXPECT_TRUE(IsLfetchHead(a.head));
  EXPECT_FALSE(LfetchExclOf(a.head));
  EXPECT_TRUE(LfetchExclOf(b.head));
}

TEST(Encoding, RejectsReservedBits) {
  EncodedSlot slot = Encode(Nop());
  slot.head |= 1ULL << 63;
  EXPECT_DEATH(Decode(slot), "reserved");
}

TEST(Encoding, RejectsInvalidOpcode) {
  EncodedSlot slot;
  slot.head = 0x7f;  // opcode field beyond kOpcodeCount
  EXPECT_DEATH(Decode(slot), "invalid opcode");
}

// --- Address helpers ----------------------------------------------------------

TEST(AddrHelpers, BundleAndSlotComposition) {
  const Addr bundle = 0x40000120;
  for (unsigned slot = 0; slot < 3; ++slot) {
    const Addr pc = MakePc(bundle, slot);
    EXPECT_EQ(BundleAddr(pc), bundle);
    EXPECT_EQ(SlotOf(pc), slot);
  }
}

// --- BinaryImage -----------------------------------------------------------------

TEST(BinaryImage, AppendAndFetch) {
  BinaryImage image(0x1000);
  const Addr b0 = image.AppendBundle(AddReg(3, 4, 5), Nop(), Break());
  EXPECT_EQ(b0, 0x1000u);
  EXPECT_EQ(image.NumBundles(), 1u);
  EXPECT_EQ(image.code_end(), 0x1010u);
  EXPECT_EQ(image.Fetch(MakePc(b0, 0)), AddReg(3, 4, 5));
  EXPECT_EQ(image.Fetch(MakePc(b0, 2)), Break());
}

TEST(BinaryImage, PatchReplacesSlotAndCounts) {
  BinaryImage image;
  const Addr b0 = image.AppendBundle(Nop(), Lfetch(43), Nop());
  EXPECT_EQ(image.patch_count(), 0u);
  image.Patch(MakePc(b0, 0), AddImm(8, 16, -1));
  EXPECT_EQ(image.Fetch(MakePc(b0, 0)), AddImm(8, 16, -1));
  EXPECT_EQ(image.patch_count(), 1u);
}

TEST(BinaryImage, SetLfetchExclTogglesOnlyTheHintBit) {
  BinaryImage image;
  const Addr b0 = image.AppendBundle(Nop(), Lfetch(43), Nop());
  const Addr pc = MakePc(b0, 1);
  const EncodedSlot before = image.Raw(pc);
  image.SetLfetchExcl(pc, true);
  EXPECT_EQ(image.Raw(pc).head, before.head | enc::kExclBit);
  EXPECT_TRUE(image.Fetch(pc).lf_hint.excl);
  image.SetLfetchExcl(pc, false);
  EXPECT_EQ(image.Raw(pc).head, before.head);
}

TEST(BinaryImage, SetLfetchExclRejectsNonLfetch) {
  BinaryImage image;
  const Addr b0 = image.AppendBundle(Nop(), Nop(), Nop());
  EXPECT_DEATH(image.SetLfetchExcl(MakePc(b0, 0), true), "lfetch");
}

TEST(BinaryImage, NopOutPlainLfetchBecomesNop) {
  BinaryImage image;
  const Addr b0 = image.AppendBundle(Nop(), Pred(16, Lfetch(43)), Nop());
  image.NopOutLfetch(MakePc(b0, 1));
  const Instruction inst = image.Fetch(MakePc(b0, 1));
  EXPECT_EQ(inst.op, Opcode::kNop);
  EXPECT_EQ(inst.qp, 16);  // predication preserved
}

TEST(BinaryImage, NopOutPostIncLfetchPreservesAddressStream) {
  BinaryImage image;
  const Addr b0 =
      image.AppendBundle(Nop(), Pred(16, LfetchPostInc(28, 8)), Nop());
  image.NopOutLfetch(MakePc(b0, 1));
  const Instruction inst = image.Fetch(MakePc(b0, 1));
  EXPECT_EQ(inst.op, Opcode::kAddImm);
  EXPECT_EQ(inst.r1, 28);
  EXPECT_EQ(inst.r2, 28);
  EXPECT_EQ(inst.imm, 8);
  EXPECT_EQ(inst.qp, 16);
}

TEST(BinaryImage, CodeCacheBoundary) {
  BinaryImage image;
  image.AppendBundle(Nop(), Nop(), Nop());
  const Addr boundary = image.BeginCodeCache();
  EXPECT_EQ(boundary, image.code_base() + kBundleBytes);
  const Addr trace = image.AppendBundle(Nop(), Nop(), Break());
  EXPECT_TRUE(image.InCodeCache(trace));
  EXPECT_FALSE(image.InCodeCache(image.code_base()));
}

TEST(BinaryImage, FetchOutOfRangeAborts) {
  BinaryImage image;
  image.AppendBundle(Nop(), Nop(), Nop());
  EXPECT_DEATH(image.Fetch(image.code_end()), "outside image");
}

TEST(BinaryImage, ExecPlanTracksPatches) {
  BinaryImage image;
  const Addr b0 = image.AppendBundle(Nop(), Lfetch(43), Nop());
  const std::uint64_t gen0 = image.plan_generation();
  EXPECT_GT(gen0, 0u);  // AppendBundle populated the plans

  // The lfetch slot's plan carries the routing classification the core's
  // segment loop tests instead of re-classifying the decoded instruction.
  const ExecPlan& lf = image.PlanAt(MakePc(b0, 1));
  EXPECT_EQ(lf.handler, static_cast<std::uint16_t>(Opcode::kLfetch));
  EXPECT_TRUE(lf.cls & kPlanMem);
  EXPECT_TRUE(lf.cls & kPlanLfetch);
  EXPECT_FALSE(lf.cls & kPlanExcl);

  // Patching a slot rebuilds its plan in the same call and bumps the
  // generation, so no consumer can observe a plan that predates the bits.
  const Addr pc = MakePc(b0, 0);
  image.Patch(pc, AddImm(8, 16, -1));
  EXPECT_GT(image.plan_generation(), gen0);
  const ExecPlan& plan = image.PlanAt(pc);
  EXPECT_EQ(plan.handler, static_cast<std::uint16_t>(Opcode::kAddImm));
  EXPECT_EQ(plan.imm, -1);
  EXPECT_EQ(plan.r1, 8);
  EXPECT_EQ(plan.r2, 16);
  EXPECT_EQ(plan.cls, 0);

  // The hint-bit patcher funnels through PatchRaw too.
  const std::uint64_t gen1 = image.plan_generation();
  image.SetLfetchExcl(MakePc(b0, 1), true);
  EXPECT_GT(image.plan_generation(), gen1);
  EXPECT_TRUE(image.PlanAt(MakePc(b0, 1)).cls & kPlanExcl);
}

TEST(BinaryImage, CorruptSlotMarksPlanStaleAndAborts) {
  BinaryImage image;
  const Addr b0 = image.AppendBundle(Nop(), Nop(), Nop());
  const Addr pc = MakePc(b0, 1);
  const std::uint64_t gen0 = image.plan_generation();

  EncodedSlot garbage = image.Raw(pc);
  garbage.head ^= 0xffff'ffffULL;
  image.TestOnlyCorruptSlot(pc, garbage);
  EXPECT_GT(image.plan_generation(), gen0);
  EXPECT_DEATH(image.Fetch(pc), "no longer match");
  EXPECT_DEATH(image.PlanAt(pc), "no longer match");
  // Untouched slots in the same image keep working.
  EXPECT_EQ(image.Fetch(MakePc(b0, 0)), Nop());

  // A valid re-patch heals the slot: decode, plan and staleness all agree.
  image.Patch(pc, AddImm(8, 16, 4));
  EXPECT_EQ(image.Fetch(pc), AddImm(8, 16, 4));
  EXPECT_EQ(image.PlanAt(pc).handler,
            static_cast<std::uint16_t>(Opcode::kAddImm));
}

// --- Assembler -----------------------------------------------------------------

TEST(Assembler, PacksThreeSlotsPerBundle) {
  BinaryImage image;
  Assembler a(&image);
  a.Emit(AddReg(3, 4, 5));
  a.Emit(AddReg(6, 7, 8));
  a.Emit(AddReg(9, 10, 11));
  a.Emit(AddReg(12, 13, 14));
  a.Finish();
  EXPECT_EQ(image.NumBundles(), 2u);  // second bundle padded with nops
  EXPECT_EQ(image.Fetch(MakePc(image.code_base() + 16, 1)).op, Opcode::kNop);
}

TEST(Assembler, BackwardBranchDisplacement) {
  BinaryImage image;
  Assembler a(&image);
  const auto loop = a.NewLabel();
  a.Bind(loop);
  a.Emit(AddImm(8, 8, 1));
  const Addr br_pc = a.EmitBranch(BrCloop(0), loop);
  a.Finish();
  EXPECT_EQ(SlotOf(br_pc), 2u);  // branches forced into slot 2
  const Instruction br = image.Fetch(br_pc);
  EXPECT_EQ(br.imm, 0);  // same bundle: the loop is one bundle long
}

TEST(Assembler, ForwardBranchDisplacement) {
  BinaryImage image;
  Assembler a(&image);
  const auto skip = a.NewLabel();
  const Addr br_pc = a.EmitBranch(BrCond(8, 0), skip);
  a.Emit(AddImm(8, 8, 1));  // skipped bundle
  a.FlushBundle();
  a.Bind(skip);
  a.Emit(Break());
  a.Finish();
  const Instruction br = image.Fetch(br_pc);
  EXPECT_EQ(br.imm, 2);  // branch bundle -> +2 bundles
}

TEST(Assembler, BrlGetsAbsoluteTarget) {
  BinaryImage image;
  Assembler a(&image);
  const auto target = a.NewLabel();
  a.EmitBranch(Brl(0), target);
  a.Bind(target);
  a.Emit(Break());
  a.Finish();
  const Instruction br = image.Fetch(MakePc(image.code_base(), 2));
  EXPECT_EQ(static_cast<Addr>(br.imm), image.code_base() + kBundleBytes);
}

TEST(Assembler, UnboundLabelAborts) {
  BinaryImage image;
  Assembler a(&image);
  const auto label = a.NewLabel();
  a.EmitBranch(BrCond(8, 0), label);
  EXPECT_DEATH(a.Finish(), "unbound");
}

TEST(Assembler, CurrentPcTracksOpenBundle) {
  BinaryImage image;
  Assembler a(&image);
  EXPECT_EQ(a.CurrentPc(), MakePc(image.code_base(), 0));
  a.Emit(Nop());
  EXPECT_EQ(a.CurrentPc(), MakePc(image.code_base(), 1));
  a.Emit(Nop());
  a.Emit(Nop());
  EXPECT_EQ(a.CurrentPc(), MakePc(image.code_base() + 16, 0));
}

// --- Disassembler -----------------------------------------------------------------

TEST(Disasm, MatchesItaniumSyntax) {
  EXPECT_EQ(Disassemble(Pred(16, LdfPostInc(32, 2, 8))),
            "(p16) ldfd f32=[r2],8");
  EXPECT_EQ(Disassemble(Pred(16, Lfetch(43))), "(p16) lfetch.nt1 [r43]");
  LfetchHint excl;
  excl.excl = true;
  EXPECT_EQ(Disassemble(Lfetch(43, excl)), "lfetch.excl.nt1 [r43]");
  EXPECT_EQ(Disassemble(Pred(21, Fma(44, 6, 37, 43))),
            "(p21) fma.d f44=f6,f37,f43");
  EXPECT_EQ(Disassemble(Pred(23, Stf(40, 46))), "(p23) stfd [r40]=f46");
  EXPECT_EQ(Disassemble(Ld(8, 28, 27, LoadHint::kBias)),
            "ld8.bias r28=[r27]");
  EXPECT_EQ(Disassemble(BrCtop(-3)), "br.ctop.sptk .b+(-3)");
  EXPECT_EQ(Disassemble(Break()), "break.b 0");
}

TEST(Disasm, RangeShowsBundles) {
  BinaryImage image;
  const Addr b0 = image.AppendBundle(Pred(16, Ldf(38, 33)),
                                     Pred(16, Lfetch(43)), Nop(Unit::kB));
  const std::string text = DisassembleRange(image, b0, image.code_end());
  EXPECT_NE(text.find("(p16) ldfd f38=[r33]"), std::string::npos);
  EXPECT_NE(text.find("lfetch.nt1 [r43]"), std::string::npos);
}

}  // namespace
}  // namespace cobra::isa
