// Checkpoint round-trip battery: a mid-run SaveCheckpoint must be
// invisible. The harness runs a sharing-heavy workload (chunked DAXPY plus
// a dot-product reduction whose per-thread partial slots share cache
// lines, so every protocol's dirty-sharing states are populated) and, at a
// quantum barrier mid-run, serializes the whole machine and restores it in
// place. The final fingerprint — every non-host registry metric, per-core
// timing/PC state and a hash of the data segment — must be bit-identical
// to a run that never paused, across both machine shapes and all four
// coherence protocols.
//
// The transplant tests restore a mid-run blob into a *freshly built*
// machine and finish the run there; the resave test requires a restored
// machine to save the very bytes it was restored from. The rejection tests
// feed corrupted, truncated, version-bumped, wrong-shape and hostile-count
// blobs to RestoreCheckpoint and assert it refuses without touching the
// target machine, and that a geometry mismatch names the refused field.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "kgen/emitters.h"
#include "kgen/program.h"
#include "machine/machine.h"
#include "mem/protocol.h"
#include "obs/registry.h"
#include "rt/team.h"
#include "support/snapshot.h"

namespace cobra {
namespace {

std::uint64_t TotalRetired(machine::Machine& m) {
  std::uint64_t total = 0;
  for (CpuId cpu = 0; cpu < m.num_cpus(); ++cpu) {
    total += m.core(cpu).instructions_retired();
  }
  return total;
}

// Everything a run can observe: global time, per-core timing state, the
// registry (caches, fabric, engine counters; host metrics excluded), and
// the architectural contents of [data_begin, data_end).
std::string Fingerprint(machine::Machine& m, mem::Addr data_begin,
                        mem::Addr data_end) {
  std::ostringstream out;
  out << "global_time=" << m.GlobalTime() << "\n";
  for (CpuId cpu = 0; cpu < m.num_cpus(); ++cpu) {
    const cpu::Core& core = m.core(cpu);
    out << "cpu" << cpu << " now=" << core.now() << " pc=" << core.pc()
        << " retired=" << core.instructions_retired() << "\n";
  }
  const obs::Snapshot snapshot = m.registry().Take();
  out << "registry_fp=" << snapshot.Fingerprint() << "\n"
      << snapshot.ToString();
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a
  for (mem::Addr a = data_begin; a < data_end; ++a) {
    h ^= m.memory().Read(a, 1);
    h *= 1099511628211ull;
  }
  out << "memhash=" << h << "\n";
  return out.str();
}

// The workload's program: DAXPY and a dot reduction over the same arrays.
struct Workload {
  kgen::LoopInfo daxpy;
  kgen::LoopInfo dot;
  mem::Addr x = 0;
  mem::Addr y = 0;
  mem::Addr partials = 0;  // one 8-byte slot per thread, deliberately
                           // adjacent: false sharing on every protocol
  mem::Addr data_end = 0;
};

constexpr std::int64_t kN = 8192;

Workload BuildWorkload(kgen::Program& prog, int threads) {
  Workload w;
  w.daxpy = EmitDaxpy(prog, "daxpy", kgen::PrefetchPolicy{});
  w.dot = EmitReduction(prog, "dot", kgen::ReduceOp::kDot,
                        kgen::PrefetchPolicy{});
  w.x = prog.Alloc(kN * 8);
  w.y = prog.Alloc(kN * 8);
  w.partials = prog.Alloc(static_cast<mem::Addr>(threads) * 8);
  w.data_end = w.partials + static_cast<mem::Addr>(threads) * 8;
  return w;
}

void InitData(machine::Machine& machine, const Workload& w) {
  for (std::int64_t i = 0; i < kN; ++i) {
    machine.memory().WriteDouble(w.x + 8 * static_cast<mem::Addr>(i), 1.0);
    machine.memory().WriteDouble(w.y + 8 * static_cast<mem::Addr>(i), 2.0);
  }
}

void RunRep(rt::Team& team, const Workload& w, int threads) {
  team.Run(w.daxpy.entry, [&](int tid, cpu::RegisterFile& regs) {
    const auto chunk = rt::StaticChunk(tid, threads, kN);
    regs.WriteGr(14, w.x + 8 * static_cast<mem::Addr>(chunk.begin));
    regs.WriteGr(15, w.y + 8 * static_cast<mem::Addr>(chunk.begin));
    regs.WriteGr(16, static_cast<std::uint64_t>(chunk.size()));
    regs.WriteFr(6, 0.5);
  });
  team.Run(w.dot.entry, [&](int tid, cpu::RegisterFile& regs) {
    const auto chunk = rt::StaticChunk(tid, threads, kN);
    regs.WriteGr(14, w.x + 8 * static_cast<mem::Addr>(chunk.begin));
    regs.WriteGr(15, w.y + 8 * static_cast<mem::Addr>(chunk.begin));
    regs.WriteGr(16, static_cast<std::uint64_t>(chunk.size()));
    regs.WriteGr(17, w.partials + 8 * static_cast<mem::Addr>(tid));
  });
}

constexpr int kReps = 4;
// Machine-wide retired-instruction threshold for the mid-run checkpoint;
// one DAXPY rep alone retires several times this, so every configuration
// checkpoints inside the first rep, mid-region.
constexpr std::uint64_t kCheckpointAt = 20000;

struct RunResult {
  std::string fingerprint;
  bool checkpoint_taken = false;
  std::vector<std::uint8_t> blob;  // the mid-run snapshot (empty if straight)
};

enum class Mode {
  kStraight,   // never pause
  kRoundTrip,  // save + restore in place at the barrier, then keep running
  kSaveOnly,   // save the blob at the barrier, keep running undisturbed
};

RunResult RunWorkload(machine::MachineConfig cfg, int threads, Mode mode) {
  kgen::Program prog;
  const Workload w = BuildWorkload(prog, threads);
  cfg.mem.memory_bytes = 1 << 23;
  machine::Machine machine(cfg, &prog.image());
  InitData(machine, w);

  RunResult result;
  int task = -1;
  if (mode != Mode::kStraight) {
    task = machine.AddRoundTask([&] {
      if (result.checkpoint_taken || TotalRetired(machine) < kCheckpointAt) {
        return;
      }
      result.checkpoint_taken = true;
      result.blob = machine.SaveCheckpoint();
      if (mode == Mode::kRoundTrip) {
        std::string error;
        EXPECT_TRUE(machine.RestoreCheckpoint(result.blob, &error)) << error;
      }
    });
  }

  rt::Team team(&machine, threads);
  for (int rep = 0; rep < kReps; ++rep) RunRep(team, w, threads);
  if (task >= 0) machine.RemoveRoundTask(task);
  result.fingerprint = Fingerprint(machine, w.x, w.data_end);
  return result;
}

constexpr mem::Protocol kAllProtocols[] = {
    mem::Protocol::kMesi, mem::Protocol::kMoesi, mem::Protocol::kDragon,
    mem::Protocol::kMesif};

// Mid-run save -> restore-in-place -> run-to-completion must equal a run
// that never paused, for every shape x protocol combination.
void RunRoundTripMatrix(const machine::MachineConfig& base, int threads) {
  for (const mem::Protocol protocol : kAllProtocols) {
    machine::MachineConfig cfg = base;
    cfg.mem.protocol = protocol;
    const RunResult straight = RunWorkload(cfg, threads, Mode::kStraight);
    const RunResult paused = RunWorkload(cfg, threads, Mode::kRoundTrip);
    ASSERT_TRUE(paused.checkpoint_taken)
        << mem::ProtocolName(protocol)
        << ": checkpoint threshold never reached";
    EXPECT_FALSE(paused.blob.empty());
    EXPECT_EQ(straight.fingerprint, paused.fingerprint)
        << "round-trip diverged under " << mem::ProtocolName(protocol);
  }
}

TEST(SnapshotRoundTrip, SmpAllProtocols) {
  RunRoundTripMatrix(machine::SmpServerConfig(4), 4);
}

TEST(SnapshotRoundTrip, NumaAllProtocols) {
  RunRoundTripMatrix(machine::AltixConfig(8), 8);
}

// A blob saved between parallel regions restores into a freshly built
// machine (same configuration, independently re-generated program) and the
// run finishes there — final state identical to the uninterrupted run.
TEST(SnapshotTransplant, ResumesInFreshMachine) {
  const machine::MachineConfig base = machine::SmpServerConfig(4);
  const int threads = 4;

  // Reference: all reps on one machine.
  const RunResult straight = RunWorkload(base, threads, Mode::kStraight);

  // First half on the donor machine.
  kgen::Program donor_prog;
  const Workload donor_w = BuildWorkload(donor_prog, threads);
  machine::MachineConfig cfg = base;
  cfg.mem.memory_bytes = 1 << 23;
  machine::Machine donor(cfg, &donor_prog.image());
  InitData(donor, donor_w);
  rt::Team donor_team(&donor, threads);
  for (int rep = 0; rep < kReps / 2; ++rep) RunRep(donor_team, donor_w, threads);
  const std::vector<std::uint8_t> blob = donor.SaveCheckpoint();

  // Second half on a fresh machine: kgen emission is deterministic, so the
  // regenerated program has the same layout the blob's image section
  // expects.
  kgen::Program fresh_prog;
  const Workload fresh_w = BuildWorkload(fresh_prog, threads);
  machine::Machine fresh(cfg, &fresh_prog.image());
  std::string error;
  ASSERT_TRUE(fresh.RestoreCheckpoint(blob, &error)) << error;
  rt::Team fresh_team(&fresh, threads);
  for (int rep = kReps / 2; rep < kReps; ++rep) RunRep(fresh_team, fresh_w, threads);

  EXPECT_EQ(straight.fingerprint,
            Fingerprint(fresh, fresh_w.x, fresh_w.data_end));
}

// A blob saved *mid-region* (at a quantum barrier inside a parallel
// region) transplants too: the fresh machine's cores resume from their
// checkpointed PCs under RunUntilAllHalted, then the remaining reps run
// normally. Matches the straight serial run exactly.
TEST(SnapshotTransplant, ResumesMidRegionInFreshMachine) {
  const machine::MachineConfig base = machine::SmpServerConfig(4);
  const int threads = 4;

  const RunResult straight = RunWorkload(base, threads, Mode::kStraight);
  const RunResult saved = RunWorkload(base, threads, Mode::kSaveOnly);
  ASSERT_TRUE(saved.checkpoint_taken);

  kgen::Program prog;
  const Workload w = BuildWorkload(prog, threads);
  machine::MachineConfig cfg = base;
  cfg.mem.memory_bytes = 1 << 23;
  machine::Machine fresh(cfg, &prog.image());
  std::string error;
  ASSERT_TRUE(fresh.RestoreCheckpoint(saved.blob, &error)) << error;

  // Finish the interrupted region (cores hold their mid-loop PCs), then
  // run the remaining reps. The checkpoint lands inside rep 0's DAXPY
  // region (see kCheckpointAt), so the dot of rep 0 plus reps 1..3 remain.
  std::vector<CpuId> active;
  for (CpuId cpu = 0; cpu < threads; ++cpu) active.push_back(cpu);
  fresh.RunUntilAllHalted(active);
  rt::Team team(&fresh, threads);
  team.Run(w.dot.entry, [&](int tid, cpu::RegisterFile& regs) {
    const auto chunk = rt::StaticChunk(tid, threads, kN);
    regs.WriteGr(14, w.x + 8 * static_cast<mem::Addr>(chunk.begin));
    regs.WriteGr(15, w.y + 8 * static_cast<mem::Addr>(chunk.begin));
    regs.WriteGr(16, static_cast<std::uint64_t>(chunk.size()));
    regs.WriteGr(17, w.partials + 8 * static_cast<mem::Addr>(tid));
  });
  for (int rep = 1; rep < kReps; ++rep) RunRep(team, w, threads);

  EXPECT_EQ(straight.fingerprint, Fingerprint(fresh, w.x, w.data_end));
}

// A restored machine saves exactly the bytes it was restored from. This
// covers state the registry fingerprint never sees (LRU stamps, fill
// times, the BTB ring, the DEAR record, directory owners), which a slip in
// one component's field list would otherwise corrupt silently.
TEST(SnapshotRoundTrip, ResaveIsByteIdentical) {
  const std::pair<machine::MachineConfig, int> shapes[] = {
      {machine::SmpServerConfig(4), 4}, {machine::AltixConfig(8), 8}};
  for (const auto& [base, threads] : shapes) {
    const RunResult saved = RunWorkload(base, threads, Mode::kSaveOnly);
    ASSERT_TRUE(saved.checkpoint_taken);

    kgen::Program prog;
    BuildWorkload(prog, threads);
    machine::MachineConfig cfg = base;
    cfg.mem.memory_bytes = 1 << 23;
    machine::Machine fresh(cfg, &prog.image());
    std::string error;
    ASSERT_TRUE(fresh.RestoreCheckpoint(saved.blob, &error)) << error;
    EXPECT_TRUE(fresh.SaveCheckpoint() == saved.blob)
        << threads << "-CPU machine re-saved different bytes";
  }
}

// --- Rejection: damaged or mismatched blobs must not touch the machine ---

class SnapshotRejection : public ::testing::Test {
 protected:
  void SetUp() override {
    const RunResult saved =
        RunWorkload(machine::SmpServerConfig(4), 4, Mode::kSaveOnly);
    ASSERT_TRUE(saved.checkpoint_taken);
    blob_ = saved.blob;

    prog_ = std::make_unique<kgen::Program>();
    workload_ = BuildWorkload(*prog_, 4);
    machine::MachineConfig cfg = machine::SmpServerConfig(4);
    cfg.mem.memory_bytes = 1 << 23;
    target_ = std::make_unique<machine::Machine>(cfg, &prog_->image());
    InitData(*target_, workload_);
    before_ = Fingerprint(*target_, workload_.x, workload_.data_end);
  }

  // The restore must fail with a diagnostic and leave the target machine
  // bit-identical — and still able to run the workload to completion.
  void ExpectRejected(const std::vector<std::uint8_t>& blob,
                      const std::string& error_substring) {
    std::string error;
    EXPECT_FALSE(target_->RestoreCheckpoint(blob, &error));
    EXPECT_NE(error.find(error_substring), std::string::npos)
        << "error was: " << error;
    EXPECT_EQ(before_, Fingerprint(*target_, workload_.x, workload_.data_end));
    rt::Team team(target_.get(), 4);
    RunRep(team, workload_, 4);
    EXPECT_GT(TotalRetired(*target_), 0u);
  }

  std::vector<std::uint8_t> blob_;
  std::unique_ptr<kgen::Program> prog_;
  Workload workload_;
  std::unique_ptr<machine::Machine> target_;
  std::string before_;
};

TEST_F(SnapshotRejection, CorruptedPayloadByte) {
  std::vector<std::uint8_t> bad = blob_;
  bad[bad.size() / 2] ^= 0xff;
  ExpectRejected(bad, "checksum");
}

TEST_F(SnapshotRejection, TruncatedBlob) {
  std::vector<std::uint8_t> bad = blob_;
  bad.resize(bad.size() - 9);
  ExpectRejected(bad, "truncated");
}

TEST_F(SnapshotRejection, EmptyBlob) {
  ExpectRejected({}, "truncated");
}

TEST_F(SnapshotRejection, BadMagic) {
  std::vector<std::uint8_t> bad = blob_;
  bad[0] ^= 0xff;
  ExpectRejected(bad, "magic");
}

TEST_F(SnapshotRejection, VersionMismatch) {
  // Layout: [magic u64][format_version u32] — the header sits outside the
  // checksum, so bumping the version exercises the version gate itself.
  std::vector<std::uint8_t> bad = blob_;
  bad[8] = static_cast<std::uint8_t>(support::kSnapshotFormatVersion + 1);
  ExpectRejected(bad, "version");
}

TEST_F(SnapshotRejection, WrongProtocolShape) {
  // A MESI SMP blob aimed at a MOESI machine of the same geometry: the
  // shape gate rejects before any state is mutated.
  machine::MachineConfig cfg = machine::SmpServerConfig(4);
  cfg.mem.memory_bytes = 1 << 23;
  cfg.mem.protocol = mem::Protocol::kMoesi;
  kgen::Program prog;
  const Workload w = BuildWorkload(prog, 4);
  machine::Machine moesi(cfg, &prog.image());
  InitData(moesi, w);
  const std::string before = Fingerprint(moesi, w.x, w.data_end);
  std::string error;
  EXPECT_FALSE(moesi.RestoreCheckpoint(blob_, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_EQ(before, Fingerprint(moesi, w.x, w.data_end));
}

TEST_F(SnapshotRejection, WrongGeometryShape) {
  // Same protocol, different CPU count and fabric (the NUMA host).
  machine::MachineConfig cfg = machine::AltixConfig(8);
  cfg.mem.memory_bytes = 1 << 23;
  kgen::Program prog;
  const Workload w = BuildWorkload(prog, 8);
  machine::Machine numa(cfg, &prog.image());
  InitData(numa, w);
  const std::string before = Fingerprint(numa, w.x, w.data_end);
  std::string error;
  EXPECT_FALSE(numa.RestoreCheckpoint(blob_, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_EQ(before, Fingerprint(numa, w.x, w.data_end));
}

TEST_F(SnapshotRejection, ImageSlotCountBeyondSection) {
  // A well-formed blob whose image section claims 3 * 2^60 slots: more than
  // the section (or any host) could hold. The count alone is refused, before
  // anything is allocated or mutated.
  std::uint32_t cpus = 4;
  auto fabric = static_cast<std::uint8_t>(machine::FabricKind::kSnoopBus);
  auto protocol = static_cast<std::uint8_t>(mem::Protocol::kMesi);
  std::uint64_t code_base = prog_->image().code_base();
  std::uint64_t cache_start = code_base;
  std::uint64_t slots = 3ull << 60;
  support::StateWriter w;
  w.BeginSection("machine");
  w.U32(cpus);
  w.U8(fabric);
  w.U8(protocol);
  w.EndSection();
  w.BeginSection("image");
  w.U64(code_base);
  w.U64(cache_start);
  w.U64(slots);
  w.EndSection();
  ExpectRejected(w.Finish(), "image");
}

TEST_F(SnapshotRejection, CacheGeometryNamesRefusedField) {
  // A default-SMP4 blob aimed at an SMP4 machine with a 1.5 MB L3 (1024 L3
  // sets instead of 2048) passes the shape gate; the refusal must name the
  // section and the field that differs, with both values. The sections
  // before stack0 are already rewritten by then, so the machine is not
  // checked for being untouched here.
  machine::MachineConfig cfg = machine::SmpServerConfig(4);
  cfg.mem.memory_bytes = 1 << 23;
  cfg.mem.l3.size_bytes = 3 * 512 * 1024;
  kgen::Program prog;
  BuildWorkload(prog, 4);
  machine::Machine small(cfg, &prog.image());
  std::string error;
  EXPECT_FALSE(small.RestoreCheckpoint(blob_, &error));
  for (const char* part : {"stack0", "L3 sets", "2048", "1024"}) {
    EXPECT_NE(error.find(part), std::string::npos)
        << "missing '" << part << "' in: " << error;
  }
}

// --- StateWriter/StateReader protocol-level checks -----------------------

TEST(SnapshotFormat, PrimitivesRoundTripThroughNestedSections) {
  std::uint8_t u8 = 0x5a;
  std::uint32_t u32 = 0xdeadbeef;
  std::uint64_t u64 = 0x0123456789abcdefull;
  std::int64_t i64 = -42;
  double f64 = 3.25;
  bool b = true;
  char bytes[] = "nested sections";
  std::uint64_t seven = 7;
  support::StateWriter w;
  w.BeginSection("outer");
  w.U8(u8);
  w.U32(u32);
  w.U64(u64);
  w.I64(i64);
  w.F64(f64);
  w.Bool(b);
  w.Bytes(bytes, sizeof bytes);
  w.BeginSection("inner");
  w.U64(seven);
  w.EndSection();
  w.EndSection();
  const std::vector<std::uint8_t> blob = w.Finish();

  u8 = 0;
  u32 = 0;
  u64 = 0;
  i64 = 0;
  f64 = 0.0;
  b = false;
  char read_bytes[sizeof bytes] = {};
  seven = 0;
  support::StateReader r;
  ASSERT_TRUE(r.Open(blob)) << r.error();
  ASSERT_TRUE(r.BeginSection("outer"));
  EXPECT_TRUE(r.U8(u8));
  EXPECT_TRUE(r.U32(u32));
  EXPECT_TRUE(r.U64(u64));
  EXPECT_TRUE(r.I64(i64));
  EXPECT_TRUE(r.F64(f64));
  EXPECT_TRUE(r.Bool(b));
  EXPECT_TRUE(r.Bytes(read_bytes, sizeof read_bytes));
  EXPECT_EQ(u8, 0x5a);
  EXPECT_EQ(u32, 0xdeadbeefu);
  EXPECT_EQ(u64, 0x0123456789abcdefull);
  EXPECT_EQ(i64, -42);
  EXPECT_EQ(f64, 3.25);
  EXPECT_TRUE(b);
  EXPECT_STREQ(read_bytes, "nested sections");
  ASSERT_TRUE(r.BeginSection("inner"));
  EXPECT_TRUE(r.U64(seven));
  EXPECT_EQ(seven, 7u);
  EXPECT_TRUE(r.EndSection());
  EXPECT_TRUE(r.EndSection());
  EXPECT_TRUE(r.AtEnd());
}

TEST(SnapshotFormat, SectionNameMismatchFails) {
  std::uint64_t one = 1;
  support::StateWriter w;
  w.BeginSection("alpha");
  w.U64(one);
  w.EndSection();
  const std::vector<std::uint8_t> blob = w.Finish();

  support::StateReader r;
  ASSERT_TRUE(r.Open(blob));
  EXPECT_FALSE(r.BeginSection("beta"));
  EXPECT_NE(r.error().find("section mismatch"), std::string::npos);
}

TEST(SnapshotFormat, UnderConsumedSectionFailsOnExit) {
  std::uint64_t one = 1;
  std::uint64_t two = 2;
  support::StateWriter w;
  w.BeginSection("alpha");
  w.U64(one);
  w.U64(two);
  w.EndSection();
  const std::vector<std::uint8_t> blob = w.Finish();

  support::StateReader r;
  ASSERT_TRUE(r.Open(blob));
  ASSERT_TRUE(r.BeginSection("alpha"));
  std::uint64_t v = 0;
  EXPECT_TRUE(r.U64(v));
  EXPECT_FALSE(r.EndSection());  // one u64 still unread
  EXPECT_FALSE(r.Ok());
}

}  // namespace
}  // namespace cobra
