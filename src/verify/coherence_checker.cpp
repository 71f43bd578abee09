#include "verify/coherence_checker.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <utility>

#include "support/check.h"

namespace cobra::verify {

namespace {
std::string& ContextSlot() {
  thread_local std::string context;
  return context;
}
}  // namespace

void SetFailureContext(std::string context) {
  ContextSlot() = std::move(context);
}

const std::string& FailureContext() { return ContextSlot(); }

CoherenceChecker::CoherenceChecker(mem::MainMemory* memory,
                                   mem::CoherenceFabric* inner,
                                   const mem::DirectoryFabric* directory,
                                   Options opts)
    : memory_(memory), inner_(inner), dir_(directory), opts_(opts) {
  COBRA_CHECK(memory != nullptr);
  COBRA_CHECK(inner != nullptr);
  COBRA_CHECK(opts_.sweep_every >= 1);
}

void CoherenceChecker::AttachStacks(std::vector<mem::CacheStack*> stacks) {
  COBRA_CHECK_MSG(stacks.size() <= 32, "sharer bitmask is 32 bits wide");
  stacks_ = stacks;
  per_cpu_.assign(stacks_.size(), PerCpuStats{});
  if (!stacks_.empty()) {
    line_bytes_ = stacks_[0]->config().l2.line_bytes;
    l1_line_bytes_ = stacks_[0]->config().l1.line_bytes;
    policy_ = &stacks_[0]->policy();
  }
  inner_->AttachStacks(std::move(stacks));
}

void CoherenceChecker::SyncShadow() {
  shadow_.resize(memory_->size());
  std::memcpy(shadow_.data(), memory_->raw(), shadow_.size());
}

void CoherenceChecker::Journal(mem::Addr line_addr) {
  for (int i = 0; i < journal_size_; ++i) {
    if (journal_[static_cast<std::size_t>(i)] == line_addr) return;
  }
  COBRA_CHECK_MSG(journal_size_ < kJournalCap,
                  "checker journal overflow (memory op never settled?)");
  journal_[static_cast<std::size_t>(journal_size_++)] = line_addr;
}

std::string CoherenceChecker::DescribeLine(mem::Addr line_addr) const {
  std::ostringstream out;
  for (std::size_t i = 0; i < stacks_.size(); ++i) {
    const mem::Mesi l3 = stacks_[i]->LineState(line_addr);
    out << "cpu" << i << "=" << mem::MesiName(l3);
    if (const auto* l2 = stacks_[i]->l2().Probe(line_addr)) {
      out << "(l2=" << mem::MesiName(l2->state) << ")";
    }
    out << " ";
  }
  if (dir_ != nullptr) {
    if (const auto* e = dir_->Lookup(line_addr)) {
      out << "dir{owner=" << e->owner << " sharers=0x" << std::hex
          << e->sharers << std::dec << "}";
    } else {
      out << "dir{none}";
    }
  }
  return out.str();
}

void CoherenceChecker::Fail(const char* invariant, mem::Addr line_addr,
                            const std::string& detail) const {
  std::fprintf(stderr,
               "[cobra-verify] coherence invariant violated: %s\n"
               "  line 0x%" PRIx64 ": %s\n"
               "  states: %s\n",
               invariant, static_cast<std::uint64_t>(line_addr),
               detail.c_str(), DescribeLine(line_addr).c_str());
  if (!FailureContext().empty()) {
    std::fprintf(stderr, "  replay: %s\n", FailureContext().c_str());
  }
  std::abort();
}

mem::FabricResult CoherenceChecker::Request(CpuId cpu, mem::BusOp op,
                                            mem::Addr line_addr, Cycle now) {
  using mem::BusOp;
  using mem::Mesi;
  using mem::SnoopOutcome;

  const auto mine = stacks_[static_cast<std::size_t>(cpu)];
  const Mesi pre_mine = mine->LineState(line_addr);
  bool any_excl = false;   // M/E elsewhere
  bool any_dirty = false;  // M/O/Sm elsewhere: a snoop would supply HITM
  bool any_copy = false;
  for (std::size_t i = 0; i < stacks_.size(); ++i) {
    if (static_cast<CpuId>(i) == cpu) continue;
    const Mesi s = stacks_[i]->LineState(line_addr);
    any_excl |= mem::CohWritable(s);
    any_dirty |= mem::CohDirty(s);
    any_copy |= mem::CohValid(s);
  }

  // Transaction legality: an update-based protocol (Dragon) never issues
  // read-for-ownership or invalidation rounds, and an invalidation
  // protocol never broadcasts updates.
  const bool rfo_op = op == BusOp::kReadExcl || op == BusOp::kReadExclHint ||
                      op == BusOp::kUpgrade;
  if (policy_->update_based() ? rfo_op : op == BusOp::kUpdate) {
    Fail("protocol-op", line_addr,
         std::string("bus op \"") + mem::BusOpName(op) +
             "\" is illegal under protocol " + policy_->name());
  }

  // Requester pre-state: every miss-path transaction (including the
  // writeback of a victim, which Insert has already replaced) starts with
  // the requester holding no copy; an upgrade starts from a shared-class
  // state (S, or MOESI's O / MESIF's F); an update broadcast starts from a
  // Dragon shared copy (Sc/Sm).
  switch (op) {
    case BusOp::kRead:
    case BusOp::kReadExcl:
    case BusOp::kReadExclHint:
      if (pre_mine != Mesi::kI) {
        Fail("requester-state", line_addr,
             "miss-path request for a line the requester still holds");
      }
      break;
    case BusOp::kUpgrade:
      if (!mem::CohValid(pre_mine) || mem::CohWritable(pre_mine)) {
        Fail("requester-state", line_addr,
             "upgrade request from a line not held in a shared-class "
             "state");
      }
      if (any_excl) {
        Fail("single-writer", line_addr,
             "requester holds the line shared while it is "
             "Exclusive/Modified elsewhere");
      }
      break;
    case BusOp::kUpdate:
      if (pre_mine != Mesi::kSc && pre_mine != Mesi::kSm) {
        Fail("requester-state", line_addr,
             "update broadcast from a line the requester does not hold "
             "shared (Sc/Sm)");
      }
      if (any_excl) {
        Fail("update-delivery", line_addr,
             "update broadcast while the line is Exclusive/Modified "
             "elsewhere");
      }
      break;
    case BusOp::kWriteback:
      if (pre_mine != Mesi::kI) {
        Fail("requester-state", line_addr,
             "writeback of a line still resident in the requester");
      }
      // MESI/MESIF write back only M victims, which exclude every other
      // copy. MOESI's O and Dragon's Sm victims legitimately leave S/Sc
      // copies behind — but never another dirty or exclusive copy.
      if (policy_->dirty_share_on_read() ? (any_excl || any_dirty)
                                         : any_copy) {
        Fail("single-owner-of-dirty", line_addr,
             "writeback of a dirty victim while an incompatible copy "
             "survives elsewhere");
      }
      // A dirty victim leaving the caches must carry exactly the bytes the
      // commit-order store sequence produced.
      DiffShadow(line_addr, line_bytes_, "dirty-victim writeback");
      break;
  }

  const mem::FabricResult r = inner_->Request(cpu, op, line_addr, now);
  ++transactions_;

  // Snoop outcome and granted state must match the pre-transaction states
  // the checker just observed. The rules below hold for both fabrics; the
  // one place they legitimately differ (an honoured exclusive-prefetch
  // hint over clean remote copies reports kHit on the bus but kMiss from
  // the directory) is asserted only as far as both agree.
  const Mesi shared_grant = policy_->read_grant_shared();
  switch (op) {
    case BusOp::kRead:
      if (any_dirty) {
        if (r.snoop != SnoopOutcome::kHitM || r.grant != shared_grant) {
          Fail("snoop-response", line_addr,
               "read with a dirty copy elsewhere must report HITM and "
               "grant the protocol's shared state");
        }
      } else if (any_copy) {
        if (r.snoop != SnoopOutcome::kHit || r.grant != shared_grant) {
          Fail("snoop-response", line_addr,
               "read with clean copies elsewhere must report HIT and grant "
               "the protocol's shared state");
        }
      } else if (r.snoop != SnoopOutcome::kMiss || r.grant != Mesi::kE) {
        Fail("snoop-response", line_addr,
             "read of an uncached line must report MISS and grant "
             "Exclusive");
      }
      break;
    case BusOp::kReadExcl:
      if (r.grant != Mesi::kE) {
        Fail("fabric-grant", line_addr,
             "read-for-ownership must grant Exclusive");
      }
      if (r.snoop != (any_dirty ? SnoopOutcome::kHitM : SnoopOutcome::kMiss)) {
        Fail("snoop-response", line_addr,
             "read-for-ownership snoop outcome inconsistent with remote "
             "dirty state");
      }
      break;
    case BusOp::kReadExclHint:
      if (any_dirty) {
        // Hint not honoured: degrades to a read, owner downgrades.
        if (r.snoop != SnoopOutcome::kHitM || r.grant != shared_grant) {
          Fail("snoop-response", line_addr,
               "exclusive-prefetch hint against a dirty remote line must "
               "degrade to a shared read reporting HITM");
        }
      } else {
        if (r.grant != Mesi::kE) {
          Fail("fabric-grant", line_addr,
               "honoured exclusive-prefetch hint must grant Exclusive");
        }
        if (r.snoop == SnoopOutcome::kHitM) {
          Fail("snoop-response", line_addr,
               "exclusive-prefetch hint reported HITM with no dirty copy");
        }
        if (!any_copy && r.snoop != SnoopOutcome::kMiss) {
          Fail("snoop-response", line_addr,
               "exclusive-prefetch hint of an uncached line must report "
               "MISS");
        }
      }
      break;
    case BusOp::kUpgrade:
      if (r.grant != Mesi::kE) {
        Fail("fabric-grant", line_addr, "upgrade must grant Exclusive");
      }
      // MOESI may retire a dirty-shared (O) copy in the invalidation
      // round — that reports HITM. With no dirty copy out there, HITM
      // would mean the requester held shared next to a Modified line.
      if ((r.snoop == SnoopOutcome::kHitM) != any_dirty) {
        Fail("snoop-response", line_addr,
             "upgrade snoop outcome inconsistent with remote dirty state");
      }
      break;
    case BusOp::kUpdate:
      if (r.grant != (any_copy ? Mesi::kSm : Mesi::kM)) {
        Fail("update-delivery", line_addr,
             "update broadcast must grant Sm while other copies remain "
             "and M once the updater holds the last copy");
      }
      if (r.snoop != (any_copy ? SnoopOutcome::kHit : SnoopOutcome::kMiss)) {
        Fail("snoop-response", line_addr,
             "update broadcast snoop outcome inconsistent with remote "
             "copies");
      }
      break;
    case BusOp::kWriteback:
      break;
  }

  // Post-transaction states of the *other* stacks (the requester installs
  // its copy only after this returns; its line settles via OnOpSettled).
  if (op != BusOp::kWriteback) {
    for (std::size_t i = 0; i < stacks_.size(); ++i) {
      if (static_cast<CpuId>(i) == cpu) continue;
      const Mesi post = stacks_[i]->LineState(line_addr);
      if (mem::CohWritable(r.grant) && post != Mesi::kI) {
        // kE from an RFO/upgrade, or kM from a last-copy update: the
        // requester was promised sole ownership.
        Fail("fabric-grant", line_addr,
             "exclusive ownership granted but another cache still holds "
             "the line");
      }
      if (!mem::CohWritable(r.grant) && mem::CohWritable(post)) {
        Fail("fabric-grant", line_addr,
             "shared state granted but another cache still holds the line "
             "exclusively");
      }
      if (op == BusOp::kUpdate && mem::CohValid(post) &&
          post != Mesi::kSc) {
        Fail("update-delivery", line_addr,
             "a remote copy survived an update broadcast in a state other "
             "than clean-shared (Sc)");
      }
    }
  }

  Journal(line_addr);
  return r;
}

void CoherenceChecker::EvictNotify(CpuId cpu, mem::Addr line_addr) {
  if (stacks_[static_cast<std::size_t>(cpu)]->LineState(line_addr) !=
      mem::Mesi::kI) {
    Fail("requester-state", line_addr,
         "clean-eviction notice for a line still resident in the evictor");
  }
  inner_->EvictNotify(cpu, line_addr);
  if (dir_ != nullptr) {
    if (const auto* e = dir_->Lookup(line_addr)) {
      if ((e->sharers & (1u << cpu)) != 0 || e->owner == cpu) {
        Fail("directory-stale-entry", line_addr,
             "directory still names an evictor that notified its clean "
             "eviction");
      }
    }
  }
  Journal(line_addr);
}

void CoherenceChecker::OnLoad(CpuId cpu, mem::Addr addr, int size,
                              std::uint64_t value) {
  COBRA_CHECK(addr + static_cast<mem::Addr>(size) <= shadow_.size());
  std::uint64_t oracle = 0;
  std::memcpy(&oracle, shadow_.data() + addr, static_cast<std::size_t>(size));
  if (value != oracle) {
    std::ostringstream detail;
    detail << "cpu" << cpu << " load of " << size << " bytes at 0x" << std::hex
           << addr << " returned 0x" << value
           << " but the sequentially-consistent oracle holds 0x" << oracle;
    Fail("golden-memory", addr & ~(line_bytes_ - 1), detail.str());
  }
  ++per_cpu_[static_cast<std::size_t>(cpu)].loads;
}

void CoherenceChecker::OnStore(CpuId cpu, mem::Addr addr, int size,
                               std::uint64_t value) {
  COBRA_CHECK(addr + static_cast<mem::Addr>(size) <= shadow_.size());
  std::memcpy(shadow_.data() + addr, &value, static_cast<std::size_t>(size));
  ++per_cpu_[static_cast<std::size_t>(cpu)].stores;
}

void CoherenceChecker::OnOpSettled(CpuId cpu) {
  (void)cpu;
  if (journal_size_ == 0) return;  // core-private op: no fabric traffic
  for (int i = 0; i < journal_size_; ++i) {
    CheckLineSettled(journal_[static_cast<std::size_t>(i)]);
  }
  journal_size_ = 0;
}

void CoherenceChecker::CheckLineSettled(mem::Addr line_addr) {
  using mem::Mesi;
  ++lines_settled_;

  int owners = 0;        // M/E holders
  int dirty_owners = 0;  // M/O/Sm holders (copies newer than memory)
  int forwarders = 0;    // MESIF F holders
  int sm_copies = 0;     // Dragon Sm holders
  // The *responsible* copy: the one the fabric forwards requests to and
  // that (when dirty) owes memory the writeback — M/E plus O/F/Sm.
  int responsible = -1;
  int responsibles = 0;
  int valid_copies = 0;
  std::uint32_t holder_mask = 0;
  for (std::size_t i = 0; i < stacks_.size(); ++i) {
    const mem::CacheStack& stack = *stacks_[i];
    const Mesi l3 = stack.LineState(line_addr);
    if (!policy_->LegalState(l3)) {
      std::ostringstream detail;
      detail << "cpu" << i << " holds state " << mem::CohStateName(l3)
             << ", which does not exist under protocol " << policy_->name();
      Fail("protocol-state", line_addr, detail.str());
    }
    if (mem::CohWritable(l3)) ++owners;
    if (mem::CohDirty(l3)) ++dirty_owners;
    if (l3 == Mesi::kF) ++forwarders;
    if (l3 == Mesi::kSm) ++sm_copies;
    if (mem::CohWritable(l3) || l3 == Mesi::kO || l3 == Mesi::kF ||
        l3 == Mesi::kSm) {
      ++responsibles;
      responsible = static_cast<int>(i);
    }
    if (mem::CohValid(l3)) {
      ++valid_copies;
      holder_mask |= 1u << i;
    }

    // Intra-stack lockstep: an L2 copy mirrors the L3 state (inclusion
    // keeps the pair in sync), and L1 presence implies an L3 copy.
    if (const auto* l2 = stack.l2().Probe(line_addr)) {
      if (l2->state != l3) {
        std::ostringstream detail;
        detail << "cpu" << i << " holds L2=" << mem::MesiName(l2->state)
               << " but L3=" << mem::MesiName(l3);
        Fail("cache-lockstep", line_addr, detail.str());
      }
    }
    for (mem::Addr sub = line_addr; sub < line_addr + line_bytes_;
         sub += l1_line_bytes_) {
      if (stack.PresentInL1(sub) && l3 == Mesi::kI) {
        std::ostringstream detail;
        detail << "cpu" << i << " holds 0x" << std::hex << sub
               << " in L1 without an L3 copy of its coherence line";
        Fail("l1-inclusion", line_addr, detail.str());
      }
    }
  }

  if (owners > 1) {
    Fail("single-writer", line_addr,
         "more than one cache holds the line Exclusive/Modified");
  }
  if (owners == 1 && valid_copies > 1) {
    // Under Dragon this is specifically a missed update: a writer may hold
    // M/E only while it owns the sole copy, otherwise every store must
    // have been broadcast to the other holders.
    Fail(policy_->update_based() ? "no-stale-copy" : "single-writer",
         line_addr, "an Exclusive/Modified copy coexists with other copies");
  }
  if (sm_copies > 1) {
    Fail("update-delivery", line_addr,
         "more than one cache holds the line Sm (two writers both believe "
         "they own the dirty shared copy)");
  }
  if (dirty_owners > 1) {
    Fail("single-owner-of-dirty", line_addr,
         "more than one cache holds a dirty (M/O/Sm) copy of the line");
  }
  if (forwarders > 1) {
    Fail("exactly-one-forwarder", line_addr,
         "more than one cache holds the line in Forward state");
  }

  if (dir_ != nullptr) {
    const auto* e = dir_->Lookup(line_addr);
    const int expect_owner = responsibles == 1 ? responsible : -1;
    if (holder_mask == 0) {
      if (e != nullptr && (e->sharers != 0 || e->owner >= 0)) {
        Fail("directory-stale-entry", line_addr,
             "directory entry survives with no cache holding the line");
      }
    } else {
      if (e == nullptr) {
        Fail("directory-sharers", line_addr,
             "cached line has no home-directory entry");
      }
      if (e->sharers != holder_mask) {
        std::ostringstream detail;
        detail << "directory sharer vector 0x" << std::hex << e->sharers
               << " != caches actually holding the line 0x" << holder_mask;
        Fail("directory-sharers", line_addr, detail.str());
      }
      if (e->owner != expect_owner) {
        std::ostringstream detail;
        detail << "directory owner " << e->owner
               << " != actual responsible (M/E/O/F/Sm) holder "
               << expect_owner;
        Fail("directory-owner", line_addr, detail.str());
      }
    }
  }
}

void CoherenceChecker::DiffShadow(mem::Addr addr, std::size_t bytes,
                                  const char* what) {
  if (shadow_.empty()) return;  // no snapshot yet (no engine run started)
  const mem::Addr end =
      std::min<mem::Addr>(addr + bytes, static_cast<mem::Addr>(shadow_.size()));
  const std::uint8_t* real = memory_->raw();
  for (mem::Addr a = addr; a < end; ++a) {
    if (shadow_[a] != real[a]) {
      std::ostringstream detail;
      detail << what << ": functional memory byte at 0x" << std::hex << a
             << " is 0x" << static_cast<int>(real[a])
             << " but the sequentially-consistent oracle holds 0x"
             << static_cast<int>(shadow_[a]);
      Fail("golden-memory", addr & ~(line_bytes_ - 1), detail.str());
    }
  }
}

void CoherenceChecker::CheckAll() {
  ++sweeps_;

  // Settle every line resident in any L3 and every line the directory
  // still tracks; CheckLineSettled cross-references all stacks and the
  // directory for each, so stale directory entries surface too.
  std::vector<mem::Addr> lines;
  for (const mem::CacheStack* stack : stacks_) {
    stack->l3().ForEachValid(
        [&lines](const mem::CacheArray::Line& line) {
          lines.push_back(line.line_addr);
        });
    // Inner levels must never hold a line the L3 lost (inclusion).
    stack->l2().ForEachValid([&lines](const mem::CacheArray::Line& line) {
      lines.push_back(line.line_addr);
    });
  }
  if (dir_ != nullptr) {
    dir_->ForEachEntry(
        [&lines](mem::Addr line_addr, const mem::DirectoryFabric::Entry&) {
          lines.push_back(line_addr);
        });
  }
  std::sort(lines.begin(), lines.end());
  lines.erase(std::unique(lines.begin(), lines.end()), lines.end());
  for (const mem::Addr line : lines) CheckLineSettled(line);
}

void CoherenceChecker::OnRunBegin() { SyncShadow(); }

void CoherenceChecker::OnRunEnd() {
  CheckAll();
  DiffShadow(0, shadow_.size(), "end-of-run memory sweep");
}

void CoherenceChecker::OnRoundTasks() {
  if (++barriers_seen_ % static_cast<std::uint64_t>(opts_.sweep_every) == 0) {
    CheckAll();
  }
}

void CoherenceChecker::OnResetTiming() { journal_size_ = 0; }

CoherenceChecker::Stats CoherenceChecker::stats() const {
  Stats s;
  s.transactions = transactions_;
  s.lines_settled = lines_settled_;
  s.sweeps = sweeps_;
  for (const PerCpuStats& pc : per_cpu_) {
    s.loads += pc.loads;
    s.stores += pc.stores;
  }
  return s;
}

}  // namespace cobra::verify
