// Coherence-protocol types shared by the snooping bus (SMP) and the
// directory fabric (cc-NUMA), plus the statistics structures the HPM model
// exposes as Itanium 2 bus events.
#pragma once

#include <cstdint>
#include <vector>

#include "mem/main_memory.h"
#include "mem/protocol.h"
#include "support/simtypes.h"
#include "support/snapshot.h"

namespace cobra::mem {

// Line states live in protocol.h (the union alphabet over all four
// protocols). `Mesi` remains the working name throughout the memory system:
// under the default protocol the legal values are exactly the classic four,
// and every call site reads as it did when MESI was the only protocol.
using Mesi = CohState;

inline const char* MesiName(Mesi s) { return CohStateName(s); }

// Transaction kinds a cache stack can place on the fabric (names below are
// the timeline-trace event names).
enum class BusOp : std::uint8_t {
  kRead,          // BRL: read line (grant S if shared, E if nobody holds it)
  kReadExcl,      // BRIL / RFO: read line with intent to modify (grant E)
  kReadExclHint,  // lfetch.excl miss: *best-effort* RFO. Clean remote copies
                  // are invalidated and E granted, but if the snoop finds a
                  // dirty line the hint is not honoured: the transaction
                  // degrades to a read (owner downgrades, S granted).
  kUpgrade,       // BIL: invalidate other copies of a line already held S
  kWriteback,     // BWL: write a dirty victim back to memory
  kUpdate,        // BusUpd (Dragon): broadcast a store's data to the other
                  // copies instead of invalidating them
};

inline const char* BusOpName(BusOp op) {
  switch (op) {
    case BusOp::kRead: return "read";
    case BusOp::kReadExcl: return "read.excl";
    case BusOp::kReadExclHint: return "read.excl.hint";
    case BusOp::kUpgrade: return "upgrade";
    case BusOp::kWriteback: return "writeback";
    case BusOp::kUpdate: return "update";
  }
  return "?";
}

// How the rest of the system responded — the Itanium 2 snoop-response
// events the paper's detector divides by total bus transactions.
enum class SnoopOutcome : std::uint8_t {
  kMiss,  // no other cache held the line (memory supplied it)
  kHit,   // another cache held it clean (BUS_RD_HIT)
  kHitM,  // another cache held it modified (BUS_RD_HITM / ..._INVAL_ALL_HITM)
};

// Result of a fabric request, consumed by the requesting cache stack.
struct FabricResult {
  Cycle latency = 0;        // total cycles until data usable (incl. queuing)
  Mesi grant = Mesi::kI;    // state the requester may install the line in
  SnoopOutcome snoop = SnoopOutcome::kMiss;
  bool remote = false;      // NUMA: crossed the interconnect
};

// Per-requester bus/coherence event counters. The cpu::Hpm maps these onto
// Itanium 2 event selectors (BUS_MEMORY, BUS_RD_HIT, BUS_RD_HITM, ...).
struct BusEventCounts {
  std::uint64_t bus_memory = 0;          // all data transactions it initiated
  std::uint64_t bus_rd_hit = 0;          // reads snooped clean in another cache
  std::uint64_t bus_rd_hitm = 0;         // reads that hit Modified elsewhere
  std::uint64_t bus_rd_inval_all_hitm = 0;  // RFOs that hit Modified elsewhere
  std::uint64_t bus_upgrades = 0;        // S->M invalidation rounds
  std::uint64_t bus_writebacks = 0;      // dirty-victim writebacks
  std::uint64_t bus_updates = 0;         // Dragon BusUpd broadcasts
  std::uint64_t c2c_transfers = 0;       // lines supplied cache-to-cache
                                         // (dirty HITM and MESIF clean-F)
  std::uint64_t remote_transactions = 0; // NUMA: crossed the interconnect

  std::uint64_t CoherentEvents() const {
    return bus_rd_hit + bus_rd_hitm + bus_rd_inval_all_hitm + bus_upgrades +
           bus_updates;
  }

  BusEventCounts& operator-=(const BusEventCounts& o) {
    bus_memory -= o.bus_memory;
    bus_rd_hit -= o.bus_rd_hit;
    bus_rd_hitm -= o.bus_rd_hitm;
    bus_rd_inval_all_hitm -= o.bus_rd_inval_all_hitm;
    bus_upgrades -= o.bus_upgrades;
    bus_writebacks -= o.bus_writebacks;
    bus_updates -= o.bus_updates;
    c2c_transfers -= o.c2c_transfers;
    remote_transactions -= o.remote_transactions;
    return *this;
  }

  bool Checkpoint(support::StateIO& io) {
    io.U64(bus_memory);
    io.U64(bus_rd_hit);
    io.U64(bus_rd_hitm);
    io.U64(bus_rd_inval_all_hitm);
    io.U64(bus_upgrades);
    io.U64(bus_writebacks);
    io.U64(bus_updates);
    io.U64(c2c_transfers);
    return io.U64(remote_transactions);
  }
};

// Snoop requests delivered *to* a cache stack by the fabric.
enum class SnoopType : std::uint8_t {
  kRead,        // another CPU reads: downgrade per protocol, supply if dirty
  kInvalidate,  // another CPU wants exclusivity: drop the line
  kUpdate,      // Dragon BusUpd: accept the updater's data, stay shared-clean
};

// What the snooped stack reports back.
enum class SnoopReply : std::uint8_t { kMiss, kHit, kHitM };

class CacheStack;  // defined in cache_stack.h

// Interface between a CPU's private cache stack and the system fabric
// (snooping bus or NUMA directory).
class CoherenceFabric {
 public:
  virtual ~CoherenceFabric() = default;

  // Issues a transaction on behalf of `cpu` for the 128-B line at
  // `line_addr`, at simulated time `now`. Updates global and per-CPU event
  // counts and performs any required snoops/invalidations of other stacks.
  virtual FabricResult Request(CpuId cpu, BusOp op, Addr line_addr,
                               Cycle now) = 0;

  // Registers the stacks the fabric coordinates (index = CpuId).
  virtual void AttachStacks(std::vector<CacheStack*> stacks) = 0;

  // Replacement hint: `cpu` silently dropped a clean line (no data
  // transfer). Lets a directory keep its sharer/owner bits exact; the
  // snooping bus ignores it.
  virtual void EvictNotify(CpuId cpu, Addr line_addr) {
    (void)cpu;
    (void)line_addr;
  }

  // Aggregate transaction counters (all CPUs).
  virtual const BusEventCounts& TotalCounts() const = 0;
  // Per-requesting-CPU counters (what that CPU's HPM sees).
  virtual const BusEventCounts& CpuCounts(CpuId cpu) const = 0;

  // Total cycles requests spent queued behind busy shared resources — the
  // observability registry's `bus.occupancy` metric. Fabrics without a
  // contention model report 0.
  virtual Cycle queue_cycles() const { return 0; }

  virtual void ResetCounts() = 0;

  // Checkpointing: lists the fabric's simulated state (the
  // verify::CoherenceChecker wrapper delegates to the real fabric).
  virtual bool Checkpoint(support::StateIO& io) = 0;
};

}  // namespace cobra::mem
