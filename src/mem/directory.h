// Directory-based cc-NUMA coherence fabric — the SGI Altix model.
//
// CPUs are grouped into 2-CPU nodes; every 128-B line has a *home node*
// determined by its page's first-touch placement (MainMemory's page table).
// A full-map directory at the home tracks the owner (E/M holder) and sharer
// set, and forwards/invalidates precisely — no broadcast snooping.
//
// Timing: a request queues on the requester node's bus, traverses the
// fat-tree interconnect to the home (2 link hops via one switch level when
// the nodes differ), queues on the home node's memory controller, possibly
// takes a third leg to a remote owner, and returns.  Remote coherent misses
// therefore cost far more than on the SMP bus, which is exactly why the
// paper measures much larger COBRA gains on the Altix (Fig. 5b vs 5a).
//
// Simplification vs real Altix hardware (documented in DESIGN.md): requests
// always consult the home directory, even when a same-node peer could have
// supplied the line over the shared front-side bus.  Same-node traffic is
// still cheap because the interconnect legs collapse to zero when
// requester, home, and owner share a node.
#pragma once

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "mem/cache_stack.h"
#include "mem/coherence.h"
#include "mem/config.h"

namespace cobra::mem {

class DirectoryFabric : public CoherenceFabric {
 public:
  DirectoryFabric(const MemConfig& cfg, MainMemory* memory, int num_cpus);

  void AttachStacks(std::vector<CacheStack*> stacks) override;

  FabricResult Request(CpuId cpu, BusOp op, Addr line_addr,
                       Cycle now) override;

  void EvictNotify(CpuId cpu, Addr line_addr) override;

  const BusEventCounts& TotalCounts() const override { return total_; }
  const BusEventCounts& CpuCounts(CpuId cpu) const override {
    return per_cpu_.at(static_cast<std::size_t>(cpu));
  }
  void ResetCounts() override;

  int NodeOf(CpuId cpu) const { return cpu / cfg_.cpus_per_node; }
  int num_nodes() const { return num_nodes_; }

  // Directory introspection for tests and the coherence checker. `owner`
  // is the CPU holding the *responsible* copy: M/E under every protocol,
  // plus MOESI's O, MESIF's F and Dragon's Sm — the copy that supplies the
  // line (and, when dirty, writes it back).
  struct Entry {
    std::uint32_t sharers = 0;  // bitmask over CpuId (includes the owner)
    int owner = -1;             // CPU holding the responsible copy, or -1
  };
  const Entry* Lookup(Addr line_addr) const;

  // Iterates every directory entry (verification sweeps).
  template <typename Fn>
  void ForEachEntry(Fn&& fn) const {
    for (const auto& [line_addr, entry] : dir_) fn(line_addr, entry);
  }

  // Test-only fault injection: mutable access to an entry so checker tests
  // can corrupt sharer/owner bits and assert the sweep trips. Returns
  // nullptr if the line has no entry.
  Entry* TestOnlyMutableEntry(Addr line_addr) {
    auto it = dir_.find(line_addr);
    return it == dir_.end() ? nullptr : &it->second;
  }

  // Cycles spent queued on node buses (contention measure).
  Cycle queue_cycles() const override { return queue_cycles_; }

  bool Checkpoint(support::StateIO& io) override {
    std::uint32_t cpus = static_cast<std::uint32_t>(per_cpu_.size());
    std::uint32_t nodes = static_cast<std::uint32_t>(node_bus_free_.size());
    io.U32(cpus);
    io.U32(nodes);
    if (!io.Expect(cpus == per_cpu_.size(), "directory CPUs", cpus,
                   static_cast<std::int64_t>(per_cpu_.size())) ||
        !io.Expect(nodes == node_bus_free_.size(), "directory nodes", nodes,
                   static_cast<std::int64_t>(node_bus_free_.size()))) {
      return false;
    }
    for (BusEventCounts& c : per_cpu_) c.Checkpoint(io);
    total_.Checkpoint(io);
    for (Cycle& free : node_bus_free_) io.U64(free);
    io.U64(queue_cycles_);
    // Entries travel sorted by line address so the blob is a deterministic
    // function of simulated state (the hash map's iteration order is not).
    std::vector<Addr> addrs;
    if (!io.loading()) {
      addrs.reserve(dir_.size());
      for (const auto& [line_addr, entry] : dir_) addrs.push_back(line_addr);
      std::sort(addrs.begin(), addrs.end());
    }
    std::uint64_t entries = addrs.size();
    if (!io.Count(entries, 8 + 4 + 8, "directory entries")) return false;
    if (io.loading()) dir_.clear();
    for (std::uint64_t i = 0; i < entries; ++i) {
      Addr line_addr = io.loading() ? 0 : addrs[i];
      Entry entry = io.loading() ? Entry{} : dir_.at(line_addr);
      io.U64(line_addr);
      io.U32(entry.sharers);
      if (!io.Narrow<std::int64_t>(entry.owner, -1, num_cpus_ - 1,
                                   "directory owner")) {
        return false;
      }
      if (io.loading()) dir_[line_addr] = entry;
    }
    return io.Ok();
  }

 private:
  Cycle Leg(int node_a, int node_b) const {
    return node_a == node_b ? 0 : 2 * cfg_.link_hop_latency;
  }
  // Reserves the node bus starting no earlier than `earliest`; returns the
  // cycle at which service begins (queuing charged to the requester).
  Cycle AcquireNodeBus(int node, Cycle earliest, Cycle occupancy);

  MemConfig cfg_;
  const CoherencePolicy* policy_;
  MainMemory* memory_;
  int num_cpus_;
  int num_nodes_;
  std::vector<CacheStack*> stacks_;
  std::vector<Cycle> node_bus_free_;
  std::unordered_map<Addr, Entry> dir_;
  std::vector<BusEventCounts> per_cpu_;
  BusEventCounts total_;
  Cycle queue_cycles_ = 0;
};

}  // namespace cobra::mem
