// Flat simulated physical memory with a first-touch page table.
//
// The memory holds the *functional* state of every simulated program: the
// caches in this simulator are timing models (tag/state only), so loads and
// stores always read/write here.  Because the machine interleaves cores one
// instruction at a time, this split is observationally equivalent to a
// data-carrying coherent hierarchy while being far simpler to validate.
//
// The page table implements the SGI Altix first-touch policy described in
// Section 3.2: the first CPU (node) to touch a page becomes its home, which
// the directory fabric uses to locate a line's home node.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <vector>

#include "mem/config.h"
#include "support/check.h"
#include "support/simtypes.h"
#include "support/snapshot.h"

namespace cobra::mem {

using Addr = std::uint64_t;

class MainMemory {
 public:
  explicit MainMemory(std::size_t bytes, std::size_t page_bytes = 16 * 1024);

  std::size_t size() const { return size_; }
  std::size_t page_bytes() const { return page_bytes_; }

  // --- Functional access ---------------------------------------------------
  // Inline: these run once per simulated load/store, making them some of
  // the hottest code in the simulator.
  std::uint64_t Read(Addr addr, int size) const {
    CheckRange(addr, static_cast<std::size_t>(size));
    std::uint64_t out = 0;
    __builtin_memcpy(&out, data_.get() + addr, static_cast<std::size_t>(size));
    return out;
  }
  void Write(Addr addr, int size, std::uint64_t value) {
    CheckRange(addr, static_cast<std::size_t>(size));
    __builtin_memcpy(data_.get() + addr, &value,
                     static_cast<std::size_t>(size));
  }
  double ReadDouble(Addr addr) const { return ReadAs<double>(addr); }
  void WriteDouble(Addr addr, double value) { WriteAs<double>(addr, value); }

  // Typed bulk helpers for workload setup/verification (host-side).
  template <typename T>
  T ReadAs(Addr addr) const {
    CheckRange(addr, sizeof(T));
    T out;
    __builtin_memcpy(&out, data_.get() + addr, sizeof(T));
    return out;
  }
  template <typename T>
  void WriteAs(Addr addr, T value) {
    CheckRange(addr, sizeof(T));
    __builtin_memcpy(data_.get() + addr, &value, sizeof(T));
  }

  // Raw host-side view of the backing store (the verification oracle
  // snapshots and diffs whole regions; simulated code never sees this).
  const std::uint8_t* raw() const { return data_.get(); }

  // --- First-touch page placement ------------------------------------------
  // Returns the page's home node, assigning `node` if untouched.
  int TouchPage(Addr addr, int node);
  // Home node of the page, or -1 if never touched.
  int HomeNode(Addr addr) const;
  // Forgets all page placements (between experiments).
  void ResetPageMap();
  // Pre-places a range of pages on a node (models a thread initializing its
  // partition during the init phase, as Section 3.2 assumes).
  void PlaceRange(Addr begin, Addr end, int node);

  // --- Checkpointing ---------------------------------------------------------
  // Pages that are still all-zero are skipped: memory starts zeroed, so a
  // checkpoint of a sparsely-touched data segment stays compact. Saving
  // lists the non-zero pages; loading zeroes memory and reads them back.
  bool Checkpoint(support::StateIO& io) {
    std::uint64_t size = size_;
    std::uint64_t page_bytes = page_bytes_;
    io.U64(size);
    io.U64(page_bytes);
    if (!io.Expect(size == size_, "memory bytes",
                   static_cast<std::int64_t>(size),
                   static_cast<std::int64_t>(size_)) ||
        !io.Expect(page_bytes == page_bytes_, "page bytes",
                   static_cast<std::int64_t>(page_bytes),
                   static_cast<std::int64_t>(page_bytes_))) {
      return false;
    }
    const std::size_t num_pages = page_home_.size();
    std::vector<std::uint64_t> nonzero;
    if (!io.loading()) {
      for (std::size_t page = 0; page < num_pages; ++page) {
        const std::size_t off = page * page_bytes_;
        const std::size_t len = std::min(page_bytes_, size_ - off);
        const std::uint8_t* p = data_.get() + off;
        if (std::any_of(p, p + len, [](std::uint8_t b) { return b != 0; })) {
          nonzero.push_back(page);
        }
      }
    }
    std::uint64_t count = nonzero.size();
    if (!io.Count(count, 8, "non-zero pages") ||
        !io.Expect(count <= num_pages, "non-zero pages",
                   static_cast<std::int64_t>(count),
                   static_cast<std::int64_t>(num_pages))) {
      return false;
    }
    if (io.loading()) std::memset(data_.get(), 0, size_);
    for (std::uint64_t i = 0; i < count; ++i) {
      std::uint64_t page = io.loading() ? 0 : nonzero[i];
      io.U64(page);
      if (!io.Expect(page < num_pages, "page index",
                     static_cast<std::int64_t>(page),
                     static_cast<std::int64_t>(num_pages) - 1)) {
        return false;
      }
      const std::size_t off = static_cast<std::size_t>(page) * page_bytes_;
      io.Bytes(data_.get() + off, std::min(page_bytes_, size_ - off));
    }
    for (std::int16_t& home : page_home_) {
      if (!io.Narrow<std::int64_t>(home, -1, INT16_MAX, "page home node")) {
        return false;
      }
    }
    return io.Ok();
  }

 private:
  void CheckRange(Addr addr, std::size_t bytes) const {
    COBRA_CHECK_MSG(addr + bytes <= size_ && addr + bytes >= bytes,
                    "data access out of simulated memory range");
  }

  struct FreeDeleter {
    void operator()(std::uint8_t* p) const { std::free(p); }
  };

  // calloc-backed rather than a value-initialized vector: simulated memory
  // must start zeroed (determinism), but calloc hands out zero pages the
  // kernel materializes on first touch, so constructing a machine with a
  // large, sparsely-used data segment costs no up-front memset. Machines
  // are built per experiment run, so this is on the benchmark driver's
  // critical path.
  std::unique_ptr<std::uint8_t[], FreeDeleter> data_;
  std::size_t size_ = 0;
  std::size_t page_bytes_;
  std::vector<std::int16_t> page_home_;  // -1 = untouched
};

}  // namespace cobra::mem
