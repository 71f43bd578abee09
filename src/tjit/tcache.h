// TranslationCache: per-core store of compiled superblocks plus the hot-loop
// profile that decides what gets compiled.
//
// Lifecycle (docs/DISPATCH.md has the full picture):
//   harvest — the interpreter reports every taken backward branch
//     (NoteLoopEdge); a direct-mapped profile table counts hits per loop
//     head until the hot threshold trips;
//   compile — CompileTrace flattens the trace into a Superblock, stored in
//     a pc-keyed map (a null entry negative-caches uncompilable heads);
//   chain   — superblock exits look up their successor block (Chain) and
//     memoize the result in the exit step, so hot control flow never
//     re-enters the dispatch loop;
//   invalidate — BeginSegment compares the image's plan_generation against
//     the generation the cache was built under and flushes everything on
//     mismatch. Patches only land between segments (COBRA's optimizer runs
//     as a round task at quantum boundaries, and direct patch calls happen
//     outside engine runs), so one check per segment covers every patch,
//     deploy, and revert. A capacity overflow also flushes wholesale —
//     dropping everything is cheaper and simpler than tracing chain edges.
//
// Determinism: the cache holds no simulated state. Every counter in
// TjitStats is host-class (tjit.* registry probes are RegisterHost'ed), and
// the executor that runs superblocks replays exactly the interpreter's
// per-step effects — so COBRA_TJIT=on|off produce bit-identical simulations
// by construction, which the fuzz harness and cobra_bench --compare verify.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>

#include "isa/types.h"
#include "tjit/superblock.h"

namespace cobra::isa {
class BinaryImage;
}

namespace cobra::tjit {

struct TjitConfig {
  bool enabled = true;             // COBRA_TJIT=off|0|OFF disables
  std::uint32_t hot_threshold = 16;    // loop-edge count before a head compiles
  std::uint32_t max_trace_steps = 512;
  std::size_t max_cache_steps = 1u << 18;  // total compiled steps per core
};

// Reads COBRA_TJIT: unset or empty leaves the JIT on, "on"/"1" turns it on,
// "off"/"0"/"OFF" turns it off, and any other value aborts with a message
// naming the variable, the value and the accepted forms. The other fields
// keep their defaults (tests set them directly). The test-only
// process-global kill switch below is folded into `enabled`.
TjitConfig TjitConfigFromEnv();

// Test-only, process-global: force-disables the trace JIT regardless of the
// environment, so the fuzz harness can fingerprint-match a jitted run
// against the pure-interpreter reference in the same process.
void TestOnlySetTjitEnabled(bool enabled);

struct TjitStats {
  std::uint64_t hits = 0;        // dispatch lookups that found a block
  std::uint64_t misses = 0;      // dispatch lookups that did not
  std::uint64_t compiles = 0;    // superblocks compiled
  std::uint64_t compiled_steps = 0;
  std::uint64_t flushes = 0;     // whole-cache invalidations
  std::uint64_t chains = 0;      // direct block→block transfers
  std::uint64_t side_exits = 0;  // returns to the interpreter
};

class TranslationCache {
 public:
  TranslationCache(const isa::BinaryImage* image, const TjitConfig& cfg);

  // Called at every segment start. Flushes if the image's plan generation
  // moved since the cache was last (in)validated. Returns true on flush so
  // the core can drop its resume hint into a destroyed block.
  bool BeginSegment();

  // Dispatch lookup at a segment entry (pc must be bundle-aligned).
  Superblock* Lookup(isa::Addr pc);

  // Harvest: the interpreter just took a backward branch to `head`. Bumps
  // the profile counter, compiles at the hot threshold, and returns the
  // block when one exists (compiled now or earlier).
  Superblock* NoteLoopEdge(isa::Addr head);

  // Exit-to-entry chaining lookup (no profiling, no compilation).
  Superblock* Chain(isa::Addr pc);

  // Drops every block and the profile table.
  void Flush();

  const TjitConfig& config() const { return cfg_; }
  TjitStats& stats() { return stats_; }
  const TjitStats& stats() const { return stats_; }
  std::size_t total_steps() const { return total_steps_; }

 private:
  Superblock* CompileAt(isa::Addr entry);

  struct HotEntry {
    isa::Addr pc = 0;
    std::uint32_t count = 0;
    bool failed = false;       // compile attempted, trace empty
    Superblock* block = nullptr;
  };
  static constexpr std::size_t kHotEntries = 512;  // power of two

  const isa::BinaryImage* image_;
  const TjitConfig cfg_;
  // Sentinel forces the first BeginSegment to adopt the live generation.
  std::uint64_t generation_ = ~std::uint64_t{0};
  std::array<HotEntry, kHotEntries> hot_{};
  // Entry pc → block. A present-but-null mapping negative-caches a head
  // whose trace would not compile (e.g. the entry slot is a break).
  std::unordered_map<isa::Addr, std::unique_ptr<Superblock>> blocks_;
  std::size_t total_steps_ = 0;
  TjitStats stats_;
};

}  // namespace cobra::tjit
