#include "tjit/tcache.h"

#include <atomic>
#include <cstdlib>
#include <string>
#include <string_view>

#include "isa/image.h"
#include "support/check.h"

namespace cobra::tjit {

namespace {

std::atomic<bool> g_test_enabled{true};

}  // namespace

void TestOnlySetTjitEnabled(bool enabled) {
  g_test_enabled.store(enabled, std::memory_order_relaxed);
}

TjitConfig TjitConfigFromEnv() {
  TjitConfig cfg;
  if (const char* env = std::getenv("COBRA_TJIT");
      env != nullptr && *env != '\0') {
    const std::string_view v(env);
    const bool on = v == "on" || v == "1";
    const bool off = v == "off" || v == "0" || v == "OFF";
    COBRA_CHECK_MSG(on || off,
                    ("COBRA_TJIT=" + std::string(v) +
                     " is not one of on, 1, off, 0, OFF")
                        .c_str());
    cfg.enabled = on;
  }
  if (!g_test_enabled.load(std::memory_order_relaxed)) cfg.enabled = false;
  return cfg;
}

TranslationCache::TranslationCache(const isa::BinaryImage* image,
                                   const TjitConfig& cfg)
    : image_(image), cfg_(cfg) {
  COBRA_CHECK(image != nullptr);
}

bool TranslationCache::BeginSegment() {
  const std::uint64_t gen = image_->plan_generation();
  if (gen == generation_) return false;
  Flush();
  generation_ = gen;
  return true;
}

void TranslationCache::Flush() {
  if (!blocks_.empty()) ++stats_.flushes;
  blocks_.clear();
  hot_.fill(HotEntry{});
  total_steps_ = 0;
}

Superblock* TranslationCache::Lookup(isa::Addr pc) {
  const auto it = blocks_.find(pc);
  if (it == blocks_.end() || it->second == nullptr) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  return it->second.get();
}

Superblock* TranslationCache::Chain(isa::Addr pc) {
  const auto it = blocks_.find(pc);
  if (it == blocks_.end() || it->second == nullptr) return nullptr;
  ++stats_.chains;
  return it->second.get();
}

Superblock* TranslationCache::NoteLoopEdge(isa::Addr head) {
  HotEntry& e = hot_[(head / isa::kBundleBytes) & (kHotEntries - 1)];
  if (e.pc != head) {
    // Direct-mapped: a colliding head simply evicts the old profile.
    e = HotEntry{head, 1, false, nullptr};
    ++stats_.misses;
    return nullptr;
  }
  if (e.block != nullptr) {
    ++stats_.hits;
    return e.block;
  }
  if (e.failed || ++e.count < cfg_.hot_threshold) {
    ++stats_.misses;
    return nullptr;
  }
  Superblock* block = CompileAt(head);
  // CompileAt may have flushed (capacity) and reset `e`; re-establish the
  // entry either way so the next edge takes the fast path above.
  e.pc = head;
  e.block = block;
  e.failed = block == nullptr;
  if (block == nullptr) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  return block;
}

Superblock* TranslationCache::CompileAt(isa::Addr entry) {
  if (const auto it = blocks_.find(entry); it != blocks_.end()) {
    return it->second.get();
  }
  auto sb = std::make_unique<Superblock>();
  if (!CompileTrace(*image_, entry, cfg_.max_trace_steps, sb.get())) {
    blocks_.emplace(entry, nullptr);
    return nullptr;
  }
  if (total_steps_ + sb->steps.size() > cfg_.max_cache_steps) {
    // Valgrind-style wholesale invalidation: chain edges are never traced,
    // so partial eviction would leave dangling block pointers.
    Flush();
  }
  total_steps_ += sb->steps.size();
  ++stats_.compiles;
  stats_.compiled_steps += sb->steps.size();
  Superblock* raw = sb.get();
  blocks_.emplace(entry, std::move(sb));
  return raw;
}

}  // namespace cobra::tjit
