// Central observability registry: one hierarchical namespace of integer
// metrics for the whole simulated machine.
//
// Every subsystem that owns counters — the cache stacks and coherence
// fabric, the execution engine, the perfmon sampling driver, the COBRA
// runtime — registers *probes* (name + pull function) into the machine's
// registry. A probe reads the subsystem's live counter when a snapshot is
// taken; nothing is copied or synchronized on the hot path, so registering
// a metric costs nothing per simulated cycle.
//
// Names are dot-hierarchical (`mem.cpu0.l3.miss`, `bus.occupancy`,
// `cobra.deployments`, `engine.quanta`) and unique within a registry.
// `Take()` returns a Snapshot: a name-sorted list of (name, value) pairs
// with a stable fingerprint — the single artifact the benchmark driver
// serializes, the determinism tests compare across repeated runs, and
// ad-hoc debugging dumps with `ToString()`.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cobra::obs {

struct Metric {
  std::string name;
  std::uint64_t value = 0;
  // Host-side measurement (wall-clock, host throughput): genuinely
  // nondeterministic, so excluded from Fingerprint() and ToString() — the
  // determinism contract covers simulated state only.
  bool host = false;
};

// A point-in-time reading of every registered probe, sorted by name.
struct Snapshot {
  std::vector<Metric> metrics;

  bool Has(std::string_view name) const;
  // Value of `name`; aborts if the metric is not present.
  std::uint64_t Value(std::string_view name) const;
  // Value of `name`, or `fallback` when the metric is not present (for
  // optional families like cobra.planner.* that only exist while the
  // owning subsystem is attached).
  std::uint64_t ValueOr(std::string_view name, std::uint64_t fallback) const;
  // Sum of every metric whose name starts with `prefix`.
  std::uint64_t SumPrefix(std::string_view prefix) const;

  // FNV-1a over the sorted (name, value) stream: bit-identical snapshots
  // (the determinism contract between repeated runs) hash identically,
  // and any divergent counter changes the fingerprint. Host metrics are
  // skipped — they vary run to run by construction.
  std::uint64_t Fingerprint() const;

  // One "name value" line per metric (diff-friendly). Host metrics are
  // skipped so the dump stays comparable across runs, like Fingerprint().
  std::string ToString() const;
};

class Registry {
 public:
  using Probe = std::function<std::uint64_t()>;

  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  // Registers a probe under a unique name; aborts on a duplicate. The
  // returned id unregisters the probe (components outliving the registry
  // owner need not bother; shorter-lived ones use a Registration group).
  int Register(std::string name, Probe probe);
  // Registers a *host* probe: sampled into snapshots like any metric but
  // excluded from determinism fingerprints and ToString dumps (see Metric).
  int RegisterHost(std::string name, Probe probe);
  void Unregister(int id);

  Snapshot Take() const;
  std::size_t size() const { return entries_.size(); }

  // RAII group of registrations for components with a shorter lifetime
  // than the machine (the COBRA runtime, the sampling driver).
  class Registration {
   public:
    Registration() = default;
    explicit Registration(Registry* registry) : registry_(registry) {}
    ~Registration() { Release(); }
    Registration(Registration&& o) noexcept
        : registry_(o.registry_), ids_(std::move(o.ids_)) {
      o.registry_ = nullptr;
      o.ids_.clear();
    }
    Registration& operator=(Registration&& o) noexcept {
      if (this != &o) {
        Release();
        registry_ = o.registry_;
        ids_ = std::move(o.ids_);
        o.registry_ = nullptr;
        o.ids_.clear();
      }
      return *this;
    }

    void Add(std::string name, Probe probe) {
      if (registry_ != nullptr) {
        ids_.push_back(registry_->Register(std::move(name), std::move(probe)));
      }
    }
    void Release() {
      if (registry_ != nullptr) {
        for (const int id : ids_) registry_->Unregister(id);
      }
      ids_.clear();
    }

   private:
    Registry* registry_ = nullptr;
    std::vector<int> ids_;
  };

 private:
  struct Entry {
    int id = 0;
    std::string name;
    Probe probe;
    bool host = false;
  };
  int RegisterEntry(std::string name, Probe probe, bool host);

  std::vector<Entry> entries_;
  int next_id_ = 0;
};

}  // namespace cobra::obs
