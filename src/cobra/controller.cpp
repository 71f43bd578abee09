#include "cobra/controller.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "analysis/cfg.h"
#include "mem/protocol.h"
#include "support/check.h"

namespace cobra::core {

namespace {

perfmon::SamplingConfig MakeSamplingConfig(const CobraConfig& cfg) {
  perfmon::SamplingConfig sampling = CobraSamplingConfig();
  sampling.period_insts = cfg.sampling_period_insts;
  sampling.batch_size = cfg.batch_size;
  sampling.dear_latency_threshold = cfg.dear_first_level_threshold;
  return sampling;
}

}  // namespace

CobraRuntime::CobraRuntime(machine::Machine* machine, CobraConfig config)
    : machine_(machine),
      config_(config),
      driver_(machine, MakeSamplingConfig(config)),
      trace_cache_(&machine->image()),
      planner_(Planner::Options{config.plan_budget,
                                config.plan_min_profit_delta,
                                config.plan_cooldown_cycles}) {
  COBRA_CHECK(machine != nullptr);
  monitors_.resize(static_cast<std::size_t>(machine->num_cpus()));
  fast_forward_generation_ = machine->fast_forward_generation();

  metrics_ = obs::Registry::Registration(&machine->registry());
  metrics_.Add("cobra.evaluations", [this] { return stats_.evaluations; });
  metrics_.Add("cobra.deployments", [this] { return stats_.deployments; });
  metrics_.Add("cobra.rollbacks", [this] { return stats_.rollbacks; });
  metrics_.Add("cobra.epochs_kept", [this] { return stats_.epochs_kept; });
  metrics_.Add("cobra.epochs_reverted",
               [this] { return stats_.epochs_reverted; });
  metrics_.Add("cobra.strategy_switches",
               [this] { return stats_.strategy_switches; });
  metrics_.Add("cobra.phase_changes", [this] { return stats_.phase_changes; });
  metrics_.Add("cobra.lfetches_rewritten",
               [this] { return stats_.lfetches_rewritten; });
  metrics_.Add("cobra.prefetches_inserted",
               [this] { return stats_.prefetches_inserted; });
  metrics_.Add("cobra.patch_verifications",
               [this] { return trace_cache_.verifications(); });
  metrics_.Add("cobra.traces_built",
               [this] { return trace_cache_.traces_built(); });
  metrics_.Add("cobra.redirects_active",
               [this] { return trace_cache_.redirects_active(); });
  metrics_.Add("cobra.first_deploy_cycles",
               [this] { return stats_.first_deploy_cycles; });
  metrics_.Add("analysis.scev.loops_analyzed",
               [this] { return stats_.scev_loops_analyzed; });
  metrics_.Add("analysis.scev.loops_solved",
               [this] { return stats_.scev_loops_solved; });
  metrics_.Add("analysis.scev.prior_hits",
               [this] { return stats_.prior_hits; });
  metrics_.Add("analysis.scev.prior_mismatches",
               [this] { return stats_.prior_mismatches; });
  metrics_.Add("analysis.scev.invariant_suppressed",
               [this] { return stats_.invariant_suppressed; });
  // Cost-model planner family (DESIGN.md §9): all zero under the default
  // heuristic — the planner is only consulted when config.planner == kCost.
  metrics_.Add("cobra.planner.candidates",
               [this] { return planner_.stats().candidates_seen; });
  metrics_.Add("cobra.planner.accepted",
               [this] { return planner_.stats().accepted; });
  metrics_.Add("cobra.planner.rejected_budget",
               [this] { return planner_.stats().rejected_budget; });
  metrics_.Add("cobra.planner.rejected_hysteresis",
               [this] { return planner_.stats().rejected_hysteresis; });
  metrics_.Add("cobra.planner.plan_revisions",
               [this] { return planner_.stats().plan_revisions; });
  metrics_.Add("cobra.planner.estimated_benefit_cycles", [this] {
    return static_cast<std::uint64_t>(planner_.stats().estimated_benefit);
  });
  metrics_.Add("cobra.planner.realized_benefit_cycles", [this] {
    return static_cast<std::uint64_t>(planner_.stats().realized_benefit);
  });
}

void CobraRuntime::TraceInstant(std::string name) {
  if (obs::TraceSink* trace = machine_->trace()) {
    trace->Instant(machine_->trace_pid(), machine_->trace_cobra_tid(),
                   "cobra", std::move(name), machine_->GlobalTime());
  }
}

CobraRuntime::~CobraRuntime() { DetachAll(); }

void CobraRuntime::AttachThread(CpuId cpu, int tid) {
  auto& slot = monitors_.at(static_cast<std::size_t>(cpu));
  COBRA_CHECK_MSG(slot == nullptr, "CPU already monitored");
  slot = std::make_unique<MonitoringThread>(
      tid, cpu, config_.coherent_latency_threshold,
      config_.attribution_warmup_samples);
  driver_.StartMonitoring(
      cpu, tid, [this](int on_cpu, std::span<const perfmon::Sample> batch) {
        OnBatch(on_cpu, batch);
      });
}

void CobraRuntime::AttachAll(int num_threads) {
  for (int tid = 0; tid < num_threads; ++tid) AttachThread(tid, tid);
}

void CobraRuntime::DetachAll() { driver_.StopAll(); }

void CobraRuntime::OnBatch(int cpu, std::span<const perfmon::Sample> batch) {
  MonitoringThread* monitor = monitors_.at(static_cast<std::size_t>(cpu)).get();
  COBRA_CHECK(monitor != nullptr);
  monitor->Consume(batch);

  if (config_.monitor_overhead_cycles != 0) {
    cpu::Core& core = machine_->core(cpu);
    core.set_now(core.now() + config_.monitor_overhead_cycles);
  }

  // The optimization thread wakes after a system-wide quota of batches.
  int attached = 0;
  for (const auto& m : monitors_) {
    if (m != nullptr) ++attached;
  }
  if (++batches_since_wake_ >=
      config_.batches_per_evaluation * static_cast<std::uint64_t>(attached)) {
    batches_since_wake_ = 0;
    OptimizationThreadWake();
  }
}

void CobraRuntime::OptimizationThreadWake() {
  ++stats_.evaluations;

  std::vector<const ThreadProfile*> profiles;
  for (const auto& monitor : monitors_) {
    if (monitor != nullptr) profiles.push_back(&monitor->profile());
  }
  SystemProfile profile = SystemProfile::Aggregate(profiles);
  stats_.last_coherent_ratio = profile.totals.CoherentRatio();

  // A window that spans a fast-forwarded gap (sampled simulation) mixes
  // functional-only issue cycles into its CPI: the HPM pauses during
  // fast-forward but timestamps keep advancing. Discard it — rebase the
  // window and let the epoch state machine wait for a clean one. In runs
  // that never fast-forward the generation never moves and this is inert.
  if (machine_->fast_forward_generation() != fast_forward_generation_) {
    fast_forward_generation_ = machine_->fast_forward_generation();
    window_start_ = profile.totals;
    last_profile_ = std::move(profile);
    return;
  }

  // CPI of the wake window that just ended (in sampling-period units:
  // relative comparisons only).
  const CounterTotals window = profile.totals - window_start_;
  const double window_cpi =
      window.instructions != 0
          ? static_cast<double>(window.cycles) /
                static_cast<double>(window.instructions)
          : 0.0;

  if (config_.adaptive) PhaseDetect(window);
  EpochStep(profile, window_cpi);

  window_start_ = profile.totals;
  last_profile_ = std::move(profile);
  stats_.patch_verifications = trace_cache_.verifications();
}

bool CobraRuntime::LoopQualifies(const SystemProfile& profile,
                                 const LoopCandidate& loop,
                                 std::vector<isa::Addr>* lfetches) const {
  const isa::Addr head = isa::BundleAddr(loop.head);
  const isa::Addr back = isa::BundleAddr(loop.back_branch_pc);
  const isa::BinaryImage& image = machine_->image();
  if (image.Contains(head) && image.InCodeCache(head)) {
    return false;  // a trace of ours
  }
  // CFG region oracle: the sampled (head, back-branch) pair must close a
  // natural loop whose body stays inside the region.
  if (!analysis::CheckLoopRegion(image, loop.head, loop.back_branch_pc).ok) {
    return false;
  }

  *lfetches = FindLfetches(image, head, back);
  if (lfetches->empty()) return false;

  if (config_.require_coherent_load_in_loop) {
    // Two-level DEAR filter: the loop must contain a load whose sampled
    // latencies identify coherent misses.
    const bool has_coherent_load = std::any_of(
        profile.coherent_loads.begin(), profile.coherent_loads.end(),
        [&](const DelinquentLoad& load) {
          return load.pc >= head && load.pc <= isa::MakePc(back, 2);
        });
    if (!has_coherent_load) return false;
  }
  return true;
}

const analysis::LoopScev& CobraRuntime::ScevFor(const LoopCandidate& loop) {
  const isa::Addr head = isa::BundleAddr(loop.head);
  auto it = scev_cache_.find(head);
  if (it == scev_cache_.end() ||
      it->second.back_branch_pc != loop.back_branch_pc) {
    ++stats_.scev_loops_analyzed;
    analysis::LoopScev scev = analysis::AnalyzeLoop(
        machine_->image(), loop.head, loop.back_branch_pc);
    if (scev.solved) ++stats_.scev_loops_solved;
    it = scev_cache_.insert_or_assign(head, std::move(scev)).first;
  }
  return it->second;
}

bool CobraRuntime::LoopQualifiesForInsertion(
    const SystemProfile& profile, const LoopCandidate& loop,
    std::vector<InsertionCandidate>* out) {
  const isa::Addr head = isa::BundleAddr(loop.head);
  const isa::Addr back = isa::BundleAddr(loop.back_branch_pc);
  const isa::BinaryImage& image = machine_->image();
  if (image.Contains(head) && image.InCodeCache(head)) return false;
  if (!analysis::CheckLoopRegion(image, loop.head, loop.back_branch_pc).ok) {
    return false;
  }

  // Only loops the compiler left unprefetched.
  if (!FindLfetches(image, head, back).empty()) return false;

  const analysis::LoopScev* scev =
      config_.static_priors ? &ScevFor(loop) : nullptr;

  out->clear();
  for (const DelinquentLoad& load : profile.delinquent_loads) {
    if (load.pc < head || load.pc > isa::MakePc(back, 2)) continue;
    if (load.samples < 3) continue;
    // Coherent-dominated loads are the *other* optimizations' business;
    // prefetching them would manufacture the Figure 3 pathology.
    if (load.coherent_samples * 2 > load.samples) continue;
    if (load.stride == 0) continue;
    if (std::llabs(load.stride) > 4096) continue;  // not a steady stream

    auto needed = static_cast<std::uint32_t>(config_.stride_confirmations);
    if (scev != nullptr) {
      switch (ArbitrateStaticPrior(*scev, load.pc, load.stride)) {
        case PriorVerdict::kNoPrior:
          break;
        case PriorVerdict::kInvariant:
          ++stats_.invariant_suppressed;
          continue;
        case PriorVerdict::kConfirmed:
          needed = 1;  // static agreement: no need to wait for N repeats
          ++stats_.prior_hits;
          break;
        case PriorVerdict::kMismatch:
          ++stats_.prior_mismatches;
          continue;  // contradicted: hold back until the profile agrees
      }
    }
    if (load.stride_confirmations < needed) continue;
    out->push_back(InsertionCandidate{load.pc, load.stride});
  }
  return !out->empty();
}

int CobraRuntime::DeployQualifying(const SystemProfile& profile) {
  if (config_.planner == PlannerKind::kCost) return DeployPlanned(profile);
  const bool inserting =
      config_.strategy == OptKind::kInsertPrefetch && !config_.adaptive;
  // The coherent-ratio trigger gates the coherence optimizations; the
  // insertion strategy targets plain memory misses instead.
  if (!inserting && config_.require_coherent_ratio &&
      profile.totals.CoherentRatio() < config_.coherent_ratio_threshold) {
    return 0;
  }

  std::uint64_t active = 0;
  for (const auto& deployment : trace_cache_.deployments()) {
    if (deployment.active) ++active;
  }

  int deployed = 0;
  for (const LoopCandidate& loop : profile.hot_loops) {
    if (loop.hits < config_.min_loop_hits) break;  // sorted by hits
    if (active >= config_.max_deployments) break;
    const isa::Addr head = isa::BundleAddr(loop.head);

    LoopHistory& history = history_[head];
    if (history.blacklisted) continue;
    if (const auto* existing = trace_cache_.FindByHead(head);
        existing != nullptr && existing->active) {
      continue;
    }

    std::vector<isa::Addr> lfetches;
    std::vector<InsertionCandidate> candidates;
    if (inserting) {
      if (!LoopQualifiesForInsertion(profile, loop, &candidates)) continue;
    } else {
      if (!LoopQualifies(profile, loop, &lfetches)) continue;
    }

    // Quiesce check: patching the head bundle is only safe if no thread is
    // currently mid-bundle there (it would re-execute the head's leading
    // slots in the trace — double post-increments). A thread elsewhere in
    // the loop is fine: its next back-edge lands on the patched head and
    // migrates into the trace cleanly. Retry on the next wake-up.
    bool quiesced = true;
    for (int c = 0; c < machine_->num_cpus(); ++c) {
      const cpu::Core& core = machine_->core(c);
      if (!core.halted() && isa::BundleAddr(core.pc()) == head &&
          isa::SlotOf(core.pc()) != 0) {
        quiesced = false;
      }
    }
    if (!quiesced) continue;

    // Pick the strategy: fixed, or (adaptive) the first untried one,
    // starting from the configured preference.
    OptKind kind = config_.strategy;
    if (config_.adaptive) {
      const OptKind preferred = config_.strategy;
      const OptKind fallback = preferred == OptKind::kNoprefetch
                                   ? OptKind::kPrefetchExcl
                                   : OptKind::kNoprefetch;
      auto tried = [&](OptKind k) {
        return k == OptKind::kNoprefetch ? history.tried_noprefetch
                                         : history.tried_excl;
      };
      if (!tried(preferred)) {
        kind = preferred;
      } else if (!tried(fallback)) {
        kind = fallback;
        ++stats_.strategy_switches;
      } else {
        history.blacklisted = true;
        continue;
      }
    }

    const int id = trace_cache_.Deploy(
        LoopRegion{head, loop.back_branch_pc}, kind);
    if (id < 0) continue;

    if (kind == OptKind::kInsertPrefetch) {
      // Plant the prefetches into the trace copy (pcs remap 1:1 because
      // bundle distances are preserved).
      const auto* deployment = trace_cache_.Get(id);
      std::vector<InsertionCandidate> remapped = candidates;
      for (InsertionCandidate& candidate : remapped) {
        candidate.load_pc =
            deployment->trace_head + (candidate.load_pc - head);
      }
      const isa::Addr trace_end =
          deployment->trace_head +
          (isa::BundleAddr(loop.back_branch_pc) - head);
      const int inserted =
          InsertPrefetches(machine_->image(), deployment->trace_head,
                           trace_end, remapped);
      if (inserted == 0) {
        trace_cache_.Revert(id);  // nothing plantable: useless redirect
        history.blacklisted = true;
        continue;
      }
      stats_.prefetches_inserted += static_cast<std::uint64_t>(inserted);
      // The insertion edited the live trace after Deploy's own check:
      // re-verify so a bad plant can never outlive this wake-up.
      trace_cache_.CheckDeployment(id);
    }

    ++stats_.deployments;
    if (stats_.first_deploy_cycles == 0) {
      stats_.first_deploy_cycles =
          static_cast<std::uint64_t>(machine_->GlobalTime());
    }
    TraceInstant(std::string("deploy.") + OptKindName(kind));
    ++active;
    ++deployed;
    stats_.lfetches_rewritten += static_cast<std::uint64_t>(
        trace_cache_.Get(id)->lfetches_rewritten);
    if (kind == OptKind::kNoprefetch) {
      history.tried_noprefetch = true;
    } else if (kind == OptKind::kPrefetchExcl) {
      history.tried_excl = true;
    }
    epoch_deployments_.push_back(id);
    epoch_heads_.push_back(head);
  }
  return deployed;
}

std::vector<PlanCandidate> CobraRuntime::GatherPlanCandidates(
    const SystemProfile& profile,
    std::map<isa::Addr, PlannedQualification>* qualified) {
  std::vector<PlanCandidate> out;
  const bool coherent_triggered =
      !config_.require_coherent_ratio ||
      profile.totals.CoherentRatio() >= config_.coherent_ratio_threshold;

  // Protocol-aware traffic shares from the fabric's event mix: how much of
  // the observed coherence traffic is invalidation rounds (what noprefetch
  // and excl attack), how much is Dragon-style updates (excl degenerates:
  // lfetch.excl does not raise an RFO on update-based fabrics), and how
  // much of all bus traffic crossed the NUMA interconnect (an excl RFO
  // that steals a remotely-shared line pays the round trip twice).
  const mem::BusEventCounts& traffic = machine_->fabric().TotalCounts();
  const std::uint64_t coherent_events = traffic.CoherentEvents();
  const double inval_share =
      coherent_events != 0
          ? static_cast<double>(traffic.bus_upgrades +
                                traffic.bus_rd_inval_all_hitm) /
                static_cast<double>(coherent_events)
          : 0.0;
  const double update_share =
      coherent_events != 0
          ? static_cast<double>(traffic.bus_updates) /
                static_cast<double>(coherent_events)
          : 0.0;
  const double remote_share =
      traffic.bus_memory != 0
          ? static_cast<double>(traffic.remote_transactions) /
                static_cast<double>(traffic.bus_memory)
          : 0.0;
  const bool excl_rfo =
      mem::CoherencePolicy::For(machine_->config().mem.protocol)
          .excl_prefetch_rfo();

  for (const LoopCandidate& loop : profile.hot_loops) {
    if (loop.hits < config_.min_loop_hits) break;  // sorted by hits
    const isa::Addr head = isa::BundleAddr(loop.head);
    const isa::Addr back = isa::BundleAddr(loop.back_branch_pc);
    if (history_[head].blacklisted) continue;

    auto in_region = [&](isa::Addr pc) {
      return pc >= head && pc <= isa::MakePc(back, 2);
    };
    // Patch overhead plus trace-cache occupancy: one budget unit per
    // deployment, plus the region's bundle footprint in the code cache.
    const double bundles =
        static_cast<double>((back - head) / isa::kBundleBytes + 1);
    const double cost_base = 1.0 + bundles / 8.0;

    PlannedQualification q;
    q.loop = loop;
    if (coherent_triggered && LoopQualifies(profile, loop, &q.lfetches)) {
      // DEAR latency mass of the region's delinquent loads, split into
      // the coherent share the patch targets (per-load attribution when
      // the two-level filter runs; the bus-level coherent ratio when the
      // ablation config turned the per-load filter off).
      double region_mass = 0.0;
      double coherent_mass = 0.0;
      for (const DelinquentLoad& load : profile.delinquent_loads) {
        if (!in_region(load.pc) || load.samples == 0) continue;
        const double mass = static_cast<double>(load.total_latency);
        region_mass += mass;
        coherent_mass += mass * static_cast<double>(load.coherent_samples) /
                         static_cast<double>(load.samples);
      }
      if (!config_.require_coherent_load_in_loop && coherent_mass == 0.0) {
        coherent_mass = region_mass * profile.totals.CoherentRatio();
      }
      // noprefetch: removing the premature lfetches removes the coherent
      // traffic they manufacture. On an update-based fabric the pathology
      // is milder (updates refresh remote copies instead of killing them).
      out.push_back(PlanCandidate{head, loop.back_branch_pc,
                                  OptKind::kNoprefetch,
                                  coherent_mass * (1.0 - 0.5 * update_share),
                                  cost_base});
      // prefetch.excl: collapses the read + upgrade pair into one RFO —
      // worth a share of the invalidation traffic — but steals remotely
      // shared lines, paying the interconnect round trip both ways on a
      // NUMA fabric. Non-positive estimates never enter a plan.
      const double excl_benefit =
          excl_rfo ? coherent_mass * (inval_share - 2.0 * remote_share)
                   : 0.0;
      out.push_back(PlanCandidate{head, loop.back_branch_pc,
                                  OptKind::kPrefetchExcl, excl_benefit,
                                  cost_base});
      qualified->emplace(head, std::move(q));
    } else if (LoopQualifiesForInsertion(profile, loop, &q.inserts)) {
      // DEAR latency mass of the plain (non-coherent) delinquent loads.
      double memory_mass = 0.0;
      for (const DelinquentLoad& load : profile.delinquent_loads) {
        if (in_region(load.pc) && load.coherent_samples * 2 <= load.samples) {
          memory_mass += static_cast<double>(load.total_latency);
        }
      }
      // Scalar-evolution facts as benefit inputs: estimates on a loop
      // whose streams the static pass proved affine (and whose sampled
      // strides sit on the chrec lattice) deserve more credit than ones
      // resting on sampled strides alone.
      double prior_scale = 0.75;
      if (config_.static_priors) {
        const analysis::LoopScev& scev = ScevFor(loop);
        if (scev.solved && scev.AffineAccessCount() > 0) {
          std::size_t confirmed = 0;
          for (const InsertionCandidate& cand : q.inserts) {
            if (ArbitrateStaticPrior(scev, cand.load_pc, cand.stride) ==
                PriorVerdict::kConfirmed) {
              ++confirmed;
            }
          }
          prior_scale = 0.5 + 0.5 * static_cast<double>(confirmed) /
                                  static_cast<double>(q.inserts.size());
        }
      }
      // Planted prefetches occupy bus slots of their own: half a budget
      // unit per planted stream on top of the patch overhead.
      const double cost =
          cost_base + 0.5 * static_cast<double>(q.inserts.size());
      out.push_back(PlanCandidate{head, loop.back_branch_pc,
                                  OptKind::kInsertPrefetch,
                                  memory_mass * prior_scale, cost});
      qualified->emplace(head, std::move(q));
    }
  }
  return out;
}

int CobraRuntime::DeployPlanned(const SystemProfile& profile) {
  std::map<isa::Addr, PlannedQualification> qualified;
  const std::vector<PlanCandidate> candidates =
      GatherPlanCandidates(profile, &qualified);
  const Plan& plan = planner_.Propose(
      candidates, static_cast<std::uint64_t>(machine_->GlobalTime()));

  // A plan revision may drop a live patch, or re-kind a loop: revert the
  // stale deployment first (the epoch bookkeeping sees an inactive entry,
  // exactly as after a measured revert).
  for (const auto& deployment : trace_cache_.deployments()) {
    if (!deployment.active) continue;
    const PlanCandidate* want = plan.Find(deployment.loop.head);
    if (want != nullptr && want->kind == deployment.opt) continue;
    trace_cache_.Revert(deployment.id);
    ++stats_.rollbacks;
    TraceInstant("revert");
  }

  std::uint64_t active = 0;
  for (const auto& deployment : trace_cache_.deployments()) {
    if (deployment.active) ++active;
  }

  // Deploy the accepted set in hotness order (the plan carries no
  // priority of its own; the hottest loops claim the deployment cap and
  // the quiesce retries first, like the heuristic).
  int deployed = 0;
  for (const LoopCandidate& loop : profile.hot_loops) {
    if (loop.hits < config_.min_loop_hits) break;
    if (active >= config_.max_deployments) break;
    const isa::Addr head = isa::BundleAddr(loop.head);
    const PlanCandidate* pick = plan.Find(head);
    if (pick == nullptr) continue;
    const auto it = qualified.find(head);
    if (it == qualified.end()) continue;
    if (const auto* existing = trace_cache_.FindByHead(head);
        existing != nullptr && existing->active) {
      continue;  // already live under the planned kind
    }
    LoopHistory& history = history_[head];
    if (history.blacklisted) continue;

    // Same quiesce rule as the heuristic path: never patch a head bundle
    // a thread is currently mid-bundle in.
    bool quiesced = true;
    for (int c = 0; c < machine_->num_cpus(); ++c) {
      const cpu::Core& core = machine_->core(c);
      if (!core.halted() && isa::BundleAddr(core.pc()) == head &&
          isa::SlotOf(core.pc()) != 0) {
        quiesced = false;
      }
    }
    if (!quiesced) continue;

    const OptKind kind = pick->kind;
    const int id = trace_cache_.Deploy(
        LoopRegion{head, loop.back_branch_pc}, kind);
    if (id < 0) continue;

    if (kind == OptKind::kInsertPrefetch) {
      const auto* deployment = trace_cache_.Get(id);
      std::vector<InsertionCandidate> remapped = it->second.inserts;
      for (InsertionCandidate& candidate : remapped) {
        candidate.load_pc =
            deployment->trace_head + (candidate.load_pc - head);
      }
      const isa::Addr trace_end =
          deployment->trace_head +
          (isa::BundleAddr(loop.back_branch_pc) - head);
      const int inserted =
          InsertPrefetches(machine_->image(), deployment->trace_head,
                           trace_end, remapped);
      if (inserted == 0) {
        trace_cache_.Revert(id);
        history.blacklisted = true;
        continue;
      }
      stats_.prefetches_inserted += static_cast<std::uint64_t>(inserted);
      trace_cache_.CheckDeployment(id);
    }

    ++stats_.deployments;
    if (stats_.first_deploy_cycles == 0) {
      stats_.first_deploy_cycles =
          static_cast<std::uint64_t>(machine_->GlobalTime());
    }
    TraceInstant(std::string("deploy.") + OptKindName(kind));
    ++active;
    ++deployed;
    stats_.lfetches_rewritten += static_cast<std::uint64_t>(
        trace_cache_.Get(id)->lfetches_rewritten);
    if (kind == OptKind::kNoprefetch) {
      history.tried_noprefetch = true;
    } else if (kind == OptKind::kPrefetchExcl) {
      history.tried_excl = true;
    }
    epoch_deployments_.push_back(id);
    epoch_heads_.push_back(head);
  }
  return deployed;
}

void CobraRuntime::RevertEpoch() {
  for (const int id : epoch_deployments_) {
    if (const auto* deployment = trace_cache_.Get(id);
        deployment != nullptr && deployment->active) {
      trace_cache_.Revert(id);
      ++stats_.rollbacks;
      TraceInstant("revert");
    }
  }
  for (const isa::Addr head : epoch_heads_) {
    LoopHistory& history = history_[head];
    if (!config_.adaptive ||
        (history.tried_noprefetch && history.tried_excl)) {
      history.blacklisted = true;
    }
  }
  epoch_deployments_.clear();
  epoch_heads_.clear();
}

void CobraRuntime::EpochStep(const SystemProfile& profile,
                             double window_cpi) {
  if (!config_.measured_epochs) {
    // Unmeasured mode (ablation): deploy eagerly, never revert.
    DeployQualifying(profile);
    return;
  }
  if (window_cpi <= 0.0) return;  // no samples yet

  switch (epoch_state_) {
    case EpochState::kMeasureOff: {
      cpi_accum_ += window_cpi;
      if (++cpi_windows_ < config_.epoch_windows) return;
      cpi_off_ = cpi_accum_ / cpi_windows_;
      cpi_accum_ = 0.0;
      cpi_windows_ = 0;
      settle_windows_ = 0;
      epoch_state_ = EpochState::kDeploying;
      [[fallthrough]];
    }
    case EpochState::kDeploying: {
      const int deployed = DeployQualifying(profile);
      ++settle_windows_;
      if (epoch_deployments_.empty()) {
        // Nothing qualified yet: keep probing from a fresh baseline so the
        // eventual comparison stays current.
        if (settle_windows_ >= config_.max_settle_windows) {
          epoch_state_ = EpochState::kMeasureOff;
          cpi_accum_ = 0.0;
          cpi_windows_ = 0;
        }
        return;
      }
      // Wait until the deployment set stabilizes (or the cap is reached),
      // then start the post-deployment measurement.
      if (deployed == 0 || settle_windows_ >= config_.max_settle_windows) {
        epoch_state_ = EpochState::kMeasureOn;
        cpi_accum_ = 0.0;
        cpi_windows_ = 0;
      }
      return;
    }
    case EpochState::kMeasureOn: {
      cpi_accum_ += window_cpi;
      if (config_.planner == PlannerKind::kCost) {
        epoch_on_insts_ += static_cast<double>(
            profile.totals.instructions - window_start_.instructions);
      }
      if (++cpi_windows_ < config_.epoch_windows) return;
      const double cpi_on = cpi_accum_ / cpi_windows_;
      const double on_insts = epoch_on_insts_;
      epoch_on_insts_ = 0.0;
      cpi_accum_ = 0.0;
      cpi_windows_ = 0;
      if (cpi_on > cpi_off_ * config_.epoch_slowdown_threshold) {
        RevertEpoch();
        ++stats_.epochs_reverted;
        TraceInstant("epoch.reverted");
        epoch_state_ = EpochState::kMeasureOff;  // measure fresh, try again
      } else {
        // Realized benefit of the kept epoch: the measured CPI drop times
        // the instructions it was measured over — the figure the
        // cobra.planner.* family reports against the model's estimates.
        if (config_.planner == PlannerKind::kCost && cpi_on < cpi_off_) {
          planner_.AddRealizedBenefit((cpi_off_ - cpi_on) * on_insts);
        }
        ++stats_.epochs_kept;
        TraceInstant("epoch.kept");
        epoch_deployments_.clear();
        epoch_heads_.clear();
        cpi_off_ = cpi_on;  // the kept level is the new baseline
        epoch_state_ = EpochState::kHold;
      }
      return;
    }
    case EpochState::kHold: {
      // Watch for newly qualifying loops (phase drift, late discovery);
      // open a new epoch against the current level when any appear.
      const int deployed = DeployQualifying(profile);
      if (deployed > 0) {
        settle_windows_ = 0;
        epoch_state_ = EpochState::kDeploying;
      }
      return;
    }
  }
}

void CobraRuntime::PhaseDetect(const CounterTotals& window) {
  if (window.instructions == 0) return;
  // Let the cold-start transient pass before pinning the phase reference,
  // or the warm-up itself reads as a "phase change".
  if (stats_.evaluations <= static_cast<std::uint64_t>(config_.epoch_windows)) {
    return;
  }
  const double l3_per_inst = static_cast<double>(window.l3_misses) /
                             static_cast<double>(window.instructions);
  if (!reference_l3_per_inst_.has_value()) {
    reference_l3_per_inst_ = l3_per_inst;
    return;
  }
  const double ref = *reference_l3_per_inst_;
  const double denom = std::max(ref, 1e-9);
  const bool shifted =
      std::fabs(l3_per_inst - ref) / denom > config_.phase_change_threshold;
  // Hysteresis: a single outlier window (e.g. one cold array sweep) must
  // not trigger re-adaptation; require two consecutive shifted windows.
  if (!shifted) {
    phase_shift_pending_ = false;
    return;
  }
  if (!phase_shift_pending_) {
    phase_shift_pending_ = true;
    return;
  }
  phase_shift_pending_ = false;

  // Continuous re-adaptation: revert everything, forget loop verdicts,
  // restart the epoch machinery against the new phase.
  ++stats_.phase_changes;
  TraceInstant("phase_change");
  for (const auto& deployment : trace_cache_.deployments()) {
    if (deployment.active) {
      trace_cache_.Revert(deployment.id);
      ++stats_.rollbacks;
      TraceInstant("revert");
    }
  }
  history_.clear();
  epoch_deployments_.clear();
  epoch_heads_.clear();
  cpi_accum_ = 0.0;
  cpi_windows_ = 0;
  epoch_on_insts_ = 0.0;
  epoch_state_ = EpochState::kMeasureOff;
  reference_l3_per_inst_ = l3_per_inst;
  // The standing plan was built for the phase that just ended: forget it
  // (and its cooldown) so the planner re-solves from scratch, like the
  // heuristic forgetting its loop verdicts above.
  planner_.Reset();
}

}  // namespace cobra::core
