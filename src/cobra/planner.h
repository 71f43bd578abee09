// Cost-model-driven optimization planner (DESIGN.md §9).
//
// The per-loop heuristic in CobraRuntime deploys every qualifying loop in
// hotness order, one verdict at a time. The planner answers the global
// question instead: which *set* of patches maximizes estimated benefit
// under a deployment budget? Each candidate — one loop region under one
// OptKind — carries an estimated benefit in cycles (the DEAR latency mass
// the patch targets, scaled by protocol-aware coherence-traffic shares)
// and a cost in budget units (patch deploy overhead, trace-cache slots,
// planted-prefetch bus occupancy). SolvePlan solves the knapsack
// relaxation with a greedy-by-density pass plus bounded exchange
// improvement — deterministic, no RNG, input-order independent — and the
// stateful Planner wraps the solver with hysteresis (a minimum profit
// delta and a cooldown window) so continuous re-adaptation cannot thrash
// across program phases.
//
// The controller consults the plan on every adaptation epoch when
// CobraConfig::planner == PlannerKind::kCost (COBRA_PLANNER=cost); the
// heuristic default is bit-identical to the pre-planner behaviour.
#pragma once

#include <cstdint>
#include <vector>

#include "cobra/optimizer.h"
#include "isa/image.h"

namespace cobra::core {

// Which strategy-selection engine the controller runs.
enum class PlannerKind : std::uint8_t { kHeuristic, kCost };

const char* PlannerKindName(PlannerKind kind);
// Parses "heuristic" / "cost" (case-insensitive); false leaves *out alone.
bool ParsePlannerKind(const char* text, PlannerKind* out);
// COBRA_PLANNER environment override, mirroring mem::ProtocolFromEnv: the
// parsed value when set and valid, `fallback` otherwise.
PlannerKind PlannerFromEnv(PlannerKind fallback);

// One candidate patch: a loop region under one optimization kind, scored.
struct PlanCandidate {
  isa::Addr head = 0;            // loop-head bundle; the loop's identity
  isa::Addr back_branch_pc = 0;
  OptKind kind = OptKind::kNone;
  double benefit = 0.0;          // estimated cycles saved per epoch
  double cost = 0.0;             // budget units (DESIGN.md §9)
};

// A solved patch set. At most one accepted candidate per loop head (the
// optimization kinds are mutually exclusive on a region).
struct Plan {
  std::vector<PlanCandidate> accepted;  // canonical (head, kind) order
  double total_benefit = 0.0;
  double total_cost = 0.0;
  // Positive-benefit candidates the budget / one-per-head constraints left
  // out of this solve (hysteresis rejections are counted by the Planner).
  std::uint64_t rejected_budget = 0;

  const PlanCandidate* Find(isa::Addr head) const;
  bool Contains(isa::Addr head) const { return Find(head) != nullptr; }
  // Same selected (head, kind) set — the scores may differ.
  bool SameSelection(const Plan& other) const;
};

// Deterministic solve of the budgeted patch-selection problem (knapsack
// relaxation with one-per-head exclusivity): candidates with non-positive
// benefit are dropped, the rest are taken greedily by benefit density,
// then improved by bounded exchange passes (fill, 1-out/1-in, 1-out/2-in,
// 2-out/1-in) and a best-single-item check. The result is independent of
// the input order and contains no randomness; on the small candidate sets
// the controller produces it is exhaustively close to optimal (the
// planner test suite enumerates all subsets and asserts the bound).
Plan SolvePlan(std::vector<PlanCandidate> candidates, double budget);

// Cumulative planner accounting, exported as the cobra.planner.* metric
// family by the controller.
struct PlannerStats {
  std::uint64_t solves = 0;               // Propose calls
  std::uint64_t candidates_seen = 0;      // across all solves
  std::uint64_t accepted = 0;             // accepted across adopted plans
  std::uint64_t rejected_budget = 0;      // budget-rejected, adopted plans
  std::uint64_t rejected_hysteresis = 0;  // differing solves suppressed
  std::uint64_t plan_revisions = 0;       // adoptions after the first plan
  double estimated_benefit = 0.0;  // sum of adopted plans' total_benefit
  double realized_benefit = 0.0;   // measured epoch gains (controller-fed)
};

// The stateful planner: re-solves on demand and applies hysteresis before
// replacing the plan in force.
class Planner {
 public:
  struct Options {
    double budget = 64.0;            // SolvePlan budget, in cost units
    double min_profit_delta = 256.0; // cycles a revision must win by
    std::uint64_t cooldown_cycles = 100000;  // between plan revisions
  };

  explicit Planner(Options options) : options_(options) {}

  // Scores a fresh solve against the plan in force and returns the plan to
  // deploy. A differing solve replaces the current plan only if the
  // cooldown has elapsed *and* the new total benefit beats the current
  // selection — re-scored against the fresh candidate estimates — by at
  // least min_profit_delta; otherwise the proposal is rejected
  // (rejected_hysteresis) and the standing plan stays in force.
  const Plan& Propose(const std::vector<PlanCandidate>& candidates,
                      std::uint64_t now_cycles);

  // Phase change: forget the standing plan and the cooldown so
  // re-adaptation starts from scratch (stats are preserved).
  void Reset();

  // Measured outcome of a kept epoch, credited against the estimates.
  void AddRealizedBenefit(double cycles) {
    stats_.realized_benefit += cycles;
  }

  const Plan& plan() const { return plan_; }
  bool has_plan() const { return has_plan_; }
  const PlannerStats& stats() const { return stats_; }
  const Options& options() const { return options_; }

 private:
  void Adopt(Plan next, std::uint64_t now_cycles);

  Options options_;
  Plan plan_;
  bool has_plan_ = false;
  std::uint64_t last_revision_cycles_ = 0;
  PlannerStats stats_;
};

}  // namespace cobra::core
