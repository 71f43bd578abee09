// Paper-conformance trend tests (ctest label `trends`): run the quick
// benchmark suite in-process once and assert the *directions* the paper's
// figures claim — not exact numbers, which depend on the timing model's
// constants, but the ordering relations COBRA's design argument rests on:
//
//   Fig. 5   COBRA speeds NPB up over the prefetch baseline, on the SMP
//            bus machine and the NUMA directory machine alike.
//   Fig. 6   COBRA's noprefetch optimization cuts L3 misses; ADORE-style
//            insertion cuts *demand* L3 misses on a noprefetch binary.
//   Fig. 7a  Adaptive `.excl` hints generate far less invalidation
//            traffic than a binary compiled with always-on `.excl`.
//   Fig. 7b  On NUMA, plain `.nt1` removal (noprefetch) beats `.excl`.
//
// The same document feeds the golden-schema test: the report's shape
// (keys and value types, not values) is pinned to
// tests/golden/bench_schema.txt, and the serialized report must round-trip
// through the support::Json parser unchanged.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "compare.h"
#include "mem/protocol.h"
#include "suite.h"
#include "support/json.h"

namespace cobra {
namespace {

using support::Json;

// One quick-suite run shared by every test in this binary (~10 s total; a
// per-test run would multiply that by the assertion count).
const Json& Report() {
  static const Json* doc = [] {
    bench::SuiteOptions options;
    options.quick = true;
    return new Json(bench::RunPaperSuite(options));
  }();
  return *doc;
}

const Json& Experiment(const std::string& name) {
  for (const Json& e : Report().At("experiments").elements()) {
    if (e.At("name").AsString() == name) return e;
  }
  ADD_FAILURE() << "experiment not found: " << name;
  static const Json missing = Json::Object();
  return missing;
}

double Derived(const std::string& experiment, const std::string& key) {
  return Experiment(experiment).At("derived").At(key).AsDouble();
}

// CI replays the quick suite under every COBRA_PROTOCOL. The paper's
// figure trends were measured on invalidation-based fabrics; under the
// update-based protocol the class-S kernels are BusUpd-bound, prefetch
// removal does not pay, and COBRA's measured epochs correctly roll the
// deployments back. The Fig. 5/6/7 tests therefore assert the rollback
// guarantee ("adaptation never hurts") instead of the win.
bool AmbientUpdateBased() {
  return Report().At("protocol").AsString() == "dragon";
}

TEST(PaperTrends, EverySimulatedRunVerifies) {
  for (const Json& e : Report().At("experiments").elements()) {
    for (const Json& row : e.At("rows").elements()) {
      const Json* verified = row.Find("verified");
      if (verified != nullptr) {
        EXPECT_TRUE(verified->AsBool())
            << e.At("name").AsString() << " row failed functional "
            << "verification: " << row.Dump();
      }
    }
  }
}

TEST(PaperTrends, CodegenShapeMatchesFigure2) {
  EXPECT_TRUE(Experiment("fig2_codegen").At("derived").At("shape_ok").AsBool());
}

// Figure 3: at the cache-resident working set, removing the compiler's
// prefetches speeds the 4-thread DAXPY up (the motivation for the paper).
TEST(PaperTrends, DaxpyNoprefetchWinsAtSmallWorkingSet) {
  EXPECT_GT(Derived("fig3_daxpy", "noprefetch_speedup_4t_128k"), 1.0);
}

// Figure 5: average COBRA (noprefetch) speedup over the prefetch baseline
// is above 1 on both machines — the baseline's speedup is 1 by definition,
// so this is "COBRA >= baseline".
TEST(PaperTrends, CobraBeatsBaselineOnSmpAndNuma) {
  if (AmbientUpdateBased()) {
    EXPECT_GE(Derived("npb_smp", "speedup_noprefetch_avg"), 0.98);
    EXPECT_GE(Derived("npb_numa", "speedup_noprefetch_avg"), 0.98);
    return;
  }
  EXPECT_GT(Derived("npb_smp", "speedup_noprefetch_avg"), 1.0);
  EXPECT_GT(Derived("npb_numa", "speedup_noprefetch_avg"), 1.0);
}

// Figure 6: the optimization that wins (noprefetch) wins *because* it cuts
// L3 misses — the average per-benchmark L3 ratio vs baseline is below 1.
TEST(PaperTrends, NoprefetchCutsL3Misses) {
  if (AmbientUpdateBased()) {
    // Nothing stays deployed, so the miss profile must match the baseline.
    EXPECT_LE(Derived("npb_smp", "l3_ratio_noprefetch_avg"), 1.01);
    EXPECT_LE(Derived("npb_numa", "l3_ratio_noprefetch_avg"), 1.01);
    return;
  }
  EXPECT_LT(Derived("npb_smp", "l3_ratio_noprefetch_avg"), 1.0);
  EXPECT_LT(Derived("npb_numa", "l3_ratio_noprefetch_avg"), 1.0);
}

// Figure 6 / ADORE: runtime prefetch *insertion* into a noprefetch binary
// cuts demand L3 misses (and speeds the memory-bound DAXPY up).
TEST(PaperTrends, InsertionCutsDemandL3Misses) {
  EXPECT_LT(Derived("adore_insertion", "demand_l3_inserted_over_bare"), 1.0);
  EXPECT_GT(Derived("adore_insertion", "speedup_inserted_vs_bare"), 1.0);
}

// Extension: profile-confirmed static chrecs let the controller deploy
// after one on-lattice confirmation instead of stride_confirmations of
// them — the first trace goes live strictly earlier, and DAXPY's clean
// affine streams never contradict the static solution.
TEST(PaperTrends, StaticPriorsCutTimeToFirstDeploy) {
  EXPECT_GT(Derived("static_priors", "prior_hits"), 0.0);
  EXPECT_EQ(
      Experiment("static_priors").At("rows").elements()[1]
          .At("prior_mismatches").AsInt(),
      0);
  EXPECT_GT(Derived("static_priors", "first_deploy_off"), 0.0);
  EXPECT_GT(Derived("static_priors", "first_deploy_on"), 0.0);
  EXPECT_LT(Derived("static_priors", "first_deploy_on"),
            Derived("static_priors", "first_deploy_off"));
}

// Extension (DESIGN.md §9): the cost-model planner must never lose to the
// per-loop heuristic — within 1% on every ablation workload — and must win
// strictly on the NUMA false-sharing case, where it prices the remote RFO
// traffic of eager `.excl` deployment and declines the candidate the
// heuristic deploys blindly. The planner workloads pin MESI explicitly,
// so the trend holds under any ambient COBRA_PROTOCOL.
TEST(PaperTrends, PlannerNeverLosesToHeuristic) {
  EXPECT_LE(Derived("planner", "cost_over_heuristic_smp"), 1.01);
  EXPECT_LE(Derived("planner", "cost_over_heuristic_numa"), 1.01);
  EXPECT_LE(Derived("planner", "cost_over_heuristic_phase"), 1.01);
  EXPECT_LT(Derived("planner", "cost_over_heuristic_numa"), 1.0);
}

// The hysteresis protocol under a phase-shifting schedule: once the second
// phase's latency mass overtakes the first's, fresh solves flip — and the
// cooldown suppresses the revision instead of thrashing the plan. The kept
// measured epoch on the coherent workload feeds the realized-benefit side
// of the estimate ledger.
TEST(PaperTrends, PlannerHysteresisHoldsPlanAcrossPhases) {
  EXPECT_GT(Derived("planner", "phase_rejected_hysteresis"), 0.0);
  EXPECT_GT(Derived("planner", "estimated_benefit_cycles"), 0.0);
  EXPECT_GT(Derived("planner", "realized_benefit_cycles"), 0.0);
}

// Figure 7a: COBRA deploys `.excl` hints adaptively (measured epochs revert
// them where they hurt), so its invalidation traffic — ownership upgrades
// plus read-for-ownership HITM transfers — stays far below the always-on
// `.excl` binary's.
TEST(PaperTrends, AdaptiveExclInvalidatesLessThanAlwaysOn) {
  // The whole suite may run under an ambient COBRA_PROTOCOL (CI does, for
  // all four). Under the update-based protocol there is no invalidation
  // traffic to contrast — `.excl` degrades to a plain prefetch — so the
  // figure's claim reduces to "both sides are zero".
  if (Report().At("protocol").AsString() == "dragon") {
    EXPECT_EQ(Derived("npb_smp", "invalidations_static_excl_total"), 0.0);
    EXPECT_EQ(Derived("npb_smp", "snoop_invalidations_static_excl_total"),
              0.0);
    return;
  }
  EXPECT_LT(Derived("npb_smp", "invalidations_cobra_excl_total"),
            Derived("npb_smp", "invalidations_static_excl_total"));
  EXPECT_LT(Derived("npb_smp", "snoop_invalidations_cobra_excl_total"),
            Derived("npb_smp", "snoop_invalidations_static_excl_total"));
}

// --- Coherence-protocol contrasts (protocol_matrix) -------------------------
// These run each protocol pinned explicitly, so they hold under any
// ambient COBRA_PROTOCOL.

// Dragon is update-based: stores to shared lines broadcast BusUpd and
// nothing is ever invalidated. The invalidation protocols are the mirror
// image: ownership traffic, zero updates.
TEST(PaperTrends, DragonUpdatesInsteadOfInvalidating) {
  EXPECT_EQ(Derived("protocol_matrix", "dragon_invalidations_total"), 0.0);
  EXPECT_EQ(Derived("protocol_matrix", "dragon_snoop_invalidations_total"),
            0.0);
  EXPECT_GT(Derived("protocol_matrix", "dragon_updates_total"), 0.0);
  EXPECT_GT(Derived("protocol_matrix", "mesi_invalidations_total"), 0.0);
  EXPECT_EQ(Derived("protocol_matrix", "mesi_updates_total"), 0.0);
  EXPECT_EQ(Derived("protocol_matrix", "mesif_updates_total"), 0.0);
}

// MESIF's Forward state sources clean lines cache-to-cache, which MESI
// always fetches from memory; MOESI's Owned state additionally shares
// dirty lines without the implicit writeback. Both must move at least as
// many lines cache-to-cache as MESI on identical workloads.
TEST(PaperTrends, ForwardingProtocolsMoveMoreLinesCacheToCache) {
  EXPECT_GT(Derived("protocol_matrix", "mesif_c2c_total"),
            Derived("protocol_matrix", "mesi_c2c_total"));
  EXPECT_GE(Derived("protocol_matrix", "moesi_c2c_total"),
            Derived("protocol_matrix", "mesi_c2c_total"));
}

// Figure 7b: on the NUMA machine, exclusive-hinted prefetches steal shared
// lines across the directory fabric; plain prefetch removal (`.nt1`-style)
// is the better strategy there.
TEST(PaperTrends, NumaPrefersNoprefetchOverExcl) {
  if (AmbientUpdateBased()) {
    // `.excl` degrades to a plain prefetch under Dragon, so the two
    // strategies converge rather than contrast.
    EXPECT_GE(Derived("npb_numa", "speedup_noprefetch_avg"),
              Derived("npb_numa", "speedup_excl_avg"));
    return;
  }
  EXPECT_GT(Derived("npb_numa", "speedup_noprefetch_avg"),
            Derived("npb_numa", "speedup_excl_avg"));
}

TEST(PaperTrends, SampledSimulationTracksFullRuns) {
  // DESIGN.md §12: the two-pass sampled pipeline must agree with the full
  // detailed run on the *direction* of COBRA's effect while simulating at
  // most a third of the instructions in detail (the >= 3x wall-clock
  // claim). The error bound is loose — the quick suite's scaled-down MG
  // sits near 3.5% — but a sampling regression (cold representatives,
  // distorted epochs) overshoots it by an order of magnitude.
  const Json& e = Experiment("sampled_accuracy");
  EXPECT_TRUE(e.At("derived").At("directional_ok").AsBool());
  EXPECT_LE(Derived("sampled_accuracy", "speedup_error"), 0.15);
  EXPECT_LE(Derived("sampled_accuracy", "detailed_fraction_max"), 1.0 / 3.0);
  EXPECT_GE(Derived("sampled_accuracy", "wall_reduction_proxy"), 3.0);
  // Every sampled run warmed its representatives through real checkpoint
  // round-trips, and both run styles verified functionally.
  for (const Json& row : e.At("rows").elements()) {
    EXPECT_GT(row.At("checkpoints").AsInt(), 0) << row.Dump();
    EXPECT_GT(row.At("checkpoint_bytes").AsInt(), 0) << row.Dump();
    EXPECT_TRUE(row.At("verified").AsBool()) << row.Dump();
  }
}

// --- Report document contract ---------------------------------------------

TEST(BenchReport, RoundTripsThroughParser) {
  const std::string text = Report().Dump();
  std::string error;
  const auto parsed = Json::Parse(text, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->Dump(), text);
}

TEST(BenchReport, SchemaMatchesGolden) {
  std::ifstream in(std::string(COBRA_GOLDEN_DIR) + "/bench_schema.txt");
  ASSERT_TRUE(in.good()) << "missing golden file " << COBRA_GOLDEN_DIR
                         << "/bench_schema.txt";
  std::stringstream golden;
  golden << in.rdbuf();
  std::string expected = golden.str();
  // Trim the trailing newline the generator writes.
  while (!expected.empty() &&
         (expected.back() == '\n' || expected.back() == '\r')) {
    expected.pop_back();
  }
  // The signature erases values, so this holds for any quantum, any machine
  // and --quick or not. Regenerate after an intentional schema change with:
  //   cobra_bench --suite=paper --quick --schema > tests/golden/bench_schema.txt
  EXPECT_EQ(Report().SchemaSignature(), expected);

  // Round-tripping must preserve the schema, not just the text.
  const auto parsed = Json::Parse(Report().Dump());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->SchemaSignature(), expected);
}

// --- Report comparison (cobra_bench --compare) -----------------------------

TEST(CompareReports, SelfCompareIsIdentical) {
  const bench::CompareResult r = bench::CompareReports(Report(), Report());
  EXPECT_TRUE(r.identical());
  EXPECT_EQ(r.total_diffs, 0u);
}

TEST(CompareReports, FlagsDriftButIgnoresHostKeys) {
  Json expected = Json::Object();
  expected.Set("cycles", 100);
  Json exp_host = Json::Object();
  exp_host.Set("wall_seconds", 1.5);
  expected.Set("host", std::move(exp_host));

  // Identical sim metrics, wildly different host perf: no drift.
  Json same = Json::Object();
  same.Set("cycles", 100);
  Json same_host = Json::Object();
  same_host.Set("wall_seconds", 99.0);
  same_host.Set("sim_mips", 3.0);  // even extra host keys are ignored
  same.Set("host", std::move(same_host));
  EXPECT_TRUE(bench::CompareReports(expected, same).identical());

  // A drifted sim counter is one difference with a path.
  Json drifted = Json::Object();
  drifted.Set("cycles", 101);
  const bench::CompareResult r = bench::CompareReports(expected, drifted);
  EXPECT_EQ(r.total_diffs, 1u);
  ASSERT_EQ(r.diffs.size(), 1u);
  EXPECT_NE(r.diffs[0].find("$.cycles"), std::string::npos);

  // Missing / extra non-host keys and kind mismatches all count.
  Json renamed = Json::Object();
  renamed.Set("cycle_count", 100);
  EXPECT_EQ(bench::CompareReports(expected, renamed).total_diffs, 2u);
  Json restrung = Json::Object();
  restrung.Set("cycles", "100");
  EXPECT_EQ(bench::CompareReports(expected, restrung).total_diffs, 1u);
}

TEST(BenchReport, MatchesCommittedGoldenQuickMetrics) {
  // The CI bench-smoke job runs `cobra_bench --suite=paper --quick
  // --compare=tests/golden/bench_quick_metrics.json`; this is the same
  // contract in-process, so a drifting simulation fails the test suite even
  // without the driver. Re-bless an intentional model change with:
  //   cobra_bench --suite=paper --quick
  //     --json=tests/golden/bench_quick_metrics.json
  // The golden values are blessed under the default protocol; an ambient
  // COBRA_PROTOCOL changes fabric timing (and the fabric.<protocol>.*
  // metric names), so only the MESI run is value-comparable.
  if (Report().At("protocol").AsString() != "mesi") {
    GTEST_SKIP() << "golden quick metrics are blessed under mesi; ambient "
                    "protocol is "
                 << Report().At("protocol").AsString();
  }
  std::ifstream in(std::string(COBRA_GOLDEN_DIR) +
                   "/bench_quick_metrics.json");
  ASSERT_TRUE(in.good()) << "missing golden file " << COBRA_GOLDEN_DIR
                         << "/bench_quick_metrics.json";
  std::stringstream text;
  text << in.rdbuf();
  std::string error;
  const auto golden = Json::Parse(text.str(), &error);
  ASSERT_TRUE(golden.has_value()) << error;
  // Compare the experiments subtree, not the header: the golden pins the
  // simulated results, while the header only records the run's settings.
  const bench::CompareResult r = bench::CompareReports(
      golden->At("experiments"), Report().At("experiments"));
  for (const std::string& diff : r.diffs) ADD_FAILURE() << diff;
  EXPECT_EQ(r.total_diffs, 0u);
}

TEST(BenchReport, HeaderIdentifiesTheRun) {
  EXPECT_EQ(Report().At("schema_version").AsInt(), 1);
  EXPECT_EQ(Report().At("generator").AsString(), "cobra_bench");
  EXPECT_EQ(Report().At("suite").AsString(), "paper");
  EXPECT_TRUE(Report().At("quick").AsBool());
  EXPECT_EQ(Report().At("protocol").AsString(),
            mem::ProtocolName(mem::ProtocolFromEnv(mem::Protocol::kMesi)));
  // Every declared experiment ran (no --only filter here).
  EXPECT_EQ(Report().At("experiments").size(),
            bench::PaperExperimentNames().size());
}

}  // namespace
}  // namespace cobra
