// cobra_bench: the unified paper-conformance benchmark driver.
//
// Replaces the twelve per-figure bench binaries with one entry point that
// runs the whole suite and emits a machine-readable report:
//
//   cobra_bench --suite=paper --quick --json=BENCH_cobra.json
//   cobra_bench --suite=micro
//   cobra_bench --list
//   cobra_bench --only=npb_smp
//
// The JSON document's shape is pinned by tests/paper_trends_test.cpp
// (golden schema); the paper's headline trends are asserted by the same
// test on a quick run. COBRA_TRACE=<file> additionally writes a Chrome
// trace-event timeline of the simulated runs, and COBRA_ENGINE sets the
// execution engine's quantum.
#include <cstdio>
#include <cstring>
#include <string>

#include "compare.h"
#include "suite.h"
#include "support/json.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--suite=paper|micro] [--quick] [--sample] [--json=FILE]\n"
      "          [--only=SUBSTRING] [--compare=OLD.json] [--list] [--quiet]\n"
      "\n"
      "  --suite=NAME   paper (default): Table 1, Fig 2/3/5/6/7, ablations,\n"
      "                 insertion; micro: execution-engine quantum sweep\n"
      "  --quick        CI-sized matrices (same experiments, same schema)\n"
      "  --sample       run the NPB matrices in sampled mode: a fast-forward\n"
      "                 BBV profiling pass, then detailed simulation of only\n"
      "                 the representative phase intervals (warmed from\n"
      "                 checkpoints); reported counters are projections\n"
      "  --json=FILE    write the report document to FILE\n"
      "  --only=SUB     run only experiments whose name contains SUB\n"
      "  --compare=OLD  diff this run's report against a previous report,\n"
      "                 metric by metric (exact for simulated counters,\n"
      "                 ignoring host.* perf keys); exit 1 on any drift\n"
      "  --list         print experiment names with descriptions and exit\n"
      "  --schema       print the report's schema signature instead of the\n"
      "                 summary (regenerates tests/golden/bench_schema.txt)\n"
      "  --quiet        suppress progress lines on stderr\n"
      "\n"
      "environment: COBRA_ENGINE=serial[@Q], COBRA_TRACE=FILE,\n"
      "             COBRA_SAMPLE=<interval_insts>[:<max_phases>]\n",
      argv0);
  return 2;
}

bool FlagValue(const char* arg, const char* name, std::string* value) {
  const std::size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *value = arg + len + 1;
  return true;
}

bool ReadFile(const std::string& path, std::string* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  char buf[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out->append(buf, n);
  std::fclose(f);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cobra;

  std::string suite = "paper";
  std::string json_path;
  std::string compare_path;
  bench::SuiteOptions options;
  options.echo = true;
  bool list = false;
  bool schema = false;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    std::string value;
    if (std::strcmp(arg, "--quick") == 0) {
      options.quick = true;
    } else if (std::strcmp(arg, "--sample") == 0) {
      options.sample = true;
    } else if (std::strcmp(arg, "--list") == 0) {
      list = true;
    } else if (std::strcmp(arg, "--schema") == 0) {
      schema = true;
      options.echo = false;
    } else if (std::strcmp(arg, "--quiet") == 0) {
      options.echo = false;
    } else if (FlagValue(arg, "--suite", &value)) {
      suite = value;
    } else if (FlagValue(arg, "--json", &value)) {
      json_path = value;
    } else if (FlagValue(arg, "--only", &value)) {
      options.only = value;
    } else if (FlagValue(arg, "--compare", &value)) {
      compare_path = value;
    } else {
      return Usage(argv[0]);
    }
  }
  if (suite != "paper" && suite != "micro") return Usage(argv[0]);

  if (list) {
    const auto infos = suite == "paper" ? bench::PaperExperimentList()
                                        : bench::MicroExperimentList();
    for (const auto& info : infos) {
      std::printf("%-20s %s\n", info.name.c_str(), info.description.c_str());
    }
    return 0;
  }

  const support::Json doc = suite == "paper" ? bench::RunPaperSuite(options)
                                             : bench::RunMicroSuite(options);

  if (schema) {
    std::printf("%s\n", doc.SchemaSignature().c_str());
    return 0;
  }

  // Human-readable summary: one line per experiment, plus its derived
  // headline numbers (the full data lives in the JSON report).
  std::printf("cobra_bench suite=%s quick=%s engine=%s\n", suite.c_str(),
              options.quick ? "yes" : "no",
              doc.At("engine").AsString().c_str());
  for (const support::Json& e : doc.At("experiments").elements()) {
    std::printf("  %-20s %-20s rows=%zu", e.At("name").AsString().c_str(),
                e.At("figure").AsString().c_str(), e.At("rows").size());
    for (const auto& [key, value] : e.At("derived").items()) {
      if (value.is_number()) {
        std::printf("  %s=%.4g", key.c_str(), value.AsDouble());
      } else if (value.kind() == support::Json::Kind::kBool) {
        std::printf("  %s=%s", key.c_str(), value.AsBool() ? "yes" : "NO");
      }
    }
    std::printf("\n");
  }

  if (!json_path.empty()) {
    const std::string text = doc.Dump();
    std::FILE* f = std::fopen(json_path.c_str(), "wb");
    if (f == nullptr) {
      std::fprintf(stderr, "cobra_bench: cannot write %s\n",
                   json_path.c_str());
      return 1;
    }
    std::fwrite(text.data(), 1, text.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("wrote %s (%zu bytes)\n", json_path.c_str(), text.size() + 1);
  }

  if (!compare_path.empty()) {
    std::string old_text;
    if (!ReadFile(compare_path, &old_text)) {
      std::fprintf(stderr, "cobra_bench: cannot read %s\n",
                   compare_path.c_str());
      return 2;
    }
    std::string error;
    const auto old_doc = support::Json::Parse(old_text, &error);
    if (!old_doc.has_value()) {
      std::fprintf(stderr, "cobra_bench: %s: %s\n", compare_path.c_str(),
                   error.c_str());
      return 2;
    }
    const bench::CompareResult cmp = bench::CompareReports(*old_doc, doc);
    if (!cmp.identical()) {
      for (const std::string& line : cmp.diffs) {
        std::fprintf(stderr, "cobra_bench: compare: %s\n", line.c_str());
      }
      std::fprintf(stderr,
                   "cobra_bench: compare: %llu difference(s) vs %s "
                   "(host keys ignored)\n",
                   static_cast<unsigned long long>(cmp.total_diffs),
                   compare_path.c_str());
      return 1;
    }
    std::printf("compare: OK, matches %s (host keys ignored)\n",
                compare_path.c_str());
  }
  return 0;
}
