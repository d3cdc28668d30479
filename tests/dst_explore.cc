// dst_explore: the deterministic chaos-exploration driver (sim/explore.h).
//
// Sweep mode (default): run a time-boxed sweep of seeded fault schedules,
// checking every run against the four cluster invariants. A violating seed
// is written out as a JSON replay artifact, ddmin-shrunk to a minimal
// schedule, and the process exits nonzero.
//
//   dst_explore --seeds=200 --base-seed=1 --artifact-dir=dst_artifacts
//
// --print-fingerprints adds one `seed <n> <fingerprint>` line per seed, so
// two builds can be checked for identical per-seed outcomes with diff:
//
//   dst_explore --seeds=200 --print-fingerprints > fingerprints.txt
//
// Replay mode: load an artifact and run it twice, asserting bit-identical
// fingerprints (the determinism contract), printing any violations.
//
//   dst_explore --replay=dst_artifacts/seed-17.json
//
// Not a gtest binary: the tier-1 `dst` leg and scripts/dst_nightly.sh drive
// it directly, and ctest registers it with a small sweep.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "sim/explore.h"

namespace {

using aodb::FaultPlan;
using aodb::Status;
using aodb::dst::ExploreConfig;
using aodb::dst::RunResult;

struct Args {
  int seeds = 50;
  uint64_t base_seed = 1;
  std::string replay;
  std::string artifact_dir = "dst_artifacts";
  bool shrink = true;
  bool force_violation = false;
  bool print_fingerprints = false;
};

bool ParseArgs(int argc, char** argv, Args* out) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&arg](const char* prefix) -> const char* {
      size_t n = std::strlen(prefix);
      return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
    };
    if (const char* v = value("--seeds=")) {
      out->seeds = std::atoi(v);
    } else if (const char* v = value("--base-seed=")) {
      out->base_seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--replay=")) {
      out->replay = v;
    } else if (const char* v = value("--artifact-dir=")) {
      out->artifact_dir = v;
    } else if (arg == "--no-shrink") {
      out->shrink = false;
    } else if (arg == "--force-violation") {
      out->force_violation = true;
    } else if (arg == "--print-fingerprints") {
      out->print_fingerprints = true;
    } else if (arg == "--help" || arg == "-h") {
      return false;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return false;
    }
  }
  if (out->seeds <= 0 && out->replay.empty()) {
    std::fprintf(stderr, "--seeds must be positive\n");
    return false;
  }
  if (out->base_seed == 0) out->base_seed = 1;  // Seed 0 is reserved.
  return true;
}

void Usage() {
  std::fprintf(
      stderr,
      "usage: dst_explore [--seeds=N] [--base-seed=S] [--artifact-dir=DIR]\n"
      "                   [--no-shrink] [--force-violation] [--replay=FILE]\n"
      "                   [--print-fingerprints]\n");
}

bool WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << content;
  return static_cast<bool>(out);
}

int Replay(const Args& args) {
  std::ifstream in(args.replay, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "dst_explore: cannot open %s\n",
                 args.replay.c_str());
    return 2;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  FaultPlan plan;
  Status st = aodb::dst::PlanFromJson(buf.str(), &plan);
  if (!st.ok()) {
    std::fprintf(stderr, "dst_explore: %s\n", st.ToString().c_str());
    return 2;
  }
  ExploreConfig config;
  config.force_violation = args.force_violation;
  std::printf("replaying seed %llu (%d fault events) from %s\n",
              static_cast<unsigned long long>(plan.seed),
              aodb::dst::CountFaultEvents(plan), args.replay.c_str());
  RunResult first = aodb::dst::RunScenario(plan, config);
  RunResult second = aodb::dst::RunScenario(plan, config);
  std::printf("run 1 fingerprint: %s\n", first.fingerprint.c_str());
  std::printf("run 2 fingerprint: %s\n", second.fingerprint.c_str());
  for (const std::string& v : first.violations) {
    std::printf("violation: %s\n", v.c_str());
  }
  if (first.fingerprint != second.fingerprint) {
    std::fprintf(stderr,
                 "dst_explore: REPLAY NOT DETERMINISTIC (fingerprints "
                 "differ)\n");
    return 2;
  }
  if (first.postmortem_json != second.postmortem_json) {
    std::fprintf(stderr,
                 "dst_explore: REPLAY NOT DETERMINISTIC (postmortem bundles "
                 "differ)\n");
    return 2;
  }
  if (!first.postmortem_json.empty()) {
    // seed-N.json -> seed-N.bundle.json, next to the replay artifact.
    std::string bundle_path = args.replay;
    const std::string suffix = ".json";
    if (bundle_path.size() > suffix.size() &&
        bundle_path.compare(bundle_path.size() - suffix.size(), suffix.size(),
                            suffix) == 0) {
      bundle_path.resize(bundle_path.size() - suffix.size());
    }
    bundle_path += ".bundle.json";
    if (WriteFile(bundle_path, first.postmortem_json)) {
      std::printf("postmortem bundle: %s\n", bundle_path.c_str());
    } else {
      std::fprintf(stderr, "dst_explore: failed to write %s\n",
                   bundle_path.c_str());
    }
  }
  std::printf("replay deterministic: %d violation(s), %lld acked ops\n",
              static_cast<int>(first.violations.size()),
              static_cast<long long>(first.acked_ops));
  return 0;
}

int Sweep(const Args& args) {
  ExploreConfig config;
  config.force_violation = args.force_violation;
  int64_t total_acked = 0;
  int64_t total_checks = 0;
  int violating_seeds = 0;
  std::vector<std::string> artifacts;
  for (int i = 0; i < args.seeds; ++i) {
    const uint64_t seed = args.base_seed + static_cast<uint64_t>(i);
    FaultPlan plan = aodb::dst::GeneratePlan(seed, config);
    RunResult result = aodb::dst::RunScenario(plan, config);
    total_acked += result.acked_ops;
    total_checks += result.checks_run;
    if (args.print_fingerprints) {
      std::printf("seed %llu %s\n", static_cast<unsigned long long>(seed),
                  result.fingerprint.c_str());
    }
    if (result.violations.empty()) continue;

    ++violating_seeds;
    std::printf("seed %llu: %d violation(s) [%d fault events]\n",
                static_cast<unsigned long long>(seed),
                static_cast<int>(result.violations.size()),
                aodb::dst::CountFaultEvents(plan));
    for (const std::string& v : result.violations) {
      std::printf("  %s\n", v.c_str());
    }
    std::error_code ec;
    std::filesystem::create_directories(args.artifact_dir, ec);
    const std::string base =
        args.artifact_dir + "/seed-" + std::to_string(seed);
    const std::string full_path = base + ".json";
    if (WriteFile(full_path, aodb::dst::PlanToJson(plan))) {
      std::printf("  replay artifact: %s\n", full_path.c_str());
      artifacts.push_back(full_path);
    } else {
      std::fprintf(stderr, "  failed to write %s\n", full_path.c_str());
    }
    if (!result.postmortem_json.empty()) {
      const std::string bundle_path = base + ".bundle.json";
      if (WriteFile(bundle_path, result.postmortem_json)) {
        std::printf("  postmortem bundle: %s\n", bundle_path.c_str());
        artifacts.push_back(bundle_path);
      } else {
        std::fprintf(stderr, "  failed to write %s\n", bundle_path.c_str());
      }
    }
    if (args.shrink) {
      int shrink_runs = 0;
      FaultPlan minimized =
          aodb::dst::ShrinkPlan(plan, config, /*max_runs=*/64, &shrink_runs);
      const std::string min_path = base + ".min.json";
      if (WriteFile(min_path, aodb::dst::PlanToJson(minimized))) {
        std::printf(
            "  minimized: %d -> %d fault events in %d shrink runs: %s\n",
            aodb::dst::CountFaultEvents(plan),
            aodb::dst::CountFaultEvents(minimized), shrink_runs,
            min_path.c_str());
        artifacts.push_back(min_path);
      }
    }
  }
  std::printf(
      "dst_explore: %d seed(s) explored, %d violating, %lld acked ops, "
      "%lld invariant checks\n",
      args.seeds, violating_seeds, static_cast<long long>(total_acked),
      static_cast<long long>(total_checks));
  if (total_checks == 0 || total_acked == 0) {
    std::fprintf(stderr,
                 "dst_explore: sweep made no progress (0 checks or 0 acked "
                 "ops) — harness wiring is broken\n");
    return 2;
  }
  if (violating_seeds > 0) {
    std::fprintf(stderr, "dst_explore: INVARIANT VIOLATIONS FOUND\n");
    for (const std::string& a : artifacts) {
      std::fprintf(stderr, "  artifact: %s\n", a.c_str());
    }
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    Usage();
    return 2;
  }
  if (!args.replay.empty()) return Replay(args);
  return Sweep(args);
}
