// matrix_fuzz — randomized scenario fuzzer CLI (docs/TESTING.md).
//
//   matrix_fuzz                         # the fixed CI seed set (1..25), both policies
//   matrix_fuzz --seed 1337            # replay one seed
//   matrix_fuzz --count 100            # seeds start..start+99
//   matrix_fuzz --start-seed 9000      # where --count begins (default 1)
//   matrix_fuzz --policy classic       # classic | directive | both (default both)
//   matrix_fuzz --time-budget 60       # stop launching new cases after N wall seconds
//   matrix_fuzz --dump-dir DIR         # write failing traces to DIR/fuzz_seed_N.jsonl
//   matrix_fuzz --json FILE            # sweep tallies as matrix_bench_json
//
// Every case expands its seed into a full scenario (src/fuzz/fuzz_scenario.h),
// runs it to rest, and checks every trace invariant.  On violation the tool
// prints the seed, the violated invariants, and the flight-recorder JSONL —
// everything needed to replay with `matrix_fuzz --seed N`.  Exit 1 on any
// violation, 0 on a clean sweep.
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "fuzz/fuzz_scenario.h"

namespace {

using matrix::LoadPolicyKind;
using matrix::fuzz::FuzzResult;
using matrix::fuzz::FuzzRunOptions;

struct Args {
  std::vector<std::uint64_t> seeds;
  std::uint64_t start_seed = 1;
  std::uint64_t count = 0;          // 0 = use the fixed CI set
  std::string policy = "both";
  double time_budget_sec = 0.0;     // 0 = no budget
  std::string dump_dir;
  std::string json_path;            // sweep tallies, matrix_bench_json shape
};

void usage() {
  std::cerr << "usage: matrix_fuzz [--seed N]... [--count N] [--start-seed N]\n"
               "                   [--policy classic|directive|both]\n"
               "                   [--time-budget SEC] [--dump-dir DIR]\n"
               "                   [--json FILE]\n";
}

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto need_value = [&](const char* name) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "matrix_fuzz: " << name << " needs a value\n";
        return nullptr;
      }
      return argv[++i];
    };
    if (flag == "--seed") {
      const char* v = need_value("--seed");
      if (v == nullptr) return false;
      args.seeds.push_back(std::strtoull(v, nullptr, 10));
    } else if (flag == "--count") {
      const char* v = need_value("--count");
      if (v == nullptr) return false;
      args.count = std::strtoull(v, nullptr, 10);
    } else if (flag == "--start-seed") {
      const char* v = need_value("--start-seed");
      if (v == nullptr) return false;
      args.start_seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--policy") {
      const char* v = need_value("--policy");
      if (v == nullptr) return false;
      args.policy = v;
      if (args.policy != "classic" && args.policy != "directive" &&
          args.policy != "both") {
        std::cerr << "matrix_fuzz: unknown policy '" << args.policy << "'\n";
        return false;
      }
    } else if (flag == "--time-budget") {
      const char* v = need_value("--time-budget");
      if (v == nullptr) return false;
      args.time_budget_sec = std::strtod(v, nullptr);
    } else if (flag == "--dump-dir") {
      const char* v = need_value("--dump-dir");
      if (v == nullptr) return false;
      args.dump_dir = v;
    } else if (flag == "--json") {
      const char* v = need_value("--json");
      if (v == nullptr) return false;
      args.json_path = v;
    } else if (flag == "--help" || flag == "-h") {
      usage();
      std::exit(0);
    } else {
      std::cerr << "matrix_fuzz: unknown flag '" << flag << "'\n";
      usage();
      return false;
    }
  }
  return true;
}

/// Runs one (seed, policy) case; returns true when every invariant held.
bool run_case(std::uint64_t seed, LoadPolicyKind policy,
              const std::string& dump_dir) {
  FuzzRunOptions options;
  options.capture_trace = true;
  const FuzzResult result = matrix::fuzz::run_fuzz_case(seed, policy, options);

  std::cout << (result.report.ok() ? "ok   " : "FAIL ")
            << result.plan.describe() << " — " << result.report.events_checked
            << " events, " << result.report.clients_tracked << " clients"
            << (result.quiesced ? "" : ", DID NOT QUIESCE") << "\n";

  if (result.report.ok()) return true;

  std::cout << "\n=== invariant violations for seed " << seed << " ("
            << matrix::load_policy_kind_name(policy) << ") ===\n"
            << result.report.summary()
            << "\nreplay: matrix_fuzz --seed " << seed << " --policy "
            << matrix::load_policy_kind_name(policy) << "\n";

  if (!dump_dir.empty()) {
    const std::string path = dump_dir + "/fuzz_seed_" + std::to_string(seed) +
                             "_" + matrix::load_policy_kind_name(policy) +
                             ".jsonl";
    std::ofstream out(path);
    if (out) {
      out << result.trace_jsonl;
      std::cout << "flight recorder written to " << path << "\n";
    } else {
      std::cout << "could not open " << path << "; dumping inline:\n"
                << result.trace_jsonl;
    }
  } else {
    std::cout << "=== flight recorder (JSONL, oldest first) ===\n"
              << result.trace_jsonl;
  }
  std::cout << std::endl;
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) return 2;

  std::vector<std::uint64_t> seeds = args.seeds;
  if (seeds.empty()) {
    const std::uint64_t n = args.count != 0 ? args.count : 25;
    for (std::uint64_t s = 0; s < n; ++s) seeds.push_back(args.start_seed + s);
  }

  std::vector<LoadPolicyKind> policies;
  if (args.policy == "classic" || args.policy == "both") {
    policies.push_back(LoadPolicyKind::kClassic);
  }
  if (args.policy == "directive" || args.policy == "both") {
    policies.push_back(LoadPolicyKind::kDirective);
  }

  const auto started = std::chrono::steady_clock::now();
  const auto out_of_budget = [&] {
    if (args.time_budget_sec <= 0.0) return false;
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - started;
    return elapsed.count() >= args.time_budget_sec;
  };

  std::size_t ran = 0;
  std::size_t failed = 0;
  bool budget_hit = false;
  for (const std::uint64_t seed : seeds) {
    for (const LoadPolicyKind policy : policies) {
      if (out_of_budget()) {
        budget_hit = true;
        break;
      }
      ++ran;
      if (!run_case(seed, policy, args.dump_dir)) ++failed;
    }
    if (budget_hit) break;
  }

  std::cout << "\nmatrix_fuzz: " << ran << " cases, " << failed << " failed";
  if (budget_hit) std::cout << " (time budget reached)";
  std::cout << "\n";

  // Sweep tallies in the same matrix_bench_json shape the benches emit, so
  // one reader handles fuzz and bench reports alike.
  if (!args.json_path.empty()) {
    std::ofstream out(args.json_path);
    if (!out) {
      std::cerr << "matrix_fuzz: cannot write " << args.json_path << "\n";
      return 1;
    }
    out << "{\n  \"context\": {\n    \"executable\": \"matrix_fuzz\",\n"
           "    \"format\": \"matrix_bench_json\"\n  },\n"
           "  \"benchmarks\": [\n"
           "    {\"name\": \"cases_run\", \"value\": " << ran
        << ", \"unit\": \"cases\"},\n"
           "    {\"name\": \"cases_failed\", \"value\": " << failed
        << ", \"unit\": \"cases\"}\n  ]\n}\n";
  }
  return failed == 0 ? 0 : 1;
}
