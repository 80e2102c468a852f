// matrix_sweep — multi-process sweep driver (README "Reproduce the paper's
// experiments"; docs/ARCHITECTURE.md "Parallel engine").
//
//   matrix_sweep ./build/bench_surge_queue ++ ./build/bench_policy_grants
//   matrix_sweep --jobs 4 --repeat 3 ./build/bench_overload_admission
//   matrix_sweep --out sweep.json ./build/matrix_fuzz --count 5 ++
//                ./build/matrix_fuzz --start-seed 100 --count 5
//
// Runs the given commands concurrently as child processes (fork/exec) and
// aggregates their `--json` reports into one matrix_bench_json document —
// the embarrassingly-parallel complement to the in-process sharded engine:
// shards parallelize ONE simulation, the sweep parallelizes MANY (seeds,
// configs, policies), and the two compose since each child is free to run
// sharded itself.
//
// `++` separates commands (every bench already owns `--`-style flags, so a
// bare `--` would be ambiguous).  `--repeat N` clones the whole command list
// N times — with benches deriving behavior from their own fixed seeds this
// measures run-to-run wall-clock variance; with seed-taking tools the clone
// index is appended via `{i}` substitution in any argument, e.g.
// `matrix_sweep --repeat 8 ./build/matrix_fuzz --seed {i}`.
//
// Each child gets `--json <tmpfile>` appended and its stdout silenced
// (stderr passes through — that is where failures explain themselves); a
// nonzero child exit fails the sweep (exit 1) after aggregation so a CI
// wrapper still gets the partial report.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace {

struct Job {
  std::vector<std::string> argv;   // command + args, `--json` NOT included
  std::string label;               // prefix for aggregated metric names
  std::string json_path;           // temp report path handed to the child
  pid_t pid = -1;
  int exit_status = -1;
  double wall_sec = 0.0;
  std::chrono::steady_clock::time_point started;
};

struct Args {
  std::size_t jobs = 0;            // 0 = hardware concurrency
  std::size_t repeat = 1;
  std::string out;                 // aggregated report path ("" = stdout only)
  std::vector<std::vector<std::string>> commands;
};

void usage() {
  std::fprintf(stderr,
               "usage: matrix_sweep [--jobs N] [--repeat N] [--out FILE]\n"
               "                    CMD [ARGS...] [++ CMD [ARGS...]]...\n");
}

bool parse_args(int argc, char** argv, Args& args) {
  int i = 1;
  for (; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--jobs" && i + 1 < argc) {
      args.jobs = static_cast<std::size_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (flag == "--repeat" && i + 1 < argc) {
      args.repeat =
          std::max<std::size_t>(1, std::strtoul(argv[++i], nullptr, 10));
    } else if (flag == "--out" && i + 1 < argc) {
      args.out = argv[++i];
    } else if (flag == "--help" || flag == "-h") {
      usage();
      std::exit(0);
    } else {
      break;  // first non-flag token starts the command list
    }
  }
  std::vector<std::string> current;
  for (; i < argc; ++i) {
    if (std::strcmp(argv[i], "++") == 0) {
      if (!current.empty()) args.commands.push_back(std::move(current));
      current.clear();
    } else {
      current.emplace_back(argv[i]);
    }
  }
  if (!current.empty()) args.commands.push_back(std::move(current));
  return !args.commands.empty();
}

std::string basename_of(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

/// Replaces every `{i}` in `arg` with the clone index.
std::string substitute_index(const std::string& arg, std::size_t index) {
  std::string out = arg;
  std::size_t pos;
  while ((pos = out.find("{i}")) != std::string::npos) {
    out.replace(pos, 3, std::to_string(index));
  }
  return out;
}

bool spawn(Job& job) {
  std::vector<char*> argv;
  argv.reserve(job.argv.size() + 3);
  for (std::string& arg : job.argv) argv.push_back(arg.data());
  std::string json_flag = "--json";
  argv.push_back(json_flag.data());
  argv.push_back(job.json_path.data());
  argv.push_back(nullptr);

  job.started = std::chrono::steady_clock::now();
  std::fflush(stdout);  // children inherit the buffer; don't replay it
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("matrix_sweep: fork");
    return false;
  }
  if (pid == 0) {
    // Child: silence stdout (benches narrate freely); stderr passes through.
    std::FILE* devnull = std::freopen("/dev/null", "w", stdout);
    (void)devnull;
    execvp(argv[0], argv.data());
    std::fprintf(stderr, "matrix_sweep: exec %s: %s\n", argv[0],
                 std::strerror(errno));
    _exit(127);
  }
  job.pid = pid;
  return true;
}

void reap(std::vector<Job>& jobs) {
  int status = 0;
  const pid_t pid = wait(&status);
  if (pid < 0) return;
  for (Job& job : jobs) {
    if (job.pid == pid) {
      job.exit_status =
          WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
      job.wall_sec = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - job.started)
                         .count();
      job.pid = -1;
      return;
    }
  }
}

struct Entry {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Pulls the benchmarks[] entries out of one matrix_bench_json file.  The
/// format is the flat writer in bench_common.h — one entry per line — so a
/// line scanner is enough; no JSON library in the toolchain.
std::vector<Entry> read_report(const std::string& path) {
  std::vector<Entry> entries;
  std::ifstream in(path);
  std::string line;
  const auto field = [&line](const char* key) -> std::string {
    const std::size_t at = line.find(key);
    if (at == std::string::npos) return {};
    const std::size_t colon = line.find(':', at);
    if (colon == std::string::npos) return {};
    std::size_t begin = line.find_first_not_of(" \"", colon + 1);
    std::size_t end = line.find_first_of("\",}", begin);
    if (begin == std::string::npos || end == std::string::npos) return {};
    return line.substr(begin, end - begin);
  };
  while (std::getline(in, line)) {
    if (line.find("\"name\"") == std::string::npos) continue;
    Entry e;
    e.name = field("\"name\"");
    const std::string value = field("\"value\"");
    if (e.name.empty() || value.empty()) continue;
    e.value = std::strtod(value.c_str(), nullptr);
    e.unit = field("\"unit\"");
    entries.push_back(std::move(e));
  }
  return entries;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    usage();
    return 2;
  }
  const std::size_t max_jobs =
      args.jobs > 0 ? args.jobs
                    : std::max(1u, std::thread::hardware_concurrency());

  // Expand the command list × repeat into jobs with unique labels.
  std::vector<Job> jobs;
  for (std::size_t r = 0; r < args.repeat; ++r) {
    for (std::size_t c = 0; c < args.commands.size(); ++c) {
      Job job;
      const std::size_t index = r * args.commands.size() + c;
      for (const std::string& arg : args.commands[c]) {
        job.argv.push_back(substitute_index(arg, index));
      }
      job.label = basename_of(job.argv.front());
      if (args.repeat > 1) job.label += "#" + std::to_string(r);
      std::ostringstream path;
      path << "/tmp/matrix_sweep." << getpid() << "." << index << ".json";
      job.json_path = path.str();
      jobs.push_back(std::move(job));
    }
  }
  // Duplicate labels within one repeat round get a positional suffix so the
  // aggregated names stay unique.
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    std::size_t dup = 0;
    for (std::size_t j = 0; j < i; ++j) {
      if (jobs[j].label == jobs[i].label) ++dup;
    }
    if (dup > 0) jobs[i].label += "@" + std::to_string(dup);
  }

  std::printf("matrix_sweep: %zu job(s), %zu at a time\n", jobs.size(),
              max_jobs);
  const auto sweep_start = std::chrono::steady_clock::now();
  std::size_t launched = 0;
  std::size_t running = 0;
  while (launched < jobs.size() || running > 0) {
    while (launched < jobs.size() && running < max_jobs) {
      if (!spawn(jobs[launched])) {
        jobs[launched].exit_status = 127;
      } else {
        ++running;
      }
      ++launched;
    }
    if (running > 0) {
      reap(jobs);
      --running;
    }
  }
  const double sweep_sec = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - sweep_start)
                               .count();

  // ---- aggregate ------------------------------------------------------------
  bool all_ok = true;
  std::vector<Entry> merged;
  double serial_sec = 0.0;
  for (Job& job : jobs) {
    serial_sec += job.wall_sec;
    std::printf("  [%-28s] exit=%-3d wall=%7.2fs", job.label.c_str(),
                job.exit_status, job.wall_sec);
    if (job.exit_status != 0) {
      all_ok = false;
      std::printf("  FAILED\n");
    } else {
      const std::vector<Entry> entries = read_report(job.json_path);
      std::printf("  %zu metric(s)\n", entries.size());
      for (const Entry& e : entries) {
        merged.push_back({job.label + "/" + e.name, e.value, e.unit});
      }
    }
    std::remove(job.json_path.c_str());
  }
  std::printf("matrix_sweep: %.2fs wall for %.2fs of serial bench time"
              " (%.2fx)\n",
              sweep_sec, serial_sec,
              sweep_sec > 0.0 ? serial_sec / sweep_sec : 0.0);

  if (!args.out.empty()) {
    std::FILE* f = std::fopen(args.out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "matrix_sweep: cannot write %s\n",
                   args.out.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\n  \"context\": {\n    \"executable\": \"matrix_sweep\",\n"
                 "    \"format\": \"matrix_bench_json\"\n  },\n"
                 "  \"benchmarks\": [\n");
    for (std::size_t i = 0; i < merged.size(); ++i) {
      std::fprintf(f,
                   "    {\"name\": \"%s\", \"value\": %.6g, \"unit\": "
                   "\"%s\"}%s\n",
                   merged[i].name.c_str(), merged[i].value,
                   merged[i].unit.c_str(), i + 1 < merged.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("  [aggregated report written to %s]\n", args.out.c_str());
  }
  return all_ok ? 0 : 1;
}
