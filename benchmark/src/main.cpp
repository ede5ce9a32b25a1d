// oocc_benchmark — the repository benchmark of the out-of-core compiler.
//
//   oocc_benchmark --workload jacobi|gaxpy|chain|serve --seed N --seconds S
//                  --trace 0|1 [--work-dir DIR] [--trace-dir DIR]
//   oocc_benchmark --self-test [--work-dir DIR]
//
// Untraced runs (--trace 0) print the end-to-end metrics; traced runs print
// the per-layer metrics, the per-span table, and write a trace-event file.
// The last line of standard output is always the result object
// {"correct", "attempted", "failed", "metrics"}. benchmark/README.md lists
// every metric and what it should move.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "oocc/serve/json.hpp"

namespace {

using namespace oocc_bench;
namespace fs = std::filesystem;

const Clock::time_point kProcessStart = Clock::now();

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

void print_host_line(const RunConfig& cfg) {
  oocc::serve::Json host = oocc::serve::Json::object();
  host.set("cpu", cpu_model());
  host.set("nproc", static_cast<std::int64_t>(std::thread::hardware_concurrency()));
  host.set("build_type", OOCC_BENCH_BUILD_TYPE);
  host.set("workload", cfg.workload);
  host.set("seed", cfg.seed);
  host.set("seconds", cfg.seconds);
  host.set("trace", cfg.trace);
  oocc::serve::Json line = oocc::serve::Json::object();
  line.set("host", std::move(host));
  std::printf("%s\n", line.dump().c_str());
}

oocc::serve::Json metrics_json(const Metrics& m) {
  oocc::serve::Json out = oocc::serve::Json::object();
  for (const auto& [name, metric] : m) {
    oocc::serve::Json v = oocc::serve::Json::object();
    v.set("value", metric.value);
    v.set("unit", metric.unit);
    out.set(name, std::move(v));
  }
  return out;
}

int usage() {
  std::fprintf(stderr,
               "usage: oocc_benchmark --workload jacobi|gaxpy|chain|serve "
               "--seed N --seconds S --trace 0|1 [--work-dir DIR] "
               "[--trace-dir DIR]\n"
               "       oocc_benchmark --self-test [--work-dir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig cfg;
  cfg.process_start = kProcessStart;
  cfg.work_dir = ".bench_build/work";
  cfg.trace_dir = ".bench_trace";
  bool self_test = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--self-test") {
      self_test = true;
    } else if (arg == "--workload" && has_value) {
      cfg.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      cfg.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      cfg.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      cfg.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--work-dir" && has_value) {
      cfg.work_dir = argv[++i];
    } else if (arg == "--trace-dir" && has_value) {
      cfg.trace_dir = argv[++i];
    } else {
      return usage();
    }
  }
  // Each process works in its own directory, removed on every exit path.
  cfg.work_dir /= "run-" + std::to_string(::getpid());
  struct Cleanup {
    fs::path dir;
    ~Cleanup() {
      std::error_code ec;
      fs::remove_all(dir, ec);
    }
  } cleanup{cfg.work_dir};
  fs::create_directories(cfg.work_dir);

  if (self_test) {
    const int missed = self_test_exec(cfg.work_dir) + self_test_serve(cfg.work_dir);
    std::printf("self-test: %d check(s) misjudged\n", missed);
    return missed == 0 ? 0 : 1;
  }
  const bool exec_workload = cfg.workload == "jacobi" ||
                             cfg.workload == "gaxpy" || cfg.workload == "chain";
  if (!(exec_workload || cfg.workload == "serve") || !(cfg.seconds > 0)) {
    return usage();
  }
  print_host_line(cfg);

  Tracer tracer(cfg.trace);
  Outcome outcome;
  try {
    outcome = exec_workload ? run_exec_workload(cfg, tracer)
                            : run_serve_workload(cfg, tracer);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "benchmark aborted: %s\n", e.what());
    return 1;
  }

  // Exactly the metrics BENCHMARK.json names for this mode.
  const auto& names = cfg.trace ? per_layer_metrics() : end_to_end_metrics();
  Metrics printed;
  for (const auto& [name, unit] : names) {
    auto it = outcome.metrics.find(name);
    if (it == outcome.metrics.end()) {
      std::fprintf(stderr, "metric %s was not measured\n", name.c_str());
      return 1;
    }
    if (it->second.unit != unit) {
      std::fprintf(stderr, "metric %s measured in %s, declared %s\n",
                   name.c_str(), it->second.unit.c_str(), unit.c_str());
      return 1;
    }
    printed[name] = it->second;
  }

  if (cfg.trace) {
    const fs::path file = cfg.trace_dir / (cfg.workload + ".trace.json");
    tracer.write_trace_file(file, kProcessStart);
    std::printf("%s", tracer.layer_table().c_str());
    std::printf("trace: %zu spans written to %s\n", tracer.size(),
                file.string().c_str());
    oocc::serve::Json traced = oocc::serve::Json::object();
    traced.set("traced_end_to_end", metrics_json(outcome.traced_end_to_end));
    std::printf("%s\n", traced.dump().c_str());
  }

  oocc::serve::Json result = oocc::serve::Json::object();
  result.set("correct", outcome.correct);
  result.set("attempted", outcome.attempted);
  result.set("failed", outcome.failed);
  result.set("metrics", metrics_json(printed));
  std::printf("%s\n", result.dump().c_str());
  return 0;
}

namespace oocc_bench {

const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"setup_s", "s"},        {"exec_s", "s"},
      {"sim_s", "s_sim"},      {"laf_mb", "MB"},
      {"io_requests", "count"}, {"peak_rss_mb", "MB"},
      {"serve_rps", "req/s"},  {"serve_p50_ms", "ms"},
      {"serve_p99_ms", "ms"},  {"cold_compile_ms", "ms"},
  };
  return names;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"hpf.parse_ms", "ms"},
      {"hpf.analyze_ms", "ms"},
      {"compiler.lower_ms", "ms"},
      {"compiler.search_ms", "ms"},
      {"compiler.verify_ms", "ms"},
      {"compiler.price_ms", "ms"},
      {"compiler.candidates_priced", "count"},
      {"compiler.steps", "count"},
      {"compiler.priced_s", "s_sim"},
      {"compiler.priced_requests", "count"},
      {"compiler.priced_mb", "MB"},
      {"exec.flat_ref_s", "s"},
      {"exec.flat_ratio", "ratio"},
      {"exec.sim_compute_s", "s_sim"},
      {"runtime.pool_hits", "count"},
      {"runtime.pool_misses", "count"},
      {"runtime.pool_evictions", "count"},
      {"runtime.pool_writebacks", "count"},
      {"runtime.pool_hit_ratio", "ratio"},
      {"runtime.pool_mb_avoided", "MB"},
      {"io.read_mb", "MB"},
      {"io.write_mb", "MB"},
      {"io.sim_io_s", "s_sim"},
      {"io.async_jobs", "count"},
      {"io.async_busy_s", "s"},
      {"io.async_blocked_s", "s"},
      {"io.async_overlap_s", "s"},
      {"io.init_s", "s"},
      {"io.gather_s", "s"},
      {"sim.messages", "count"},
      {"sim.mb_sent", "MB"},
      {"sim.sim_comm_s", "s_sim"},
      {"serve.cache_hits", "count"},
      {"serve.cache_misses", "count"},
      {"serve.inflight_joins", "count"},
      {"serve.admission_wait_s", "s"},
      {"serve.admission_peak_elements", "count"},
      {"serve.hit_ms", "ms"},
      {"serve.run_ms", "ms"},
      {"serve.key_ms", "ms"},
  };
  return names;
}

}  // namespace oocc_bench
