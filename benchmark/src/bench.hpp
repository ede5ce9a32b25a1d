// Shared declarations of the oocc benchmark.
//
// The benchmark measures the out-of-core compiler from outside: it times calls
// into each layer's public functions and reads the counters those calls
// already return. Nothing in the library is instrumented for it.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "oocc/compiler/plan.hpp"
#include "oocc/exec/interp.hpp"
#include "oocc/sim/machine.hpp"

namespace oocc_bench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// One recorded span: a timed call into a layer. Spans of one serve request
/// share `request`; `parent` is the enclosing span (0 = none).
struct SpanRecord {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t request = 0;
  int thread = 0;
  Clock::time_point start;
  Clock::time_point end;
};

/// In-memory span store of the traced run. Disabled, it records nothing,
/// but Span still measures its own duration, so untraced runs time the
/// same calls the same way.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const noexcept { return enabled_; }
  std::uint64_t next_id();
  void record(SpanRecord span);

  /// Chrome trace-event JSON of every span (timestamps relative to `origin`).
  void write_trace_file(const std::filesystem::path& path,
                        Clock::time_point origin) const;
  /// Per span name: count, total and self time (duration minus the part of
  /// it that child spans cover), as a printable table.
  std::string layer_table() const;
  std::size_t size() const;

 private:
  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
  std::uint64_t next_id_ = 1;
};

/// RAII timed call. `stop()` ends the span early and returns its length.
class Span {
 public:
  Span(Tracer& tracer, std::string_view name, std::uint64_t parent = 0,
       std::uint64_t request = 0);
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span();

  std::uint64_t id() const noexcept { return id_; }
  double stop();

 private:
  Tracer& tracer_;
  std::string name_;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  std::uint64_t request_ = 0;
  Clock::time_point start_;
  double seconds_ = -1.0;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::filesystem::path work_dir;   ///< LAF trees; removed at exit
  std::filesystem::path trace_dir;  ///< trace files of traced runs
  Clock::time_point process_start;
};

struct Outcome {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  /// End-to-end metrics of the untraced run, per-layer metrics of the
  /// traced run.
  Metrics metrics;
  /// End-to-end figures measured inside a traced run, printed next to the
  /// per-layer table so the tracing overhead can be read off.
  Metrics traced_end_to_end;
};

/// One program the benchmark compiles and executes directly, as
/// `oocc_compile --run` would: default options and the default budget
/// (a quarter of the largest local array).
struct ProgramSpec {
  std::string source;
  int sweeps = 1;  ///< stencil programs: Jacobi sweeps
  bool search = false;  ///< compile with the global plan search
  /// Input value of array `name` at global (row, col), both 0-based.
  std::function<double(const std::string&, std::int64_t, std::int64_t)> input;
};

/// What one compile + execute of a ProgramSpec measured.
struct ProgramRun {
  std::vector<oocc::compiler::NodeProgram> plans;
  std::int64_t budget = 0;   ///< per-processor elements
  double compile_s = 0.0;    ///< parse + analyze + compile_sequence
  double init_s = 0.0;       ///< array creation + input initialize
  double exec_s = 0.0;       ///< exec::execute_sequence, first start to last end
  double request_s = 0.0;    ///< parse to the end of execute
  Clock::time_point exec_start;
  oocc::sim::RunReport report;  ///< accounting of execute alone
  oocc::runtime::SlabCacheStats cache;
  oocc::exec::StencilRunInfo stencil;
};

/// Compiles and executes `spec` over fresh Local Array Files in `dir`.
/// The accounting is reset after input set-up, so `report` covers execute.
ProgramRun run_program(const ProgramSpec& spec, const std::filesystem::path& dir,
                       Tracer& tracer, std::uint64_t parent);

/// Gathers the run's results in a separate Machine::run region: the live
/// stencil array, the GAXPY product, or every elementwise output. Returns
/// name -> column-major global array, and the region's host seconds.
std::map<std::string, std::vector<double>> gather_outputs(
    const ProgramRun& run, const std::filesystem::path& dir, Tracer& tracer,
    std::uint64_t parent, double* seconds);

/// Direct timings of the compiler layers on one program (median of `reps`
/// calls each) and the pricer's rank-0 prediction for it.
struct CompilerProbe {
  double parse_ms = 0.0;
  double analyze_ms = 0.0;
  double lower_ms = 0.0;   ///< compile_sequence, heuristic, verifier off
  double search_ms = 0.0;  ///< search_sequence
  double verify_ms = 0.0;  ///< verify_sequence of the heuristic plans
  double price_ms = 0.0;   ///< price_sequence, slab cache modelled
  double key_ms = 0.0;     ///< parse + analyze + serve plan key
  std::int64_t candidates_priced = 0;
  std::int64_t steps = 0;  ///< step-tree nodes of the heuristic plans
  /// Pricer prediction of the heuristic plans on rank 0, cache modelled;
  /// stencil programs priced once per sweep.
  double priced_s = 0.0;
  double priced_requests = 0.0;
  double priced_mb = 0.0;
};
CompilerProbe probe_compiler(const ProgramSpec& spec, int reps, Tracer& tracer,
                             std::uint64_t parent);

/// Fills the hpf.* and compiler.* per-layer metrics from a probe.
void add_compiler_metrics(const CompilerProbe& probe, Metrics& m);
/// Fills the exec.*, runtime.*, io.* and sim.* per-layer metrics: counters
/// and simulated times summed over `runs`, host times their medians.
/// exec.flat_ratio is the runs' execute time over `flat_ref_s`.
void add_execution_metrics(const std::vector<const ProgramRun*>& runs,
                           const std::vector<double>& gather_s,
                           double flat_ref_s, Metrics& m);

/// The end-to-end and per-layer metric names, in BENCHMARK.json order.
const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics();
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

Outcome run_exec_workload(const RunConfig& cfg, Tracer& tracer);
Outcome run_serve_workload(const RunConfig& cfg, Tracer& tracer);
/// Self-test: each correctness check accepts a real result and rejects the
/// same result corrupted. Return the number of checks that got it wrong.
int self_test_exec(const std::filesystem::path& work_dir);
int self_test_serve(const std::filesystem::path& work_dir);

double median(std::vector<double> v);
/// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> v, double q);
/// Peak resident set of this process so far, in MB.
double peak_rss_mb();

}  // namespace oocc_bench
