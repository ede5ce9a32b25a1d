// The three execution workloads (jacobi, gaxpy, chain), and the code that
// compiles and runs one program, which the serve workload also uses to
// execute its run programs directly.
//
// One repetition is what a user's `oocc_compile --run` does: compile the
// program, create its arrays in a fresh LAF directory, initialize the
// inputs, execute. The benchmark then gathers the outputs in a separate
// Machine::run region and checks them against its own references, so the
// simulated accounting covers execute alone.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <span>

#include "bench.hpp"
#include "oocc/compiler/cost.hpp"
#include "oocc/compiler/lower.hpp"
#include "oocc/compiler/search.hpp"
#include "oocc/compiler/verify.hpp"
#include "oocc/hpf/parser.hpp"
#include "oocc/hpf/programs.hpp"
#include "oocc/serve/hash.hpp"
#include "oocc/serve/server.hpp"
#include "oocc/sim/collectives.hpp"
#include "reference.hpp"

namespace oocc_bench {

namespace {

using namespace oocc;
namespace fs = std::filesystem;

std::int64_t count_steps(const std::vector<compiler::Step>& steps) {
  std::int64_t n = 0;
  for (const compiler::Step& s : steps) {
    n += 1 + count_steps(s.body);
  }
  return n;
}

std::vector<std::string> output_names(const ProgramRun& run) {
  const compiler::NodeProgram& front = run.plans.front();
  if (front.kind == compiler::ProgramKind::kStencil) {
    return {run.stencil.result};
  }
  if (front.kind == compiler::ProgramKind::kGaxpy) {
    return {front.c};
  }
  std::set<std::string> outs;
  for (const compiler::NodeProgram& p : run.plans) {
    for (const auto& [name, arr] : p.arrays) {
      if (arr.is_output) {
        outs.insert(name);
      }
    }
  }
  return {outs.begin(), outs.end()};
}

// --- the three workloads ----------------------------------------------------

/// Fixed shapes: the seed changes input values only, so every count and
/// simulated time is the same for every seed.
constexpr std::int64_t kJacobiN = 2048;
constexpr int kJacobiSweeps = 10;
constexpr std::int64_t kGaxpyN = 1024;
constexpr std::int64_t kChainN = 4096;
constexpr int kProcs = 4;

std::string chain_source(std::int64_t n, int p) {
  // docs/examples/elementwise_chain.hpf at size n.
  return "      parameter (n=" + std::to_string(n) + ", p=" + std::to_string(p) +
         ")\n"
         "      real x(n,n), y(n,n), z(n,n), w(n,n)\n"
         "!hpf$ processors Pr(p)\n"
         "!hpf$ template d(n)\n"
         "!hpf$ distribute d(block) onto Pr\n"
         "!hpf$ align (*,:) with d :: x, y, z, w\n"
         "      forall (k=1:n)\n"
         "        y(1:n,k) = x(1:n,k)*2 + 1\n"
         "      end forall\n"
         "      forall (k=1:n)\n"
         "        z(1:n,k) = y(1:n,k)*x(1:n,k)\n"
         "      end forall\n"
         "      forall (k=1:n)\n"
         "        w(1:n,k) = z(1:n,k) + y(1:n,k)*x(1:n,k)\n"
         "      end forall\n"
         "      end\n";
}

/// Seeded inputs, one stream per array name.
double workload_input(std::uint64_t seed, const std::string& name,
                      std::int64_t r, std::int64_t c) {
  const std::uint64_t stream = fnv1a_named(name, {}, kFnvBasis);
  if (name == "a" || name == "b") {
    return seeded_value(seed, stream, r, c, -1.0, 1.0);
  }
  return seeded_value(seed, stream, r, c, 0.5, 1.5);  // chain input x
}

ProgramSpec workload_spec(const std::string& workload, std::uint64_t seed) {
  ProgramSpec spec;
  spec.input = [seed](const std::string& name, std::int64_t r,
                      std::int64_t c) {
    return workload_input(seed, name, r, c);
  };
  if (workload == "jacobi") {
    spec.source = hpf::stencil_source(kJacobiN, kProcs);
    spec.sweeps = kJacobiSweeps;
  } else if (workload == "gaxpy") {
    spec.source = hpf::gaxpy_source(kGaxpyN, kProcs);
  } else {
    spec.source = chain_source(kChainN, kProcs);
  }
  return spec;
}

/// The workload's independent reference, built once per run (the inputs
/// depend on the seed only).
struct Reference {
  // jacobi
  std::vector<double> jacobi;
  double jacobi_residual = 0.0;
  double lo = 0.0;
  double hi = 0.0;
  // gaxpy
  Freivalds probes;
  // chain
  std::vector<double> x;
  double build_s = 0.0;  ///< host seconds of the flat loop
};

/// `time_flat` also times the flat loop of the same arithmetic (traced runs
/// only: for gaxpy and chain it costs time and memory the checks do not
/// need).
Reference build_reference(const std::string& workload, const ProgramSpec& spec,
                          std::uint64_t seed, bool time_flat) {
  Reference ref;
  auto input = [&](const std::string& name) {
    return [&spec, name](std::int64_t r, std::int64_t c) {
      return spec.input(name, r, c);
    };
  };
  if (workload == "jacobi") {
    std::vector<double> grid = materialize(kJacobiN, kJacobiN, input("a"));
    const auto [lo, hi] = std::minmax_element(grid.begin(), grid.end());
    ref.lo = *lo;
    ref.hi = *hi;
    const Clock::time_point t0 = Clock::now();
    ref.jacobi = flat_jacobi(std::move(grid), kJacobiN, kJacobiSweeps,
                             &ref.jacobi_residual);
    ref.build_s = seconds_between(t0, Clock::now());
  } else if (workload == "gaxpy") {
    const std::vector<double> a = materialize(kGaxpyN, kGaxpyN, input("a"));
    const std::vector<double> b = materialize(kGaxpyN, kGaxpyN, input("b"));
    ref.probes = freivalds_probes(a, b, kGaxpyN, seed, 2);
    if (time_flat) {
      const Clock::time_point t0 = Clock::now();
      const std::vector<double> c = flat_matmul(a, b, kGaxpyN);
      ref.build_s = seconds_between(t0, Clock::now());
      if (!check_gaxpy(c, kGaxpyN, ref.probes).ok) {
        std::fprintf(stderr, "flat matmul fails its own Freivalds check\n");
      }
    }
  } else {
    ref.x = materialize(kChainN, kChainN, input("x"));
    if (!time_flat) {
      return ref;
    }
    // The flat loop: the three statements over whole arrays.
    const std::size_t count = ref.x.size();
    std::vector<double> y(count), z(count), w(count);
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < count; ++i) {
      y[i] = ref.x[i] * 2 + 1;
      z[i] = y[i] * ref.x[i];
      w[i] = z[i] + y[i] * ref.x[i];
    }
    ref.build_s = seconds_between(t0, Clock::now());
    volatile double sink = w[count / 2];
    (void)sink;
  }
  return ref;
}

Check check_chain_array(const std::string& name, const std::vector<double>& got,
                        const std::vector<double>& x) {
  Check check;
  if (got.size() != x.size()) {
    check.fail(name + ": wrong size");
    return check;
  }
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double y = x[i] * 2 + 1;
    const double z = y * x[i];
    const double want = name == "y" ? y : name == "z" ? z : z + y * x[i];
    if (!(got[i] == want)) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "chain %s element %zu: got %.17g, want %.17g",
                    name.c_str(), i, got[i], want);
      check.fail(buf);
      break;
    }
  }
  return check;
}

Check check_outputs(const std::string& workload, const Reference& ref,
                    const ProgramRun& run,
                    const std::map<std::string, std::vector<double>>& out) {
  Check check;
  if (workload == "jacobi") {
    if (run.stencil.iterations != kJacobiSweeps) {
      check.fail("jacobi ran " + std::to_string(run.stencil.iterations) +
                 " sweeps");
    }
    const Check c = check_jacobi(out.begin()->second, ref.jacobi,
                                 run.stencil.final_residual,
                                 ref.jacobi_residual, ref.lo, ref.hi);
    if (!c.ok) {
      check.fail(c.why);
    }
  } else if (workload == "gaxpy") {
    const Check c = check_gaxpy(out.begin()->second, kGaxpyN, ref.probes);
    if (!c.ok) {
      check.fail(c.why);
    }
  } else {
    if (out.size() != 3) {
      check.fail("chain gathered " + std::to_string(out.size()) + " outputs");
    }
    for (const auto& [name, data] : out) {
      const Check c = check_chain_array(name, data, ref.x);
      if (!c.ok) {
        check.fail(c.why);
      }
    }
  }
  return check;
}

/// The serve layer on the workload's own program (traced runs only): one
/// cold compile, kHitProbes plan-cache hits and one op=run request through
/// an in-process Server.
constexpr int kHitProbes = 20;

void probe_serve(const ProgramSpec& spec, const fs::path& root,
                 double key_ms, Tracer& tracer, std::uint64_t parent,
                 Metrics& m) {
  const hpf::BoundProgram bound = hpf::analyze(hpf::parse(spec.source));
  serve::ServerOptions options;
  options.total_budget_elements =
      2 * bound.nprocs * serve::default_memory_budget(bound);
  options.work_root = root;
  serve::Server server(options);
  serve::Json req = serve::Json::object();
  req.set("tenant", "bench");
  req.set("program", spec.source);
  req.set("iters", spec.sweeps);
  const std::string compile_line = req.dump();
  req.set("op", "run");
  const std::string run_line = req.dump();

  std::vector<double> hits;
  for (int i = 0; i <= kHitProbes; ++i) {
    Span s(tracer, "serve.handle_line", parent);
    const serve::Json res = server.handle_line(compile_line);
    const double t = s.stop();
    if (i > 0) {
      hits.push_back(t);
    }
    if (!res.get_bool("ok", false)) {
      std::printf("serve compile request failed: %s\n", res.dump().c_str());
    }
  }
  Span run_span(tracer, "serve.handle_line", parent);
  const serve::Json res = server.handle_line(run_line);
  const double run_s = run_span.stop();
  if (!res.get_bool("ok", false)) {
    std::printf("serve run request failed: %s\n", res.dump().c_str());
  }
  const serve::PlanCache::Stats cs = server.cache().stats();
  const serve::AdmissionController::Stats as = server.admission().stats();
  m["serve.cache_hits"] = {static_cast<double>(cs.hits), "count"};
  m["serve.cache_misses"] = {static_cast<double>(cs.misses), "count"};
  m["serve.inflight_joins"] = {static_cast<double>(cs.inflight_waits),
                               "count"};
  m["serve.admission_wait_s"] = {res.get_double("wait_s", 0.0), "s"};
  m["serve.admission_peak_elements"] = {
      static_cast<double>(as.peak_in_use_elements), "count"};
  m["serve.hit_ms"] = {median(hits) * 1e3, "ms"};
  m["serve.run_ms"] = {run_s * 1e3, "ms"};
  m["serve.key_ms"] = {key_ms, "ms"};
}

}  // namespace

// --- compiling and running one program --------------------------------------

ProgramRun run_program(const ProgramSpec& spec, const fs::path& dir,
                       Tracer& tracer, std::uint64_t parent) {
  ProgramRun run;
  const Clock::time_point request_start = Clock::now();
  compiler::CompileOptions options;
  {
    Span compile(tracer, "compiler.compile", parent);
    Span sp(tracer, "hpf.parse", compile.id());
    hpf::Program parsed = hpf::parse(spec.source);
    sp.stop();
    Span sa(tracer, "hpf.analyze", compile.id());
    const hpf::BoundProgram bound = hpf::analyze(std::move(parsed));
    sa.stop();
    run.budget = serve::default_memory_budget(bound);
    options.memory_budget_elements = run.budget;
    if (spec.search) {
      options.opt = compiler::OptMode::kSearch;
    }
    Span s(tracer, "compiler.compile_sequence", compile.id());
    run.plans = compiler::compile_sequence(bound, options);
    s.stop();
    run.compile_s = compile.stop();
  }

  const std::span<const compiler::NodeProgram> plans(run.plans);
  std::set<std::string> outputs;
  for (const compiler::NodeProgram& p : run.plans) {
    for (const auto& [name, arr] : p.arrays) {
      if (arr.is_output) {
        outputs.insert(name);
      }
    }
  }
  fs::create_directories(dir);
  sim::Machine machine(run.plans.front().nprocs, options.machine);
  const exec::ExecOptions base = exec::default_exec_options();
  const int nprocs = machine.nprocs();
  std::vector<double> init_s(static_cast<std::size_t>(nprocs));
  std::vector<Clock::time_point> starts(static_cast<std::size_t>(nprocs));
  std::vector<Clock::time_point> ends(static_cast<std::size_t>(nprocs));
  std::mutex mu;

  Span region(tracer, "sim.run", parent);
  run.report = machine.run([&](sim::SpmdContext& ctx) {
    const auto r = static_cast<std::size_t>(ctx.rank());
    std::map<std::string, std::unique_ptr<runtime::OutOfCoreArray>> arrays;
    {
      Span s(tracer, "runtime.initialize", region.id());
      arrays = exec::create_sequence_arrays(ctx, plans, dir, options.disk);
      for (auto& [name, arr] : arrays) {
        if (!outputs.contains(name)) {
          arr->initialize(
              ctx,
              [&spec, &name](std::int64_t gr, std::int64_t gc) {
                return spec.input(name, gr, gc);
              },
              run.budget);
        }
      }
      init_s[r] = s.stop();
    }
    sim::barrier(ctx);
    ctx.reset_accounting();

    exec::ArrayBindings bindings;
    for (auto& [name, arr] : arrays) {
      bindings[name] = arr.get();
    }
    exec::ExecOptions opts = base;
    runtime::SlabCacheStats cache;
    exec::StencilRunInfo info;
    opts.cache_stats = &cache;
    opts.max_iters = spec.sweeps;
    opts.stencil_info = &info;
    Span s(tracer, "exec.execute_sequence", region.id());
    starts[r] = Clock::now();
    exec::execute_sequence(ctx, plans, bindings, opts);
    ends[r] = Clock::now();
    s.stop();
    std::lock_guard<std::mutex> lock(mu);
    run.cache.merge(cache);
    if (ctx.rank() == 0) {
      run.stencil = info;
    }
  });
  region.stop();
  run.exec_start = *std::min_element(starts.begin(), starts.end());
  const Clock::time_point exec_end = *std::max_element(ends.begin(), ends.end());
  run.exec_s = seconds_between(run.exec_start, exec_end);
  run.request_s = seconds_between(request_start, exec_end);
  run.init_s = *std::max_element(init_s.begin(), init_s.end());
  return run;
}

std::map<std::string, std::vector<double>> gather_outputs(
    const ProgramRun& run, const fs::path& dir, Tracer& tracer,
    std::uint64_t parent, double* seconds) {
  const std::vector<std::string> names = output_names(run);
  const std::span<const compiler::NodeProgram> plans(run.plans);
  sim::Machine machine(run.plans.front().nprocs,
                       sim::MachineCostModel::touchstone_delta());
  std::map<std::string, std::vector<double>> out;
  Span region(tracer, "io.gather", parent);
  machine.run([&](sim::SpmdContext& ctx) {
    auto arrays = exec::create_sequence_arrays(
        ctx, plans, dir, io::DiskModel::touchstone_delta_cfs());
    for (const std::string& name : names) {
      Span s(tracer, "runtime.gather_global", region.id());
      std::vector<double> global =
          arrays.at(name)->gather_global(ctx, run.budget);
      if (ctx.rank() == 0) {
        out[name] = std::move(global);
      }
    }
  });
  const double t = region.stop();
  if (seconds != nullptr) {
    *seconds = t;
  }
  return out;
}

CompilerProbe probe_compiler(const ProgramSpec& spec, int reps, Tracer& tracer,
                             std::uint64_t parent) {
  CompilerProbe probe;
  std::vector<double> parse, analyze, lower, search, verify, price, key;
  compiler::CompileOptions options;
  std::vector<compiler::NodeProgram> plans;
  for (int i = 0; i < reps; ++i) {
    Span total(tracer, "probe.compiler", parent);
    Span sp(tracer, "hpf.parse", total.id());
    hpf::Program parsed = hpf::parse(spec.source);
    parse.push_back(sp.stop());
    Span sa(tracer, "hpf.analyze", total.id());
    const hpf::BoundProgram bound = hpf::analyze(std::move(parsed));
    analyze.push_back(sa.stop());

    // The key path of every serve request: parse, analyze, budget, key.
    Span sk(tracer, "serve.plan_key", total.id());
    const hpf::BoundProgram keyed_bound =
        hpf::analyze(hpf::parse(spec.source));
    compiler::CompileOptions keyed;
    keyed.memory_budget_elements = serve::default_memory_budget(keyed_bound);
    const serve::PlanKey k = serve::make_plan_key(keyed_bound, keyed);
    key.push_back(sk.stop());
    (void)k;

    options.memory_budget_elements = keyed.memory_budget_elements;
    options.verify = false;
    Span sl(tracer, "compiler.compile_sequence", total.id());
    plans = compiler::compile_sequence(bound, options);
    lower.push_back(sl.stop());

    compiler::CompileOptions searched = options;
    searched.verify = true;
    Span ss(tracer, "compiler.search_sequence", total.id());
    const compiler::SearchResult sr = compiler::search_sequence(bound, searched);
    search.push_back(ss.stop());
    probe.candidates_priced = sr.report.priced;

    Span sv(tracer, "compiler.verify_sequence", total.id());
    const compiler::VerifyReport vr = compiler::verify_sequence(plans);
    verify.push_back(sv.stop());
    if (!vr.ok()) {
      std::fprintf(stderr, "verify_sequence: %s\n", vr.to_string().c_str());
    }

    compiler::PriceOptions popts;
    popts.model_cache = true;
    Span spr(tracer, "compiler.price_sequence", total.id());
    const std::vector<compiler::PlanPrice> prices =
        compiler::price_sequence(plans, 0, popts);
    price.push_back(spr.stop());
    probe.priced_requests = 0.0;
    probe.priced_mb = 0.0;
    for (const compiler::PlanPrice& p : prices) {
      probe.priced_requests += p.total_requests();
      probe.priced_mb += p.total_elements() * 8.0 / 1e6;
    }
  }
  const double sweeps = static_cast<double>(spec.sweeps);
  probe.priced_s = sweeps * compiler::priced_sequence_makespan_s(
                                plans, options.disk, options.machine);
  probe.priced_requests *= sweeps;
  probe.priced_mb *= sweeps;
  probe.steps = 0;
  for (const compiler::NodeProgram& p : plans) {
    probe.steps += count_steps(p.steps);
  }
  probe.parse_ms = median(parse) * 1e3;
  probe.analyze_ms = median(analyze) * 1e3;
  probe.lower_ms = median(lower) * 1e3;
  probe.search_ms = median(search) * 1e3;
  probe.verify_ms = median(verify) * 1e3;
  probe.price_ms = median(price) * 1e3;
  probe.key_ms = median(key) * 1e3;
  return probe;
}

void add_compiler_metrics(const CompilerProbe& p, Metrics& m) {
  m["hpf.parse_ms"] = {p.parse_ms, "ms"};
  m["hpf.analyze_ms"] = {p.analyze_ms, "ms"};
  m["compiler.lower_ms"] = {p.lower_ms, "ms"};
  m["compiler.search_ms"] = {p.search_ms, "ms"};
  m["compiler.verify_ms"] = {p.verify_ms, "ms"};
  m["compiler.price_ms"] = {p.price_ms, "ms"};
  m["compiler.candidates_priced"] = {static_cast<double>(p.candidates_priced),
                                     "count"};
  m["compiler.steps"] = {static_cast<double>(p.steps), "count"};
  m["compiler.priced_s"] = {p.priced_s, "s_sim"};
  m["compiler.priced_requests"] = {p.priced_requests, "count"};
  m["compiler.priced_mb"] = {p.priced_mb, "MB"};
}

void add_execution_metrics(const std::vector<const ProgramRun*>& runs,
                           const std::vector<double>& gather_s,
                           double flat_ref_s, Metrics& m) {
  // Counters are summed over the given runs; host times are medians.
  runtime::SlabCacheStats cache;
  double read = 0, written = 0, messages = 0, sent = 0;
  double sim_io = 0, sim_comm = 0, sim_compute = 0, exec = 0;
  double jobs = 0;
  std::vector<double> busy, blocked, overlap, init;
  for (const ProgramRun* run : runs) {
    const ProgramRun& r = *run;
    cache.merge(r.cache);
    double io_s = 0, comm_s = 0, comp_s = 0;
    for (const sim::ProcStats& p : r.report.procs) {
      read += static_cast<double>(p.io_bytes_read);
      written += static_cast<double>(p.io_bytes_written);
      messages += static_cast<double>(p.messages_sent);
      sent += static_cast<double>(p.bytes_sent);
      io_s = std::max(io_s, p.io_time_s);
      comm_s = std::max(comm_s, p.comm_time_s);
      comp_s = std::max(comp_s, p.compute_time_s);
    }
    sim_io += io_s;
    sim_comm += comm_s;
    sim_compute += comp_s;
    exec += r.exec_s;
    jobs += static_cast<double>(r.report.async.jobs);
    busy.push_back(r.report.async.busy_s);
    blocked.push_back(r.report.async.blocked_s);
    overlap.push_back(r.report.async.overlap_s);
    init.push_back(r.init_s);
  }
  const double demand = static_cast<double>(cache.hits + cache.misses);
  m["exec.flat_ref_s"] = {flat_ref_s, "s"};
  m["exec.flat_ratio"] = {flat_ref_s > 0 ? exec / flat_ref_s : 0.0, "ratio"};
  m["exec.sim_compute_s"] = {sim_compute, "s_sim"};
  m["runtime.pool_hits"] = {static_cast<double>(cache.hits), "count"};
  m["runtime.pool_misses"] = {static_cast<double>(cache.misses), "count"};
  m["runtime.pool_evictions"] = {static_cast<double>(cache.evictions), "count"};
  m["runtime.pool_writebacks"] = {static_cast<double>(cache.writebacks),
                                  "count"};
  m["runtime.pool_hit_ratio"] = {
      demand > 0 ? static_cast<double>(cache.hits) / demand : 0.0, "ratio"};
  m["runtime.pool_mb_avoided"] = {
      static_cast<double>(cache.elements_hit) * 8.0 / 1e6, "MB"};
  m["io.read_mb"] = {read / 1e6, "MB"};
  m["io.write_mb"] = {written / 1e6, "MB"};
  m["io.sim_io_s"] = {sim_io, "s_sim"};
  m["io.async_jobs"] = {jobs, "count"};
  m["io.async_busy_s"] = {median(busy), "s"};
  m["io.async_blocked_s"] = {median(blocked), "s"};
  m["io.async_overlap_s"] = {median(overlap), "s"};
  m["io.init_s"] = {median(init), "s"};
  m["io.gather_s"] = {median(gather_s), "s"};
  m["sim.messages"] = {messages, "count"};
  m["sim.mb_sent"] = {sent / 1e6, "MB"};
  m["sim.sim_comm_s"] = {sim_comm, "s_sim"};
}

Outcome run_exec_workload(const RunConfig& cfg, Tracer& tracer) {
  Outcome outcome;
  const ProgramSpec spec = workload_spec(cfg.workload, cfg.seed);
  Reference ref;
  double setup_s = 0.0;
  double rss_mb = 0.0;
  std::vector<double> exec_s, request_s, compile_s, gather_s;
  ProgramRun last;
  Clock::time_point window_end;
  std::uint64_t first_counts[3] = {0, 0, 0};

  // Repetition 0 is the untimed warm-up; the window opens after it.
  for (int rep = 0;; ++rep) {
    if (rep > 0 && Clock::now() >= window_end) {
      break;
    }
    const fs::path dir = cfg.work_dir / ("rep-" + std::to_string(rep));
    ++outcome.attempted;
    Span rep_span(tracer, "bench.repetition", 0,
                  static_cast<std::uint64_t>(rep));
    try {
      ProgramRun run = run_program(spec, dir, tracer, rep_span.id());
      if (rep == 0) {
        setup_s = seconds_between(cfg.process_start, run.exec_start);
        // Before any gather or reference allocates: the peak of set-up plus
        // one execute.
        rss_mb = peak_rss_mb();
        ref = build_reference(cfg.workload, spec, cfg.seed, cfg.trace);
      }
      double g = 0.0;
      const auto out = gather_outputs(run, dir, tracer, rep_span.id(), &g);
      const Check check = check_outputs(cfg.workload, ref, run, out);
      if (!check.ok) {
        ++outcome.failed;
        outcome.correct = false;
        std::printf("check failed (repetition %d): %s\n", rep,
                    check.why.c_str());
      }
      // Counters the program promises to repeat exactly.
      const std::uint64_t counts[3] = {run.report.total_io_requests(),
                                       run.report.total_io_bytes(),
                                       run.report.total_messages()};
      if (rep == 0) {
        std::copy(counts, counts + 3, first_counts);
        window_end =
            Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(cfg.seconds));
      } else {
        if (!std::equal(counts, counts + 3, first_counts)) {
          std::printf("note: repetition %d counters differ from repetition 0\n",
                      rep);
        }
        exec_s.push_back(run.exec_s);
        request_s.push_back(run.request_s);
        compile_s.push_back(run.compile_s);
        gather_s.push_back(g);
        last = std::move(run);
      }
    } catch (const std::exception& e) {
      ++outcome.failed;
      outcome.correct = false;
      std::printf("repetition %d failed: %s\n", rep, e.what());
      if (rep == 0) {
        window_end = Clock::now();
      }
    }
    fs::remove_all(dir);
  }

  if (exec_s.empty()) {
    outcome.correct = false;
    return outcome;
  }
  // The serve_* and cold_compile_ms metrics take each repetition as one
  // request of a user who compiles and runs the program, as
  // `oocc_compile --run` does: its latency runs from parse to the end of
  // execute, and every repetition compiles cold. cold_compile_ms is the
  // fastest compile: on the shared host single-threaded code ran in two
  // modes about 1.5x apart (chain compiles took 0.9-1.0 ms or 1.5-1.7 ms),
  // and the median of a run's 10 to 60 compiles flipped between them.
  // serve_p99_ms is the 90th percentile: a run's 10 to 60 repetitions are
  // too few for a 99th, which is then the slowest repetition, and one host
  // stall decided it (gaxpy read 350 to 526 ms over ten runs, median 323).
  double request_total = 0.0;
  for (double t : request_s) {
    request_total += t;
  }
  Metrics e2e;
  e2e["setup_s"] = {setup_s, "s"};
  e2e["exec_s"] = {median(exec_s), "s"};
  e2e["sim_s"] = {last.report.max_sim_time_s(), "s_sim"};
  e2e["laf_mb"] = {static_cast<double>(last.report.total_io_bytes()) / 1e6,
                   "MB"};
  e2e["io_requests"] = {static_cast<double>(last.report.total_io_requests()),
                        "count"};
  e2e["peak_rss_mb"] = {rss_mb, "MB"};
  e2e["serve_rps"] = {static_cast<double>(request_s.size()) / request_total,
                      "req/s"};
  e2e["serve_p50_ms"] = {median(request_s) * 1e3, "ms"};
  e2e["serve_p99_ms"] = {percentile(request_s, 0.90) * 1e3, "ms"};
  e2e["cold_compile_ms"] = {
      *std::min_element(compile_s.begin(), compile_s.end()) * 1e3, "ms"};

  if (!cfg.trace) {
    outcome.metrics = std::move(e2e);
    return outcome;
  }
  outcome.traced_end_to_end = std::move(e2e);

  // Per-layer figures: the measured runs' counters, plus direct timings of
  // the compiler layers and of the serve layer on the same program.
  Metrics& m = outcome.metrics;
  Span probes(tracer, "bench.layer_probes");
  const CompilerProbe cp = probe_compiler(spec, 5, tracer, probes.id());
  add_compiler_metrics(cp, m);
  add_execution_metrics({&last}, gather_s, ref.build_s, m);
  m["exec.flat_ratio"].value = median(exec_s) / ref.build_s;
  probe_serve(spec, cfg.work_dir / "serve", cp.key_ms, tracer, probes.id(), m);

  // Priced against measured, rank 0.
  const sim::ProcStats& p0 = last.report.procs.front();
  const double measured_mb =
      static_cast<double>(p0.io_bytes_read + p0.io_bytes_written) / 1e6;
  std::printf(
      "reconciliation (rank 0): priced %.0f requests / %.3f MB, measured "
      "%llu requests / %.3f MB; priced %.4f s_sim vs simulated %.4f s_sim "
      "(ratio %.4f)\n",
      cp.priced_requests, cp.priced_mb,
      static_cast<unsigned long long>(p0.io_requests), measured_mb,
      cp.priced_s, last.report.max_sim_time_s(),
      cp.priced_s / last.report.max_sim_time_s());
  if (spec.sweeps > 1) {
    // The pricer prices one sweep from a cold pool, and its counts are exact
    // for a one-sweep execute; later sweeps reuse slabs across the
    // ping-pong pair, so the multiplied figures above are an upper bound.
    ProgramSpec one = spec;
    one.sweeps = 1;
    const fs::path dir = cfg.work_dir / "one-sweep";
    const ProgramRun run = run_program(one, dir, tracer, probes.id());
    fs::remove_all(dir);
    const sim::ProcStats& q0 = run.report.procs.front();
    const double sweeps = static_cast<double>(spec.sweeps);
    std::printf(
        "reconciliation, one sweep (rank 0): priced %.0f requests / %.3f MB, "
        "measured %llu requests / %.3f MB\n",
        cp.priced_requests / sweeps, cp.priced_mb / sweeps,
        static_cast<unsigned long long>(q0.io_requests),
        static_cast<double>(q0.io_bytes_read + q0.io_bytes_written) / 1e6);
  }
  return outcome;
}

int self_test_exec(const fs::path& dir) {
  int missed = 0;
  Tracer tracer(false);
  auto verdict = [&](const std::string& what, bool want_ok, const Check& c) {
    const bool right = c.ok == want_ok;
    std::printf("%-44s %s%s%s\n", what.c_str(),
                c.ok ? "accepted" : "rejected", right ? "" : "  <-- WRONG",
                c.ok ? "" : (" (" + c.why.substr(0, 96) + ")").c_str());
    missed += right ? 0 : 1;
  };
  for (const std::string workload : {"jacobi", "gaxpy", "chain"}) {
    const ProgramSpec spec = workload_spec(workload, 1);
    const fs::path run_dir = dir / ("self-test-" + workload);
    ProgramRun run = run_program(spec, run_dir, tracer, 0);
    const auto out = gather_outputs(run, run_dir, tracer, 0, nullptr);
    fs::remove_all(run_dir);
    Reference ref = build_reference(workload, spec, 1, false);
    verdict(workload + " clean result", true,
            check_outputs(workload, ref, run, out));

    // One element moved by one ulp (by a relative 1e-6 for the product,
    // whose check has a rounding tolerance).
    for (const auto& [name, data] : out) {
      auto bad = out;
      double& v = bad[name][data.size() / 3];
      v = workload == "gaxpy" ? v + 1e-6 * (1.0 + std::abs(v))
                              : std::nextafter(v, 1e300);
      verdict(workload + " " + name + " one element off", false,
              check_outputs(workload, ref, run, bad));
    }
    if (workload == "jacobi") {
      ProgramRun off = std::move(run);
      off.stencil.final_residual = std::nextafter(off.stencil.final_residual, 1.0);
      verdict("jacobi residual one ulp off", false,
              check_outputs(workload, ref, off, out));
      off.stencil.final_residual = ref.jacobi_residual;
      // Out of [lo, hi] in both result and reference: only the max
      // principle can see it.
      auto bad = out;
      bad.begin()->second[12345] = ref.hi + 1.0;
      ref.jacobi[12345] = ref.hi + 1.0;
      verdict("jacobi value above the initial maximum", false,
              check_outputs(workload, ref, off, bad));
    }
  }
  return missed;
}

}  // namespace oocc_bench
