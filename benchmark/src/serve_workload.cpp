// The serve workload: a closed loop of two client threads sending a seeded
// stream of requests into one in-process serve::Server::handle_line.
//
// The corpus has a fixed shape, so every seed costs about the same; the
// seed picks the chain statements and the request order:
//   * 160 elementwise chains: 2..6 statements x N in {128, 256, 512, 1024}
//     x P in {2, 4}, 4 programs each; statement i is
//     t<i> = (t<i-1> op A) op C with a seeded older array A, operators and
//     constant (or the FORALL index) C;
//   *  48 stencils and 32 GAXPYs: N = class + 4 j, j < 6 (stencils) or
//     j < 4 (GAXPY), for the same size classes and P.
// One round is 1,200 requests: each of the 240 programs is first seen once
// (a plan-cache miss) and then compiled again 3 or 4 times (half of the
// programs of each shape 4 times), and 120 requests are op=run. The runs
// are 3 of each chain with N = 128, P = 2 and 5 of each stencil of the two
// smallest classes with P = 2, issued by 3 tenants that share one
// admission budget. Every request asks for "opt":"search". These counts do
// not depend on the seed, so every round of every seed holds the same mix
// of requests; the seed only shuffles them. The plan cache is cleared
// between rounds, so every round has the same cold share.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <limits>
#include <set>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "oocc/hpf/parser.hpp"
#include "oocc/hpf/programs.hpp"
#include "oocc/serve/hash.hpp"
#include "oocc/serve/server.hpp"
#include "oocc/util/rng.hpp"
#include "reference.hpp"

namespace oocc_bench {

namespace {

using namespace oocc;
namespace fs = std::filesystem;

constexpr std::size_t kRequestsPerRound = 1200;
constexpr int kClients = 2;
constexpr int kTenants = 3;
constexpr int kStencilSweeps = 10;  // the protocol's default "iters"
constexpr std::int64_t kSizeClasses[] = {128, 256, 512, 1024};

/// One operand of a chain statement: x, an earlier t<i>, a constant, or k.
struct Operand {
  enum Kind { kArray, kConst, kIndex } kind = kArray;
  int value = 0;  ///< array index (0 = x, i = t<i>) or the constant
};

/// t<i>(1:n,k) = (a op1 b) op2 c
struct ChainStmt {
  Operand a, b, c;
  char op1 = '+';
  char op2 = '+';
};

struct Program {
  std::string kind;  ///< chain | stencil | gaxpy
  std::int64_t n = 0;
  int p = 0;
  std::string source;
  std::vector<ChainStmt> chain;
  int runs = 0;     ///< op=run requests per round
  int repeats = 0;  ///< repeat compile requests per round
  std::uint64_t expected_hash = 0;  ///< programs with runs only
  double flat_s = 0.0;              ///< host time of the flat reference
};

struct Request {
  int program = 0;
  bool run = false;
  std::string line;
};

std::string render(const Operand& o) {
  switch (o.kind) {
    case Operand::kArray:
      return (o.value == 0 ? std::string("x") : "t" + std::to_string(o.value)) +
             "(1:n,k)";
    case Operand::kConst:
      return std::to_string(o.value);
    case Operand::kIndex:
      return "k";
  }
  return "";
}

std::string chain_program_source(const std::vector<ChainStmt>& stmts,
                                 std::int64_t n, int p) {
  std::string arrays = "x";
  for (std::size_t i = 1; i <= stmts.size(); ++i) {
    arrays += ", t" + std::to_string(i);
  }
  std::string decl = "x(n,n)";
  for (std::size_t i = 1; i <= stmts.size(); ++i) {
    decl += ", t" + std::to_string(i) + "(n,n)";
  }
  std::string src = "      parameter (n=" + std::to_string(n) +
                    ", p=" + std::to_string(p) + ")\n      real " + decl +
                    "\n!hpf$ processors Pr(p)\n!hpf$ template d(n)\n"
                    "!hpf$ distribute d(block) onto Pr\n"
                    "!hpf$ align (*,:) with d :: " + arrays + "\n";
  for (std::size_t i = 0; i < stmts.size(); ++i) {
    const ChainStmt& s = stmts[i];
    src += "      forall (k=1:n)\n        t" + std::to_string(i + 1) +
           "(1:n,k) = (" + render(s.a) + " " + s.op1 + " " + render(s.b) +
           ") " + s.op2 + " " + render(s.c) + "\n      end forall\n";
  }
  return src + "      end\n";
}

double apply(char op, double a, double b) {
  return op == '+' ? a + b : op == '-' ? a - b : a * b;
}

/// Flat evaluation of a chain over serve_input, hashed the way the
/// protocol documents result_hash: every output in name order.
std::uint64_t chain_reference_hash(const Program& prog) {
  const std::int64_t n = prog.n;
  std::vector<std::vector<double>> arrays;
  arrays.push_back(materialize(n, n, serve_input));
  for (const ChainStmt& s : prog.chain) {
    std::vector<double> out(static_cast<std::size_t>(n * n));
    for (std::int64_t c = 0; c < n; ++c) {
      for (std::int64_t r = 0; r < n; ++r) {
        const std::size_t i = static_cast<std::size_t>(c * n + r);
        auto val = [&](const Operand& o) {
          switch (o.kind) {
            case Operand::kArray:
              return arrays[static_cast<std::size_t>(o.value)][i];
            case Operand::kConst:
              return static_cast<double>(o.value);
            case Operand::kIndex:
              break;
          }
          return static_cast<double>(c + 1);
        };
        out[i] = apply(s.op2, apply(s.op1, val(s.a), val(s.b)), val(s.c));
      }
    }
    arrays.push_back(std::move(out));
  }
  std::uint64_t h = kFnvBasis;
  for (std::size_t i = 1; i < arrays.size(); ++i) {
    h = fnv1a_named("t" + std::to_string(i), arrays[i], h);
  }
  return h;
}

std::uint64_t stencil_reference_hash(std::int64_t n) {
  const std::vector<double> grid =
      flat_jacobi(materialize(n, n, serve_input), n, kStencilSweeps, nullptr);
  // The ping-pong pair ends in `a` after an even number of sweeps.
  return fnv1a_named(kStencilSweeps % 2 == 0 ? "a" : "b", grid, kFnvBasis);
}

std::vector<Program> make_corpus(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Program> corpus;
  std::set<std::string> seen;
  const char ops[] = {'+', '-', '*'};
  for (int len = 2; len <= 6; ++len) {
    for (std::int64_t n : kSizeClasses) {
      for (int p : {2, 4}) {
        for (int v = 0; v < 4;) {
          Program prog;
          prog.kind = "chain";
          prog.n = n;
          prog.p = p;
          for (int i = 1; i <= len; ++i) {
            // Every statement reads t<i-1> and one older array, so the
            // seed changes values and dependences but not how much each
            // statement reads.
            ChainStmt s;
            s.a = {Operand::kArray, i - 1};
            s.b = {Operand::kArray,
                   i == 1 ? 0
                          : static_cast<int>(rng.next_below(
                                static_cast<std::uint64_t>(i - 1)))};
            const int c = static_cast<int>(rng.next_int(0, 9));
            s.c = c == 0 ? Operand{Operand::kIndex, 0}
                         : Operand{Operand::kConst, c};
            s.op1 = ops[rng.next_below(3)];
            s.op2 = ops[rng.next_below(3)];
            prog.chain.push_back(s);
          }
          prog.source = chain_program_source(prog.chain, n, p);
          if (!seen.insert(prog.source).second) {
            continue;  // redraw a duplicate program
          }
          prog.runs = p == 2 && n == 128 ? 3 : 0;
          prog.repeats = 3 + v % 2;
          corpus.push_back(std::move(prog));
          ++v;
        }
      }
    }
  }
  for (const std::string kind : {"stencil", "gaxpy"}) {
    const int per_class = kind == "stencil" ? 6 : 4;
    for (std::int64_t base : kSizeClasses) {
      for (int p : {2, 4}) {
        for (int v = 0; v < per_class; ++v) {
          Program prog;
          prog.kind = kind;
          prog.n = base + 4 * v;
          prog.p = p;
          prog.source = kind == "stencil" ? hpf::stencil_source(prog.n, p)
                                          : hpf::gaxpy_source(prog.n, p);
          prog.runs = kind == "stencil" && p == 2 && base <= 256 ? 5 : 0;
          prog.repeats = 3 + v % 2;
          corpus.push_back(std::move(prog));
        }
      }
    }
  }
  return corpus;
}

std::string request_line(const Program& prog, int index, bool run) {
  serve::Json req = serve::Json::object();
  req.set("id", "r" + std::to_string(index));
  req.set("tenant", run ? "t" + std::to_string(index % kTenants)
                        : std::string("compile"));
  req.set("op", run ? "run" : "compile");
  req.set("program", prog.source);
  req.set("opt", "search");
  return req.dump();
}

/// One round's request stream, shuffled by the seed. Every program is sent
/// 1 + repeats + runs times, so each round holds the same mix of programs
/// and request kinds whatever the seed. A program's first request is its
/// first sight (a compile); its runs and repeat compiles follow in a
/// seeded order.
std::vector<Request> make_stream(const std::vector<Program>& corpus,
                                 std::uint64_t seed) {
  Rng rng(seed ^ 0x5eedULL);
  std::vector<int> order;
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    order.insert(order.end(),
                 static_cast<std::size_t>(1 + corpus[i].repeats + corpus[i].runs),
                 static_cast<int>(i));
  }
  if (order.size() != kRequestsPerRound) {
    throw std::logic_error("serve corpus makes " + std::to_string(order.size()) +
                           " requests per round");
  }
  for (std::size_t i = order.size() - 1; i > 0; --i) {
    std::swap(order[i], order[rng.next_below(i + 1)]);
  }
  // Per program, which of its later requests are runs.
  std::vector<std::vector<char>> later(corpus.size());
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    std::vector<char>& run = later[i];
    run.assign(static_cast<std::size_t>(corpus[i].repeats), 0);
    run.insert(run.end(), static_cast<std::size_t>(corpus[i].runs), 1);
    for (std::size_t k = run.size(); k > 1; --k) {
      std::swap(run[k - 1], run[rng.next_below(k)]);
    }
  }
  std::vector<std::size_t> sent(corpus.size(), 0);
  std::vector<Request> stream;
  for (std::size_t i = 0; i < order.size(); ++i) {
    Request req;
    req.program = order[i];
    const auto p = static_cast<std::size_t>(req.program);
    req.run = sent[p] > 0 && later[p][sent[p] - 1] != 0;
    ++sent[p];
    req.line = request_line(corpus[p], static_cast<int>(i), req.run);
    stream.push_back(std::move(req));
  }
  return stream;
}

/// A corpus program as the server runs it: "opt":"search", the default
/// sweeps and the documented inputs.
ProgramSpec run_spec(const Program& prog) {
  ProgramSpec spec;
  spec.source = prog.source;
  spec.sweeps = prog.kind == "stencil" ? kStencilSweeps : 1;
  spec.search = true;
  spec.input = [](const std::string&, std::int64_t r, std::int64_t c) {
    return serve_input(r, c);
  };
  return spec;
}

/// What one request's response said.
struct Reply {
  double latency_s = 0.0;
  bool ok = false;
  bool cache_hit = false;
  double wall_s = 0.0;
  double sim_s = 0.0;
  double wait_s = 0.0;
  std::int64_t io_requests = 0;
  std::uint64_t result_hash = 0;
  std::string error;
};

std::uint64_t parse_hex(const std::string& s) {
  return std::strtoull(s.c_str(), nullptr, 16);
}

/// The single-flight cache compiles each distinct program once per round.
Check check_misses(std::uint64_t misses, std::size_t distinct) {
  Check check;
  if (misses != distinct) {
    check.fail(std::to_string(misses) + " plan-cache misses for " +
               std::to_string(distinct) + " distinct programs");
  }
  return check;
}

/// Admission never oversubscribes the global budget.
Check check_admission(const serve::AdmissionController::Stats& stats) {
  Check check;
  if (stats.peak_in_use_elements > stats.total_elements) {
    check.fail("admission peak " + std::to_string(stats.peak_in_use_elements) +
               " exceeds the budget " + std::to_string(stats.total_elements));
  }
  return check;
}

}  // namespace

Outcome run_serve_workload(const RunConfig& cfg, Tracer& tracer) {
  Outcome outcome;
  Span setup(tracer, "bench.setup");
  std::vector<Program> corpus = make_corpus(cfg.seed);
  std::int64_t max_footprint = 0;
  for (Program& prog : corpus) {
    if (prog.runs == 0) {
      continue;
    }
    const Clock::time_point t0 = Clock::now();
    prog.expected_hash = prog.kind == "chain" ? chain_reference_hash(prog)
                                              : stencil_reference_hash(prog.n);
    prog.flat_s = seconds_between(t0, Clock::now());
    max_footprint = std::max(
        max_footprint, prog.p * serve::default_memory_budget(hpf::analyze(
                                    hpf::parse(prog.source))));
  }
  const std::vector<Request> stream = make_stream(corpus, cfg.seed);
  serve::ServerOptions options;
  // Room for one big run and a small one: two of the largest queue.
  options.total_budget_elements = max_footprint * 3 / 2;
  options.work_root = cfg.work_dir / "serve";
  serve::Server server(options);
  const double setup_s =
      seconds_between(cfg.process_start, Clock::now());
  setup.stop();

  std::vector<Reply> replies(stream.size());
  std::vector<double> hits, runs, run_wall;
  std::vector<double> round_p50, round_p99;
  // Per program, its fastest cold compile over the timed rounds: a cold
  // compile shares the host with the other client's runs, each of which
  // starts its own rank and I/O threads.
  std::vector<double> fastest_cold(corpus.size(),
                                   std::numeric_limits<double>::infinity());
  double round_sim_s = 0.0;
  double round_io_requests = 0.0;
  double rss_mb = 0.0;
  double wait_total = 0.0;
  std::vector<double> round_rps;
  serve::PlanCache::Stats before = server.cache().stats();
  std::uint64_t hits_total = 0, misses_total = 0, joins_total = 0;
  std::uint64_t request_seq = 0;
  Clock::time_point window_end;

  for (int round = 0;; ++round) {
    if (round > 0 && Clock::now() >= window_end) {
      break;
    }
    Span round_span(tracer, "bench.round", 0);
    std::atomic<std::size_t> next{0};
    const Clock::time_point round_start = Clock::now();
    auto client = [&] {
      for (std::size_t i; (i = next.fetch_add(1)) < stream.size();) {
        Span s(tracer, "serve.handle_line", round_span.id(),
               request_seq + i + 1);
        const serve::Json res = server.handle_line(stream[i].line);
        Reply r;
        r.latency_s = s.stop();
        r.ok = res.get_bool("ok", false);
        r.cache_hit = res.get_bool("cache_hit", false);
        r.wall_s = res.get_double("wall_s", 0.0);
        r.sim_s = res.get_double("sim_s", 0.0);
        r.wait_s = res.get_double("wait_s", 0.0);
        r.io_requests = res.get_int("io_requests", 0);
        r.result_hash = parse_hex(res.get_string("result_hash", "0"));
        r.error = res.get_string("error", "");
        replies[i] = std::move(r);
      }
    };
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back(client);
    }
    for (std::thread& t : clients) {
      t.join();
    }
    const double round_s = seconds_between(round_start, Clock::now());
    round_span.stop();
    request_seq += stream.size();

    // Checks: every request ok, every run bit-identical to the reference,
    // one compile per distinct program.
    const serve::PlanCache::Stats after = server.cache().stats();
    const std::uint64_t misses = after.misses - before.misses;
    if (const Check c = check_misses(misses, corpus.size()); !c.ok) {
      outcome.correct = false;
      std::printf("round %d: %s\n", round, c.why.c_str());
    }
    double sim_sum = 0.0, io_sum = 0.0;
    std::vector<double> latency;
    for (std::size_t i = 0; i < stream.size(); ++i) {
      const Reply& r = replies[i];
      const Program& prog = corpus[static_cast<std::size_t>(stream[i].program)];
      ++outcome.attempted;
      bool good = r.ok;
      if (good && stream[i].run && r.result_hash != prog.expected_hash) {
        good = false;
        outcome.correct = false;
        std::printf("round %d request %zu: result_hash %016llx, reference "
                    "%016llx\n",
                    round, i, static_cast<unsigned long long>(r.result_hash),
                    static_cast<unsigned long long>(prog.expected_hash));
      }
      if (!r.ok) {
        std::printf("round %d request %zu failed: %s\n", round, i,
                    r.error.c_str());
      }
      if (!good) {
        ++outcome.failed;
      }
      if (stream[i].run) {
        sim_sum += r.sim_s;
        io_sum += static_cast<double>(r.io_requests);
      }
      if (round == 0) {
        continue;
      }
      latency.push_back(r.latency_s);
      if (!r.cache_hit && !stream[i].run) {
        double& best = fastest_cold[static_cast<std::size_t>(stream[i].program)];
        best = std::min(best, r.latency_s);
      } else if (!stream[i].run) {
        hits.push_back(r.latency_s);
      }
      if (stream[i].run) {
        runs.push_back(r.latency_s);
        run_wall.push_back(r.wall_s);
        wait_total += r.wait_s;
      }
    }
    if (round == 0) {
      // Peak RSS over set-up and one whole round, which holds every
      // operation. Later rounds only add chance: glibc's per-thread malloc
      // arenas (each run job starts fresh rank and I/O threads) made the
      // whole-run peak vary from 25 to 43 MB between runs.
      rss_mb = peak_rss_mb();
      round_sim_s = sim_sum;
      round_io_requests = io_sum;
      window_end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(cfg.seconds));
    } else {
      if (sim_sum != round_sim_s || io_sum != round_io_requests) {
        std::printf("note: round %d simulated %.9g s_sim / %.0f requests, "
                    "round 0 %.9g / %.0f\n",
                    round, sim_sum, io_sum, round_sim_s, round_io_requests);
      }
      round_rps.push_back(static_cast<double>(stream.size()) / round_s);
      round_p50.push_back(median(latency));
      round_p99.push_back(percentile(latency, 0.99));
      hits_total += after.hits - before.hits;
      misses_total += misses;
      joins_total += after.inflight_waits - before.inflight_waits;
    }
    server.cache().clear();
    before = server.cache().stats();
  }
  const serve::AdmissionController::Stats admission = server.admission().stats();
  if (const Check c = check_admission(admission); !c.ok) {
    outcome.correct = false;
    std::printf("%s\n", c.why.c_str());
  }

  // The run programs executed directly, once each: sim_s, laf_mb and
  // io_requests of a round are these executions' figures times each
  // program's runs per round. The protocol reports no LAF bytes, and its
  // sim_s and io_requests include the fingerprint gather, so one source
  // serves all three.
  std::map<int, std::size_t> run_uses;
  for (const Request& r : stream) {
    if (r.run) {
      ++run_uses[r.program];
    }
  }
  Span direct(tracer, "bench.direct_runs");
  std::vector<ProgramRun> direct_runs;
  std::vector<double> gather_s;
  double laf_mb = 0.0, flat_s = 0.0, direct_requests = 0.0, direct_sim = 0.0;
  for (const auto& [index, uses] : run_uses) {
    const Program& prog = corpus[static_cast<std::size_t>(index)];
    const ProgramSpec spec = run_spec(prog);
    const fs::path dir = cfg.work_dir / ("direct-" + std::to_string(index));
    ProgramRun run = run_program(spec, dir, tracer, direct.id());
    double g = 0.0;
    const auto out = gather_outputs(run, dir, tracer, direct.id(), &g);
    fs::remove_all(dir);
    std::uint64_t h = kFnvBasis;
    for (const auto& [name, data] : out) {
      h = fnv1a_named(name, data, h);
    }
    if (h != prog.expected_hash) {
      outcome.correct = false;
      std::printf("direct run of program %d differs from its reference\n",
                  index);
    }
    laf_mb += static_cast<double>(uses) *
              static_cast<double>(run.report.total_io_bytes()) / 1e6;
    direct_requests += static_cast<double>(uses) *
                       static_cast<double>(run.report.total_io_requests());
    direct_sim += static_cast<double>(uses) * run.report.max_sim_time_s();
    flat_s += prog.flat_s;
    gather_s.push_back(g);
    direct_runs.push_back(std::move(run));
  }
  direct.stop();
  std::printf("serve runs per round: responses report %.0f LAF requests and "
              "%.6g s_sim; the same plans' execute alone takes %.0f requests "
              "and %.6g s_sim\n",
              round_io_requests, round_sim_s, direct_requests, direct_sim);

  Metrics e2e;
  e2e["setup_s"] = {setup_s, "s"};
  e2e["exec_s"] = {median(run_wall), "s"};
  e2e["sim_s"] = {direct_sim, "s_sim"};
  e2e["laf_mb"] = {laf_mb, "MB"};
  e2e["io_requests"] = {direct_requests, "count"};
  e2e["peak_rss_mb"] = {rss_mb, "MB"};
  e2e["serve_rps"] = {median(round_rps), "req/s"};
  e2e["serve_p50_ms"] = {median(round_p50) * 1e3, "ms"};
  e2e["serve_p99_ms"] = {median(round_p99) * 1e3, "ms"};
  std::vector<double> cold;
  for (const double s : fastest_cold) {
    if (std::isfinite(s)) {
      cold.push_back(s);
    }
  }
  e2e["cold_compile_ms"] = {median(cold) * 1e3, "ms"};
  if (!cfg.trace) {
    outcome.metrics = std::move(e2e);
    return outcome;
  }
  outcome.traced_end_to_end = std::move(e2e);

  // Per-layer: the compiler layers timed directly on the corpus (inside
  // the server they run behind the plan cache), the execution layers from
  // the direct runs, the serve layer from the measured rounds.
  Metrics& m = outcome.metrics;
  Span probes(tracer, "bench.layer_probes");
  std::vector<double> parse, analyze, lower, search, verify, price, key;
  CompilerProbe total;
  for (const Program& prog : corpus) {
    ProgramSpec spec;
    spec.source = prog.source;
    spec.sweeps = prog.kind == "stencil" ? kStencilSweeps : 1;
    const CompilerProbe p = probe_compiler(spec, 1, tracer, probes.id());
    parse.push_back(p.parse_ms);
    analyze.push_back(p.analyze_ms);
    lower.push_back(p.lower_ms);
    search.push_back(p.search_ms);
    verify.push_back(p.verify_ms);
    price.push_back(p.price_ms);
    key.push_back(p.key_ms);
    total.candidates_priced += p.candidates_priced;
    total.steps += p.steps;
    total.priced_s += p.priced_s;
    total.priced_requests += p.priced_requests;
    total.priced_mb += p.priced_mb;
  }
  total.parse_ms = median(parse);
  total.analyze_ms = median(analyze);
  total.lower_ms = median(lower);
  total.search_ms = median(search);
  total.verify_ms = median(verify);
  total.price_ms = median(price);
  add_compiler_metrics(total, m);

  std::vector<const ProgramRun*> run_ptrs;
  for (const ProgramRun& r : direct_runs) {
    run_ptrs.push_back(&r);
  }
  add_execution_metrics(run_ptrs, gather_s, flat_s, m);

  m["serve.cache_hits"] = {static_cast<double>(hits_total), "count"};
  m["serve.cache_misses"] = {static_cast<double>(misses_total), "count"};
  m["serve.inflight_joins"] = {static_cast<double>(joins_total), "count"};
  m["serve.admission_wait_s"] = {
      runs.empty() ? 0.0 : wait_total / static_cast<double>(runs.size()), "s"};
  m["serve.admission_peak_elements"] = {
      static_cast<double>(admission.peak_in_use_elements), "count"};
  m["serve.hit_ms"] = {median(hits) * 1e3, "ms"};
  m["serve.run_ms"] = {median(runs) * 1e3, "ms"};
  m["serve.key_ms"] = {median(key), "ms"};
  return outcome;
}

int self_test_serve(const fs::path& dir) {
  int missed = 0;
  std::vector<Program> corpus = make_corpus(1);
  Tracer tracer(false);
  for (const std::string kind : {"chain", "stencil"}) {
    const auto it = std::find_if(corpus.begin(), corpus.end(), [&](const Program& p) {
      return p.runs > 0 && p.kind == kind;
    });
    Program& prog = *it;
    prog.expected_hash = kind == "chain" ? chain_reference_hash(prog)
                                         : stencil_reference_hash(prog.n);
    serve::ServerOptions options;
    options.work_root = dir / "serve";
    serve::Server server(options);
    const serve::Json res = server.handle_line(request_line(prog, 1, true));
    const bool clean = res.get_bool("ok", false) &&
                       parse_hex(res.get_string("result_hash", "0")) ==
                           prog.expected_hash;

    // The same result with one element changed must hash differently.
    const fs::path run_dir = dir / "serve-direct";
    const ProgramRun run = run_program(run_spec(prog), run_dir, tracer, 0);
    auto out = gather_outputs(run, run_dir, tracer, 0, nullptr);
    fs::remove_all(run_dir);
    std::vector<double>& first = out.begin()->second;
    first[first.size() / 2] = std::nextafter(first[first.size() / 2], 1e300);
    std::uint64_t h = kFnvBasis;
    for (const auto& [name, data] : out) {
      h = fnv1a_named(name, data, h);
    }
    const bool rejected = h != prog.expected_hash;
    std::printf("serve %-7s result_hash: clean %s, corrupted %s\n",
                kind.c_str(), clean ? "accepted" : "REJECTED",
                rejected ? "rejected" : "ACCEPTED");
    missed += (clean ? 0 : 1) + (rejected ? 0 : 1);

    if (kind == "chain") {
      // The round checks, on this server's real counters and off by one.
      const std::uint64_t misses = server.cache().stats().misses;
      serve::AdmissionController::Stats stats = server.admission().stats();
      const bool misses_ok = check_misses(misses, 1).ok;
      const bool misses_bad = !check_misses(misses + 1, 1).ok;
      const bool peak_ok = check_admission(stats).ok;
      stats.peak_in_use_elements = stats.total_elements + 1;
      const bool peak_bad = !check_admission(stats).ok;
      std::printf("serve plan-cache misses: clean %s, off by one %s\n",
                  misses_ok ? "accepted" : "REJECTED",
                  misses_bad ? "rejected" : "ACCEPTED");
      std::printf("serve admission peak: clean %s, over budget %s\n",
                  peak_ok ? "accepted" : "REJECTED",
                  peak_bad ? "rejected" : "ACCEPTED");
      missed += !misses_ok + !misses_bad + !peak_ok + !peak_bad;
    }
  }
  return missed;
}

}  // namespace oocc_bench
