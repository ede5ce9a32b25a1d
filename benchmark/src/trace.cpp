#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <unordered_map>

#include "bench.hpp"
#include "oocc/serve/json.hpp"

namespace oocc_bench {

namespace {

int this_thread_index() {
  static std::atomic<int> next{0};
  thread_local const int index = next.fetch_add(1);
  return index;
}

double to_ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

}  // namespace

std::uint64_t Tracer::next_id() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void Tracer::record(SpanRecord span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

void Tracer::write_trace_file(const std::filesystem::path& path,
                              Clock::time_point origin) const {
  using oocc::serve::Json;
  std::lock_guard<std::mutex> lock(mu_);
  Json events = Json::array();
  for (const SpanRecord& s : spans_) {
    Json args = Json::object();
    args.set("id", s.id);
    args.set("parent", s.parent);
    args.set("request", s.request);
    Json ev = Json::object();
    ev.set("name", s.name);
    ev.set("cat", s.name.substr(0, s.name.find('.')));
    ev.set("ph", "X");
    ev.set("pid", 1);
    ev.set("tid", s.thread);
    ev.set("ts", std::chrono::duration<double, std::micro>(s.start - origin)
                     .count());
    ev.set("dur",
           std::chrono::duration<double, std::micro>(s.end - s.start).count());
    ev.set("args", std::move(args));
    events.push_back(std::move(ev));
  }
  Json doc = Json::object();
  doc.set("traceEvents", std::move(events));
  doc.set("displayTimeUnit", "ms");
  std::filesystem::create_directories(path.parent_path());
  std::ofstream out(path);
  out << doc.dump() << "\n";
}

std::string Tracer::layer_table() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::unordered_map<std::uint64_t, std::vector<const SpanRecord*>> children;
  for (const SpanRecord& s : spans_) {
    if (s.parent != 0) {
      children[s.parent].push_back(&s);
    }
  }
  struct Row {
    std::uint64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  std::map<std::string, Row> rows;
  for (const SpanRecord& s : spans_) {
    // Self time: the span minus the union of its children's intervals
    // (rank threads run children concurrently, so they may overlap).
    std::vector<std::pair<Clock::time_point, Clock::time_point>> iv;
    if (auto it = children.find(s.id); it != children.end()) {
      for (const SpanRecord* c : it->second) {
        iv.emplace_back(std::max(c->start, s.start), std::min(c->end, s.end));
      }
    }
    std::sort(iv.begin(), iv.end());
    Clock::duration covered{0};
    Clock::time_point reach = s.start;
    for (const auto& [a, b] : iv) {
      const Clock::time_point from = std::max(a, reach);
      if (b > from) {
        covered += b - from;
        reach = b;
      }
    }
    Row& r = rows[s.name];
    ++r.count;
    r.total_ms += to_ms(s.end - s.start);
    r.self_ms += to_ms(s.end - s.start - covered);
  }
  std::string out = "span                                  count    total_ms     self_ms\n";
  char line[160];
  for (const auto& [name, r] : rows) {
    std::snprintf(line, sizeof(line), "%-36s %6llu %11.3f %11.3f\n",
                  name.c_str(), static_cast<unsigned long long>(r.count),
                  r.total_ms, r.self_ms);
    out += line;
  }
  return out;
}

Span::Span(Tracer& tracer, std::string_view name, std::uint64_t parent,
           std::uint64_t request)
    : tracer_(tracer), parent_(parent), request_(request) {
  if (tracer_.enabled()) {
    name_ = name;
    id_ = tracer_.next_id();
  }
  start_ = Clock::now();
}

Span::~Span() { stop(); }

double Span::stop() {
  if (seconds_ >= 0.0) {
    return seconds_;
  }
  const Clock::time_point end = Clock::now();
  seconds_ = seconds_between(start_, end);
  if (tracer_.enabled()) {
    tracer_.record(SpanRecord{std::move(name_), id_, parent_, request_,
                              this_thread_index(), start_, end});
  }
  return seconds_;
}

double median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;  // ru_maxrss: KiB
}

}  // namespace oocc_bench
