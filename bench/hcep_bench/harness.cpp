#include "harness.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <future>
#include <stdexcept>
#include <thread>

#include "hcep/parallel/thread_pool.hpp"

namespace hcep_bench {

Quartiles quartiles(std::vector<double> v) {
  Quartiles q;
  q.n = v.size();
  if (v.empty()) return q;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  q.median = n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
  if (n == 1) {
    q.q1 = q.q3 = v[0];
    return q;
  }
  // statistics.quantiles(method="exclusive"): m = n + 1, cut i at
  // position i*m/4 (1-based), clamped to [1, n-1], interpolated.
  const auto cut = [&](std::size_t i) {
    const std::size_t m = n + 1;
    std::size_t j = i * m / 4;
    j = std::clamp<std::size_t>(j, 1, n - 1);
    const auto delta = static_cast<double>(i * m) - static_cast<double>(j * 4);
    return (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
  };
  q.q1 = cut(1);
  q.q3 = cut(3);
  return q;
}

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  char bytes[sizeof v];
  std::memcpy(bytes, &v, sizeof v);
  return fnv1a(std::string_view(bytes, sizeof bytes), h);
}

std::uint64_t fnv1a(std::uint64_t h, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return fnv1a(h, bits);
}

namespace {
std::atomic<std::uint64_t> g_consumed{0};
}  // namespace

void consume(std::uint64_t v) {
  g_consumed.fetch_add(v, std::memory_order_relaxed);
}

std::uint64_t consumed() { return g_consumed.load(std::memory_order_relaxed); }

namespace {

std::uint64_t xorshift(std::uint64_t& x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

/// A random cyclic permutation of 2^23 slots (32 MiB), by Sattolo's
/// algorithm: following it visits every slot once, in an order no
/// prefetcher predicts. Built once: a table mapped per call would add
/// page-fault noise.
const std::vector<std::uint32_t>& chase_cycle() {
  static const std::vector<std::uint32_t> next = [] {
    std::vector<std::uint32_t> v(std::size_t{1} << 23);
    for (std::size_t i = 0; i < v.size(); ++i)
      v[i] = static_cast<std::uint32_t>(i);
    std::uint64_t x = 0x2545f4914f6cdd1dULL;
    for (std::size_t i = v.size() - 1; i > 0; --i)
      std::swap(v[i], v[xorshift(x) % i]);
    return v;
  }();
  return next;
}

void reference_kernel() {
  const std::vector<std::uint32_t>& next = chase_cycle();
  std::uint64_t x = 0x9e3779b97f4a7c15ULL, sum = 0;
  for (int k = 0; k < 4'000'000; ++k) sum += xorshift(x);
  std::uint32_t at = 0;
  for (int k = 0; k < 250'000; ++k) at = next[at];  // dependent loads
  consume(sum + at);
}

}  // namespace

double reference_seconds() {
  const auto t0 = Clock::now();
  reference_kernel();
  return seconds_since(t0);
}

HostSpeed::HostSpeed() : before_(reference_seconds()) {}

double HostSpeed::to_reference(double seconds) const {
  const double now = 0.5 * (before_ + reference_seconds());
  return seconds * kReferenceKernelSeconds / now;
}

void Verdict::require(bool condition, std::string_view what) {
  if (condition || !ok) return;
  ok = false;
  why = what;
}

void Verdict::merge(const Verdict& other) {
  if (!other.ok) require(false, other.why);
}

namespace {

/// Hands every worker of the global pool exactly one task: each task
/// waits until all have started, so no worker can take two.
void cycle_workers() {
  hcep::ThreadPool& pool = hcep::ThreadPool::global();
  std::atomic<std::size_t> started{0};
  std::vector<std::future<void>> done;
  for (std::size_t i = 0; i < pool.size(); ++i)
    done.push_back(pool.submit([&started, &pool] {
      started.fetch_add(1);
      while (started.load() < pool.size()) std::this_thread::yield();
    }));
  for (auto& d : done) d.get();
}

}  // namespace

GlobalObserver::GlobalObserver(hcep::obs::Observer& observer) {
  hcep::obs::set_global(&observer);
  cycle_workers();
}

GlobalObserver::~GlobalObserver() {
  hcep::obs::set_global(nullptr);
  cycle_workers();
}

Tracer& tracer() {
  static Tracer instance;
  return instance;
}

std::size_t Tracer::begin(std::string_view name) {
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
  s.start = Clock::now();
  spans_.push_back(std::move(s));
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Tracer::end(std::size_t id) {
  Span& s = spans_[id];
  s.end = Clock::now();
  open_.pop_back();  // ScopedSpan closes in LIFO order
  if (s.parent >= 0)
    spans_[static_cast<std::size_t>(s.parent)].child_s +=
        std::chrono::duration<double>(s.end - s.start).count();
}

void Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  const auto us = [this](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  };
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "" : ",") << "\n{\"name\":\"" << s.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << number(us(s.start))
        << ",\"dur\":" << number(us(s.end) - us(s.start))
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent << "}}";
  }
  out << "\n]}\n";
}

std::vector<Tracer::SelfTime> Tracer::self_times() const {
  std::vector<SelfTime> out;
  for (const Span& s : spans_) {
    auto it = std::find_if(out.begin(), out.end(),
                           [&](const SelfTime& t) { return t.name == s.name; });
    if (it == out.end()) {
      out.push_back(SelfTime{s.name, 0.0});
      it = out.end() - 1;
    }
    const double total = std::chrono::duration<double>(s.end - s.start).count();
    it->ms += 1e3 * (total - s.child_s);
  }
  return out;
}

void Metrics::add(std::string name, double value, std::string unit) {
  rows_.push_back(Row{std::move(name), value, std::move(unit), {}, false});
}

void Metrics::add(std::string name, const Quartiles& q, std::string unit) {
  rows_.push_back(Row{std::move(name), q.median, std::move(unit), q, true});
}

const Metrics::Row* Metrics::find(std::string_view name) const {
  for (const Row& r : rows_)
    if (r.name == name) return &r;
  return nullptr;
}

void Metrics::print(std::ostream& out) const {
  for (const Row& r : rows_) {
    out << r.name << ' ' << number(r.value) << ' ' << r.unit;
    if (r.has_q)
      out << " q1=" << number(r.q.q1) << " q3=" << number(r.q.q3)
          << " n=" << r.q.n;
    out << '\n';
  }
}

std::string Metrics::json(const std::vector<std::string>& names) const {
  std::string out = "{";
  for (std::size_t i = 0; i < names.size(); ++i) {
    const Row* r = find(names[i]);
    if (r == nullptr)
      throw std::logic_error("metric not measured: " + names[i]);
    if (!std::isfinite(r->value))
      throw std::runtime_error("metric is not finite: " + names[i]);
    out += (i == 0 ? "\"" : ", \"") + r->name + "\": {\"value\": " +
           number(r->value) + ", \"unit\": \"" + r->unit + "\"}";
  }
  return out + "}";
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace hcep_bench
