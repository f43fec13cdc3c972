// Statistics, host fingerprint, registry deltas, trace analysis and the
// record helpers shared by every workload.

#include <sys/resource.h>
#include <sys/utsname.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "pops/obs/clock.hpp"
#include "pops/obs/metrics.hpp"
#include "pops/service/serialize.hpp"

namespace perfbench {

// ----- grid points ------------------------------------------------------------

service::SweepSpec point_spec(const GridPoint& p) {
  service::SweepSpec spec;
  spec.circuits = {p.circuit};
  spec.tc_ratios = {p.tc_ratio};
  spec.temperatures = {p.temperature_c};
  spec.vt_policies = {p.vt_policy};
  spec.policies = {service::buffer_policy(p.policy)};
  spec.base.power_model = p.power_model;
  spec.n_threads = 1;
  return spec;
}

api::OptimizerConfig point_config(const GridPoint& p) {
  // Mirrors SweepService::run's per-job overrides of spec.base.
  const service::BufferPolicy policy = service::buffer_policy(p.policy);
  api::OptimizerConfig cfg;
  cfg.power_model = p.power_model;
  cfg.enable_shielding = policy.shielding;
  cfg.allow_restructuring = policy.restructuring;
  cfg.temperature_c = p.temperature_c;
  if (p.vt_policy == "multi-vt") cfg.enable_multi_vt = true;
  return cfg;
}

service::SweepPoint sweep_point(const GridPoint& p,
                                const api::PipelineReport& r) {
  service::SweepPoint point;
  point.circuit = p.circuit;
  point.tc_ratio = p.tc_ratio;
  point.temperature_c = p.temperature_c;
  point.policy = p.policy;
  point.vt_policy = p.vt_policy;
  point.report = r;
  return point;
}

std::string record_bytes(const GridPoint& p, const api::PipelineReport& r) {
  return service::to_json(sweep_point(p, r), {.measured = false}).dump(0);
}

// ----- statistics ---------------------------------------------------------------

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += std::log(x);
  return std::exp(s / static_cast<double>(v.size()));
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

WindowStats window_stats(const std::vector<Window>& windows) {
  WindowStats s;
  std::vector<double> pps, p50, p90;
  for (const Window& w : windows) {
    if (w.latency_ms.empty() || !(w.wall_ms > 0.0)) continue;
    pps.push_back(static_cast<double>(w.latency_ms.size()) /
                  (w.wall_ms * 1e-3));
    p50.push_back(quantile(w.latency_ms, 0.5));
    p90.push_back(quantile(w.latency_ms, 0.9));
    s.samples += w.latency_ms.size();
  }
  s.points_per_s = median(pps);
  s.p50_ms = median(p50);
  s.p90_ms = median(p90);
  return s;
}

// ----- memory -----------------------------------------------------------------

double self_peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ----- host -------------------------------------------------------------------

namespace {

std::string first_line_with(const std::string& path, const std::string& key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line))
    if (line.rfind(key, 0) == 0) {
      const std::size_t colon = line.find(':');
      std::string v = colon == std::string::npos ? line : line.substr(colon + 1);
      const std::size_t b = v.find_first_not_of(" \t");
      return b == std::string::npos ? "" : v.substr(b);
    }
  return "";
}

/// A fixed amount of integer work no compiler can fold away.
std::uint64_t spin(std::uint64_t iters) {
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (std::uint64_t i = 0; i < iters; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

}  // namespace

util::Json host_fingerprint() {
  util::Json h = util::Json::object();
  struct utsname u {};
  if (uname(&u) == 0) {
    h["kernel"] = std::string(u.sysname) + " " + u.release;
    h["machine"] = std::string(u.machine);
  }
  h["cpu_model"] = first_line_with("/proc/cpuinfo", "model name");
  h["hardware_concurrency"] =
      static_cast<double>(std::thread::hardware_concurrency());
  h["mem_total"] = first_line_with("/proc/meminfo", "MemTotal");
  {
    std::ifstream in("/proc/loadavg");
    std::string l1;
    in >> l1;
    h["loadavg_1m"] = l1.empty() ? 0.0 : std::stod(l1);
  }

  // Effective parallelism: the same spin on N threads at once against one
  // thread alone. N x t1 / tN is the number of cores the host really
  // gives this process right now (an oversubscribed host shows < N).
  const std::size_t n = std::clamp<std::size_t>(
      std::thread::hardware_concurrency(), 1, 4);
  constexpr std::uint64_t kIters = 20'000'000;
  std::atomic<std::uint64_t> sink{0};
  const auto timed = [&](std::size_t threads) {
    const obs::StopWatch watch;
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < threads; ++t)
      pool.emplace_back([&] { sink += spin(kIters); });
    for (std::thread& t : pool) t.join();
    return watch.elapsed_ms();
  };
  const double t1 = timed(1);
  const double tn = timed(n);
  h["parallel_probe_threads"] = static_cast<double>(n);
  h["parallel_probe_t1_ms"] = t1;
  h["parallel_probe_tn_ms"] = tn;
  h["effective_parallelism"] =
      tn > 0.0 ? static_cast<double>(n) * t1 / tn : 0.0;
  h["probe_checksum"] = static_cast<double>(sink.load() & 0xFFFF);
  return h;
}

// ----- registry -------------------------------------------------------------------

std::map<std::string, double> registry_counters() {
  std::map<std::string, double> out;
  const util::Json snap = obs::Registry::global().snapshot_json();
  if (const util::Json* c = snap.find("counters"))
    for (const auto& [k, v] : c->members()) out[k] = v.as_number();
  return out;
}

std::map<std::string, double> counter_delta(
    const std::map<std::string, double>& a,
    const std::map<std::string, double>& b) {
  std::map<std::string, double> d;
  for (const auto& [k, v] : b) {
    const auto it = a.find(k);
    const double delta = v - (it == a.end() ? 0.0 : it->second);
    if (delta != 0.0) d[k] = delta;
  }
  return d;
}

util::Json to_json(const std::map<std::string, double>& m) {
  util::Json j = util::Json::object();
  for (const auto& [k, v] : m) j[k] = v;
  return j;
}

// ----- trace analysis -----------------------------------------------------------

std::map<std::string, SpanStat> span_stats(const util::Json& chrome_trace) {
  struct Ev {
    std::string name;
    double ts = 0.0, dur = 0.0;
    double pid = 0.0, tid = 0.0;
  };
  std::vector<Ev> evs;
  if (const util::Json* arr = chrome_trace.find("traceEvents"))
    for (const util::Json& e : arr->items()) {
      const util::Json* name = e.find("name");
      const util::Json* ts = e.find("ts");
      const util::Json* dur = e.find("dur");
      if (!name || !ts || !dur) continue;
      Ev ev;
      ev.name = name->as_string();
      ev.ts = ts->as_number();
      ev.dur = dur->as_number();
      if (const util::Json* p = e.find("pid")) ev.pid = p->as_number();
      if (const util::Json* t = e.find("tid")) ev.tid = t->as_number();
      evs.push_back(std::move(ev));
    }
  // Parents before children: by thread, then start, then longest first.
  std::sort(evs.begin(), evs.end(), [](const Ev& a, const Ev& b) {
    if (a.pid != b.pid) return a.pid < b.pid;
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.ts != b.ts) return a.ts < b.ts;
    return a.dur > b.dur;
  });
  std::map<std::string, SpanStat> out;
  std::vector<double> child_us(evs.size(), 0.0);
  std::vector<std::size_t> stack;
  for (std::size_t i = 0; i < evs.size(); ++i) {
    const Ev& e = evs[i];
    while (!stack.empty()) {
      const Ev& top = evs[stack.back()];
      const bool same_thread = top.pid == e.pid && top.tid == e.tid;
      // Timestamps are rounded to the nanosecond; allow that much slack.
      if (same_thread && e.ts + e.dur <= top.ts + top.dur + 1e-3) break;
      stack.pop_back();
    }
    if (!stack.empty()) child_us[stack.back()] += e.dur;
    stack.push_back(i);
  }
  for (std::size_t i = 0; i < evs.size(); ++i) {
    SpanStat& s = out[evs[i].name];
    ++s.calls;
    s.total_ms += evs[i].dur * 1e-3;
    s.self_ms += std::max(0.0, evs[i].dur - child_us[i]) * 1e-3;
  }
  return out;
}

}  // namespace perfbench
