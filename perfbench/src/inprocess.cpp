// The workloads: iscas-shield and multivt-state.
//
// Closed loop, one request outstanding: every grid point is one
// single-point, single-thread SweepService::run (no result cache), timed
// around the call. The timed phase repeats whole grid passes for as long
// as the next pass still fits in --seconds, so every run measures the
// same point mix.

#include "bench.hpp"
#include "pops/net/server.hpp"
#include "pops/netlist/benchmarks.hpp"
#include "pops/obs/clock.hpp"
#include "pops/obs/trace.hpp"

namespace perfbench {

Result run_inprocess(const Workload& w, const Options& opt) {
  Result res;

  // ----- set-up: context + circuit loading + Flimit characterization.
  // setup_s is the median of repeated set-ups: the one the run uses, then
  // kSetupsPerPass throwaway ones after every timed grid pass, so its
  // samples span the same stretch of the host's time as the passes do.
  std::vector<double> setup_s, load_ms;
  const auto set_up = [&](std::map<std::string, netlist::Netlist>& protos) {
    const obs::StopWatch watch;
    auto ctx = std::make_unique<api::OptContext>();
    const obs::StopWatch load_watch;
    for (const std::string& c : w.circuits)
      protos.emplace(c, netlist::make_benchmark(ctx->lib(), c));
    load_ms.push_back(load_watch.elapsed_ms() /
                      static_cast<double>(w.circuits.size()));
    ctx->warm_flimits();
    setup_s.push_back(watch.elapsed_ms() * 1e-3);
    return ctx;
  };
  constexpr int kSetupsPerPass = 3;
  std::map<std::string, netlist::Netlist> protos;
  const std::unique_ptr<api::OptContext> ctx = set_up(protos);

  const service::SweepService sweeps(*ctx, /*use_cache=*/false);
  const auto load = [&protos](const std::string& name) {
    return protos.at(name);
  };
  std::vector<service::SweepSpec> specs;
  for (const GridPoint& p : w.grid) specs.push_back(point_spec(p));
  const std::size_t n = w.grid.size();

  // ----- timed phase: whole grid passes, at least kMinPasses, while the
  // next pass still fits in --seconds ----------------------------------------
  constexpr std::size_t kMinPasses = 3;
  std::vector<Window> passes;
  std::vector<std::optional<api::PipelineReport>> first(n);
  std::vector<std::map<std::string, double>> pass_counts;
  std::size_t failed = 0;
  const double budget_ms = opt.seconds * 1000.0;
  const obs::StopWatch total;
  for (std::size_t pass = 0;; ++pass) {
    const auto before = registry_counters();
    Window win;
    const obs::StopWatch pass_watch;
    for (std::size_t i = 0; i < n; ++i) {
      ++res.attempted;
      const obs::StopWatch watch;
      try {
        service::SweepReport rep = sweeps.run(specs[i], load);
        win.latency_ms.push_back(watch.elapsed_ms());
        if (pass == 0) first[i] = std::move(rep.points.front().report);
      } catch (const std::exception& e) {
        ++failed;
        res.fail_check(w.grid[i].circuit + ": sweep failed: " + e.what());
      }
    }
    win.wall_ms = pass_watch.elapsed_ms();
    passes.push_back(std::move(win));
    pass_counts.push_back(counter_delta(before, registry_counters()));
    for (int rep = 0; rep < kSetupsPerPass; ++rep) {
      std::map<std::string, netlist::Netlist> scratch;
      (void)set_up(scratch);
    }
    if (passes.size() >= kMinPasses &&
        total.elapsed_ms() + passes.back().wall_ms > budget_ms)
      break;
  }
  res.failed = failed;
  const WindowStats timed = window_stats(passes);

  // ----- quality of the first pass (deterministic in the seed) ---------------
  std::size_t met = 0, ok = 0;
  std::vector<double> area, power_uw;
  double buffers = 0.0;
  for (const auto& r : first) {
    if (!r) continue;
    ++ok;
    met += r->met ? 1 : 0;
    area.push_back(r->final_area_um / r->initial_area_um);
    power_uw.push_back(r->power.total_uw);
    buffers += static_cast<double>(r->total_buffers_inserted());
  }

  // ----- exact work counts: every pass of the same grid must do the same
  // work (the traced pass below is held to it too).
  for (std::size_t pass = 1; pass < pass_counts.size(); ++pass)
    if (pass_counts[pass] != pass_counts[0])
      res.fail_check("work counts of grid pass " + std::to_string(pass) +
                     " differ from pass 0: " +
                     to_json(pass_counts[pass]).dump(0) + " vs " +
                     to_json(pass_counts[0]).dump(0));
  const util::Json counts = to_json(pass_counts[0]);
  res.detail["work_counts_per_pass"] = counts;
  util::Json pass_times = util::Json::array();
  for (const Window& win : passes) pass_times.push_back(win.wall_ms);
  res.detail["pass_ms"] = std::move(pass_times);
  // Each grid point's median latency over the passes, in grid order.
  util::Json point_ms = util::Json::array();
  for (std::size_t i = 0; failed == 0 && i < n; ++i) {
    std::vector<double> t;
    for (const Window& win : passes) t.push_back(win.latency_ms[i]);
    point_ms.push_back(median(std::move(t)));
  }
  res.detail["point_latency_ms"] = std::move(point_ms);
  res.detail["latency_samples"] = static_cast<double>(timed.samples);
  util::Json setup_samples = util::Json::array();
  for (const double t : setup_s) setup_samples.push_back(t);
  res.detail["setup_s_samples"] = std::move(setup_samples);

  // ----- output checks: a seeded sample, or every grid point when traced
  // (the probes below then cover the whole grid's point mix).
  ProbeSample sample;
  for (const std::size_t i : sample_indices(n, opt.trace ? n : 4, opt.seed)) {
    if (!first[i]) continue;
    std::string timed = record_bytes(w.grid[i], *first[i]);
    if (opt.corrupt && sample.points.empty()) timed[timed.size() / 2] ^= 1;
    const netlist::Netlist& input = protos.at(w.grid[i].circuit);
    sample.points.push_back(w.grid[i]);
    sample.inputs.push_back(&input);
    sample.reruns.push_back(check_point(*ctx, w.grid[i], input, timed, res));
  }
  res.detail["checked_points"] = static_cast<double>(sample.points.size());

  const double rss = self_peak_rss_mb();
  const std::size_t bad = std::min<std::size_t>(
      res.attempted, failed + res.check_failures.size());
  res.e2e("setup_s", median(setup_s), "s");
  res.e2e("points_per_s", timed.points_per_s, "points/s");
  res.e2e("latency_ms_p50", timed.p50_ms, "ms");
  res.e2e("latency_ms_p90", timed.p90_ms, "ms");
  res.e2e("success_rate",
          1.0 - static_cast<double>(bad) / static_cast<double>(res.attempted),
          "ratio");
  res.e2e("met_fraction",
          ok ? static_cast<double>(met) / static_cast<double>(ok) : 0.0,
          "ratio");
  res.e2e("area_ratio", geomean(area), "ratio");
  res.e2e("power_uw", geomean(power_uw), "uW");
  res.e2e("peak_rss_mb", rss, "MB");
  if (!opt.trace) return res;

  // ----- traced pass (separate from the timed phase) ---------------------------
  obs::TraceRecorder& rec = obs::TraceRecorder::global();
  const auto before = registry_counters();
  rec.start();
  const obs::StopWatch traced;
  for (std::size_t i = 0; i < n; ++i) {
    obs::Span span("bench/point");
    try {
      (void)sweeps.run(specs[i], load);
    } catch (const std::exception& e) {
      res.fail_check(w.grid[i].circuit + ": traced sweep failed: " + e.what());
    }
  }
  const double traced_s = traced.elapsed_ms() * 1e-3;
  rec.stop();
  if (counter_delta(before, registry_counters()) != pass_counts[0])
    res.fail_check("work counts of the traced pass differ from the untraced");
  const auto spans = span_stats(rec.chrome_json());

  // ----- probes -----------------------------------------------------------------
  const std::vector<double> report_ms =
      probe_compute_layers(*ctx, sample, opt, res);
  add_trace_layers(*ctx, sample, spans, static_cast<double>(n), pass_counts[0],
                   static_cast<double>(n), mean(report_ms), res);
  res.layer("core.buffers_per_point", ok ? buffers / static_cast<double>(ok) : 0.0,
            "count/point");
  res.layer("netlist.load_ms", median(load_ms), "ms");

  // Wire and shard/merge: an in-process daemon on loopback serves two
  // seeded grid points (this workload itself never crosses a wire).
  {
    net::SweepServerOptions sopt;
    sopt.n_threads = 1;
    net::SweepServer server(sopt);
    server.start();
    std::vector<GridPoint> wire_points;
    for (const std::size_t i : sample_indices(n, 2, opt.seed))
      wire_points.push_back(w.grid[i]);
    const WireProbe wp = probe_wire({server.port()}, wire_points);
    server.stop();
    res.layer("net.roundtrip_ms", wp.roundtrip_ms, "ms");
    res.layer("net.bytes_per_point", wp.bytes_per_point, "bytes/point");
    res.layer("net.errors", static_cast<double>(wp.errors), "count");
    res.layer("fabric.dispatch_ms", wp.dispatch_ms, "ms");
    res.layer("fabric.shard_imbalance", 1.0, "ratio");
    res.layer("fabric.failovers", 0.0, "count");
  }
  probe_table1(*ctx, res);

  const double traced_pps = static_cast<double>(n) / traced_s;
  res.layer("obs.trace_overhead",
            (timed.points_per_s - traced_pps) / timed.points_per_s,
            "ratio");
  return res;
}

}  // namespace perfbench
