// Output checks and layer probes.
//
// The probes run after the timed phase, on the workload's own inputs (a
// seeded sample of its points and their re-run results), and call each
// layer only through its public entry point.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <unistd.h>

#include "bench.hpp"
#include "pops/baseline/amps.hpp"
#include "pops/core/bounds.hpp"
#include "pops/core/protocol.hpp"
#include "pops/core/sensitivity.hpp"
#include "pops/fabric/coordinator.hpp"
#include "pops/net/client.hpp"
#include "pops/netlist/benchmarks.hpp"
#include "pops/netlist/logic_sim.hpp"
#include "pops/obs/clock.hpp"
#include "pops/power/power_model.hpp"
#include "pops/service/cache_journal.hpp"
#include "pops/service/result_cache.hpp"
#include "pops/service/serialize.hpp"
#include "pops/obs/trace.hpp"
#include "pops/timing/incremental_sta.hpp"
#include "pops/timing/path.hpp"
#include "pops/timing/sta.hpp"

namespace perfbench {

namespace {

std::string label(const GridPoint& p) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "%s tc=%.17g %s %s %.0fC", p.circuit.c_str(),
                p.tc_ratio, p.policy.c_str(), p.vt_policy.c_str(),
                p.temperature_c);
  return buf;
}

/// Median wall time of `reps` calls of `fn`, ms.
template <typename Fn>
double median_ms(int reps, Fn&& fn) {
  std::vector<double> t;
  for (int r = 0; r < reps; ++r) {
    const obs::StopWatch watch;
    fn();
    t.push_back(watch.elapsed_ms());
  }
  return median(std::move(t));
}

}  // namespace

// ----- output checks ------------------------------------------------------------

Rerun check_point(api::OptContext& ctx, const GridPoint& p,
                  const netlist::Netlist& input,
                  const std::string& timed_record, Result& res) {
  const api::OptimizerConfig cfg = point_config(p);
  const api::Optimizer optimizer(ctx, cfg);
  Rerun r{input, {}};
  r.report = optimizer.run_relative(r.optimized, p.tc_ratio);
  const std::string what = label(p);

  if (record_bytes(p, r.report) != timed_record)
    res.fail_check(what + ": api::Optimizer record differs from the timed run's");

  timing::StaOptions sta_opt;
  sta_opt.pi_slew_ps = cfg.pi_slew_ps;
  const double cold =
      timing::Sta(r.optimized, ctx.dm(), sta_opt).run().critical_delay_ps;
  if (cold != r.report.final_delay_ps)
    res.fail_check(what + ": cold STA delay " + util::Json::number_to_string(cold) +
                   " != reported final_delay_ps " +
                   util::Json::number_to_string(r.report.final_delay_ps));
  if (core::tc_met(cold, r.report.tc_ps) != r.report.met)
    res.fail_check(what + ": cold STA disagrees with the reported 'met'");

  util::Rng rng(0x6571756976ull);
  if (!netlist::equivalent(input, r.optimized, rng))
    res.fail_check(what + ": optimized netlist is not equivalent to the input");
  return r;
}

// ----- compute-side layer probes -----------------------------------------------

std::vector<double> probe_compute_layers(api::OptContext& ctx,
                                         const ProbeSample& sample,
                                         const Options& opt, Result& res) {
  const std::size_t n = sample.points.size();
  std::vector<double> report_ms, activity_ms, eval_ms, key_ms, lookup_ms,
      store_ms, serialize_ms, append_ms;

  service::ResultCache cache;
  for (std::size_t i = 0; i < n; ++i) {
    const GridPoint& p = sample.points[i];
    const Rerun& r = sample.reruns[i];
    const api::OptimizerConfig cfg = point_config(p);

    // Power: the pipeline's final report (activity simulation + backend
    // evaluation on the optimized netlist), then its two halves.
    const std::unique_ptr<power::PowerModel> pm =
        cfg.make_power_model(ctx.lib());
    power::PowerReport probe_power;
    report_ms.push_back(median_ms(3, [&] {
      util::Rng rng = ctx.make_rng(api::kPowerRngStream);
      probe_power = pm->estimate(r.optimized, rng, power::kDefaultFrequencyMhz,
                                 512, cfg.temperature_c);
    }));
    if (probe_power.total_uw != r.report.power.total_uw)
      res.fail_check(label(p) + ": PowerModel::estimate does not reproduce "
                                "the reported total power");
    netlist::ActivityReport act;
    activity_ms.push_back(median_ms(3, [&] {
      util::Rng rng = ctx.make_rng(api::kPowerRngStream);
      act = netlist::estimate_activity(r.optimized, rng, 512);
    }));
    eval_ms.push_back(median_ms(3, [&] {
      (void)pm->evaluate(r.optimized, act, power::kDefaultFrequencyMhz,
                         cfg.temperature_c);
    }));

    // Memo cache: key on the input, store the optimized result, replay it.
    const api::Optimizer optimizer(ctx, cfg);
    api::ResultCacheKey key;
    key_ms.push_back(median_ms(3, [&] {
      key = cache.make_key(ctx, *sample.inputs[i], cfg, optimizer.pipeline(),
                           r.report.tc_ps);
    }));
    {
      const obs::StopWatch watch;
      cache.store(key, r.optimized, r.report);
      store_ms.push_back(watch.elapsed_ms());
    }
    lookup_ms.push_back(median_ms(3, [&] {
      netlist::Netlist nl = *sample.inputs[i];
      api::PipelineReport rep;
      if (!cache.lookup(key, nl, rep))
        res.fail_check(label(p) + ": ResultCache missed a stored key");
    }));

    const service::SweepPoint point = sweep_point(p, r.report);
    serialize_ms.push_back(
        median_ms(3, [&] { (void)service::to_json(point).dump(0); }));
  }

  // Journal: append the sample's entries to a fresh journal, then replay
  // it into a new cache.
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(opt.state_dir) / "tmp";
  fs::create_directories(dir);
  const std::string path =
      (dir / ("probe-" + std::to_string(::getpid()) + ".jnl")).string();
  fs::remove(path);
  const auto resolver = [&ctx](const std::string&) { return &ctx; };
  {
    auto jcache = std::make_shared<service::ResultCache>();
    service::CacheJournal journal(jcache, path);
    journal.bind_context(ctx.dm().selector(), ctx);
    journal.open(ctx, resolver);
    cache.for_each_entry([&](const api::ResultCacheKey& key,
                             const netlist::Netlist& nl,
                             const api::PipelineReport& rep) {
      const obs::StopWatch watch;
      journal.on_store(key, nl, rep);
      append_ms.push_back(watch.elapsed_ms());
    });
    journal.close();
  }
  double replay_ms = 0.0;
  {
    auto rcache = std::make_shared<service::ResultCache>();
    service::CacheJournal journal(rcache, path);
    const obs::StopWatch watch;
    const service::CacheLoadReport loaded = journal.open(ctx, resolver);
    replay_ms = watch.elapsed_ms();
    if (loaded.entries_loaded != cache.size())
      res.fail_check("journal replay restored " +
                     std::to_string(loaded.entries_loaded) + " of " +
                     std::to_string(cache.size()) + " appended entries");
    journal.close();
  }
  fs::remove(path);

  res.layer("api.power_report_ms", mean(report_ms), "ms");
  res.layer("netlist.activity_ms", mean(activity_ms), "ms");
  res.layer("power.eval_ms", mean(eval_ms), "ms");
  res.layer("service.key_ms", mean(key_ms), "ms");
  res.layer("service.lookup_ms", mean(lookup_ms), "ms");
  res.layer("service.store_ms", mean(store_ms), "ms");
  res.layer("service.serialize_ms", mean(serialize_ms), "ms");
  res.layer("service.journal_append_ms", mean(append_ms), "ms");
  res.layer("service.journal_replay_ms",
            cache.size() > 0 ? replay_ms / static_cast<double>(cache.size())
                             : 0.0,
            "ms");
  return report_ms;
}

// ----- layers the workload never calls ---------------------------------------------

std::map<std::string, SpanStat> probe_absent_spans(
    api::OptContext& ctx, const ProbeSample& sample,
    const std::set<std::string>& absent) {
  // At most four points, evenly spaced through the sample.
  const std::size_t n = sample.points.size();
  const std::size_t k = std::min<std::size_t>(4, n);
  obs::TraceRecorder& rec = obs::TraceRecorder::global();
  rec.start();
  for (std::size_t j = 0; j < k; ++j) {
    const std::size_t i = j * n / k;
    const GridPoint& p = sample.points[i];
    api::OptimizerConfig cfg = point_config(p);
    cfg.enable_multi_vt = true;
    // A pass (and the protocol's rounds) as a one-pass pipeline at the
    // point's own Tc.
    for (const char* pass : {"shield", "cancel-inverters", "sweep-dead",
                             "protocol", "multi-vt"}) {
      const std::string span = std::string("pass/") + pass;
      const bool rounds = std::string(pass) == "protocol" &&
                          absent.count("protocol/round") > 0;
      if (absent.count(span) == 0 && !rounds) continue;
      api::Optimizer optimizer(ctx, cfg);
      optimizer.set_pipeline(api::PassRegistry::global().make_pipeline({pass}));
      netlist::Netlist nl = *sample.inputs[i];
      (void)optimizer.run_relative(nl, p.tc_ratio);
    }
    // Full slack materialization, then one maintained slack repair.
    if (absent.count("sta/slack_full") || absent.count("sta/slack_update") ||
        absent.count("sta/update")) {
      netlist::Netlist nl = *sample.inputs[i];
      timing::IncrementalSta sta(nl, ctx.dm());
      const double tc = p.tc_ratio * sta.run_full().critical_delay_ps;
      (void)sta.slacks(tc);
      const std::vector<netlist::NodeId> gates = nl.gates();
      if (!gates.empty()) {
        const netlist::NodeId g = gates[gates.size() / 2];
        nl.set_drive(g, nl.drive(g) * 1.5);
        const netlist::NodeId dirty[] = {g};
        (void)sta.update(dirty);
      }
    }
  }
  rec.stop();
  return span_stats(rec.chrome_json());
}

// ----- wire and shard/merge probes -------------------------------------------------

WireProbe probe_wire(std::uint16_t port, const std::vector<GridPoint>& points) {
  WireProbe out;
  std::vector<double> roundtrip, bytes, dispatch;
  fabric::WorkerAddress worker;
  worker.port = port;
  fabric::FabricOptions fopt;
  fopt.record_runtimes = true;
  fabric::FabricCoordinator coordinator({worker}, fopt);
  for (const GridPoint& p : points) {
    const service::SweepSpec spec = point_spec(p);
    try {
      net::SweepClient client("127.0.0.1", port);
      // First submit warms the worker's cache for this point; the timed
      // pair below then compares like with like (both replays).
      (void)client.submit(spec);
      std::string raw;
      const obs::StopWatch watch;
      const net::SweepSummary summary = client.submit(
          spec, [&raw](const util::Json&, const std::string& line) {
            raw = line;
          });
      const double client_ms = watch.elapsed_ms();
      roundtrip.push_back(client_ms - summary.wall_ms);
      bytes.push_back(static_cast<double>(raw.size() + 1));

      const obs::StopWatch fwatch;
      (void)coordinator.run(spec);
      dispatch.push_back(fwatch.elapsed_ms() - summary.wall_ms);
    } catch (const net::ConnectionError&) {
      ++out.errors;
    }
  }
  out.roundtrip_ms = mean(roundtrip);
  out.bytes_per_point = mean(bytes);
  out.dispatch_ms = mean(dispatch);
  return out;
}

// ----- Table 1 ----------------------------------------------------------------------

void probe_table1(api::OptContext& ctx, Result& res) {
  // The paper's Table 1: both sizers meet Tc = 1.2 * Tmin on each paper
  // circuit's critical path; the reproduced quantity is the CPU ratio.
  static const std::vector<std::string> names = {
      "Adder16", "fpd",   "c432",  "c499",  "c880",  "c1355",
      "c1908",   "c3540", "c5315", "c6288", "c7552",
  };
  const timing::DelayModel& dm = ctx.dm();
  double pops_ms = 0.0, amps_ms = 0.0, evals = 0.0;
  util::Json rows = util::Json::array();
  for (const std::string& name : names) {
    const netlist::Netlist nl = netlist::make_benchmark(ctx.lib(), name);
    const timing::Sta sta(nl, dm);
    const timing::TimedPath tp = sta.critical_path(sta.run());
    const timing::BoundedPath path =
        timing::BoundedPath::extract(nl, tp, dm.default_input_slew_ps());
    const double tc = 1.2 * core::compute_bounds(path, dm).tmin_ps;

    constexpr int kReps = 5;
    const obs::StopWatch pw;
    core::SizingResult pops_r = core::size_for_constraint(path, dm, tc);
    for (int r = 1; r < kReps; ++r)
      pops_r = core::size_for_constraint(path, dm, tc);
    const double p_ms = pw.elapsed_ms() / kReps;
    const obs::StopWatch aw;
    const baseline::AmpsResult amps_r = baseline::meet_constraint(path, dm, tc);
    const double a_ms = aw.elapsed_ms();

    if (!pops_r.feasible || !core::tc_met(pops_r.delay_ps, tc))
      res.fail_check("Table 1 " + name + ": POPS sizing misses Tc");
    if (!amps_r.feasible)
      res.fail_check("Table 1 " + name + ": AMPS sizing misses Tc");
    pops_ms += p_ms;
    amps_ms += a_ms;
    evals += static_cast<double>(amps_r.evaluations);
    util::Json row = util::Json::object();
    row["circuit"] = name;
    row["pops_ms"] = p_ms;
    row["amps_ms"] = a_ms;
    row["amps_evals"] = static_cast<double>(amps_r.evaluations);
    rows.push_back(std::move(row));
  }
  res.detail["table1"] = std::move(rows);
  res.layer("core.size_for_constraint_ms", pops_ms, "ms");
  res.layer("baseline.meet_constraint_ms", amps_ms, "ms");
  res.layer("baseline.amps_evals", evals, "count");
  res.layer("paper.table1_speedup", pops_ms > 0.0 ? amps_ms / pops_ms : 0.0,
            "x");
}

}  // namespace perfbench
