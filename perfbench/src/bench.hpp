#pragma once
// Shared types of the POPS sweep benchmark (pops_perfbench).
//
// The benchmark drives libpops only through its public entry points and
// reports two metric families per workload run:
//
//   * end-to-end metrics (timed run, tracing off): set-up time, points
//     per second, per-point latency percentiles, success rate, and the
//     deterministic quality figures (met fraction, area ratio, power);
//   * per-layer metrics (--trace 1): a separate traced pass over the
//     workload's grid, registry work counts, and layer probes run on the
//     workload's own inputs after the timed phase.
//
// Every run also re-checks a seeded sample of its points (output checks)
// and asserts that the per-point work counts repeat exactly.

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "pops/api/api.hpp"
#include "pops/netlist/netlist.hpp"
#include "pops/service/sweep.hpp"
#include "pops/util/json.hpp"
#include "pops/util/rng.hpp"

namespace perfbench {

using namespace pops;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 45.0;
  bool trace = false;
  /// c17-sized grids: the benchmark's own self-test.
  bool short_mode = false;
  /// Corrupt one timed record before the output checks (self-test: the
  /// checks must catch it).
  bool corrupt = false;
  std::string state_dir;  ///< state directory inside the checkout
};

/// One sweep point of a workload grid.
struct GridPoint {
  std::string circuit;
  double tc_ratio = 1.0;
  double temperature_c = 25.0;
  std::string policy = "standard";
  std::string vt_policy = "none";
  std::string power_model = "proxy";
};

/// The single-point, single-thread SweepSpec of `p`.
service::SweepSpec point_spec(const GridPoint& p);

/// The OptimizerConfig a SweepService job of `p` runs under (what the
/// output checks re-run through api::Optimizer).
api::OptimizerConfig point_config(const GridPoint& p);

struct Workload {
  std::string name;
  std::vector<GridPoint> grid;      ///< deterministic in the seed
  std::vector<std::string> circuits;  ///< distinct circuits of the grid
};

/// Build workload `name` for `seed`; throws std::invalid_argument on an
/// unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed,
                       bool short_mode);

/// Seeded sample of `k` distinct indices below `n`, ascending.
std::vector<std::size_t> sample_indices(std::size_t n, std::size_t k,
                                        std::uint64_t seed);

// ----- measurements -----------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one run produces. `detail` carries the host fingerprint, the
/// work counts, sample counts and anything else worth keeping next to the
/// metrics; it is written to the run's result file.
struct Result {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> check_failures;
  util::Json detail = util::Json::object();

  void e2e(const std::string& name, double v, const std::string& unit) {
    end_to_end.push_back({name, v, unit});
  }
  void layer(const std::string& name, double v, const std::string& unit) {
    per_layer.push_back({name, v, unit});
  }
  void fail_check(const std::string& what) { check_failures.push_back(what); }
};

double median(std::vector<double> v);
/// Linear-interpolated quantile, q in [0, 1].
double quantile(std::vector<double> v, double q);
double geomean(const std::vector<double>& v);
double mean(const std::vector<double>& v);

/// One measurement window of a closed-loop run: one whole grid pass, so a
/// window's percentiles are those of the workload's point-latency
/// distribution, and windows differ only by noise.
struct Window {
  std::vector<double> latency_ms;  ///< per completed point
  double wall_ms = 0.0;
};
/// Throughput and latency percentiles of each window, reported as their
/// medians over the windows: a host slowdown that hits a minority of the
/// windows does not move them.
struct WindowStats {
  double points_per_s = 0.0;
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  std::size_t samples = 0;
};
WindowStats window_stats(const std::vector<Window>& windows);

/// Peak resident set of this process, MB.
double self_peak_rss_mb();

/// Host fingerprint plus the effective-parallelism probe (N independent
/// spinners against one).
util::Json host_fingerprint();

/// Counter values of the process-wide obs::Registry.
std::map<std::string, double> registry_counters();
/// b - a for every counter of b.
std::map<std::string, double> counter_delta(
    const std::map<std::string, double>& a,
    const std::map<std::string, double>& b);
util::Json to_json(const std::map<std::string, double>& m);

// ----- trace analysis -----------------------------------------------------------

/// Per span name: calls, total (inclusive) ms and self ms (the span minus
/// its direct children on the same thread), from a Chrome trace document.
struct SpanStat {
  std::size_t calls = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};
std::map<std::string, SpanStat> span_stats(const util::Json& chrome_trace);

struct ProbeSample;

/// Per-layer metrics from a traced pass over `traced_points` points
/// (span statistics) and the registry work counts of `counted_points`
/// untraced points. Layers the trace never saw are probed on `sample`
/// (probe_absent_spans). `power_report_ms` is the probed per-point power
/// report, the one part of a point without a span of its own.
void add_trace_layers(api::OptContext& ctx, const ProbeSample& sample,
                      const std::map<std::string, SpanStat>& spans,
                      double traced_points,
                      const std::map<std::string, double>& counts,
                      double counted_points, double power_report_ms,
                      Result& res);

// ----- output checks ------------------------------------------------------------

/// Re-run `p` through api::Optimizer on a copy of `input` and check it
/// against `timed_record` (the timed run's --no-runtimes record bytes):
/// byte-identical record, cold timing::Sta reproduces final_delay_ps and
/// met, and the optimized netlist is equivalent to the input. Failures
/// are added to `res`. Returns the optimized netlist and report.
struct Rerun {
  netlist::Netlist optimized;
  api::PipelineReport report;
};
Rerun check_point(api::OptContext& ctx, const GridPoint& p,
                  const netlist::Netlist& input,
                  const std::string& timed_record, Result& res);

/// The SweepPoint a SweepService run of `p` reports, with report `r`.
service::SweepPoint sweep_point(const GridPoint& p,
                                const api::PipelineReport& r);
/// The --no-runtimes record bytes of a point.
std::string record_bytes(const GridPoint& p, const api::PipelineReport& r);

// ----- layer probes ---------------------------------------------------------------

/// Inputs the probes run on: a seeded sample of the workload's points,
/// their input netlists and their re-run (optimized) results.
struct ProbeSample {
  std::vector<GridPoint> points;
  std::vector<const netlist::Netlist*> inputs;
  std::vector<Rerun> reruns;
};

/// Power/activity, cache, serializer and journal probes on the sample.
/// Adds per-layer metrics to `res`; returns the power report's time per
/// sample point.
std::vector<double> probe_compute_layers(api::OptContext& ctx,
                                         const ProbeSample& sample,
                                         const Options& opt, Result& res);
/// Wire and shard/merge probes against the daemon on loopback `port`:
/// net.roundtrip_ms, net.bytes_per_point, fabric.dispatch_ms, and the
/// number of transport errors seen.
struct WireProbe {
  double roundtrip_ms = 0.0;
  double bytes_per_point = 0.0;
  double dispatch_ms = 0.0;
  std::size_t errors = 0;
};
WireProbe probe_wire(std::uint16_t port, const std::vector<GridPoint>& points);
void probe_table1(api::OptContext& ctx, Result& res);
/// Span statistics of the `absent` spans (pass/<name>, protocol/round,
/// sta/slack_full, sta/update, sta/slack_update), measured by calling each
/// layer on the sample's inputs with tracing on.
std::map<std::string, SpanStat> probe_absent_spans(
    api::OptContext& ctx, const ProbeSample& sample,
    const std::set<std::string>& absent);

// ----- workloads ------------------------------------------------------------------

Result run_inprocess(const Workload& w, const Options& opt);

}  // namespace perfbench
