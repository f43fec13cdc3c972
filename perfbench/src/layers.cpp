// Per-layer metrics derived from a traced pass (span statistics) and from
// the registry work counts of an untraced pass.
//
// Layer times are means per call of the layer's span; how often a point
// calls the layer is the matching count. A layer the workload never calls
// (the shield pass under policy "minimal", say) is probed instead: called
// on the workload's own sampled inputs with tracing on, so its figure is
// still that layer's cost on this workload's circuits. Such layers are
// listed under "probed_spans" in the run's details.

#include "bench.hpp"

namespace perfbench {

namespace {

double count_of(const std::map<std::string, double>& c, const std::string& k) {
  const auto it = c.find(k);
  return it == c.end() ? 0.0 : it->second;
}

SpanStat span_of(const std::map<std::string, SpanStat>& s, const std::string& k) {
  const auto it = s.find(k);
  return it == s.end() ? SpanStat{} : it->second;
}

double per_call_ms(const SpanStat& s) {
  return s.calls > 0 ? s.total_ms / static_cast<double>(s.calls) : 0.0;
}

}  // namespace

void add_trace_layers(api::OptContext& ctx, const ProbeSample& sample,
                      const std::map<std::string, SpanStat>& spans,
                      double traced_points,
                      const std::map<std::string, double>& counts,
                      double counted_points, double power_report_ms,
                      Result& res) {
  const double n = traced_points > 0.0 ? traced_points : 1.0;
  const double m = counted_points > 0.0 ? counted_points : 1.0;

  static const std::vector<std::string> per_call = {
      "pass/shield", "pass/cancel-inverters", "pass/sweep-dead",
      "pass/protocol", "pass/multi-vt", "protocol/round",
      "sta/full", "sta/slack_full", "sta/update", "sta/slack_update",
  };
  std::set<std::string> absent;
  for (const std::string& name : per_call)
    if (span_of(spans, name).calls == 0) absent.insert(name);
  std::map<std::string, SpanStat> probed;
  if (!absent.empty()) probed = probe_absent_spans(ctx, sample, absent);
  util::Json probed_names = util::Json::array();
  for (const std::string& name : absent) probed_names.push_back(name);
  res.detail["probed_spans"] = std::move(probed_names);
  util::Json span_table = util::Json::object();
  for (const auto& [name, s] : spans) {
    util::Json row = util::Json::object();
    row["calls"] = static_cast<double>(s.calls);
    row["total_ms"] = s.total_ms;
    row["self_ms"] = s.self_ms;
    span_table[name] = std::move(row);
  }
  res.detail["spans"] = std::move(span_table);
  const auto call_ms = [&](const std::string& name) {
    return per_call_ms(absent.count(name) ? span_of(probed, name)
                                          : span_of(spans, name));
  };

  // Per-point time and how much of it the named layers explain. The
  // benchmark's bench/point span wraps each SweepService::run; the spans
  // between it and the passes (sweep/run, run_many/*, optimizer/point)
  // only wrap, so their self time is the point's unnamed work: spec
  // checks, netlist copies, sweep bookkeeping and, inside
  // optimizer/point, the final power report (paid by computed points
  // only). What the probed power report does not explain is unattributed.
  const SpanStat point = span_of(spans, "bench/point");
  const double point_ms = point.total_ms / n;
  double wrapper_self_ms = 0.0;
  for (const char* name : {"bench/point", "sweep/run", "run_many/batch",
                           "run_many/task", "optimizer/point"})
    wrapper_self_ms += span_of(spans, name).self_ms;
  const double hits = count_of(counts, "cache.hits");
  const double misses = count_of(counts, "cache.misses");
  const double computed = hits + misses > 0.0 ? misses / (hits + misses) : 1.0;
  const double unattributed = wrapper_self_ms / n - power_report_ms * computed;
  res.layer("api.point_ms", point_ms, "ms");
  res.layer("api.unattributed_ms", unattributed, "ms");
  res.layer("api.accounted_ratio",
            point_ms > 0.0 ? 1.0 - unattributed / point_ms : 0.0, "ratio");

  res.layer("api.pass_shield_ms", call_ms("pass/shield"), "ms");
  res.layer("api.pass_cleanup_ms",
            call_ms("pass/cancel-inverters") + call_ms("pass/sweep-dead"),
            "ms");
  res.layer("api.pass_protocol_ms", call_ms("pass/protocol"), "ms");
  res.layer("api.pass_multivt_ms", call_ms("pass/multi-vt"), "ms");

  res.layer("core.protocol_rounds", count_of(counts, "protocol.rounds") / m,
            "count/point");
  res.layer("core.protocol_round_ms", call_ms("protocol/round"), "ms");

  res.layer("timing.full_runs", count_of(counts, "sta.full_runs") / m,
            "count/point");
  res.layer("timing.full_ms", call_ms("sta/full"), "ms");
  res.layer("timing.slack_full",
            static_cast<double>(span_of(spans, "sta/slack_full").calls) / n,
            "count/point");
  res.layer("timing.slack_full_ms", call_ms("sta/slack_full"), "ms");
  res.layer("timing.updates", count_of(counts, "sta.updates") / m,
            "count/point");
  res.layer("timing.update_ms", call_ms("sta/update"), "ms");
  res.layer("timing.slack_update_ms", call_ms("sta/slack_update"), "ms");
  const double kc = count_of(counts, "sta.kpaths_cached");
  const double ke = count_of(counts, "sta.kpaths_enumerated");
  res.layer("timing.kpath_cached_ratio", kc + ke > 0.0 ? kc / (kc + ke) : 0.0,
            "ratio");

  res.layer("power.evals", count_of(counts, "power.evals") / m, "count/point");
  res.layer("service.cache_hit_ratio", 1.0 - computed, "ratio");
  res.layer("service.journal_appends",
            count_of(counts, "cache.journal.appends") / m, "count/point");
  res.layer("service.journal_compactions",
            count_of(counts, "cache.journal.compactions"), "count");
}

}  // namespace perfbench
