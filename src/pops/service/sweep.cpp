#include "pops/service/sweep.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "pops/obs/clock.hpp"
#include "pops/obs/metrics.hpp"
#include "pops/obs/trace.hpp"

namespace pops::service {

BufferPolicy buffer_policy(const std::string& name) {
  if (name == "standard") return BufferPolicy{"standard", true, true};
  if (name == "no-shield") return BufferPolicy{"no-shield", false, true};
  if (name == "no-restructure")
    return BufferPolicy{"no-restructure", true, false};
  if (name == "minimal") return BufferPolicy{"minimal", false, false};
  throw std::invalid_argument(
      "unknown buffer policy '" + name +
      "' (known: minimal no-restructure no-shield standard)");
}

std::vector<std::string> SweepSpec::validate() const {
  std::vector<std::string> out;
  auto require = [&out](bool ok, const std::string& msg) {
    if (!ok) out.push_back(msg);
  };

  require(!circuits.empty(), "circuits is empty");
  std::set<std::string> seen_circuits;
  for (const std::string& c : circuits) {
    require(!c.empty(), "circuits contains an empty name");
    require(seen_circuits.insert(c).second, "duplicate circuit '" + c + "'");
  }

  require(!tc_ratios.empty(), "tc_ratios is empty");
  for (const double r : tc_ratios)
    require(std::isfinite(r) && r > 0.0,
            "tc_ratio " + std::to_string(r) + " must be finite and > 0");

  require(!shield_margins.empty(), "shield_margins is empty");
  for (const double m : shield_margins)
    require(std::isfinite(m) && m > 0.0,
            "shield_margin " + std::to_string(m) + " must be finite and > 0");

  require(!temperatures.empty(), "temperatures is empty");
  for (const double t : temperatures)
    require(t > -273.15 && t < 300.0,
            "temperature " + std::to_string(t) +
                " must be a physical junction temperature (-273.15, 300)");

  require(!vt_policies.empty(), "vt_policies is empty");
  std::set<std::string> seen_vt;
  for (const std::string& v : vt_policies) {
    require(v == "none" || v == "multi-vt",
            "unknown vt policy '" + v + "' (known: multi-vt none)");
    require(seen_vt.insert(v).second, "duplicate vt policy '" + v + "'");
  }

  require(!policies.empty(), "policies is empty");
  std::set<std::string> seen_policies;
  for (const BufferPolicy& p : policies) {
    require(!p.name.empty(), "policies contains an unnamed policy");
    require(seen_policies.insert(p.name).second,
            "duplicate policy '" + p.name + "'");
  }

  for (const std::string& pass : pipeline)
    if (!api::PassRegistry::global().contains(pass))
      out.push_back("pipeline names unknown pass '" + pass + "'");

  // Materialize every policy's overrides onto the base and validate the
  // resulting *job* config — a valid base does not imply valid jobs (a
  // shield-only base under a no-shield policy empties the pipeline).
  // Margins only enter as cfg.shield_margin, already checked above, so a
  // neutral value keeps axis problems from being re-reported per policy.
  for (const BufferPolicy& p : policies) {
    api::OptimizerConfig cfg = base;
    cfg.enable_shielding = p.shielding;
    cfg.allow_restructuring = p.restructuring;
    cfg.shield_margin = 1.0;
    for (const std::string& prob : cfg.validate())
      out.push_back("job config (policy '" + p.name + "'): " + prob);
  }
  return out;
}

void SweepSpec::ensure_valid() const {
  const std::vector<std::string> problems = validate();
  if (problems.empty()) return;
  std::ostringstream os;
  os << "invalid SweepSpec (" << problems.size() << " problem"
     << (problems.size() == 1 ? "" : "s") << "):";
  for (const std::string& p : problems) os << "\n  - " << p;
  throw std::invalid_argument(os.str());
}

SweepService::SweepService(api::OptContext& ctx, bool use_cache)
    : ctx_(&ctx) {
  if (!use_cache) {
    // Uncached means uncached: drop any hook a previous service
    // installed, or the points would still be replayed from cache while
    // this service reports zero hits/misses.
    ctx.set_result_cache(nullptr);
    return;
  }
  if (ctx.result_cache() == nullptr)
    ctx.set_result_cache(std::make_shared<ResultCache>());
  // Reuse the installed cache when it is ours (repeated sweeps share
  // memoized points); a foreign hook stays in place untouched — the
  // service then just has no stats window (cache() == nullptr).
  cache_ = std::dynamic_pointer_cast<ResultCache>(ctx.result_cache_shared());
}

SweepReport SweepService::run(const SweepSpec& spec, const CircuitLoader& load,
                              const RecordSink& sink) const {
  spec.ensure_valid();
  if (!load) throw std::invalid_argument("SweepService::run: null loader");

  static const obs::Registry::Counter runs =
      obs::Registry::global().counter("sweep.runs");
  static const obs::Registry::Counter points_total =
      obs::Registry::global().counter("sweep.points");
  runs.add();
  obs::Span span("sweep/run");
  span.arg("jobs", static_cast<double>(spec.n_jobs()));
  const obs::StopWatch watch;

  std::vector<netlist::Netlist> prototypes;
  prototypes.reserve(spec.circuits.size());
  for (const std::string& name : spec.circuits)
    prototypes.push_back(load(name));

  const ResultCache::Stats before =
      cache_ ? cache_->stats() : ResultCache::Stats{};

  SweepReport out;
  out.points.reserve(spec.n_jobs());

  // One constraint group per (policy, vt-policy, temperature, margin,
  // ratio): all circuits of the group fan out across Optimizer::run_many's
  // dynamic work queue. The nesting here IS the record order contract
  // (mirrored exactly by fabric::expand_points — a fleet must shard the
  // same stream a local sweep emits).
  for (const BufferPolicy& policy : spec.policies) {
    for (const std::string& vt_policy : spec.vt_policies) {
      for (const double temperature : spec.temperatures) {
        for (const double margin : spec.shield_margins) {
          api::OptimizerConfig cfg = spec.base;
          cfg.enable_shielding = policy.shielding;
          cfg.allow_restructuring = policy.restructuring;
          cfg.shield_margin = margin;
          cfg.temperature_c = temperature;
          if (vt_policy == "multi-vt") cfg.enable_multi_vt = true;

          api::Optimizer optimizer(*ctx_, cfg);
          if (!spec.pipeline.empty()) {
            // An explicit pipeline replaces standard()'s flag-driven pass
            // selection, so the vt axis appends its pass by name instead.
            std::vector<std::string> passes = spec.pipeline;
            if (vt_policy == "multi-vt" &&
                std::find(passes.begin(), passes.end(), "multi-vt") ==
                    passes.end())
              passes.push_back("multi-vt");
            optimizer.set_pipeline(
                api::PassRegistry::global().make_pipeline(passes));
          }

          for (const double ratio : spec.tc_ratios) {
            std::vector<netlist::Netlist> batch = prototypes;  // deep copies
            std::vector<api::PipelineReport> reports =
                optimizer.run_many_relative(batch, ratio, spec.n_threads);

            for (std::size_t i = 0; i < reports.size(); ++i) {
              SweepPoint point;
              point.circuit = spec.circuits[i];
              point.tc_ratio = ratio;
              point.shield_margin = margin;
              point.temperature_c = temperature;
              point.policy = policy.name;
              point.vt_policy = vt_policy;
              point.report = std::move(reports[i]);
              points_total.add();
              if (sink) sink(point);
              out.points.push_back(std::move(point));
            }
          }
        }
      }
    }
  }

  if (cache_) {
    const ResultCache::Stats after = cache_->stats();
    out.cache_hits = after.hits - before.hits;
    out.cache_misses = after.misses - before.misses;
    out.cache_entries = after.entries;
  }
  out.wall_ms = watch.elapsed_ms();
  return out;
}

}  // namespace pops::service
