// Extension — power-backend evaluation cost, activity-simulation cost and
// multi-Vt leakage recovery.
//
// Three questions the polymorphic power backends raise. First, cost: the
// state-dependent model walks every gate's Vt class, series stacks, and
// state probabilities where the proxy just scales ΣW — how much slower is
// one evaluation? (Both are called once per pipeline run, so this bounds
// the per-point overhead of `--power-model state`.) Second, what does the
// switching-activity simulation feeding both backends cost per gate and
// vector on the 64-lane word kernel? Third, payoff: how
// much leakage does the slack-driven MultiVtPass actually recover on a
// real circuit, at a tight (1.0x initial delay) and a relaxed (1.25x)
// constraint — with every point still meeting Tc?
//
// Emits BENCH_power.json for cross-PR perf tracking; the CI smoke
// (scripts/smoke_power.sh) checks the sweep-level contract separately.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"
#include "pops/netlist/logic_sim.hpp"
#include "pops/power/power_model.hpp"
#include "pops/service/sweep.hpp"
#include "pops/util/rng.hpp"

namespace {

using namespace pops;
using namespace bench_common;

constexpr int kReps = 200;

void eval_cost(util::Json& doc) {
  print_header(
      "Extension — power backend evaluation cost",
      "the state-dependent model's per-gate Vt/stack/state walk vs. the "
      "proxy's flat ΣW scaling, per evaluation");

  api::OptContext ctx;
  const power::ProxyModel proxy(ctx.lib());
  const power::StateDependentModel state(ctx.lib());

  util::Table t({"circuit", "gates", "proxy (us)", "state (us)", "ratio"});
  for (std::size_t c = 1; c < 5; ++c) t.set_align(c, util::Align::Right);

  util::Json circuits = util::Json::array();
  for (const std::string& name :
       {std::string("c432"), std::string("c880"), std::string("c1355")}) {
    const Netlist nl = netlist::make_benchmark(ctx.lib(), name);
    util::Rng rng(0xB0B);
    // Activities are computed once outside the timed region: both
    // backends consume the same report, so the timings isolate the
    // evaluation itself.
    const netlist::ActivityReport activity =
        netlist::estimate_activity(nl, rng, 512);

    double proxy_ms = 0.0;
    double state_ms = 0.0;
    double sink = 0.0;
    for (int rep = 0; rep < kReps; ++rep) {
      proxy_ms += time_ms(
          [&] { sink += proxy.evaluate(nl, activity, 100.0).total_uw; });
      state_ms += time_ms(
          [&] { sink += state.evaluate(nl, activity, 100.0).total_uw; });
    }
    if (sink == 0.0) std::printf(" ");  // keep the evaluations observable

    const double proxy_us = proxy_ms / kReps * 1e3;
    const double state_us = state_ms / kReps * 1e3;
    t.add_row({name, std::to_string(nl.gates().size()),
               util::fmt(proxy_us, 2), util::fmt(state_us, 2),
               util::fmt(state_us / proxy_us, 1) + "x"});

    util::Json entry = util::Json::object();
    entry["circuit"] = name;
    entry["gates"] = nl.gates().size();
    entry["proxy_us"] = proxy_us;
    entry["state_us"] = state_us;
    circuits.push_back(std::move(entry));
  }
  doc["eval_cost"] = std::move(circuits);
  doc["reps"] = kReps;
  std::printf("%s\n", t.str().c_str());
}

void activity_cost(util::Json& doc) {
  print_header(
      "Extension — switching-activity simulation cost",
      "the 64-lane word kernel behind every power report: 512 random "
      "vectors (the pipeline's count), ms per simulation and ns per "
      "gate x vector");

  constexpr int kVectors = 512;
  constexpr int kActivityReps = 21;
  api::OptContext ctx;
  util::Table t({"circuit", "gates", "ms", "ns / gate*vec"});
  for (std::size_t c = 1; c < 4; ++c) t.set_align(c, util::Align::Right);

  util::Json circuits = util::Json::array();
  for (const char* const name :
       {"c432", "c499", "c880", "c1355", "c1908", "c3540", "c5315", "c6288",
        "c7552"}) {
    const Netlist nl = netlist::make_benchmark(ctx.lib(), name);
    std::vector<double> ms;
    double sink = 0.0;
    for (int rep = 0; rep < kActivityReps; ++rep) {
      util::Rng rng(0xAC7);  // same vectors every rep
      ms.push_back(time_ms([&] {
        sink += netlist::estimate_activity(nl, rng, kVectors)
                    .switched_cap_ff_per_vec;
      }));
    }
    if (sink == 0.0) std::printf(" ");  // keep the simulations observable
    std::sort(ms.begin(), ms.end());
    const double median_ms = ms[ms.size() / 2];
    const std::size_t gates = nl.gates().size();
    const double ns_per_gate_vec =
        median_ms * 1e6 / (static_cast<double>(gates) * kVectors);
    t.add_row({name, std::to_string(gates), util::fmt(median_ms, 3),
               util::fmt(ns_per_gate_vec, 3)});

    util::Json entry = util::Json::object();
    entry["circuit"] = name;
    entry["gates"] = gates;
    entry["vectors"] = kVectors;
    entry["median_ms"] = median_ms;
    entry["ns_per_gate_vector"] = ns_per_gate_vec;
    circuits.push_back(std::move(entry));
  }
  util::Json section = util::Json::object();
  section["reps"] = kActivityReps;
  section["circuits"] = std::move(circuits);
  doc["activity_cost"] = std::move(section);
  std::printf("%s\n", t.str().c_str());
}

void multi_vt_recovery(util::Json& doc) {
  print_header(
      "Extension — leakage recovered by the multi-Vt pass",
      "high-Vt implants on positive-slack cones cut sub-threshold leakage "
      "while every sweep point keeps meeting its Tc");

  api::OptContext ctx;
  service::SweepService sweeps(ctx, /*use_cache=*/false);

  service::SweepSpec spec;
  spec.circuits = {"c880"};
  spec.tc_ratios = {1.0, 1.25};
  spec.vt_policies = {"none", "multi-vt"};
  spec.base.power_model = "state";
  spec.n_threads = 1;

  const service::SweepReport rep = sweeps.run(
      spec, [&ctx](const std::string& name) {
        return netlist::make_benchmark(ctx.lib(), name);
      });

  util::Table t({"Tc ratio", "leak (uW)", "multi-vt leak (uW)",
                 "recovered", "high-Vt cells", "met"});
  for (std::size_t c = 1; c < 5; ++c) t.set_align(c, util::Align::Right);

  util::Json rows = util::Json::array();
  // Record order: vt_policy nests outside the ratio axis, so the single-
  // circuit grid lands as (none@1.0, none@1.25, multi-vt@1.0,
  // multi-vt@1.25).
  for (std::size_t i = 0; i < spec.tc_ratios.size(); ++i) {
    const service::SweepPoint& base = rep.points[i];
    const service::SweepPoint& mvt = rep.points[i + spec.tc_ratios.size()];
    const double before = base.report.power.leakage_uw;
    const double after = mvt.report.power.leakage_uw;
    const bool met = base.report.met && mvt.report.met;
    t.add_row({util::fmt(base.tc_ratio, 2), util::fmt(before, 4),
               util::fmt(after, 4),
               util::fmt((before - after) / before * 100.0, 1) + "%",
               std::to_string(mvt.report.total_cells_high_vt()),
               met ? "yes" : "NO"});

    util::Json row = util::Json::object();
    row["tc_ratio"] = base.tc_ratio;
    row["leakage_uw"] = before;
    row["multi_vt_leakage_uw"] = after;
    row["recovered_frac"] = (before - after) / before;
    row["cells_high_vt"] = mvt.report.total_cells_high_vt();
    row["met"] = met;
    rows.push_back(std::move(row));
  }
  doc["multi_vt_recovery"] = std::move(rows);
  std::printf("%s\n", t.str().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  util::Json doc = util::Json::object();
  doc["bench"] = "power";
  eval_cost(doc);
  activity_cost(doc);
  multi_vt_recovery(doc);

  return bench_common::write_bench_json(argc, argv, "power", doc);
}
