// Extension — incremental vs. cold STA round cost.
//
// The Fig. 7 protocol pays one full timing re-verification per sizing
// round; the round touches a handful of gates, so almost all of that work
// re-derives unchanged values. timing::IncrementalSta repropagates only
// the affected fanout/fan-in cones (arrivals, slews, and the K-paths
// downstream bounds), bit-identical to a cold run. This bench measures
// the per-round re-analysis cost — Sta::run() + Sta::downstream_delays()
// cold, vs. IncrementalSta::update() warm — on c432/c880/c1355 across
// dirty-set sizes, which is exactly what ProtocolPass::run_protocol pays
// per round.
//
// A second, structural section measures what the shield pass pays per
// inserted buffer: IncrementalSta::update() plus a slack query after a
// shield-style insertion, against a cold Sta::run() + Sta::slacks(),
// plus the work counters netlist.topo_rebuilds and
// sta.position_renumbers over the updates (both expected 0: fanouts are
// edited in place and a buffer fits the position gap around it).
//
// Emits BENCH_incremental_sta.json for cross-PR perf tracking; the CI
// smoke (scripts/smoke_bench_incremental.sh) asserts incremental <= cold
// for the smallest dirty set and for a structural update.

#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"
#include "pops/obs/metrics.hpp"
#include "pops/timing/incremental_sta.hpp"
#include "pops/util/json.hpp"
#include "pops/util/rng.hpp"

namespace {

using namespace pops;
using namespace bench_common;
using netlist::NodeId;
using timing::IncrementalSta;
using timing::Sta;

constexpr int kReps = 60;

double random_drive(const Netlist& nl, util::Rng& rng) {
  return rng.uniform(nl.lib().wmin_um(), nl.lib().wmax_um());
}

void incremental_sta(util::Json& doc) {
  print_header(
      "Extension — incremental STA for the protocol hot loop",
      "a sizing round's re-verification costs O(changed fanout cone), not "
      "O(E); bit-identical to a cold Sta::run()");

  api::OptContext ctx;
  const timing::DelayModel& dm = ctx.dm();

  util::Table t({"circuit", "gates", "dirty", "cold round (ms)",
                 "incremental (ms)", "speedup"});
  for (std::size_t c = 1; c < 6; ++c) t.set_align(c, util::Align::Right);

  util::Json circuits = util::Json::array();
  double min_speedup_dirty1 = 1e300;

  for (const std::string& name :
       {std::string("c432"), std::string("c880"), std::string("c1355")}) {
    Netlist nl = netlist::make_benchmark(ctx.lib(), name);
    const std::vector<NodeId> gates = nl.gates();
    const Sta sta(nl, dm);
    IncrementalSta inc(nl, dm);
    inc.run_full();
    // Activate bound maintenance (the protocol queries the bounds every
    // round via k_critical_paths), so update() below pays for both the
    // forward and the backward pass — like-for-like with the cold round.
    inc.downstream();

    util::Json rows = util::Json::array();
    for (const std::size_t dirty_size : {1u, 2u, 4u, 8u, 16u}) {
      util::Rng rng(0x5EED0000u + dirty_size);

      // Identical mutation stream for both timings: each rep resizes
      // `dirty_size` random gates, then re-analyzes.
      double inc_ms = 0.0;
      double cold_ms = 0.0;
      double sink = 0.0;
      for (int rep = 0; rep < kReps; ++rep) {
        std::vector<NodeId> dirty;
        dirty.reserve(dirty_size);
        for (std::size_t i = 0; i < dirty_size; ++i) {
          const NodeId g = gates[static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(gates.size()) - 1))];
          nl.set_drive(g, random_drive(nl, rng));
          dirty.push_back(g);
        }
        inc_ms += time_ms([&] { sink += inc.update(dirty).critical_delay_ps; });
        cold_ms += time_ms([&] {
          const timing::StaResult r = sta.run();
          sink += sta.downstream_delays(r)[0] == 0.0 ? 0.0 : r.critical_delay_ps;
        });
      }
      if (sink == 0.0) std::printf(" ");  // keep the analyses observable

      // The exactness guarantee, once per configuration (outside timing).
      inc.check_against_full();

      const double speedup = cold_ms / inc_ms;
      if (dirty_size == 1) min_speedup_dirty1 = std::min(min_speedup_dirty1, speedup);
      t.add_row({name, std::to_string(gates.size()),
                 std::to_string(dirty_size), util::fmt(cold_ms / kReps, 3),
                 util::fmt(inc_ms / kReps, 3), util::fmt(speedup, 1) + "x"});

      util::Json row = util::Json::object();
      row["dirty"] = dirty_size;
      row["cold_round_ms"] = cold_ms / kReps;
      row["incremental_ms"] = inc_ms / kReps;
      row["speedup"] = speedup;
      rows.push_back(std::move(row));
    }

    util::Json entry = util::Json::object();
    entry["circuit"] = name;
    entry["gates"] = gates.size();
    entry["rows"] = std::move(rows);
    circuits.push_back(std::move(entry));
  }

  doc["circuits"] = std::move(circuits);
  doc["reps"] = kReps;
  doc["min_speedup_dirty1"] = min_speedup_dirty1;
  std::printf("%s", t.str().c_str());
  std::printf("(cold round = Sta::run + downstream_delays, what the "
              "protocol paid per round before; smallest dirty-1 speedup "
              "%.1fx)\n",
              min_speedup_dirty1);
}

double counter(const char* name) {
  const util::Json snap = obs::Registry::global().snapshot_json();
  const util::Json* v = snap.find("counters")->find(name);
  return v ? v->as_number() : 0.0;
}

constexpr int kInsertions = 24;

void structural(util::Json& doc) {
  print_header(
      "Extension — incremental STA under buffer insertion",
      "a shield buffer's re-timing costs O(changed cone) with no "
      "topological re-sort, and its slack query an O(N) map");

  api::OptContext ctx;
  const timing::DelayModel& dm = ctx.dm();
  const liberty::Cell& bufc = ctx.lib().cell(liberty::CellKind::Buf);

  util::Table t({"circuit", "buffers", "update (ms)", "cold slacks (ms)",
                 "speedup", "topo rebuilds", "renumbers"});
  for (std::size_t c = 1; c < 7; ++c) t.set_align(c, util::Align::Right);

  util::Json rows = util::Json::array();
  for (const std::string& name :
       {std::string("c432"), std::string("c880"), std::string("c1355")}) {
    Netlist nl = netlist::make_benchmark(ctx.lib(), name);
    IncrementalSta inc(nl, dm);
    inc.run_full();
    const double tc = inc.result().critical_delay_ps;
    (void)inc.slacks(tc);  // materializes the bounds every update maintains
    inc.update({});        // numbers the positions, outside the timing

    util::Rng rng(0x5A1E1D00u);
    double update_ms = 0.0;
    double cold_ms = 0.0;
    double topo_rebuilds = 0.0;
    double renumbers = 0.0;
    double sink = 0.0;
    int inserted = 0;
    for (int rep = 0; rep < kInsertions; ++rep) {
      // The shield pass's edit: a buffer between a multi-sink driver and
      // all of its sinks but one, sized to drive them at fanout 4.
      const std::vector<NodeId> gates = nl.gates();
      NodeId driver = netlist::kNoNode;
      for (int tries = 0; tries < 50 && driver == netlist::kNoNode; ++tries) {
        const NodeId g = gates[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(gates.size()) - 1))];
        if (nl.fanouts(g).size() >= 2) driver = g;
      }
      if (driver == netlist::kNoNode) break;
      const std::vector<NodeId> sinks = nl.fanouts(driver);
      const std::vector<NodeId> moved(sinks.begin() + 1, sinks.end());
      const NodeId buf = nl.insert_buffer(
          driver, liberty::CellKind::Buf,
          nl.fresh_name(nl.node(driver).name + "_sh"), moved);
      nl.set_drive(buf,
                   bufc.wn_for_cin(nl.lib().tech(), nl.load_ff(buf) / 4.0));
      std::vector<NodeId> dirty = moved;
      dirty.push_back(driver);
      dirty.push_back(buf);

      const double topo0 = counter("netlist.topo_rebuilds");
      const double renum0 = counter("sta.position_renumbers");
      update_ms += time_ms([&] {
        sink += inc.update(dirty).critical_delay_ps;
        sink += inc.slacks(tc)[static_cast<std::size_t>(buf)];
      });
      topo_rebuilds += counter("netlist.topo_rebuilds") - topo0;
      renumbers += counter("sta.position_renumbers") - renum0;
      cold_ms += time_ms([&] {
        const Sta sta(nl, dm);
        const timing::StaResult r = sta.run();
        sink += sta.slacks(r, tc)[static_cast<std::size_t>(buf)];
      });
      ++inserted;
    }
    if (sink == 0.0) std::printf(" ");  // keep the analyses observable
    inc.check_against_full();  // exactness, outside the timing

    const double per_update = update_ms / inserted;
    const double per_cold = cold_ms / inserted;
    t.add_row({name, std::to_string(inserted), util::fmt(per_update, 4),
               util::fmt(per_cold, 4),
               util::fmt(per_cold / per_update, 1) + "x",
               util::fmt(topo_rebuilds, 0), util::fmt(renumbers, 0)});

    util::Json row = util::Json::object();
    row["circuit"] = name;
    row["buffers"] = inserted;
    row["update_ms"] = per_update;
    row["cold_slack_ms"] = per_cold;
    row["topo_rebuilds"] = topo_rebuilds;
    row["position_renumbers"] = renumbers;
    rows.push_back(std::move(row));
  }
  doc["structural"] = std::move(rows);
  std::printf("%s", t.str().c_str());
  std::printf("(update = IncrementalSta::update + slacks() after one "
              "shield buffer; cold = Sta::run + Sta::slacks; counters summed "
              "over the updates)\n");
}

}  // namespace

int main(int argc, char** argv) {
  util::Json doc = util::Json::object();
  doc["bench"] = "incremental_sta";
  incremental_sta(doc);
  structural(doc);

  return bench_common::write_bench_json(argc, argv, "incremental_sta", doc);
}
