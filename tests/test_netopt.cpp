// Tests for the netlist-level optimisation passes: inverter-pair
// cancellation, dead-logic sweeping and circuit-wide fanout shielding —
// all with functional-equivalence guarantees.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "pops/core/netopt.hpp"
#include "pops/core/restructure.hpp"
#include "pops/liberty/library.hpp"
#include "pops/netlist/benchmarks.hpp"
#include "pops/netlist/logic_sim.hpp"
#include "pops/obs/trace.hpp"
#include "pops/process/technology.hpp"
#include "pops/timing/sta.hpp"
#include "pops/timing/table_model.hpp"
#include "pops/util/rng.hpp"

namespace {

using namespace pops;
using namespace pops::netlist;
using liberty::CellKind;
using liberty::Library;
using process::Technology;
using util::Rng;

class NetoptTest : public ::testing::Test {
 protected:
  Library lib{Technology::cmos025()};
  timing::ClosedFormModel dm{lib};
};

TEST_F(NetoptTest, CancelSimpleInverterPair) {
  Netlist nl(lib);
  const NodeId a = nl.add_input("a");
  const NodeId i1 = nl.add_gate(CellKind::Inv, "i1", {a});
  const NodeId i2 = nl.add_gate(CellKind::Inv, "i2", {i1});
  const NodeId g = nl.add_gate(CellKind::Nand2, "g", {i2, a});
  nl.mark_output(g, 5.0);

  const std::size_t rewired = core::cancel_inverter_pairs(nl);
  EXPECT_EQ(rewired, 1u);
  // g now reads a directly.
  EXPECT_EQ(nl.node(g).fanins[0], a);
  // The bypassed pair is dead; sweeping removes it.
  const Netlist swept = core::sweep_dead(nl);
  EXPECT_EQ(swept.stats().n_gates, 1u);
  Rng rng(1);
  Netlist reference(lib);
  {
    const NodeId ra = reference.add_input("a");
    const NodeId rg = reference.add_gate(CellKind::Nand2, "g", {ra, ra});
    (void)rg;
    reference.mark_output(rg, 5.0);
  }
  EXPECT_TRUE(equivalent(reference, swept, rng));
}

TEST_F(NetoptTest, NeverBypassesPrimaryOutputGate) {
  Netlist nl(lib);
  const NodeId a = nl.add_input("a");
  const NodeId i1 = nl.add_gate(CellKind::Inv, "i1", {a});
  const NodeId i2 = nl.add_gate(CellKind::Inv, "i2", {i1});
  nl.mark_output(i2, 5.0);  // i2 IS the output: it must survive

  core::cancel_inverter_pairs(nl);
  const Netlist swept = core::sweep_dead(nl);
  EXPECT_NE(swept.find("i2"), kNoNode);
  EXPECT_TRUE(swept.node(swept.find("i2")).is_output);
  Rng rng(2);
  EXPECT_TRUE(equivalent(nl, swept, rng));
}

TEST_F(NetoptTest, CancellationAfterDeMorganRoundTrip) {
  // NOR -> NAND rewrite inserts inverters; a following NOR of the INV
  // output... build INV feeding the NOR so the rewrite creates an
  // INV(INV(x)) pair, then cancel and sweep: function intact.
  Netlist nl(lib);
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId inv_a = nl.add_gate(CellKind::Inv, "inv_a", {a});
  const NodeId nor = nl.add_gate(CellKind::Nor2, "nor", {inv_a, b});
  nl.mark_output(nor, 5.0);

  Netlist rewritten = nl;
  core::demorgan_nor_to_nand(rewritten, rewritten.find("nor"));
  const std::size_t rewired = core::cancel_inverter_pairs(rewritten);
  EXPECT_GE(rewired, 1u);  // the a-side pair collapses
  const Netlist swept = core::sweep_dead(rewritten);
  Rng rng(3);
  EXPECT_TRUE(equivalent(nl, swept, rng));
  // The pair really is gone: fewer gates than the raw rewrite.
  EXPECT_LT(swept.stats().n_gates, rewritten.stats().n_gates);
}

TEST_F(NetoptTest, SweepKeepsAllPis) {
  Netlist nl(lib);
  nl.add_input("used");
  nl.add_input("unused");
  const NodeId g = nl.add_gate(CellKind::Inv, "g", {nl.find("used")});
  nl.mark_output(g, 1.0);
  const Netlist swept = core::sweep_dead(nl);
  EXPECT_EQ(swept.inputs().size(), 2u);
}

TEST_F(NetoptTest, SweepPreservesSizesAndLoads) {
  Netlist nl(lib);
  const NodeId a = nl.add_input("a");
  const NodeId g = nl.add_gate(CellKind::Inv, "g", {a});
  nl.set_drive(g, 3.3);
  nl.set_wire_cap(g, 7.5);
  nl.mark_output(g, 11.0);
  const Netlist swept = core::sweep_dead(nl);
  const NodeId g2 = swept.find("g");
  EXPECT_DOUBLE_EQ(swept.node(g2).wn_um, 3.3);
  EXPECT_DOUBLE_EQ(swept.node(g2).wire_cap_ff, 7.5);
  EXPECT_DOUBLE_EQ(swept.node(g2).po_load_ff, 11.0);
}

TEST_F(NetoptTest, SweepIsIdempotentOnCleanCircuits) {
  const Netlist nl = make_c17(lib);
  const Netlist swept = core::sweep_dead(nl);
  EXPECT_EQ(swept.stats().n_gates, nl.stats().n_gates);
  Rng rng(4);
  EXPECT_TRUE(equivalent(nl, swept, rng));
}

TEST_F(NetoptTest, ShieldingImprovesOverloadedCircuit) {
  // A driver with one critical sink chain and many parasitic sinks.
  Netlist nl(lib);
  const NodeId a = nl.add_input("a");
  const NodeId hub = nl.add_gate(CellKind::Inv, "hub", {a});
  // Critical chain.
  NodeId prev = hub;
  for (int i = 0; i < 4; ++i)
    prev = nl.add_gate(CellKind::Inv, "chain" + std::to_string(i), {prev});
  nl.mark_output(prev, 20.0);
  // Parasitic fanout.
  for (int i = 0; i < 14; ++i) {
    const NodeId s = nl.add_gate(CellKind::Inv, "leaf" + std::to_string(i), {hub});
    nl.mark_output(s, 2.0);
  }
  nl.validate();
  Netlist original = nl;

  core::FlimitTable table;
  const core::ShieldReport report =
      core::shield_high_fanout_nets(nl, dm, table);
  EXPECT_GE(report.buffers_inserted, 1u);
  EXPECT_LT(report.delay_after_ps, report.delay_before_ps);
  EXPECT_GT(report.area_added_um, 0.0);
  nl.validate();
  Rng rng(5);
  EXPECT_TRUE(equivalent(original, nl, rng));
}

TEST_F(NetoptTest, ShieldingRespectsBudget) {
  Netlist nl = make_benchmark(lib, "c880");
  core::FlimitTable table;
  core::ShieldOptions opt;
  opt.max_buffers = 2;
  const core::ShieldReport report =
      core::shield_high_fanout_nets(nl, dm, table, opt);
  EXPECT_LE(report.buffers_inserted, 2u);
}

TEST_F(NetoptTest, ShieldingPreservesFunctionOnBenchmarks) {
  for (const char* name : {"c432", "fpd"}) {
    Netlist nl = make_benchmark(lib, name);
    Netlist original = nl;
    core::FlimitTable table;
    core::shield_high_fanout_nets(nl, dm, table);
    nl.validate();
    Rng rng(6);
    EXPECT_TRUE(equivalent(original, nl, rng, 128)) << name;
  }
}

// ----- regression: incremental shield == historical full-sweep shield ---------

// The historical shield (pre incremental-STA sharing) re-ran a cold
// Sta::run() for every candidate net and read slacks against the
// *current* critical delay. The rewritten pass keeps one IncrementalSta
// and queries its slacks against the same current critical delay, so the
// two must pick identical sinks on every net and the edited netlists and
// reports must agree bit for bit.
core::ShieldReport reference_shield(Netlist& nl, const timing::DelayModel& dm,
                                    core::FlimitTable& table,
                                    const core::ShieldOptions& opt) {
  core::ShieldReport report;
  {
    const timing::Sta sta(nl, dm);
    report.delay_before_ps = sta.run().critical_delay_ps;
  }

  struct Candidate {
    NodeId net;
    double overload;
  };
  std::vector<Candidate> candidates;
  for (NodeId g : nl.gates()) {
    if (nl.node(g).kind == CellKind::Buf) continue;
    const auto& sinks = nl.fanouts(g);
    if (sinks.size() < 2) continue;
    double limit = std::numeric_limits<double>::infinity();
    for (NodeId s : sinks)
      limit = std::min(limit, table.get(dm, nl.node(g).kind, nl.node(s).kind));
    const double f = nl.load_ff(g) / nl.cin_ff(g);
    if (f > opt.margin * limit) candidates.push_back({g, f / limit});
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.overload > b.overload;
            });

  const double area_before = nl.total_width_um();
  for (const Candidate& cand : candidates) {
    if (report.buffers_inserted >= opt.max_buffers) break;
    const NodeId g = cand.net;

    // The historical full sweep: cold run per candidate, slacks at the
    // current critical delay.
    const timing::Sta cold(nl, dm);
    const timing::StaResult res = cold.run();
    const std::vector<double> slack = cold.slacks(res, res.critical_delay_ps);

    const std::vector<NodeId> sinks = nl.fanouts(g);
    if (sinks.size() < 2) continue;
    NodeId keep = sinks.front();
    for (NodeId s : sinks)
      if (slack[static_cast<std::size_t>(s)] <
          slack[static_cast<std::size_t>(keep)])
        keep = s;

    std::vector<NodeId> moved;
    for (NodeId s : sinks)
      if (s != keep) moved.push_back(s);
    if (moved.empty()) continue;

    const NodeId buf = nl.insert_buffer(g, CellKind::Buf,
                                        nl.fresh_name(nl.node(g).name + "_sh"),
                                        moved);
    const liberty::Cell& bufc = nl.lib().cell(CellKind::Buf);
    const double load = nl.load_ff(buf);
    nl.set_drive(buf, bufc.wn_for_cin(nl.lib().tech(),
                                      load / opt.shield_fanout));
    ++report.buffers_inserted;
  }

  {
    const timing::Sta sta(nl, dm);
    report.delay_after_ps = sta.run().critical_delay_ps;
  }
  report.area_added_um = nl.total_width_um() - area_before;
  return report;
}

void expect_netlists_identical(const Netlist& a, const Netlist& b,
                               const char* when) {
  ASSERT_EQ(a.size(), b.size()) << when;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const Node& na = a.node(static_cast<NodeId>(i));
    const Node& nb = b.node(static_cast<NodeId>(i));
    EXPECT_EQ(na.name, nb.name) << when << ": node " << i;
    EXPECT_EQ(na.kind, nb.kind) << when << ": node " << i;
    EXPECT_EQ(na.is_input, nb.is_input) << when << ": node " << i;
    EXPECT_EQ(na.is_output, nb.is_output) << when << ": node " << i;
    EXPECT_EQ(na.fanins, nb.fanins) << when << ": node " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(na.wn_um),
              std::bit_cast<std::uint64_t>(nb.wn_um))
        << when << ": node " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(na.po_load_ff),
              std::bit_cast<std::uint64_t>(nb.po_load_ff))
        << when << ": node " << i;
  }
}

TEST_F(NetoptTest, ShieldMatchesHistoricalFullSweepBitwise) {
  const timing::TableModel tm = timing::TableModel::characterize(dm);
  const timing::DelayModel* backends[] = {&dm, &tm};
  const char* backend_names[] = {"closed-form", "table"};
  for (const char* name : {"c17", "c432", "c880", "c1355"}) {
    for (std::size_t b = 0; b < 2; ++b) {
      SCOPED_TRACE(std::string(name) + " / " + backend_names[b]);
      const core::ShieldOptions opt;
      Netlist incr_nl = make_benchmark(lib, name);
      core::FlimitTable incr_table;
      const core::ShieldReport incr =
          core::shield_high_fanout_nets(incr_nl, *backends[b], incr_table, opt);

      Netlist ref_nl = make_benchmark(lib, name);
      core::FlimitTable ref_table;
      const core::ShieldReport ref =
          reference_shield(ref_nl, *backends[b], ref_table, opt);

      EXPECT_EQ(incr.buffers_inserted, ref.buffers_inserted);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(incr.delay_before_ps),
                std::bit_cast<std::uint64_t>(ref.delay_before_ps));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(incr.delay_after_ps),
                std::bit_cast<std::uint64_t>(ref.delay_after_ps));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(incr.area_added_um),
                std::bit_cast<std::uint64_t>(ref.area_added_um));
      expect_netlists_identical(incr_nl, ref_nl, name);
      if (HasFatalFailure()) return;
    }
  }
}

// Timing work of the shield pass: one cold run, then one incremental
// update per inserted buffer, and each candidate's slack query is a map
// over the maintained state — never a backward repair. Checked on two
// netlists: two overloaded hubs off the critical path (a long chain
// dominates, so no insertion moves the critical delay), and two hubs on
// it (every insertion moves the critical delay).
Netlist hub_netlist(const Library& lib, bool hubs_critical) {
  Netlist nl(lib);
  NodeId prev = nl.add_input("a");
  auto chain = [&](const std::string& tag, int len) {
    for (int i = 0; i < len; ++i)
      prev = nl.add_gate(CellKind::Inv, tag + std::to_string(i), {prev});
  };
  if (!hubs_critical) {
    chain("chain", 16);
    nl.mark_output(prev, 120.0);  // the chain owns the critical path
  }
  for (int h = 0; h < 2; ++h) {
    const std::string tag = "hub" + std::to_string(h);
    const NodeId hub = nl.add_gate(
        CellKind::Inv, tag,
        {hubs_critical ? prev : nl.add_input("h" + std::to_string(h))});
    for (int i = 0; i < 14; ++i) {
      const NodeId leaf = nl.add_gate(
          CellKind::Inv, "leaf" + std::to_string(h) + "_" + std::to_string(i),
          {hub});
      nl.mark_output(leaf, 1.0);
    }
    if (hubs_critical) {
      prev = hub;
      chain(tag + "_chain", 4);  // the critical path runs on through it
    }
  }
  if (hubs_critical) nl.mark_output(prev, 120.0);
  nl.validate();
  return nl;
}

TEST_F(NetoptTest, ShieldRunsOneFullStaThenOneUpdatePerBuffer) {
  for (const bool hubs_critical : {false, true}) {
    SCOPED_TRACE(hubs_critical ? "hubs on the critical path"
                               : "hubs off the critical path");
    Netlist nl = hub_netlist(lib, hubs_critical);
    obs::TraceRecorder& rec = obs::TraceRecorder::global();
    rec.start();
    core::FlimitTable table;
    const core::ShieldReport report =
        core::shield_high_fanout_nets(nl, dm, table);
    rec.stop();

    ASSERT_EQ(report.buffers_inserted, 2u);
    if (hubs_critical) {
      // Each insertion moves the critical delay: one buffer alone already
      // lands between the start and the end of the two-buffer pass.
      Netlist one = hub_netlist(lib, true);
      core::ShieldOptions opt;
      opt.max_buffers = 1;
      core::FlimitTable one_table;
      const core::ShieldReport first =
          core::shield_high_fanout_nets(one, dm, one_table, opt);
      ASSERT_EQ(first.buffers_inserted, 1u);
      EXPECT_NE(first.delay_after_ps, report.delay_before_ps);
      EXPECT_NE(first.delay_after_ps, report.delay_after_ps);
    } else {
      EXPECT_EQ(report.delay_after_ps, report.delay_before_ps);
    }

    std::size_t full = 0, update = 0, slack_full = 0, slack_update = 0;
    for (const util::Json& r : rec.jsonl_records()) {
      const std::string& name = r.find("name")->as_string();
      if (name == "sta/full") ++full;
      if (name == "sta/update") ++update;
      if (name == "sta/slack_full") ++slack_full;
      if (name == "sta/slack_update") ++slack_update;
    }
    EXPECT_EQ(full, 1u);
    EXPECT_EQ(update, report.buffers_inserted);
    EXPECT_EQ(slack_full, report.buffers_inserted);  // one query per hub
    EXPECT_EQ(slack_update, 0u);
  }
}

TEST_F(NetoptTest, QuietCircuitUnchanged) {
  // A chain has fanout 1 everywhere: no candidates.
  Netlist nl = make_chain(lib, {CellKind::Inv, CellKind::Inv, CellKind::Inv},
                          6.0, "quiet");
  core::FlimitTable table;
  const core::ShieldReport report =
      core::shield_high_fanout_nets(nl, dm, table);
  EXPECT_EQ(report.buffers_inserted, 0u);
  EXPECT_DOUBLE_EQ(report.delay_after_ps, report.delay_before_ps);
}

}  // namespace
