// Tests for the static timing analysis: arrival propagation against
// hand-stitched chains, critical-path extraction, K-path enumeration and
// slack computation.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "pops/liberty/library.hpp"
#include "pops/netlist/benchmarks.hpp"
#include "pops/netlist/netlist.hpp"
#include "pops/process/technology.hpp"
#include "pops/timing/incremental_sta.hpp"
#include "pops/timing/sta.hpp"
#include "pops/timing/table_model.hpp"
#include "pops/util/rng.hpp"

namespace {

using namespace pops::timing;
using namespace pops::netlist;
using pops::liberty::CellKind;
using pops::liberty::Library;
using pops::process::Technology;

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

class StaTest : public ::testing::Test {
 protected:
  Library lib{Technology::cmos025()};
  ClosedFormModel dm{lib};
};

TEST_F(StaTest, SingleInverterMatchesHandComputation) {
  Netlist nl(lib);
  const NodeId a = nl.add_input("a");
  const NodeId g = nl.add_gate(CellKind::Inv, "g", {a});
  nl.mark_output(g, 15.0);

  StaOptions opt;
  opt.pi_slew_ps = 40.0;
  const Sta sta(nl, dm, opt);
  const StaResult r = sta.run();

  const auto& inv = lib.cell(CellKind::Inv);
  const double load = 15.0 + nl.cpar_ff(g);
  for (Edge e : {Edge::Rise, Edge::Fall}) {
    const double expect = dm.delay_ps(inv, e, 40.0, nl.cin_ff(g), load);
    EXPECT_NEAR(r.arrival(g, e), expect, 1e-9) << to_string(e);
    EXPECT_NEAR(r.slew(g, e), dm.transition_ps(inv, e, nl.cin_ff(g), load),
                1e-9);
  }
}

TEST_F(StaTest, ChainArrivalAccumulates) {
  Netlist nl(lib);
  const NodeId a = nl.add_input("a");
  const NodeId g1 = nl.add_gate(CellKind::Inv, "g1", {a});
  const NodeId g2 = nl.add_gate(CellKind::Inv, "g2", {g1});
  nl.mark_output(g2, 10.0);
  const Sta sta(nl, dm);
  const StaResult r = sta.run();

  // g2's rise is caused by g1's fall (inverting), so:
  const double d2 = dm.delay_ps(lib.cell(CellKind::Inv), Edge::Rise,
                                r.slew(g1, Edge::Fall), nl.cin_ff(g2),
                                nl.load_ff(g2) + nl.cpar_ff(g2));
  EXPECT_NEAR(r.arrival(g2, Edge::Rise), r.arrival(g1, Edge::Fall) + d2, 1e-9);
}

TEST_F(StaTest, CriticalPathTracksWorstBranch) {
  // Two parallel branches: a slow NOR3 branch and a fast INV branch
  // converging on a NAND2; the critical path must use the slow branch.
  Netlist nl(lib);
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId c = nl.add_input("c");
  const NodeId slow1 = nl.add_gate(CellKind::Nor3, "slow1", {a, b, c});
  const NodeId slow2 = nl.add_gate(CellKind::Nor3, "slow2", {slow1, b, c});
  const NodeId fast = nl.add_gate(CellKind::Inv, "fast", {a});
  const NodeId join = nl.add_gate(CellKind::Nand2, "join", {slow2, fast});
  nl.mark_output(join, 20.0);

  const Sta sta(nl, dm);
  const StaResult r = sta.run();
  const TimedPath path = sta.critical_path(r);

  ASSERT_GE(path.points.size(), 3u);
  EXPECT_EQ(path.points.back().node, join);
  // The path must route through the NOR3 chain, not the inverter.
  bool through_slow = false;
  for (const PathPoint& p : path.points)
    if (p.node == slow2) through_slow = true;
  EXPECT_TRUE(through_slow);
  EXPECT_NEAR(path.delay_ps, r.critical_delay_ps, 1e-9);
}

TEST_F(StaTest, KPathsAreSortedAndDistinct) {
  const Netlist nl = make_benchmark(lib, "c432");
  const Sta sta(nl, dm);
  const StaResult r = sta.run();
  const auto paths = sta.k_critical_paths(r, 12);
  ASSERT_GE(paths.size(), 2u);
  for (std::size_t i = 1; i < paths.size(); ++i)
    EXPECT_LE(paths[i].delay_ps, paths[i - 1].delay_ps + 1e-9);
  // The first enumerated path is the critical one.
  EXPECT_NEAR(paths.front().delay_ps, r.critical_delay_ps,
              1e-6 * r.critical_delay_ps);
  // Distinct point sequences.
  for (std::size_t i = 1; i < paths.size(); ++i) {
    const bool same = paths[i].points.size() == paths[0].points.size() &&
                      std::equal(paths[i].points.begin(), paths[i].points.end(),
                                 paths[0].points.begin());
    EXPECT_FALSE(same) << "path " << i << " duplicates path 0";
  }
}

TEST_F(StaTest, KPathsOnChainIsJustOnePerEdge) {
  const Netlist nl =
      make_chain(lib, {CellKind::Inv, CellKind::Inv, CellKind::Inv}, 8.0);
  const Sta sta(nl, dm);
  const auto paths = sta.k_critical_paths(sta.run(), 10);
  // One PI, two launch edges -> exactly two PI->PO paths.
  EXPECT_EQ(paths.size(), 2u);
}

TEST_F(StaTest, SlackSignMatchesConstraint) {
  const Netlist nl = make_benchmark(lib, "c17");
  const Sta sta(nl, dm);
  const StaResult r = sta.run();

  const auto slack_tight = sta.slacks(r, r.critical_delay_ps * 0.5);
  const auto slack_loose = sta.slacks(r, r.critical_delay_ps * 2.0);
  // Under the tight constraint at least the critical endpoint is negative.
  const auto po = static_cast<std::size_t>(r.critical_endpoint.node);
  EXPECT_LT(slack_tight[po], 0.0);
  EXPECT_GT(slack_loose[po], 0.0);
}

TEST_F(StaTest, ExactConstraintGivesZeroSlackOnCriticalPath) {
  const Netlist nl = make_benchmark(lib, "c17");
  const Sta sta(nl, dm);
  const StaResult r = sta.run();
  const auto slack = sta.slacks(r, r.critical_delay_ps);
  const auto po = static_cast<std::size_t>(r.critical_endpoint.node);
  EXPECT_NEAR(slack[po], 0.0, 1e-9);
  // And no slack anywhere is more negative than the critical one.
  for (double s : slack) EXPECT_GE(s, -1e-9);
}

TEST_F(StaTest, XorPropagatesBothInputEdges) {
  Netlist nl(lib);
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId x = nl.add_gate(CellKind::Xor2, "x", {a, b});
  nl.mark_output(x, 5.0);
  const Sta sta(nl, dm);
  const StaResult r = sta.run();
  // Both output edges are reachable.
  EXPECT_GT(r.arrival(x, Edge::Rise), 0.0);
  EXPECT_GT(r.arrival(x, Edge::Fall), 0.0);
}

TEST_F(StaTest, LargerDriveSpeedsUpCircuit) {
  Netlist nl = make_benchmark(lib, "c880");
  const Sta sta(nl, dm);
  const double before = sta.run().critical_delay_ps;
  for (NodeId g : nl.gates()) nl.set_drive(g, 3.0 * lib.wmin_um());
  const double after = sta.run().critical_delay_ps;
  EXPECT_LT(after, before);
}

// The one slack definition: required(n,e) = tc - down(n,e), so
// slack(n) = min over reachable edges of ((tc - down) - arrival), bit for
// bit — for a cold analysis and for the incremental engine after resizes
// (whose debug build self-checks every update against a cold run).
TEST_F(StaTest, SlackIsTcMinusDownstreamMinusArrivalBitwise) {
  Netlist nl = make_benchmark(lib, "c432");
  IncrementalSta inc(nl, dm);
  inc.run_full();
  pops::util::Rng rng(0x5ACCu);
  const std::vector<NodeId> gates = nl.gates();
  for (int step = 0; step < 4; ++step) {
    SCOPED_TRACE(step);
    const Sta sta(nl, dm);
    const StaResult r = sta.run();
    const std::vector<double> down = sta.downstream_delays(r);
    const double tc = r.critical_delay_ps * 0.9;
    const auto slack = sta.slacks(r, tc);
    const auto& inc_slack = inc.slacks(tc);
    ASSERT_EQ(slack.size(), nl.size());
    ASSERT_EQ(inc_slack.size(), nl.size());
    for (std::size_t i = 0; i < nl.size(); ++i) {
      double want = std::numeric_limits<double>::infinity();
      for (std::size_t e = 0; e < 2; ++e)
        if (r.arrival_ps[i][e] != -std::numeric_limits<double>::infinity())
          want = std::min(want, (tc - down[2 * i + e]) - r.arrival_ps[i][e]);
      ASSERT_TRUE(same_bits(slack[i], want)) << "node " << i;
      ASSERT_TRUE(same_bits(inc_slack[i], want)) << "node " << i;
    }
    const NodeId g = gates[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(gates.size()) - 1))];
    nl.set_drive(g, rng.uniform(lib.wmin_um(), 4.0 * lib.wmin_um()));
    const std::vector<NodeId> dirty{g};
    inc.update(dirty);
  }
}

TEST_F(StaTest, FanoutFreePoSlackIsTcMinusWorstArrival) {
  const Netlist nl = make_benchmark(lib, "c17");
  const Sta sta(nl, dm);
  const StaResult r = sta.run();
  const double tc = r.critical_delay_ps * 1.1;
  const auto slack = sta.slacks(r, tc);
  std::size_t checked = 0;
  for (NodeId po : nl.outputs()) {
    if (!nl.fanouts(po).empty()) continue;
    const double worst =
        std::max(r.arrival(po, Edge::Rise), r.arrival(po, Edge::Fall));
    EXPECT_TRUE(same_bits(slack[static_cast<std::size_t>(po)], tc - worst))
        << nl.node(po).name;
    ++checked;
  }
  EXPECT_EQ(checked, nl.outputs().size());  // c17's POs drive nothing
}

TEST_F(StaTest, SlacksShiftWithTc) {
  const Netlist nl = make_benchmark(lib, "c432");
  const Sta sta(nl, dm);
  const StaResult r = sta.run();
  const double tc = r.critical_delay_ps;
  const double shift = 37.5;
  const auto base = sta.slacks(r, tc);
  const auto moved = sta.slacks(r, tc + shift);
  // slack = (tc - down) - arrival, so a tc shift moves every finite slack
  // by the same amount.
  ASSERT_EQ(moved.size(), base.size());
  std::size_t finite = 0;
  for (std::size_t i = 0; i < base.size(); ++i) {
    if (!std::isfinite(base[i])) continue;
    EXPECT_NEAR(moved[i] - base[i], shift, 1e-9) << "node " << i;
    ++finite;
  }
  EXPECT_GT(finite, 0u);
}

// ----- level-parallel sweeps ---------------------------------------------------

// With level_parallel_min_nodes forced to 0 even the ISCAS circuits take
// the fanned-out sweep; every derived quantity must be bitwise-equal to
// the sequential engine at any worker count.
TEST_F(StaTest, LevelParallelSweepsBitIdenticalToSequential) {
  for (const char* name : {"c432", "c880"}) {
    SCOPED_TRACE(name);
    const Netlist nl = make_benchmark(lib, name);
    const Sta seq(nl, dm);
    const StaResult want = seq.run();
    const auto want_down = seq.downstream_delays(want);
    const double tc = want.critical_delay_ps;
    const auto want_slack = seq.slacks(want, tc);
    const auto want_paths = seq.k_critical_paths(want, 8);

    for (const std::size_t workers : {2u, 4u}) {
      SCOPED_TRACE(workers);
      StaOptions opt;
      opt.level_parallel_workers = workers;
      opt.level_parallel_min_nodes = 0;  // force the parallel path
      const Sta par(nl, dm, opt);
      const StaResult got = par.run();

      ASSERT_EQ(got.arrival_ps.size(), want.arrival_ps.size());
      for (std::size_t i = 0; i < want.arrival_ps.size(); ++i)
        for (std::size_t e = 0; e < 2; ++e) {
          EXPECT_TRUE(same_bits(got.arrival_ps[i][e], want.arrival_ps[i][e]));
          EXPECT_TRUE(same_bits(got.slew_ps[i][e], want.slew_ps[i][e]));
          EXPECT_EQ(got.prev[i][e], want.prev[i][e]);
        }
      EXPECT_TRUE(same_bits(got.critical_delay_ps, want.critical_delay_ps));
      EXPECT_EQ(got.critical_endpoint, want.critical_endpoint);

      const auto got_down = par.downstream_delays(got);
      ASSERT_EQ(got_down.size(), want_down.size());
      for (std::size_t v = 0; v < want_down.size(); ++v)
        EXPECT_TRUE(same_bits(got_down[v], want_down[v])) << "vertex " << v;

      const auto got_slack = par.slacks(got, tc);
      for (std::size_t i = 0; i < want_slack.size(); ++i)
        EXPECT_TRUE(same_bits(got_slack[i], want_slack[i]));

      const auto got_paths = par.k_critical_paths(got, 8);
      ASSERT_EQ(got_paths.size(), want_paths.size());
      for (std::size_t p = 0; p < want_paths.size(); ++p) {
        EXPECT_TRUE(same_bits(got_paths[p].delay_ps, want_paths[p].delay_ps));
        EXPECT_EQ(got_paths[p].points, want_paths[p].points);
      }
    }
  }
}

// The arc-delay cache against the formulation it replaced: every arc
// re-evaluated from the delay model where it is read. Cached arcs,
// downstream bounds and K-path delays must equal it bit
// for bit, under both delay backends, with mixed sizes and Vt classes,
// and with some NAND2s recast as XOR2/XNOR2 (four arcs per pin; no
// built-in circuit has them).
TEST_F(StaTest, ArcCacheMatchesDirectDelayModelEvaluation) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const TableModel table = TableModel::characterize(dm);
  for (const DelayModel* model : {static_cast<const DelayModel*>(&dm),
                                  static_cast<const DelayModel*>(&table)}) {
    for (const char* name : {"c432", "c1355"}) {
      SCOPED_TRACE(name);
      Netlist nl = make_benchmark(lib, name);
      pops::util::Rng rng(0xA5Cu);
      for (NodeId g : nl.gates()) {
        nl.set_drive(g, rng.uniform(lib.wmin_um(), 4.0 * lib.wmin_um()));
        if (rng.uniform() < 0.3) nl.set_vt_class(g, 1);
        if (nl.node(g).kind == CellKind::Nand2 && rng.uniform() < 0.4)
          nl.replace_cell(g, rng.uniform() < 0.5 ? CellKind::Xor2
                                                 : CellKind::Xnor2);
      }
      const Sta sta(nl, *model);
      const StaResult r = sta.run();
      auto arc = [&](NodeId g, NodeId f, Edge out, Edge ein) {
        const double cload = nl.load_ff(g) + nl.cpar_ff(g);
        return model->delay_ps(nl.cell_of(g), out, r.slew(f, ein),
                               nl.cin_ff(g), cload) *
               model->vt_derate(nl.node(g).vt, out);
      };

      // Every stored arc sits at its slot.
      for (NodeId g : nl.gates()) {
        const Node& gn = nl.node(g);
        const auto& cell = nl.cell_of(g);
        for (std::size_t pin = 0; pin < gn.fanins.size(); ++pin)
          for (Edge out : {Edge::Rise, Edge::Fall})
            for (Edge ein : Sta::cause_edges(cell, out))
              ASSERT_TRUE(same_bits(
                  r.arc_ps[static_cast<std::size_t>(g)]
                          [Sta::arc_slot(cell, pin, out, ein)],
                  arc(g, gn.fanins[pin], out, ein)))
                  << gn.name << " pin " << pin;
      }

      // Downstream bounds, arcs recomputed.
      std::vector<double> down(2 * nl.size());
      const auto& topo = nl.topo_order();
      for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
        const NodeId id = *it;
        const auto i = static_cast<std::size_t>(id);
        const bool po = nl.node(id).is_output;
        down[2 * i] = down[2 * i + 1] = po ? 0.0 : -kInf;
        for (NodeId g : nl.fanouts(id)) {
          const auto gi = static_cast<std::size_t>(g);
          for (Edge eout : {Edge::Rise, Edge::Fall})
            for (Edge ein : Sta::cause_edges(nl.cell_of(g), eout)) {
              const double w = arc(g, id, eout, ein);
              const std::size_t ei = StaResult::idx(ein);
              const std::size_t eo = StaResult::idx(eout);
              down[2 * i + ei] =
                  std::max(down[2 * i + ei], w + down[2 * gi + eo]);
            }
        }
      }
      const auto got_down = sta.downstream_delays(r);
      for (std::size_t i = 0; i < nl.size(); ++i)
        for (std::size_t e = 0; e < 2; ++e) {
          ASSERT_TRUE(same_bits(got_down[2 * i + e], down[2 * i + e]))
              << "vertex " << 2 * i + e;
        }

      // K-path delays: the recomputed arcs summed along each path.
      const auto paths = sta.k_critical_paths(r, 8);
      ASSERT_FALSE(paths.empty());
      for (const TimedPath& p : paths) {
        double d = 0.0;
        for (std::size_t k = 1; k < p.points.size(); ++k)
          d = d + arc(p.points[k].node, p.points[k - 1].node,
                      p.points[k].edge, p.points[k - 1].edge);
        EXPECT_TRUE(same_bits(p.delay_ps, d));
      }
    }
  }
}

TEST_F(StaTest, VtDerateTableIsTheAlphaPowerLawAndRejectsUnknownClasses) {
  const Technology& t = lib.tech();
  ASSERT_GT(t.n_vt_classes(), 1u);
  for (Edge e : {Edge::Rise, Edge::Fall}) {
    EXPECT_EQ(dm.vt_derate(0, e), 1.0);
    for (std::size_t c = 1; c < t.n_vt_classes(); ++c) {
      const bool fall = e == Edge::Fall;
      const double want =
          std::pow((t.vdd - (fall ? t.vtn : t.vtp)) /
                       (t.vdd - (fall ? t.vt_class(c).vtn : t.vt_class(c).vtp)),
                   fall ? t.alpha_n : t.alpha_p);
      EXPECT_TRUE(same_bits(dm.vt_derate(static_cast<int>(c), e), want))
          << "class " << c;
    }
    EXPECT_THROW(dm.vt_derate(static_cast<int>(t.n_vt_classes()), e),
                 std::out_of_range);
    EXPECT_THROW(dm.vt_derate(-1, e), std::out_of_range);
  }

  // A node on a class the timing model's technology lacks: the forward
  // kernel throws, cold and incremental.
  Technology single = Technology::cmos025();
  single.vt_classes.clear();
  const Library single_lib(single);
  const ClosedFormModel single_dm(single_lib);
  Netlist nl = make_benchmark(lib, "c17");
  IncrementalSta inc(nl, single_dm);
  inc.run_full();
  const NodeId g = nl.gates().front();
  nl.set_vt_class(g, 1);
  EXPECT_THROW(Sta(nl, single_dm).run(), std::out_of_range);
  const NodeId dirty[] = {g};
  EXPECT_THROW(inc.update(dirty), std::out_of_range);
}

TEST_F(StaTest, ThrowsWithoutReachablePo) {
  Netlist nl(lib);
  nl.add_input("a");
  // No gates, no POs.
  const Sta sta(nl, dm);
  EXPECT_THROW(sta.run(), std::logic_error);
}

}  // namespace
