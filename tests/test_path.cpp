// Tests for the BoundedPath abstraction: extraction from a netlist,
// boundary conditions (fixed input drive / terminal load), sizing
// variables, structural edits and the analytic stage coefficients.

#include <gtest/gtest.h>

#include "pops/liberty/library.hpp"
#include "pops/netlist/benchmarks.hpp"
#include "pops/process/technology.hpp"
#include "pops/timing/path.hpp"
#include "pops/timing/sta.hpp"

namespace {

using namespace pops::timing;
using namespace pops::netlist;
using pops::liberty::CellKind;
using pops::liberty::Library;
using pops::process::Technology;

class PathTest : public ::testing::Test {
 protected:
  Library lib{Technology::cmos025()};
  ClosedFormModel dm{lib};

  BoundedPath make_path(std::vector<CellKind> kinds,
                        double off3 = 0.0) const {
    std::vector<PathStage> stages;
    for (CellKind k : kinds) {
      PathStage st;
      st.kind = k;
      stages.push_back(st);
    }
    if (off3 > 0.0 && stages.size() > 3) stages[3].off_path_ff = off3;
    return BoundedPath(lib, stages, 2.0 * lib.cref_ff(), 15.0 * lib.cref_ff(),
                       Edge::Rise, dm.default_input_slew_ps());
  }
};

TEST_F(PathTest, ConstructionValidation) {
  EXPECT_THROW(BoundedPath(lib, {}, 1.0, 1.0, Edge::Rise, 10.0),
               std::invalid_argument);
  std::vector<PathStage> one(1);
  EXPECT_THROW(BoundedPath(lib, one, 0.0, 1.0, Edge::Rise, 10.0),
               std::invalid_argument);
  EXPECT_THROW(BoundedPath(lib, one, 1.0, -2.0, Edge::Rise, 10.0),
               std::invalid_argument);
  EXPECT_THROW(BoundedPath(lib, one, 1.0, 1.0, Edge::Rise, 0.0),
               std::invalid_argument);
}

TEST_F(PathTest, EdgesAlternateThroughInvertingCells) {
  const BoundedPath p = make_path(
      {CellKind::Inv, CellKind::Nand2, CellKind::Buf, CellKind::Nor2});
  // Input rises; inv -> fall; nand2 -> rise; buf -> rise; nor2 -> fall.
  EXPECT_EQ(p.out_edge(0), Edge::Fall);
  EXPECT_EQ(p.out_edge(1), Edge::Rise);
  EXPECT_EQ(p.out_edge(2), Edge::Rise);
  EXPECT_EQ(p.out_edge(3), Edge::Fall);
}

TEST_F(PathTest, SetInputEdgeFlipsAll) {
  BoundedPath p = make_path({CellKind::Inv, CellKind::Inv});
  p.set_input_edge(Edge::Fall);
  EXPECT_EQ(p.out_edge(0), Edge::Rise);
  EXPECT_EQ(p.out_edge(1), Edge::Fall);
}

TEST_F(PathTest, Stage0IsFixed) {
  BoundedPath p = make_path({CellKind::Inv, CellKind::Inv});
  EXPECT_THROW(p.set_cin(0, 99.0), std::invalid_argument);
  EXPECT_DOUBLE_EQ(p.cin(0), 2.0 * lib.cref_ff());
}

TEST_F(PathTest, SetCinClampsToRealisableRange) {
  BoundedPath p = make_path({CellKind::Inv, CellKind::Inv});
  p.set_cin(1, 1e9);
  EXPECT_DOUBLE_EQ(p.cin(1), p.cin_max(1));
  p.set_cin(1, 0.0);
  EXPECT_DOUBLE_EQ(p.cin(1), p.cin_min(1));
}

TEST_F(PathTest, LoadChainsToTerminal) {
  BoundedPath p = make_path({CellKind::Inv, CellKind::Inv, CellKind::Inv});
  p.set_cin(1, 10.0);
  p.set_cin(2, 12.0);
  EXPECT_NEAR(p.load_ff(0), 10.0, 1e-12);
  EXPECT_NEAR(p.load_ff(1), 12.0, 1e-12);
  EXPECT_NEAR(p.load_ff(2), 15.0 * lib.cref_ff(), 1e-12);
  EXPECT_GT(p.total_load_ff(1), p.load_ff(1));  // adds own parasitic
}

TEST_F(PathTest, DelayIsSumOfStageDelays) {
  const BoundedPath p =
      make_path({CellKind::Inv, CellKind::Nand2, CellKind::Nor2});
  const auto per_stage = p.stage_delays_ps(dm);
  double sum = 0.0;
  for (double d : per_stage) sum += d;
  EXPECT_NEAR(p.delay_ps(dm), sum, 1e-9);
  EXPECT_EQ(per_stage.size(), 3u);
  for (double d : per_stage) EXPECT_GT(d, 0.0);
}

TEST_F(PathTest, UpsizingALoadedStageCutsDelay) {
  BoundedPath p = make_path(
      {CellKind::Inv, CellKind::Inv, CellKind::Inv, CellKind::Inv, CellKind::Inv},
      /*off3=*/40.0 * lib.cref_ff());
  const double before = p.delay_ps(dm);
  p.set_cin(3, p.cin(3) * 4.0);  // drive the overloaded node harder
  EXPECT_LT(p.delay_ps(dm), before);
}

TEST_F(PathTest, AreaMatchesCellWidths) {
  BoundedPath p = make_path({CellKind::Inv, CellKind::Nand2});
  double expect = 0.0;
  for (std::size_t i = 0; i < p.size(); ++i) {
    const auto& c = p.cell(i);
    expect += c.total_width_um(c.wn_for_cin(lib.tech(), p.cin(i)));
  }
  EXPECT_NEAR(p.area_um(), expect, 1e-12);
}

TEST_F(PathTest, NormalizedSizeInCrefUnits) {
  BoundedPath p = make_path({CellKind::Inv, CellKind::Inv});
  double sum = p.cin(0) + p.cin(1);
  EXPECT_NEAR(p.normalized_size(), sum / lib.cref_ff(), 1e-12);
}

TEST_F(PathTest, NumericSensitivityMatchesStructure) {
  // dT/dCIN(i) should be negative when stage i is undersized for its load
  // and approach A_{i-1}/CIN(i-1) > 0 as stage i grows huge.
  BoundedPath p = make_path(
      {CellKind::Inv, CellKind::Inv, CellKind::Inv, CellKind::Inv},
      /*off3=*/30.0 * lib.cref_ff());
  EXPECT_LT(p.numeric_sensitivity(dm, 3), 0.0);  // loaded + minimum size
  p.set_cin(3, p.cin_max(3));
  EXPECT_GT(p.numeric_sensitivity(dm, 3), 0.0);  // grossly oversized
  EXPECT_THROW(p.numeric_sensitivity(dm, 0), std::invalid_argument);
}

TEST_F(PathTest, InsertStageTakesOverOffPathLoad) {
  BoundedPath p = make_path(
      {CellKind::Inv, CellKind::Inv, CellKind::Inv, CellKind::Inv, CellKind::Inv},
      /*off3=*/25.0 * lib.cref_ff());
  const double off_before = p.stage(3).off_path_ff;
  ASSERT_GT(off_before, 0.0);
  p.insert_stage_after(3, CellKind::Buf, 2.0 * lib.cref_ff(), true);
  EXPECT_EQ(p.size(), 6u);
  EXPECT_EQ(p.stage(4).kind, CellKind::Buf);
  EXPECT_DOUBLE_EQ(p.stage(3).off_path_ff, 0.0);
  EXPECT_DOUBLE_EQ(p.stage(4).off_path_ff, off_before);
}

TEST_F(PathTest, InsertStageWithoutTakeover) {
  BoundedPath p = make_path(
      {CellKind::Inv, CellKind::Inv, CellKind::Inv, CellKind::Inv, CellKind::Inv},
      /*off3=*/25.0 * lib.cref_ff());
  const double off_before = p.stage(3).off_path_ff;
  p.insert_stage_after(3, CellKind::Buf, 2.0 * lib.cref_ff(), false);
  EXPECT_DOUBLE_EQ(p.stage(3).off_path_ff, off_before);
  EXPECT_DOUBLE_EQ(p.stage(4).off_path_ff, 0.0);
}

TEST_F(PathTest, ReplaceStageReclampsAndReedges) {
  BoundedPath p = make_path({CellKind::Inv, CellKind::Nor2, CellKind::Inv});
  const Edge last_before = p.out_edge(2);
  p.replace_stage(1, CellKind::Buf);  // inverting -> non-inverting
  EXPECT_EQ(p.stage(1).kind, CellKind::Buf);
  EXPECT_NE(p.out_edge(2), last_before);
}

TEST_F(PathTest, StructuralEditsRefreshTheCinRange) {
  // The CIN range is cached per stage: after an insert or a replace it
  // must be the new cell's, and set_cin must clamp into it.
  auto expect_range = [&](const BoundedPath& p, std::size_t i, CellKind k) {
    const pops::liberty::Cell& c = lib.cell(k);
    EXPECT_EQ(&p.cell(i), &c);
    EXPECT_EQ(p.cin_min(i), c.cin_ff(lib.tech(), lib.wmin_um()));
    EXPECT_EQ(p.cin_max(i), c.cin_ff(lib.tech(), lib.wmax_um()));
  };
  auto expect_clamps = [](BoundedPath& p, std::size_t i) {
    p.set_cin(i, 0.0);
    EXPECT_EQ(p.cin(i), p.cin_min(i));
    p.set_cin(i, 1e9);
    EXPECT_EQ(p.cin(i), p.cin_max(i));
  };

  BoundedPath p = make_path({CellKind::Inv, CellKind::Inv, CellKind::Inv});
  // A huge requested CIN must land on the new cell's maximum, above any
  // Inv size.
  ASSERT_GT(lib.cell(CellKind::Nor4).cin_ff(lib.tech(), lib.wmax_um()),
            p.cin_max(2));
  p.insert_stage_after(1, CellKind::Nor4, 1e9);
  expect_range(p, 2, CellKind::Nor4);
  EXPECT_EQ(p.cin(2), p.cin_max(2));
  expect_range(p, 3, CellKind::Inv);
  expect_clamps(p, 2);

  p.set_cin(1, 1e9);  // the Inv maximum, above any Nand4 size
  ASSERT_GT(p.cin(1),
            lib.cell(CellKind::Nand4).cin_ff(lib.tech(), lib.wmax_um()));
  p.replace_stage(1, CellKind::Nand4);
  expect_range(p, 1, CellKind::Nand4);
  EXPECT_EQ(p.cin(1), p.cin_max(1));
  expect_clamps(p, 1);
}

TEST_F(PathTest, SizableFlagFreezesStage) {
  BoundedPath p = make_path({CellKind::Inv, CellKind::Inv, CellKind::Inv});
  EXPECT_FALSE(p.sizable(0));  // stage 0 always fixed
  EXPECT_TRUE(p.sizable(1));
  p.set_sizable(1, false);
  EXPECT_FALSE(p.sizable(1));
}

TEST_F(PathTest, ExtractFromNetlistFreezesOffPathLoads) {
  // g drives both the next path gate and an off-path sink + wire cap.
  Netlist nl(lib);
  const NodeId a = nl.add_input("a");
  const NodeId g1 = nl.add_gate(CellKind::Inv, "g1", {a});
  const NodeId g2 = nl.add_gate(CellKind::Inv, "g2", {g1});
  const NodeId off = nl.add_gate(CellKind::Nand2, "off", {g1, a});
  nl.mark_output(g2, 18.0);
  nl.mark_output(off, 3.0);
  nl.set_wire_cap(g1, 5.0);
  nl.set_drive(g1, 1.1);
  nl.set_drive(g2, 1.7);

  // Extract the a -> g1 -> g2 path explicitly (the off-branch through the
  // NAND2 may or may not be critical; extract() takes any STA path).
  TimedPath tp;
  tp.points = {{a, Edge::Rise}, {g1, Edge::Fall}, {g2, Edge::Rise}};
  const BoundedPath bp = BoundedPath::extract(nl, tp, 40.0);

  ASSERT_EQ(bp.size(), 2u);
  EXPECT_EQ(bp.stage(0).node, g1);
  EXPECT_EQ(bp.stage(1).node, g2);
  // Stage 0 off-path: wire (5.0) + off-sink input cap.
  EXPECT_NEAR(bp.stage(0).off_path_ff, 5.0 + nl.cin_ff(off), 1e-9);
  // Terminal = g2's PO load.
  EXPECT_NEAR(bp.terminal_ff(), 18.0, 1e-9);
  // CINs mirror the netlist drives.
  EXPECT_NEAR(bp.cin(0), nl.cin_ff(g1), 1e-12);
  EXPECT_NEAR(bp.cin(1), nl.cin_ff(g2), 1e-12);
}

TEST_F(PathTest, ExtractedDelayMatchesStaArrival) {
  // On a pure chain (no reconvergence) the bounded-path delay with the
  // PI slew must equal the STA critical delay.
  Netlist nl =
      make_chain(lib, {CellKind::Inv, CellKind::Nand2, CellKind::Inv}, 12.0);
  StaOptions so;
  so.pi_slew_ps = 33.0;
  const Sta sta(nl, dm, so);
  const StaResult r = sta.run();
  const TimedPath tp = sta.critical_path(r);
  const BoundedPath bp = BoundedPath::extract(nl, tp, 33.0);
  EXPECT_NEAR(bp.delay_ps(dm), r.critical_delay_ps,
              1e-6 * r.critical_delay_ps);
}

TEST_F(PathTest, ApplySizesRoundTrip) {
  Netlist nl =
      make_chain(lib, {CellKind::Inv, CellKind::Inv, CellKind::Inv}, 9.0);
  const Sta sta(nl, dm);
  const TimedPath tp = sta.critical_path(sta.run());
  BoundedPath bp = BoundedPath::extract(nl, tp, 40.0);
  bp.set_cin(1, 13.0);
  bp.set_cin(2, 17.0);
  bp.apply_sizes_to(nl);
  const BoundedPath back = BoundedPath::extract(nl, tp, 40.0);
  EXPECT_NEAR(back.cin(1), 13.0, 1e-9);
  EXPECT_NEAR(back.cin(2), 17.0, 1e-9);
}

TEST_F(PathTest, SetCinsValidatesFixedHead) {
  BoundedPath p = make_path({CellKind::Inv, CellKind::Inv});
  std::vector<double> cins = p.cins();
  cins[1] *= 2.0;
  EXPECT_NO_THROW(p.set_cins(cins));
  cins[0] *= 2.0;
  EXPECT_THROW(p.set_cins(cins), std::invalid_argument);
  EXPECT_THROW(p.set_cins({1.0}), std::invalid_argument);
}

}  // namespace
