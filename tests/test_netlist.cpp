// Unit tests for pops::netlist::Netlist — DAG construction, capacitance
// accounting, editing operations and validation.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "pops/core/netopt.hpp"
#include "pops/liberty/library.hpp"
#include "pops/netlist/benchmarks.hpp"
#include "pops/netlist/netlist.hpp"
#include "pops/obs/metrics.hpp"
#include "pops/process/technology.hpp"
#include "pops/timing/sta.hpp"
#include "pops/util/rng.hpp"

namespace {

using namespace pops::netlist;
using pops::liberty::CellKind;
using pops::liberty::Library;
using pops::process::Technology;

class NetlistTest : public ::testing::Test {
 protected:
  Library lib{Technology::cmos025()};
};

TEST_F(NetlistTest, BuildSmallDag) {
  Netlist nl(lib);
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId g = nl.add_gate(CellKind::Nand2, "g", {a, b});
  const NodeId h = nl.add_gate(CellKind::Inv, "h", {g});
  nl.mark_output(h, 10.0);

  EXPECT_EQ(nl.size(), 4u);
  EXPECT_EQ(nl.inputs().size(), 2u);
  EXPECT_EQ(nl.outputs(), std::vector<NodeId>{h});
  EXPECT_EQ(nl.gates(), (std::vector<NodeId>{g, h}));
  EXPECT_EQ(nl.fanouts(a), std::vector<NodeId>{g});
  EXPECT_EQ(nl.fanouts(g), std::vector<NodeId>{h});
  EXPECT_NO_THROW(nl.validate());
}

TEST_F(NetlistTest, DuplicateNameThrows) {
  Netlist nl(lib);
  nl.add_input("x");
  EXPECT_THROW(nl.add_input("x"), std::invalid_argument);
}

TEST_F(NetlistTest, ArityMismatchThrows) {
  Netlist nl(lib);
  const NodeId a = nl.add_input("a");
  EXPECT_THROW(nl.add_gate(CellKind::Nand2, "g", {a}), std::invalid_argument);
}

TEST_F(NetlistTest, InvalidFaninThrows) {
  Netlist nl(lib);
  nl.add_input("a");
  EXPECT_THROW(nl.add_gate(CellKind::Inv, "g", {99}), std::invalid_argument);
}

TEST_F(NetlistTest, TopoOrderRespectsEdges) {
  Netlist nl(lib);
  const NodeId a = nl.add_input("a");
  const NodeId g1 = nl.add_gate(CellKind::Inv, "g1", {a});
  const NodeId g2 = nl.add_gate(CellKind::Inv, "g2", {g1});
  nl.mark_output(g2, 5.0);
  const auto& topo = nl.topo_order();
  auto pos = [&](NodeId id) {
    return std::find(topo.begin(), topo.end(), id) - topo.begin();
  };
  EXPECT_LT(pos(a), pos(g1));
  EXPECT_LT(pos(g1), pos(g2));
}

TEST_F(NetlistTest, LoadAccountsWireSinksAndPo) {
  Netlist nl(lib);
  const NodeId a = nl.add_input("a");
  const NodeId g = nl.add_gate(CellKind::Inv, "g", {a});
  const NodeId s1 = nl.add_gate(CellKind::Inv, "s1", {g});
  const NodeId s2 = nl.add_gate(CellKind::Nand2, "s2", {g, a});
  nl.mark_output(g, 7.5);
  nl.mark_output(s1, 1.0);
  nl.mark_output(s2, 1.0);
  nl.set_wire_cap(g, 3.0);
  EXPECT_NEAR(nl.load_ff(g), 3.0 + 7.5 + nl.cin_ff(s1) + nl.cin_ff(s2), 1e-12);
}

TEST_F(NetlistTest, DriveClampingAndCin) {
  Netlist nl(lib);
  const NodeId a = nl.add_input("a");
  const NodeId g = nl.add_gate(CellKind::Inv, "g", {a});
  nl.mark_output(g, 1.0);
  nl.set_drive(g, 1e9);
  EXPECT_DOUBLE_EQ(nl.drive(g), lib.wmax_um());
  nl.set_drive(g, 0.0);
  EXPECT_DOUBLE_EQ(nl.drive(g), lib.wmin_um());
  EXPECT_NEAR(nl.cin_ff(g), lib.cref_ff(), 1e-12);
  EXPECT_THROW(nl.set_drive(a, 1.0), std::invalid_argument);
  EXPECT_THROW(nl.drive(a), std::invalid_argument);
}

TEST_F(NetlistTest, TotalWidthSumsGates) {
  Netlist nl(lib);
  const NodeId a = nl.add_input("a");
  const NodeId g1 = nl.add_gate(CellKind::Inv, "g1", {a});
  const NodeId g2 = nl.add_gate(CellKind::Inv, "g2", {g1});
  nl.mark_output(g2, 1.0);
  nl.set_drive(g1, 1.0);
  nl.set_drive(g2, 2.0);
  const auto& inv = lib.cell(CellKind::Inv);
  EXPECT_NEAR(nl.total_width_um(),
              inv.total_width_um(1.0) + inv.total_width_um(2.0), 1e-12);
}

TEST_F(NetlistTest, InsertBufferCapturesAllSinksAndPo) {
  Netlist nl(lib);
  const NodeId a = nl.add_input("a");
  const NodeId g = nl.add_gate(CellKind::Inv, "g", {a});
  const NodeId s1 = nl.add_gate(CellKind::Inv, "s1", {g});
  nl.mark_output(g, 9.0);
  nl.mark_output(s1, 2.0);
  nl.set_wire_cap(g, 4.0);

  const NodeId buf = nl.insert_buffer(g, CellKind::Buf, "buf_g");
  EXPECT_EQ(nl.fanouts(g), std::vector<NodeId>{buf});
  EXPECT_EQ(nl.fanouts(buf), std::vector<NodeId>{s1});
  // PO role and wire cap migrated to the buffer.
  EXPECT_FALSE(nl.node(g).is_output);
  EXPECT_TRUE(nl.node(buf).is_output);
  EXPECT_DOUBLE_EQ(nl.node(buf).po_load_ff, 9.0);
  EXPECT_DOUBLE_EQ(nl.node(buf).wire_cap_ff, 4.0);
  EXPECT_NO_THROW(nl.validate());
}

TEST_F(NetlistTest, InsertBufferOnSubsetOfSinks) {
  Netlist nl(lib);
  const NodeId a = nl.add_input("a");
  const NodeId g = nl.add_gate(CellKind::Inv, "g", {a});
  const NodeId s1 = nl.add_gate(CellKind::Inv, "s1", {g});
  const NodeId s2 = nl.add_gate(CellKind::Inv, "s2", {g});
  nl.mark_output(s1, 1.0);
  nl.mark_output(s2, 1.0);

  const NodeId buf = nl.insert_buffer(g, CellKind::Inv, "b", {s2});
  EXPECT_EQ(nl.fanouts(buf), std::vector<NodeId>{s2});
  // s1 still fed directly.
  const auto& fo = nl.fanouts(g);
  EXPECT_NE(std::find(fo.begin(), fo.end(), s1), fo.end());
  EXPECT_NO_THROW(nl.validate());
}

/// The PO list a from-scratch build gives: every is_output node, ascending.
std::vector<NodeId> scanned_outputs(const Netlist& nl) {
  std::vector<NodeId> out;
  for (NodeId id = 0; id < static_cast<NodeId>(nl.size()); ++id)
    if (nl.node(id).is_output) out.push_back(id);
  return out;
}

TEST_F(NetlistTest, OutputListStaysExactUnderPoEdits) {
  Netlist nl(lib);
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId g1 = nl.add_gate(CellKind::Nand2, "g1", {a, b});
  const NodeId g2 = nl.add_gate(CellKind::Inv, "g2", {g1});
  const NodeId g3 = nl.add_gate(CellKind::Inv, "g3", {g1});
  EXPECT_TRUE(nl.outputs().empty());

  nl.mark_output(g3, 4.0);  // first PO: a new node
  EXPECT_EQ(nl.outputs(), scanned_outputs(nl));
  nl.mark_output(g1, 3.0);  // an existing node below the current list
  EXPECT_EQ(nl.outputs(), (std::vector<NodeId>{g1, g3}));
  EXPECT_EQ(nl.outputs(), scanned_outputs(nl));
  nl.mark_output(g3, 6.0);  // already a PO: only the load moves
  EXPECT_EQ(nl.outputs(), (std::vector<NodeId>{g1, g3}));
  EXPECT_DOUBLE_EQ(nl.node(g3).po_load_ff, 6.0);

  // An appended PO lands at the end.
  const NodeId g4 = nl.add_gate(CellKind::Inv, "g4", {g2});
  nl.mark_output(g4, 2.0);
  EXPECT_EQ(nl.outputs(), (std::vector<NodeId>{g1, g3, g4}));
  EXPECT_EQ(nl.outputs(), scanned_outputs(nl));

  // A capture-all buffer takes the PO role over from its driver; a
  // subset buffer leaves the list alone.
  const NodeId buf = nl.insert_buffer(g1, CellKind::Buf, "buf_g1");
  EXPECT_EQ(nl.outputs(), (std::vector<NodeId>{g3, g4, buf}));
  EXPECT_EQ(nl.outputs(), scanned_outputs(nl));
  nl.insert_buffer(buf, CellKind::Buf, "sub", {g3});
  EXPECT_EQ(nl.outputs(), scanned_outputs(nl));
  EXPECT_NO_THROW(nl.validate());

  // Rebuilds: raw records, a copy, and the dead-gate sweep.
  std::vector<Node> nodes;
  for (NodeId id = 0; id < static_cast<NodeId>(nl.size()); ++id)
    nodes.push_back(nl.node(id));
  const Netlist rebuilt =
      Netlist::from_nodes(lib, nl.name(), nodes, nl.fresh_counter());
  EXPECT_EQ(rebuilt.outputs(), nl.outputs());
  EXPECT_EQ(rebuilt.outputs(), scanned_outputs(rebuilt));
  const Netlist copy(nl);
  EXPECT_EQ(copy.outputs(), scanned_outputs(copy));
  const Netlist swept = pops::core::sweep_dead(nl);
  EXPECT_EQ(swept.outputs().size(), nl.outputs().size());
  EXPECT_EQ(swept.outputs(), scanned_outputs(swept));
}

TEST_F(NetlistTest, InsertBufferRejectsNonBufferKinds) {
  Netlist nl(lib);
  const NodeId a = nl.add_input("a");
  const NodeId g = nl.add_gate(CellKind::Inv, "g", {a});
  nl.mark_output(g, 1.0);
  EXPECT_THROW(nl.insert_buffer(g, CellKind::Nand2, "b"),
               std::invalid_argument);
}

TEST_F(NetlistTest, ReplaceCellKeepsArity) {
  Netlist nl(lib);
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId g = nl.add_gate(CellKind::Nor2, "g", {a, b});
  nl.mark_output(g, 1.0);
  nl.replace_cell(g, CellKind::Nand2);
  EXPECT_EQ(nl.node(g).kind, CellKind::Nand2);
  EXPECT_THROW(nl.replace_cell(g, CellKind::Inv), std::invalid_argument);
}

TEST_F(NetlistTest, RenamePreservesLookup) {
  Netlist nl(lib);
  const NodeId a = nl.add_input("a");
  const NodeId g = nl.add_gate(CellKind::Inv, "g", {a});
  nl.mark_output(g, 1.0);
  nl.rename(g, "renamed");
  EXPECT_EQ(nl.find("renamed"), g);
  EXPECT_EQ(nl.find("g"), kNoNode);
  EXPECT_THROW(nl.rename(g, "a"), std::invalid_argument);
}

TEST_F(NetlistTest, DepthsAndStats) {
  Netlist nl(lib);
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId g1 = nl.add_gate(CellKind::Nand2, "g1", {a, b});
  const NodeId g2 = nl.add_gate(CellKind::Inv, "g2", {g1});
  const NodeId g3 = nl.add_gate(CellKind::Nand2, "g3", {g2, a});
  nl.mark_output(g3, 1.0);
  const auto d = nl.depths();
  EXPECT_EQ(d[static_cast<std::size_t>(a)], 0);
  EXPECT_EQ(d[static_cast<std::size_t>(g1)], 1);
  EXPECT_EQ(d[static_cast<std::size_t>(g3)], 3);

  const NetlistStats s = nl.stats();
  EXPECT_EQ(s.n_inputs, 2u);
  EXPECT_EQ(s.n_gates, 3u);
  EXPECT_EQ(s.depth, 3u);
  EXPECT_EQ(s.gates_by_kind.at("nand2"), 2u);
}

TEST_F(NetlistTest, ValidateDetectsDangling) {
  Netlist nl(lib);
  const NodeId a = nl.add_input("a");
  const NodeId g1 = nl.add_gate(CellKind::Inv, "g1", {a});
  const NodeId g2 = nl.add_gate(CellKind::Inv, "g2", {a});
  nl.mark_output(g1, 1.0);
  (void)g2;  // g2 dangles
  EXPECT_THROW(nl.validate(), std::logic_error);
}

TEST_F(NetlistTest, FreshNameNeverCollides) {
  Netlist nl(lib);
  nl.add_input("buf_0");
  const std::string n1 = nl.fresh_name("buf");
  const std::string n2 = nl.fresh_name("buf");
  EXPECT_NE(n1, "buf_0");
  EXPECT_NE(n1, n2);
}

// ---- fanout lists kept exact under edits -------------------------------------

/// Fanout lists built from scratch out of the fanin lists: ascending sink
/// ids, one entry per consuming pin.
std::vector<std::vector<NodeId>> rebuilt_fanouts(const Netlist& nl) {
  std::vector<std::vector<NodeId>> out(nl.size());
  for (NodeId id = 0; id < static_cast<NodeId>(nl.size()); ++id)
    for (NodeId f : nl.node(id).fanins)
      out[static_cast<std::size_t>(f)].push_back(id);
  return out;
}

/// Every maintained list equals the rebuild element for element, and a
/// from_nodes round trip (the one from-scratch build) reproduces both the
/// lists and the topological order.
void expect_exact_fanouts(const Netlist& nl, const std::string& when) {
  const std::vector<std::vector<NodeId>> want = rebuilt_fanouts(nl);
  std::vector<Node> nodes;
  for (NodeId id = 0; id < static_cast<NodeId>(nl.size()); ++id) {
    ASSERT_EQ(nl.fanouts(id), want[static_cast<std::size_t>(id)])
        << when << ": fanouts of " << nl.node(id).name;
    nodes.push_back(nl.node(id));
  }
  const Netlist copy = Netlist::from_nodes(
      nl.lib(), nl.name(), std::move(nodes), nl.fresh_counter());
  for (NodeId id = 0; id < static_cast<NodeId>(nl.size()); ++id)
    ASSERT_EQ(copy.fanouts(id), nl.fanouts(id)) << when << ": round trip";
  ASSERT_EQ(copy.topo_order(), nl.topo_order()) << when << ": topo order";
}

TEST_F(NetlistTest, FanoutsStayExactUnderRandomBufferInsertion) {
  for (const char* name : {"c432", "c880"}) {
    Netlist nl = make_benchmark(lib, name);
    pops::util::Rng rng(0xFA70u);
    for (int step = 0; step < 40; ++step) {
      const std::vector<NodeId> gates = nl.gates();
      const NodeId driver = gates[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(gates.size()) - 1))];
      const std::vector<NodeId> sinks = nl.fanouts(driver);
      if (step % 4 == 3) {
        // Capture-all: every sink moves, and a PO driver hands its PO
        // role to the buffer.
        nl.insert_buffer(driver, CellKind::Buf, nl.fresh_name("all"));
      } else {
        if (sinks.size() < 2) continue;
        std::vector<NodeId> moved;
        for (NodeId s : sinks)
          if (rng.uniform() < 0.5) moved.push_back(s);
        if (moved.empty()) moved.push_back(sinks.back());
        nl.insert_buffer(driver, CellKind::Buf, nl.fresh_name("sub"), moved);
      }
      expect_exact_fanouts(nl, std::string(name) + " step " +
                                   std::to_string(step));
      if (HasFatalFailure()) return;
    }
    EXPECT_NO_THROW(nl.validate());
  }
}

TEST_F(NetlistTest, FanoutsStayExactUnderRewiresOfDoublyFedGates) {
  Netlist nl(lib);
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId x = nl.add_gate(CellKind::Inv, "x", {a});
  const NodeId y = nl.add_gate(CellKind::Inv, "y", {b});
  // Gates that take one driver on two (or three) pins.
  const NodeId g1 = nl.add_gate(CellKind::Nand2, "g1", {x, x});
  const NodeId g2 = nl.add_gate(CellKind::Nor3, "g2", {x, y, x});
  const NodeId g3 = nl.add_gate(CellKind::Xor2, "g3", {y, y});
  const NodeId g4 = nl.add_gate(CellKind::Nand3, "g4", {g1, g1, g2});
  nl.mark_output(g3, 1.0);
  nl.mark_output(g4, 1.0);
  expect_exact_fanouts(nl, "built");
  EXPECT_EQ(nl.fanouts(x), (std::vector<NodeId>{g1, g1, g2, g2}));

  // Rewire one pin at a time; the other pin keeps its entry.
  nl.rewire_fanin(g1, x, y);
  expect_exact_fanouts(nl, "g1 pin to y");
  EXPECT_EQ(nl.fanouts(x), (std::vector<NodeId>{g1, g2, g2}));
  EXPECT_EQ(nl.fanouts(y), (std::vector<NodeId>{g1, g2, g3, g3}));
  nl.rewire_fanin(g2, x, a);
  expect_exact_fanouts(nl, "g2 pin to a");
  nl.rewire_fanin(g3, y, x);
  expect_exact_fanouts(nl, "g3 pin to x");
  nl.rewire_fanin(g4, g1, x);
  expect_exact_fanouts(nl, "g4 pin to x");
  nl.rewire_fanin(g1, x, y);
  expect_exact_fanouts(nl, "g1 second pin to y");
  EXPECT_EQ(nl.fanouts(y), (std::vector<NodeId>{g1, g1, g2, g3}));
  // Rewiring to the same driver is a no-op on the lists.
  nl.rewire_fanin(g2, y, y);
  expect_exact_fanouts(nl, "self rewire");

  // A capture-all buffer on a doubly-feeding driver moves both pins.
  const NodeId buf = nl.insert_buffer(y, CellKind::Buf, "by");
  expect_exact_fanouts(nl, "capture-all on y");
  EXPECT_EQ(nl.fanouts(y), std::vector<NodeId>{buf});
  EXPECT_EQ(nl.fanouts(buf), (std::vector<NodeId>{g1, g1, g2, g3}));

  // A rewire that empties the old driver's list (z stays a PO).
  const NodeId z = nl.add_gate(CellKind::Inv, "z", {b});
  const NodeId g5 = nl.add_gate(CellKind::Nand2, "g5", {z, a});
  nl.mark_output(z, 1.0);
  nl.mark_output(g5, 1.0);
  nl.rewire_fanin(g5, z, x);
  expect_exact_fanouts(nl, "last sink moved off z");
  EXPECT_TRUE(nl.fanouts(z).empty());

  EXPECT_THROW(nl.rewire_fanin(g1, a, b), std::invalid_argument);
  EXPECT_THROW(nl.rewire_fanin(g1, buf, 999), std::out_of_range);
  expect_exact_fanouts(nl, "rejected rewires");
}

TEST_F(NetlistTest, TopoRebuildIsLazyAndCounted) {
  auto rebuilds = [] {
    const pops::util::Json snap =
        pops::obs::Registry::global().snapshot_json();
    const pops::util::Json* v =
        snap.find("counters")->find("netlist.topo_rebuilds");
    return v ? v->as_number() : 0.0;
  };
  // Built-ins come back validated, with the order built, and copies
  // carry it: a pipeline's per-copy work does not depend on whether the
  // prototype was queried first.
  const double before = rebuilds();
  Netlist nl = make_benchmark(lib, "c17");
  const double built = rebuilds();
  EXPECT_EQ(built, before + 1.0);
  const Netlist copy = nl;
  (void)copy.topo_order();
  (void)nl.topo_order();
  EXPECT_EQ(rebuilds(), built);
  const NodeId g = nl.gates().front();
  nl.insert_buffer(g, CellKind::Buf, "b0");
  (void)nl.fanouts(g);
  (void)nl.load_ff(g);
  EXPECT_EQ(rebuilds(), built);  // fanout queries never rebuild
  (void)nl.topo_order();
  (void)nl.topo_order();
  EXPECT_EQ(rebuilds(), built + 1.0);
}

// ---- O(1) cell lookup and allocation-free cause edges ------------------------

TEST_F(NetlistTest, LibraryCellIndexesKindsAndRejectsOutOfRange) {
  for (const CellKind k : pops::liberty::all_cell_kinds())
    EXPECT_EQ(lib.cell(k).kind, k);
  EXPECT_THROW(lib.cell(static_cast<CellKind>(pops::liberty::kCellKindCount)),
               std::logic_error);
  EXPECT_THROW(lib.cell(static_cast<CellKind>(-1)), std::logic_error);
}

TEST_F(NetlistTest, CauseEdgesBothForXorOneOtherwise) {
  using pops::timing::Edge;
  using pops::timing::Sta;
  for (const CellKind k : pops::liberty::all_cell_kinds()) {
    const pops::liberty::Cell& cell = lib.cell(k);
    for (const Edge out : {Edge::Rise, Edge::Fall}) {
      const pops::timing::CauseEdges causes = Sta::cause_edges(cell, out);
      const std::vector<Edge> got(causes.begin(), causes.end());
      if (k == CellKind::Xor2 || k == CellKind::Xnor2) {
        EXPECT_EQ(got, (std::vector<Edge>{Edge::Rise, Edge::Fall}))
            << cell.name;
        EXPECT_TRUE(causes.contains(Edge::Rise) && causes.contains(Edge::Fall));
      } else {
        const Edge want = cell.inverting ? pops::timing::flip(out) : out;
        EXPECT_EQ(got, std::vector<Edge>{want}) << cell.name;
        EXPECT_TRUE(causes.contains(want));
        EXPECT_FALSE(causes.contains(pops::timing::flip(want))) << cell.name;
      }
    }
  }
}

// ---- build_wide_gate ---------------------------------------------------------

class WideGateTest : public ::testing::TestWithParam<std::tuple<int, bool, bool>> {};

TEST_P(WideGateTest, ComputesWideAndOr) {
  const auto [width, is_and, invert] = GetParam();
  const Library lib(Technology::cmos025());
  Netlist nl(lib);
  std::vector<NodeId> pis;
  for (int i = 0; i < width; ++i)
    pis.push_back(nl.add_input("i" + std::to_string(i)));
  const NodeId root = build_wide_gate(nl, is_and, invert, pis, "w");
  nl.mark_output(root, 1.0);
  nl.validate();

  // Check against the reference function over all input patterns, 64 per
  // word: pattern p = 64 * word + lane sets PI i to bit i of p.
  const unsigned n_patterns = 1u << width;
  for (unsigned word = 0; word * 64 < n_patterns; ++word) {
    // Direct evaluation through node values, one word per node.
    std::vector<std::uint64_t> value(nl.size());
    for (int i = 0; i < width; ++i) {
      std::uint64_t w = 0;
      for (unsigned lane = 0; lane < 64; ++lane)
        if (((word * 64 + lane) >> i) & 1u) w |= std::uint64_t{1} << lane;
      value[static_cast<std::size_t>(pis[static_cast<std::size_t>(i)])] = w;
    }
    for (NodeId id : nl.topo_order()) {
      const Node& node = nl.node(id);
      if (node.is_input) continue;
      std::uint64_t raw[4];
      for (std::size_t k = 0; k < node.fanins.size(); ++k)
        raw[k] = value[static_cast<std::size_t>(node.fanins[k])];
      value[static_cast<std::size_t>(id)] =
          lib.cell(node.kind).eval_word({raw, node.fanins.size()});
    }
    for (unsigned lane = 0; lane < 64 && word * 64 + lane < n_patterns; ++lane) {
      const unsigned pattern = word * 64 + lane;
      bool expect = is_and;
      for (int i = 0; i < width; ++i) {
        const bool bit = (pattern >> i) & 1u;
        expect = is_and ? (expect && bit) : (i == 0 ? bit : (expect || bit));
      }
      if (invert) expect = !expect;
      EXPECT_EQ(((value[static_cast<std::size_t>(root)] >> lane) & 1u) != 0,
                expect)
          << "width=" << width << " and=" << is_and << " inv=" << invert
          << " pattern=" << pattern;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Widths, WideGateTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5, 7, 8, 9, 13),
                       ::testing::Bool(), ::testing::Bool()));

}  // namespace
