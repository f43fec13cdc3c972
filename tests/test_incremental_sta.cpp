// IncrementalSta — incremental-vs-full equivalence.
//
// The analyzer's contract is *bit-identity*: after any supported mutation
// sequence (gate resizes, buffer insertions with re-pointed sinks), every
// maintained quantity — arrivals, slews, `prev` backtracking state, the
// downstream K-paths bounds, the critical delay/endpoint — must equal a
// cold Sta::run() / Sta::downstream_delays() bit for bit, and the
// enumeration built on top (k_critical_paths) must return identical
// paths. The fuzz suites below drive random mutation sequences on c17 /
// c432 / c880 under BOTH delay-model backends (closed-form and table) and
// assert the identity after every step. IncrementalStructuralFuzz mixes
// every edit the pipeline makes — shield buffers, chained buffers that
// exhaust the position gaps, inverter-pair cancellation rewires, resizes
// and Vt flips — plus rewires against the topological order, and also
// pins the cached arc delays and the gapped topological positions.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "pops/core/buffer.hpp"
#include "pops/core/netopt.hpp"
#include "pops/liberty/library.hpp"
#include "pops/netlist/benchmarks.hpp"
#include "pops/netlist/netlist.hpp"
#include "pops/obs/metrics.hpp"
#include "pops/process/technology.hpp"
#include "pops/timing/incremental_sta.hpp"
#include "pops/timing/sta.hpp"
#include "pops/timing/table_model.hpp"
#include "pops/util/rng.hpp"

namespace {

using namespace pops;
using netlist::Netlist;
using netlist::NodeId;
using timing::ClosedFormModel;
using timing::DelayModel;
using timing::Edge;
using timing::IncrementalSta;
using timing::Sta;
using timing::StaResult;
using timing::TableModel;
using timing::TimedPath;

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Full bitwise comparison of the maintained state against a cold run,
/// including the K-paths enumeration (k = 8).
void expect_bit_identical(const Netlist& nl, const DelayModel& dm,
                          const IncrementalSta& inc, const char* when) {
  const Sta sta(nl, dm);
  const StaResult cold = sta.run();
  const StaResult& warm = inc.result();

  ASSERT_EQ(warm.arrival_ps.size(), cold.arrival_ps.size()) << when;
  for (std::size_t i = 0; i < cold.arrival_ps.size(); ++i) {
    for (std::size_t e = 0; e < 2; ++e) {
      EXPECT_TRUE(same_bits(warm.arrival_ps[i][e], cold.arrival_ps[i][e]))
          << when << ": arrival of node " << i << " edge " << e;
      EXPECT_TRUE(same_bits(warm.slew_ps[i][e], cold.slew_ps[i][e]))
          << when << ": slew of node " << i << " edge " << e;
      EXPECT_EQ(warm.prev[i][e], cold.prev[i][e])
          << when << ": prev of node " << i << " edge " << e;
    }
    for (std::size_t k = 0; k < StaResult::kArcSlots; ++k)
      EXPECT_TRUE(same_bits(warm.arc_ps[i][k], cold.arc_ps[i][k]))
          << when << ": arc " << k << " of node " << i;
  }
  EXPECT_TRUE(same_bits(warm.critical_delay_ps, cold.critical_delay_ps))
      << when;
  EXPECT_EQ(warm.critical_endpoint, cold.critical_endpoint) << when;

  const std::vector<double> cold_down = sta.downstream_delays(cold);
  const std::vector<double>& warm_down = inc.downstream();
  ASSERT_EQ(warm_down.size(), cold_down.size()) << when;
  for (std::size_t v = 0; v < cold_down.size(); ++v)
    EXPECT_TRUE(same_bits(warm_down[v], cold_down[v]))
        << when << ": downstream of vertex " << v;

  const std::vector<TimedPath> cold_paths = sta.k_critical_paths(cold, 8);
  const std::vector<TimedPath> warm_paths = inc.k_critical_paths(8);
  ASSERT_EQ(warm_paths.size(), cold_paths.size()) << when;
  for (std::size_t p = 0; p < cold_paths.size(); ++p) {
    EXPECT_TRUE(same_bits(warm_paths[p].delay_ps, cold_paths[p].delay_ps))
        << when << ": path " << p;
    EXPECT_EQ(warm_paths[p].points, cold_paths[p].points)
        << when << ": path " << p;
  }

  // Slacks over the maintained state must match the cold definition bit
  // for bit, at the current critical delay as tc.
  const double tc = cold.critical_delay_ps;
  const std::vector<double> cold_slack = sta.slacks(cold, tc);
  const std::vector<double>& warm_slack = inc.slacks(tc);
  ASSERT_EQ(warm_slack.size(), cold_slack.size()) << when;
  for (std::size_t i = 0; i < cold_slack.size(); ++i)
    EXPECT_TRUE(same_bits(warm_slack[i], cold_slack[i]))
        << when << ": slack of node " << i;

  // The built-in checker must agree (it throws on divergence).
  EXPECT_NO_THROW(inc.check_against_full()) << when;
}

/// A random realisable drive for `id`.
double random_drive(const Netlist& nl, util::Rng& rng) {
  const double lo = nl.lib().wmin_um();
  const double hi = nl.lib().wmax_um();
  return lo + (hi - lo) * rng.uniform();
}

struct BackendCase {
  const char* label;
  const DelayModel& dm;
};

class Backends {
 public:
  explicit Backends(const liberty::Library& lib)
      : cf_(lib), tm_(TableModel::characterize(cf_)) {}
  std::vector<BackendCase> cases() const {
    return {{"closed-form", cf_}, {"table", tm_}};
  }

 private:
  ClosedFormModel cf_;
  TableModel tm_;
};

liberty::Library test_lib() {
  return liberty::Library(process::Technology::cmos025());
}

// ----- cold runs --------------------------------------------------------------

TEST(IncrementalSta, ColdRunMatchesSta) {
  const liberty::Library lib = test_lib();
  const Backends backends(lib);
  for (const char* name : {"c17", "c432", "c880"}) {
    for (const BackendCase& bc : backends.cases()) {
      Netlist nl = netlist::make_benchmark(lib, name);
      IncrementalSta inc(nl, bc.dm);
      inc.run_full();
      expect_bit_identical(nl, bc.dm, inc, name);
    }
  }
}

TEST(IncrementalSta, ResultBeforeRunThrows) {
  const liberty::Library lib = test_lib();
  const ClosedFormModel cf(lib);
  Netlist nl = netlist::make_benchmark(lib, "c17");
  IncrementalSta inc(nl, cf);
  EXPECT_FALSE(inc.has_result());
  EXPECT_THROW(inc.result(), std::logic_error);
  EXPECT_THROW(inc.downstream(), std::logic_error);
}

TEST(IncrementalSta, UpdateWithoutRunFullRunsCold) {
  const liberty::Library lib = test_lib();
  const ClosedFormModel cf(lib);
  Netlist nl = netlist::make_benchmark(lib, "c17");
  IncrementalSta inc(nl, cf);
  inc.update({});  // falls back to run_full
  expect_bit_identical(nl, cf, inc, "update-before-run");
}

// ----- no-op updates ----------------------------------------------------------

TEST(IncrementalSta, NoOpUpdateKeepsResult) {
  const liberty::Library lib = test_lib();
  const ClosedFormModel cf(lib);
  Netlist nl = netlist::make_benchmark(lib, "c432");
  IncrementalSta inc(nl, cf);
  inc.run_full();

  // Empty dirty set, and a dirty set whose "mutation" wrote back the
  // identical drive: both must leave the state bit-identical.
  inc.update({});
  expect_bit_identical(nl, cf, inc, "empty dirty set");

  const NodeId g = nl.gates().front();
  nl.set_drive(g, nl.drive(g));
  const std::vector<NodeId> dirty{g};
  inc.update(dirty);
  expect_bit_identical(nl, cf, inc, "identical-size write-back");
}

// ----- fuzz: random resizes ---------------------------------------------------

TEST(IncrementalSta, ResizeFuzzBitIdenticalBothBackends) {
  const liberty::Library lib = test_lib();
  const Backends backends(lib);
  for (const char* name : {"c17", "c432", "c880"}) {
    for (const BackendCase& bc : backends.cases()) {
      SCOPED_TRACE(std::string(name) + " / " + bc.label);
      Netlist nl = netlist::make_benchmark(lib, name);
      const std::vector<NodeId> gates = nl.gates();
      IncrementalSta inc(nl, bc.dm);
      inc.run_full();

      util::Rng rng(0xC0FFEEu);
      const int steps = nl.size() > 100 ? 12 : 25;
      for (int step = 0; step < steps; ++step) {
        const std::size_t k =
            static_cast<std::size_t>(rng.uniform_int(1, 4));
        std::vector<NodeId> dirty;
        for (std::size_t i = 0; i < k; ++i) {
          const NodeId g = gates[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(gates.size()) - 1))];
          nl.set_drive(g, random_drive(nl, rng));
          dirty.push_back(g);  // duplicates allowed by contract
        }
        inc.update(dirty);
        expect_bit_identical(nl, bc.dm, inc, "resize step");
        if (HasFatalFailure()) return;
      }
    }
  }
}

// ----- fuzz: buffer insertion + resizes ---------------------------------------

TEST(IncrementalSta, BufferAndResizeFuzzBitIdenticalBothBackends) {
  const liberty::Library lib = test_lib();
  const Backends backends(lib);
  for (const char* name : {"c17", "c432", "c880"}) {
    for (const BackendCase& bc : backends.cases()) {
      SCOPED_TRACE(std::string(name) + " / " + bc.label);
      Netlist nl = netlist::make_benchmark(lib, name);
      IncrementalSta inc(nl, bc.dm);
      inc.run_full();

      util::Rng rng(0xBEEFu);
      const int steps = nl.size() > 100 ? 8 : 16;
      for (int step = 0; step < steps; ++step) {
        const std::vector<NodeId> gates = nl.gates();  // grows as we insert
        if (rng.uniform() < 0.5) {
          // Insert a buffer that captures a strict subset of a multi-sink
          // net (the shield pass's edit shape), then size it.
          NodeId driver = netlist::kNoNode;
          for (int tries = 0; tries < 50; ++tries) {
            const NodeId cand = gates[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(gates.size()) - 1))];
            if (nl.fanouts(cand).size() >= 2) {
              driver = cand;
              break;
            }
          }
          if (driver == netlist::kNoNode) continue;
          const std::vector<NodeId> sinks = nl.fanouts(driver);
          std::vector<NodeId> moved;
          for (NodeId s : sinks)
            if (moved.empty() || rng.uniform() < 0.5) moved.push_back(s);
          if (moved.size() == sinks.size()) moved.pop_back();
          if (moved.empty()) continue;
          const NodeId buf = nl.insert_buffer(
              driver, liberty::CellKind::Buf,
              nl.fresh_name(nl.node(driver).name + "_fz"), moved);
          nl.set_drive(buf, random_drive(nl, rng));
          std::vector<NodeId> dirty = moved;
          dirty.push_back(driver);
          dirty.push_back(buf);
          inc.update(dirty);
        } else {
          const NodeId g = gates[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(gates.size()) - 1))];
          nl.set_drive(g, random_drive(nl, rng));
          const std::vector<NodeId> dirty{g};
          inc.update(dirty);
        }
        expect_bit_identical(nl, bc.dm, inc, "mutation step");
        if (HasFatalFailure()) return;
      }
    }
  }
}

// ----- structural growth: appended PIs and gates ------------------------------

TEST(IncrementalSta, AppendedInputAndGateBitIdentical) {
  const liberty::Library lib = test_lib();
  const ClosedFormModel cf(lib);
  Netlist nl = netlist::make_benchmark(lib, "c17");
  IncrementalSta inc(nl, cf);
  inc.run_full();

  // Grow the netlist: a fresh PI feeding a new output gate that also
  // loads an existing gate (whose fanout set therefore changes).
  const NodeId x = nl.gates().front();
  const NodeId p = nl.add_input("p_new");
  const NodeId g = nl.add_gate(liberty::CellKind::Nand2, "g_new", {p, x});
  nl.mark_output(g, 25.0);

  const std::vector<NodeId> dirty{p, g, x};
  inc.update(dirty);
  expect_bit_identical(nl, cf, inc, "appended PI + gate");
}

// ----- critical path reconstruction -------------------------------------------

TEST(IncrementalSta, CriticalPathMatchesColdAfterUpdates) {
  const liberty::Library lib = test_lib();
  const ClosedFormModel cf(lib);
  Netlist nl = netlist::make_benchmark(lib, "c432");
  const std::vector<NodeId> gates = nl.gates();
  IncrementalSta inc(nl, cf);
  inc.run_full();

  util::Rng rng(7u);
  for (int step = 0; step < 10; ++step) {
    const NodeId g = gates[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(gates.size()) - 1))];
    nl.set_drive(g, random_drive(nl, rng));
    const std::vector<NodeId> dirty{g};
    inc.update(dirty);

    const Sta sta(nl, cf);
    const StaResult cold = sta.run();
    const TimedPath a = inc.critical_path();
    const TimedPath b = sta.critical_path(cold);
    EXPECT_TRUE(same_bits(a.delay_ps, b.delay_ps));
    EXPECT_EQ(a.points, b.points);
  }
}

// ----- slacks across tc changes -----------------------------------------------

// Slacks are a map over the maintained bounds at whatever tc is asked.
// Interleave resizes with queries at several targets and demand bitwise
// identity with the cold definition for every one.
TEST(IncrementalSta, SlacksAtVaryingTcBitIdentical) {
  const liberty::Library lib = test_lib();
  const Backends backends(lib);
  for (const char* name : {"c17", "c432"}) {
    for (const BackendCase& bc : backends.cases()) {
      SCOPED_TRACE(std::string(name) + " / " + bc.label);
      Netlist nl = netlist::make_benchmark(lib, name);
      const std::vector<NodeId> gates = nl.gates();
      IncrementalSta inc(nl, bc.dm);
      inc.run_full();

      util::Rng rng(0x51ACu);
      for (int step = 0; step < 10; ++step) {
        const NodeId g = gates[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(gates.size()) - 1))];
        nl.set_drive(g, random_drive(nl, rng));
        const std::vector<NodeId> dirty{g};
        inc.update(dirty);

        const Sta sta(nl, bc.dm);
        const StaResult cold = sta.run();
        for (const double ratio : {0.8, 1.0, 1.25}) {
          const double tc = ratio * cold.critical_delay_ps;
          const std::vector<double> want = sta.slacks(cold, tc);
          const std::vector<double>& got = inc.slacks(tc);
          ASSERT_EQ(got.size(), want.size());
          for (std::size_t i = 0; i < want.size(); ++i)
            EXPECT_TRUE(same_bits(got[i], want[i]))
                << "step " << step << " tc-ratio " << ratio << " node " << i;
          if (HasFatalFailure()) return;
        }
      }
    }
  }
}

// ----- the maintained critical endpoint --------------------------------------

TEST(IncrementalSta, CriticalEndpointMatchesColdThroughTies) {
  // Two mirror-image cones whose PO arrivals tie bitwise: the cold scan
  // breaks the tie toward the smaller node id, so every edit that raises,
  // lowers or restores one cone moves the endpoint across the tie — the
  // cases update() folds (a moved PO beats a steady endpoint) and the
  // cases it must rescan (the endpoint itself got faster).
  const liberty::Library lib = test_lib();
  const Backends backends(lib);
  for (const BackendCase& bc : backends.cases()) {
    SCOPED_TRACE(bc.label);
    Netlist nl(lib);
    const NodeId a = nl.add_input("a");
    const NodeId b = nl.add_input("b");
    const NodeId a1 = nl.add_gate(liberty::CellKind::Inv, "a1", {a});
    const NodeId b1 = nl.add_gate(liberty::CellKind::Inv, "b1", {b});
    const NodeId a2 = nl.add_gate(liberty::CellKind::Inv, "a2", {a1});
    const NodeId b2 = nl.add_gate(liberty::CellKind::Inv, "b2", {b1});
    // A longer side chain off `a` whose end is not (yet) a PO.
    NodeId late = a;
    for (int i = 0; i < 4; ++i)
      late = nl.add_gate(liberty::CellKind::Inv, "y" + std::to_string(i),
                         {late});
    const double mid = 2.0 * lib.wmin_um();
    for (NodeId g : nl.gates()) nl.set_drive(g, mid);
    const double po_load = 20.0 * lib.cref_ff();
    nl.mark_output(a2, po_load);
    nl.mark_output(b2, po_load);

    IncrementalSta inc(nl, bc.dm);
    const StaResult& r = inc.run_full();
    for (Edge e : {Edge::Rise, Edge::Fall})
      ASSERT_TRUE(same_bits(r.arrival(a2, e), r.arrival(b2, e)));
    ASSERT_EQ(r.critical_endpoint.node, a2);

    auto edit = [&](NodeId g, const char* what, NodeId expect_node) {
      const NodeId dirty[] = {g};
      inc.update(dirty);
      const StaResult cold = Sta(nl, bc.dm).run();
      EXPECT_TRUE(same_bits(r.critical_delay_ps, cold.critical_delay_ps))
          << what;
      EXPECT_EQ(r.critical_endpoint, cold.critical_endpoint) << what;
      EXPECT_EQ(r.critical_endpoint.node, expect_node) << what;
      EXPECT_NO_THROW(inc.check_against_full()) << what;
    };
    const int hvt = lib.tech().find_vt_class("hvt");
    ASSERT_GT(hvt, 0);

    // Vt flips on the tied endpoints.
    nl.set_vt_class(b2, hvt);
    edit(b2, "raise the losing cone (vt)", b2);
    nl.set_vt_class(b2, 0);
    edit(b2, "restore it: the endpoint got faster", a2);
    nl.set_vt_class(a2, hvt);
    edit(a2, "raise the winning cone (vt)", a2);
    nl.set_vt_class(a2, 0);
    edit(a2, "restore the winner", a2);

    // Resizes: a weaker last stage on its PO load is slower, a stronger
    // one faster.
    nl.set_drive(b2, lib.wmin_um());
    edit(b2, "raise the losing cone (size)", b2);
    nl.set_drive(b2, 4.0 * mid);
    edit(b2, "lower the losing cone", a2);
    nl.set_drive(b2, mid);
    edit(b2, "restore the losing cone", a2);
    nl.set_drive(a2, 4.0 * mid);
    edit(a2, "lower the winning cone", b2);
    nl.set_drive(a2, mid);
    edit(a2, "restore the winning cone", a2);

    // A late node that becomes a PO between updates is the new endpoint.
    nl.mark_output(late, po_load);
    edit(late, "mark a late node as PO", late);
    if (HasFatalFailure()) return;
  }
}

// ----- fuzz: every structural edit of the pipeline ---------------------------

double counter(const char* name) {
  const util::Json snap = obs::Registry::global().snapshot_json();
  const util::Json* v = snap.find("counters")->find(name);
  return v ? v->as_number() : 0.0;
}

NodeId pick(const std::vector<NodeId>& ids, util::Rng& rng) {
  return ids[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(ids.size()) - 1))];
}

/// A gate driving at least `min_sinks` pins, or kNoNode.
NodeId pick_driver(const Netlist& nl, util::Rng& rng, std::size_t min_sinks) {
  const std::vector<NodeId> gates = nl.gates();
  for (int tries = 0; tries < 50; ++tries) {
    const NodeId cand = pick(gates, rng);
    if (nl.fanouts(cand).size() >= min_sinks) return cand;
  }
  return netlist::kNoNode;
}

/// Appends a chain of `len` buffers on `driver`: the first captures all
/// of its sinks, each later one is inserted between `driver` and the
/// previous buffer, so every placement halves the same position gap (and
/// a newer node becomes the fanin of an older one). `per_step` runs one
/// update per insertion; otherwise the whole chain is one batch.
void insert_chain(Netlist& nl, IncrementalSta& inc, NodeId driver, int len,
                  bool per_step) {
  std::vector<NodeId> dirty = nl.fanouts(driver);
  dirty.push_back(driver);
  NodeId prev = nl.insert_buffer(driver, liberty::CellKind::Buf,
                                 nl.fresh_name("ch"));
  dirty.push_back(prev);
  for (int i = 1; i < len; ++i) {
    if (per_step) {
      inc.update(dirty);
      dirty.clear();
    }
    const NodeId buf = nl.insert_buffer(driver, liberty::CellKind::Buf,
                                        nl.fresh_name("ch"), {prev});
    dirty.push_back(driver);
    dirty.push_back(buf);
    dirty.push_back(prev);  // its fanin moved to `buf`
    prev = buf;
  }
  inc.update(dirty);
}

TEST(IncrementalStructuralFuzz, MixedEditsBitIdenticalBothBackends) {
  const liberty::Library lib = test_lib();
  const Backends backends(lib);
  for (const char* name : {"c17", "c432", "c880"}) {
    for (const BackendCase& bc : backends.cases()) {
      SCOPED_TRACE(std::string(name) + " / " + bc.label);
      Netlist nl = netlist::make_benchmark(lib, name);
      const int n_vt = static_cast<int>(lib.tech().n_vt_classes());
      util::Rng rng(0x57A7u);
      // No built-in circuit has XOR/XNOR (four arcs per pin); recast some
      // NAND2s — timing does not read the logic function.
      for (NodeId g : nl.gates())
        if (nl.node(g).kind == liberty::CellKind::Nand2 && rng.uniform() < 0.3)
          nl.replace_cell(g, rng.uniform() < 0.5 ? liberty::CellKind::Xor2
                                                 : liberty::CellKind::Xnor2);
      IncrementalSta inc(nl, bc.dm);
      inc.run_full();

      const int steps = nl.size() > 100 ? 14 : 24;
      for (int step = 0; step < steps; ++step) {
        const int op = static_cast<int>(rng.uniform_int(0, 5));
        std::string what;
        if (op == 0) {
          what = "shield buffer";
          const NodeId driver = pick_driver(nl, rng, 2);
          if (driver == netlist::kNoNode) continue;
          const std::vector<NodeId> sinks = nl.fanouts(driver);
          std::vector<NodeId> moved;
          for (NodeId s : sinks)
            if (moved.empty() || rng.uniform() < 0.5) moved.push_back(s);
          if (moved.size() == sinks.size()) moved.pop_back();
          const NodeId buf = nl.insert_buffer(
              driver, liberty::CellKind::Buf, nl.fresh_name("sh"), moved);
          nl.set_drive(buf, random_drive(nl, rng));
          std::vector<NodeId> dirty = moved;
          dirty.push_back(driver);
          dirty.push_back(buf);
          inc.update(dirty);
        } else if (op == 1) {
          what = "buffer chain";
          const NodeId driver = pick_driver(nl, rng, 1);
          if (driver == netlist::kNoNode) continue;
          insert_chain(nl, inc, driver,
                       static_cast<int>(rng.uniform_int(2, 5)),
                       rng.uniform() < 0.5);
        } else if (op == 2) {
          what = "inverter pair + cancel";
          // Plant an Inv -> Inv pair behind a driver (capture-all twice,
          // PO role included), then cancel it as the cleanup pass does.
          const NodeId driver = pick_driver(nl, rng, 1);
          if (driver == netlist::kNoNode) continue;
          std::vector<NodeId> dirty = nl.fanouts(driver);
          const NodeId i1 = nl.insert_buffer(driver, liberty::CellKind::Inv,
                                             nl.fresh_name("i"));
          const NodeId i2 = nl.insert_buffer(i1, liberty::CellKind::Inv,
                                             nl.fresh_name("i"));
          dirty.insert(dirty.end(), {driver, i1, i2});
          inc.update(dirty);
          expect_bit_identical(nl, bc.dm, inc, "planted inverter pair");
          if (HasFatalFailure()) return;
          std::vector<NodeId> rewired;
          ASSERT_GT(core::cancel_inverter_pairs(nl, &rewired), 0u);
          inc.update(rewired);
        } else if (op == 3) {
          what = "resize";
          const std::vector<NodeId> gates = nl.gates();
          std::vector<NodeId> dirty;
          for (int i = 0; i < 3; ++i) {
            const NodeId g = pick(gates, rng);
            nl.set_drive(g, random_drive(nl, rng));
            dirty.push_back(g);
          }
          inc.update(dirty);
        } else if (op == 4) {
          what = "rewire to a later driver";
          // Re-point one pin of `s` at a gate that comes after it in the
          // topological order but outside its fanout cone (so the graph
          // stays acyclic): the new edge runs against the old positions.
          const NodeId s = pick(nl.gates(), rng);
          std::vector<char> cone(nl.size(), 0);
          std::vector<NodeId> stack{s};
          cone[static_cast<std::size_t>(s)] = 1;
          while (!stack.empty()) {
            const NodeId id = stack.back();
            stack.pop_back();
            for (NodeId g : nl.fanouts(id))
              if (!cone[static_cast<std::size_t>(g)]) {
                cone[static_cast<std::size_t>(g)] = 1;
                stack.push_back(g);
              }
          }
          const std::vector<NodeId>& topo = nl.topo_order();
          const auto at = std::find(topo.begin(), topo.end(), s);
          std::vector<NodeId> later;
          for (auto it = at + 1; it != topo.end(); ++it)
            if (!cone[static_cast<std::size_t>(*it)] && nl.is_gate(*it))
              later.push_back(*it);
          if (later.empty()) continue;
          const NodeId y = pick(later, rng);
          const NodeId f = nl.node(s).fanins.front();
          nl.rewire_fanin(s, f, y);
          const NodeId dirty[] = {s, f, y};
          inc.update(dirty);
        } else {
          what = "vt flip";
          const NodeId g = pick(nl.gates(), rng);
          nl.set_vt_class(g, (nl.vt_class(g) + 1) % n_vt);
          const NodeId dirty[] = {g};
          inc.update(dirty);
        }
        expect_bit_identical(nl, bc.dm, inc, what.c_str());
        if (HasFatalFailure()) return;
      }
    }
  }
}

TEST(IncrementalStructuralFuzz, ExhaustedGapsRenumberAndStayExact) {
  const liberty::Library lib = test_lib();
  const Backends backends(lib);
  for (const BackendCase& bc : backends.cases()) {
    SCOPED_TRACE(bc.label);
    Netlist nl = netlist::make_benchmark(lib, "c432");
    IncrementalSta inc(nl, bc.dm);
    inc.run_full();
    inc.update({});  // numbers the positions
    expect_bit_identical(nl, bc.dm, inc, "numbered");

    // 2^20 spacing leaves room for 19 halvings of the tightest gap: a
    // 16-long chain, one update per buffer, fits without a renumber; a
    // 24-long one must hit the fallback.
    util::Rng rng(0x6A9u);
    const double before = counter("sta.position_renumbers");
    insert_chain(nl, inc, pick_driver(nl, rng, 2), 16, /*per_step=*/true);
    EXPECT_EQ(counter("sta.position_renumbers"), before);
    expect_bit_identical(nl, bc.dm, inc, "16-chain, per-step updates");
    if (HasFatalFailure()) return;
    insert_chain(nl, inc, pick_driver(nl, rng, 2), 24, /*per_step=*/true);
    EXPECT_GT(counter("sta.position_renumbers"), before);
    expect_bit_identical(nl, bc.dm, inc, "24-chain, per-step updates");
    if (HasFatalFailure()) return;

    // One batch in which a newer buffer feeds an older one: id order is
    // not topological, so the edge check must catch it.
    insert_chain(nl, inc, pick_driver(nl, rng, 2), 4, /*per_step=*/false);
    expect_bit_identical(nl, bc.dm, inc, "4-chain, one batch");
    if (HasFatalFailure()) return;
  }
}

TEST(IncrementalStructuralFuzz, ShieldPassNeedsNoRenumber) {
  // The shield pass's edits (a buffer between a driver and some of its
  // sinks) fit the gap between the two: no renumber.
  const liberty::Library lib = test_lib();
  const ClosedFormModel cf(lib);
  Netlist nl = netlist::make_benchmark(lib, "c880");
  IncrementalSta inc(nl, cf);
  inc.run_full();
  core::FlimitTable table;
  const double before = counter("sta.position_renumbers");
  const core::ShieldReport r =
      core::shield_high_fanout_nets(nl, cf, table, {}, &inc);
  ASSERT_GT(r.buffers_inserted, 1u);
  EXPECT_EQ(counter("sta.position_renumbers"), before);
  expect_bit_identical(nl, cf, inc, "after shield pass");
}

}  // namespace
