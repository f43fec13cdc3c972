#pragma once
// Static timing analysis over a Netlist with the closed-form delay model.
//
// Per-edge (rise/fall) arrival times and transition times are propagated in
// topological order; phase-definite cells (INV/NAND/NOR/AOI/OAI invert,
// BUF does not) constrain which input edge causes which output edge, and
// XOR/XNOR conservatively consider both. Backtracking pointers reconstruct
// the critical path, and a K-longest-paths enumeration (in the spirit of
// Yen/Du/Ghanta, DAC'89 — ref [11] of the paper) supplies the "user
// specified limited number of paths" POPS optimises.
//
// Arc-delay cache: the forward kernel (compute_node) is the only place a
// DelayModel is evaluated. It stores every gate arc it evaluates —
// delay(cell, out, slew(fanin, ein), cin, cload) * Vt derate for each
// (pin, output edge, causing input edge), reachable or not — in
// StaResult::arc_ps. The backward sweep (downstream bounds) and the
// K-paths edge weights read those arcs instead of re-evaluating the
// model: the identical expression on identical operands, so results are
// bit-identical to recomputing. Arcs are valid only for the result that
// wrote them, i.e. for the netlist state that result was computed on; a
// result kept current by IncrementalSta keeps its arcs current too.
//
// One backward state: the downstream bound vector `down` (longest delay
// from a vertex to any PO) fixes every required time exactly, since
// required(n,e) = tc - down(n,e). Slacks are therefore an O(N) map over
// `down` and the arrivals (compute_slack), at any tc, with no second
// backward sweep and no delay-model call.

#include <array>
#include <cstddef>
#include <utility>
#include <vector>

#include "pops/netlist/netlist.hpp"
#include "pops/timing/delay_model.hpp"

namespace pops::timing {

/// A (node, output-edge) pair — one vertex of the timing graph.
struct PathPoint {
  netlist::NodeId node = netlist::kNoNode;
  Edge edge = Edge::Rise;
  bool operator==(const PathPoint&) const = default;
};

/// One complete PI->PO path with its total delay.
struct TimedPath {
  std::vector<PathPoint> points;  ///< PI first, PO last
  double delay_ps = 0.0;
};

/// Options for the analysis.
struct StaOptions {
  /// Transition time assumed at every primary input; <= 0 selects the
  /// model's default (FO1 reference inverter).
  double pi_slew_ps = -1.0;

  /// Level-parallel sweeps: > 1 partitions forward/backward propagation
  /// by topological level and fans each level out across
  /// util::ThreadPool workers. Per-node writes are disjoint and a level
  /// reads only finished earlier (forward) / deeper (backward) levels,
  /// so results are bitwise-identical to the sequential path at any
  /// worker count (test-enforced).
  std::size_t level_parallel_workers = 1;

  /// Netlists below this node count keep the sequential path even when
  /// workers > 1: per-level fan-out overhead dominates on small circuits
  /// (all ISCAS benchmarks stay sequential at the default).
  std::size_t level_parallel_min_nodes = 50000;
};

/// Input edges of a cell that can cause one output edge: one edge for
/// phase-definite cells, both for XOR/XNOR. A fixed-capacity value, so the
/// per-arc loops allocate nothing.
struct CauseEdges {
  std::array<Edge, 2> edges{};
  std::size_t count = 0;

  const Edge* begin() const noexcept { return edges.data(); }
  const Edge* end() const noexcept { return edges.data() + count; }
  bool contains(Edge e) const noexcept {
    return edges[0] == e || (count == 2 && edges[1] == e);
  }
};

/// Full analysis result.
struct StaResult {
  /// Arc slots per node: 4 pins x 2 output edges, or XOR/XNOR's 2 pins x
  /// 2 output edges x 2 causing input edges (see Sta::arc_slot).
  static constexpr std::size_t kArcSlots = 8;

  /// Arrival time per node per edge (index with `idx(Edge)`); -inf if the
  /// (node, edge) vertex is unreachable.
  std::vector<std::array<double, 2>> arrival_ps;
  /// Output transition time per node per edge.
  std::vector<std::array<double, 2>> slew_ps;
  /// Which (fanin, fanin-edge) realised the max arrival, for backtracking.
  std::vector<std::array<PathPoint, 2>> prev;
  /// Gate arc delays (ps, Vt-derated) per node, at Sta::arc_slot(cell,
  /// pin, out, ein); unused slots and PI rows are 0.
  std::vector<std::array<double, kArcSlots>> arc_ps;

  double critical_delay_ps = 0.0;
  PathPoint critical_endpoint;

  static std::size_t idx(Edge e) noexcept { return e == Edge::Rise ? 0 : 1; }

  double arrival(netlist::NodeId n, Edge e) const {
    return arrival_ps[static_cast<std::size_t>(n)][idx(e)];
  }
  double slew(netlist::NodeId n, Edge e) const {
    return slew_ps[static_cast<std::size_t>(n)][idx(e)];
  }
};

class IncrementalSta;

class Sta {
 public:
  Sta(const netlist::Netlist& nl, const DelayModel& dm, StaOptions opt = {});

  /// Run forward propagation; O(E) in the netlist size.
  StaResult run() const;

  /// Reconstruct the critical path from a completed result.
  TimedPath critical_path(const StaResult& result) const;

  /// The K longest PI->PO paths, in non-increasing delay order. Edge delays
  /// are frozen at the slews of `result` (standard K-critical-paths
  /// approximation). Returns fewer than k paths if the graph has fewer.
  std::vector<TimedPath> k_critical_paths(const StaResult& result,
                                          std::size_t k) const;

  /// Longest remaining delay (ps) from each timing-graph vertex
  /// (vertex = 2*node + StaResult::idx(edge)) to any PO, at the slews of
  /// `result`: 0 at a PO vertex itself, -inf where no PO is reachable.
  /// This is the bound function of the K-paths enumeration; IncrementalSta
  /// maintains these values across netlist edits instead of recomputing
  /// the whole vector per round.
  std::vector<double> downstream_delays(const StaResult& result) const;

  /// K-paths enumeration with a precomputed bound vector (must equal
  /// downstream_delays(result) — bit-identical results are only guaranteed
  /// then). The two-argument overload computes `down` and forwards here.
  std::vector<TimedPath> k_critical_paths(const StaResult& result,
                                          std::size_t k,
                                          const std::vector<double>& down) const;

  /// Per-node slack against a required time `tc_ps` at every PO, for the
  /// worse edge: slack(n) = min over reachable edges e of
  /// ((tc_ps - down[2n+e]) - arrival(n,e)), with down =
  /// downstream_delays(result). +inf where no PO constrains the node.
  std::vector<double> slacks(const StaResult& result, double tc_ps) const;

  /// Input edges of `cell` that can cause output edge `out`.
  static CauseEdges cause_edges(const liberty::Cell& cell, Edge out) noexcept;

  /// Slot of arc (pin, out, ein) of `cell` in a StaResult::arc_ps row.
  static std::size_t arc_slot(const liberty::Cell& cell, std::size_t pin,
                              Edge out, Edge ein) noexcept;

 private:
  friend class IncrementalSta;  // reuses the per-node kernels below

  /// Recompute slew/arrival/prev/arcs of gate `id` (both edges) from the
  /// fanin values in `r` — the per-node kernel of run(), and the only
  /// writer of arc_ps. Deterministic in its inputs, so replaying it on an
  /// unchanged neighbourhood is bit-identical.
  void compute_node(netlist::NodeId id, StaResult& r) const;

  /// Downstream longest delay of one vertex from its fanouts' `down`
  /// values and cached arcs — the per-vertex kernel of
  /// downstream_delays().
  double compute_down(netlist::NodeId id, Edge e, const StaResult& result,
                      const std::vector<double>& down) const;

  /// slack(id) from its arrivals and downstream bounds — the one slack
  /// definition, shared by slacks() and IncrementalSta::slacks().
  static double compute_slack(netlist::NodeId id, const StaResult& result,
                              const std::vector<double>& down,
                              double tc_ps) noexcept;

  /// Scan POs for the critical delay/endpoint; throws when no PO is
  /// reachable (same contract as run()).
  void finalize_critical(StaResult& r) const;

  /// True when this netlist/options pair takes the level-parallel path.
  bool level_parallel() const noexcept;

  /// All nodes bucketed by gate depth (depth 0 = PIs), each bucket in
  /// topo order. Forward sweeps walk buckets ascending, backward sweeps
  /// descending; within a bucket nodes are independent.
  std::vector<std::vector<netlist::NodeId>> depth_levels() const;

  const netlist::Netlist* nl_;
  const DelayModel* dm_;
  StaOptions opt_;
};

}  // namespace pops::timing
