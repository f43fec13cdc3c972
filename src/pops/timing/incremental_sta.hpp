#pragma once
// Incremental static timing analysis.
//
// The Fig. 7 protocol re-verifies circuit timing after every path-sizing
// round, and the shield pass re-runs STA after every inserted buffer; on
// big netlists those full O(E) re-runs dominate pipeline cost (the
// ROADMAP's "Batch STA" item). A sizing round, however, only touches a
// handful of gates, and timing changes propagate from exactly two places:
//
//   * forward  — arrivals/slews of the resized gates, their fanin drivers
//     (whose load includes the resized input capacitance), and the fanout
//     cone of whatever actually moved;
//   * backward — the "downstream longest delay" bound values that the
//     K-critical-paths enumeration prunes with and that fix every slack
//     (required = tc - down), over the fan-in cone of the same
//     neighbourhood.
//
// IncrementalSta keeps the last StaResult (arrivals, slews, `prev`
// backtracking state, cached arc delays) plus the downstream bound vector
// alive between rounds, accepts the set of nodes whose
// sizes/loads/structure changed, and repropagates only the affected
// cones — with results **bit-identical** to a cold Sta::run() /
// Sta::downstream_delays(). Identity holds because
// update() replays the exact per-node kernels of Sta (compute_node /
// compute_down: same operations, same operand order) on neighbourhoods
// whose inputs changed, and skips nodes whose inputs are provably
// untouched; it is assert-checked against a cold run in debug builds and
// fuzz-proven in tests/test_incremental_sta.cpp under both delay-model
// backends.
//
// Dirty-set contract (see update()): the caller lists every node whose
//   * drive (size) or Vt class changed,
//   * fanin list changed (rewired sinks),
//   * fanout set changed (a driver whose sinks were captured by a buffer),
//   * wire cap / PO-load / PO-flag changed, or
//   * that was newly appended (inserted buffers).
// IncrementalSta expands the set with the fanin drivers itself; edits
// that renumber or remove nodes (sweep_dead rebuilds) need a fresh
// run_full().
//
// The worklists are ordered by a topological position per node. Positions
// are numbered from Netlist::topo_order() 2^20 apart; an appended node is
// placed midway between its latest fanin and its earliest fanout, so a
// buffer insertion needs no topological re-sort. Every new or rewired
// edge ends at a dirty node (the contract lists both appended nodes and
// rewired sinks), so update() checks each fanin edge of each dirty node —
// O(dirty) — and renumbers from topo_order() only when an edge is out of
// order or no gap is left (counted by the `sta.position_renumbers`
// metric). The check is exhaustive under the contract, so callers no
// longer say whether an edit was structural.
//
// Critical endpoint: update() folds into the previous endpoint only the
// POs whose arrival bits changed plus the dirty POs, under the cold
// scan's order (a higher arrival wins; on a tie the smaller (node, edge),
// Rise before Fall). Every other PO kept its arrival and already lost to
// that endpoint, so the fold is exact while the old endpoint is still a
// PO whose arrival did not go down; otherwise update() rescans all POs
// like Sta::run (and throws the same way when none is reachable).
//
// The downstream bounds are only maintained once queried. A caller whose
// later decisions read nothing but the forward state (the multi-Vt walk
// reads critical_delay_ps per flip) calls release_downstream() to stop
// paying the backward pass; the next bound, slack or K-paths query
// rebuilds the bounds cold.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "pops/netlist/netlist.hpp"
#include "pops/timing/sta.hpp"

namespace pops::timing {

class IncrementalSta {
 public:
  IncrementalSta(const netlist::Netlist& nl, const DelayModel& dm,
                 StaOptions opt = {});

  /// Cold full propagation (exactly Sta::run; the downstream bounds are
  /// materialized on their first query); resets all incremental state.
  /// The returned reference stays valid — and is kept current — across
  /// subsequent update() calls.
  const StaResult& run_full();

  /// Re-propagate after netlist edits — resizes, Vt flips, inserted
  /// buffers and rewires alike. `dirty` lists the changed nodes (see the
  /// dirty-set contract above; duplicates and PIs are fine). Runs
  /// run_full() when no result exists yet.
  const StaResult& update(std::span<const netlist::NodeId> dirty);

  /// Drop all maintained state: the next update()/result-producing query
  /// falls back to a cold run_full(). For edits outside the dirty-set
  /// contract (sweep_dead renumbers ids) and for rebinding the engine to
  /// a rebuilt netlist at the same address.
  void invalidate() noexcept;

  /// Monotone counter bumped by run_full()/update()/invalidate(). Lets an
  /// owner sharing this engine across passes detect whether a pass
  /// reported its edits (revision moved) or left the engine stale.
  std::uint64_t revision() const noexcept { return revision_; }

  /// The maintained result. Throws std::logic_error before the first run.
  const StaResult& result() const;
  bool has_result() const noexcept { return valid_; }

  /// The downstream bound vector, == Sta::downstream_delays(result())
  /// (vertex = 2*node + StaResult::idx(edge)). Computed lazily on the
  /// first query — consumers that neither enumerate paths nor query
  /// slacks (initial-delay measurements) skip the O(E) bound sweep — and
  /// maintained incrementally by update() from then on (until
  /// release_downstream()).
  const std::vector<double>& downstream() const;

  /// Stop maintaining the downstream bounds: update() skips its backward
  /// pass until the next downstream()/slacks()/k_critical_paths() query
  /// rebuilds them cold (bit-identical to maintaining them).
  void release_downstream() noexcept;

  // ----- queries over the maintained state ------------------------------------

  TimedPath critical_path() const { return sta_.critical_path(result()); }

  /// K-critical-paths enumeration reusing the maintained downstream
  /// values, gated against re-enumeration: the previous path list is
  /// replayed verbatim when no update()/run_full() intervened and the
  /// same k is requested. The gate is exact, not heuristic — between
  /// reports the netlist is untouched by the dirty-set contract, and any
  /// reported edit can move an enumeration edge weight (through a sink's
  /// cin/cload) even when every maintained arrival/slew/bound stayed
  /// bit-identical, so "a report happened" is the precise invalidation
  /// condition. The returned reference stays valid (and untouched)
  /// across update() calls; the next actual enumeration overwrites it.
  const std::vector<TimedPath>& k_critical_paths(std::size_t k) const;

  /// Per-node slacks against `tc_ps`, == Sta::slacks(result(), tc_ps)
  /// bitwise: Sta::compute_slack mapped over the maintained arrivals and
  /// downstream() bounds. O(N) at any tc with no delay-model call (the
  /// first query also materializes the bounds). The returned vector is
  /// overwritten by the next slacks() call.
  const std::vector<double>& slacks(double tc_ps) const;

  /// The underlying (stateless) analyzer, for queries not wrapped above.
  const Sta& sta() const noexcept { return sta_; }

  // ----- verification ---------------------------------------------------------

  /// Compare the maintained state — arrivals, slews, `prev`, every cached
  /// arc delay, and the bound vector once queried (slacks are derived
  /// from these) — against a cold Sta::run() + downstream_delays(), and
  /// check that the positions are topological; throws std::logic_error
  /// on any bitwise difference or out-of-order edge. update() calls this
  /// automatically in debug builds (NDEBUG off); fuzz tests call it
  /// explicitly in release builds.
  void check_against_full() const;

 private:
  /// Number every node from topo_order(), kPosGap apart.
  void number_positions();
  /// Place nodes appended since the last update (ids >= old_n) between
  /// their neighbours, then check every fanin edge of the dirty nodes.
  /// False when an edge is out of order or no gap is left.
  bool place_positions(std::size_t old_n,
                       std::span<const netlist::NodeId> dirty);
  void grow_arrays(std::size_t n);
  /// Re-derive the critical delay/endpoint after a forward pass from the
  /// previous endpoint and the POs that may have moved (see the class
  /// comment); falls back to Sta::finalize_critical.
  void update_critical(std::span<const netlist::NodeId> po_moved);

  const netlist::Netlist* nl_;
  const DelayModel* dm_;
  Sta sta_;
  double pi_slew_ps_;

  StaResult res_;
  // Lazily materialized on the first downstream() query (mutable: the
  // query is logically const). Single-threaded by design, like Netlist's
  // lazy topological order.
  mutable std::vector<double> down_;
  mutable bool down_valid_ = false;

  // Output buffer of slacks(), reused across queries.
  mutable std::vector<double> slack_;

  // Last enumeration, replayed while no update()/run_full() intervenes
  // (see k_critical_paths).
  mutable std::vector<TimedPath> paths_;
  mutable std::size_t paths_k_ = 0;
  mutable bool paths_valid_ = false;

  /// node -> gapped topological position (see the class comment).
  std::vector<std::uint64_t> topo_pos_;
  bool positions_valid_ = false;  ///< numbered by the first update()

  // Scratch, reused across updates (all-false between calls); sized
  // together with topo_pos_.
  std::vector<char> in_heap_;
  std::vector<char> seed_mark_;

  bool valid_ = false;
  std::uint64_t revision_ = 0;
};

}  // namespace pops::timing
