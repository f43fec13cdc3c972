#include "pops/timing/incremental_sta.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <stdexcept>
#include <string>
#include <utility>

#include "pops/obs/metrics.hpp"
#include "pops/obs/trace.hpp"

namespace pops::timing {

using netlist::Netlist;
using netlist::NodeId;

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

/// Spacing of freshly numbered positions: room for 20 successive midpoint
/// placements between two neighbours before a renumber is needed.
constexpr std::uint64_t kPosGap = std::uint64_t{1} << 20;

/// Bitwise double comparison: the identity guarantee is "same bits as a
/// cold run", so the change test must distinguish what == would conflate
/// (±0.0) and not conflate what == would split (NaN never propagates as
/// "unchanged").
inline bool same_bits(double a, double b) noexcept {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

}  // namespace

IncrementalSta::IncrementalSta(const Netlist& nl, const DelayModel& dm,
                               StaOptions opt)
    : nl_(&nl), dm_(&dm), sta_(nl, dm, opt) {
  // Sta's constructor resolved a non-positive pi_slew to the model
  // default; mirror the resolved value for array initialization.
  pi_slew_ps_ = sta_.opt_.pi_slew_ps;
}

const StaResult& IncrementalSta::result() const {
  if (!valid_)
    throw std::logic_error("IncrementalSta: no result yet (call run_full)");
  return res_;
}

void IncrementalSta::invalidate() noexcept {
  valid_ = false;
  down_valid_ = false;
  paths_valid_ = false;
  positions_valid_ = false;
  ++revision_;
}

const std::vector<TimedPath>& IncrementalSta::k_critical_paths(
    std::size_t k) const {
  static const obs::Registry::Counter enumerated =
      obs::Registry::global().counter("sta.kpaths_enumerated");
  static const obs::Registry::Counter cached =
      obs::Registry::global().counter("sta.kpaths_cached");
  // Exact gate: update()/run_full() drop paths_valid_; between reports
  // the netlist is untouched (dirty-set contract), so the enumeration
  // inputs — structure, cin/cload, slews, bounds — are bit-identical and
  // the previous list IS the enumeration result. A different k is not
  // servable from the cache: the enumeration's pop budget scales with k,
  // so a k-prefix of a larger enumeration is not provably the k-run.
  if (paths_valid_ && paths_k_ == k) {
    cached.add();
    return paths_;
  }
  paths_ = sta_.k_critical_paths(result(), k, downstream());
  paths_k_ = k;
  paths_valid_ = true;
  enumerated.add();
  return paths_;
}

const std::vector<double>& IncrementalSta::slacks(double tc_ps) const {
  obs::Span span("sta/slack_full");
  const std::vector<double>& down = downstream();  // throws before a run
  slack_.resize(nl_->size());
  for (std::size_t i = 0; i < slack_.size(); ++i)
    slack_[i] = Sta::compute_slack(static_cast<NodeId>(i), res_, down, tc_ps);
  return slack_;
}

const std::vector<double>& IncrementalSta::downstream() const {
  if (!valid_)
    throw std::logic_error("IncrementalSta: no result yet (call run_full)");
  // Lazily computed on first query: consumers that neither enumerate
  // paths nor query slacks (initial-delay measurements) skip the O(E)
  // bound sweep entirely; once queried, update() maintains the vector.
  if (!down_valid_) {
    down_ = sta_.downstream_delays(res_);
    down_valid_ = true;
  }
  return down_;
}

void IncrementalSta::number_positions() {
  const auto& topo = nl_->topo_order();
  const std::size_t n = nl_->size();
  topo_pos_.assign(n, 0);
  for (std::size_t i = 0; i < topo.size(); ++i)
    topo_pos_[static_cast<std::size_t>(topo[i])] = (i + 1) * kPosGap;
  in_heap_.resize(n, 0);
  seed_mark_.resize(n, 0);
  positions_valid_ = true;
}

bool IncrementalSta::place_positions(std::size_t old_n,
                                     std::span<const NodeId> dirty) {
  const Netlist& nl = *nl_;
  const std::size_t n = nl.size();
  topo_pos_.resize(n, 0);
  in_heap_.resize(n, 0);
  seed_mark_.resize(n, 0);
  // In id order, a neighbour with a smaller id already has its position
  // (old nodes, and appended nodes placed earlier in this loop); the
  // others are left to the edge check below.
  for (std::size_t i = old_n; i < n; ++i) {
    const NodeId id = static_cast<NodeId>(i);
    std::uint64_t lo = 0;
    for (NodeId f : nl.node(id).fanins)
      if (static_cast<std::size_t>(f) < i)
        lo = std::max(lo, topo_pos_[static_cast<std::size_t>(f)]);
    std::uint64_t hi = lo + 2 * kPosGap;  // no placed fanout: open above
    bool bounded = false;
    for (NodeId g : nl.fanouts(id)) {
      if (static_cast<std::size_t>(g) >= i) continue;
      const std::uint64_t p = topo_pos_[static_cast<std::size_t>(g)];
      hi = bounded ? std::min(hi, p) : p;
      bounded = true;
    }
    if (hi <= lo || hi - lo < 2) return false;  // no gap left
    topo_pos_[i] = lo + (hi - lo) / 2;
  }
  auto in_order = [&](NodeId id) {
    const std::uint64_t p = topo_pos_[static_cast<std::size_t>(id)];
    for (NodeId f : nl.node(id).fanins)
      if (topo_pos_[static_cast<std::size_t>(f)] >= p) return false;
    return true;
  };
  // Appended nodes and rewired sinks are all dirty (the contract), so
  // every new edge ends at a dirty node.
  for (NodeId d : dirty)
    if (!in_order(d)) return false;
  return true;
}

void IncrementalSta::grow_arrays(std::size_t n) {
  // Appended nodes start exactly like run_full initializes them: gates
  // get computed before they are read (they are in the dirty set), and an
  // appended PI gets the zero arrival a cold run assigns to inputs.
  const std::size_t old = res_.arrival_ps.size();
  res_.arrival_ps.resize(n, {kNegInf, kNegInf});
  res_.slew_ps.resize(n, {pi_slew_ps_, pi_slew_ps_});
  res_.prev.resize(n, {PathPoint{}, PathPoint{}});
  res_.arc_ps.resize(n, {});
  for (std::size_t i = old; i < n; ++i)
    if (nl_->node(static_cast<NodeId>(i)).is_input)
      res_.arrival_ps[i] = {0.0, 0.0};
  if (down_valid_) down_.resize(2 * n, kNegInf);
  // Positions and the scratch flags are sized by update()'s placement.
}

const StaResult& IncrementalSta::run_full() {
  static const obs::Registry::Counter full_runs =
      obs::Registry::global().counter("sta.full_runs");
  full_runs.add();
  obs::Span span("sta/full");
  // Exactly a cold Sta::run(): the bound vector and the worklist
  // bookkeeping (positions, scratch flags) are materialized on first use,
  // so one-shot consumers (initial-delay measurements) pay nothing extra.
  res_ = sta_.run();
  down_valid_ = false;
  paths_valid_ = false;
  positions_valid_ = false;
  valid_ = true;
  ++revision_;
  return res_;
}

const StaResult& IncrementalSta::update(std::span<const NodeId> dirty) {
  if (!valid_) return run_full();

  // Cold-vs-incremental visibility: every update is counted and its
  // dirty-cone size binned, so a daemon's metrics snapshot shows how
  // much of the hot loop the incremental engine actually absorbs.
  static const obs::Registry::Counter updates =
      obs::Registry::global().counter("sta.updates");
  static const obs::Registry::Counter renumbers =
      obs::Registry::global().counter("sta.position_renumbers");
  static const obs::Registry::Counter forward_nodes =
      obs::Registry::global().counter("sta.forward_nodes");
  static const obs::Registry::Counter backward_nodes =
      obs::Registry::global().counter("sta.backward_nodes");
  static const obs::Registry::Histogram cone = obs::Registry::global()
      .histogram("sta.dirty_cone",
                 {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024});
  updates.add();
  cone.observe(static_cast<double>(dirty.size()));
  obs::Span span("sta/update");
  span.arg("dirty", static_cast<double>(dirty.size()));

  // Any reported edit can move an enumeration edge weight (through a
  // dirty sink's cin/cload) even when no maintained value changes bits,
  // so the path cache gates exactly on "a report happened".
  paths_valid_ = false;
  ++revision_;

  const std::size_t n = nl_->size();
  const std::size_t old_n = res_.arrival_ps.size();
  if (old_n != n) grow_arrays(n);
  if (!positions_valid_) {
    number_positions();  // first update after a cold run
  } else if (!place_positions(old_n, dirty)) {
    renumbers.add();
    number_positions();
  }

  // ----- seed set F = dirty ∪ fanins(dirty) ---------------------------------
  // A resize of d changes cin(d) and cpar(d); cin(d) loads every fanin
  // driver (their slew AND delay change), cpar(d) is part of d's own
  // load. So the nodes whose stage inputs (cin, cload) may have moved are
  // exactly F. Structural edits are covered by the dirty-set contract
  // (both endpoints of every rewire are listed).
  std::vector<NodeId> seeds;
  auto add_seed = [&](NodeId id) {
    const auto i = static_cast<std::size_t>(id);
    if (seed_mark_[i]) return;
    seed_mark_[i] = 1;
    seeds.push_back(id);
  };
  for (NodeId d : dirty) {
    add_seed(d);
    for (NodeId f : nl_->node(d).fanins) add_seed(f);
  }

  // ----- forward pass: arrivals / slews / prev ------------------------------
  // Worklist ordered by topological position, so every recomputed node
  // reads fanin values that are final for this update — recomputation
  // then replays Sta::compute_node on bit-identical inputs.
  using Pos = std::pair<std::uint64_t, NodeId>;
  std::priority_queue<Pos, std::vector<Pos>, std::greater<Pos>> fwd;
  auto push_fwd = [&](NodeId id) {
    const auto i = static_cast<std::size_t>(id);
    if (in_heap_[i] || nl_->node(id).is_input) return;
    in_heap_[i] = 1;
    fwd.emplace(topo_pos_[i], id);
  };
  for (NodeId id : seeds) push_fwd(id);

  // POs whose endpoint standing may have moved: arrival bits changed, or
  // listed dirty (a new PO flag, a buffer that captured a PO).
  std::vector<NodeId> po_moved;
  for (NodeId d : dirty)
    if (nl_->node(d).is_output) po_moved.push_back(d);

  std::vector<NodeId> slew_changed;
  std::size_t n_forward = 0;
  while (!fwd.empty()) {
    const NodeId id = fwd.top().second;
    fwd.pop();
    const auto i = static_cast<std::size_t>(id);
    in_heap_[i] = 0;

    const std::array<double, 2> old_arrival = res_.arrival_ps[i];
    const std::array<double, 2> old_slew = res_.slew_ps[i];
    sta_.compute_node(id, res_);
    ++n_forward;

    const bool slew_diff = !same_bits(res_.slew_ps[i][0], old_slew[0]) ||
                           !same_bits(res_.slew_ps[i][1], old_slew[1]);
    const bool arrival_diff =
        !same_bits(res_.arrival_ps[i][0], old_arrival[0]) ||
        !same_bits(res_.arrival_ps[i][1], old_arrival[1]);
    if (slew_diff) slew_changed.push_back(id);
    if (arrival_diff && nl_->node(id).is_output) po_moved.push_back(id);
    if (slew_diff || arrival_diff)
      for (NodeId g : nl_->fanouts(id)) push_fwd(g);
  }
  forward_nodes.add(static_cast<double>(n_forward));
  update_critical(po_moved);

  // ----- backward pass: downstream bounds -----------------------------------
  // down[f] reads, per fanout g of f: cin(g), cload(g) (changed ⊆ F, so
  // the readers are fanins(F)), slew(f) (changed = slew_changed), f's own
  // fanout set / PO flag (changed nodes are in the dirty set ⊆ F), and
  // down[g] (propagated below). Only maintained once a consumer has asked
  // for the bounds or slacks (down_valid_); other users skip it.
  if (down_valid_) {
    std::priority_queue<Pos> bwd;  // max position first = reverse topo
    auto push_bwd = [&](NodeId id) {
      const auto i = static_cast<std::size_t>(id);
      if (in_heap_[i]) return;
      in_heap_[i] = 1;
      bwd.emplace(topo_pos_[i], id);
    };
    for (NodeId id : seeds) {
      push_bwd(id);
      for (NodeId f : nl_->node(id).fanins) push_bwd(f);
    }
    for (NodeId id : slew_changed) push_bwd(id);

    std::size_t n_backward = 0;
    while (!bwd.empty()) {
      const NodeId id = bwd.top().second;
      bwd.pop();
      const auto i = static_cast<std::size_t>(id);
      in_heap_[i] = 0;

      ++n_backward;
      bool changed = false;
      for (Edge e : {Edge::Rise, Edge::Fall}) {
        const std::size_t v = 2 * i + StaResult::idx(e);
        const double fresh = sta_.compute_down(id, e, res_, down_);
        if (!same_bits(fresh, down_[v])) {
          down_[v] = fresh;
          changed = true;
        }
      }
      if (changed)
        for (NodeId f : nl_->node(id).fanins) push_bwd(f);
    }
    backward_nodes.add(static_cast<double>(n_backward));
  }

  for (NodeId id : seeds) seed_mark_[static_cast<std::size_t>(id)] = 0;

#ifndef NDEBUG
  check_against_full();  // the exactness guarantee, paid only in debug
#endif
  return res_;
}

void IncrementalSta::update_critical(std::span<const NodeId> po_moved) {
  // Fold the moved POs into the previous endpoint under the cold scan's
  // order (Sta::finalize_critical: POs ascending, Rise before Fall, a
  // strictly later arrival wins — so the earliest (node, edge) wins a
  // tie). Every PO outside `po_moved` kept its arrival bits and lost to
  // the previous endpoint, so it still loses as long as that endpoint is
  // a PO whose arrival did not go down; otherwise rescan.
  PathPoint best = res_.critical_endpoint;
  if (best.node == netlist::kNoNode || !nl_->node(best.node).is_output ||
      !(res_.arrival(best.node, best.edge) >= res_.critical_delay_ps)) {
    sta_.finalize_critical(res_);  // throws when no PO is reachable
    return;
  }
  double best_at = res_.arrival(best.node, best.edge);
  for (NodeId po : po_moved) {
    if (!nl_->node(po).is_output) continue;  // e.g. a driver that lost it
    for (Edge e : {Edge::Rise, Edge::Fall}) {
      const double at = res_.arrival(po, e);
      const bool earlier =
          po < best.node ||
          (po == best.node && e == Edge::Rise && best.edge == Edge::Fall);
      if (at > best_at || (at == best_at && earlier)) {
        best_at = at;
        best = {po, e};
      }
    }
  }
  res_.critical_delay_ps = best_at;
  res_.critical_endpoint = best;
}

void IncrementalSta::release_downstream() noexcept { down_valid_ = false; }

void IncrementalSta::check_against_full() const {
  if (!valid_)
    throw std::logic_error("IncrementalSta: no result to check");
  const StaResult cold = sta_.run();
  // The bound vector only exists once a consumer queried it (directly,
  // through slacks() or through the K-paths); compare it only then (the
  // forward state is always checked).
  const std::vector<double> cold_down =
      down_valid_ ? sta_.downstream_delays(cold) : std::vector<double>{};

  auto fail = [&](const std::string& what, NodeId id) {
    throw std::logic_error(
        "IncrementalSta: incremental state diverged from cold run (" + what +
        " at node " +
        (id == netlist::kNoNode ? std::string("<global>") : nl_->node(id).name) +
        ")");
  };

  const std::size_t n = nl_->size();
  if (res_.arrival_ps.size() != n || cold.arrival_ps.size() != n ||
      res_.arc_ps.size() != n || (positions_valid_ && topo_pos_.size() != n))
    fail("result size", netlist::kNoNode);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t e = 0; e < 2; ++e) {
      const NodeId id = static_cast<NodeId>(i);
      if (!same_bits(res_.arrival_ps[i][e], cold.arrival_ps[i][e]))
        fail("arrival", id);
      if (!same_bits(res_.slew_ps[i][e], cold.slew_ps[i][e])) fail("slew", id);
      if (!(res_.prev[i][e] == cold.prev[i][e])) fail("prev", id);
      if (down_valid_ && !same_bits(down_[2 * i + e], cold_down[2 * i + e]))
        fail("downstream", id);
    }
    for (std::size_t k = 0; k < StaResult::kArcSlots; ++k)
      if (!same_bits(res_.arc_ps[i][k], cold.arc_ps[i][k]))
        fail("arc delay", static_cast<NodeId>(i));
    if (positions_valid_)
      for (NodeId f : nl_->node(static_cast<NodeId>(i)).fanins)
        if (topo_pos_[static_cast<std::size_t>(f)] >= topo_pos_[i])
          fail("topological position", static_cast<NodeId>(i));
  }
  if (!same_bits(res_.critical_delay_ps, cold.critical_delay_ps) ||
      !(res_.critical_endpoint == cold.critical_endpoint))
    fail("critical delay/endpoint", netlist::kNoNode);
}

}  // namespace pops::timing
