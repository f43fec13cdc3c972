#include "pops/timing/sta.hpp"

#include <algorithm>
#include <limits>
#include <queue>
#include <stdexcept>

#include "pops/obs/trace.hpp"
#include "pops/util/parallel.hpp"

namespace pops::timing {

using netlist::Netlist;
using netlist::NodeId;

namespace {
constexpr double kNegInf = -std::numeric_limits<double>::infinity();
}

Sta::Sta(const Netlist& nl, const DelayModel& dm, StaOptions opt)
    : nl_(&nl), dm_(&dm), opt_(opt) {
  if (opt_.pi_slew_ps <= 0.0) opt_.pi_slew_ps = dm_->default_input_slew_ps();
}

namespace {

bool is_xor(const liberty::Cell& cell) noexcept {
  return cell.kind == liberty::CellKind::Xor2 ||
         cell.kind == liberty::CellKind::Xnor2;
}

/// Pin of `gate` driven by `driver`. A gate fed twice by one driver has
/// bit-identical arcs on both pins (same operands), so the first serves.
std::size_t pin_of(const netlist::Node& gate, NodeId driver) {
  return static_cast<std::size_t>(
      std::find(gate.fanins.begin(), gate.fanins.end(), driver) -
      gate.fanins.begin());
}

}  // namespace

CauseEdges Sta::cause_edges(const liberty::Cell& cell, Edge out) noexcept {
  if (is_xor(cell)) return {{Edge::Rise, Edge::Fall}, 2};
  return {{cell.inverting ? flip(out) : out, Edge::Rise}, 1};
}

std::size_t Sta::arc_slot(const liberty::Cell& cell, std::size_t pin, Edge out,
                          Edge ein) noexcept {
  if (is_xor(cell))
    return 4 * pin + 2 * StaResult::idx(out) + StaResult::idx(ein);
  return 2 * pin + StaResult::idx(out);  // ein is implied by out
}

void Sta::compute_node(NodeId id, StaResult& r) const {
  const Netlist& nl = *nl_;
  const netlist::Node& node = nl.node(id);
  const liberty::Cell& cell = nl.cell_of(id);
  const double cin = nl.cin_ff(id);
  const double cload = nl.load_ff(id) + nl.cpar_ff(id);
  std::array<double, StaResult::kArcSlots> arcs{};

  for (Edge out : {Edge::Rise, Edge::Fall}) {
    // High-Vt cells switch slower; the derate (exactly 1.0 on the default
    // class) scales both the stage's slew and its delays uniformly.
    const double derate = dm_->vt_derate(node.vt, out);
    // Slew is a property of the stage alone (eq. 2).
    r.slew_ps[static_cast<std::size_t>(id)][StaResult::idx(out)] =
        dm_->transition_ps(cell, out, cin, cload) * derate;

    double best = kNegInf;
    PathPoint best_prev;
    for (std::size_t pin = 0; pin < node.fanins.size(); ++pin) {
      const NodeId f = node.fanins[pin];
      for (Edge ein : cause_edges(cell, out)) {
        // Cached even when the fanin is unreachable: the backward sweeps
        // read every arc.
        const double d =
            dm_->delay_ps(cell, out, r.slew(f, ein), cin, cload) * derate;
        arcs[arc_slot(cell, pin, out, ein)] = d;
        const double at_f = r.arrival(f, ein);
        if (at_f == kNegInf) continue;
        if (at_f + d > best) {
          best = at_f + d;
          best_prev = {f, ein};
        }
      }
    }
    r.arrival_ps[static_cast<std::size_t>(id)][StaResult::idx(out)] = best;
    r.prev[static_cast<std::size_t>(id)][StaResult::idx(out)] = best_prev;
  }
  r.arc_ps[static_cast<std::size_t>(id)] = arcs;
}

void Sta::finalize_critical(StaResult& r) const {
  r.critical_delay_ps = kNegInf;
  r.critical_endpoint = PathPoint{};
  for (NodeId po : nl_->outputs()) {
    for (Edge e : {Edge::Rise, Edge::Fall}) {
      if (r.arrival(po, e) > r.critical_delay_ps) {
        r.critical_delay_ps = r.arrival(po, e);
        r.critical_endpoint = {po, e};
      }
    }
  }
  if (r.critical_delay_ps == kNegInf)
    throw std::logic_error("Sta: no PO reachable from any PI");
}

bool Sta::level_parallel() const noexcept {
  return opt_.level_parallel_workers > 1 &&
         nl_->size() >= opt_.level_parallel_min_nodes;
}

std::vector<std::vector<NodeId>> Sta::depth_levels() const {
  const Netlist& nl = *nl_;
  const std::vector<int> depth = nl.depths();
  int max_depth = 0;
  for (int d : depth) max_depth = std::max(max_depth, d);
  std::vector<std::vector<NodeId>> levels(
      static_cast<std::size_t>(max_depth) + 1);
  // Bucket in topo order: level construction (and therefore chunking) is
  // a pure function of the netlist, independent of worker scheduling.
  for (NodeId id : nl.topo_order())
    levels[static_cast<std::size_t>(depth[static_cast<std::size_t>(id)])]
        .push_back(id);
  return levels;
}

StaResult Sta::run() const {
  const Netlist& nl = *nl_;
  const std::size_t n = nl.size();

  StaResult r;
  r.arrival_ps.assign(n, {kNegInf, kNegInf});
  r.slew_ps.assign(n, {opt_.pi_slew_ps, opt_.pi_slew_ps});
  r.prev.assign(n, {PathPoint{}, PathPoint{}});
  r.arc_ps.assign(n, {});

  for (NodeId pi : nl.inputs()) {
    r.arrival_ps[static_cast<std::size_t>(pi)] = {0.0, 0.0};
  }

  if (!level_parallel()) {
    for (NodeId id : nl.topo_order()) {
      if (nl.node(id).is_input) continue;
      compute_node(id, r);
    }
  } else {
    // Nodes of one level have disjoint outputs and read only arrivals /
    // slews of strictly shallower levels (a gate's depth exceeds every
    // fanin's), all finalized by the preceding level barriers — so the
    // fan-out is bitwise-equal to the sequential loop at any worker
    // count. depth_levels() walks topo_order(), which materializes the
    // netlist's lazy topological order before any worker can race to
    // build it (fanout lists are never lazy).
    const std::vector<std::vector<NodeId>> levels = depth_levels();
    obs::Span span("sta/level_sweep");
    span.arg("nodes", static_cast<double>(n));
    span.arg("levels", static_cast<double>(levels.size()));
    span.arg("workers", static_cast<double>(opt_.level_parallel_workers));
    util::ThreadPool& pool = util::ThreadPool::global();
    for (const std::vector<NodeId>& level : levels) {
      pool.for_chunks(level.size(), opt_.level_parallel_workers,
                      [&](std::size_t begin, std::size_t end) {
                        for (std::size_t i = begin; i < end; ++i) {
                          const NodeId id = level[i];
                          if (nl.node(id).is_input) continue;
                          compute_node(id, r);
                        }
                      });
    }
  }

  finalize_critical(r);
  return r;
}

TimedPath Sta::critical_path(const StaResult& result) const {
  TimedPath path;
  path.delay_ps = result.critical_delay_ps;
  PathPoint p = result.critical_endpoint;
  while (p.node != netlist::kNoNode) {
    path.points.push_back(p);
    if (nl_->node(p.node).is_input) break;
    p = result.prev[static_cast<std::size_t>(p.node)][StaResult::idx(p.edge)];
  }
  std::reverse(path.points.begin(), path.points.end());
  return path;
}

double Sta::compute_down(NodeId id, Edge e, const StaResult& result,
                         const std::vector<double>& down) const {
  const Netlist& nl = *nl_;
  auto vid = [](NodeId node, Edge edge) {
    return 2 * static_cast<std::size_t>(node) + StaResult::idx(edge);
  };
  double best = nl.node(id).is_output ? 0.0 : kNegInf;
  for (NodeId g : nl.fanouts(id)) {
    const netlist::Node& gn = nl.node(g);
    const liberty::Cell& cell = nl.lib().cell(gn.kind);
    const std::size_t pin = pin_of(gn, id);
    const auto& arcs = result.arc_ps[static_cast<std::size_t>(g)];
    for (Edge eout : {Edge::Rise, Edge::Fall}) {
      if (!cause_edges(cell, eout).contains(e)) continue;
      const double cand =
          arcs[arc_slot(cell, pin, eout, e)] + down[vid(g, eout)];
      best = std::max(best, cand);
    }
  }
  return best;
}

std::vector<double> Sta::downstream_delays(const StaResult& result) const {
  const Netlist& nl = *nl_;

  // Longest remaining delay from each vertex to any PO (0 at a PO vertex
  // itself, since paths terminate there; -inf if no PO is reachable).
  std::vector<double> down(2 * nl.size(), kNegInf);
  if (!level_parallel()) {
    const auto& topo = nl.topo_order();
    for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
      const NodeId id = *it;
      for (Edge e : {Edge::Rise, Edge::Fall}) {
        down[2 * static_cast<std::size_t>(id) + StaResult::idx(e)] =
            compute_down(id, e, result, down);
      }
    }
  } else {
    // Backward mirror of run()'s level fan-out: a vertex reads only its
    // fanouts' `down` values, all at strictly deeper levels, finalized
    // by the preceding (descending) level barriers.
    const std::vector<std::vector<NodeId>> levels = depth_levels();
    obs::Span span("sta/level_sweep");
    span.arg("nodes", static_cast<double>(nl.size()));
    span.arg("levels", static_cast<double>(levels.size()));
    span.arg("workers", static_cast<double>(opt_.level_parallel_workers));
    util::ThreadPool& pool = util::ThreadPool::global();
    for (auto lit = levels.rbegin(); lit != levels.rend(); ++lit) {
      const std::vector<NodeId>& level = *lit;
      pool.for_chunks(level.size(), opt_.level_parallel_workers,
                      [&](std::size_t begin, std::size_t end) {
                        for (std::size_t i = begin; i < end; ++i) {
                          const NodeId id = level[i];
                          for (Edge e : {Edge::Rise, Edge::Fall}) {
                            down[2 * static_cast<std::size_t>(id) +
                                 StaResult::idx(e)] =
                                compute_down(id, e, result, down);
                          }
                        }
                      });
    }
  }
  return down;
}

std::vector<TimedPath> Sta::k_critical_paths(const StaResult& result,
                                             std::size_t k) const {
  return k_critical_paths(result, k, downstream_delays(result));
}

std::vector<TimedPath> Sta::k_critical_paths(
    const StaResult& result, std::size_t k,
    const std::vector<double>& down) const {
  const Netlist& nl = *nl_;
  const std::size_t n = nl.size();

  // Timing-graph vertex v = 2*node + idx(edge). Static edge weight
  // w((f,ein) -> (g,eout)) = delay(g, eout, slew(f,ein)): g's cached arc.
  auto vid = [](NodeId node, Edge e) {
    return 2 * static_cast<std::size_t>(node) + StaResult::idx(e);
  };

  // Best-first (A*-style) enumeration: items are popped in non-increasing
  // bound order; a *terminal* item's bound equals its exact path delay, so
  // complete paths are emitted in exact non-increasing delay order.
  constexpr std::size_t kTerminal = static_cast<std::size_t>(-1);
  struct Item {
    double bound;       // prefix + down(vertex); == prefix for terminals
    double prefix;      // accumulated delay up to (and including) vertex
    std::size_t vertex; // kTerminal marks a completed path
    int chain;          // arena index of this item's own vertex entry
  };
  struct ArenaEntry {
    std::size_t vertex;
    int parent;
  };
  auto cmp = [](const Item& a, const Item& b) { return a.bound < b.bound; };
  std::priority_queue<Item, std::vector<Item>, decltype(cmp)> heap(cmp);
  std::vector<ArenaEntry> arena;

  for (NodeId pi : nl.inputs()) {
    for (Edge e : {Edge::Rise, Edge::Fall}) {
      const std::size_t v = vid(pi, e);
      if (down[v] == kNegInf) continue;
      arena.push_back({v, -1});
      heap.push({down[v], 0.0, v, static_cast<int>(arena.size()) - 1});
    }
  }

  std::vector<TimedPath> out;
  // Guard against pathological blowup: each pop does O(fanout) work.
  std::size_t pops = 0;
  const std::size_t pop_limit = 4096 * std::max<std::size_t>(k, 1) + 16 * n;

  while (!heap.empty() && out.size() < k && pops++ < pop_limit) {
    const Item item = heap.top();
    heap.pop();

    if (item.vertex == kTerminal) {
      TimedPath path;
      path.delay_ps = item.prefix;
      for (int a = item.chain; a != -1;
           a = arena[static_cast<std::size_t>(a)].parent) {
        const auto& entry = arena[static_cast<std::size_t>(a)];
        path.points.push_back(
            {static_cast<NodeId>(entry.vertex / 2),
             entry.vertex % 2 == 0 ? Edge::Rise : Edge::Fall});
      }
      std::reverse(path.points.begin(), path.points.end());
      out.push_back(std::move(path));
      continue;
    }

    const NodeId node = static_cast<NodeId>(item.vertex / 2);
    const Edge e = item.vertex % 2 == 0 ? Edge::Rise : Edge::Fall;

    // Terminating at a PO is one of the item's continuations.
    if (nl.node(node).is_output)
      heap.push({item.prefix, item.prefix, kTerminal, item.chain});

    // A gate that consumes `node` on two pins appears twice in fanouts();
    // expand it once or the enumeration emits duplicate paths.
    std::vector<NodeId> sinks = nl.fanouts(node);
    std::sort(sinks.begin(), sinks.end());
    sinks.erase(std::unique(sinks.begin(), sinks.end()), sinks.end());
    for (NodeId g : sinks) {
      const netlist::Node& gn = nl.node(g);
      const liberty::Cell& cell = nl.lib().cell(gn.kind);
      const std::size_t pin = pin_of(gn, node);
      const auto& arcs = result.arc_ps[static_cast<std::size_t>(g)];
      for (Edge eout : {Edge::Rise, Edge::Fall}) {
        if (!cause_edges(cell, eout).contains(e)) continue;
        const std::size_t v2 = vid(g, eout);
        if (down[v2] == kNegInf) continue;
        const double w = arcs[arc_slot(cell, pin, eout, e)];
        arena.push_back({v2, item.chain});
        heap.push({item.prefix + w + down[v2], item.prefix + w, v2,
                   static_cast<int>(arena.size()) - 1});
      }
    }
  }
  return out;
}

double Sta::compute_slack(NodeId id, const StaResult& result,
                         const std::vector<double>& down,
                         double tc_ps) noexcept {
  const auto i = static_cast<std::size_t>(id);
  double slack = std::numeric_limits<double>::infinity();
  for (Edge e : {Edge::Rise, Edge::Fall}) {
    const double at = result.arrival_ps[i][StaResult::idx(e)];
    if (at == kNegInf) continue;
    // required(id, e) = tc - down: +inf where no PO is reachable.
    const double required = tc_ps - down[2 * i + StaResult::idx(e)];
    slack = std::min(slack, required - at);
  }
  return slack;
}

std::vector<double> Sta::slacks(const StaResult& result, double tc_ps) const {
  const std::vector<double> down = downstream_delays(result);
  std::vector<double> slack(nl_->size());
  for (std::size_t i = 0; i < slack.size(); ++i)
    slack[i] = compute_slack(static_cast<NodeId>(i), result, down, tc_ps);
  return slack;
}

}  // namespace pops::timing
