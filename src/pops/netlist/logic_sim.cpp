#include "pops/netlist/logic_sim.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <iterator>
#include <stdexcept>
#include <string>
#include <utility>

#include "pops/obs/metrics.hpp"

namespace pops::netlist {

void LogicSimulator::eval_words(std::span<const std::uint64_t> pi_words,
                                std::vector<std::uint64_t>& values) const {
  const Netlist& nl = *nl_;
  if (pi_words.size() != nl.inputs().size())
    throw std::invalid_argument("LogicSimulator: expected " +
                                std::to_string(nl.inputs().size()) +
                                " PI words, got " +
                                std::to_string(pi_words.size()));
  values.assign(nl.size(), 0);
  for (std::size_t i = 0; i < nl.inputs().size(); ++i)
    values[static_cast<std::size_t>(nl.inputs()[i])] = pi_words[i];

  // Resolve each kind's cell once per call, not once per gate.
  std::array<const liberty::Cell*, liberty::kCellKindCount> cells{};
  for (const liberty::CellKind kind : liberty::all_cell_kinds())
    cells[static_cast<std::size_t>(kind)] = &nl.lib().cell(kind);

  std::uint64_t scratch[8];  // library arity is at most 4
  for (NodeId id : nl.topo_order()) {
    const Node& n = nl.node(id);
    if (n.is_input) continue;
    const std::size_t arity = n.fanins.size();
    if (arity > std::size(scratch))
      throw std::logic_error("eval_words: gate arity exceeds library maximum");
    for (std::size_t k = 0; k < arity; ++k)
      scratch[k] = values[static_cast<std::size_t>(n.fanins[k])];
    values[static_cast<std::size_t>(id)] =
        cells[static_cast<std::size_t>(n.kind)]->eval_word({scratch, arity});
  }
}

std::vector<bool> LogicSimulator::eval_outputs(
    const std::vector<bool>& pi_values) const {
  std::vector<std::uint64_t> pi_words(pi_values.size());
  for (std::size_t i = 0; i < pi_values.size(); ++i)
    pi_words[i] = pi_values[i] ? 1 : 0;
  std::vector<std::uint64_t> values;
  eval_words(pi_words, values);
  std::vector<bool> out;
  for (NodeId id : nl_->outputs())
    out.push_back((values[static_cast<std::size_t>(id)] & 1) != 0);
  return out;
}

namespace {

constexpr int kLanes = 64;

/// Word mask selecting the low `lanes` lanes (1 <= lanes <= 64).
std::uint64_t lane_mask(int lanes) {
  return lanes == kLanes ? ~std::uint64_t{0}
                         : (std::uint64_t{1} << lanes) - 1;
}

/// Draw `lanes` random vectors into lanes 0.. of `pi_words` under the
/// draw-order contract: vector-major, PI-minor, one bernoulli(0.5) each.
/// Lanes past `lanes` are left 0.
void draw_lanes(util::Rng& rng, int lanes,
                std::vector<std::uint64_t>& pi_words) {
  std::fill(pi_words.begin(), pi_words.end(), 0);
  for (int lane = 0; lane < lanes; ++lane)
    for (std::uint64_t& w : pi_words)
      w |= std::uint64_t{rng.bernoulli(0.5)} << lane;
}

/// PI index mapping of `b` onto the PI order of `a`, matched by name.
std::vector<std::size_t> match_inputs(const Netlist& a, const Netlist& b) {
  if (a.inputs().size() != b.inputs().size())
    throw std::invalid_argument("equivalent: PI count mismatch");
  std::vector<std::size_t> map(b.inputs().size());
  for (std::size_t i = 0; i < b.inputs().size(); ++i) {
    const std::string& name = b.node(b.inputs()[i]).name;
    NodeId in_a = a.find(name);
    bool found = false;
    for (std::size_t j = 0; j < a.inputs().size(); ++j) {
      if (a.inputs()[j] == in_a) {
        map[i] = j;
        found = true;
        break;
      }
    }
    if (!found)
      throw std::invalid_argument("equivalent: PI " + name + " missing in lhs");
  }
  return map;
}

/// PO name list of `nl`, sorted for stable comparison order.
std::vector<std::string> sorted_po_names(const Netlist& nl) {
  std::vector<std::string> names;
  for (NodeId id : nl.outputs()) names.push_back(nl.node(id).name);
  std::sort(names.begin(), names.end());
  return names;
}

}  // namespace

bool equivalent(const Netlist& a, const Netlist& b, util::Rng& rng,
                int n_random_vectors, int exhaustive_limit) {
  const std::vector<std::size_t> pi_map = match_inputs(a, b);
  const std::vector<std::string> po_a = sorted_po_names(a);
  const std::vector<std::string> po_b = sorted_po_names(b);
  if (po_a != po_b)
    throw std::invalid_argument("equivalent: PO name sets differ");
  std::vector<std::pair<std::size_t, std::size_t>> po_pairs;
  for (const std::string& name : po_b) {
    const NodeId ia = a.find(name);
    const NodeId ib = b.find(name);
    if (ia == kNoNode || ib == kNoNode)
      throw std::invalid_argument("equivalent: PO lookup failed for " + name);
    po_pairs.emplace_back(static_cast<std::size_t>(ia),
                          static_cast<std::size_t>(ib));
  }

  const LogicSimulator sim_a(a), sim_b(b);
  const std::size_t n_pi = a.inputs().size();
  std::vector<std::uint64_t> pi_a(n_pi), pi_b(n_pi), values_a, values_b;

  // Simulate the batch in `pi_a` (lhs PI order) on both sides and compare
  // every PO pair on the lanes in `mask`.
  auto batch_matches = [&](std::uint64_t mask) {
    for (std::size_t i = 0; i < n_pi; ++i) pi_b[i] = pi_a[pi_map[i]];
    sim_a.eval_words(pi_a, values_a);
    sim_b.eval_words(pi_b, values_b);
    for (const auto& [ia, ib] : po_pairs)
      if (((values_a[ia] ^ values_b[ib]) & mask) != 0) return false;
    return true;
  };

  if (n_pi <= static_cast<std::size_t>(exhaustive_limit)) {
    // Pattern p = 64 * word + lane assigns PI i the bit (p >> i) & 1: PIs
    // 0-5 take it from the lane (constant masks), the rest from the word.
    static constexpr std::uint64_t kLanePattern[6] = {
        0xAAAAAAAAAAAAAAAAull, 0xCCCCCCCCCCCCCCCCull, 0xF0F0F0F0F0F0F0F0ull,
        0xFF00FF00FF00FF00ull, 0xFFFF0000FFFF0000ull, 0xFFFFFFFF00000000ull};
    const std::uint64_t total = std::uint64_t{1} << n_pi;
    const std::uint64_t mask =
        lane_mask(static_cast<int>(std::min<std::uint64_t>(total, kLanes)));
    for (std::uint64_t word = 0; word * kLanes < total; ++word) {
      for (std::size_t i = 0; i < n_pi; ++i)
        pi_a[i] = i < std::size(kLanePattern)
                      ? kLanePattern[i]
                      : (((word >> (i - std::size(kLanePattern))) & 1) != 0
                             ? ~std::uint64_t{0}
                             : 0);
      if (!batch_matches(mask)) return false;
    }
    return true;
  }

  for (int left = n_random_vectors; left > 0; left -= kLanes) {
    const int lanes = std::min(kLanes, left);
    draw_lanes(rng, lanes, pi_a);
    if (!batch_matches(lane_mask(lanes))) return false;
  }
  return true;
}

ActivityReport estimate_activity(const Netlist& nl, util::Rng& rng,
                                 int n_vectors) {
  if (n_vectors < 2)
    throw std::invalid_argument("estimate_activity: need at least 2 vectors");
  static const obs::Registry::Counter runs =
      obs::Registry::global().counter("netlist.activity_runs");
  static const obs::Registry::Counter vectors =
      obs::Registry::global().counter("netlist.activity_vectors");
  runs.add();
  vectors.add(static_cast<double>(n_vectors));

  const LogicSimulator sim(nl);
  const std::size_t n = nl.size();
  std::vector<std::uint64_t> pi_words(nl.inputs().size());
  std::vector<std::uint64_t> values;
  std::vector<std::uint64_t> carry(n, 0);  // previous word's lane 63
  std::vector<int> toggles(n, 0);
  std::vector<int> ones(n, 0);
  for (int left = n_vectors; left > 0; left -= kLanes) {
    const int lanes = std::min(kLanes, left);
    const std::uint64_t mask = lane_mask(lanes);
    draw_lanes(rng, lanes, pi_words);
    sim.eval_words(pi_words, values);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t w = values[i] & mask;
      // Each lane's predecessor vector sits one lane down; lane 0's is the
      // previous word's lane 63. The very first vector has none, so it is
      // paired with itself and never counts as a toggle.
      const std::uint64_t prev =
          (w << 1) | (left == n_vectors ? (w & 1) : carry[i]);
      toggles[i] += std::popcount((w ^ prev) & mask);
      ones[i] += std::popcount(w);
      carry[i] = w >> (kLanes - 1);
    }
  }

  ActivityReport report;
  report.toggle_rate.resize(n);
  report.p_one.resize(n);
  const double pairs = static_cast<double>(n_vectors - 1);
  for (std::size_t i = 0; i < n; ++i) {
    report.toggle_rate[i] = static_cast<double>(toggles[i]) / pairs;
    report.p_one[i] =
        static_cast<double>(ones[i]) / static_cast<double>(n_vectors);
    report.switched_cap_ff_per_vec +=
        report.toggle_rate[i] * nl.load_ff(static_cast<NodeId>(i));
  }
  return report;
}

}  // namespace pops::netlist
