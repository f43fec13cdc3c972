#include "pops/timing/path.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace pops::timing {

using netlist::Netlist;
using netlist::NodeId;

BoundedPath::BoundedPath(const liberty::Library& lib,
                         std::vector<PathStage> stages, double cin_first_ff,
                         double terminal_ff, Edge input_edge,
                         double input_slew_ps)
    : lib_(&lib),
      stages_(std::move(stages)),
      cin_first_ff_(cin_first_ff),
      terminal_ff_(terminal_ff),
      input_edge_(input_edge),
      input_slew_ps_(input_slew_ps) {
  if (stages_.empty())
    throw std::invalid_argument("BoundedPath: empty stage list");
  if (!(cin_first_ff > 0.0) || !(terminal_ff > 0.0))
    throw std::invalid_argument("BoundedPath: boundary capacitances must be > 0");
  if (!(input_slew_ps > 0.0))
    throw std::invalid_argument("BoundedPath: input slew must be > 0");
  refresh_stages();
  cin_.assign(stages_.size(), 0.0);
  cin_[0] = cin_first_ff_;
  for (std::size_t i = 1; i < stages_.size(); ++i) cin_[i] = cin_min(i);
}

BoundedPath BoundedPath::extract(const Netlist& nl, const TimedPath& path,
                                 double input_slew_ps) {
  if (path.points.size() < 2)
    throw std::invalid_argument("BoundedPath::extract: path too short");

  // Drop the leading PI.
  std::size_t first = 0;
  if (nl.node(path.points[0].node).is_input) first = 1;
  if (path.points.size() - first < 1)
    throw std::invalid_argument("BoundedPath::extract: no gates on path");

  std::vector<PathStage> stages;
  std::vector<double> cins;
  for (std::size_t p = first; p < path.points.size(); ++p) {
    const NodeId id = path.points[p].node;
    if (nl.node(id).is_input)
      throw std::invalid_argument("BoundedPath::extract: PI mid-path");
    PathStage st;
    st.kind = nl.node(id).kind;
    st.node = id;
    // Off-path load: everything on the output net except the next on-path
    // stage's input pin.
    double off = nl.load_ff(id);
    if (p + 1 < path.points.size()) off -= nl.cin_ff(path.points[p + 1].node);
    st.off_path_ff = std::max(0.0, off);
    stages.push_back(st);
    cins.push_back(nl.cin_ff(id));
  }

  // Terminal load: the last stage's own off-path (wire + PO load + off-path
  // sinks) *is* the terminal boundary; move it out of the stage record.
  const double terminal = std::max(stages.back().off_path_ff, 1e-3);
  stages.back().off_path_ff = 0.0;

  const Edge input_edge = path.points[first].edge;  // edge at first gate out
  // The stored input edge must be the edge at the *path input net*; derive
  // it by undoing the first cell's phase.
  const liberty::Cell& c0 = nl.lib().cell(stages.front().kind);
  const Edge net_edge = c0.inverting ? flip(input_edge) : input_edge;

  BoundedPath bp(nl.lib(), std::move(stages), cins.front(), terminal, net_edge,
                 input_slew_ps);
  for (std::size_t i = 1; i < cins.size(); ++i) bp.set_cin(i, cins[i]);
  return bp;
}

const liberty::Cell& BoundedPath::cell(std::size_t i) const {
  return *cache_.at(i).cell;
}

void BoundedPath::set_input_edge(Edge e) {
  input_edge_ = e;
  refresh_stages();
}

void BoundedPath::refresh_stages() {
  const process::Technology& tech = lib_->tech();
  cache_.resize(stages_.size());
  Edge e = input_edge_;
  for (std::size_t i = 0; i < stages_.size(); ++i) {
    const liberty::Cell& c = lib_->cell(stages_[i].kind);
    if (c.inverting) e = flip(e);
    cache_[i] = {&c, e, c.cin_ff(tech, lib_->wmin_um()),
                 c.cin_ff(tech, lib_->wmax_um())};
  }
}

void BoundedPath::set_cin(std::size_t i, double cin_ff) {
  if (i == 0)
    throw std::invalid_argument(
        "BoundedPath::set_cin: stage 0 is fixed by the latch constraint");
  cin_.at(i) = std::clamp(cin_ff, cin_min(i), cin_max(i));
}

void BoundedPath::set_cins(const std::vector<double>& cins) {
  if (cins.size() != cin_.size())
    throw std::invalid_argument("BoundedPath::set_cins: arity mismatch");
  if (std::abs(cins[0] - cin_first_ff_) > 1e-9 * std::max(1.0, cin_first_ff_))
    throw std::invalid_argument("BoundedPath::set_cins: cins[0] must keep the fixed value");
  for (std::size_t i = 1; i < cins.size(); ++i) set_cin(i, cins[i]);
}

void BoundedPath::set_all_min_drive() {
  for (std::size_t i = 1; i < stages_.size(); ++i)
    if (sizable(i)) cin_[i] = cin_min(i);
}

double BoundedPath::load_ff(std::size_t i) const {
  const double next =
      i + 1 < stages_.size() ? cin_[i + 1] : terminal_ff_;
  return stages_.at(i).off_path_ff + next;
}

double BoundedPath::cpar_ff(std::size_t i) const {
  const liberty::Cell& c = cell(i);
  return c.cpar_ff(lib_->tech(), c.wn_for_cin(lib_->tech(), cin_.at(i)));
}

double BoundedPath::delay_ps(const DelayModel& dm) const {
  double total = 0.0;
  double tin = input_slew_ps_;
  for (std::size_t i = 0; i < stages_.size(); ++i) {
    const StageTiming st =
        dm.stage(cell(i), cache_[i].edge, tin, cin_[i], total_load_ff(i));
    total += st.delay_ps;
    tin = st.tout_ps;
  }
  return total;
}

std::vector<double> BoundedPath::stage_delays_ps(const DelayModel& dm) const {
  std::vector<double> delays(stages_.size());
  double tin = input_slew_ps_;
  for (std::size_t i = 0; i < stages_.size(); ++i) {
    const StageTiming st =
        dm.stage(cell(i), cache_[i].edge, tin, cin_[i], total_load_ff(i));
    delays[i] = st.delay_ps;
    tin = st.tout_ps;
  }
  return delays;
}

double BoundedPath::area_um() const {
  double area = 0.0;
  for (std::size_t i = 0; i < stages_.size(); ++i) {
    const liberty::Cell& c = cell(i);
    area += c.total_width_um(c.wn_for_cin(lib_->tech(), cin_[i]));
  }
  return area;
}

double BoundedPath::normalized_size() const {
  double sum = 0.0;
  for (double c : cin_) sum += c;
  return sum / lib_->cref_ff();
}

double BoundedPath::stage_coefficient(const DelayModel& dm,
                                      std::size_t i) const {
  const bool has_next = i + 1 < stages_.size();
  const Edge edge = out_edge(i);
  const Edge next_edge = has_next ? cache_[i + 1].edge : edge;
  return dm.stage_coefficient(cell(i), edge, cin_[i], total_load_ff(i),
                              has_next, next_edge);
}

double BoundedPath::numeric_sensitivity(const DelayModel& dm, std::size_t i,
                                        double step_ff) const {
  if (i == 0 || i >= stages_.size())
    throw std::invalid_argument("numeric_sensitivity: bad free-stage index");
  BoundedPath plus = *this;
  BoundedPath minus = *this;
  plus.cin_[i] += step_ff;   // bypass clamping for a clean derivative
  minus.cin_[i] -= step_ff;
  return (plus.delay_ps(dm) - minus.delay_ps(dm)) / (2.0 * step_ff);
}

void BoundedPath::insert_stage_after(std::size_t i, liberty::CellKind kind,
                                     double cin_ff, bool take_off_path) {
  if (i >= stages_.size())
    throw std::invalid_argument("insert_stage_after: bad index");
  PathStage st;
  st.kind = kind;
  st.node = netlist::kNoNode;
  st.off_path_ff = 0.0;
  if (take_off_path) {
    st.off_path_ff = stages_[i].off_path_ff;
    stages_[i].off_path_ff = 0.0;
  }
  stages_.insert(stages_.begin() + static_cast<long>(i) + 1, st);
  cin_.insert(cin_.begin() + static_cast<long>(i) + 1, cin_ff);
  refresh_stages();        // the clamp reads the new stage's CIN range
  set_cin(i + 1, cin_ff);  // clamp into range
}

void BoundedPath::replace_stage(std::size_t i, liberty::CellKind kind) {
  stages_.at(i).kind = kind;
  refresh_stages();                // the clamp reads the new cell's range
  if (i > 0) set_cin(i, cin_[i]);  // re-clamp for the new cell
}

std::vector<netlist::NodeId> BoundedPath::apply_sizes_to(Netlist& nl) const {
  std::vector<netlist::NodeId> changed;
  for (std::size_t i = 0; i < stages_.size(); ++i) {
    const netlist::NodeId id = stages_[i].node;
    if (id == netlist::kNoNode) continue;
    const liberty::Cell& c = nl.lib().cell(nl.node(id).kind);
    const double before = nl.drive(id);
    nl.set_drive(id, c.wn_for_cin(nl.lib().tech(), cin_[i]));
    if (nl.drive(id) != before) changed.push_back(id);
  }
  return changed;
}

}  // namespace pops::timing
