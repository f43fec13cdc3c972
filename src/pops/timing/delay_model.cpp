#include "pops/timing/delay_model.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace pops::timing {

const char* to_string(Edge e) noexcept {
  return e == Edge::Rise ? "rise" : "fall";
}

// ----- DelayModel (generic contract + numeric fallbacks) ----------------------

StageTiming DelayModel::stage(const liberty::Cell& cell, Edge out_edge,
                              double tin_ps, double cin_ff,
                              double cload_ff) const {
  StageTiming st;
  st.delay_ps = delay_ps(cell, out_edge, tin_ps, cin_ff, cload_ff);
  st.tout_ps = transition_ps(cell, out_edge, cin_ff, cload_ff);
  return st;
}

double DelayModel::default_input_slew_ps() const {
  // FO1 inverter: CL == CIN, average of both edges, measured through the
  // backend's own transition evaluation (CREF is an arbitrary positive
  // operating point; eq. (2)-shaped backends only see the CL/CIN ratio).
  const liberty::Cell& inv = lib().cell(liberty::CellKind::Inv);
  const double c = lib().cref_ff();
  return 0.5 * (transition_ps(inv, Edge::Fall, c, c) +
                transition_ps(inv, Edge::Rise, c, c));
}

double DelayModel::slope_sensitivity(Edge next_out_edge) const {
  const liberty::Cell& inv = lib().cell(liberty::CellKind::Inv);
  const double c = lib().cref_ff();
  const double tin = default_input_slew_ps();
  const double h = 0.25 * tin;
  const double lo = tin - h;  // tin > 0 keeps both probes in range
  return (delay_ps(inv, next_out_edge, tin + h, c, c) -
          delay_ps(inv, next_out_edge, lo, c, c)) /
         (2.0 * h);
}

DelayModel::DelayModel(const liberty::Library& lib) : lib_(&lib) {
  // Alpha-power law: the switching transistor array's drive current goes
  // as (VDD - Vt)^alpha, so delay and output transition scale by the
  // inverse ratio against the base threshold of the same network. Class 0
  // is the base device the backend was calibrated/characterized for: it
  // stays exactly 1.0 so default-class timing is bit-identical.
  const process::Technology& t = lib.tech();
  vt_derates_.assign(t.n_vt_classes(), {1.0, 1.0});
  for (std::size_t c = 1; c < vt_derates_.size(); ++c) {
    const process::VtClass cls = t.vt_class(c);
    for (Edge e : {Edge::Rise, Edge::Fall}) {
      const double vt_base = e == Edge::Fall ? t.vtn : t.vtp;
      const double vt_cls = e == Edge::Fall ? cls.vtn : cls.vtp;
      const double alpha = e == Edge::Fall ? t.alpha_n : t.alpha_p;
      vt_derates_[c][e == Edge::Rise ? 0 : 1] =
          std::pow((t.vdd - vt_base) / (t.vdd - vt_cls), alpha);
    }
  }
}

double DelayModel::vt_derate(int vt_class, Edge out_edge) const {
  const auto c = static_cast<std::size_t>(vt_class);  // negative -> huge
  if (c >= vt_derates_.size())
    throw std::out_of_range("Technology " + lib().tech().name +
                            ": no vt class " + std::to_string(vt_class));
  return vt_derates_[c][out_edge == Edge::Rise ? 0 : 1];
}

double DelayModel::stage_coefficient(const liberty::Cell& cell, Edge out_edge,
                                     double cin_ff, double cload_ff,
                                     bool has_successor,
                                     Edge next_out_edge) const {
  // Numeric A_i: central difference of the stage's contribution to the
  // path delay in CL at fixed CIN, scaled by CIN so the derivative is in
  // the effort variable CL/CIN of eq. (4).
  const double tin = default_input_slew_ps();
  const double slope_next =
      has_successor ? slope_sensitivity(next_out_edge) : 0.0;
  auto contrib = [&](double cl) {
    double v = delay_ps(cell, out_edge, tin, cin_ff, cl);
    if (has_successor)
      v += slope_next * transition_ps(cell, out_edge, cin_ff, cl);
    return v;
  };
  const double h = std::max(1e-3, 1e-3 * cload_ff);
  const double lo = std::max(0.5 * cload_ff, cload_ff - h);
  const double hi = cload_ff + h;
  return cin_ff * (contrib(hi) - contrib(lo)) / (hi - lo);
}

// ----- ClosedFormModel (eq. 1-3, behavior-preserving) -------------------------

std::uint64_t ClosedFormModel::content_hash() const noexcept {
  // The closed form has no state beyond the shared library/technology
  // (hashed separately by cache keys); a fixed tag identifies the family.
  return 0x636c6f7365642d66ull;  // "closed-f"
}

double ClosedFormModel::symmetry_factor(const liberty::Cell& cell,
                                        Edge out_edge) const noexcept {
  return out_edge == Edge::Fall ? lib().s_hl(cell) : lib().s_lh(cell);
}

double ClosedFormModel::transition_ps(const liberty::Cell& cell, Edge out_edge,
                                      double cin_ff, double cload_ff) const {
  if (!(cin_ff > 0.0))
    throw std::invalid_argument("DelayModel::transition_ps: cin must be > 0");
  return symmetry_factor(cell, out_edge) * lib().tech().tau_ps * cload_ff /
         cin_ff;
}

double ClosedFormModel::coupling_ff(const liberty::Cell& cell, Edge out_edge,
                                    double cin_ff) const noexcept {
  const double k = cell.k_ratio;
  // Input cap splits (1 : k) between the N and P devices.
  const double fraction =
      out_edge == Edge::Fall ? k / (1.0 + k)   // rising input -> P device
                             : 1.0 / (1.0 + k);  // falling input -> N device
  return 0.5 * fraction * cin_ff;
}

double ClosedFormModel::miller_factor(const liberty::Cell& cell, Edge out_edge,
                                      double cin_ff,
                                      double cload_ff) const noexcept {
  const double cm = coupling_ff(cell, out_edge, cin_ff);
  return 1.0 + 2.0 * cm / (cm + cload_ff);
}

double ClosedFormModel::reduced_vt(Edge out_edge) const noexcept {
  return out_edge == Edge::Fall ? lib().tech().vtn_reduced()
                                : lib().tech().vtp_reduced();
}

double ClosedFormModel::slope_sensitivity(Edge next_out_edge) const {
  // Exactly the slope coefficient of eq. (1).
  return 0.5 * reduced_vt(next_out_edge);
}

double ClosedFormModel::delay_ps(const liberty::Cell& cell, Edge out_edge,
                                 double tin_ps, double cin_ff,
                                 double cload_ff) const {
  if (tin_ps < 0.0)
    throw std::invalid_argument("DelayModel::delay_ps: negative input slew");
  const double slope_term = 0.5 * reduced_vt(out_edge) * tin_ps;
  const double own_term =
      0.5 * miller_factor(cell, out_edge, cin_ff, cload_ff) *
      transition_ps(cell, out_edge, cin_ff, cload_ff);
  return slope_term + own_term;
}

double ClosedFormModel::stage_coefficient(const liberty::Cell& cell,
                                          Edge out_edge, double cin_ff,
                                          double cload_ff, bool has_successor,
                                          Edge next_out_edge) const {
  const double miller = miller_factor(cell, out_edge, cin_ff, cload_ff);
  const double vt_next = has_successor ? reduced_vt(next_out_edge) : 0.0;
  return lib().tech().tau_ps * symmetry_factor(cell, out_edge) *
         0.5 * (miller + vt_next);
}

double ClosedFormModel::default_input_slew_ps() const {
  const liberty::Cell& inv = lib().cell(liberty::CellKind::Inv);
  // FO1 inverter: CL == CIN, average of both edges.
  return 0.5 * (lib().s_hl(inv) + lib().s_lh(inv)) * lib().tech().tau_ps;
}

}  // namespace pops::timing
