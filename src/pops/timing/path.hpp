#pragma once
// The *bounded combinational path* abstraction of paper §2.2:
//
//   "the path input gate capacitance is fixed by the load constraint
//    imposed on the latch supplying the path [...] the path terminal load
//    is completely determined by the total input capacitance of the gates
//    or registers controlled by this path. This guarantees the convexity
//    of the delay on this path."
//
// A BoundedPath is a chain of sized stages. Stage 0's input capacitance is
// FIXED (the latch load constraint); the terminal load is FIXED; every
// other stage's input capacitance CIN(i) is a free sizing variable. Each
// stage additionally carries a fixed off-path load (wire capacitance plus
// the input capacitance of off-path sinks frozen at their current sizes) —
// this is how the path-at-a-time optimisation of POPS sees the rest of the
// circuit.

#include <stdexcept>
#include <string>
#include <vector>

#include "pops/netlist/netlist.hpp"
#include "pops/timing/delay_model.hpp"
#include "pops/timing/sta.hpp"

namespace pops::timing {

/// One stage of a bounded path.
struct PathStage {
  liberty::CellKind kind = liberty::CellKind::Inv;
  netlist::NodeId node = netlist::kNoNode;  ///< origin node; kNoNode if synthetic
  double off_path_ff = 0.0;  ///< fixed extra load on this stage's output
  bool sizable = true;       ///< false freezes CIN during global sizing
                             ///< (e.g. locally-sized buffers, Fig. 8)
  bool shielded = false;     ///< off-path load already behind a shield buffer
};

class BoundedPath {
 public:
  /// Synthetic path: `stages` driven through a fixed input capacitance
  /// `cin_first_ff` (stage 0's CIN), ending on `terminal_ff`. The input
  /// signal arrives with edge `input_edge` and transition `input_slew_ps`
  /// (<= 0 selects the model default at evaluation time... must be > 0 here).
  BoundedPath(const liberty::Library& lib, std::vector<PathStage> stages,
              double cin_first_ff, double terminal_ff, Edge input_edge,
              double input_slew_ps);

  /// Extract the bounded path under `points` (a PI->PO STA path; the PI is
  /// dropped) from a sized netlist. Off-path loads are frozen at the
  /// netlist's current sizes; the terminal load is the last gate's
  /// off-path + PO load. Stage 0's CIN is fixed at its current value.
  static BoundedPath extract(const netlist::Netlist& nl,
                             const TimedPath& path, double input_slew_ps);

  const liberty::Library& lib() const noexcept { return *lib_; }

  // ----- structure ----------------------------------------------------------

  std::size_t size() const noexcept { return stages_.size(); }
  const PathStage& stage(std::size_t i) const { return stages_.at(i); }
  const liberty::Cell& cell(std::size_t i) const;

  /// Output edge of stage `i` for the path's input edge (phase propagated
  /// through the inverting cells; XOR counts as non-inverting).
  Edge out_edge(std::size_t i) const { return cache_.at(i).edge; }
  Edge input_edge() const noexcept { return input_edge_; }
  /// Re-derive stage edges after structural edits or input-edge change.
  void set_input_edge(Edge e);

  double terminal_ff() const noexcept { return terminal_ff_; }
  double input_slew_ps() const noexcept { return input_slew_ps_; }

  // ----- sizing variables ----------------------------------------------------

  /// Input capacitance (fF) of stage `i`.
  double cin(std::size_t i) const { return cin_.at(i); }
  /// All input capacitances.
  const std::vector<double>& cins() const noexcept { return cin_; }

  /// Set CIN of stage i >= 1, clamped to the library's realisable range.
  /// Stage 0 is fixed by the latch constraint; throws std::invalid_argument.
  void set_cin(std::size_t i, double cin_ff);

  /// Replace all free CINs (indices 1..n-1 of `cins`; cins[0] must equal
  /// the fixed value within tolerance or std::invalid_argument is thrown).
  void set_cins(const std::vector<double>& cins);

  /// Set every free (sizable) stage to the minimum drive — the paper's
  /// Tmax sizing. Frozen stages keep their size.
  void set_all_min_drive();

  /// Smallest / largest realisable CIN (fF) of stage `i`'s cell.
  double cin_min(std::size_t i) const { return cache_.at(i).cin_min; }
  double cin_max(std::size_t i) const { return cache_.at(i).cin_max; }

  // ----- evaluation -----------------------------------------------------------

  /// External load (fF) on stage i's output: off_path + next stage CIN
  /// (terminal load for the last stage). The stage's own drain parasitic
  /// is NOT included (see cpar_ff / total_load_ff).
  double load_ff(std::size_t i) const;

  /// Own drain parasitic (fF) of stage i at its current size — the Cpar(i)
  /// of the paper's eq. (4). Proportional to CIN(i), so it contributes a
  /// constant to the effort term and drops out of dT/dCIN(i).
  double cpar_ff(std::size_t i) const;

  /// load_ff + cpar_ff: the capacitance the delay model discharges.
  double total_load_ff(std::size_t i) const {
    return load_ff(i) + cpar_ff(i);
  }

  /// Path delay (ps) under the full eq. (1) model with slews propagated
  /// from the path input.
  double delay_ps(const DelayModel& dm) const;

  /// Per-stage delays (ps), same traversal as delay_ps.
  std::vector<double> stage_delays_ps(const DelayModel& dm) const;

  /// The paper's area/power metric: sum of transistor widths (µm) over all
  /// stages (including the fixed stage 0).
  double area_um() const;

  /// Normalised size sum ΣCIN/CREF (the x-axis of Fig. 1).
  double normalized_size() const;

  /// Stage weight A_i of the link equations (eq. 4/6) at current sizes.
  double stage_coefficient(const DelayModel& dm, std::size_t i) const;

  /// Numerical sensitivity dT/dCIN(i) (central difference) — used by tests
  /// to verify the constant-sensitivity property, and by the baseline.
  double numeric_sensitivity(const DelayModel& dm, std::size_t i,
                             double step_ff = 1e-4) const;

  // ----- structural edits (buffer insertion / restructuring) -----------------

  /// Insert a new stage *after* stage `i` (so it drives what stage i used
  /// to drive). When `take_off_path` is true (the default, matching the
  /// paper's Fig. 5 load dilution) the new stage also takes over stage i's
  /// off-path load, so gate i afterwards drives only the buffer.
  /// Stage edges are re-derived.
  void insert_stage_after(std::size_t i, liberty::CellKind kind, double cin_ff,
                          bool take_off_path = true);

  /// Replace the cell kind of stage `i` (edges re-derived; CIN preserved).
  void replace_stage(std::size_t i, liberty::CellKind kind);

  /// Freeze / unfreeze stage `i` for the global sizing sweeps. Stage 0 is
  /// always fixed regardless of this flag.
  void set_sizable(std::size_t i, bool sizable) {
    stages_.at(i).sizable = sizable;
  }
  /// Whether the sizing sweeps may change CIN(i).
  bool sizable(std::size_t i) const {
    return i != 0 && stages_.at(i).sizable;
  }

  /// Replace stage i's off-path load (used when a shield buffer takes the
  /// off-path fanout over: the load becomes the buffer's input cap).
  void set_off_path_ff(std::size_t i, double off_ff) {
    if (off_ff < 0.0)
      throw std::invalid_argument("set_off_path_ff: negative load");
    stages_.at(i).off_path_ff = off_ff;
  }

  /// Mark stage i's off-path load as already shielded by a buffer.
  void set_shielded(std::size_t i, bool shielded) {
    stages_.at(i).shielded = shielded;
  }

  /// Write the sizes (and only the sizes) back to the origin netlist for
  /// stages that carry a valid origin node. Returns the ids of the nodes
  /// whose drive actually moved (bitwise, after the library clamp) — the
  /// dirty set for incremental re-timing; empty means the write-back was
  /// a no-op (the protocol's round loop stops instead of spinning).
  std::vector<netlist::NodeId> apply_sizes_to(netlist::Netlist& nl) const;

 private:
  /// Per-stage data derived from the stage kinds and the input edge. The
  /// sizing sweeps read the cell and the CIN range of every stage on
  /// every update, so they are resolved once per structural edit.
  struct StageCache {
    const liberty::Cell* cell;
    Edge edge;       ///< output edge (see out_edge)
    double cin_min;  ///< CIN at the library's minimum drive
    double cin_max;  ///< CIN at the library's maximum drive
  };

  /// Rebuild cache_ from stages_ and input_edge_; runs after every edit of
  /// either, before anything clamps a CIN.
  void refresh_stages();

  const liberty::Library* lib_;
  std::vector<PathStage> stages_;
  std::vector<double> cin_;
  std::vector<StageCache> cache_;
  double cin_first_ff_;
  double terminal_ff_;
  Edge input_edge_;
  double input_slew_ps_;
};

}  // namespace pops::timing
