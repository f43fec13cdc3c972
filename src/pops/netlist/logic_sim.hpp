#pragma once
// Functional (zero-delay) logic simulation over a Netlist.
//
// Three uses in this reproduction:
//  1. equivalence checking — De Morgan restructuring (paper §4.2) must not
//     change the logic function; `equivalent()` proves it exhaustively for
//     small PI counts and by dense random vectors otherwise;
//  2. switching-activity estimation for the dynamic-power report
//     (the paper uses ΣW as the power proxy; we additionally report
//     alpha*C*VDD^2 power with simulated activities);
//  3. benchmark sanity tests.
//
// One kernel serves all three: `LogicSimulator::eval_words` evaluates 64
// input vectors per topological walk, one vector per bit ("lane") of a
// std::uint64_t, through `liberty::Cell::eval_word`. Lane l of every word
// belongs to vector l of the batch.
//
// Draw-order contract. Random vectors are drawn exactly as a one-vector-at-
// a-time simulator would draw them: one `rng.bernoulli(0.5)` per PI per
// vector, vector-major and PI-minor (PIs in `nl.inputs()` order), vector
// v of a batch landing in lane v % 64 of word v / 64. When the vector
// count is not a multiple of 64 the last word's upper lanes are masked
// out of every count and comparison. Activity reports are therefore
// bit-identical to a scalar simulation of the same RNG stream.

#include <cstdint>
#include <span>
#include <vector>

#include "pops/netlist/netlist.hpp"
#include "pops/util/rng.hpp"

namespace pops::netlist {

/// Zero-delay 64-lane evaluator. Holds only a pointer; the netlist must
/// outlive it.
class LogicSimulator {
 public:
  explicit LogicSimulator(const Netlist& nl) : nl_(&nl) {}

  /// Evaluate 64 vectors in one topological walk. Bit l of `pi_words[i]`
  /// is the value of `nl.inputs()[i]` in lane l; on return `values` holds
  /// one word per NodeId, lane for lane. Throws std::invalid_argument on a
  /// PI-count mismatch.
  void eval_words(std::span<const std::uint64_t> pi_words,
                  std::vector<std::uint64_t>& values) const;

  /// Single-vector convenience: `eval_words` with the vector in lane 0.
  /// Returns the primary-output values in `nl.outputs()` order.
  std::vector<bool> eval_outputs(const std::vector<bool>& pi_values) const;

 private:
  const Netlist* nl_;
};

/// Functional equivalence of two netlists with identical PI/PO name sets
/// (matched by name, so gate-level rewrites in between are fine).
/// Exhaustive when the PI count is at most `exhaustive_limit` (default 14,
/// i.e. <= 16384 vectors, 256 words); otherwise `n_random_vectors` random
/// vectors under the draw-order contract above. A `true` result consumes
/// exactly n_random_vectors * n_pi draws; a `false` one may stop up to 63
/// vectors past the first mismatching vector (the rest of its word).
/// Throws std::invalid_argument if the interfaces do not match.
bool equivalent(const Netlist& a, const Netlist& b, util::Rng& rng,
                int n_random_vectors = 512, int exhaustive_limit = 14);

/// Per-node toggle rates from random-vector simulation plus the aggregate
/// switched capacitance; feeds the dynamic power estimate.
struct ActivityReport {
  std::vector<double> toggle_rate;      ///< toggles per input vector, per node
  /// Fraction of vectors on which the node evaluates to 1 (static "ones
  /// probability"); weights the state-dependent leakage model — a CMOS
  /// gate's N network leaks while the output is high, the P network while
  /// it is low.
  std::vector<double> p_one;
  double switched_cap_ff_per_vec = 0.0; ///< sum(load_ff * toggle_rate)
};

/// Simulate `n_vectors` uniform random vectors (draw-order contract above)
/// and measure node toggle rates (fraction of consecutive vector pairs
/// where the node flips). Counts one `netlist.activity_runs` and
/// `n_vectors` `netlist.activity_vectors` in the obs registry.
ActivityReport estimate_activity(const Netlist& nl, util::Rng& rng,
                                 int n_vectors = 1024);

}  // namespace pops::netlist
