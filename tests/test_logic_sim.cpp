// Unit tests for the zero-delay logic simulator: truth tables, functional
// equivalence checking and switching-activity estimation.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "pops/api/api.hpp"
#include "pops/liberty/library.hpp"
#include "pops/netlist/benchmarks.hpp"
#include "pops/netlist/logic_sim.hpp"
#include "pops/obs/metrics.hpp"
#include "pops/process/technology.hpp"
#include "pops/util/rng.hpp"

namespace {

using namespace pops::netlist;
using pops::liberty::CellKind;
using pops::liberty::Library;
using pops::process::Technology;
using pops::util::Rng;

class LogicSimTest : public ::testing::Test {
 protected:
  Library lib{Technology::cmos025()};
};

TEST_F(LogicSimTest, C17KnownVectors) {
  const Netlist nl = make_c17(lib);
  const LogicSimulator sim(nl);
  // c17: 22 = NAND(10,16), 23 = NAND(16,19) with
  // 10=NAND(1,3), 11=NAND(3,6), 16=NAND(2,11), 19=NAND(11,7).
  // All-zero input: 10=1, 11=1, 16=1, 19=1 -> 22=0, 23=0.
  EXPECT_EQ(sim.eval_outputs({false, false, false, false, false}),
            (std::vector<bool>{false, false}));
  // All-one input: 10=0, 11=0, 16=1, 19=1 -> 22=1, 23=0.
  EXPECT_EQ(sim.eval_outputs({true, true, true, true, true}),
            (std::vector<bool>{true, false}));
}

TEST_F(LogicSimTest, PiCountMismatchThrows) {
  const Netlist nl = make_c17(lib);
  const LogicSimulator sim(nl);
  const std::uint64_t one_word[1] = {~std::uint64_t{0}};
  std::vector<std::uint64_t> values;
  EXPECT_THROW(sim.eval_words(one_word, values), std::invalid_argument);
  EXPECT_THROW(sim.eval_outputs({true}), std::invalid_argument);
}

TEST_F(LogicSimTest, EquivalentToItself) {
  const Netlist a = make_c17(lib);
  const Netlist b = make_c17(lib);
  Rng rng(1);
  EXPECT_TRUE(equivalent(a, b, rng));
}

TEST_F(LogicSimTest, DetectsFunctionalChange) {
  const Netlist a = make_c17(lib);
  Netlist b = make_c17(lib);
  // Tamper: swap a NAND for a NOR.
  const NodeId g = b.find("22");
  ASSERT_NE(g, kNoNode);
  b.replace_cell(g, CellKind::Nor2);
  Rng rng(1);
  EXPECT_FALSE(equivalent(a, b, rng));
}

TEST_F(LogicSimTest, EquivalenceIsSizeBlind) {
  const Netlist a = make_c17(lib);
  Netlist b = make_c17(lib);
  for (NodeId g : b.gates()) b.set_drive(g, 5.0);
  Rng rng(2);
  EXPECT_TRUE(equivalent(a, b, rng));
}

TEST_F(LogicSimTest, MismatchedInterfaceThrows) {
  const Netlist a = make_c17(lib);
  Netlist b(lib);
  b.add_input("1");
  const NodeId g = b.add_gate(CellKind::Inv, "22", {b.find("1")});
  b.mark_output(g, 1.0);
  Rng rng(3);
  EXPECT_THROW(equivalent(a, b, rng), std::invalid_argument);
}

TEST_F(LogicSimTest, ActivityBounds) {
  const Netlist nl = make_c17(lib);
  Rng rng(4);
  const ActivityReport rep = estimate_activity(nl, rng, 2000);
  ASSERT_EQ(rep.toggle_rate.size(), nl.size());
  for (double r : rep.toggle_rate) {
    EXPECT_GE(r, 0.0);
    EXPECT_LE(r, 1.0);
  }
  // PIs toggle at ~1/2 under uniform random vectors.
  for (NodeId pi : nl.inputs())
    EXPECT_NEAR(rep.toggle_rate[static_cast<std::size_t>(pi)], 0.5, 0.08);
  EXPECT_GT(rep.switched_cap_ff_per_vec, 0.0);
}

TEST_F(LogicSimTest, ActivityNeedsTwoVectors) {
  const Netlist nl = make_c17(lib);
  Rng rng(5);
  EXPECT_THROW(estimate_activity(nl, rng, 1), std::invalid_argument);
}

TEST_F(LogicSimTest, InverterChainParity) {
  // A chain of N inverters computes parity of N: output = in XOR (N odd).
  for (int n : {1, 2, 5, 8}) {
    std::vector<CellKind> kinds(static_cast<std::size_t>(n), CellKind::Inv);
    const Netlist nl = make_chain(lib, kinds, 5.0, "chain" + std::to_string(n));
    const LogicSimulator sim(nl);
    const bool out_for_true = sim.eval_outputs({true}).front();
    EXPECT_EQ(out_for_true, n % 2 == 0);
  }
}

// ---- oracle: the scalar activity simulation the word kernel replaced ---------

/// Boolean function of one cell over scalar pins, written out per kind.
bool scalar_cell(CellKind kind, const std::vector<bool>& in) {
  bool conj = true;
  bool disj = false;
  for (const bool b : in) {
    conj = conj && b;
    disj = disj || b;
  }
  switch (kind) {
    case CellKind::Inv: return !in[0];
    case CellKind::Buf: return in[0];
    case CellKind::Nand2:
    case CellKind::Nand3:
    case CellKind::Nand4: return !conj;
    case CellKind::Nor2:
    case CellKind::Nor3:
    case CellKind::Nor4: return !disj;
    case CellKind::Aoi21: return !((in[0] && in[1]) || in[2]);
    case CellKind::Oai21: return !((in[0] || in[1]) && in[2]);
    case CellKind::Xor2: return in[0] != in[1];
    case CellKind::Xnor2: return in[0] == in[1];
  }
  return false;
}

/// The one-vector-at-a-time estimate_activity, straight-line: per vector,
/// one bernoulli(0.5) per PI in input order, a full topological evaluation,
/// then ones/toggle counting against the previous vector. The word kernel
/// must reproduce these numbers bit for bit and consume the same draws.
ActivityReport scalar_reference_activity(const Netlist& nl, Rng& rng,
                                         int n_vectors) {
  std::vector<int> toggles(nl.size(), 0);
  std::vector<int> ones(nl.size(), 0);
  std::vector<bool> prev;
  for (int v = 0; v < n_vectors; ++v) {
    std::vector<bool> cur(nl.size(), false);
    for (NodeId pi : nl.inputs())
      cur[static_cast<std::size_t>(pi)] = rng.bernoulli(0.5);
    for (NodeId id : nl.topo_order()) {
      const Node& n = nl.node(id);
      if (n.is_input) continue;
      std::vector<bool> in;
      for (NodeId f : n.fanins) in.push_back(cur[static_cast<std::size_t>(f)]);
      cur[static_cast<std::size_t>(id)] = scalar_cell(n.kind, in);
    }
    for (std::size_t i = 0; i < cur.size(); ++i) {
      if (cur[i]) ++ones[i];
      if (v > 0 && cur[i] != prev[i]) ++toggles[i];
    }
    prev = std::move(cur);
  }
  ActivityReport report;
  report.toggle_rate.resize(nl.size());
  report.p_one.resize(nl.size());
  const double pairs = static_cast<double>(n_vectors - 1);
  for (std::size_t i = 0; i < nl.size(); ++i) {
    report.toggle_rate[i] = static_cast<double>(toggles[i]) / pairs;
    report.p_one[i] =
        static_cast<double>(ones[i]) / static_cast<double>(n_vectors);
    report.switched_cap_ff_per_vec +=
        report.toggle_rate[i] * nl.load_ff(static_cast<NodeId>(i));
  }
  return report;
}

/// Vector counts around the word boundaries plus the production sizes.
constexpr int kOracleVectorCounts[] = {2, 63, 64, 65, 100, 512, 2000};

void expect_matches_oracle(const Netlist& nl, const std::string& label) {
  for (const int n_vectors : kOracleVectorCounts) {
    Rng ref_rng(0xAC71 + static_cast<std::uint64_t>(n_vectors));
    Rng word_rng(0xAC71 + static_cast<std::uint64_t>(n_vectors));
    const ActivityReport want = scalar_reference_activity(nl, ref_rng, n_vectors);
    const ActivityReport got = estimate_activity(nl, word_rng, n_vectors);
    EXPECT_EQ(got.toggle_rate, want.toggle_rate) << label << " n=" << n_vectors;
    EXPECT_EQ(got.p_one, want.p_one) << label << " n=" << n_vectors;
    EXPECT_EQ(got.switched_cap_ff_per_vec, want.switched_cap_ff_per_vec)
        << label << " n=" << n_vectors;
    EXPECT_EQ(word_rng(), ref_rng()) << label << " n=" << n_vectors
                                     << ": RNG consumption differs";
  }
}

class ActivityOracleTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ActivityOracleTest, WordKernelMatchesScalarReferenceBitwise) {
  const Library lib(Technology::cmos025());
  expect_matches_oracle(make_benchmark(lib, GetParam()), GetParam());
}

std::vector<std::string> builtin_circuit_names() {
  std::vector<std::string> names = {"c17"};
  for (const BenchmarkSpec& spec : paper_benchmarks()) names.push_back(spec.name);
  return names;
}

INSTANTIATE_TEST_SUITE_P(BuiltinCircuits, ActivityOracleTest,
                         ::testing::ValuesIn(builtin_circuit_names()),
                         [](const auto& info) { return info.param; });

TEST(ActivityOracle, OptimizedC880WithBuffersAndHighVt) {
  // Shield buffers append nodes out of id order and the multi-Vt pass
  // flips Vt classes; neither may perturb the word kernel.
  pops::api::OptContext ctx;
  Netlist nl = make_benchmark(ctx.lib(), "c880");
  pops::api::OptimizerConfig cfg;
  cfg.enable_multi_vt = true;
  const pops::api::PipelineReport rep =
      pops::api::Optimizer(ctx, cfg).run_relative(nl, 1.0);
  ASSERT_GT(rep.total_buffers_inserted(), 0u);
  ASSERT_GT(rep.total_cells_high_vt(), 0u);
  expect_matches_oracle(nl, "optimized c880");
}

TEST(ActivityCounters, CountRunsAndVectors) {
  const Library lib(Technology::cmos025());
  const Netlist nl = make_c17(lib);
  auto counter = [](const char* name) {
    const pops::util::Json snap = pops::obs::Registry::global().snapshot_json();
    const pops::util::Json* v = snap.find("counters")->find(name);
    return v ? v->as_number() : 0.0;
  };
  const double runs = counter("netlist.activity_runs");
  const double vectors = counter("netlist.activity_vectors");
  Rng rng(9);
  estimate_activity(nl, rng, 100);
  estimate_activity(nl, rng, 65);
  EXPECT_EQ(counter("netlist.activity_runs"), runs + 2.0);
  EXPECT_EQ(counter("netlist.activity_vectors"), vectors + 165.0);
}

// ---- equivalence on the word kernel: boundaries and planted mismatches -------

/// `n` PIs i0.., one PO "y" = parity of the PIs. With `flip`, y is also
/// inverted on exactly the input vector whose bit i is PI i's value.
Netlist parity_circuit(const Library& lib, int n,
                       std::optional<std::uint64_t> flip = std::nullopt) {
  Netlist nl(lib);
  std::vector<NodeId> pis;
  for (int i = 0; i < n; ++i)
    pis.push_back(nl.add_input("i" + std::to_string(i)));
  NodeId parity = pis[0];
  for (int i = 1; i < n; ++i)
    parity = nl.add_gate(CellKind::Xor2, "p" + std::to_string(i),
                         {parity, pis[static_cast<std::size_t>(i)]});
  NodeId y = kNoNode;
  if (flip) {
    std::vector<NodeId> literals;
    for (int i = 0; i < n; ++i) {
      const NodeId pi = pis[static_cast<std::size_t>(i)];
      const bool one = ((*flip >> i) & 1u) != 0;
      literals.push_back(
          one ? pi
              : nl.add_gate(CellKind::Inv, "n" + std::to_string(i), {pi}));
    }
    const NodeId hit = build_wide_gate(nl, /*is_and=*/true, /*invert=*/false,
                                       literals, "hit");
    y = nl.add_gate(CellKind::Xor2, "y", {parity, hit});
  } else {
    y = nl.add_gate(CellKind::Buf, "y", {parity});
  }
  nl.mark_output(y, 1.0);
  nl.validate();
  return nl;
}

/// The first `count` random vectors equivalent() draws from `seed` for `n`
/// PIs, each packed as bit i = PI i.
std::vector<std::uint64_t> drawn_vectors(std::uint64_t seed, int n, int count) {
  Rng rng(seed);
  std::vector<std::uint64_t> out;
  for (int v = 0; v < count; ++v) {
    std::uint64_t bits = 0;
    for (int i = 0; i < n; ++i)
      if (rng.bernoulli(0.5)) bits |= std::uint64_t{1} << i;
    out.push_back(bits);
  }
  return out;
}

class ExhaustiveBoundaryTest : public ::testing::TestWithParam<int> {
 protected:
  Library lib{Technology::cmos025()};
};

TEST_P(ExhaustiveBoundaryTest, FindsMismatchInFirstAndLastLane) {
  const int n = GetParam();
  const Netlist a = parity_circuit(lib, n);
  Rng rng(21);
  const Rng untouched = rng;
  EXPECT_TRUE(equivalent(a, parity_circuit(lib, n), rng));
  // Pattern 0 is lane 0 of the first word, pattern 63 its lane 63. The
  // all-ones pattern is lane 63 of the last word when n >= 6, and the last
  // live lane before the masked tail when n < 6. The one-hot patterns pin
  // each PI's lane mask (PIs 0-5) or word-index bit (PIs 6+).
  const std::uint64_t last = (std::uint64_t{1} << n) - 1;
  std::vector<std::uint64_t> flips = {0, std::min<std::uint64_t>(63, last), last};
  for (int i = 0; i < n; ++i) flips.push_back(std::uint64_t{1} << i);
  for (const std::uint64_t flip : flips)
    EXPECT_FALSE(equivalent(a, parity_circuit(lib, n, flip), rng))
        << "n_pi=" << n << " flip=" << flip;
  Rng reference = untouched;
  EXPECT_EQ(rng(), reference()) << "the exhaustive path drew random numbers";
}

INSTANTIATE_TEST_SUITE_P(PiCounts, ExhaustiveBoundaryTest,
                         ::testing::Values(5, 6, 7, 14));

class RandomPathTest : public ::testing::Test {
 protected:
  static constexpr int kPis = 15;  // one past the default exhaustive limit
  static constexpr std::uint64_t kSeed = 0xE9;
  Library lib{Technology::cmos025()};
};

TEST_F(RandomPathTest, TrueResultConsumesExactDraws) {
  const Netlist a = parity_circuit(lib, kPis);
  for (const int n_vectors : {1, 63, 64, 65, 100, 512}) {
    Rng rng(kSeed), reference(kSeed);
    EXPECT_TRUE(equivalent(a, parity_circuit(lib, kPis), rng, n_vectors));
    for (int k = 0; k < n_vectors * kPis; ++k) reference.bernoulli(0.5);
    EXPECT_EQ(rng(), reference()) << n_vectors;
  }
}

TEST_F(RandomPathTest, MismatchOnlyInLane63IsDetected) {
  const std::vector<std::uint64_t> vecs = drawn_vectors(kSeed, kPis, 64);
  const std::uint64_t target = vecs[63];
  for (int v = 0; v < 63; ++v) ASSERT_NE(vecs[static_cast<std::size_t>(v)], target);
  const Netlist a = parity_circuit(lib, kPis);
  const Netlist b = parity_circuit(lib, kPis, target);
  Rng short_rng(kSeed), full_rng(kSeed);
  EXPECT_TRUE(equivalent(a, b, short_rng, 63));
  EXPECT_FALSE(equivalent(a, b, full_rng, 64));
}

TEST_F(RandomPathTest, MismatchInLastTailLaneIsDetected) {
  // 100 vectors: the second word carries lanes 0..35; vector 99 is lane 35.
  const std::vector<std::uint64_t> vecs = drawn_vectors(kSeed, kPis, 100);
  const std::uint64_t target = vecs[99];
  for (int v = 0; v < 99; ++v) ASSERT_NE(vecs[static_cast<std::size_t>(v)], target);
  const Netlist a = parity_circuit(lib, kPis);
  const Netlist b = parity_circuit(lib, kPis, target);
  Rng short_rng(kSeed), full_rng(kSeed);
  EXPECT_TRUE(equivalent(a, b, short_rng, 99));
  EXPECT_FALSE(equivalent(a, b, full_rng, 100));
}

TEST_F(RandomPathTest, LanesPastTheTailNeverMismatch) {
  // Unused lanes of a partial word hold the all-zero vector. A circuit
  // pair differing only there must still compare equal whenever no drawn
  // vector is all-zero.
  const Netlist a = parity_circuit(lib, kPis);
  const Netlist b = parity_circuit(lib, kPis, std::uint64_t{0});
  for (const int n_vectors : {1, 63, 65, 100}) {
    for (const std::uint64_t v : drawn_vectors(kSeed, kPis, n_vectors))
      ASSERT_NE(v, 0u);
    Rng rng(kSeed);
    EXPECT_TRUE(equivalent(a, b, rng, n_vectors)) << n_vectors;
  }
}

}  // namespace
