// Tests for the benchmark provider: the structural circuits are
// functionally correct, the synthetic ISCAS-like circuits match their spec
// (critical-path depth, gate budget) and generation is deterministic.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "pops/liberty/library.hpp"
#include "pops/netlist/bench_io.hpp"
#include "pops/netlist/benchmarks.hpp"
#include "pops/netlist/logic_sim.hpp"
#include "pops/process/technology.hpp"
#include "pops/util/rng.hpp"

namespace {

using namespace pops::netlist;
using pops::liberty::CellKind;
using pops::liberty::Library;
using pops::process::Technology;
using pops::util::Rng;

class BenchmarksTest : public ::testing::Test {
 protected:
  Library lib{Technology::cmos025()};
};

TEST_F(BenchmarksTest, Adder16AddsCorrectly) {
  const Netlist nl = make_adder16(lib);
  const LogicSimulator sim(nl);
  Rng rng(101);

  struct Case {
    unsigned a, b;
    bool cin;
    std::pair<unsigned, bool> want;  // (sum, cout)
  };
  // Directed corners.
  std::vector<Case> cases = {
      {0, 0, false, {0u, false}},
      {0xFFFF, 0, true, {0u, true}},
      {0xFFFF, 1, false, {0u, true}},
      {0x8000, 0x8000, false, {0u, true}},
      {1234, 4321, false, {5555u, false}},
  };
  // Random vectors.
  for (int t = 0; t < 200; ++t) {
    const unsigned a = static_cast<unsigned>(rng.uniform_int(0, 0xFFFF));
    const unsigned b = static_cast<unsigned>(rng.uniform_int(0, 0xFFFF));
    const bool cin = rng.bernoulli(0.5);
    const unsigned full = a + b + (cin ? 1u : 0u);
    cases.push_back({a, b, cin, {full & 0xFFFFu, (full >> 16) != 0u}});
  }

  // Case c rides in lane c % 64 of batch c / 64.
  for (std::size_t first = 0; first < cases.size(); first += 64) {
    const std::size_t lanes = std::min<std::size_t>(64, cases.size() - first);
    std::vector<std::uint64_t> in(33, 0);
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      const Case& c = cases[first + lane];
      const std::uint64_t bit = std::uint64_t{1} << lane;
      for (int i = 0; i < 16; ++i) {
        if ((c.a >> i) & 1u) in[static_cast<std::size_t>(i)] |= bit;       // a0..a15
        if ((c.b >> i) & 1u) in[static_cast<std::size_t>(16 + i)] |= bit;  // b0..b15
      }
      if (c.cin) in[32] |= bit;
    }
    std::vector<std::uint64_t> values;
    sim.eval_words(in, values);
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      const Case& c = cases[first + lane];
      auto bit_of = [&](const std::string& name) {
        return ((values[static_cast<std::size_t>(nl.find(name))] >> lane) & 1u) != 0;
      };
      unsigned sum = 0;
      for (int i = 0; i < 16; ++i)
        if (bit_of("s" + std::to_string(i))) sum |= 1u << i;
      EXPECT_EQ(std::make_pair(sum, bit_of("cout")), c.want)
          << c.a << "+" << c.b << "+" << c.cin;
    }
  }
}

TEST_F(BenchmarksTest, C17MatchesPublishedStructure) {
  const Netlist nl = make_c17(lib);
  EXPECT_EQ(nl.stats().n_gates, 6u);
  EXPECT_EQ(nl.stats().gates_by_kind.at("nand2"), 6u);
  EXPECT_EQ(nl.stats().n_inputs, 5u);
  EXPECT_EQ(nl.stats().n_outputs, 2u);
}

TEST_F(BenchmarksTest, SpecsLookupAndUnknownName) {
  EXPECT_EQ(benchmark_spec("c432").path_depth, 29);
  EXPECT_EQ(benchmark_spec("c6288").path_depth, 116);
  EXPECT_THROW(benchmark_spec("c9999"), std::invalid_argument);
  EXPECT_THROW(make_benchmark(lib, "c9999"), std::invalid_argument);
}

class SyntheticBenchmarkTest
    : public ::testing::TestWithParam<const char*> {};

TEST_P(SyntheticBenchmarkTest, MatchesSpecShape) {
  const Library lib(Technology::cmos025());
  const BenchmarkSpec& spec = benchmark_spec(GetParam());
  const Netlist nl = make_synthetic(lib, spec);
  EXPECT_NO_THROW(nl.validate());

  const NetlistStats stats = nl.stats();
  EXPECT_EQ(stats.n_inputs, static_cast<std::size_t>(spec.n_pi));
  EXPECT_EQ(stats.n_gates, static_cast<std::size_t>(spec.n_gates));
  // The deepest path realises exactly the published critical-path length.
  EXPECT_EQ(stats.depth, static_cast<std::size_t>(spec.path_depth));
  EXPECT_GE(stats.n_outputs, 1u);
}

INSTANTIATE_TEST_SUITE_P(PaperSuite, SyntheticBenchmarkTest,
                         ::testing::Values("fpd", "c432", "c499", "c880",
                                           "c1355", "c1908", "c3540"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

TEST_F(BenchmarksTest, GenerationIsDeterministic) {
  const Netlist a = make_benchmark(lib, "c432");
  const Netlist b = make_benchmark(lib, "c432");
  EXPECT_EQ(write_bench_string(a), write_bench_string(b));
}

TEST_F(BenchmarksTest, DifferentSeedsDiffer) {
  BenchmarkSpec spec = benchmark_spec("c432");
  const Netlist a = make_synthetic(lib, spec);
  spec.seed ^= 0xDEADBEEF;
  const Netlist b = make_synthetic(lib, spec);
  EXPECT_NE(write_bench_string(a), write_bench_string(b));
}

TEST_F(BenchmarksTest, BadSpecThrows) {
  BenchmarkSpec spec{"tiny", 1, 1, 1, 1, 0};
  EXPECT_THROW(make_synthetic(lib, spec), std::invalid_argument);
}

TEST_F(BenchmarksTest, ChainBuilder) {
  const Netlist nl = make_chain(
      lib, {CellKind::Inv, CellKind::Nand2, CellKind::Nor3}, 12.0, "t");
  EXPECT_EQ(nl.stats().n_gates, 3u);
  // Side inputs: nand2 needs 1, nor3 needs 2 -> 1 main + 3 side PIs.
  EXPECT_EQ(nl.stats().n_inputs, 4u);
  EXPECT_EQ(nl.stats().depth, 3u);
  EXPECT_NO_THROW(nl.validate());
  EXPECT_THROW(make_chain(lib, {}, 1.0), std::invalid_argument);
}

TEST_F(BenchmarksTest, PaperFigureCircuits) {
  const Netlist fig3 = make_fig3_path(lib);
  EXPECT_EQ(fig3.stats().n_gates, 11u);  // the 11-gate path of Fig. 3
  const Netlist fig6 = make_fig6_array(lib);
  EXPECT_EQ(fig6.stats().n_gates, 13u);  // the 13-gate array of Fig. 6
  // Fig. 6's array has a heavily loaded interior node.
  const NodeId g6 = fig6.find("fig6_array_g6");
  ASSERT_NE(g6, kNoNode);
  EXPECT_GT(fig6.node(g6).wire_cap_ff, 20.0 * lib.cref_ff());
}

TEST_F(BenchmarksTest, AllPaperBenchmarksMaterialise) {
  for (const BenchmarkSpec& spec : paper_benchmarks()) {
    const Netlist nl = make_benchmark(lib, spec.name);
    EXPECT_NO_THROW(nl.validate()) << spec.name;
    EXPECT_GE(nl.stats().n_gates, 6u) << spec.name;
  }
}

}  // namespace
