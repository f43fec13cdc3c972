// Unit tests for the ISCAS-85 .bench reader/writer: format coverage,
// decomposition of non-library operators, error diagnostics, round trips.

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

class BenchIoTest : public ::testing::Test {
 protected:
  Library lib{Technology::cmos025()};
};

TEST_F(BenchIoTest, ParsesBasicOps) {
  const Netlist nl = read_bench_string(R"(
# comment line
INPUT(a)
INPUT(b)
OUTPUT(y)
n1 = NAND(a, b)
n2 = NOT(n1)
y  = NOR(n2, a)
)",
                                       lib);
  EXPECT_EQ(nl.stats().n_inputs, 2u);
  EXPECT_EQ(nl.stats().n_gates, 3u);
  EXPECT_EQ(nl.node(nl.find("y")).kind, CellKind::Nor2);
  EXPECT_TRUE(nl.node(nl.find("y")).is_output);
  EXPECT_NO_THROW(nl.validate());
}

TEST_F(BenchIoTest, HandlesOutOfOrderDefinitions) {
  const Netlist nl = read_bench_string(R"(
INPUT(a)
OUTPUT(y)
y = NOT(m)
m = NOT(a)
)",
                                       lib);
  EXPECT_EQ(nl.stats().n_gates, 2u);
}

TEST_F(BenchIoTest, DecomposesAndOrIntoLibrary) {
  const Netlist nl = read_bench_string(R"(
INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(y)
y = AND(a, b, c)
)",
                                       lib);
  // AND is not a library cell: expect a NAND3 + INV (or equivalent tree).
  const LogicSimulator sim(nl);
  for (unsigned p = 0; p < 8; ++p) {
    const bool a = p & 1, b = p & 2, c = p & 4;
    EXPECT_EQ(sim.eval_outputs({a, b, c}).front(), a && b && c) << p;
  }
}

TEST_F(BenchIoTest, WideGatesMatchSemantics) {
  // 8-input NAND / 6-input OR / 3-input XOR, as found in real ISCAS files.
  const Netlist nl = read_bench_string(R"(
INPUT(i0)
INPUT(i1)
INPUT(i2)
INPUT(i3)
INPUT(i4)
INPUT(i5)
INPUT(i6)
INPUT(i7)
OUTPUT(w)
OUTPUT(o)
OUTPUT(x)
w = NAND(i0, i1, i2, i3, i4, i5, i6, i7)
o = OR(i0, i1, i2, i3, i4, i5)
x = XOR(i0, i1, i2)
)",
                                       lib);
  const LogicSimulator sim(nl);
  Rng rng(7);
  // 200 random vectors, 64 per word: vector t rides in lane t % 64.
  for (int first = 0; first < 200; first += 64) {
    const int lanes = std::min(64, 200 - first);
    std::vector<std::vector<bool>> vecs;
    std::vector<std::uint64_t> in(8, 0);
    for (int lane = 0; lane < lanes; ++lane) {
      std::vector<bool> v(8);
      for (std::size_t i = 0; i < 8; ++i) {
        v[i] = rng.bernoulli(0.5);
        if (v[i]) in[i] |= std::uint64_t{1} << lane;
      }
      vecs.push_back(std::move(v));
    }
    // Outputs come back in netlist id order: w, o, x were declared in that
    // order but instantiated lazily; match by name instead.
    std::vector<std::uint64_t> values;
    sim.eval_words(in, values);
    auto bit_of = [&](const char* name, int lane) {
      return ((values[static_cast<std::size_t>(nl.find(name))] >> lane) & 1u) != 0;
    };
    for (int lane = 0; lane < lanes; ++lane) {
      const std::vector<bool>& v = vecs[static_cast<std::size_t>(lane)];
      bool expect_w = true;
      for (std::size_t i = 0; i < 8; ++i) expect_w = expect_w && v[i];
      bool expect_o = false;
      for (std::size_t i = 0; i < 6; ++i) expect_o = expect_o || v[i];
      const bool expect_x = v[0] ^ v[1] ^ v[2];
      EXPECT_EQ(bit_of("w", lane), !expect_w) << first + lane;
      EXPECT_EQ(bit_of("o", lane), expect_o) << first + lane;
      EXPECT_EQ(bit_of("x", lane), expect_x) << first + lane;
    }
  }
}

TEST_F(BenchIoTest, ErrorsAreLineNumbered) {
  try {
    read_bench_string("INPUT(a)\ny = FROB(a)\nOUTPUT(y)\n", lib);
    FAIL() << "expected parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("FROB"), std::string::npos);
  }
}

TEST_F(BenchIoTest, UndefinedSignalThrows) {
  EXPECT_THROW(
      read_bench_string("INPUT(a)\nOUTPUT(y)\ny = NOT(ghost)\n", lib),
      std::runtime_error);
}

TEST_F(BenchIoTest, RedefinedSignalThrows) {
  EXPECT_THROW(read_bench_string(
                   "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\ny = BUF(a)\n", lib),
               std::runtime_error);
}

TEST_F(BenchIoTest, UndefinedOutputThrows) {
  EXPECT_THROW(read_bench_string("INPUT(a)\nOUTPUT(nope)\n", lib),
               std::runtime_error);
}

TEST_F(BenchIoTest, CycleDetected) {
  EXPECT_THROW(read_bench_string(
                   "INPUT(a)\nOUTPUT(y)\nu = NOT(v)\nv = NOT(u)\ny = NOT(u)\n",
                   lib),
               std::runtime_error);
}

TEST_F(BenchIoTest, PoLoadApplied) {
  BenchReadOptions opt;
  opt.po_load_ff = 42.0;
  const Netlist nl =
      read_bench_string("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n", lib, opt);
  EXPECT_DOUBLE_EQ(nl.node(nl.find("y")).po_load_ff, 42.0);
}

TEST_F(BenchIoTest, RoundTripPreservesFunction) {
  const Netlist original = make_c17(lib);
  const std::string text = write_bench_string(original);
  const Netlist reread = read_bench_string(text, lib);
  Rng rng(11);
  EXPECT_TRUE(equivalent(original, reread, rng));
}

TEST_F(BenchIoTest, RoundTripAdder) {
  const Netlist original = make_adder16(lib);
  const std::string text = write_bench_string(original);
  const Netlist reread = read_bench_string(text, lib);
  Rng rng(12);
  EXPECT_TRUE(equivalent(original, reread, rng, /*n_random_vectors=*/256));
}

TEST_F(BenchIoTest, AoiOaiRoundTripByDecomposition) {
  Netlist nl(lib);
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId c = nl.add_input("c");
  const NodeId g = nl.add_gate(CellKind::Aoi21, "g", {a, b, c});
  const NodeId h = nl.add_gate(CellKind::Oai21, "h", {a, g, c});
  nl.mark_output(h, 1.0);
  const Netlist reread = read_bench_string(write_bench_string(nl), lib);
  Rng rng(13);
  EXPECT_TRUE(equivalent(nl, reread, rng));
}

}  // namespace
