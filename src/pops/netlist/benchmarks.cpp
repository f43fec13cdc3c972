#include "pops/netlist/benchmarks.hpp"

#include <algorithm>
#include <stdexcept>

#include "pops/netlist/bench_io.hpp"
#include "pops/util/rng.hpp"

namespace pops::netlist {

using liberty::CellKind;

const std::vector<BenchmarkSpec>& paper_benchmarks() {
  // PI/PO/gate counts follow the published ISCAS-85 profiles; path_depth is
  // Table 1's "Gate nb" (the gate count of the longest path POPS extracts).
  static const std::vector<BenchmarkSpec> specs = {
      {"Adder16", 33, 17, 144, 35, 0xADD16},  // structural; realised shape
      {"fpd", 16, 8, 120, 14, 0xF9D1},
      {"c432", 36, 7, 160, 29, 0x432},
      {"c499", 41, 32, 202, 29, 0x499},
      {"c880", 60, 26, 383, 28, 0x880},
      {"c1355", 41, 32, 546, 30, 0x1355},
      {"c1908", 33, 25, 880, 44, 0x1908},
      {"c3540", 50, 22, 1669, 58, 0x3540},
      {"c5315", 178, 123, 2307, 60, 0x5315},
      {"c6288", 32, 32, 2416, 116, 0x6288},
      {"c7552", 207, 108, 3512, 47, 0x7552},
  };
  return specs;
}

const BenchmarkSpec& benchmark_spec(const std::string& name) {
  for (const BenchmarkSpec& s : paper_benchmarks())
    if (s.name == name) return s;
  throw std::invalid_argument("unknown benchmark: " + name);
}

Netlist make_benchmark(const liberty::Library& lib, const std::string& name) {
  if (name == "c17") return make_c17(lib);
  if (name == "Adder16") return make_adder16(lib);
  return make_synthetic(lib, benchmark_spec(name));
}

Netlist make_c17(const liberty::Library& lib) {
  static const char* kC17 = R"(# c17 ISCAS-85
INPUT(1)
INPUT(2)
INPUT(3)
INPUT(6)
INPUT(7)
OUTPUT(22)
OUTPUT(23)
10 = NAND(1, 3)
11 = NAND(3, 6)
16 = NAND(2, 11)
19 = NAND(11, 7)
22 = NAND(10, 16)
23 = NAND(16, 19)
)";
  BenchReadOptions opt;
  opt.name = "c17";
  Netlist nl = read_bench_string(kC17, lib, opt);
  // Like every other built-in: validated, which also leaves the
  // topological order built, so every copy starts from the same cached
  // state and per-copy work (netlist.topo_rebuilds) does not depend on
  // whether the prototype was queried before it was copied.
  nl.validate();
  return nl;
}

namespace {

/// One 9-NAND full adder: sum = a^b^cin, cout = majority(a,b,cin).
/// Returns {sum, cout}.
std::pair<NodeId, NodeId> add_full_adder(Netlist& nl, NodeId a, NodeId b,
                                         NodeId cin, const std::string& p) {
  auto nand = [&](NodeId x, NodeId y, const char* tag) {
    return nl.add_gate(CellKind::Nand2, p + tag, {x, y});
  };
  // Half-XOR a^b via 4 NAND2.
  const NodeId n1 = nand(a, b, "_n1");
  const NodeId n2 = nand(a, n1, "_n2");
  const NodeId n3 = nand(b, n1, "_n3");
  const NodeId x1 = nand(n2, n3, "_x1");  // a ^ b
  // Second XOR with cin.
  const NodeId n4 = nand(x1, cin, "_n4");
  const NodeId n5 = nand(x1, n4, "_n5");
  const NodeId n6 = nand(cin, n4, "_n6");
  const NodeId sum = nand(n5, n6, "_sum");  // a ^ b ^ cin
  // cout = ab + cin(a^b) = NAND(n1, n4) since n1 = !(ab), n4 = !(cin(a^b)).
  const NodeId cout = nand(n1, n4, "_cout");
  return {sum, cout};
}

}  // namespace

Netlist make_adder16(const liberty::Library& lib) {
  Netlist nl(lib, "Adder16");
  const double po_load = 4.0 * lib.cref_ff();
  std::vector<NodeId> a(16), b(16);
  for (int i = 0; i < 16; ++i) a[static_cast<std::size_t>(i)] = nl.add_input("a" + std::to_string(i));
  for (int i = 0; i < 16; ++i) b[static_cast<std::size_t>(i)] = nl.add_input("b" + std::to_string(i));
  NodeId carry = nl.add_input("cin");
  for (int i = 0; i < 16; ++i) {
    const auto [sum, cout] = add_full_adder(nl, a[static_cast<std::size_t>(i)],
                                            b[static_cast<std::size_t>(i)],
                                            carry, "fa" + std::to_string(i));
    nl.rename(sum, "s" + std::to_string(i));
    nl.mark_output(sum, po_load);
    carry = cout;
  }
  nl.rename(carry, "cout");
  nl.mark_output(carry, po_load);
  nl.validate();
  return nl;
}

namespace {

/// Inverting-gate mix used by the synthetic generator; weights roughly
/// follow ISCAS-85 statistics (NAND-dominated, some NOR, ~15% inverters).
CellKind sample_kind(util::Rng& rng) {
  const double u = rng.uniform();
  if (u < 0.16) return CellKind::Inv;
  if (u < 0.52) return CellKind::Nand2;
  if (u < 0.64) return CellKind::Nor2;
  if (u < 0.76) return CellKind::Nand3;
  if (u < 0.84) return CellKind::Nor3;
  if (u < 0.89) return CellKind::Nand4;
  if (u < 0.92) return CellKind::Nor4;
  if (u < 0.96) return CellKind::Aoi21;
  return CellKind::Oai21;
}

/// Spine gate mix: 2-input inverting gates plus inverters, so the critical
/// path resembles the decomposed ISCAS paths the paper sizes.
CellKind sample_spine_kind(util::Rng& rng) {
  const double u = rng.uniform();
  if (u < 0.25) return CellKind::Inv;
  if (u < 0.60) return CellKind::Nand2;
  if (u < 0.80) return CellKind::Nor2;
  if (u < 0.92) return CellKind::Nand3;
  return CellKind::Nor3;
}

}  // namespace

Netlist make_synthetic(const liberty::Library& lib, const BenchmarkSpec& spec) {
  if (spec.n_pi < 2 || spec.path_depth < 2 || spec.n_gates < spec.path_depth)
    throw std::invalid_argument("make_synthetic: bad spec for " + spec.name);

  util::Rng rng(spec.seed);
  Netlist nl(lib, spec.name);
  const double po_load = 4.0 * lib.cref_ff();

  std::vector<NodeId> pis;
  pis.reserve(static_cast<std::size_t>(spec.n_pi));
  for (int i = 0; i < spec.n_pi; ++i)
    pis.push_back(nl.add_input(spec.name + "_pi" + std::to_string(i)));

  // depth[] tracks gate depth so fanin choices keep the spine the deepest
  // path: a node at depth d only consumes nodes of depth < d.
  std::vector<int> depth(nl.size(), 0);
  auto node_depth = [&](NodeId id) { return depth[static_cast<std::size_t>(id)]; };

  // Buckets of candidate fanins per depth for fast biased sampling.
  std::vector<std::vector<NodeId>> by_depth(
      static_cast<std::size_t>(spec.path_depth) + 1);
  for (NodeId pi : pis) by_depth[0].push_back(pi);

  auto register_node = [&](NodeId id, int d) {
    depth.resize(nl.size(), 0);
    depth[static_cast<std::size_t>(id)] = d;
    by_depth[static_cast<std::size_t>(d)].push_back(id);
  };

  // Sample a fanin strictly shallower than `dmax`, biased towards the
  // immediately preceding depths (local connectivity, like real circuits).
  auto sample_fanin = [&](int dmax) -> NodeId {
    for (int attempt = 0; attempt < 64; ++attempt) {
      // Geometric bias: mostly depth dmax-1, sometimes further back.
      int d = dmax - 1;
      while (d > 0 && rng.bernoulli(0.35)) --d;
      const auto& bucket = by_depth[static_cast<std::size_t>(d)];
      if (!bucket.empty())
        return bucket[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(bucket.size()) - 1))];
    }
    return pis[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(pis.size()) - 1))];
  };

  int gate_count = 0;

  // --- 1. the spine: a chain of `path_depth` gates --------------------------
  std::vector<NodeId> spine;
  NodeId prev = pis[0];
  for (int i = 0; i < spec.path_depth; ++i) {
    const CellKind kind = sample_spine_kind(rng);
    const liberty::Cell& cell = lib.cell(kind);
    std::vector<NodeId> fanins{prev};
    for (int f = 1; f < cell.fanin; ++f) {
      // Prefer distinct drivers (real gates rarely tie two pins together).
      NodeId fi = sample_fanin(i + 1);
      for (int attempt = 0;
           attempt < 8 &&
           std::find(fanins.begin(), fanins.end(), fi) != fanins.end();
           ++attempt)
        fi = sample_fanin(i + 1);
      fanins.push_back(fi);
    }
    const NodeId g = nl.add_gate(kind, spec.name + "_sp" + std::to_string(i),
                                 fanins);
    register_node(g, i + 1);
    spine.push_back(g);
    prev = g;
    ++gate_count;
  }

  // --- 2. filler logic -------------------------------------------------------
  while (gate_count < spec.n_gates) {
    const CellKind kind = sample_kind(rng);
    const liberty::Cell& cell = lib.cell(kind);
    // Target a depth in [1, path_depth]; deeper levels get denser, matching
    // the cone-shaped profile of real circuits.
    const int dmax = 1 + static_cast<int>(rng.uniform_int(0, spec.path_depth - 1));
    std::vector<NodeId> fanins;
    int realized = 0;
    for (int f = 0; f < cell.fanin; ++f) {
      NodeId fi = sample_fanin(dmax);  // depth(fi) <= dmax-1
      for (int attempt = 0;
           attempt < 8 &&
           std::find(fanins.begin(), fanins.end(), fi) != fanins.end();
           ++attempt)
        fi = sample_fanin(dmax);
      realized = std::max(realized, node_depth(fi) + 1);
      fanins.push_back(fi);
    }
    const NodeId g = nl.add_gate(
        kind, spec.name + "_g" + std::to_string(gate_count), fanins);
    register_node(g, realized);
    ++gate_count;
  }

  // --- 3. primary outputs ----------------------------------------------------
  // The spine end is always a PO; then pick up every dangling gate so the
  // netlist validates (real circuits have no dangling logic), counting
  // towards the n_po budget first and absorbing the rest as extra POs.
  nl.mark_output(spine.back(), po_load);
  int n_po = 1;
  for (NodeId id : nl.gates()) {
    if (nl.fanouts(id).empty() && !nl.node(id).is_output) {
      nl.mark_output(id, po_load);
      ++n_po;
    }
  }
  // If the circuit is under the PO budget, promote random deep gates.
  std::vector<NodeId> gates = nl.gates();
  for (int guard = 0; n_po < spec.n_po && guard < 10 * spec.n_po; ++guard) {
    const NodeId id = gates[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(gates.size()) - 1))];
    if (!nl.node(id).is_output && node_depth(id) > spec.path_depth / 3) {
      nl.mark_output(id, po_load);
      ++n_po;
    }
  }

  // --- 4. interconnect -------------------------------------------------------
  // Wire load grows with fanout count (~1.2 fF per sink plus a base stub).
  for (NodeId id : nl.gates()) {
    const double sinks = static_cast<double>(nl.fanouts(id).size());
    nl.set_wire_cap(id, 0.8 + 1.2 * sinks * rng.uniform(0.6, 1.4));
  }

  nl.validate();
  return nl;
}

Netlist make_chain(const liberty::Library& lib,
                   const std::vector<liberty::CellKind>& kinds,
                   double po_load_ff, const std::string& name) {
  if (kinds.empty()) throw std::invalid_argument("make_chain: empty");
  Netlist nl(lib, name);
  NodeId prev = nl.add_input("in");
  int side = 0;
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    const liberty::Cell& cell = lib.cell(kinds[i]);
    std::vector<NodeId> fanins{prev};
    for (int f = 1; f < cell.fanin; ++f)
      fanins.push_back(nl.add_input("side" + std::to_string(side++)));
    prev = nl.add_gate(kinds[i], name + "_g" + std::to_string(i), fanins);
  }
  nl.mark_output(prev, po_load_ff);
  nl.validate();
  return nl;
}

Netlist make_fig3_path(const liberty::Library& lib) {
  // An 11-gate mixed path similar in spirit to the paper's example:
  // alternating inverters and 2/3-input gates.
  const std::vector<CellKind> kinds = {
      CellKind::Inv,   CellKind::Nand2, CellKind::Nor2, CellKind::Inv,
      CellKind::Nand3, CellKind::Inv,   CellKind::Nor3, CellKind::Nand2,
      CellKind::Inv,   CellKind::Nor2,  CellKind::Inv,
  };
  Netlist nl = make_chain(lib, kinds, 30.0 * lib.cref_ff(), "fig3_path");
  return nl;
}

Netlist make_fig6_array(const liberty::Library& lib) {
  // 13-gate array with a heavily loaded interior node (where buffer
  // insertion pays off) — gate 6 carries a large wire + off-path load.
  const std::vector<CellKind> kinds = {
      CellKind::Inv,   CellKind::Nand2, CellKind::Inv,  CellKind::Nor2,
      CellKind::Nand2, CellKind::Inv,   CellKind::Nor3, CellKind::Inv,
      CellKind::Nand3, CellKind::Inv,   CellKind::Nor2, CellKind::Nand2,
      CellKind::Inv,
  };
  Netlist nl = make_chain(lib, kinds, 25.0 * lib.cref_ff(), "fig6_array");
  // Heavy interior loads: emulate long wires / wide off-path fanout.
  const NodeId g6 = nl.find("fig6_array_g6");
  const NodeId g3 = nl.find("fig6_array_g3");
  nl.set_wire_cap(g6, 40.0 * lib.cref_ff());
  nl.set_wire_cap(g3, 15.0 * lib.cref_ff());
  nl.validate();
  return nl;
}

}  // namespace pops::netlist
