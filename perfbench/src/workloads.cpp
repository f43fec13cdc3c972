// The benchmark's workloads: deterministic grids drawn from --seed.
//
// The Tc ratios are stratified: the [0.7, 1.0] range is cut into equal
// strata and every circuit draws one ratio per stratum, uniformly within
// kJitter of the stratum's width around its centre. A point's cost jumps
// where the protocol starts to engage, so fully uniform draws would make
// one seed's grid cost a quarter more than another's; jittered centres
// keep every seed's mix of tight and loose constraints — and so its cost —
// comparable, while the exact points (and their cache keys) still change
// with the seed.

#include <algorithm>
#include <stdexcept>

#include "bench.hpp"

namespace perfbench {

namespace {

const std::vector<std::string>& iscas_circuits() {
  static const std::vector<std::string> names = {
      "c432",  "c499",  "c880",  "c1355", "c1908",
      "c3540", "c5315", "c6288", "c7552",
  };
  return names;
}

constexpr double kTcLo = 0.7;
constexpr double kTcHi = 1.0;
constexpr double kJitter = 0.1;

/// Seed of one named random stream of a run.
std::uint64_t stream_seed(std::uint64_t seed, const std::string& stream) {
  std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a over the stream name
  for (const char c : stream) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h ^ (seed * 0x9E3779B97F4A7C15ull);
}

/// One ratio per (circuit, stratum), circuits fastest within a stratum.
std::vector<GridPoint> stratified_grid(const std::vector<std::string>& circuits,
                                       int strata, std::uint64_t seed) {
  util::Rng rng(stream_seed(seed, "tc-ratios"));
  std::vector<GridPoint> grid;
  const double width = (kTcHi - kTcLo) / strata;
  for (int s = 0; s < strata; ++s)
    for (const std::string& c : circuits) {
      GridPoint p;
      p.circuit = c;
      p.tc_ratio = kTcLo + width * (s + 0.5 + kJitter * (rng.uniform() - 0.5));
      grid.push_back(p);
    }
  return grid;
}

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed,
                       bool short_mode) {
  Workload w;
  w.name = name;
  const std::vector<std::string> circuits =
      short_mode ? std::vector<std::string>{"c17"} : iscas_circuits();
  w.circuits = circuits;

  if (name == "iscas-shield") {
    w.grid = stratified_grid(circuits, 3, seed);
    return w;
  }
  if (name == "multivt-state") {
    for (const double t : {25.0, 85.0})
      for (GridPoint p : stratified_grid(circuits, 1, seed)) {
        p.policy = "minimal";
        p.power_model = "state";
        p.temperature_c = t;
        p.vt_policy = "multi-vt";
        w.grid.push_back(p);
      }
    return w;
  }
  throw std::invalid_argument(
      "unknown workload '" + name +
      "' (iscas-shield, multivt-state)");
}

/// Seeded sample of `k` distinct indices below `n`.
std::vector<std::size_t> sample_indices(std::size_t n, std::size_t k,
                                        std::uint64_t seed) {
  util::Rng rng(stream_seed(seed, "check-sample"));
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = i;
  for (std::size_t i = n; i > 1; --i)
    std::swap(idx[i - 1], idx[static_cast<std::size_t>(rng.uniform_int(
                              0, static_cast<std::int64_t>(i) - 1))]);
  idx.resize(std::min(k, n));
  std::sort(idx.begin(), idx.end());
  return idx;
}

}  // namespace perfbench
