#pragma once
// Shared plumbing for the reproduction benches: every experiment starts
// from the critical path of a benchmark circuit, extracted exactly the way
// POPS does it (STA -> most critical PI->PO path -> bounded path with
// frozen off-path loads).

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "pops/api/api.hpp"
#include "pops/core/protocol.hpp"
#include "pops/netlist/benchmarks.hpp"
#include "pops/obs/clock.hpp"
#include "pops/timing/sta.hpp"
#include "pops/util/json.hpp"
#include "pops/util/parallel.hpp"
#include "pops/util/table.hpp"

namespace bench_common {

using pops::api::OptContext;
using pops::liberty::Library;
using pops::netlist::Netlist;
using pops::timing::BoundedPath;
using pops::timing::DelayModel;

/// A named benchmark critical path ready for optimisation.
struct PathCase {
  std::string name;
  std::size_t gate_count;  ///< gates on the extracted path
  BoundedPath path;
};

/// Extract the critical path of a named benchmark.
inline PathCase critical_path_case(const Library& lib, const DelayModel& dm,
                                   const std::string& name) {
  Netlist nl = pops::netlist::make_benchmark(lib, name);
  const pops::timing::Sta sta(nl, dm);
  const pops::timing::StaResult res = sta.run();
  const pops::timing::TimedPath tp = sta.critical_path(res);
  BoundedPath bp =
      BoundedPath::extract(nl, tp, dm.default_input_slew_ps());
  return PathCase{name, bp.size(), std::move(bp)};
}

/// Context-based overload: the way new experiments should pull their
/// environment (one OptContext per technology node).
inline PathCase critical_path_case(const OptContext& ctx,
                                   const std::string& name) {
  return critical_path_case(ctx.lib(), ctx.dm(), name);
}

/// The Table 1 benchmark list (paper order).
inline const std::vector<std::string>& paper_circuit_names() {
  static const std::vector<std::string> names = {
      "Adder16", "fpd",   "c432",  "c499",  "c880",  "c1355",
      "c1908",   "c3540", "c5315", "c6288", "c7552",
  };
  return names;
}

/// Milliseconds spent in `fn` (single shot; the workloads here are large
/// enough that one run is representative, mirroring the paper's Table 1).
/// Clocked through obs — the one blessed clock reader — like every other
/// measurement in the tree.
template <typename Fn>
double time_ms(Fn&& fn) {
  const pops::obs::StopWatch watch;
  fn();
  return watch.elapsed_ms();
}

/// Effective parallelism the host gives this process right now: the same
/// fixed integer spin on `workers` pool threads at once against one alone,
/// workers x t1 / tN. An oversubscribed host (nproc larger than the cores
/// it really runs) shows fewer than `workers`.
inline double effective_parallelism(std::size_t workers) {
  constexpr std::uint64_t kIters = 20'000'000;
  std::atomic<std::uint64_t> sink{0};
  const auto timed = [&](std::size_t n) {
    const pops::obs::StopWatch watch;
    pops::util::ThreadPool::global().for_chunks(
        n, n, [&](std::size_t, std::size_t) {
          std::uint64_t x = 0x9E3779B97F4A7C15ull;
          for (std::uint64_t i = 0; i < kIters; ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
          }
          sink += x;
        });
    return watch.elapsed_ms();
  };
  const double t1 = timed(1);
  const double tn = timed(workers);
  return tn > 0.0 ? static_cast<double>(workers) * t1 / tn : 0.0;
}

/// Measured parallelism within this fraction of the worker count still
/// counts as "the host ran them all": probe timings are noisy.
inline constexpr double kProbeSlack = 0.9;

/// The decision behind add_guarded_speedup: empty when a `threads`-worker
/// speedup is real data on a host whose probe measured `effective_cores`,
/// otherwise the reason to record null instead.
inline std::string speedup_withheld_reason(double effective_cores,
                                           std::size_t threads,
                                           double ms_parallel) {
  if (!(ms_parallel > 0.0)) return "no parallel timing";
  if (effective_cores >= kProbeSlack * static_cast<double>(threads))
    return "";
  return "effective-parallelism probe measured " +
         pops::util::fmt(effective_cores, 2) + " core(s) for " +
         std::to_string(threads) + " workers; the speedup would measure " +
         "oversubscription, not scaling";
}

/// Record ms_base/ms_parallel as row["speedup"] — but only when an
/// effective-parallelism probe shows the host actually runs `threads`
/// workers at once. hardware_concurrency() is not that evidence: a
/// container can report 4 hardware threads and run about one. Otherwise
/// the row gets "speedup": null plus a "note" with the reason.
/// Per-thread-count timings should always be emitted alongside; only the
/// ratio is suppressed.
inline void add_guarded_speedup(pops::util::Json& row, double ms_base,
                                double ms_parallel, std::size_t threads) {
  const double effective = effective_parallelism(threads);
  row["hardware_threads"] = std::thread::hardware_concurrency();
  row["effective_parallelism"] = effective;
  const std::string reason =
      speedup_withheld_reason(effective, threads, ms_parallel);
  if (reason.empty()) {
    row["speedup"] = ms_base / ms_parallel;
  } else {
    row["speedup"] = pops::util::Json();  // null
    row["note"] = reason;
  }
}

/// Write a bench's BENCH_<name>.json artifact (cross-PR perf tracking):
/// argv[1] overrides the default path. Returns the process exit code so
/// mains can `return write_bench_json(...)`.
inline int write_bench_json(int argc, char** argv, const char* name,
                            const pops::util::Json& doc) {
  const std::string path =
      argc > 1 ? argv[1] : std::string("BENCH_") + name + ".json";
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  out << doc.dump(2) << "\n";
  std::printf("\nJSON timings written to %s\n", path.c_str());
  return 0;
}

/// Print a standard bench header.
inline void print_header(const char* experiment, const char* claim) {
  std::printf("================================================================\n");
  std::printf("%s\n", experiment);
  std::printf("Paper reference shape: %s\n", claim);
  std::printf("================================================================\n");
}

}  // namespace bench_common
