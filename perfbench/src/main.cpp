// pops_perfbench — the POPS sweep benchmark program.
//
//   pops_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  --state-dir DIR [--short] [--corrupt]
//
// Prints a human-readable summary, then, as the last stdout line, one
// JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// The full result (both metric families, host fingerprint, work counts,
// check failures) is written to DIR/results/. Exit status 0 iff every
// output check passed and no point failed.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>

#include "bench.hpp"

namespace {

using namespace perfbench;

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    if (a == "--workload") o.workload = value();
    else if (a == "--seed") o.seed = std::stoull(value());
    else if (a == "--seconds") o.seconds = std::stod(value());
    else if (a == "--trace") o.trace = value() != "0";
    else if (a == "--state-dir") o.state_dir = value();
    else if (a == "--short") o.short_mode = true;
    else if (a == "--corrupt") o.corrupt = true;
    else throw std::invalid_argument("unknown argument " + a);
  }
  if (o.workload.empty()) throw std::invalid_argument("--workload is required");
  if (o.state_dir.empty()) throw std::invalid_argument("--state-dir is required");
  if (!(o.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return o;
}

util::Json metrics_json(const std::vector<Metric>& ms) {
  util::Json j = util::Json::object();
  for (const Metric& m : ms) {
    util::Json v = util::Json::object();
    v["value"] = m.value;
    v["unit"] = m.unit;
    j[m.name] = std::move(v);
  }
  return j;
}

void print_table(const char* title, const std::vector<Metric>& ms) {
  std::printf("%s\n", title);
  for (const Metric& m : ms)
    std::printf("  %-30s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    opt = parse(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pops_perfbench: %s\n", e.what());
    return 2;
  }

  Result res;
  util::Json host;
  try {
    const Workload w = make_workload(opt.workload, opt.seed, opt.short_mode);
    host = host_fingerprint();
    res = run_inprocess(w, opt);
    res.detail["grid_points"] = static_cast<double>(w.grid.size());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pops_perfbench: %s\n", e.what());
    return 1;
  }
  if (opt.trace)
    res.layer("host.effective_parallelism",
              host.find("effective_parallelism")->as_number(), "cores");

  const bool correct = res.check_failures.empty() && res.failed == 0;
  res.detail["host"] = host;
  util::Json failures = util::Json::array();
  for (const std::string& f : res.check_failures) failures.push_back(f);

  util::Json full = util::Json::object();
  full["workload"] = opt.workload;
  full["seed"] = static_cast<double>(opt.seed);
  full["seconds"] = opt.seconds;
  full["trace"] = opt.trace;
  full["short"] = opt.short_mode;
  full["correct"] = correct;
  full["attempted"] = static_cast<double>(res.attempted);
  full["failed"] = static_cast<double>(res.failed);
  full["check_failures"] = failures;
  full["end_to_end"] = metrics_json(res.end_to_end);
  full["per_layer"] = metrics_json(res.per_layer);
  full["detail"] = res.detail;
  namespace fs = std::filesystem;
  const fs::path results = fs::path(opt.state_dir) / "results";
  fs::create_directories(results);
  const fs::path file =
      results / (opt.workload + (opt.short_mode ? "-short" : "") + "-seed" +
                 std::to_string(opt.seed) + "-trace" +
                 (opt.trace ? "1" : "0") + ".json");
  std::ofstream(file) << full.dump(2) << "\n";

  std::printf("workload %s  seed %llu  host: %s, %g hw threads, effective "
              "parallelism %.2f\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              host.find("cpu_model")->as_string().c_str(),
              host.find("hardware_concurrency")->as_number(),
              host.find("effective_parallelism")->as_number());
  print_table("end-to-end:", res.end_to_end);
  if (opt.trace) print_table("per-layer:", res.per_layer);
  std::printf("work counts and details: %s\n", file.string().c_str());
  for (const std::string& f : res.check_failures)
    std::printf("CHECK FAILED: %s\n", f.c_str());

  util::Json line = util::Json::object();
  line["correct"] = correct;
  line["attempted"] = static_cast<double>(res.attempted);
  line["failed"] = static_cast<double>(
      std::min(res.attempted, res.failed + res.check_failures.size()));
  line["metrics"] = metrics_json(opt.trace ? res.per_layer : res.end_to_end);
  std::printf("%s\n", line.dump(0).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
