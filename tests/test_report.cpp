// Tests for the textual timing reports.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "pops/liberty/library.hpp"
#include "pops/netlist/benchmarks.hpp"
#include "pops/netlist/bench_io.hpp"
#include "pops/process/technology.hpp"
#include "pops/timing/report.hpp"
#include "pops/util/table.hpp"

namespace {

using namespace pops;
using namespace pops::timing;
using liberty::Library;
using process::Technology;

class ReportTest : public ::testing::Test {
 protected:
  Library lib{Technology::cmos025()};
  ClosedFormModel dm{lib};
};

TEST_F(ReportTest, PathReportShowsStages) {
  const netlist::Netlist nl = netlist::make_c17(lib);
  const Sta sta(nl, dm);
  const StaResult res = sta.run();
  ReportOptions opt;
  opt.max_paths = 2;
  const std::string text = report_paths(nl, sta, res, opt);
  EXPECT_NE(text.find("Path #1"), std::string::npos);
  EXPECT_NE(text.find("Path #2"), std::string::npos);
  EXPECT_NE(text.find("nand2"), std::string::npos);
  EXPECT_NE(text.find("(input)"), std::string::npos);
  // Critical path delay appears.
  EXPECT_NE(text.find(util::fmt(res.critical_delay_ps, 1)),
            std::string::npos);
}

TEST_F(ReportTest, EndpointReportSortsWorstFirst) {
  const netlist::Netlist nl = netlist::make_benchmark(lib, "fpd");
  const Sta sta(nl, dm);
  const StaResult res = sta.run();
  ReportOptions opt;
  opt.tc_ps = res.critical_delay_ps;  // exact: worst endpoint has 0 slack
  const std::string text = report_endpoints(nl, sta, res, opt);
  // First data row carries the worst slack: 0.0 at the critical endpoint.
  const std::size_t first_row = text.find("| ", text.find("status"));
  ASSERT_NE(first_row, std::string::npos);
  EXPECT_NE(text.find("0.0"), std::string::npos);
  EXPECT_EQ(text.find("VIOLATED"), std::string::npos);  // met exactly
}

TEST_F(ReportTest, ViolationsFlagged) {
  const netlist::Netlist nl = netlist::make_c17(lib);
  const Sta sta(nl, dm);
  const StaResult res = sta.run();
  ReportOptions opt;
  opt.tc_ps = 0.5 * res.critical_delay_ps;
  const std::string text = report_endpoints(nl, sta, res, opt);
  EXPECT_NE(text.find("VIOLATED"), std::string::npos);
}

TEST_F(ReportTest, HistogramCountsAllEndpoints) {
  const netlist::Netlist nl = netlist::make_benchmark(lib, "c499");
  const Sta sta(nl, dm);
  const StaResult res = sta.run();
  const std::string text = report_slack_histogram(nl, sta, res);
  const std::size_t n_po = nl.outputs().size();
  EXPECT_NE(text.find(std::to_string(n_po) + " endpoints"),
            std::string::npos);
  EXPECT_NE(text.find('#'), std::string::npos);
}

TEST_F(ReportTest, DefaultTcIsCriticalDelay) {
  const netlist::Netlist nl = netlist::make_c17(lib);
  const Sta sta(nl, dm);
  const StaResult res = sta.run();
  const std::string text = report_endpoints(nl, sta, res);
  EXPECT_NE(text.find(util::fmt(res.critical_delay_ps, 1)),
            std::string::npos);
}

// Cells of the report row whose first cell is `name` (empty if absent).
std::vector<std::string> row_of(const std::string& text,
                                const std::string& name) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    std::vector<std::string> cells;
    std::istringstream row(line);
    std::string cell;
    while (std::getline(row, cell, '|')) {
      const std::size_t b = cell.find_first_not_of(' ');
      const std::size_t e = cell.find_last_not_of(' ');
      if (b != std::string::npos) cells.push_back(cell.substr(b, e - b + 1));
    }
    if (!cells.empty() && cells.front() == name) return cells;
  }
  return {};
}

// A PO that also drives gates is required before Tc: its required column
// is tc - down of the slack-determining edge, so every row satisfies
// required - arrival = slack (up to the printed rounding).
TEST_F(ReportTest, EndpointRowsSatisfyRequiredMinusArrivalIsSlack) {
  const netlist::Netlist nl = netlist::read_bench_string(
      "INPUT(a)\nINPUT(b)\nOUTPUT(x)\nOUTPUT(y)\n"
      "x = NAND(a, b)\nn1 = NOT(x)\nn2 = NOT(n1)\ny = NOT(n2)\n",
      lib);
  const netlist::NodeId x = nl.find("x");
  ASSERT_FALSE(nl.fanouts(x).empty());  // the PO under test drives a gate

  const Sta sta(nl, dm);
  const StaResult res = sta.run();
  ReportOptions opt;
  opt.tc_ps = 1.2 * res.critical_delay_ps;
  const std::string text = report_endpoints(nl, sta, res, opt);
  const std::vector<double> slack = sta.slacks(res, opt.tc_ps);
  const std::vector<double> down = sta.downstream_delays(res);

  // x's slack-determining edge, by the definition in Sta::slacks.
  double worst = std::numeric_limits<double>::infinity();
  double required = 0.0;
  for (Edge e : {Edge::Rise, Edge::Fall}) {
    const double r =
        opt.tc_ps - down[2 * static_cast<std::size_t>(x) + StaResult::idx(e)];
    if (r - res.arrival(x, e) < worst) {
      worst = r - res.arrival(x, e);
      required = r;
    }
  }
  const std::vector<std::string> x_row = row_of(text, "x");
  ASSERT_EQ(x_row.size(), 5u) << text;
  EXPECT_EQ(x_row[2], util::fmt(required, 1)) << text;
  EXPECT_NE(x_row[2], util::fmt(opt.tc_ps, 1)) << text;
  EXPECT_EQ(x_row[3], util::fmt(slack[static_cast<std::size_t>(x)], 1));

  for (const char* po : {"x", "y"}) {
    const std::vector<std::string> row = row_of(text, po);
    ASSERT_EQ(row.size(), 5u) << po << "\n" << text;
    const double at = std::stod(row[1]);
    const double req = std::stod(row[2]);
    const double sl = std::stod(row[3]);
    EXPECT_NEAR(req - at, sl, 0.1 + 1e-9) << po << "\n" << text;
    EXPECT_EQ(row[3],
              util::fmt(slack[static_cast<std::size_t>(nl.find(po))], 1));
  }
}

}  // namespace
