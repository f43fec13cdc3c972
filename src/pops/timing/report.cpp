#include "pops/timing/report.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "pops/util/fmt.hpp"
#include "pops/util/table.hpp"

namespace pops::timing {

using netlist::Netlist;
using netlist::NodeId;

std::string report_paths(const Netlist& nl, const Sta& sta,
                         const StaResult& result, const ReportOptions& opt) {
  std::ostringstream out;
  const auto paths = sta.k_critical_paths(result, opt.max_paths);
  const double tc =
      opt.tc_ps > 0.0 ? opt.tc_ps : result.critical_delay_ps;

  for (std::size_t p = 0; p < paths.size(); ++p) {
    const TimedPath& path = paths[p];
    out << "Path #" << (p + 1) << ": delay " << util::fmt(path.delay_ps, 1)
        << " ps, slack " << util::fmt(tc - path.delay_ps, 1) << " ps\n";

    util::Table t({"point", "cell", "edge", "incr (ps)", "arrival (ps)",
                   "slew (ps)", "load (fF)"});
    for (std::size_t c = 3; c < 7; ++c) t.set_align(c, util::Align::Right);

    double prev_at = 0.0;
    for (const PathPoint& pt : path.points) {
      const netlist::Node& node = nl.node(pt.node);
      const double at = node.is_input ? 0.0 : result.arrival(pt.node, pt.edge);
      t.add_row({node.name,
                 node.is_input ? "(input)" : nl.cell_of(pt.node).name,
                 to_string(pt.edge),
                 node.is_input ? "-" : util::fmt(at - prev_at, 1),
                 util::fmt(at, 1),
                 util::fmt(result.slew(pt.node, pt.edge), 1),
                 node.is_input ? "-" : util::fmt(nl.load_ff(pt.node), 1)});
      prev_at = at;
    }
    out << t.str() << "\n";
  }
  return out.str();
}

std::string report_endpoints(const Netlist& nl, const Sta& sta,
                             const StaResult& result,
                             const ReportOptions& opt) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double tc = opt.tc_ps > 0.0 ? opt.tc_ps : result.critical_delay_ps;
  const std::vector<double> down = sta.downstream_delays(result);

  // Each row shows the slack-determining edge, as in Sta::slacks: its
  // required time is tc - down, which is earlier than tc for a PO that
  // also drives gates, so required - arrival = slack on every row.
  struct Endpoint {
    NodeId id;
    double arrival;
    double required;
    double slack;
  };
  std::vector<Endpoint> endpoints;
  for (NodeId po : nl.outputs()) {
    Endpoint ep{po, -kInf, tc, kInf};
    for (Edge e : {Edge::Rise, Edge::Fall}) {
      const double at = result.arrival(po, e);
      if (at == -kInf) continue;
      const double required =
          tc - down[2 * static_cast<std::size_t>(po) + StaResult::idx(e)];
      if (required - at < ep.slack) ep = {po, at, required, required - at};
    }
    endpoints.push_back(ep);
  }
  std::sort(endpoints.begin(), endpoints.end(),
            [](const Endpoint& a, const Endpoint& b) {
              return a.slack < b.slack;
            });

  util::Table t({"endpoint", "arrival (ps)", "required (ps)", "slack (ps)",
                 "status"});
  for (std::size_t c = 1; c < 4; ++c) t.set_align(c, util::Align::Right);
  for (const Endpoint& ep : endpoints) {
    t.add_row({nl.node(ep.id).name, util::fmt(ep.arrival, 1),
               util::fmt(ep.required, 1), util::fmt(ep.slack, 1),
               ep.slack < 0.0 ? "VIOLATED" : "met"});
  }
  std::ostringstream out;
  out << "Endpoint slacks against Tc = " << util::fmt(tc, 1) << " ps:\n"
      << t.str();
  return out.str();
}

std::string report_slack_histogram(const Netlist& nl, const Sta& sta,
                                   const StaResult& result,
                                   const ReportOptions& opt) {
  const double tc = opt.tc_ps > 0.0 ? opt.tc_ps : result.critical_delay_ps;
  const std::vector<double> slack = sta.slacks(result, tc);

  std::vector<double> values;
  for (NodeId po : nl.outputs())
    values.push_back(slack[static_cast<std::size_t>(po)]);
  if (values.empty()) return "(no endpoints)\n";

  const auto [mn_it, mx_it] = std::minmax_element(values.begin(), values.end());
  const double lo = *mn_it, hi = *mx_it;
  const int buckets = std::max(1, opt.histogram_buckets);
  const double width = (hi - lo) / buckets > 0 ? (hi - lo) / buckets : 1.0;

  std::vector<int> count(static_cast<std::size_t>(buckets), 0);
  for (double v : values) {
    int b = static_cast<int>((v - lo) / width);
    b = std::clamp(b, 0, buckets - 1);
    ++count[static_cast<std::size_t>(b)];
  }
  const int peak = *std::max_element(count.begin(), count.end());

  std::ostringstream out;
  out << "Endpoint slack histogram (" << values.size() << " endpoints):\n";
  for (int b = 0; b < buckets; ++b) {
    const double from = lo + b * width;
    out << util::fixed(from, 1, 9) << " .. " << util::fixed(from + width, 1, 9)
        << " ps |";
    const int bar =
        peak > 0 ? count[static_cast<std::size_t>(b)] * 40 / peak : 0;
    for (int i = 0; i < bar; ++i) out << '#';
    out << " " << count[static_cast<std::size_t>(b)] << "\n";
  }
  return out.str();
}

}  // namespace pops::timing
