// The pops::net daemon: loopback integration. A spec submitted through
// SweepServer with record_runtimes=false must stream point records
// byte-identical — exact bytes, no scrubbing — to an in-process
// SweepService run serialized with SerializeOptions{.measured=false},
// under concurrent clients; a cache-file restart must serve the
// resubmitted spec entirely from the persisted cache, again byte-exact.
// Cache provenance (hits/misses) is asserted via the done-event summary
// instead of per-record flags. Plus protocol plumbing: control ops,
// inline .bench shipping, error events, and line framing.

#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "pops/api/api.hpp"
#include "pops/net/client.hpp"
#include "pops/net/protocol.hpp"
#include "pops/net/server.hpp"
#include "pops/net/socket.hpp"
#include "pops/netlist/benchmarks.hpp"
#include "pops/service/serialize.hpp"
#include "pops/service/sweep.hpp"

namespace {

using namespace pops;
using net::SweepClient;
using net::SweepServer;
using net::SweepServerOptions;
using net::SweepSummary;
using service::SweepSpec;
using util::Json;

SweepSpec small_spec() {
  SweepSpec spec;
  spec.circuits = {"c17", "c432"};
  spec.tc_ratios = {0.85, 0.95};
  spec.n_threads = 2;
  return spec;
}

/// The reference: the same spec run in-process, records dumped without
/// the measured section — exactly like the daemon streams them for a
/// record_runtimes=false submission.
std::vector<std::string> in_process_records(const SweepSpec& spec) {
  api::OptContext ctx;
  service::SweepService sweeps(ctx);
  std::vector<std::string> records;
  sweeps.run(
      spec,
      [&ctx](const std::string& name) {
        return netlist::make_benchmark(ctx.lib(), name);
      },
      [&records](const service::SweepPoint& point) {
        records.push_back(
            service::to_json(point, {.measured = false}).dump(0));
      });
  return records;
}

/// Submit with record_runtimes=false (no inline benches, default PO
/// load) and collect the raw record lines.
SweepSummary submit_exact(SweepClient& client, const SweepSpec& spec,
                          std::vector<std::string>& records) {
  return client.submit(
      spec,
      [&records](const Json&, const std::string& raw) {
        records.push_back(raw);
      },
      /*bench=*/{}, /*po_load_ff=*/12.0, /*record_runtimes=*/false);
}

TEST(SweepServer, StreamsRecordsBitIdenticalToInProcessRun) {
  const SweepSpec spec = small_spec();
  const std::vector<std::string> expected = in_process_records(spec);
  ASSERT_EQ(expected.size(), 4u);

  SweepServer server;  // ephemeral port, in-memory cache
  server.start();
  SweepClient client("127.0.0.1", server.port());

  std::vector<std::string> streamed;
  const SweepSummary summary = submit_exact(client, spec, streamed);
  EXPECT_EQ(summary.points, 4u);
  EXPECT_EQ(summary.cache_misses, 4u);
  // Exact bytes, record for record: without the measured section the
  // stream is a pure function of the spec.
  ASSERT_EQ(streamed.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i)
    EXPECT_EQ(streamed[i], expected[i]) << i;

  // Resubmission over the same connection replays from the shared
  // cache — byte-exact; provenance shows up in the summary counters.
  std::vector<std::string> replayed;
  const SweepSummary again = submit_exact(client, spec, replayed);
  EXPECT_EQ(again.points, 4u);
  EXPECT_EQ(again.cache_hits, 4u);
  EXPECT_EQ(again.cache_misses, 0u);
  ASSERT_EQ(replayed.size(), streamed.size());
  for (std::size_t i = 0; i < streamed.size(); ++i)
    EXPECT_EQ(replayed[i], streamed[i]) << i;
  server.stop();
}

TEST(SweepServer, DefaultSubmissionQuarantinesMeasurementsInReport) {
  // The default (record_runtimes=true) stream carries its measurements
  // in the report's trailing "measured" object — from_cache plus the
  // wall-clock fields — keeping the deterministic body untouched.
  SweepServer server;
  server.start();
  SweepClient client("127.0.0.1", server.port());

  SweepSpec spec;
  spec.circuits = {"c17"};
  spec.tc_ratios = {0.9};
  std::vector<Json> points;
  client.submit(spec, [&points](const Json& point, const std::string&) {
    points.push_back(point);
  });
  ASSERT_EQ(points.size(), 1u);
  const Json* measured = points[0].find("report")->find("measured");
  ASSERT_NE(measured, nullptr);
  EXPECT_FALSE(measured->find("from_cache")->as_bool());
  EXPECT_TRUE(measured->find("runtime_ms")->is_number());

  // The replay restores the cached report but re-stamps provenance.
  points.clear();
  client.submit(spec, [&points](const Json& point, const std::string&) {
    points.push_back(point);
  });
  ASSERT_EQ(points.size(), 1u);
  EXPECT_TRUE(points[0]
                  .find("report")
                  ->find("measured")
                  ->find("from_cache")
                  ->as_bool());
  server.stop();
}

TEST(SweepServer, ConcurrentClientsGetTheirOwnStreams) {
  const SweepSpec spec = small_spec();
  const std::vector<std::string> expected = in_process_records(spec);

  SweepServer server;
  server.start();

  // >= 2 concurrent clients, same spec: each must receive the complete,
  // correctly ordered record stream on its own connection (the server
  // serializes execution; the second submission is served from cache).
  constexpr int kClients = 3;
  std::vector<std::vector<std::string>> streams(kClients);
  std::vector<SweepSummary> summaries(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      SweepClient client("127.0.0.1", server.port());
      summaries[c] = submit_exact(client, spec, streams[c]);
    });
  }
  for (std::thread& t : clients) t.join();

  std::size_t total_hits = 0;
  std::size_t total_misses = 0;
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(summaries[c].points, expected.size()) << "client " << c;
    ASSERT_EQ(streams[c].size(), expected.size()) << "client " << c;
    for (std::size_t i = 0; i < expected.size(); ++i)
      // Exact bytes against the in-process reference — which also makes
      // every client's stream identical to every other's, whether it
      // executed fresh or replayed the cache.
      EXPECT_EQ(streams[c][i], expected[i])
          << "client " << c << " record " << i;
    total_hits += summaries[c].cache_hits;
    total_misses += summaries[c].cache_misses;
  }
  // The grid is computed once; every other client replays it.
  EXPECT_EQ(total_misses, expected.size());
  EXPECT_EQ(total_hits, expected.size() * (kClients - 1));
  server.stop();
}

TEST(SweepServer, CacheFileRestartServesEverythingFromCache) {
  const std::string path =
      ::testing::TempDir() + "pops_net_restart_cache.json";
  std::remove(path.c_str());
  const SweepSpec spec = small_spec();

  std::vector<std::string> first_run;
  {
    SweepServerOptions opt;
    opt.cache_file = path;
    SweepServer server(opt);
    const service::CacheLoadReport loaded = server.start();
    EXPECT_EQ(loaded.entries_loaded, 0u);  // cold start
    SweepClient client("127.0.0.1", server.port());
    const SweepSummary summary = submit_exact(client, spec, first_run);
    EXPECT_EQ(summary.cache_misses, 4u);
    client.shutdown_server();
    server.wait();
    server.stop();  // flushes the cache file
  }

  {
    SweepServerOptions opt;
    opt.cache_file = path;
    SweepServer server(opt);
    const service::CacheLoadReport loaded = server.start();
    EXPECT_EQ(loaded.entries_loaded, 4u);
    EXPECT_TRUE(loaded.problems.empty());
    SweepClient client("127.0.0.1", server.port());
    std::vector<std::string> warm_run;
    const SweepSummary summary = submit_exact(client, spec, warm_run);
    // ALL points served from the persisted cache — the summary counters
    // carry the provenance — and the stream is byte-exact against the
    // pre-restart run.
    EXPECT_EQ(summary.cache_hits, 4u);
    EXPECT_EQ(summary.cache_misses, 0u);
    ASSERT_EQ(warm_run.size(), first_run.size());
    for (std::size_t i = 0; i < warm_run.size(); ++i)
      EXPECT_EQ(warm_run[i], first_run[i]) << i;
    server.stop();
  }
  std::remove(path.c_str());
}

TEST(SweepServer, InlineBenchSourcesResolveBeforeBuiltins) {
  SweepServer server;
  server.start();
  SweepClient client("127.0.0.1", server.port());

  // A tiny hand-written circuit shipped inline — no built-in fallback.
  const std::string bench =
      "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n";
  SweepSpec spec;
  spec.circuits = {"tiny"};
  spec.tc_ratios = {0.9};

  std::vector<Json> points;
  const SweepSummary summary = client.submit(
      spec,
      [&points](const Json& point, const std::string&) {
        points.push_back(point);
      },
      {{"tiny", bench}}, /*po_load_ff=*/9.0);
  EXPECT_EQ(summary.points, 1u);
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].find("circuit")->as_string(), "tiny");
  server.stop();
}

TEST(SweepServer, ControlOpsAndErrorEvents) {
  SweepServer server;
  server.start();
  SweepClient client("127.0.0.1", server.port());

  EXPECT_EQ(net::event_name(client.ping()), "pong");

  const Json stats = client.server_stats();
  EXPECT_EQ(net::event_name(stats), "stats");
  ASSERT_NE(stats.find("cache"), nullptr);
  EXPECT_TRUE(stats.find("cache")->find("entries")->is_number());

  // An invalid spec (empty circuits) must come back as an error event
  // that throws client-side — and the connection stays usable.
  SweepSpec bad;
  bad.tc_ratios = {0.9};
  EXPECT_THROW(client.submit(bad), std::runtime_error);
  EXPECT_EQ(net::event_name(client.ping()), "pong");

  // Unknown circuit: make_benchmark throws server-side -> error event.
  SweepSpec unknown;
  unknown.circuits = {"no-such-circuit"};
  unknown.tc_ratios = {0.9};
  EXPECT_THROW(client.submit(unknown), std::runtime_error);
  EXPECT_EQ(net::event_name(client.ping()), "pong");
  EXPECT_GE(server.stats().errors, 2u);
  server.stop();
}

TEST(SweepServer, NonFiniteAxesRejectedLocallyAndOnTheWire) {
  // tc_ratio / shield_margin = inf or nan must fail on every path: the
  // local SweepService, the wire request codec, and a live daemon.
  api::OptContext ctx;
  const service::SweepService local(ctx, /*use_cache=*/false);
  const auto load = [&ctx](const std::string& name) {
    return netlist::make_benchmark(ctx.lib(), name);
  };
  SweepServer server;
  server.start();
  SweepClient client("127.0.0.1", server.port());

  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const bool margin_axis : {false, true}) {
    for (const double bad : {inf, -inf, nan}) {
      SweepSpec spec;
      spec.circuits = {"c17"};
      spec.tc_ratios = {0.9};
      (margin_axis ? spec.shield_margins : spec.tc_ratios).push_back(bad);
      const std::string what = std::string(margin_axis ? "margin " : "tc ") +
                               std::to_string(bad);
      EXPECT_FALSE(spec.validate().empty()) << what;
      EXPECT_THROW(local.run(spec, load), std::invalid_argument) << what;
      // The daemon's request path: decode, then validate the spec. On the
      // wire the non-finite number travels as JSON text (null).
      const Json request = net::make_sweep_request(
          spec, {}, /*po_load_ff=*/0.0, /*record_runtimes=*/true,
          /*trace_id=*/0);
      for (const Json& req : {request, Json::parse(request.dump())})
        EXPECT_THROW(net::parse_request(req).spec.ensure_valid(),
                     std::invalid_argument)
            << what;
      EXPECT_THROW(client.submit(spec), std::runtime_error) << what;
    }
  }
  EXPECT_EQ(net::event_name(client.ping()), "pong");
  server.stop();
}

TEST(SweepServer, MalformedLinesAnswerWithErrors) {
  SweepServer server;
  server.start();
  net::TcpStream raw = net::TcpStream::connect("127.0.0.1", server.port());
  std::string line;

  raw.write_line("this is not json");
  ASSERT_TRUE(raw.read_line(line));
  EXPECT_EQ(net::event_name(Json::parse(line)), "error");

  raw.write_line(R"({"op": "frobnicate"})");
  ASSERT_TRUE(raw.read_line(line));
  const Json reply = Json::parse(line);
  EXPECT_EQ(net::event_name(reply), "error");
  EXPECT_NE(reply.find("message")->as_string().find("unknown op"),
            std::string::npos);

  raw.write_line(R"({"op": "sweep"})");  // missing spec
  ASSERT_TRUE(raw.read_line(line));
  EXPECT_EQ(net::event_name(Json::parse(line)), "error");
  server.stop();
}

TEST(SweepServer, ShutdownOpStopsWait) {
  SweepServer server;
  server.start();
  std::thread waiter([&server] { server.wait(); });
  SweepClient client("127.0.0.1", server.port());
  EXPECT_EQ(net::event_name(client.shutdown_server()), "bye");
  waiter.join();  // wait() released by the op
  server.stop();
}

TEST(TcpStream, LineFramingAndBounds) {
  net::TcpListener listener = net::TcpListener::bind("127.0.0.1", 0);
  net::TcpStream client =
      net::TcpStream::connect("127.0.0.1", listener.port());
  net::TcpStream peer{listener.accept()};
  ASSERT_TRUE(peer.valid());

  client.write_line("alpha");
  client.write_line("beta");
  std::string line;
  ASSERT_TRUE(peer.read_line(line));
  EXPECT_EQ(line, "alpha");
  ASSERT_TRUE(peer.read_line(line));
  EXPECT_EQ(line, "beta");

  // Oversized line -> bounded read throws instead of buffering forever.
  client.write_line(std::string(4096, 'x'));
  EXPECT_THROW(peer.read_line(line, 16), std::runtime_error);

  // EOF after half-close.
  net::TcpStream client2 =
      net::TcpStream::connect("127.0.0.1", listener.port());
  net::TcpStream peer2{listener.accept()};
  client2.write_line("last");
  client2.shutdown_write();
  ASSERT_TRUE(peer2.read_line(line));
  EXPECT_EQ(line, "last");
  EXPECT_FALSE(peer2.read_line(line));
  listener.close();
}

}  // namespace
