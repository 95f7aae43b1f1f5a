// End-to-end network-wide aggregation (DESIGN.md §11): three measurement
// daemons stream their epochs to one collector over loopback while fault
// injection stalls sends, kills collector connections mid-stream, and
// duplicates frames.  The collector's merged view must equal a single
// reference instance that saw the concatenation of all three packet
// streams — exact for counters, top-k within heap re-estimation tolerance
// — and no epoch may ever be double-counted.  Every monitor is a
// runtime::MonitorRuntime, the epoch loop nitro_monitor --export-to ships.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "core/nitro_univmon.hpp"
#include "export/collector.hpp"
#include "export/exporter.hpp"
#include "fault/fault.hpp"
#include "ingest/synth_backend.hpp"
#include "runtime/monitor_runtime.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/trace.hpp"
#include "trace/workloads.hpp"

namespace nitro::xport {
namespace {

sketch::UnivMonConfig um_config() {
  sketch::UnivMonConfig cfg;
  cfg.levels = 6;
  cfg.depth = 3;
  cfg.top_width = 512;
  cfg.min_width = 128;
  cfg.heap_capacity = 128;
  return cfg;
}

constexpr std::uint64_t kSeed = 7;
constexpr int kMonitors = 3;
constexpr int kEpochsPerMonitor = 4;

core::NitroConfig vanilla_config() {
  core::NitroConfig cfg;
  cfg.mode = core::Mode::kVanilla;  // deterministic additive counters
  return cfg;
}

trace::Trace monitor_stream(int monitor) {
  trace::WorkloadSpec spec;
  spec.packets = 20'000;
  spec.flows = 800;
  spec.seed = 100 + static_cast<std::uint64_t>(monitor);
  return trace::caida_like(spec);
}

/// nitro_monitor --export-to ... --source-id `monitor`, exporting with
/// `ecfg`'s (test-sized) deadlines.
runtime::MonitorConfig monitor_config(int monitor, const ExporterConfig& ecfg) {
  runtime::MonitorConfig cfg;
  cfg.univmon = um_config();
  cfg.nitro = vanilla_config();
  cfg.seed = kSeed;
  cfg.source_id = static_cast<std::uint64_t>(monitor);
  cfg.exporter = ecfg;
  return cfg;
}

/// Ingest `stream` split into kEpochsPerMonitor epochs, closing each.
void run_epochs(runtime::MonitorRuntime& rt, const trace::Trace& stream) {
  const std::size_t per_epoch = stream.size() / kEpochsPerMonitor;
  for (int e = 0; e < kEpochsPerMonitor; ++e) {
    (void)rt.run_epoch(e == kEpochsPerMonitor - 1 ? ~0ull : per_epoch);
  }
}

struct E2eResult {
  std::uint64_t acked = 0;
  std::uint64_t published = 0;
};

/// Run one monitor: the shipped runtime fed `stream` split into epochs,
/// exporting every closed epoch to the collector.
E2eResult run_monitor(int monitor, const Endpoint& collector_ep,
                      telemetry::Registry& registry) {
  ExporterConfig ecfg;
  ecfg.endpoint = collector_ep;
  ecfg.connect_timeout_ms = 500;
  ecfg.ack_timeout_ms = 1500;
  ecfg.backoff_base_ns = 500'000;
  ecfg.backoff_max_ns = 10'000'000;
  ecfg.queue_capacity = 4;
  const auto stream = monitor_stream(monitor);
  ingest::SynthReplayBackend backend(stream);
  runtime::MonitorRuntime rt(monitor_config(monitor, ecfg), backend, registry);
  run_epochs(rt, stream);

  E2eResult r;
  r.published = static_cast<std::uint64_t>(kEpochsPerMonitor);
  EXPECT_TRUE(rt.shutdown(30'000)) << "monitor " << monitor << " did not drain";
  r.acked = rt.exporter()->epochs_acked();
  return r;
}

TEST(ExportE2e, ThreeMonitorsOneCollectorUnderInjectedFaults) {
  // The fault plan, all deterministic:
  //  * source 1's sends stall 50ms each (slow link) — every 2nd attempt;
  //  * source 2's frames are transmitted twice (dup storm) — every send;
  //  * the collector kills a connection outright at its 3rd and 9th
  //    ingested frame (mid-stream resets for whoever is connected).
  fault::Schedule schedule;
  schedule.add({fault::Site::kExportSend, 1, 2, 1, fault::Action::kStall, 50'000'000});
  schedule.duplicate_export_send(/*at_hit=*/1, /*every=*/1, /*lane=*/2);
  schedule.kill_collector_conn(/*at_hit=*/3);
  schedule.kill_collector_conn(/*at_hit=*/9);
  fault::ScopedFaultInjection guard(schedule);

  CollectorConfig ccfg;
  ccfg.um_cfg = um_config();
  ccfg.seed = kSeed;
  CollectorServer server(ccfg, *parse_endpoint("tcp:127.0.0.1:0"));
  telemetry::Registry registry;
  server.attach_telemetry(registry, "nitro_collector");
  ASSERT_TRUE(server.start());
  const Endpoint ep = server.endpoint();

  // Monitors run concurrently, as three daemons would on three switches,
  // each process with its own telemetry registry.
  std::vector<std::thread> monitors;
  std::vector<E2eResult> results(kMonitors + 1);
  std::array<telemetry::Registry, kMonitors + 1> monitor_registries;
  for (int m = 1; m <= kMonitors; ++m) {
    monitors.emplace_back([m, &ep, &monitor_registries, &results] {
      results[m] = run_monitor(m, ep, monitor_registries[m]);
    });
  }
  for (auto& t : monitors) t.join();

  // Every epoch from every monitor delivered exactly once.
  const std::uint64_t now = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
  for (int m = 1; m <= kMonitors; ++m) {
    EXPECT_EQ(results[m].acked, results[m].published) << "monitor " << m;
  }
  EXPECT_EQ(server.core().epochs_applied(),
            static_cast<std::uint64_t>(kMonitors * kEpochsPerMonitor));

  // The injections actually happened (a schedule that silently misses its
  // trigger would make this test vacuous).
  EXPECT_GE(schedule.fired(fault::Site::kExportSend), 2u);
  EXPECT_GE(schedule.fired(fault::Site::kCollectorIngest), 2u);
  EXPECT_GE(registry.counter("nitro_collector_injected_conn_kills_total").value(), 2u);
  EXPECT_GE(
      monitor_registries[2].counter("nitro_export_injected_dup_frames_total").value(),
      1u);

  // --- no double count: packets are exact per source and in total --------
  std::int64_t total_packets = 0;
  const auto sources = server.core().sources(now);
  ASSERT_EQ(sources.size(), static_cast<std::size_t>(kMonitors));
  for (const auto& s : sources) {
    const auto stream = monitor_stream(static_cast<int>(s.source_id));
    EXPECT_EQ(s.packets, static_cast<std::int64_t>(stream.size()))
        << "source " << s.source_id;
    EXPECT_EQ(s.epochs_applied, static_cast<std::uint64_t>(kEpochsPerMonitor));
    EXPECT_EQ(s.gap_epochs, 0u);
    EXPECT_EQ(s.overlap_dropped, 0u);
    total_packets += s.packets;
  }
  EXPECT_EQ(server.core().merged_packets(now), total_packets);

  // --- merged view equals the single-instance reference ------------------
  // Reference: one vanilla data plane that saw all three streams.  Same
  // update path, same config, same seed => counters must match exactly.
  core::NitroUnivMon reference(um_config(), vanilla_config(), kSeed);
  for (int m = 1; m <= kMonitors; ++m) {
    for (const auto& p : monitor_stream(m)) reference.update(p.key);
  }
  const sketch::UnivMon merged = server.core().merged_view(now);
  EXPECT_EQ(merged.total(), reference.univmon().total());

  // Exact counter equality on every key of the concatenated streams.
  for (int m = 1; m <= kMonitors; ++m) {
    int checked = 0;
    for (const auto& p : monitor_stream(m)) {
      EXPECT_EQ(merged.query(p.key), reference.univmon().query(p.key));
      if (++checked >= 500) break;  // dense prefix is plenty
    }
  }

  // Top-k within heap re-estimation tolerance: the merged heap's entries
  // are re-estimated from the merged counters, which equal the reference
  // counters exactly — so every heavy hitter the merged view reports must
  // carry the reference counters' estimate for its key.  Membership can
  // differ only in the capacity-evicted tail (the reference heap stores
  // offer-time estimates, the merged heap final ones), so the overwhelming
  // majority of reference heavy hitters must be found.
  const std::int64_t threshold = merged.total() / 200;
  const auto ref_hh = reference.univmon().heavy_hitters(threshold);
  const auto got_hh = merged.heavy_hitters(threshold);
  ASSERT_FALSE(ref_hh.empty());
  for (const auto& g : got_hh) {
    EXPECT_EQ(g.estimate, reference.univmon().query(g.key));
  }
  int found = 0;
  for (const auto& r : ref_hh) {
    found += std::any_of(got_hh.begin(), got_hh.end(),
                         [&](const auto& g) { return g.key == r.key; });
  }
  EXPECT_GE(found, static_cast<int>(ref_hh.size() * 9 / 10));

  server.stop();
}

TEST(ExportE2e, TraceSpansStitchMonitorToCollectorWithE2eLag) {
  // The observability acceptance run (DESIGN.md §12): monitors with tracing
  // enabled stream to a collector with its own tracer, and afterwards the
  // two sides' spans stitch into one timeline keyed by (source_id, epoch):
  // ingest → snapshot → export enqueue → wire send on the monitor side,
  // collector apply → network merge on the collector side, in causal
  // order.  The v2 timestamps make per-source end-to-end lag visible in
  // the collector's stats.
  CollectorConfig ccfg;
  ccfg.um_cfg = um_config();
  ccfg.seed = kSeed;
  CollectorServer server(ccfg, *parse_endpoint("tcp:127.0.0.1:0"));
  telemetry::Registry registry;
  server.attach_telemetry(registry, "nitro_collector");
  telemetry::Tracer collector_tracer;
  server.core().set_tracer(&collector_tracer);
  ASSERT_TRUE(server.start());
  const Endpoint ep = server.endpoint();

  telemetry::Tracer monitor_tracer;
  telemetry::install_tracer(&monitor_tracer);
  // Sequential monitors: the ambient tracer context is process-wide, as it
  // is in the real (one-monitor-per-process) deployment.
  for (int m = 1; m <= kMonitors; ++m) {
    ExporterConfig ecfg;
    ecfg.endpoint = ep;
    ecfg.connect_timeout_ms = 500;
    ecfg.ack_timeout_ms = 1500;
    const auto stream = monitor_stream(m);
    ingest::SynthReplayBackend backend(stream);
    telemetry::Registry monitor_registry;
    runtime::MonitorRuntime rt(monitor_config(m, ecfg), backend, monitor_registry);
    run_epochs(rt, stream);
    ASSERT_TRUE(rt.shutdown(30'000)) << "monitor " << m;
  }
  telemetry::uninstall_tracer();

  // Force a network-view merge so the collector side records that stage.
  const std::uint64_t now = telemetry::Tracer::now_ns();
  (void)server.core().merged_view(now);
  server.core().publish_telemetry(now);

  // --- per-source freshness/lag stats from the v2 timestamps --------------
  const auto sources = server.core().sources(now);
  ASSERT_EQ(sources.size(), static_cast<std::size_t>(kMonitors));
  for (const auto& s : sources) {
    EXPECT_NE(s.last_epoch_close_ns, 0u) << "source " << s.source_id;
    EXPECT_NE(s.last_send_ns, 0u) << "source " << s.source_id;
    EXPECT_GT(s.e2e_lag_ns, 0u) << "source " << s.source_id;
    EXPECT_GE(s.e2e_lag_ns, s.wire_lag_ns) << "source " << s.source_id;
    EXPECT_TRUE(registry.contains("nitro_collector_source_" +
                                  std::to_string(s.source_id) + "_e2e_lag_ns"));
    EXPECT_TRUE(registry.contains("nitro_collector_source_" +
                                  std::to_string(s.source_id) + "_freshness_ns"));
  }
  EXPECT_EQ(registry.histogram("nitro_collector_e2e_lag_ns").count(),
            server.core().epochs_applied());

  // --- the two sides stitch by (source_id, epoch) -------------------------
  const auto mon_spans = monitor_tracer.snapshot();
  const auto col_spans = collector_tracer.snapshot();
  auto find = [](const std::vector<telemetry::Span>& spans, telemetry::Stage st,
                 std::uint64_t src, std::uint64_t epoch) -> const telemetry::Span* {
    for (const auto& s : spans) {
      if (s.stage == st && s.source_id == src && s.epoch == epoch) return &s;
    }
    return nullptr;
  };
  std::size_t applies = 0;
  for (const auto& apply : col_spans) {
    if (apply.stage != telemetry::Stage::kCollectorApply) continue;
    ++applies;
    const auto* enq = find(mon_spans, telemetry::Stage::kExportEnqueue,
                           apply.source_id, apply.epoch);
    const auto* send = find(mon_spans, telemetry::Stage::kWireSend,
                            apply.source_id, apply.epoch);
    const auto* ingest = find(mon_spans, telemetry::Stage::kIngest,
                              apply.source_id, apply.epoch);
    const auto* snap = find(mon_spans, telemetry::Stage::kSnapshot,
                            apply.source_id, apply.epoch);
    ASSERT_NE(enq, nullptr) << "src " << apply.source_id << " epoch " << apply.epoch;
    ASSERT_NE(send, nullptr) << "src " << apply.source_id << " epoch " << apply.epoch;
    ASSERT_NE(ingest, nullptr) << "src " << apply.source_id << " epoch " << apply.epoch;
    ASSERT_NE(snap, nullptr) << "src " << apply.source_id << " epoch " << apply.epoch;
    // Causal order on the shared steady clock: ingest precedes the
    // snapshot/enqueue, the first send attempt precedes the apply.
    EXPECT_LE(ingest->start_ns, snap->start_ns);
    EXPECT_LE(snap->start_ns, enq->end_ns);
    EXPECT_LE(send->start_ns, apply.end_ns);
  }
  EXPECT_EQ(applies, server.core().epochs_applied());
  // The network merge recorded one span per live source.
  std::size_t merges = 0;
  for (const auto& s : col_spans) {
    merges += s.stage == telemetry::Stage::kNetworkMerge;
  }
  EXPECT_GE(merges, static_cast<std::size_t>(kMonitors));

  // --- the merged file both UIs would load --------------------------------
  const std::string merged = telemetry::merge_chrome_traces(
      {telemetry::to_chrome_json(monitor_tracer, "nitro_monitor"),
       telemetry::to_chrome_json(collector_tracer, "nitro_collector")});
  EXPECT_EQ(merged.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(merged.find("\"wire_send\""), std::string::npos);
  EXPECT_NE(merged.find("\"collector_apply\""), std::string::npos);
  EXPECT_NE(merged.find("nitro_monitor src 1"), std::string::npos);
  EXPECT_NE(merged.find("nitro_collector src 1"), std::string::npos);

  server.stop();
}

TEST(ExportE2e, CollectorRestartKeepsAggregationStateViaExternalCore) {
  // A collector restart (new server, same core) must look to monitors like
  // a blip: exporters reconnect and resume their sequence, the core's
  // dedup state survives, nothing is double-counted.
  CollectorConfig ccfg;
  ccfg.um_cfg = um_config();
  ccfg.seed = kSeed;
  CollectorCore core(ccfg);

  Endpoint ep = *parse_endpoint("tcp:127.0.0.1:0");
  auto server = std::make_unique<CollectorServer>(core, ep);
  ASSERT_TRUE(server->start());
  ep = server->endpoint();  // pin the kernel-assigned port for the restart

  ExporterConfig ecfg;
  ecfg.endpoint = ep;
  ecfg.connect_timeout_ms = 300;
  ecfg.ack_timeout_ms = 800;
  ecfg.backoff_base_ns = 500'000;
  ecfg.backoff_max_ns = 5'000'000;
  const auto stream = monitor_stream(1);
  ingest::SynthReplayBackend backend(stream);
  telemetry::Registry monitor_registry;
  runtime::MonitorRuntime rt(monitor_config(1, ecfg), backend, monitor_registry);

  const std::size_t half = stream.size() / 2;
  (void)rt.run_epoch(half);
  ASSERT_TRUE(rt.exporter()->flush(10'000));
  EXPECT_EQ(core.epochs_applied(), 1u);

  // Restart: tear the server down (connections die) and bring a new one up
  // on the same port sharing the same core.
  server.reset();
  (void)rt.run_epoch(~0ull);  // queued while the collector is down
  server = std::make_unique<CollectorServer>(core, ep);
  ASSERT_TRUE(server->start());

  ASSERT_TRUE(rt.shutdown(15'000));
  EXPECT_EQ(core.epochs_applied(), 2u);
  const auto sources = core.sources(1);
  ASSERT_EQ(sources.size(), 1u);
  EXPECT_EQ(sources[0].packets, static_cast<std::int64_t>(stream.size()));
  EXPECT_EQ(sources[0].last_seq, 2u);
  EXPECT_EQ(sources[0].duplicates + sources[0].overlap_dropped, 0u);
  server->stop();
}

}  // namespace
}  // namespace nitro::xport
