// Distributed recovery end-to-end (DESIGN.md §15): three monitors stream
// epochs to one collector; each monitor is crashed a different way —
// mid-epoch, mid-checkpoint-write, and with its checkpoint directory
// wiped — and restarted through the real recovery ladder (delta chain →
// rebuild-from-collector).  Afterwards the collector's merged view must
// equal a single reference instance that saw all three full streams, with
// exact per-source sequence accounting: no epoch lost, no epoch
// double-counted.
//
// Every incarnation is a runtime::MonitorRuntime — the epoch loop
// nitro_monitor ships: ingest, checkpoint frame (periodic full + deltas),
// cut, end_epoch -> export, and the restore ladder at construction.
// Sequence mapping: epochs 0..E-1 closed means seqs 1..E exported, so a
// chain-restored monitor resumes at seq epoch()+1 and a collector-rebuilt
// one at last_seq+1.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include <unistd.h>

#include "control/daemon.hpp"
#include "core/nitro_univmon.hpp"
#include "export/collector.hpp"
#include "export/exporter.hpp"
#include "fault/fault.hpp"
#include "ingest/synth_backend.hpp"
#include "runtime/monitor_runtime.hpp"
#include "telemetry/registry.hpp"
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
constexpr int kEpochs = 4;

core::NitroConfig vanilla_config() {
  core::NitroConfig cfg;
  cfg.mode = core::Mode::kVanilla;  // deterministic: exact equality testable
  return cfg;
}

trace::Trace monitor_stream(int monitor) {
  trace::WorkloadSpec spec;
  spec.packets = 20'000;
  spec.flows = 800;
  spec.seed = 100 + static_cast<std::uint64_t>(monitor);
  return trace::caida_like(spec);
}

/// Per-process directory: this suite is linked into two test binaries
/// (tests_recovery and tests_tsan) that ctest -j runs side by side.
std::string fresh_dir(int monitor) {
  const std::string dir = std::string(::testing::TempDir()) + "nitro_recovery_e2e_" +
                          std::to_string(::getpid()) + "_m" + std::to_string(monitor);
  std::filesystem::remove_all(dir);
  return dir;
}

/// Epoch e's slice [begin, end) of a monitor stream.
std::pair<std::size_t, std::size_t> slice(const trace::Trace& stream, int e) {
  const std::size_t per_epoch = stream.size() / kEpochs;
  const std::size_t begin = static_cast<std::size_t>(e) * per_epoch;
  return {begin, e == kEpochs - 1 ? stream.size() : begin + per_epoch};
}

/// nitro_monitor --checkpoint-dir DIR --recover-from-collector
/// --export-to EP --source-id ID, with test-sized exporter deadlines.
runtime::MonitorConfig monitor_config(int id, const std::string& dir,
                                      const Endpoint& collector_ep) {
  runtime::MonitorConfig cfg;
  cfg.univmon = um_config();
  cfg.nitro = vanilla_config();
  cfg.seed = kSeed;
  cfg.checkpoint_dir = dir;
  cfg.recover_from_collector = true;
  cfg.source_id = static_cast<std::uint64_t>(id);
  ExporterConfig ecfg;
  ecfg.endpoint = collector_ep;
  ecfg.connect_timeout_ms = 500;
  ecfg.ack_timeout_ms = 1500;
  ecfg.backoff_base_ns = 500'000;
  ecfg.backoff_max_ns = 10'000'000;
  cfg.exporter = ecfg;
  return cfg;
}

/// One monitor process incarnation: the shipped runtime replaying its
/// stream from the start of epoch `first_epoch` on.
struct Monitor {
  const trace::Trace stream;
  const trace::Trace input;
  ingest::SynthReplayBackend backend;
  telemetry::Registry registry;
  runtime::MonitorRuntime rt;

  Monitor(int id, const std::string& dir, const Endpoint& collector_ep,
          int first_epoch = 0)
      : stream(monitor_stream(id)),
        input(stream.begin() +
                  static_cast<std::ptrdiff_t>(slice(stream, first_epoch).first),
              stream.end()),
        backend(input),
        rt(monitor_config(id, dir, collector_ep), backend, registry) {}

  /// Ingest epoch e's slice, checkpoint, close and export it.
  void run_epoch(int e) {
    const auto [begin, end] = slice(stream, e);
    (void)rt.run_epoch(end - begin);
  }
  /// Close the restored epoch again without new traffic.
  void reclose() { (void)rt.run_epoch(0); }

  runtime::RestoreSource restore_source() const { return rt.restored().source; }
  std::uint64_t chain_rejections() {
    return registry.counter("nitro_checkpoint_chain_rejected_total").value();
  }
  void drain_and_exit() { ASSERT_TRUE(rt.shutdown(30'000)); }
};

TEST(RecoveryE2e, ThreeCrashedMonitorsRebuildAndTheMergedViewStaysExact) {
  CollectorConfig ccfg;
  ccfg.um_cfg = um_config();
  ccfg.seed = kSeed;
  CollectorCore core(ccfg);
  CollectorServer server(core, *parse_endpoint("tcp:127.0.0.1:0"));
  telemetry::Registry registry;
  server.attach_telemetry(registry, "nitro_collector");
  ASSERT_TRUE(server.start());
  const Endpoint ep = server.endpoint();

  const std::string dir1 = fresh_dir(1);
  const std::string dir2 = fresh_dir(2);
  const std::string dir3 = fresh_dir(3);

  // --- monitor 1: crash mid-epoch (inside end_epoch, after the epoch-2
  // frame was persisted but before epoch 2 was closed or exported) -------
  {
    fault::Schedule plan;
    plan.crash_daemon_epoch(/*at_hit=*/3);  // the 3rd end_epoch dies
    fault::ScopedFaultInjection scoped(plan);
    Monitor mon(1, dir1, ep);
    mon.run_epoch(0);  // -> seq 1
    mon.run_epoch(1);  // -> seq 2
    EXPECT_THROW(mon.run_epoch(2), control::DaemonCrash);
    EXPECT_EQ(plan.fired(fault::Site::kDaemonEpoch), 1u);
    mon.drain_and_exit();  // seqs 1..2 settle before the "process" disappears
  }
  {
    Monitor mon(1, dir1, ep, /*first_epoch=*/3);
    ASSERT_EQ(mon.restore_source(), runtime::RestoreSource::kChain)
        << "chain restore expected";
    EXPECT_EQ(mon.chain_rejections(), 0u);
    ASSERT_EQ(mon.rt.daemon().epoch(), 2u);  // epoch-2 packets are in the sketch
    mon.reclose();     // re-close epoch 2 -> seq 3, fresh
    mon.run_epoch(3);  // -> seq 4
    mon.drain_and_exit();
  }

  // --- monitor 2: crash mid-checkpoint (the epoch-2 delta frame is torn
  // on disk and the process dies before closing epoch 2; restart falls
  // back to the epoch-1 prefix of the chain and re-delivers seq 2, which
  // the collector drops as a duplicate) ----------------------------------
  {
    fault::Schedule plan;
    plan.torn_checkpoint_write(/*at_hit=*/3, /*keep_bytes=*/20);
    plan.crash_daemon_epoch(/*at_hit=*/3);
    fault::ScopedFaultInjection scoped(plan);
    Monitor mon(2, dir2, ep);
    mon.run_epoch(0);  // -> seq 1
    mon.run_epoch(1);  // -> seq 2
    // The torn frame is reported as saved — then the crash.
    EXPECT_THROW(mon.run_epoch(2), control::DaemonCrash);
    EXPECT_EQ(plan.fired(fault::Site::kCheckpointWrite), 1u);
    mon.drain_and_exit();
  }
  {
    Monitor mon(2, dir2, ep, /*first_epoch=*/2);
    ASSERT_EQ(mon.restore_source(), runtime::RestoreSource::kChain)
        << "chain restore expected";
    EXPECT_GE(mon.chain_rejections(), 1u);  // the torn epoch-2 frame was detected
    ASSERT_EQ(mon.rt.daemon().epoch(), 1u);  // fell back to the epoch-1 frame
    mon.reclose();     // re-close epoch 1 -> seq 2: duplicate
    mon.run_epoch(2);  // epoch-2 packets never left the host; re-feed
                       // them so nothing is lost -> seq 3
    mon.run_epoch(3);  // -> seq 4
    mon.drain_and_exit();
  }

  // --- monitor 3: crash with local state wiped; rebuild from the
  // collector's replica, with the first recover request dropped ----------
  {
    Monitor mon(3, dir3, ep);
    mon.run_epoch(0);  // -> seq 1
    mon.run_epoch(1);  // -> seq 2
    // Epoch 2 is in flight when the host dies: ingested, never closed.
    const auto [begin, end] = slice(mon.stream, 2);
    for (std::size_t i = begin; i < end; ++i) {
      mon.rt.daemon().on_packet(mon.stream[i].key);
    }
    mon.drain_and_exit();
  }
  std::filesystem::remove_all(dir3);
  {
    fault::Schedule plan;
    plan.drop_recover_request(/*at_hit=*/1, /*every=*/0, /*lane=*/3);
    fault::ScopedFaultInjection scoped(plan);
    Monitor mon(3, dir3, ep, /*first_epoch=*/2);
    ASSERT_EQ(mon.restore_source(), runtime::RestoreSource::kCollector)
        << "collector rebuild expected";
    EXPECT_GE(plan.fired(fault::Site::kRecoverServe), 1u);
    ASSERT_EQ(mon.rt.daemon().epoch(), 2u);  // resumes at the next unapplied epoch
    mon.run_epoch(2);  // re-feed the lost epoch in full -> seq 3
    mon.run_epoch(3);  // -> seq 4
    mon.drain_and_exit();
  }
  EXPECT_GE(registry.counter("nitro_collector_injected_recover_drops_total").value(),
            1u);
  EXPECT_GE(registry.counter("nitro_collector_recover_served_total").value(), 1u);

  // --- exact per-source sequence accounting -----------------------------
  const std::uint64_t now = 1;
  const auto sources = core.sources(now);
  ASSERT_EQ(sources.size(), static_cast<std::size_t>(kMonitors));
  for (const auto& s : sources) {
    const auto stream = monitor_stream(static_cast<int>(s.source_id));
    EXPECT_EQ(s.packets, static_cast<std::int64_t>(stream.size()))
        << "source " << s.source_id;
    EXPECT_EQ(s.epochs_applied, static_cast<std::uint64_t>(kEpochs))
        << "source " << s.source_id;
    EXPECT_EQ(s.last_seq, static_cast<std::uint64_t>(kEpochs))
        << "source " << s.source_id;
    EXPECT_EQ(s.gap_epochs, 0u) << "source " << s.source_id;
    EXPECT_EQ(s.overlap_dropped, 0u) << "source " << s.source_id;
    // Monitor 2's fallback re-delivered seq 2; the others rejoined
    // exactly at their next sequence number.
    EXPECT_EQ(s.duplicates, s.source_id == 2 ? 1u : 0u)
        << "source " << s.source_id;
  }
  EXPECT_EQ(core.epochs_applied(), static_cast<std::uint64_t>(kMonitors * kEpochs));

  // --- the merged view equals the single-instance reference -------------
  // Same update path, same config, same seed, vanilla counters: every
  // counter must match exactly despite three crashes and three rebuilds —
  // which keeps the merged estimates inside the paper's Theorem-1 bound,
  // since they are bit-identical to the crash-free reference's.
  core::NitroUnivMon reference(um_config(), vanilla_config(), kSeed);
  for (int m = 1; m <= kMonitors; ++m) {
    for (const auto& p : monitor_stream(m)) reference.update(p.key);
  }
  const sketch::UnivMon merged = core.merged_view(now);
  EXPECT_EQ(merged.total(), reference.univmon().total());
  std::int64_t total_packets = 0;
  for (const auto& s : sources) total_packets += s.packets;
  EXPECT_EQ(core.merged_packets(now), total_packets);
  for (int m = 1; m <= kMonitors; ++m) {
    int checked = 0;
    for (const auto& p : monitor_stream(m)) {
      EXPECT_EQ(merged.query(p.key), reference.univmon().query(p.key));
      if (++checked >= 500) break;
    }
  }
  const std::int64_t threshold = merged.total() / 200;
  const auto got_hh = merged.heavy_hitters(threshold);
  ASSERT_FALSE(got_hh.empty());
  for (const auto& g : got_hh) {
    EXPECT_EQ(g.estimate, reference.univmon().query(g.key));
  }

  server.stop();
  for (const auto& dir : {dir1, dir2, dir3}) std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace nitro::xport
