// Distributed recovery end-to-end (DESIGN.md §15): three monitors stream
// epochs to one collector; each monitor is crashed a different way —
// mid-epoch, mid-checkpoint-write, and with its checkpoint directory
// wiped — and restarted through the real recovery ladder (delta chain →
// legacy checkpoint → rebuild-from-collector).  Afterwards the collector's
// merged view must equal a single reference instance that saw all three
// full streams, with exact per-source sequence accounting: no epoch lost,
// no epoch double-counted.
//
// The monitor phases replicate nitro_monitor's loop: feed an epoch, save
// a checkpoint frame (periodic full + deltas), cut, end_epoch -> export.
// Sequence mapping: epochs 0..E-1 closed means seqs 1..E exported, so a
// restored monitor resumes at seq epoch()+1 and a collector-rebuilt one
// at last_seq+1.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>

#include <unistd.h>

#include "control/checkpoint.hpp"
#include "control/daemon.hpp"
#include "core/nitro_univmon.hpp"
#include "export/collector.hpp"
#include "export/exporter.hpp"
#include "export/recovery.hpp"
#include "fault/fault.hpp"
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

/// One monitor process incarnation: daemon + chain-checkpointing store +
/// exporter, wired exactly like nitro_monitor --export-to.
struct Monitor {
  control::MeasurementDaemon daemon;
  control::CheckpointStore store;
  EpochExporter exporter;
  std::uint64_t frames_since_full = 0;

  Monitor(int id, const std::string& dir, const Endpoint& collector_ep)
      : daemon(um_config(), vanilla_config(), control::MeasurementDaemon::Tasks{},
               kSeed),
        store(dir),
        exporter(
            [&] {
              ExporterConfig ecfg;
              ecfg.endpoint = collector_ep;
              ecfg.source_id = static_cast<std::uint64_t>(id);
              ecfg.connect_timeout_ms = 500;
              ecfg.ack_timeout_ms = 1500;
              ecfg.backoff_base_ns = 500'000;
              ecfg.backoff_max_ns = 10'000'000;
              return ecfg;
            }(),
            univmon_coalescer(um_config(), kSeed)) {
    daemon.enable_delta_checkpoints();
  }

  void start() {
    exporter.start();
    daemon.set_export_sink([this](control::ExportedEpoch&& e) {
      exporter.publish(e.span, e.packets, std::move(e.snapshot), e.close_ns);
    });
  }

  void feed(const trace::Trace& stream, int epoch) {
    const std::size_t per_epoch = stream.size() / kEpochs;
    const std::size_t begin = static_cast<std::size_t>(epoch) * per_epoch;
    const std::size_t end =
        epoch == kEpochs - 1 ? stream.size() : begin + per_epoch;
    for (std::size_t i = begin; i < end; ++i) daemon.on_packet(stream[i].key);
  }

  /// nitro_monitor's per-epoch checkpoint step: full every 4th frame (or
  /// when no delta is expressible), delta otherwise.
  void save_frame() {
    const bool want_full = !daemon.delta_ready() || frames_since_full >= 4;
    const auto saved =
        store.save_frame("daemon", want_full,
                         want_full ? daemon.checkpoint_bytes()
                                   : daemon.delta_checkpoint_bytes());
    ASSERT_TRUE(saved.ok);
    daemon.cut_checkpoint_frame();
    frames_since_full = want_full ? 1 : frames_since_full + 1;
  }

  void drain() { ASSERT_TRUE(exporter.flush(30'000)); }
  void shutdown() { exporter.stop(); }
};

/// nitro_monitor's restore ladder on a fresh incarnation.  Returns the
/// restore source (3 = chain, 4 = collector rebuild, 0 = nothing) and
/// seeds the exporter's sequence accordingly.
int restore(Monitor& mon, int id, const Endpoint& collector_ep,
            std::uint64_t* chain_rejections = nullptr) {
  const auto chain = mon.store.load_chain("daemon");
  if (chain_rejections != nullptr) *chain_rejections = chain.frames_rejected;
  if (chain.found) {
    mon.daemon.restore_checkpoint(chain.base);
    for (const auto& delta : chain.deltas) mon.daemon.apply_delta_checkpoint(delta);
    // Epochs 0..epoch()-1 already went out as seqs 1..epoch(); the
    // re-closed current epoch re-exports under its original seq, which
    // the collector settles as a duplicate if it already applied it.
    mon.exporter.set_next_seq(mon.daemon.epoch() + 1);
    return 3;
  }
  const RecoveryResult rec =
      request_recovery(collector_ep, static_cast<std::uint64_t>(id),
                       /*timeout_ms=*/1000, /*attempts=*/4);
  if (rec.ok && rec.resp.found) {
    mon.daemon.seed_from_recovery(rec.resp.span.last + 1, rec.resp.snapshot,
                                  rec.resp.packets);
    mon.exporter.set_next_seq(rec.resp.last_seq + 1);
    return 4;
  }
  return 0;
}

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
    mon.start();
    const auto stream = monitor_stream(1);
    mon.feed(stream, 0);
    mon.save_frame();
    (void)mon.daemon.end_epoch();  // -> seq 1
    mon.feed(stream, 1);
    mon.save_frame();
    (void)mon.daemon.end_epoch();  // -> seq 2
    mon.feed(stream, 2);
    mon.save_frame();
    EXPECT_THROW((void)mon.daemon.end_epoch(), control::DaemonCrash);
    EXPECT_EQ(plan.fired(fault::Site::kDaemonEpoch), 1u);
    mon.drain();  // seqs 1..2 settle before the "process" disappears
    mon.shutdown();
  }
  {
    Monitor mon(1, dir1, ep);
    std::uint64_t rejected = 0;
    ASSERT_EQ(restore(mon, 1, ep, &rejected), 3) << "chain restore expected";
    EXPECT_EQ(rejected, 0u);
    ASSERT_EQ(mon.daemon.epoch(), 2u);  // epoch-2 packets are in the sketch
    mon.start();
    const auto stream = monitor_stream(1);
    (void)mon.daemon.end_epoch();  // re-close epoch 2 -> seq 3, fresh
    mon.feed(stream, 3);
    mon.save_frame();
    (void)mon.daemon.end_epoch();  // -> seq 4
    mon.drain();
    mon.shutdown();
  }

  // --- monitor 2: crash mid-checkpoint (the epoch-2 delta frame is torn
  // on disk; restart falls back to the epoch-1 prefix of the chain and
  // re-delivers seq 2, which the collector drops as a duplicate) ---------
  {
    fault::Schedule plan;
    plan.torn_checkpoint_write(/*at_hit=*/3, /*keep_bytes=*/20);
    fault::ScopedFaultInjection scoped(plan);
    Monitor mon(2, dir2, ep);
    mon.start();
    const auto stream = monitor_stream(2);
    mon.feed(stream, 0);
    mon.save_frame();
    (void)mon.daemon.end_epoch();  // -> seq 1
    mon.feed(stream, 1);
    mon.save_frame();
    (void)mon.daemon.end_epoch();  // -> seq 2
    mon.feed(stream, 2);
    mon.save_frame();  // torn on disk, reported as ok — then the crash
    EXPECT_EQ(plan.fired(fault::Site::kCheckpointWrite), 1u);
    mon.drain();
    mon.shutdown();
  }
  {
    Monitor mon(2, dir2, ep);
    std::uint64_t rejected = 0;
    ASSERT_EQ(restore(mon, 2, ep, &rejected), 3) << "chain restore expected";
    EXPECT_GE(rejected, 1u);  // the torn epoch-2 frame was detected
    ASSERT_EQ(mon.daemon.epoch(), 1u);  // fell back to the epoch-1 frame
    mon.start();
    const auto stream = monitor_stream(2);
    (void)mon.daemon.end_epoch();  // re-close epoch 1 -> seq 2: duplicate
    mon.feed(stream, 2);           // epoch-2 packets never left the host;
    mon.save_frame();              // re-feed them so nothing is lost
    (void)mon.daemon.end_epoch();  // -> seq 3
    mon.feed(stream, 3);
    mon.save_frame();
    (void)mon.daemon.end_epoch();  // -> seq 4
    mon.drain();
    mon.shutdown();
  }

  // --- monitor 3: crash with local state wiped; rebuild from the
  // collector's replica, with the first recover request dropped ----------
  {
    Monitor mon(3, dir3, ep);
    mon.start();
    const auto stream = monitor_stream(3);
    mon.feed(stream, 0);
    mon.save_frame();
    (void)mon.daemon.end_epoch();  // -> seq 1
    mon.feed(stream, 1);
    mon.save_frame();
    (void)mon.daemon.end_epoch();  // -> seq 2
    mon.feed(stream, 2);           // epoch 2 in flight when the host dies
    mon.drain();
    mon.shutdown();
  }
  std::filesystem::remove_all(dir3);
  {
    fault::Schedule plan;
    plan.drop_recover_request(/*at_hit=*/1, /*every=*/0, /*lane=*/3);
    fault::ScopedFaultInjection scoped(plan);
    Monitor mon(3, dir3, ep);
    ASSERT_EQ(restore(mon, 3, ep), 4) << "collector rebuild expected";
    EXPECT_GE(plan.fired(fault::Site::kRecoverServe), 1u);
    ASSERT_EQ(mon.daemon.epoch(), 2u);  // resumes at the next unapplied epoch
    mon.start();
    const auto stream = monitor_stream(3);
    mon.feed(stream, 2);  // re-feed the lost epoch in full
    mon.save_frame();
    (void)mon.daemon.end_epoch();  // -> seq 3
    mon.feed(stream, 3);
    mon.save_frame();
    (void)mon.daemon.end_epoch();  // -> seq 4
    mon.drain();
    mon.shutdown();
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
