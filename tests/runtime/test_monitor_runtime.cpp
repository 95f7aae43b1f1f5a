// The sharded monitor runtime (workers >= 2) under a worker fault, and the
// restore-source gauge across fresh, chain and collector starts — the
// runtime::MonitorRuntime paths nitro_monitor --workers ships.
//
// A worker killed through the kWorkerLoop fault site must not stop the
// epoch: the drain barrier quarantines its shard, the epoch closes and
// exports from the survivors, the report counts exactly what the
// surviving shards applied, and the dead shard's frozen instance never
// joins a later merge.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "export/collector.hpp"
#include "export/exporter.hpp"
#include "fault/fault.hpp"
#include "ingest/synth_backend.hpp"
#include "runtime/monitor_runtime.hpp"
#include "telemetry/registry.hpp"
#include "trace/workloads.hpp"

namespace nitro::runtime {
namespace {

constexpr std::uint64_t kSeed = 7;
constexpr int kEpochs = 3;

sketch::UnivMonConfig um_config() {
  sketch::UnivMonConfig cfg;
  cfg.levels = 6;
  cfg.depth = 3;
  cfg.top_width = 512;
  cfg.min_width = 128;
  cfg.heap_capacity = 128;
  return cfg;
}

trace::Trace stream() {
  trace::WorkloadSpec spec;
  spec.packets = 30'000;
  spec.flows = 800;
  spec.seed = 41;
  return trace::caida_like(spec);
}

/// Per-process directory: this suite is linked into tests_recovery and
/// tests_tsan, which ctest -j runs side by side.
std::string fresh_dir(const std::string& tag) {
  const std::string dir = std::string(::testing::TempDir()) + "nitro_runtime_" +
                          std::to_string(::getpid()) + "_" + tag;
  std::filesystem::remove_all(dir);
  return dir;
}

/// nitro_monitor --workers 2 --mode vanilla --export-to EP, with a short
/// drain watchdog and test-sized exporter deadlines.
MonitorConfig sharded_config(const xport::Endpoint& ep) {
  MonitorConfig cfg;
  cfg.univmon = um_config();
  cfg.nitro.mode = core::Mode::kVanilla;
  cfg.seed = kSeed;
  cfg.workers = 2;
  cfg.shard.drain_timeout_ns = 250'000'000ULL;
  xport::ExporterConfig ecfg;
  ecfg.endpoint = ep;
  ecfg.connect_timeout_ms = 500;
  ecfg.ack_timeout_ms = 1500;
  ecfg.backoff_base_ns = 500'000;
  ecfg.backoff_max_ns = 10'000'000;
  cfg.exporter = ecfg;
  return cfg;
}

/// Synth replay that calls `hook` once, before the burst that would take
/// the stream past `at` packets.
class HookedBackend final : public ingest::IngestBackend {
 public:
  HookedBackend(const trace::Trace& trace, std::uint64_t at, std::function<void()> hook)
      : inner_(trace), at_(at), hook_(std::move(hook)) {}

  std::size_t next_burst(ingest::PacketView* out, std::size_t max) override {
    if (hook_ && delivered_ >= at_) {
      hook_();
      hook_ = nullptr;
    }
    const std::size_t n = inner_.next_burst(out, max);
    delivered_ += n;
    return n;
  }
  const char* name() const noexcept override { return "hooked-synth"; }
  std::uint64_t size_hint() const noexcept override { return inner_.size_hint(); }

 private:
  ingest::SynthReplayBackend inner_;
  std::uint64_t at_;
  std::function<void()> hook_;
  std::uint64_t delivered_ = 0;
};

TEST(MonitorRuntime, KilledShardWorkerIsQuarantinedAndEveryEpochStillExports) {
  xport::CollectorConfig ccfg;
  ccfg.um_cfg = um_config();
  ccfg.seed = kSeed;
  xport::CollectorCore core(ccfg);
  xport::CollectorServer server(core, *xport::parse_endpoint("tcp:127.0.0.1:0"));
  ASSERT_TRUE(server.start());

  const auto input = stream();
  const std::uint64_t per_epoch = input.size() / kEpochs;

  // Mid-epoch 0, once worker 1 has applied part of its traffic, kill it at
  // its next loop iteration.  Its instance then holds a frozen partial
  // epoch that any merge would expose.
  fault::Schedule plan;
  plan.kill_worker(/*lane=*/1, /*at_hit=*/1);
  std::optional<fault::ScopedFaultInjection> scoped;
  MonitorRuntime* runtime = nullptr;
  HookedBackend backend(input, per_epoch / 2, [&] {
    while (runtime->shards()->shard_applied(1) == 0) std::this_thread::yield();
    scoped.emplace(plan);
  });
  telemetry::Registry registry;
  MonitorRuntime rt(sharded_config(server.endpoint()), backend, registry);
  runtime = &rt;
  auto& shards = *rt.shards();

  std::int64_t reported = 0;
  std::int64_t frozen = 0;
  std::uint64_t applied_before = 0;
  for (int e = 0; e < kEpochs; ++e) {
    const auto result = rt.run_epoch(e == kEpochs - 1 ? ~0ull : per_epoch);
    ASSERT_EQ(result.report.epoch, static_cast<std::uint64_t>(e));
    // The quarantined shard sits out this and every later merge.
    ASSERT_TRUE(shards.quarantined(1));
    EXPECT_FALSE(shards.worker_alive(1));
    EXPECT_FALSE(shards.quarantined(0));
    ASSERT_EQ(result.warnings.size(), 1u) << "epoch " << e;
    EXPECT_EQ(result.warnings[0],
              "shard 1 QUARANTINED (worker dead); excluded from merge");
    // The report is exactly what the surviving shard applied this epoch.
    const std::uint64_t applied = shards.shard_applied(0);
    EXPECT_EQ(result.report.packets,
              static_cast<std::int64_t>(applied - applied_before))
        << "epoch " << e;
    applied_before = applied;
    reported += result.report.packets;
    // Merging clears an instance; the dead shard's keeps its frozen count.
    if (e == 0) frozen = shards.instance(1).univmon().total();
    EXPECT_EQ(shards.instance(1).univmon().total(), frozen) << "epoch " << e;
  }
  EXPECT_EQ(plan.fired(fault::Site::kWorkerLoop), 1u);
  EXPECT_GT(frozen, 0) << "worker 1 died before applying anything";
  EXPECT_GT(reported, 0);
  EXPECT_LT(reported, static_cast<std::int64_t>(input.size()));
  EXPECT_EQ(registry.gauge("nitro_shard_quarantined_shards").value(), 1.0);

  // Every epoch closed and exported, carrying the survivors' packets.
  ASSERT_TRUE(rt.shutdown(30'000));
  const auto sources = core.sources(/*now_ns=*/1);
  ASSERT_EQ(sources.size(), 1u);
  EXPECT_EQ(sources[0].epochs_applied, static_cast<std::uint64_t>(kEpochs));
  EXPECT_EQ(sources[0].last_seq, static_cast<std::uint64_t>(kEpochs));
  EXPECT_EQ(sources[0].packets, reported);
  server.stop();
}

TEST(MonitorRuntime, RestoreSourceGaugeReadsFreshChainAndCollectorStarts) {
  xport::CollectorConfig ccfg;
  ccfg.um_cfg = um_config();
  ccfg.seed = kSeed;
  xport::CollectorCore core(ccfg);
  xport::CollectorServer server(core, *xport::parse_endpoint("tcp:127.0.0.1:0"));
  ASSERT_TRUE(server.start());
  const auto input = stream();
  const std::string dir = fresh_dir("gauge");

  // One incarnation: start, run one epoch, drain.  Returns the gauge and
  // the restore source the runtime reported.
  auto incarnation = [&](bool recover_from_collector) {
    MonitorConfig cfg = sharded_config(server.endpoint());
    cfg.checkpoint_dir = dir;
    cfg.recover_from_collector = recover_from_collector;
    ingest::SynthReplayBackend backend(input);
    telemetry::Registry registry;
    MonitorRuntime rt(cfg, backend, registry);
    (void)rt.run_epoch(input.size() / kEpochs);
    EXPECT_TRUE(rt.shutdown(30'000));
    return std::pair{registry.gauge("nitro_checkpoint_restore_source").value(),
                     rt.restored().source};
  };

  const auto fresh = incarnation(/*recover_from_collector=*/false);
  EXPECT_EQ(fresh.first, 0.0);
  EXPECT_EQ(fresh.second, RestoreSource::kNone);

  const auto chain = incarnation(/*recover_from_collector=*/true);
  EXPECT_EQ(chain.first, 3.0);
  EXPECT_EQ(chain.second, RestoreSource::kChain);

  std::filesystem::remove_all(dir);
  const auto collector = incarnation(/*recover_from_collector=*/true);
  EXPECT_EQ(collector.first, 4.0);
  EXPECT_EQ(collector.second, RestoreSource::kCollector);

  server.stop();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace nitro::runtime
