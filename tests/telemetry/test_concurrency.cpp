// Concurrency tests for the telemetry subsystem — the primary targets of
// the -DNITRO_SANITIZE=thread build (ctest label `tsan`).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/nitro_config.hpp"
#include "sketch/count_min.hpp"
#include "switchsim/nitro_separate_thread.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/workloads.hpp"

namespace nitro {
namespace {

TEST(TelemetryConcurrency, EventLogAppendersVsSnapshotter) {
  telemetry::EventLog log(64);
  std::atomic<bool> stop{false};

  std::vector<std::thread> writers;
  for (int t = 0; t < 3; ++t) {
    writers.emplace_back([&log, t] {
      for (std::uint64_t i = 0; i < 20'000; ++i) {
        log.append(telemetry::EventKind::kRingDrop, i,
                   static_cast<double>(t * 100'000 + i));
      }
    });
  }
  std::thread reader([&log, &stop] {
    while (!stop.load(std::memory_order_acquire)) {
      const auto events = log.snapshot();
      // Every event surfaced must be internally consistent (no torn
      // fields): the kind is one we wrote and the value is in range.
      for (const auto& e : events) {
        EXPECT_EQ(e.kind, telemetry::EventKind::kRingDrop);
        EXPECT_LT(e.value, 300'000.0);
      }
    }
  });
  for (auto& w : writers) w.join();
  stop.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(log.total_recorded(), 60'000u);
  EXPECT_EQ(log.overwritten(), 60'000u - 64u);
}

TEST(TelemetryConcurrency, RegistryRegistrationRaces) {
  telemetry::Registry registry;
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&registry] {
      for (int i = 0; i < 500; ++i) {
        registry.counter("shared_total").inc();
        registry.gauge("shared_gauge").set(1.0);
        registry.histogram("shared_hist").observe(3);
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(registry.counter("shared_total").value(), 2000u);
  EXPECT_EQ(registry.histogram("shared_hist").count(), 2000u);
  EXPECT_EQ(registry.size(), 3u);
}

TEST(TelemetryConcurrency, ExportWhileHotPathWrites) {
  telemetry::Registry registry;
  telemetry::Counter& c = registry.counter("hot_total");
  telemetry::Histogram& h = registry.histogram("hot_hist");
  telemetry::EventLog& log = registry.event_log("hot_events", 32);

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    std::uint64_t i = 0;
    while (!stop.load(std::memory_order_acquire)) {
      c.inc();
      h.observe(i & 0xfff);
      if ((i & 0xff) == 0) {
        log.append(telemetry::EventKind::kProbabilityChange, i, 0.5);
      }
      ++i;
    }
  });
  for (int i = 0; i < 50; ++i) {
    const std::string prom = telemetry::to_prometheus(registry);
    const std::string json = telemetry::to_json(registry);
    EXPECT_FALSE(prom.empty());
    EXPECT_FALSE(json.empty());
  }
  stop.store(true, std::memory_order_release);
  writer.join();
}

core::NitroConfig vanilla_cfg() {
  core::NitroConfig cfg;
  cfg.mode = core::Mode::kVanilla;  // every row of every packet rides the ring
  cfg.track_top_keys = false;
  return cfg;
}

TEST(TelemetryConcurrency, SeparateThreadMeasurementCountersRaceFree) {
  // The separate-thread hook's counters are relaxed-atomic telemetry
  // Counters written by the producer (packets, drops) and the consumer
  // (idle spins) while queries read them.  This test runs producer and
  // consumer with telemetry attached so TSan can vet the whole path: ring
  // push/pop, drop counting, idle-spin backoff, and the finish() join.
  switchsim::NitroSeparateThread<sketch::CountMinSketch> meas(
      sketch::CountMinSketch(3, 512, 17), vanilla_cfg(), 64);

  telemetry::Registry registry;
  meas.attach_telemetry(registry, "ring");

  const FlowKey key = trace::flow_key_for_rank(1, 7);
  constexpr std::uint64_t kPackets = 200'000;
  for (std::uint64_t i = 0; i < kPackets; ++i) {
    meas.on_packet(key, 64, i);
  }
  meas.finish();

  // Conservation: every selected (key, row) item was applied or dropped.
  EXPECT_EQ(meas.applied() + meas.drops(), 3 * kPackets);
  EXPECT_EQ(registry.counter("ring_packets_total").value(), kPackets);
  EXPECT_EQ(registry.counter("ring_drops_total").value(), meas.drops());
  EXPECT_EQ(registry.counter("ring_idle_spins_total").value(), meas.idle_spins());
}

TEST(TelemetryConcurrency, AttachTelemetryWhileConsumerRuns) {
  switchsim::NitroSeparateThread<sketch::CountMinSketch> meas(
      sketch::CountMinSketch(3, 512, 19), vanilla_cfg(), 1 << 10);
  const FlowKey key = trace::flow_key_for_rank(2, 7);

  // Produce from this thread while attaching telemetry mid-stream: the
  // counters are registered by reference, so the running consumer may
  // observe the attach at any point without a data race.
  telemetry::Registry registry;
  for (std::uint64_t i = 0; i < 50'000; ++i) {
    if (i == 10'000) meas.attach_telemetry(registry, "late_ring");
    meas.on_packet(key, 64, i);
  }
  meas.finish();
  EXPECT_EQ(meas.applied() + meas.drops(), 3u * 50'000u);
  EXPECT_EQ(registry.counter("late_ring_packets_total").value(), 50'000u);
}

}  // namespace
}  // namespace nitro
