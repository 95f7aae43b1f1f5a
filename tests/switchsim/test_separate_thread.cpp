#include "switchsim/nitro_separate_thread.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "switchsim/ovs_pipeline.hpp"
#include "trace/ground_truth.hpp"
#include "trace/workloads.hpp"

namespace nitro::switchsim {
namespace {

trace::Trace small_trace(std::uint64_t packets = 100000) {
  trace::WorkloadSpec spec;
  spec.packets = packets;
  spec.flows = 2000;
  spec.seed = 17;
  return trace::caida_like(spec);
}

TEST(SeparateThread, VanillaSketchAccountsEveryKeyThroughRing) {
  // Vanilla mode selects every row of every packet, so the ring carries
  // d items per packet and overruns it when the consumer is slower than
  // the producer — by design, overruns are dropped and counted, never
  // silently lost.
  core::NitroConfig cfg;
  cfg.mode = core::Mode::kVanilla;
  cfg.track_top_keys = false;
  NitroSeparateThread<sketch::CountMinSketch> meas(sketch::CountMinSketch(5, 4096, 1),
                                                   cfg, 1 << 14);
  const auto stream = small_trace(50000);
  for (const auto& p : stream) meas.on_packet(p.key, p.wire_bytes, p.ts_ns);
  meas.finish();
  EXPECT_EQ(meas.packets(), 50000u);
  EXPECT_EQ(meas.applied() + meas.drops(), 5u * 50000u);
}

TEST(SeparateThread, NitroPreprocessingSelectsFraction) {
  core::NitroConfig cfg;
  cfg.mode = core::Mode::kFixedRate;
  cfg.probability = 0.01;
  cfg.track_top_keys = false;
  NitroSeparateThread<sketch::CountSketch> meas(sketch::CountSketch(5, 4096, 2), cfg);
  const auto stream = small_trace(200000);
  for (const auto& p : stream) meas.on_packet(p.key, p.wire_bytes, p.ts_ns);
  meas.finish();
  const double rate =
      static_cast<double>(meas.applied()) / (5.0 * static_cast<double>(meas.packets()));
  EXPECT_NEAR(rate, 0.01, 0.003);
  EXPECT_EQ(meas.drops(), 0u);
}

TEST(SeparateThread, EstimatesMatchTruthAfterDrain) {
  core::NitroConfig cfg;
  cfg.mode = core::Mode::kFixedRate;
  cfg.probability = 0.05;
  cfg.track_top_keys = true;
  cfg.top_keys = 100;
  NitroSeparateThread<sketch::CountSketch> meas(sketch::CountSketch(5, 8192, 3), cfg);
  const auto stream = small_trace(300000);
  trace::GroundTruth truth(stream);
  for (const auto& p : stream) meas.on_packet(p.key, p.wire_bytes, p.ts_ns);
  meas.finish();
  for (const auto& [key, count] : truth.top_k(5)) {
    EXPECT_NEAR(static_cast<double>(meas.query(key)), static_cast<double>(count),
                0.3 * static_cast<double>(count) + 100.0);
  }
  EXPECT_GT(meas.heap().size(), 0u);
}

TEST(SeparateThread, WorksInsideOvsPipeline) {
  core::NitroConfig cfg;
  cfg.mode = core::Mode::kFixedRate;
  cfg.probability = 0.02;
  cfg.track_top_keys = false;
  NitroSeparateThread<sketch::CountMinSketch> meas(sketch::CountMinSketch(5, 8192, 4),
                                                   cfg);
  OvsPipeline pipe(meas);
  const auto stream = small_trace(100000);
  const auto stats = pipe.run(materialize(stream));
  EXPECT_EQ(stats.packets, stream.size());
  EXPECT_GT(meas.applied(), 0u);
}

TEST(SeparateThread, KAryStreamTotalSurvivesRingDetour) {
  // Regression: the ring path skipped Traits::on_packet entirely, so
  // K-ary's stream total S stayed 0 and every estimate (C - S/w)/(1 - 1/w)
  // was computed against an empty stream.  The producer now accumulates S
  // and folds it into the base at finish().
  core::NitroConfig cfg;
  cfg.mode = core::Mode::kFixedRate;
  cfg.probability = 0.05;
  cfg.track_top_keys = false;
  NitroSeparateThread<sketch::KArySketch> meas(sketch::KArySketch(5, 8192, 6), cfg);
  const auto stream = small_trace(300000);
  trace::GroundTruth truth(stream);
  for (const auto& p : stream) meas.on_packet(p.key, p.wire_bytes, p.ts_ns);
  meas.finish();
  EXPECT_EQ(meas.base().total(), static_cast<std::int64_t>(stream.size()));
  for (const auto& [key, count] : truth.top_k(5)) {
    EXPECT_NEAR(static_cast<double>(meas.query(key)), static_cast<double>(count),
                0.3 * static_cast<double>(count) + 100.0);
  }
}

TEST(SeparateThread, PacketCounterReadableWhileProducing) {
  // Regression: packets_ was a plain uint64_t, torn/raced when telemetry
  // or a monitoring thread read it mid-run.  It is a relaxed atomic now —
  // this test gives TSan a concurrent reader to check.
  core::NitroConfig cfg;
  cfg.mode = core::Mode::kFixedRate;
  cfg.probability = 0.05;
  cfg.track_top_keys = false;
  NitroSeparateThread<sketch::CountMinSketch> meas(sketch::CountMinSketch(4, 2048, 8),
                                                   cfg);
  const auto stream = small_trace(100000);
  std::atomic<bool> stop{false};
  std::uint64_t last_seen = 0;
  std::thread reader([&] {
    std::uint64_t prev = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const std::uint64_t now = meas.packets();
      EXPECT_GE(now, prev);  // monotone, never torn
      prev = now;
    }
    last_seen = prev;
  });
  for (const auto& p : stream) meas.on_packet(p.key, p.wire_bytes, p.ts_ns);
  stop.store(true, std::memory_order_release);
  reader.join();
  meas.finish();
  EXPECT_EQ(meas.packets(), stream.size());
  EXPECT_LE(last_seen, stream.size());
}

TEST(SeparateThread, FinishIsIdempotent) {
  core::NitroConfig cfg;
  cfg.mode = core::Mode::kFixedRate;
  cfg.probability = 0.5;
  NitroSeparateThread<sketch::CountMinSketch> meas(sketch::CountMinSketch(3, 1024, 5),
                                                   cfg);
  meas.on_packet(trace::flow_key_for_rank(0, 0), 64, 0);
  meas.finish();
  meas.finish();  // must not hang or crash
  SUCCEED();
}

TEST(SeparateThread, BurstPreprocessingMatchesPerPacketExactly) {
  // The burst pre-processing stage makes the same geometric selections as
  // N per-packet calls (one shared sampler, identical draw sequence), and
  // the ring preserves order, so with a ring large enough to never drop
  // the final counters must be bit-identical.
  const auto stream = small_trace(60000);
  std::vector<FlowKey> keys;
  keys.reserve(stream.size());
  for (const auto& p : stream) keys.push_back(p.key);

  core::NitroConfig cfg;
  cfg.mode = core::Mode::kFixedRate;
  cfg.probability = 0.05;
  cfg.track_top_keys = false;

  NitroSeparateThread<sketch::CountMinSketch> scalar(
      sketch::CountMinSketch(5, 4096, 41), cfg, 1 << 20);
  for (const auto& p : stream) scalar.on_packet(p.key, p.wire_bytes, p.ts_ns);
  scalar.finish();

  NitroSeparateThread<sketch::CountMinSketch> burst(
      sketch::CountMinSketch(5, 4096, 41), cfg, 1 << 20);
  std::size_t i = 0;
  while (i < keys.size()) {
    const std::size_t n = std::min<std::size_t>(32, keys.size() - i);
    burst.on_burst(keys.data() + i, nullptr, n, stream[i + n - 1].ts_ns);
    i += n;
  }
  burst.finish();

  ASSERT_EQ(scalar.drops(), 0u);
  ASSERT_EQ(burst.drops(), 0u);
  EXPECT_EQ(scalar.packets(), burst.packets());
  EXPECT_EQ(scalar.applied(), burst.applied());
  const auto& ms = scalar.base().matrix();
  const auto& mb = burst.base().matrix();
  for (std::uint32_t r = 0; r < ms.depth(); ++r) {
    const auto rs = ms.row(r);
    const auto rb = mb.row(r);
    for (std::size_t c = 0; c < rs.size(); ++c) {
      ASSERT_EQ(rs[c], rb[c]) << "row " << r << " col " << c;
    }
  }
}

}  // namespace
}  // namespace nitro::switchsim
