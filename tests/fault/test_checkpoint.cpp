// Crash-safe checkpoint/restore: atomic chain frames, CRC-gated restore
// with older-generation fallback, torn-write and bit-rot injection, and
// full round trips for every sketch family plus the daemon and the
// sharded data plane.  (Chain truncation, forging and retention live in
// tests/fault/test_delta_checkpoint.cpp.)
#include "control/checkpoint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "control/daemon.hpp"
#include "core/nitro_sketch.hpp"
#include "fault/fault.hpp"
#include "shard/sharded_nitro.hpp"
#include "trace/ground_truth.hpp"
#include "trace/workloads.hpp"

namespace nitro::control {
namespace {

using trace::flow_key_for_rank;

std::string fresh_dir(const std::string& name) {
  const std::string dir = std::string(::testing::TempDir()) + "nitro_ckpt_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

std::vector<std::uint8_t> payload_of(const char* text) {
  const auto* b = reinterpret_cast<const std::uint8_t*>(text);
  return {b, b + std::string(text).size()};
}

trace::Trace small_trace(std::uint64_t packets = 60000, std::uint64_t seed = 12) {
  trace::WorkloadSpec spec;
  spec.packets = packets;
  spec.flows = 2000;
  spec.seed = seed;
  return trace::caida_like(spec);
}

/// Heaps preserve the (key, estimate) *multiset* across a checkpoint, but
/// entries_sorted() breaks estimate ties by internal array order, which
/// legitimately differs between an incrementally built heap and a restored
/// one.  Impose a total order before element-wise comparison.
template <typename E>
std::vector<E> canonical(std::vector<E> v) {
  std::sort(v.begin(), v.end(), [](const E& a, const E& b) {
    if (a.estimate != b.estimate) return a.estimate > b.estimate;
    return std::memcmp(&a.key, &b.key, sizeof(FlowKey)) < 0;
  });
  return v;
}

core::NitroConfig fixed_cfg(double p = 0.2) {
  core::NitroConfig cfg;
  cfg.mode = core::Mode::kFixedRate;
  cfg.probability = p;
  cfg.track_top_keys = true;
  cfg.top_keys = 64;
  return cfg;
}

TEST(CheckpointStore, SaveLoadRoundTripIsBitIdentical) {
  CheckpointStore store(fresh_dir("roundtrip"));
  std::vector<std::uint8_t> payload(512);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 37 + 11);  // every byte value
  }
  ASSERT_TRUE(store.save_frame("chain", /*full=*/true, payload).ok);
  const auto restored = store.load_chain("chain");
  ASSERT_TRUE(restored.found);
  EXPECT_EQ(restored.frames_rejected, 0u);
  EXPECT_TRUE(restored.deltas.empty());
  EXPECT_EQ(restored.base, payload);
}

TEST(CheckpointStore, MissingCheckpointReportsNoneWithoutThrowing) {
  CheckpointStore store(fresh_dir("missing"));
  const auto restored = store.load_chain("chain");
  EXPECT_FALSE(restored.found);
  EXPECT_TRUE(restored.base.empty());
  EXPECT_EQ(restored.frames_rejected, 0u);
  EXPECT_TRUE(restored.error.empty());
}

TEST(CheckpointStore, SecondSaveRotatesThePreviousGeneration) {
  CheckpointStore store(fresh_dir("rotate"));
  ASSERT_TRUE(store.save_frame("chain", true, payload_of("epoch 1")).ok);
  ASSERT_TRUE(store.save_frame("chain", true, payload_of("epoch 2")).ok);
  // The newer full frame is the live base; the older one stays on disk as
  // the fallback generation.
  EXPECT_TRUE(std::filesystem::exists(store.chain_path("chain", 1, true)));
  EXPECT_TRUE(std::filesystem::exists(store.chain_path("chain", 2, true)));
  const auto restored = store.load_chain("chain");
  ASSERT_TRUE(restored.found);
  EXPECT_EQ(restored.base_gen, 2u);
  EXPECT_EQ(restored.base, payload_of("epoch 2"));
}

TEST(CheckpointStore, TornWriteIsDetectedByCrcAndFallsBackToPrevious) {
  CheckpointStore store(fresh_dir("torn"));
  ASSERT_TRUE(store.save_frame("chain", true, payload_of("good epoch")).ok);

  // The second full frame is torn: only 10 bytes reach disk, but the
  // rename completes and the save reports success — exactly the "rename
  // journaled before data blocks" crash.  (Hit counters live in the
  // schedule, so the pre-install save above did not advance them.)
  fault::Schedule plan;
  plan.torn_checkpoint_write(/*at_hit=*/1, /*keep_bytes=*/10);
  {
    fault::ScopedFaultInjection scoped(plan);
    ASSERT_TRUE(store.save_frame("chain", true, payload_of("torn epoch")).ok);
  }
  EXPECT_EQ(plan.fired(fault::Site::kCheckpointWrite), 1u);

  const auto restored = store.load_chain("chain");
  EXPECT_EQ(restored.frames_rejected, 1u);
  EXPECT_NE(restored.error.find("frame"), std::string::npos) << restored.error;
  ASSERT_TRUE(restored.found);
  EXPECT_EQ(restored.base_gen, 1u);
  EXPECT_EQ(restored.base, payload_of("good epoch"));
}

TEST(CheckpointStore, InjectedBitRotIsCaughtByCrcOnRead) {
  CheckpointStore store(fresh_dir("bitrot"));
  ASSERT_TRUE(store.save_frame("chain", true, payload_of("epoch 1")).ok);
  ASSERT_TRUE(store.save_frame("chain", false, payload_of("epoch 2")).ok);

  // The delta (seq 2) rots in memory after the disk read; the CRC rejects
  // it and the chain ends at the clean base.
  fault::Schedule plan;
  plan.corrupt_chain_frame(/*at_hit=*/1, /*lane=*/2);
  fault::ScopedFaultInjection scoped(plan);
  const auto restored = store.load_chain("chain");
  EXPECT_EQ(plan.fired(fault::Site::kChainLoad), 1u);
  EXPECT_EQ(restored.frames_rejected, 1u);
  ASSERT_TRUE(restored.found);
  EXPECT_EQ(restored.base, payload_of("epoch 1"));
  EXPECT_TRUE(restored.deltas.empty());
  EXPECT_EQ(restored.last_seq, 1u);
}

TEST(CheckpointStore, TelemetryCountsSavesAndRejections) {
  telemetry::Registry registry;
  CheckpointStore store(fresh_dir("telemetry"));
  store.attach_telemetry(registry, "ckpt");
  ASSERT_TRUE(store.save_frame("chain", true, payload_of("epoch 1")).ok);
  ASSERT_TRUE(store.save_frame("chain", false, payload_of("epoch 2")).ok);
  {
    fault::Schedule plan;
    plan.corrupt_chain_frame(1, /*lane=*/2);
    fault::ScopedFaultInjection scoped(plan);
    (void)store.load_chain("chain");
  }
  std::uint64_t saves = 0, rejected = 0, restores = 0;
  registry.for_each_counter([&](const std::string& name, const std::string&,
                                const telemetry::Counter& c) {
    if (name == "ckpt_chain_frames_total") saves = c.value();
    if (name == "ckpt_chain_rejected_total") rejected = c.value();
    if (name == "ckpt_restores_total") restores = c.value();
  });
  EXPECT_EQ(saves, 2u);
  EXPECT_EQ(rejected, 1u);
  EXPECT_EQ(restores, 1u);
}

template <typename Base>
void roundtrip_nitro(Base make_base(), std::uint64_t trace_seed) {
  const auto stream = small_trace(60000, trace_seed);
  core::NitroSketch<Base> source(make_base(), fixed_cfg());
  for (const auto& p : stream) source.update(p.key, 1, p.ts_ns);

  const auto payload = checkpoint_nitro(source);
  core::NitroSketch<Base> replica(make_base(), fixed_cfg());
  restore_nitro(payload, replica);

  EXPECT_EQ(replica.packets(), source.packets());
  EXPECT_EQ(replica.sampled_updates(), source.sampled_updates());
  for (int rank = 0; rank < 2000; ++rank) {
    const auto key = flow_key_for_rank(rank, 51);
    EXPECT_EQ(replica.query(key), source.query(key)) << "rank " << rank;
  }
  const auto a = canonical(source.top_keys());
  const auto b = canonical(replica.top_keys());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].key, b[i].key);
    EXPECT_EQ(a[i].estimate, b[i].estimate);
  }
}

TEST(NitroCheckpoint, CountMinRoundTripIsBitIdentical) {
  roundtrip_nitro<sketch::CountMinSketch>(
      +[] { return sketch::CountMinSketch(5, 2048, 61); }, 13);
}

TEST(NitroCheckpoint, CountSketchRoundTripIsBitIdentical) {
  roundtrip_nitro<sketch::CountSketch>(
      +[] { return sketch::CountSketch(5, 2048, 62); }, 14);
}

TEST(NitroCheckpoint, KAryRoundTripRestoresStreamTotal) {
  roundtrip_nitro<sketch::KArySketch>(
      +[] { return sketch::KArySketch(5, 2048, 63); }, 15);
}

TEST(NitroCheckpoint, RejectsTruncatedPayloads) {
  core::NitroSketch<sketch::CountMinSketch> source(
      sketch::CountMinSketch(4, 512, 7), fixed_cfg());
  source.update(flow_key_for_rank(1, 1));
  auto payload = checkpoint_nitro(source);
  core::NitroSketch<sketch::CountMinSketch> replica(
      sketch::CountMinSketch(4, 512, 7), fixed_cfg());
  payload.resize(payload.size() / 2);
  EXPECT_THROW(restore_nitro(payload, replica), std::exception);
}

TEST(ShardedCheckpoint, RoundTripAcrossAWorkerGroup) {
  const auto stream = small_trace(80000, 16);
  core::NitroConfig cfg = fixed_cfg(1.0);
  cfg.mode = core::Mode::kVanilla;
  auto make = [] { return sketch::CountMinSketch(5, 2048, 71); };
  shard::ShardedNitroCountMin source(3, make, cfg);
  for (const auto& p : stream) source.update(p.key, 1, p.ts_ns);

  const auto payload = checkpoint_sharded(source);
  shard::ShardedNitroCountMin replica(3, make, cfg);
  EXPECT_EQ(restore_sharded(payload, replica), 0u);

  const auto& src_snap = source.snapshot();
  const auto& dst_snap = replica.snapshot();
  for (int rank = 0; rank < 2000; ++rank) {
    const auto key = flow_key_for_rank(rank, 51);
    EXPECT_EQ(dst_snap.query(key), src_snap.query(key)) << "rank " << rank;
  }
}

TEST(ShardedCheckpoint, RejectsWorkerCountMismatch) {
  core::NitroConfig cfg = fixed_cfg(1.0);
  cfg.mode = core::Mode::kVanilla;
  auto make = [] { return sketch::CountMinSketch(4, 512, 72); };
  shard::ShardedNitroCountMin source(3, make, cfg);
  shard::ShardedNitroCountMin wrong(2, make, cfg);
  const auto payload = checkpoint_sharded(source);
  EXPECT_THROW(restore_sharded(payload, wrong), std::invalid_argument);
}

TEST(DaemonCheckpoint, CrashAtEpochBoundaryRestoresIdenticalReports) {
  sketch::UnivMonConfig um_cfg;
  um_cfg.levels = 8;
  um_cfg.depth = 5;
  um_cfg.top_width = 1024;
  um_cfg.min_width = 256;
  um_cfg.heap_capacity = 100;
  core::NitroConfig cfg;
  cfg.mode = core::Mode::kVanilla;

  MeasurementDaemon daemon(um_cfg, cfg, {}, /*seed=*/99);
  const auto stream = small_trace(50000, 17);
  // Run one full epoch so change detection has a previous sketch, then
  // half of the next epoch.
  std::size_t i = 0;
  for (; i < stream.size() / 2; ++i) daemon.on_packet(stream[i].key, stream[i].ts_ns);
  (void)daemon.end_epoch();
  for (; i < stream.size(); ++i) daemon.on_packet(stream[i].key, stream[i].ts_ns);

  CheckpointStore store(fresh_dir("daemon_crash"));
  ASSERT_TRUE(store.save_frame("chain", /*full=*/true, daemon.checkpoint_bytes()).ok);

  {
    fault::Schedule plan;
    plan.crash_daemon_epoch(1);
    fault::ScopedFaultInjection scoped(plan);
    EXPECT_THROW(daemon.end_epoch(), DaemonCrash);
  }

  // "Restart": a fresh daemon with the same configs+seed restores the
  // checkpoint and closes the epoch the crashed one could not — producing
  // exactly the report the original would have.
  MeasurementDaemon restarted(um_cfg, cfg, {}, /*seed=*/99);
  const auto restored = store.load_chain("chain");
  ASSERT_TRUE(restored.found);
  ASSERT_TRUE(restored.deltas.empty());
  restarted.restore_checkpoint(restored.base);
  EXPECT_EQ(restarted.epoch(), 1u);

  const auto want = daemon.end_epoch();  // fault uninstalled: original closes
  const auto got = restarted.end_epoch();
  EXPECT_EQ(got.epoch, want.epoch);
  EXPECT_EQ(got.packets, want.packets);
  EXPECT_DOUBLE_EQ(got.entropy, want.entropy);
  EXPECT_DOUBLE_EQ(got.distinct, want.distinct);
  const auto want_hh = canonical(want.heavy_hitters);
  const auto got_hh = canonical(got.heavy_hitters);
  ASSERT_EQ(got_hh.size(), want_hh.size());
  for (std::size_t h = 0; h < got_hh.size(); ++h) {
    EXPECT_EQ(got_hh[h].key, want_hh[h].key);
    EXPECT_EQ(got_hh[h].estimate, want_hh[h].estimate);
  }
  const auto want_ch = canonical(want.changed_flows);
  const auto got_ch = canonical(got.changed_flows);
  ASSERT_EQ(got_ch.size(), want_ch.size());
  for (std::size_t c = 0; c < got_ch.size(); ++c) {
    EXPECT_EQ(got_ch[c].key, want_ch[c].key);
    EXPECT_EQ(got_ch[c].estimate, want_ch[c].estimate);
  }
}

TEST(DaemonCheckpoint, RestoreRejectsWrongMagicLoudly) {
  sketch::UnivMonConfig um_cfg;
  um_cfg.levels = 4;
  um_cfg.depth = 3;
  um_cfg.top_width = 256;
  um_cfg.heap_capacity = 16;
  core::NitroConfig cfg;
  cfg.mode = core::Mode::kVanilla;
  MeasurementDaemon daemon(um_cfg, cfg, {});
  auto payload = daemon.checkpoint_bytes();
  payload[0] ^= 0xff;
  EXPECT_THROW(daemon.restore_checkpoint(payload), std::invalid_argument);
}

}  // namespace
}  // namespace nitro::control
