// Golden frames: the exact bytes the epoch boundary writes.  A seeded,
// fed sketch and daemon are encoded through every frame producer on that
// boundary (UnivMon full and delta snapshots, the daemon's full and
// rotated-delta checkpoint payloads, the export wire's epoch message), and
// each output is pinned by length and by a CRC-32 computed with a
// byte-at-a-time reference kept here.  The pinned values were produced by
// the element-at-a-time encoder and the byte-loop CRC, so any drift in a
// bulk writer, the sliced CRC, or a frame layout fails this suite.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "control/codec.hpp"
#include "control/daemon.hpp"
#include "export/wire.hpp"
#include "sketch/univmon.hpp"
#include "trace/workloads.hpp"

namespace nitro::control {
namespace {

using trace::flow_key_for_rank;

/// Independent reference: bitwise CRC-32 (reflected 0xEDB88320), no table.
std::uint32_t reference_crc32(std::span<const std::uint8_t> data) {
  std::uint32_t c = 0xffffffffu;
  for (std::uint8_t b : data) {
    c ^= b;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return ~c;
}

/// Widths 1003/501/300/300: none a multiple of the 8-counter cache line
/// or the 64-counter dirty segment, so row padding and short last
/// segments are both on the encoded path.
sketch::UnivMonConfig golden_um() {
  sketch::UnivMonConfig cfg;
  cfg.levels = 4;
  cfg.depth = 3;
  cfg.top_width = 1003;
  cfg.min_width = 300;
  cfg.heap_capacity = 16;
  return cfg;
}

core::NitroConfig vanilla_cfg() {
  core::NitroConfig cfg;
  cfg.mode = core::Mode::kVanilla;  // every packet updates: deterministic
  return cfg;
}

/// Skewed key stream: 7 in 8 packets from 24 heavy ranks, the rest spread
/// over 5000 ranks.
FlowKey golden_key(SplitMix64& rng) {
  const std::uint64_t r = rng.next();
  return flow_key_for_rank(r % 8 == 0 ? (r >> 8) % 5000 : (r >> 8) % 24, 5);
}

sketch::UnivMon fed_univmon() {
  sketch::UnivMon um(golden_um(), 0x5eed);
  SplitMix64 rng(1);
  for (int i = 0; i < 20'000; ++i) um.update(golden_key(rng));
  return um;
}

/// A fed sketch with a sparse dirty set since its last frame cut: five
/// keys, so the delta is a few short runs per row.
sketch::UnivMon fed_univmon_with_delta() {
  sketch::UnivMon um = fed_univmon();
  um.enable_dirty_tracking();
  um.clear_dirty();
  for (int i = 0; i < 300; ++i) um.update(flow_key_for_rank(i % 5, 9));
  return um;
}

struct Golden {
  std::size_t size;
  std::uint32_t crc;
};

void expect_golden(const std::vector<std::uint8_t>& bytes, Golden want) {
  EXPECT_EQ(bytes.size(), want.size);
  EXPECT_EQ(reference_crc32(bytes), want.crc);
}

TEST(GoldenFrames, UnivMonSnapshot) {
  expect_golden(snapshot_univmon(fed_univmon()), {51960, 0x21bbc0a7u});
}

TEST(GoldenFrames, UnivMonDeltaSnapshot) {
  expect_golden(snapshot_univmon_delta(fed_univmon_with_delta()),
                {13960, 0x929e3b09u});
}

TEST(GoldenFrames, DaemonCheckpointsFullAndRotatedDelta) {
  MeasurementDaemon::Tasks tasks;
  MeasurementDaemon d(golden_um(), vanilla_cfg(), tasks, 7);
  d.enable_delta_checkpoints();
  SplitMix64 rng(2);
  for (int i = 0; i < 20'000; ++i) d.on_packet(golden_key(rng));
  (void)d.end_epoch();
  for (int i = 0; i < 5'000; ++i) d.on_packet(golden_key(rng));
  // Full frame: live sketch plus the previous epoch's.
  expect_golden(d.checkpoint_bytes(), {103993, 0x5f531370u});

  d.cut_checkpoint_frame();
  for (int i = 0; i < 300; ++i) d.on_packet(golden_key(rng));
  (void)d.end_epoch();  // one rotation: the frame carries two deltas
  for (int i = 0; i < 200; ++i) d.on_packet(golden_key(rng));
  expect_golden(d.delta_checkpoint_bytes(), {91826, 0x514c7be1u});
}

TEST(GoldenFrames, ExportEpochMessage) {
  xport::EpochMessage msg;
  msg.source_id = 3;
  msg.seq_first = 11;
  msg.seq_last = 12;
  msg.span = {20, 21};
  msg.packets = 20'000;
  msg.epoch_close_ns = 123'456'789;
  msg.send_ns = 123'999'000;
  msg.seed_gen = 4;
  msg.snapshot = snapshot_univmon(fed_univmon());
  expect_golden(xport::encode_epoch(msg), {52068, 0x8e81e85eu});
}

// --- Bulk counter I/O -------------------------------------------------------

TEST(BulkCounterIo, MatchesElementAtATimeBytes) {
  const std::vector<std::int64_t> v = {0, -1, 42, INT64_MIN, INT64_MAX, 7};
  ByteWriter bulk;
  bulk.put_i64s(v);
  ByteWriter each;
  for (std::int64_t x : v) each.put_i64(x);
  EXPECT_EQ(bulk.bytes(), each.bytes());

  std::vector<std::int64_t> back(v.size());
  ByteReader r(each.bytes());
  r.get_i64s(back);
  EXPECT_EQ(back, v);
  EXPECT_TRUE(r.exhausted());
}

TEST(BulkCounterIo, ShortBufferThrowsAndLeavesTheRowUntouched) {
  ByteWriter w;
  w.put_i64s(std::vector<std::int64_t>{1, 2, 3, 4});
  const auto full = w.bytes();
  const std::span<const std::uint8_t> short_by_one(full.data(), full.size() - 1);

  std::vector<std::int64_t> row = {-5, -6, -7, -8};
  ByteReader r(short_by_one);
  EXPECT_THROW(r.get_i64s(row), std::out_of_range);
  EXPECT_EQ(row, (std::vector<std::int64_t>{-5, -6, -7, -8}));
  EXPECT_EQ(r.remaining(), short_by_one.size());  // nothing consumed
}

}  // namespace
}  // namespace nitro::control
