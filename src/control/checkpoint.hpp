// Crash-safe checkpoint/restore for sketch state (DESIGN.md §10, §15).
//
// A daemon crash must not lose the measurement epoch: at every epoch
// boundary the control plane appends a frame to its checkpoint chain and
// restores from the chain on restart.  Durability recipe per frame:
//
//   1. the payload is wrapped in a chain header and sealed in a versioned
//      CRC-32 frame (codec.hpp);
//   2. the frame is written to `<name>.tmp` and fsync'd;
//   3. `<name>.tmp` is atomically renamed to `<name>.NNNNNN.full|.delta`
//      and the directory is fsync'd.
//
// load_chain() validates every frame it replays; a torn or corrupt frame
// is *detected and reported*, never silently loaded — a corrupt delta
// truncates the chain there, a corrupt full frame falls back to the next
// older base.  The fault framework can inject torn writes (persist only a
// prefix of the frame) and read-side bit rot to exercise exactly these
// paths.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "control/codec.hpp"
#include "telemetry/telemetry.hpp"

namespace nitro::control {

class CheckpointStore {
 public:
  /// `dir` is created if missing (single level).  Throws std::runtime_error
  /// when the directory cannot be created or is not writable.
  explicit CheckpointStore(std::string dir);

  std::string tmp_path(const std::string& name) const;

  /// Chain frame/failure/rejection/GC/restore counters + last frame size.
  void attach_telemetry(telemetry::Registry& registry, const std::string& prefix);

  // --- Delta-checkpoint chains (DESIGN.md §15) ----------------------------
  //
  // A chain is a sequence of numbered frames `<name>.NNNNNN.full` /
  // `<name>.NNNNNN.delta`: a periodic full base plus the deltas cut
  // against it.  Every frame is written with the atomic durability recipe
  // above, and carries an inner chain header (kind, its own
  // sequence number, and the base generation — the sequence number of the
  // full frame the chain is rooted at) inside the CRC frame, so a frame
  // renamed or substituted on disk is detected at restore time.

  struct ChainSave {
    bool ok = false;
    std::uint64_t seq = 0;       // this frame's sequence number
    std::uint64_t base_gen = 0;  // sequence number of the live full base
  };

  /// Append one frame to `name`'s chain.  `full` starts a new base
  /// generation; a delta is refused (ok = false) when no full base exists
  /// yet.  A fault-injected torn write persists only a prefix of the frame
  /// but still completes the rename and reports success — a crash where
  /// the rename was journaled before the data blocks hit disk.  Successful
  /// saves trigger retention GC (see set_retention).
  ChainSave save_frame(const std::string& name, bool full,
                       std::span<const std::uint8_t> payload);

  struct ChainRestored {
    bool found = false;                           // a usable base was restored
    std::vector<std::uint8_t> base;               // full-frame payload
    std::vector<std::vector<std::uint8_t>> deltas;  // contiguous, in order
    std::uint64_t base_gen = 0;   // seq of the restored full frame
    std::uint64_t last_seq = 0;   // seq of the last restored frame
    std::uint64_t frames_rejected = 0;  // torn/corrupt/forged frames skipped
    std::string error;            // first rejection reason, for logging
  };

  /// Restore the longest valid chain for `name`: starting from the newest
  /// full frame, collect the contiguous run of deltas rooted at it; a
  /// torn/corrupt/mis-rooted delta truncates the chain there (the earlier
  /// prefix is still returned), and a corrupt full frame falls back to the
  /// next older one.  Never throws; rejections are counted and reported.
  ChainRestored load_chain(const std::string& name) const;

  /// Keep at most `keep_frames` chain frames per name, deleting oldest
  /// first — but never a frame of the live chain (seq >= the newest valid
  /// full frame's seq), so a restorable base is always retained.
  void set_retention(std::uint64_t keep_frames) noexcept {
    retention_ = keep_frames < 2 ? 2 : keep_frames;
  }

  std::string chain_path(const std::string& name, std::uint64_t seq,
                         bool full) const;

 private:
  struct ChainState {
    std::uint64_t next_seq = 1;
    std::uint64_t base_gen = 0;  // 0 = no full frame yet
    bool scanned = false;
  };

  ChainState& chain_state(const std::string& name);
  void gc_chain(const std::string& name);

  std::string dir_;
  std::uint64_t retention_ = 16;
  std::map<std::string, ChainState> chains_;
  telemetry::Counter* save_failures_ = nullptr;
  telemetry::Counter* restores_ = nullptr;
  telemetry::Counter* chain_frames_ = nullptr;
  telemetry::Counter* chain_rejected_ = nullptr;
  telemetry::Counter* chain_gc_deleted_ = nullptr;
  telemetry::Gauge* last_bytes_ = nullptr;
};

// --- Checkpoint payload builders --------------------------------------------
//
// These serialize *measurement state* (counters, heaps, stream totals,
// ingestion counts); samplers and convergence detectors are data-plane
// state that a restarted process re-derives.  The replica passed to each
// restore_* must be built with the same configs and seeds — the codec's
// shape checks reject anything else.

inline constexpr std::uint32_t kNitroCkptMagic = 0x4e4e434bu;    // "NNCK"
inline constexpr std::uint32_t kShardedCkptMagic = 0x4e53434bu;  // "NSCK"
inline constexpr std::uint32_t kCkptVersion = 1;

/// Checkpoint one NitroSketch<Base>: ingestion counters + base-sketch
/// counters + heavy-key heap.  Flushes pending buffered updates first so
/// the payload reflects every processed packet.
template <typename Nitro>
std::vector<std::uint8_t> checkpoint_nitro(Nitro& sketch) {
  sketch.flush();
  ByteWriter w;
  w.put_u32(kNitroCkptMagic);
  w.put_u32(kCkptVersion);
  w.put_u64(sketch.packets());
  w.put_u64(sketch.sampled_updates());
  w.put_blob(snapshot_sketch(sketch.base()));
  write_heap(w, sketch.heap());
  return std::move(w).take();
}

/// Restore a checkpoint_nitro payload into an identically configured
/// replica.  Throws std::invalid_argument on malformed input; the replica
/// is only mutated after the payload parses.
template <typename Nitro>
void restore_nitro(std::span<const std::uint8_t> payload, Nitro& replica) {
  ByteReader r(payload);
  if (r.get_u32() != kNitroCkptMagic) {
    throw std::invalid_argument("nitro checkpoint: bad magic");
  }
  if (r.get_u32() != kCkptVersion) {
    throw std::invalid_argument("nitro checkpoint: unsupported version");
  }
  const std::uint64_t packets = r.get_u64();
  const std::uint64_t sampled = r.get_u64();
  const auto base_snap = r.get_blob();
  load_sketch(base_snap, replica.base());
  read_heap_into(r, replica.heap_mut());
  if (!r.exhausted()) {
    throw std::invalid_argument("nitro checkpoint: trailing bytes");
  }
  replica.set_ingest_counts(packets, sampled);
}

/// Checkpoint a ShardedNitroSketch: one checkpoint_nitro payload per
/// shard plus its quarantine flag (a quarantined shard's frozen pre-fault
/// counters are still valid measurement state and are preserved).  Call
/// only at an epoch boundary: drains first.
template <typename Sharded>
std::vector<std::uint8_t> checkpoint_sharded(Sharded& sharded) {
  sharded.drain();
  ByteWriter w;
  w.put_u32(kShardedCkptMagic);
  w.put_u32(kCkptVersion);
  w.put_u32(sharded.workers());
  for (std::uint32_t i = 0; i < sharded.workers(); ++i) {
    w.put_u8(sharded.quarantined(i) ? 1 : 0);
    w.put_blob(checkpoint_nitro(sharded.shard_sketch(i)));
  }
  return std::move(w).take();
}

/// Restore into a quiescent, identically configured sharded replica (same
/// worker count, base factory and seeds).  Quarantine is not re-imposed:
/// the restored process has fresh, healthy workers — the flag travels in
/// the payload purely so operators can see what the checkpoint lived
/// through.  Returns the number of shards that were quarantined at save
/// time.
template <typename Sharded>
std::uint32_t restore_sharded(std::span<const std::uint8_t> payload,
                              Sharded& replica) {
  ByteReader r(payload);
  if (r.get_u32() != kShardedCkptMagic) {
    throw std::invalid_argument("sharded checkpoint: bad magic");
  }
  if (r.get_u32() != kCkptVersion) {
    throw std::invalid_argument("sharded checkpoint: unsupported version");
  }
  const std::uint32_t workers = r.get_u32();
  if (workers != replica.workers()) {
    throw std::invalid_argument("sharded checkpoint: worker count mismatch");
  }
  std::uint32_t was_quarantined = 0;
  for (std::uint32_t i = 0; i < workers; ++i) {
    was_quarantined += r.get_u8() != 0 ? 1u : 0u;
    const auto shard_payload = r.get_blob();
    restore_nitro(shard_payload, replica.shard_sketch(i));
  }
  if (!r.exhausted()) {
    throw std::invalid_argument("sharded checkpoint: trailing bytes");
  }
  return was_quarantined;
}

}  // namespace nitro::control
