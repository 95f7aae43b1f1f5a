// Measurement hook routing a pipeline's packets into the sharded
// multi-core data plane (src/shard/).
//
// The pipeline's forwarding thread becomes the dispatcher: per packet it
// pays one flow-hash + one SPSC push, while the d-row sketch work runs on
// the shard workers.  finish() is the pipeline's end-of-run barrier and
// maps to drain(), so post-run queries observe every forwarded packet —
// the same contract as NitroSeparateThread's ring, scaled to N consumers.
#pragma once

#include <cstdint>
#include <span>

#include "shard/sharded_nitro.hpp"
#include "switchsim/measurement.hpp"

namespace nitro::switchsim {

template <typename Base>
class ShardedNitroMeasurement final : public Measurement {
 public:
  explicit ShardedNitroMeasurement(shard::ShardedNitroSketch<Base>& sharded)
      : sharded_(sharded) {}

  void on_packet(const FlowKey& key, std::uint16_t, std::uint64_t ts_ns) override {
    sharded_.update(key, 1, ts_ns);
  }

  /// Burst dispatch: partition the whole rx burst by shard and enqueue
  /// each shard's run with one bulk ring reservation.
  void on_burst(const FlowKey* keys, const std::uint16_t*, std::size_t n,
                std::uint64_t ts_ns) override {
    sharded_.update_burst(std::span<const FlowKey>(keys, n), 1, ts_ns);
  }

  void finish() override { sharded_.drain(); }

 private:
  shard::ShardedNitroSketch<Base>& sharded_;
};

}  // namespace nitro::switchsim
