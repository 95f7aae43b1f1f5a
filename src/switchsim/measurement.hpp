// Measurement-hook interface between a switch pipeline and a sketch.
//
// A pipeline invokes the hook once per parsed packet (or rx burst) on its
// forwarding thread ("all-in-one" / AIO integration).  The threaded
// integrations implement the same interface: NitroSeparateThread pushes
// the sampled ~p of the traffic to one sketching thread (§6), and the
// sharded data plane dispatches every packet to N shard workers.
#pragma once

#include <cstdint>
#include <span>

#include "common/flow_key.hpp"

namespace nitro::switchsim {

class Measurement {
 public:
  virtual ~Measurement() = default;

  /// Called on the forwarding thread for every successfully parsed packet.
  virtual void on_packet(const FlowKey& key, std::uint16_t wire_bytes,
                         std::uint64_t ts_ns) = 0;

  /// Called once per rx burst with the successfully parsed keys (and the
  /// parallel wire-byte array), all stamped with the burst's poll
  /// timestamp.  The default unrolls to on_packet() so every existing
  /// hook keeps working; burst-aware hooks override it to reach the
  /// sketch's update_burst() fast path.
  virtual void on_burst(const FlowKey* keys, const std::uint16_t* wire_bytes,
                        std::size_t n, std::uint64_t ts_ns) {
    for (std::size_t i = 0; i < n; ++i) on_packet(keys[i], wire_bytes[i], ts_ns);
  }

  /// End-of-run barrier: flush buffers / drain rings so queries observe
  /// every packet.
  virtual void finish() {}
};

/// Null hook — the plain-switch baselines ("OVS-DPDK" bars in Figure 2/8).
class NoMeasurement final : public Measurement {
 public:
  void on_packet(const FlowKey&, std::uint16_t, std::uint64_t) override {}
};

/// AIO adapter: calls Sketch::update(key, 1, ts) inline.  Works for every
/// sketch in this repository (vanilla and Nitro-wrapped).  Bursts route to
/// Sketch::update_burst when the sketch has one (NitroSketch,
/// NitroUnivMon), otherwise unroll to per-packet updates.
template <typename Sketch>
class InlineMeasurement final : public Measurement {
 public:
  explicit InlineMeasurement(Sketch& sketch) : sketch_(sketch) {}

  void on_packet(const FlowKey& key, std::uint16_t, std::uint64_t ts_ns) override {
    sketch_.update(key, 1, ts_ns);
  }

  void on_burst(const FlowKey* keys, const std::uint16_t*, std::size_t n,
                std::uint64_t ts_ns) override {
    if constexpr (requires(Sketch& s) {
                    s.update_burst(std::span<const FlowKey>{}, std::uint64_t{});
                  }) {
      sketch_.update_burst(std::span<const FlowKey>(keys, n), ts_ns);
    } else {
      for (std::size_t i = 0; i < n; ++i) sketch_.update(keys[i], 1, ts_ns);
    }
  }

 private:
  Sketch& sketch_;
};

/// AIO adapter for sketches whose update() takes (key, count) only.
template <typename Sketch>
class InlineMeasurementNoTs final : public Measurement {
 public:
  explicit InlineMeasurementNoTs(Sketch& sketch) : sketch_(sketch) {}

  void on_packet(const FlowKey& key, std::uint16_t, std::uint64_t) override {
    sketch_.update(key, 1);
  }

 private:
  Sketch& sketch_;
};

}  // namespace nitro::switchsim
