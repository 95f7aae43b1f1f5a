// Deterministic fault-injection framework (DESIGN.md §10).
//
// NitroSketch's pitch is *robust* monitoring, so the data plane must keep
// its guarantees when the machine misbehaves, not just when inputs are
// adversarial.  This header provides compile-time zero-cost fault points
// (same pattern as the telemetry templates: a macro compiles every site
// out) woven into the SPSC rings, the shard workers, the measurement
// daemon's epoch loop and the checkpoint I/O path.  A seeded Schedule
// decides which hits of which site fire which fault, so every failure —
// a worker dying mid-epoch, a torn checkpoint write, an overflow storm —
// is exactly reproducible from (schedule, seed).
//
// Overhead policy:
//  * compiled out (-DNITRO_FAULT_DISABLED): every fault::point() call is
//    `if constexpr`-eliminated; the surrounding code is the same machine
//    code as before this subsystem existed.
//  * compiled in, no schedule installed (the default at runtime): one
//    well-predicted acquire load + null check per site.  No site sits on
//    the per-packet sketch update path — rings, worker loops, epoch
//    boundaries and file I/O only.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <span>
#include <thread>
#include <vector>

#include "common/rng.hpp"

namespace nitro::fault {

/// Compile-time master switch.  Define NITRO_FAULT_DISABLED project-wide
/// to remove every fault point from the build.
#if defined(NITRO_FAULT_DISABLED)
inline constexpr bool kEnabled = false;
#else
inline constexpr bool kEnabled = true;
#endif

/// Instrumented locations.  A "lane" disambiguates parallel instances of
/// a site (the shard index for rings/workers; 0 elsewhere).
enum class Site : std::uint8_t {
  kRingPush = 0,     // SpscRing producer side (single + bulk)
  kWorkerLoop,       // ShardGroup worker, once per poll iteration
  kDaemonEpoch,      // MeasurementDaemon::end_epoch entry
  kDaemonClock,      // packet timestamps entering the daemon
  kCheckpointWrite,  // CheckpointStore::save_frame, before the tmp write
  kExportConnect,    // EpochExporter, before each connect attempt
  kExportSend,       // EpochExporter, before each epoch frame send
  kCollectorIngest,  // collector connection, per decoded epoch frame
  kCollectorDecode,  // CollectorCore::ingest, before the (lock-free) decode
  kChainLoad,        // CheckpointStore::load_chain, after reading a frame
  kRecoverServe,     // collector connection, per decoded recover request
  kAdmissionValve,   // ChurnValve trip on a shard's producer path
  kSiteCount_,       // sentinel
};

inline constexpr std::size_t kNumSites = static_cast<std::size_t>(Site::kSiteCount_);

inline const char* to_string(Site s) noexcept {
  switch (s) {
    case Site::kRingPush: return "ring_push";
    case Site::kWorkerLoop: return "worker_loop";
    case Site::kDaemonEpoch: return "daemon_epoch";
    case Site::kDaemonClock: return "daemon_clock";
    case Site::kCheckpointWrite: return "checkpoint_write";
    case Site::kExportConnect: return "export_connect";
    case Site::kExportSend: return "export_send";
    case Site::kCollectorIngest: return "collector_ingest";
    case Site::kCollectorDecode: return "collector_decode";
    case Site::kChainLoad: return "chain_load";
    case Site::kRecoverServe: return "recover_serve";
    case Site::kAdmissionValve: return "admission_valve";
    case Site::kSiteCount_: break;
  }
  return "unknown";
}

/// What a firing fault point does.  The *site* interprets the action (a
/// ring rejects the push, a worker stalls or exits, the checkpoint writer
/// truncates); the framework only selects and counts.
enum class Action : std::uint8_t {
  kNone = 0,
  kStall,      // param = nanoseconds to stall (interruptible, see stall_ns)
  kDie,        // worker: exit its loop; daemon: throw DaemonCrash
  kReject,     // ring: report full (overflow storm)
  kTornWrite,  // checkpoint save: persist only `param` bytes of the frame
  kCorrupt,    // chain load: flip bits (seeded) before validation
  kClockSkew,  // param = ns offset added to the timestamp (as int64)
  kDuplicate,  // exporter: transmit the epoch frame twice (dedup test)
};

inline constexpr std::uint32_t kAnyLane = 0xffffffffu;

/// One deterministic trigger: at the `at_hit`-th visit (1-based, counted
/// per site *and* lane) of `site` on `lane`, perform `action`; with
/// `every` > 0 the rule re-fires on every `every`-th visit after that
/// (overflow storms, periodic stalls).
struct Rule {
  Site site = Site::kRingPush;
  std::uint64_t at_hit = 1;
  std::uint64_t every = 0;  // 0 = fire once
  std::uint32_t lane = kAnyLane;
  Action action = Action::kNone;
  std::uint64_t param = 0;
};

/// A seeded, immutable-after-install fault plan.  Hit counters are kept
/// per (site, lane) so "kill worker 2 at its 5000th loop iteration" means
/// the same thing on every run regardless of thread interleaving.
class Schedule {
 public:
  /// Lanes above this share the last counter (shard counts are far below).
  static constexpr std::uint32_t kMaxLanes = 64;

  explicit Schedule(std::uint64_t seed = 0xfa017ULL) : seed_(seed) {}

  Schedule(const Schedule&) = delete;
  Schedule& operator=(const Schedule&) = delete;

  Schedule& add(const Rule& rule) {
    rules_.push_back(rule);
    return *this;
  }

  // --- convenience builders (tests read better with these) --------------
  Schedule& stall_worker(std::uint32_t lane, std::uint64_t at_hit, std::uint64_t ns) {
    return add({Site::kWorkerLoop, at_hit, 0, lane, Action::kStall, ns});
  }
  Schedule& kill_worker(std::uint32_t lane, std::uint64_t at_hit) {
    return add({Site::kWorkerLoop, at_hit, 0, lane, Action::kDie, 0});
  }
  Schedule& reject_ring_pushes(std::uint32_t lane, std::uint64_t at_hit,
                               std::uint64_t every) {
    return add({Site::kRingPush, at_hit, every, lane, Action::kReject, 0});
  }
  Schedule& torn_checkpoint_write(std::uint64_t at_hit, std::uint64_t keep_bytes) {
    return add({Site::kCheckpointWrite, at_hit, 0, kAnyLane, Action::kTornWrite,
                keep_bytes});
  }
  Schedule& crash_daemon_epoch(std::uint64_t at_hit) {
    return add({Site::kDaemonEpoch, at_hit, 0, kAnyLane, Action::kDie, 0});
  }
  Schedule& skew_clock(std::uint64_t at_hit, std::uint64_t every,
                       std::int64_t skew_ns) {
    return add({Site::kDaemonClock, at_hit, every, kAnyLane, Action::kClockSkew,
                static_cast<std::uint64_t>(skew_ns)});
  }
  // Export-path injections (lane = exporter source id, truncated to u32,
  // so per-monitor rules compose in multi-source tests).
  Schedule& fail_export_connect(std::uint64_t at_hit, std::uint64_t every = 0,
                                std::uint32_t lane = kAnyLane) {
    return add({Site::kExportConnect, at_hit, every, lane, Action::kReject, 0});
  }
  Schedule& fail_export_send(std::uint64_t at_hit, std::uint64_t every = 0,
                             std::uint32_t lane = kAnyLane) {
    return add({Site::kExportSend, at_hit, every, lane, Action::kReject, 0});
  }
  Schedule& stall_export_send(std::uint64_t at_hit, std::uint64_t ns,
                              std::uint64_t every = 0) {
    return add({Site::kExportSend, at_hit, every, kAnyLane, Action::kStall, ns});
  }
  Schedule& duplicate_export_send(std::uint64_t at_hit, std::uint64_t every = 0,
                                  std::uint32_t lane = kAnyLane) {
    return add({Site::kExportSend, at_hit, every, lane, Action::kDuplicate, 0});
  }
  Schedule& drop_collector_frame(std::uint64_t at_hit, std::uint64_t every = 0) {
    return add({Site::kCollectorIngest, at_hit, every, kAnyLane, Action::kReject, 0});
  }
  Schedule& kill_collector_conn(std::uint64_t at_hit) {
    return add({Site::kCollectorIngest, at_hit, 0, kAnyLane, Action::kDie, 0});
  }
  /// Stall one source's snapshot decode inside CollectorCore::ingest
  /// (lane = source id): proves decode runs outside every lock — other
  /// sources must keep applying while this one sleeps.
  Schedule& stall_collector_decode(std::uint32_t lane, std::uint64_t at_hit,
                                   std::uint64_t ns) {
    return add({Site::kCollectorDecode, at_hit, 0, lane, Action::kStall, ns});
  }
  // Distributed-recovery injections (DESIGN.md §15).  Chain-load lane =
  // the frame's sequence number (so one specific frame of the delta chain
  // can be rotted); recover-serve lane = the requesting source id.
  Schedule& corrupt_chain_frame(std::uint64_t at_hit,
                                std::uint32_t lane = kAnyLane) {
    return add({Site::kChainLoad, at_hit, 0, lane, Action::kCorrupt, 0});
  }
  Schedule& drop_recover_request(std::uint64_t at_hit, std::uint64_t every = 0,
                                 std::uint32_t lane = kAnyLane) {
    return add({Site::kRecoverServe, at_hit, every, lane, Action::kReject, 0});
  }
  Schedule& kill_recover_conn(std::uint64_t at_hit, std::uint32_t lane = kAnyLane) {
    return add({Site::kRecoverServe, at_hit, 0, lane, Action::kDie, 0});
  }

  /// Called by the woven fault points.  Thread-safe; returns the action to
  /// perform (kNone almost always) and its parameter via `param_out`.
  Action check(Site site, std::uint32_t lane, std::uint64_t* param_out) noexcept {
    const std::size_t s = static_cast<std::size_t>(site);
    const std::uint32_t l = lane < kMaxLanes ? lane : kMaxLanes - 1;
    const std::uint64_t h =
        hits_[s][l].fetch_add(1, std::memory_order_relaxed) + 1;
    for (const Rule& r : rules_) {
      if (r.site != site) continue;
      if (r.lane != kAnyLane && r.lane != lane) continue;
      const bool fires = r.every == 0
                             ? h == r.at_hit
                             : h >= r.at_hit && (h - r.at_hit) % r.every == 0;
      if (!fires) continue;
      fired_[s].fetch_add(1, std::memory_order_relaxed);
      if (param_out != nullptr) *param_out = r.param;
      return r.action;
    }
    return Action::kNone;
  }

  /// Visits of `site` so far, summed over lanes (observability for tests).
  std::uint64_t hits(Site site) const noexcept {
    const std::size_t s = static_cast<std::size_t>(site);
    std::uint64_t n = 0;
    for (const auto& lane : hits_[s]) n += lane.load(std::memory_order_relaxed);
    return n;
  }

  std::uint64_t hits(Site site, std::uint32_t lane) const noexcept {
    const std::size_t s = static_cast<std::size_t>(site);
    const std::uint32_t l = lane < kMaxLanes ? lane : kMaxLanes - 1;
    return hits_[s][l].load(std::memory_order_relaxed);
  }

  /// Rules of `site` that actually fired (tests assert the injection
  /// happened rather than silently missing its trigger).
  std::uint64_t fired(Site site) const noexcept {
    return fired_[static_cast<std::size_t>(site)].load(std::memory_order_relaxed);
  }

  std::uint64_t seed() const noexcept { return seed_; }

 private:
  std::uint64_t seed_;
  std::vector<Rule> rules_;
  std::array<std::array<std::atomic<std::uint64_t>, kMaxLanes>, kNumSites> hits_{};
  std::array<std::atomic<std::uint64_t>, kNumSites> fired_{};
};

namespace detail {
inline std::atomic<Schedule*>& schedule_slot() noexcept {
  static std::atomic<Schedule*> slot{nullptr};
  return slot;
}
}  // namespace detail

/// Install a schedule process-wide.  The caller keeps ownership and must
/// uninstall before destroying it (ScopedFaultInjection does both).
inline void install(Schedule* schedule) noexcept {
  detail::schedule_slot().store(schedule, std::memory_order_release);
}

inline void uninstall() noexcept { install(nullptr); }

inline Schedule* installed() noexcept {
  return detail::schedule_slot().load(std::memory_order_acquire);
}

/// The fault point.  Compiled out entirely under NITRO_FAULT_DISABLED;
/// otherwise a null check when no schedule is installed.
inline Action point(Site site, std::uint32_t lane = 0,
                    std::uint64_t* param_out = nullptr) noexcept {
  if constexpr (!kEnabled) {
    (void)site, (void)lane, (void)param_out;
    return Action::kNone;
  } else {
    Schedule* s = detail::schedule_slot().load(std::memory_order_acquire);
    if (s == nullptr) [[likely]] return Action::kNone;
    return s->check(site, lane, param_out);
  }
}

/// RAII installer for tests: the schedule is active for the scope's
/// lifetime and guaranteed uninstalled on exit (also on test failure).
class ScopedFaultInjection {
 public:
  explicit ScopedFaultInjection(Schedule& schedule) { install(&schedule); }
  ~ScopedFaultInjection() { uninstall(); }
  ScopedFaultInjection(const ScopedFaultInjection&) = delete;
  ScopedFaultInjection& operator=(const ScopedFaultInjection&) = delete;
};

/// Interruptible stall used by kStall sites: sleeps in 1ms slices until
/// `total_ns` elapsed or `abort()` turns true, so supervision (quarantine,
/// stop()) never waits out a long injected stall.
template <typename AbortFn>
void stall_ns(std::uint64_t total_ns, AbortFn&& abort) {
  using clock = std::chrono::steady_clock;
  const auto deadline = clock::now() + std::chrono::nanoseconds(total_ns);
  while (clock::now() < deadline) {
    if (abort()) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

/// Deterministic bit rot: flips one seeded bit per 64-byte window (and at
/// least one bit overall), so corruption tests are reproducible and CRC
/// validation has something to catch in every cache line sized region.
inline void corrupt_bytes(std::span<std::uint8_t> bytes, std::uint64_t seed) {
  if (bytes.empty()) return;
  SplitMix64 rng(seed ^ 0xbadc0ffee0ddf00dULL);
  for (std::size_t base = 0; base < bytes.size(); base += 64) {
    const std::size_t window = std::min<std::size_t>(64, bytes.size() - base);
    const std::uint64_t r = rng.next();
    bytes[base + (r % window)] ^=
        static_cast<std::uint8_t>(1u << ((r >> 32) % 8));
  }
}

}  // namespace nitro::fault
