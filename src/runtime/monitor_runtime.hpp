// Monitor runtime: the epoch loop nitro_monitor ships (DESIGN.md §2, §10).
//
// One object owns everything a monitor process runs between argument
// parsing and report printing: the measurement daemon, the optional
// sharded data plane, the checkpoint chain, the epoch exporter, the span
// tracer and the accuracy observer.  Construction runs the restore ladder
// — the checkpoint chain first, then (when asked) the collector's replica
// — and every run_epoch() call executes one epoch in a fixed order:
//
//   ingest (IngestLoop over the backend) → drain barrier → merge every
//   live shard into the daemon (quarantined shards excluded) → publish
//   telemetry → checkpoint frame (a full base every checkpoint_full_every
//   frames, run-length deltas between) → cut the frame → end_epoch
//   (tasks, export, seed rotation).
//
// The frame is persisted before end_epoch, so a crash inside it costs at
// most the current epoch, never a reported one.  The tool and the tests
// drive this one class: the loop that ships is the loop under test.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "control/checkpoint.hpp"
#include "control/daemon.hpp"
#include "core/epoch_span.hpp"
#include "core/nitro_univmon.hpp"
#include "export/exporter.hpp"
#include "ingest/backend.hpp"
#include "ingest/ingest_loop.hpp"
#include "shard/shard_group.hpp"
#include "switchsim/measurement.hpp"
#include "switchsim/packet.hpp"
#include "telemetry/accuracy.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"

namespace nitro::runtime {

/// Everything nitro_monitor's flags configure, as plain values or whole
/// library structs (the comment names the flag).
struct MonitorConfig {
  sketch::UnivMonConfig univmon;            // sketch shape; --heap-margin
  core::NitroConfig nitro;                  // --mode, --p
  control::MeasurementDaemon::Tasks tasks;  // --hh-threshold, --*-alarm
  std::uint64_t seed = 1;                   // --seed
  std::uint64_t master_key = 0;             // --master-key
  std::uint64_t rotate_epochs = 0;          // --rotate-epochs (0 = off)
  std::uint32_t workers = 1;                // --workers (>= 2 shards)
  shard::ShardOptions shard;                // --valve, --valve-threshold
  std::size_t burst = switchsim::kBurstSize;  // --burst
  std::string checkpoint_dir;               // --checkpoint-dir (empty = off)
  std::uint64_t checkpoint_full_every = 4;  // --checkpoint-full-every
  bool recover_from_collector = false;      // --recover-from-collector
  std::uint64_t source_id = 1;              // --source-id
  /// --export-to: when set, every closed epoch streams to
  /// exporter->endpoint, which is also where --recover-from-collector
  /// asks.  source_id above replaces the struct's own.
  std::optional<xport::ExporterConfig> exporter;
  bool trace = false;                       // --trace-out
  std::size_t accuracy_sample = 0;          // --accuracy-sample (0 = off)
};

/// What seeded the daemon at startup, exported as the
/// nitro_checkpoint_restore_source gauge.  Codes 1 and 2 named a retired
/// checkpoint store; they stay unused so the gauge keeps its meaning.
enum class RestoreSource : int { kNone = 0, kChain = 3, kCollector = 4 };

struct RestoreReport {
  RestoreSource source = RestoreSource::kNone;
  std::uint64_t chain_base_seq = 0;   // kChain: sequence of the full frame
  std::size_t deltas_applied = 0;     // kChain
  core::EpochSpan replica_span{};     // kCollector: epochs the replica covers
  std::uint64_t settled_seq = 0;      // kCollector: last seq it applied
  std::vector<std::string> warnings;  // every rejection, and why
};

struct EpochResult {
  control::EpochReport report;
  double ingest_seconds = 0.0;      // ingest + drain barrier
  std::vector<std::string> warnings;  // quarantined shards, failed saves
};

class MonitorRuntime {
 public:
  /// Builds every component and runs the restore ladder.  `backend` is
  /// borrowed for the runtime's lifetime; its preferred prefetch window
  /// is baked into the sketch config.  Throws std::invalid_argument for a
  /// configuration the runtime cannot honour and std::runtime_error for
  /// an unusable checkpoint directory.
  MonitorRuntime(const MonitorConfig& cfg, ingest::IngestBackend& backend,
                 telemetry::Registry& registry);
  ~MonitorRuntime();
  MonitorRuntime(const MonitorRuntime&) = delete;
  MonitorRuntime& operator=(const MonitorRuntime&) = delete;

  const RestoreReport& restored() const noexcept { return restored_; }

  /// Run one epoch, ingesting at most `budget` packets (~0 = until the
  /// backend ends; 0 closes an empty epoch).  Propagates
  /// control::DaemonCrash from an injected crash inside end_epoch.
  EpochResult run_epoch(std::uint64_t budget);

  /// Give queued epochs up to `timeout_ms` to reach the collector, then
  /// stop the exporter.  True when nothing is left undelivered (always,
  /// without export).
  bool shutdown(int timeout_ms);

  control::MeasurementDaemon& daemon() noexcept { return daemon_; }
  xport::EpochExporter* exporter() noexcept { return exporter_.get(); }
  shard::ShardGroup<core::NitroUnivMon>* shards() noexcept { return shards_.get(); }
  telemetry::Tracer* tracer() noexcept { return tracer_.get(); }

 private:
  void restore();

  MonitorConfig cfg_;
  control::MeasurementDaemon daemon_;
  std::unique_ptr<telemetry::Tracer> tracer_;
  std::unique_ptr<telemetry::AccuracyObserver> accuracy_;
  std::unique_ptr<control::CheckpointStore> ckpt_;
  telemetry::Counter& restore_failures_;
  RestoreReport restored_;
  std::unique_ptr<xport::EpochExporter> exporter_;
  std::unique_ptr<shard::ShardGroup<core::NitroUnivMon>> shards_;
  std::unique_ptr<switchsim::Measurement> measurement_;
  std::unique_ptr<ingest::IngestLoop> loop_;
  std::uint64_t frames_since_full_ = 0;  // delta frames since the last full base
};

}  // namespace nitro::runtime
