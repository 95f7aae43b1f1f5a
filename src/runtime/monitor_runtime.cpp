#include "runtime/monitor_runtime.hpp"

#include <span>
#include <stdexcept>
#include <utility>

#include "common/hash.hpp"
#include "common/timing.hpp"
#include "export/recovery.hpp"

namespace nitro::runtime {

namespace {

/// Chain name of the daemon's checkpoint frames in the checkpoint dir.
constexpr const char* kChainName = "daemon";

/// Inline data plane: the ingest thread updates the daemon's sketch.
class DaemonMeasurement final : public switchsim::Measurement {
 public:
  explicit DaemonMeasurement(control::MeasurementDaemon& daemon) : daemon_(daemon) {}

  void on_packet(const FlowKey& key, std::uint16_t, std::uint64_t ts_ns) override {
    daemon_.on_packet(key, ts_ns);
  }

  void on_burst(const FlowKey* keys, const std::uint16_t*, std::size_t n,
                std::uint64_t ts_ns) override {
    daemon_.on_burst(std::span<const FlowKey>(keys, n), ts_ns);
  }

 private:
  control::MeasurementDaemon& daemon_;
};

/// Sharded data plane: the ingest thread dispatches into the shard
/// group's rings; finish() is the per-epoch drain barrier.  `accuracy`
/// (may be null) is fed here — the only place that still sees every
/// packet — so its exact reservoir matches the post-merge global sketch.
class ShardedMeasurement final : public switchsim::Measurement {
 public:
  ShardedMeasurement(shard::ShardGroup<core::NitroUnivMon>& group,
                     telemetry::AccuracyObserver* accuracy)
      : group_(group), accuracy_(accuracy) {}

  void on_packet(const FlowKey& key, std::uint16_t, std::uint64_t ts_ns) override {
    group_.update(key, 1, ts_ns);
    if (accuracy_ != nullptr) accuracy_->observe(key);
  }

  void on_burst(const FlowKey* keys, const std::uint16_t*, std::size_t n,
                std::uint64_t ts_ns) override {
    group_.update_burst(std::span<const FlowKey>(keys, n), 1, ts_ns);
    if (accuracy_ != nullptr) {
      accuracy_->observe_burst(std::span<const FlowKey>(keys, n));
    }
  }

  void finish() override { group_.drain(); }

 private:
  shard::ShardGroup<core::NitroUnivMon>& group_;
  telemetry::AccuracyObserver* accuracy_;
};

/// Reject what the runtime cannot honour, and bake the backend's
/// preferred prefetch distance into the sketch config.
MonitorConfig checked(const MonitorConfig& cfg, const ingest::IngestBackend& backend) {
  if (cfg.rotate_epochs > 0 && cfg.workers > 1) {
    // Shard instances hold one fixed UnivMon seed for the run; merging
    // them into a daemon whose seed rotates per generation would cross
    // hash functions.
    throw std::invalid_argument(
        "--rotate-epochs is not yet supported with --workers > 1");
  }
  if (cfg.recover_from_collector && !cfg.exporter) {
    throw std::invalid_argument("--recover-from-collector needs a valid --export-to");
  }
  MonitorConfig out = cfg;
  out.nitro.prefetch_window = backend.preferred_prefetch_window();
  return out;
}

}  // namespace

MonitorRuntime::MonitorRuntime(const MonitorConfig& cfg,
                               ingest::IngestBackend& backend,
                               telemetry::Registry& registry)
    : cfg_(checked(cfg, backend)),
      daemon_(cfg_.univmon, cfg_.nitro, cfg_.tasks, cfg_.seed),
      restore_failures_(registry.counter(
          "nitro_checkpoint_restore_failures_total",
          "checkpoint frames or restore attempts rejected at startup")) {
  if (cfg_.rotate_epochs > 0) {
    // Keyed epoch-boundary seed rotation (DESIGN.md §16): on the fresh
    // daemon, before any restore — checkpoint frames are generation-tagged
    // and validated against this schedule.
    daemon_.enable_seed_rotation(cfg_.master_key, cfg_.rotate_epochs);
  }
  daemon_.attach_telemetry(registry);

  // Online accuracy observer: exact-count a hash sample of flows and
  // compare against the sketch each epoch.
  if (cfg_.accuracy_sample > 0) {
    accuracy_ = std::make_unique<telemetry::AccuracyObserver>(
        cfg_.nitro.epsilon, /*sample_bits=*/6, cfg_.accuracy_sample);
    accuracy_->attach_telemetry(registry, "nitro_univmon");
    daemon_.set_accuracy_observer(accuracy_.get());
  }

  if (!cfg_.checkpoint_dir.empty()) {
    ckpt_ = std::make_unique<control::CheckpointStore>(cfg_.checkpoint_dir);
    ckpt_->attach_telemetry(registry, "nitro_checkpoint");
    daemon_.enable_delta_checkpoints();
  }
  restore();
  registry
      .gauge("nitro_checkpoint_restore_source",
             "what seeded the daemon: 0 nothing, 3 checkpoint chain, "
             "4 collector replica")
      .set(static_cast<double>(restored_.source));

  // Resilient epoch export: every closed epoch's snapshot streams to the
  // collector without ever blocking the epoch loop or dropping an epoch.
  if (cfg_.exporter) {
    xport::ExporterConfig ecfg = *cfg_.exporter;
    ecfg.source_id = cfg_.source_id;
    // Backlog coalescing follows the daemon's seed schedule: frames of
    // different generations hash differently and are never merged (with
    // rotation off every generation derives the base seed).
    exporter_ = std::make_unique<xport::EpochExporter>(
        ecfg, xport::univmon_coalescer(cfg_.univmon, daemon_.seed_schedule()));
    exporter_->attach_telemetry(registry, "nitro_export");
    if (restored_.source == RestoreSource::kCollector) {
      // Resume after the collector's settled sequence number so the
      // rejoin never redelivers an already-applied epoch.
      exporter_->set_next_seq(restored_.settled_seq + 1);
    } else if (restored_.source == RestoreSource::kChain) {
      // Epochs 0..epoch()-1 already went out as seqs 1..epoch(), so the
      // re-closed current epoch goes out as seq epoch()+1 — the collector
      // settles it as a duplicate if the crashed process delivered it.
      exporter_->set_next_seq(daemon_.epoch() + 1);
    }
    exporter_->start();
    daemon_.set_export_sink([this](control::ExportedEpoch&& e) {
      exporter_->publish(e.span, e.packets, std::move(e.snapshot), e.close_ns,
                         e.seed_gen);
    });
  }

  // Shards last: their workers spin from birth.
  if (cfg_.workers > 1) {
    shards_ = std::make_unique<shard::ShardGroup<core::NitroUnivMon>>(
        cfg_.workers,
        [this](std::uint32_t i) {
          // Same UnivMon seed everywhere (mergeable counters); decorrelated
          // per-shard sampler seeds.
          core::NitroConfig shard_cfg = cfg_.nitro;
          shard_cfg.seed = mix64(cfg_.nitro.seed ^ (0x9e3779b97f4a7c15ULL * (i + 1)));
          return core::NitroUnivMon(cfg_.univmon, shard_cfg, cfg_.seed);
        },
        cfg_.shard);
    shards_->attach_telemetry(registry, "nitro_shard");
    measurement_ = std::make_unique<ShardedMeasurement>(*shards_, accuracy_.get());
  } else {
    measurement_ = std::make_unique<DaemonMeasurement>(daemon_);
  }
  loop_ = std::make_unique<ingest::IngestLoop>(backend, *measurement_, cfg_.burst);

  // Span tracing: a process-wide tracer every lifecycle site (ingest,
  // burst flush, shard drain/merge, snapshot, checkpoint, export enqueue,
  // wire send) records into.  Installed last, so a constructor that
  // throws never leaves the process pointing at a destroyed tracer.
  if (cfg_.trace) {
    tracer_ = std::make_unique<telemetry::Tracer>();
    tracer_->attach_telemetry(registry, "nitro_trace");
    tracer_->set_context(cfg_.source_id, daemon_.epoch());
    telemetry::install_tracer(tracer_.get());
  }
}

MonitorRuntime::~MonitorRuntime() {
  if (tracer_ && telemetry::tracer() == tracer_.get()) telemetry::uninstall_tracer();
}

// The restore ladder (DESIGN.md §15): the delta-checkpoint chain (newest
// valid full base + contiguous deltas, torn/corrupt tail frames skipped),
// then — with recover_from_collector — a rebuild from the collector's
// replica over the wire.  Corruption is reported, never silently loaded.
void MonitorRuntime::restore() {
  auto reject = [this](std::string why) {
    restore_failures_.inc();
    restored_.warnings.push_back(std::move(why));
  };

  if (ckpt_) {
    const auto chain = ckpt_->load_chain(kChainName);
    if (chain.frames_rejected > 0) {
      restore_failures_.inc(chain.frames_rejected);
      restored_.warnings.push_back(
          "checkpoint: " + std::to_string(chain.frames_rejected) +
          " torn/corrupt chain frame(s) rejected (" + chain.error + ")");
    }
    if (chain.found) {
      try {
        daemon_.restore_checkpoint(chain.base);
        restored_.source = RestoreSource::kChain;
        restored_.chain_base_seq = chain.base_gen;
      } catch (const std::exception& e) {
        reject(std::string("checkpoint: chain base restore FAILED (") + e.what() + ")");
      }
    }
    if (restored_.source == RestoreSource::kChain) {
      for (const auto& d : chain.deltas) {
        try {
          daemon_.apply_delta_checkpoint(d);
          ++restored_.deltas_applied;
        } catch (const std::exception& e) {
          // The earlier frames already restored a consistent state; keep
          // it and drop the rest of the chain.
          reject(std::string("checkpoint: delta frame rejected (") + e.what() +
                 "); keeping the state restored so far");
          break;
        }
      }
    }
  }

  // Rebuild-from-collector: with no usable local state, seed from the
  // collector's last-applied replica and resume after its settled seq —
  // the merged view never double-counts.
  if (restored_.source == RestoreSource::kNone && cfg_.recover_from_collector) {
    const auto rec = xport::request_recovery(cfg_.exporter->endpoint, cfg_.source_id,
                                             /*timeout_ms=*/2000, /*attempts=*/4);
    if (!rec.ok) {
      reject("recover: " + rec.error);
    } else if (!rec.resp.found) {
      restored_.warnings.push_back("recover: collector has no state for source " +
                                   std::to_string(cfg_.source_id) +
                                   "; starting fresh");
    } else {
      try {
        daemon_.seed_from_recovery(rec.resp.span.last + 1, rec.resp.snapshot,
                                   rec.resp.packets, rec.resp.seed_gen);
        restored_.source = RestoreSource::kCollector;
        restored_.replica_span = rec.resp.span;
        restored_.settled_seq = rec.resp.last_seq;
      } catch (const std::exception& e) {
        reject(std::string("recover: replica rejected (") + e.what() + ")");
      }
    }
  }
}

EpochResult MonitorRuntime::run_epoch(std::uint64_t budget) {
  EpochResult out;
  // Ambient trace keys for this epoch: deep sites (burst flush, shard
  // drain, snapshot, checkpoint) pick them up without plumbing.
  if (telemetry::Tracer* t = telemetry::tracer()) {
    t->set_context(cfg_.source_id, daemon_.epoch());
  }
  {
    telemetry::ScopedSpan ingest_span(telemetry::Stage::kIngest, cfg_.source_id,
                                      daemon_.epoch());
    WallTimer timer;
    loop_->run(budget);
    measurement_->finish();
    out.ingest_seconds = timer.seconds();
  }

  if (shards_) {
    telemetry::ScopedSpan merge_span(telemetry::Stage::kShardMerge, cfg_.source_id,
                                     daemon_.epoch());
    // The drain barrier left the shards quiescent: merge every live one
    // into the daemon's idle data plane and reset it for the next epoch,
    // so task estimation runs on the coherent merged view.  Quarantined
    // shards (dead or wedged workers caught by the drain watchdog) are
    // excluded — the report covers the survivors.
    for (std::uint32_t s = 0; s < shards_->workers(); ++s) {
      if (shards_->quarantined(s)) {
        out.warnings.push_back("shard " + std::to_string(s) + " QUARANTINED (worker " +
                               (shards_->worker_alive(s) ? "wedged" : "dead") +
                               "); excluded from merge");
        continue;
      }
      daemon_.data_plane_mut().merge_from(shards_->instance(s));
      shards_->instance(s).clear();
    }
    shards_->reset_degradation();
    daemon_.publish_telemetry();
  }

  if (ckpt_) {
    // A full base every checkpoint_full_every frames, or whenever the
    // dirty state cannot be expressed as a delta; run-length deltas of
    // the touched segments between.
    const bool want_full =
        !daemon_.delta_ready() || frames_since_full_ >= cfg_.checkpoint_full_every;
    const auto saved = ckpt_->save_frame(
        kChainName, want_full,
        want_full ? daemon_.checkpoint_bytes() : daemon_.delta_checkpoint_bytes());
    if (saved.ok) {
      daemon_.cut_checkpoint_frame();
      frames_since_full_ = want_full ? 1 : frames_since_full_ + 1;
    } else {
      out.warnings.push_back("checkpoint: save FAILED for epoch " +
                             std::to_string(daemon_.epoch()));
    }
  }

  out.report = daemon_.end_epoch();
  return out;
}

bool MonitorRuntime::shutdown(int timeout_ms) {
  if (!exporter_) return true;
  const bool delivered = exporter_->flush(timeout_ms);
  exporter_->stop();
  return delivered;
}

}  // namespace nitro::runtime
