// nitro_monitor — command-line flow-monitoring driver.
//
// Replays a workload (generated, loaded from a .ntr trace file, or read
// from a capture) through a pluggable ingest backend into a
// NitroSketch/UnivMon measurement daemon, splits it into epochs, and
// prints per-epoch reports: heavy hitters, changed flows, entropy,
// distinct count, throughput.  The epoch loop itself — sharding,
// checkpoints, restore, export — is runtime::MonitorRuntime; this file
// parses arguments and prints.
//
// With --stats-out the full telemetry registry (sampling-probability
// timeline, shard/checkpoint/export counters, sampled update cycle
// histogram) is snapshotted to a file in Prometheus text exposition or
// JSON format.
//
// With --workers N (N >= 2) the data plane is sharded: N NitroUnivMon
// instances run on their own worker threads behind per-worker SPSC rings,
// packets are dispatched by flow hash (RSS-style), and at each epoch
// boundary the quiesced shards are merged into the daemon's data plane
// before task estimation — the merged report is a coherent global view.
//
// Usage:
//   nitro_monitor [--workload caida|dc|ddos|64b|uniform] [--trace FILE]
//                 [--packets N] [--flows N] [--epochs N]
//                 [--mode fixed|linerate|correct|vanilla] [--p PROB]
//                 [--hh-threshold FRAC] [--top N] [--seed N]
//                 [--save-trace FILE] [--workers N]
//                 [--burst N] [--ingest synth|shim|pcap:FILE]
//                 [--replay-loop N] [--paced]
//                 [--stats-out FILE] [--stats-format prom|json]
//                 [--stats-interval N]
//
// --burst N sets the ingest poll batch (default 32): parsed keys reach
// the sketch in bursts of N through its update_burst fast path; --burst 1
// forces the scalar per-packet path.
//
// --ingest picks the zero-copy ingest backend driving the
// run-to-completion loop (DESIGN.md §14): `synth` (the default) replays
// the generated or loaded trace in memory, `pcap:FILE` mmap-replays a
// capture (pcap or NTR1, by magic) with zero per-packet copies, and
// `shim` runs the AF_XDP-style burst-RX ring over hugepage frames.
// --replay-loop walks the source N times; --paced replays a capture at
// its own timestamp spacing.
//
// Examples:
//   nitro_monitor --workload caida --packets 4000000 --epochs 4 --p 0.01
//   nitro_monitor --trace capture.ntr --mode correct
//   nitro_monitor --ingest pcap:capture.pcap --epochs 4
//   nitro_monitor --workload caida --packets 2000000 --workers 4
//   nitro_monitor --workload caida --packets 1000000 --mode linerate
//                 --stats-out stats.json --stats-format json
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>

#include "export/transport.hpp"
#include "ingest/factory.hpp"
#include "runtime/monitor_runtime.hpp"
#include "switchsim/packet.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"
#include "trace/trace_io.hpp"
#include "trace/workloads.hpp"

namespace {

/// nitro_monitor's sketch shape and defaults for the epoch loop.
nitro::runtime::MonitorConfig monitor_defaults() {
  nitro::runtime::MonitorConfig cfg;
  cfg.univmon.levels = 16;
  cfg.univmon.depth = 5;
  cfg.univmon.top_width = 10000;
  cfg.univmon.heap_capacity = 1000;
  cfg.nitro.probability = 0.01;
  return cfg;
}

struct Options {
  std::string workload = "caida";
  std::string trace_file;
  std::string save_trace;
  std::uint64_t packets = 2'000'000;
  std::uint64_t flows = 100'000;
  int epochs = 2;
  int top = 10;
  std::string ingest = "synth";  // synth | shim | pcap:FILE
  int replay_loop = 1;
  bool paced = false;
  std::string stats_out;
  std::string stats_format = "json";
  int stats_interval = 1;
  bool require_restore = false;  // exit nonzero when nothing restorable
  std::string export_to;  // tcp:HOST:PORT or unix:PATH (empty = no export)
  std::string trace_out;  // Chrome/Perfetto trace JSON (empty = no tracing)
  /// What the epoch loop runs with; the remaining flags write straight
  /// into it.  Adversarial hardening (DESIGN.md §16): rotation is on when
  /// --rotate-epochs > 0, and the master key keys every generation's seed
  /// derivation (generation 0 included), so both must match the collector's.
  nitro::runtime::MonitorConfig run = monitor_defaults();
};

nitro::core::Mode mode_of(const std::string& name) {
  using nitro::core::Mode;
  if (name == "fixed") return Mode::kFixedRate;
  if (name == "linerate") return Mode::kAlwaysLineRate;
  if (name == "correct") return Mode::kAlwaysCorrect;
  if (name == "vanilla") return Mode::kVanilla;
  std::fprintf(stderr, "unknown mode '%s', using fixed\n", name.c_str());
  return Mode::kFixedRate;
}

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--workload caida|dc|ddos|64b|uniform] [--trace FILE]\n"
               "          [--packets N] [--flows N] [--epochs N]\n"
               "          [--mode fixed|linerate|correct|vanilla] [--p PROB]\n"
               "          [--hh-threshold FRAC] [--top N] [--seed N]\n"
               "          [--save-trace FILE] [--workers N]\n"
               "          [--burst N] [--ingest synth|shim|pcap:FILE]\n"
               "          [--replay-loop N] [--paced]\n"
               "          [--stats-out FILE] [--stats-format prom|json]\n"
               "          [--stats-interval N] [--checkpoint-dir DIR]\n"
               "          [--checkpoint-full-every N] [--require-restore]\n"
               "          [--recover-from-collector]\n"
               "          [--export-to tcp:HOST:PORT|unix:PATH] [--source-id N]\n"
               "          [--trace-out FILE] [--accuracy-sample N]\n"
               "          [--master-key HEX] [--rotate-epochs N]\n"
               "          [--heap-margin N] [--valve] [--valve-threshold FRAC]\n"
               "          [--collision-alarm X] [--eviction-alarm N]\n",
               argv0);
}

bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        return nullptr;
      }
      return argv[++i];
    };
    const char* v = nullptr;
    if (arg == "--workload") {
      if (!(v = next())) return false;
      opt.workload = v;
    } else if (arg == "--trace") {
      if (!(v = next())) return false;
      opt.trace_file = v;
    } else if (arg == "--save-trace") {
      if (!(v = next())) return false;
      opt.save_trace = v;
    } else if (arg == "--packets") {
      if (!(v = next())) return false;
      opt.packets = std::strtoull(v, nullptr, 10);
    } else if (arg == "--flows") {
      if (!(v = next())) return false;
      opt.flows = std::strtoull(v, nullptr, 10);
    } else if (arg == "--epochs") {
      if (!(v = next())) return false;
      opt.epochs = std::atoi(v);
    } else if (arg == "--mode") {
      if (!(v = next())) return false;
      opt.run.nitro.mode = mode_of(v);
    } else if (arg == "--p") {
      if (!(v = next())) return false;
      opt.run.nitro.probability = std::atof(v);
    } else if (arg == "--hh-threshold") {
      if (!(v = next())) return false;
      opt.run.tasks.hh_fraction = opt.run.tasks.change_fraction = std::atof(v);
    } else if (arg == "--top") {
      if (!(v = next())) return false;
      opt.top = std::atoi(v);
    } else if (arg == "--seed") {
      if (!(v = next())) return false;
      opt.run.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--workers") {
      if (!(v = next())) return false;
      const int workers = std::atoi(v);
      if (workers < 1) {
        std::fprintf(stderr, "--workers must be >= 1\n");
        return false;
      }
      opt.run.workers = static_cast<std::uint32_t>(workers);
    } else if (arg == "--burst") {
      if (!(v = next())) return false;
      const int burst = std::atoi(v);
      if (burst < 1) {
        std::fprintf(stderr, "--burst must be >= 1\n");
        return false;
      }
      opt.run.burst = static_cast<std::size_t>(burst);
    } else if (arg == "--ingest") {
      if (!(v = next())) return false;
      opt.ingest = v;
    } else if (arg == "--replay-loop") {
      if (!(v = next())) return false;
      opt.replay_loop = std::atoi(v);
      if (opt.replay_loop < 1) {
        std::fprintf(stderr, "--replay-loop must be >= 1\n");
        return false;
      }
    } else if (arg == "--paced") {
      opt.paced = true;
    } else if (arg == "--stats-out") {
      if (!(v = next())) return false;
      opt.stats_out = v;
    } else if (arg == "--stats-format") {
      if (!(v = next())) return false;
      opt.stats_format = v;
      if (opt.stats_format != "prom" && opt.stats_format != "json") {
        std::fprintf(stderr, "unknown stats format '%s' (want prom|json)\n", v);
        return false;
      }
    } else if (arg == "--stats-interval") {
      if (!(v = next())) return false;
      opt.stats_interval = std::atoi(v);
      if (opt.stats_interval < 1) opt.stats_interval = 1;
    } else if (arg == "--checkpoint-dir") {
      if (!(v = next())) return false;
      opt.run.checkpoint_dir = v;
    } else if (arg == "--checkpoint-full-every") {
      if (!(v = next())) return false;
      const int full_every = std::atoi(v);
      if (full_every < 1) {
        std::fprintf(stderr, "--checkpoint-full-every must be >= 1\n");
        return false;
      }
      opt.run.checkpoint_full_every = static_cast<std::uint64_t>(full_every);
    } else if (arg == "--require-restore") {
      opt.require_restore = true;
    } else if (arg == "--recover-from-collector") {
      opt.run.recover_from_collector = true;
    } else if (arg == "--export-to") {
      if (!(v = next())) return false;
      opt.export_to = v;
    } else if (arg == "--source-id") {
      if (!(v = next())) return false;
      opt.run.source_id = std::strtoull(v, nullptr, 10);
      if (opt.run.source_id == 0) {
        std::fprintf(stderr, "--source-id must be >= 1\n");
        return false;
      }
    } else if (arg == "--trace-out") {
      if (!(v = next())) return false;
      opt.trace_out = v;
      opt.run.trace = true;
    } else if (arg == "--accuracy-sample") {
      if (!(v = next())) return false;
      const int sample = std::atoi(v);
      opt.run.accuracy_sample = sample < 0 ? 0 : static_cast<std::size_t>(sample);
    } else if (arg == "--master-key") {
      if (!(v = next())) return false;
      opt.run.master_key = std::strtoull(v, nullptr, 16);
    } else if (arg == "--rotate-epochs") {
      if (!(v = next())) return false;
      opt.run.rotate_epochs = std::strtoull(v, nullptr, 10);
    } else if (arg == "--heap-margin") {
      if (!(v = next())) return false;
      opt.run.univmon.heap_margin = std::strtoll(v, nullptr, 10);
      if (opt.run.univmon.heap_margin < 0) {
        std::fprintf(stderr, "--heap-margin must be >= 0\n");
        return false;
      }
    } else if (arg == "--valve") {
      // Churn admission valve (DESIGN.md §16): when a window's unique-flow
      // fraction crosses the threshold, the shard escalates the same
      // degrade ladder ring overflow uses instead of melting down.
      opt.run.shard.valve.enabled = true;
    } else if (arg == "--valve-threshold") {
      if (!(v = next())) return false;
      const double threshold = std::atof(v);
      if (threshold <= 0.0 || threshold > 1.0) {
        std::fprintf(stderr, "--valve-threshold must be in (0, 1]\n");
        return false;
      }
      opt.run.shard.valve.new_flow_threshold = threshold;
    } else if (arg == "--collision-alarm") {
      if (!(v = next())) return false;
      opt.run.tasks.collision_alarm_threshold = std::atof(v);
    } else if (arg == "--eviction-alarm") {
      if (!(v = next())) return false;
      opt.run.tasks.eviction_alarm_threshold = std::strtoull(v, nullptr, 10);
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return false;
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      usage(argv[0]);
      return false;
    }
  }
  return true;
}

void write_stats(const Options& opt, nitro::telemetry::Registry& registry) {
  const std::string text = opt.stats_format == "prom"
                               ? nitro::telemetry::to_prometheus(registry)
                               : nitro::telemetry::to_json(registry);
  if (!nitro::telemetry::write_file(opt.stats_out, text)) {
    std::fprintf(stderr, "failed to write %s\n", opt.stats_out.c_str());
  }
}

}  // namespace


int main(int argc, char** argv) {
  using namespace nitro;

  Options opt;
  if (!parse_args(argc, argv, opt)) return 2;

  std::optional<xport::Endpoint> export_ep;
  if (!opt.export_to.empty()) {
    export_ep = xport::parse_endpoint(opt.export_to);
    if (!export_ep) {
      std::fprintf(stderr,
                   "bad --export-to spec '%s' (want tcp:HOST:PORT or unix:PATH)\n",
                   opt.export_to.c_str());
      return 2;
    }
  }

  // A capture replays itself; only the synth and shim backends replay the
  // generated or loaded trace.
  const bool capture =
      opt.ingest.rfind("pcap:", 0) == 0 || opt.ingest.rfind("file:", 0) == 0;
  trace::Trace stream;
  if (!opt.trace_file.empty()) {
    std::printf("loading trace %s...\n", opt.trace_file.c_str());
    stream = trace::load_trace(opt.trace_file);
  } else if (!capture) {
    trace::WorkloadSpec spec;
    spec.packets = opt.packets;
    spec.flows = opt.flows;
    spec.seed = opt.run.seed;
    std::printf("generating %s workload: %llu packets, %llu flows...\n",
                opt.workload.c_str(), static_cast<unsigned long long>(spec.packets),
                static_cast<unsigned long long>(spec.flows));
    stream = trace::by_name(opt.workload, spec);
  }
  if (!opt.save_trace.empty()) {
    trace::save_trace(opt.save_trace, stream);
    std::printf("saved trace to %s\n", opt.save_trace.c_str());
  }

  // The backend is built before the runtime so its preferred prefetch
  // distance can be baked into the sketch config.  (The shim's producer
  // thread starts here; it parks on its bounded rings until the epoch
  // loop begins draining.)
  std::unique_ptr<ingest::IngestBackend> backend;
  ingest::BackendOptions bopts;
  bopts.replay_loop = static_cast<std::uint32_t>(opt.replay_loop);
  bopts.paced = opt.paced;
  try {
    backend = ingest::make_backend(opt.ingest, stream, bopts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ingest: %s\n", e.what());
    return 2;
  }
  const std::uint64_t total = backend->size_hint();
  if (total == 0 || opt.epochs < 1) {
    std::fprintf(stderr, "nothing to do\n");
    return 2;
  }
  std::printf("ingest backend: %s (%llu packets expected)\n", backend->name(),
              static_cast<unsigned long long>(total));

  if (export_ep) {
    xport::ExporterConfig ecfg;
    ecfg.endpoint = *export_ep;
    opt.run.exporter = ecfg;
  }

  telemetry::Registry registry;
  std::unique_ptr<runtime::MonitorRuntime> rt;
  try {
    rt = std::make_unique<runtime::MonitorRuntime>(opt.run, *backend, registry);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  if (opt.run.rotate_epochs > 0) {
    std::printf("seed rotation: every %llu epoch(s), keyed derivation\n",
                static_cast<unsigned long long>(opt.run.rotate_epochs));
  }

  const runtime::RestoreReport& restored = rt->restored();
  for (const auto& w : restored.warnings) std::fprintf(stderr, "%s\n", w.c_str());
  if (restored.source == runtime::RestoreSource::kChain) {
    std::printf("checkpoint: restored epoch %llu from chain (base %llu + %zu delta(s))\n",
                static_cast<unsigned long long>(rt->daemon().epoch()),
                static_cast<unsigned long long>(restored.chain_base_seq),
                restored.deltas_applied);
  } else if (restored.source == runtime::RestoreSource::kCollector) {
    std::printf("recover: seeded from collector replica (epochs %llu..%llu,"
                " seq settled at %llu)\n",
                static_cast<unsigned long long>(restored.replica_span.first),
                static_cast<unsigned long long>(restored.replica_span.last),
                static_cast<unsigned long long>(restored.settled_seq));
  } else if (opt.require_restore) {
    std::fprintf(stderr,
                 "--require-restore: no checkpoint or collector state could "
                 "be restored\n");
    return 3;
  }
  if (export_ep) {
    std::printf("exporting epochs to %s as source %llu\n",
                export_ep->to_string().c_str(),
                static_cast<unsigned long long>(opt.run.source_id));
  }
  if (opt.run.workers > 1) {
    std::printf("sharded data plane: %u workers, flow-hash dispatch\n",
                opt.run.workers);
    if (opt.run.shard.valve.enabled) {
      std::printf("admission valve: on (new-flow fraction > %.2f trips)\n",
                  opt.run.shard.valve.new_flow_threshold);
    }
  }

  const std::uint64_t per_epoch = total / static_cast<std::uint64_t>(opt.epochs);
  for (int e = 0; e < opt.epochs; ++e) {
    // The final epoch runs to backend EOF (covers size hints that
    // undercount, e.g. pcap parse-error skips).
    const auto result = rt->run_epoch(e == opt.epochs - 1 ? ~0ull : per_epoch);
    for (const auto& w : result.warnings) std::fprintf(stderr, "%s\n", w.c_str());
    const auto& report = result.report;

    std::printf("\n=== epoch %llu: %lld packets in %.2fs (%.2f Mpps) ===\n",
                static_cast<unsigned long long>(report.epoch),
                static_cast<long long>(report.packets), result.ingest_seconds,
                static_cast<double>(report.packets) / result.ingest_seconds / 1e6);
    std::printf("entropy %.3f bits | distinct ~%.0f flows | %zu heavy hitters |"
                " %zu changed flows\n",
                report.entropy, report.distinct, report.heavy_hitters.size(),
                report.changed_flows.size());
    if (opt.run.accuracy_sample > 0 && report.accuracy.tracked_flows > 0) {
      const auto& a = report.accuracy;
      std::printf("accuracy: %zu tracked | mean err %.1f | max err %.1f |"
                  " bound %.1f (x%.2f degrade) | %s\n",
                  a.tracked_flows, a.mean_abs_error, a.max_abs_error, a.bound,
                  a.inflation, a.within_bound ? "WITHIN BOUND" : "BOUND EXCEEDED");
    }
    int shown = 0;
    for (const auto& h : report.heavy_hitters) {
      std::printf("  HH  %-44s %10lld\n", to_string(h.key).c_str(),
                  static_cast<long long>(h.estimate));
      if (++shown >= opt.top) break;
    }
    shown = 0;
    for (const auto& c : report.changed_flows) {
      std::printf("  CHG %-44s %+10lld\n", to_string(c.key).c_str(),
                  static_cast<long long>(c.estimate));
      if (++shown >= opt.top) break;
    }

    if (!opt.stats_out.empty() &&
        ((e + 1) % opt.stats_interval == 0 || e == opt.epochs - 1)) {
      write_stats(opt, registry);
    }
  }

  if (xport::EpochExporter* exporter = rt->exporter()) {
    // Give in-flight epochs a chance to reach the collector before exit;
    // an unreachable collector must not wedge the monitor.
    if (!rt->shutdown(10'000)) {
      std::fprintf(stderr,
                   "export: %zu epoch message(s) undelivered at shutdown\n",
                   exporter->queue_depth());
    }
    std::printf("export: %llu epoch(s) acknowledged by the collector\n",
                static_cast<unsigned long long>(exporter->epochs_acked()));
    if (!opt.stats_out.empty()) write_stats(opt, registry);
  }

  if (!opt.stats_out.empty()) {
    std::printf("\ntelemetry snapshot (%s) written to %s\n",
                opt.stats_format.c_str(), opt.stats_out.c_str());
  }

  if (telemetry::Tracer* tracer = rt->tracer()) {
    telemetry::uninstall_tracer();
    const std::string json = telemetry::to_chrome_json(*tracer, "nitro_monitor");
    if (telemetry::write_file(opt.trace_out, json)) {
      std::printf("trace: %llu span(s) written to %s (load in ui.perfetto.dev"
                  " or chrome://tracing)\n",
                  static_cast<unsigned long long>(tracer->total_recorded()),
                  opt.trace_out.c_str());
    } else {
      std::fprintf(stderr, "trace: failed to write %s\n", opt.trace_out.c_str());
    }
  }
  return 0;
}
