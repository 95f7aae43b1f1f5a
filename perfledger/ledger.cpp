// ledger — the benchmark's measured process.
//
// Drives the path tools/nitro_monitor.cpp ships, with the same library
// calls in the same order as its epoch loop: an mmap replay backend feeds
// an IngestLoop into the data plane (inline daemon or a ShardGroup), and
// every epoch boundary drains, merges, saves a checkpoint frame, closes
// the epoch and exports it over a unix socket to an in-process collector.
// A dashboard thread reads the collector through QueryServer::handle.
//
// Epochs run open loop: each starts on a fixed cadence (or at once when
// the previous one overran), so the collector never builds a backlog.
// The first pass over the input is a synchronous calibration pass (each
// epoch waits for the dashboard); its reports are scored against the
// generator's exact ground truth.  Open-loop warm-up passes follow until
// the data plane's parallelism settles, then timed passes run for
// --seconds.  Between epochs the ingest thread busy-polls, as a DPDK
// run-to-completion loop polls an empty rx queue, so its core stays warm.
// With --trace 1, timed passes alternate between traced (forwarding
// decorators and timers around every layer call) and untraced, and the
// per-layer metrics are reported instead.
//
// Usage:
//   ledger --workload NAME --input FILE --truth FILE --work DIR
//          --seconds S --trace 0|1 [--dump CSV]
//
// --dump writes the run's spans as one CSV row per epoch: steady-clock
// timestamps and, on traced epochs, the summed time of each layer call
// (ns).
//
// Prints one JSON object on its last line: metrics, checks, diagnostics.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/backoff.hpp"
#include "common/hash.hpp"
#include "common/simd_hash.hpp"
#include "control/checkpoint.hpp"
#include "control/codec.hpp"
#include "control/daemon.hpp"
#include "export/collector.hpp"
#include "export/exporter.hpp"
#include "export/query_server.hpp"
#include "export/wire.hpp"
#include "ingest/factory.hpp"
#include "ingest/ingest_loop.hpp"
#include "shard/shard_group.hpp"
#include "switchsim/measurement.hpp"
#include "telemetry/telemetry.hpp"
#include "workloads.hpp"

namespace {

using namespace nitro;
using perfledger::kBurst;
using perfledger::kFullEvery;
using perfledger::kHhFraction;
using perfledger::WorkloadDef;

constexpr std::uint64_t kSketchSeed = 1;       // nitro_monitor's default --seed
constexpr std::uint64_t kSourceId = 1;
constexpr std::size_t kMaxEpochs = 1 << 16;
constexpr std::uint64_t kMs = 1'000'000;
constexpr std::size_t kMinTimedEpochs = 110;  // p90s pool >= 100 samples
constexpr int kSetupReps = 31;                // setup_s is their median

// ---------------------------------------------------------------- clocks

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t process_cpu_ns() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto ns = [](const timeval& tv) {
    return static_cast<std::uint64_t>(tv.tv_sec) * 1'000'000'000ULL +
           static_cast<std::uint64_t>(tv.tv_usec) * 1000ULL;
  };
  return ns(ru.ru_utime) + ns(ru.ru_stime);
}

std::set<int> task_ids() {
  std::set<int> out;
  for (const auto& e : std::filesystem::directory_iterator("/proc/self/task")) {
    out.insert(std::atoi(e.path().filename().c_str()));
  }
  return out;
}

/// DPDK-style core placement, used when the host has a core to spare:
/// the epoch-loop (ingest) thread and each shard worker get a CPU of their
/// own, and every other thread (exporter, collector, dashboard) shares
/// the rest.  Threads those create later inherit the shared set.
bool pin_threads(const std::vector<int>& worker_tids) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return false;
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  }
  const std::size_t dedicated = 1 + worker_tids.size();
  if (cpus.size() <= dedicated) return false;
  auto pin = [](int tid, const std::vector<int>& set) {
    cpu_set_t mask;
    CPU_ZERO(&mask);
    for (int c : set) CPU_SET(c, &mask);
    sched_setaffinity(tid, sizeof mask, &mask);
  };
  const std::vector<int> shared(cpus.begin(), cpus.end() - static_cast<long>(dedicated));
  const int self = static_cast<int>(gettid());
  for (int tid : task_ids()) {
    const auto w = std::find(worker_tids.begin(), worker_tids.end(), tid);
    if (tid == self) {
      pin(tid, {cpus.back()});
    } else if (w != worker_tids.end()) {
      pin(tid, {cpus[cpus.size() - 2 - static_cast<std::size_t>(w - worker_tids.begin())]});
    } else {
      pin(tid, shared);
    }
  }
  return true;
}

/// Bytes the program holds on the heap (arenas plus mmapped chunks),
/// without what the allocator keeps cached for reuse.
double heap_mb() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd) / (1024.0 * 1024.0);
}

long status_kb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t n = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, n, field) == 0 && line.size() > n && line[n] == ':') {
      return std::atol(line.c_str() + n + 1);
    }
  }
  return -1;
}

// ------------------------------------------------------------ statistics

/// Linear-interpolation quantile (numpy's default); NaN when empty.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return std::nan("");
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

// ---------------------------------------------------------- ground truth

struct Truth {
  struct Epoch {
    std::uint64_t packets = 0;
    double entropy = 0;
    std::unordered_map<FlowKey, std::uint64_t> hh;
  };
  std::vector<Epoch> epochs;
  std::vector<FlowKey> flow_keys;
};

FlowKey read_key(std::istream& in) {
  unsigned src, dst, sport, dport, proto;
  in >> src >> dst >> sport >> dport >> proto;
  FlowKey k;
  k.src_ip = src;
  k.dst_ip = dst;
  k.src_port = static_cast<std::uint16_t>(sport);
  k.dst_port = static_cast<std::uint16_t>(dport);
  k.proto = static_cast<std::uint8_t>(proto);
  return k;
}

Truth load_truth(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  Truth t;
  std::string word;
  std::size_t epochs = 0;
  std::uint64_t epoch_packets = 0;
  in >> word >> epochs >> word >> epoch_packets;
  for (std::size_t e = 0; e < epochs; ++e) {
    Truth::Epoch ep;
    std::size_t index = 0, hh = 0;
    in >> word >> index >> word >> ep.packets >> word >> ep.entropy >> word >> hh;
    for (std::size_t i = 0; i < hh; ++i) {
      const FlowKey k = read_key(in);
      in >> ep.hh[k];
    }
    t.epochs.push_back(std::move(ep));
  }
  std::size_t keys = 0;
  in >> word >> keys;
  for (std::size_t i = 0; i < keys; ++i) t.flow_keys.push_back(read_key(in));
  if (!in || word != "flowkeys") throw std::runtime_error("malformed " + path);
  return t;
}

// ------------------------------------------------ forwarding decorators

/// Times IngestBackend::next_burst from outside (traced passes only).
class TimedBackend final : public ingest::IngestBackend {
 public:
  explicit TimedBackend(ingest::IngestBackend& inner) : inner_(inner) {}
  std::size_t next_burst(ingest::PacketView* out, std::size_t max) override {
    const std::uint64_t t0 = now_ns();
    const std::size_t n = inner_.next_burst(out, max);
    ns += now_ns() - t0;
    bursts += n > 0;
    return n;
  }
  const char* name() const noexcept override { return inner_.name(); }
  std::uint64_t size_hint() const noexcept override { return inner_.size_hint(); }
  std::uint32_t preferred_prefetch_window() const noexcept override {
    return inner_.preferred_prefetch_window();
  }
  std::uint64_t parse_errors() const noexcept override { return inner_.parse_errors(); }

  std::uint64_t ns = 0, bursts = 0;

 private:
  ingest::IngestBackend& inner_;
};

/// Times switchsim::Measurement::on_burst (the data-plane handoff).
class TimedMeasurement final : public switchsim::Measurement {
 public:
  explicit TimedMeasurement(switchsim::Measurement& inner) : inner_(inner) {}
  void on_packet(const FlowKey& key, std::uint16_t wire, std::uint64_t ts) override {
    inner_.on_packet(key, wire, ts);
  }
  void on_burst(const FlowKey* keys, const std::uint16_t* wire, std::size_t n,
                std::uint64_t ts) override {
    const std::uint64_t t0 = now_ns();
    inner_.on_burst(keys, wire, n, ts);
    ns += now_ns() - t0;
  }
  void finish() override { inner_.finish(); }

  std::uint64_t ns = 0;

 private:
  switchsim::Measurement& inner_;
};

/// nitro_monitor's DaemonSketchAdapter; `timer` (traced passes) times the
/// MeasurementDaemon::on_burst call, i.e. the core sketch update.
struct DaemonAdapter {
  control::MeasurementDaemon* daemon = nullptr;
  std::uint64_t* timer = nullptr;
  void update(const FlowKey& key, std::int64_t, std::uint64_t ts_ns) {
    daemon->on_packet(key, ts_ns);
  }
  void update_burst(std::span<const FlowKey> keys, std::uint64_t ts_ns) {
    if (timer == nullptr) {
      daemon->on_burst(keys, ts_ns);
      return;
    }
    const std::uint64_t t0 = now_ns();
    daemon->on_burst(keys, ts_ns);
    *timer += now_ns() - t0;
  }
};

/// A shard worker's sketch, forwarding the calls ShardGroup's worker loop
/// makes.  While `timed` is set (traced epochs) it sums the time spent in
/// the sketch's update calls, so a worker's idle polling is not counted.
/// Only the control plane sets `timed` and reads `ns`, between drain()
/// and the next dispatch, as ShardGroup's threading contract allows.
struct TimedShardSketch {
  core::NitroUnivMon sketch;
  bool timed = false;
  std::uint64_t ns = 0;

  void update(const FlowKey& key, std::int64_t count, std::uint64_t ts_ns) {
    const std::uint64_t t0 = timed ? now_ns() : 0;
    sketch.update(key, count, ts_ns);
    if (timed) ns += now_ns() - t0;
  }
  void update_burst(std::span<const FlowKey> keys, std::uint64_t ts_ns) {
    const std::uint64_t t0 = timed ? now_ns() : 0;
    sketch.update_burst(keys, ts_ns);
    if (timed) ns += now_ns() - t0;
  }
  void apply_degradation(std::uint32_t level) { sketch.apply_degradation(level); }
};
using Shards = shard::ShardGroup<TimedShardSketch>;

/// nitro_monitor's ShardedDaemonMeasurement (no accuracy observer).
class ShardedMeasurement final : public switchsim::Measurement {
 public:
  explicit ShardedMeasurement(Shards& group) : group_(group) {}
  void on_packet(const FlowKey& key, std::uint16_t, std::uint64_t ts) override {
    group_.update(key, 1, ts);
  }
  void on_burst(const FlowKey* keys, const std::uint16_t*, std::size_t n,
                std::uint64_t ts) override {
    group_.update_burst(std::span<const FlowKey>(keys, n), 1, ts);
  }
  void finish() override { group_.drain(); }

 private:
  Shards& group_;
};

// ------------------------------------------------------------------ rig

sketch::UnivMonConfig univmon_config() {
  sketch::UnivMonConfig cfg;  // nitro_monitor's sketch shape
  cfg.levels = 16;
  cfg.depth = 5;
  cfg.top_width = 10000;
  cfg.heap_capacity = 1000;
  return cfg;
}

core::NitroConfig nitro_config(std::uint32_t prefetch_window) {
  core::NitroConfig cfg;
  cfg.mode = core::Mode::kFixedRate;  // deterministic sampling
  cfg.probability = 0.01;
  cfg.prefetch_window = prefetch_window;
  return cfg;
}

control::MeasurementDaemon::Tasks daemon_tasks() {
  control::MeasurementDaemon::Tasks tasks;
  tasks.hh_fraction = kHhFraction;
  tasks.change_fraction = kHhFraction;
  return tasks;
}

/// Everything set-up builds, torn down in reverse declaration order
/// (exporter before collector, registry last).
struct Rig {
  telemetry::Registry registry;
  std::unique_ptr<ingest::IngestBackend> backend;
  std::unique_ptr<control::MeasurementDaemon> daemon;
  std::unique_ptr<Shards> shards;
  std::vector<int> worker_tids;
  std::unique_ptr<control::CheckpointStore> ckpt;
  std::unique_ptr<xport::CollectorCore> collector;
  std::unique_ptr<xport::CollectorServer> server;
  std::unique_ptr<xport::QueryServer> queries;
  std::unique_ptr<xport::EpochExporter> exporter;
  DaemonAdapter adapter;
  std::unique_ptr<switchsim::Measurement> measurement;
  std::unique_ptr<TimedBackend> timed_backend;
  std::unique_ptr<TimedMeasurement> timed_measurement;
  std::unique_ptr<ingest::IngestLoop> loop;
  std::unique_ptr<ingest::IngestLoop> traced_loop;
};

std::unique_ptr<Rig> set_up(const WorkloadDef& w, const std::string& input,
                            const std::string& ckpt_dir, const std::string& sock) {
  auto rig = std::make_unique<Rig>();
  const auto um_cfg = univmon_config();

  ingest::BackendOptions bopts;
  bopts.replay_loop = 1'000'000;  // passes are cut by epoch budgets
  rig->backend = ingest::make_backend("pcap:" + input, trace::Trace{}, bopts);
  const auto nitro_cfg = nitro_config(rig->backend->preferred_prefetch_window());

  rig->daemon = std::make_unique<control::MeasurementDaemon>(um_cfg, nitro_cfg,
                                                             daemon_tasks(), kSketchSeed);
  rig->daemon->attach_telemetry(rig->registry);

  std::filesystem::remove_all(ckpt_dir);
  rig->ckpt = std::make_unique<control::CheckpointStore>(ckpt_dir);
  rig->ckpt->attach_telemetry(rig->registry, "nitro_checkpoint");
  rig->daemon->enable_delta_checkpoints();
  const auto chain = rig->ckpt->load_chain("daemon");  // startup restore scan
  if (chain.found) throw std::runtime_error("checkpoint dir was not empty");

  xport::CollectorConfig ccfg;
  ccfg.um_cfg = um_cfg;
  ccfg.seed = kSketchSeed;
  rig->collector = std::make_unique<xport::CollectorCore>(ccfg);
  std::filesystem::remove(sock);
  const auto ep = xport::parse_endpoint("unix:" + sock);
  if (!ep) throw std::runtime_error("bad socket path " + sock);
  rig->server = std::make_unique<xport::CollectorServer>(*rig->collector, *ep);
  if (!rig->server->start()) throw std::runtime_error("collector cannot listen on " + sock);
  rig->queries = std::make_unique<xport::QueryServer>(*rig->collector, *ep);

  xport::ExporterConfig ecfg;
  ecfg.endpoint = *ep;
  ecfg.source_id = kSourceId;
  rig->exporter = std::make_unique<xport::EpochExporter>(
      ecfg, xport::univmon_coalescer(um_cfg, kSketchSeed));
  rig->exporter->attach_telemetry(rig->registry, "nitro_export");
  rig->exporter->start();

  // Shards last, as in nitro_monitor: their workers spin from birth.
  if (w.workers > 0) {
    const auto before = task_ids();
    shard::ShardOptions sopts;
    sopts.overflow = shard::OverflowPolicy::kBlock;
    rig->shards = std::make_unique<Shards>(
        w.workers,
        [&](std::uint32_t i) {
          core::NitroConfig shard_cfg = nitro_cfg;
          shard_cfg.seed = mix64(nitro_cfg.seed ^ (0x9e3779b97f4a7c15ULL * (i + 1)));
          return TimedShardSketch{core::NitroUnivMon(um_cfg, shard_cfg, kSketchSeed)};
        },
        sopts);
    rig->shards->attach_telemetry(rig->registry, "nitro_shard");
    for (int tid : task_ids()) {
      if (!before.count(tid)) rig->worker_tids.push_back(tid);
    }
  }

  rig->adapter.daemon = rig->daemon.get();
  if (rig->shards) {
    rig->measurement = std::make_unique<ShardedMeasurement>(*rig->shards);
  } else {
    rig->measurement =
        std::make_unique<switchsim::InlineMeasurement<DaemonAdapter>>(rig->adapter);
  }
  rig->timed_backend = std::make_unique<TimedBackend>(*rig->backend);
  rig->timed_measurement = std::make_unique<TimedMeasurement>(*rig->measurement);
  rig->loop = std::make_unique<ingest::IngestLoop>(*rig->backend, *rig->measurement,
                                                   kBurst);
  rig->traced_loop = std::make_unique<ingest::IngestLoop>(
      *rig->timed_backend, *rig->timed_measurement, kBurst);
  return rig;
}

// ------------------------------------------------------------ recording

/// One epoch as the epoch-loop thread saw it.  Layer timings are filled
/// only on traced epochs.
struct EpochRec {
  int pass = 0;
  bool timed = false;
  bool traced = false;
  std::uint64_t sched = 0, start = 0, in_end = 0, close_end = 0;
  std::uint64_t packets = 0;
  std::uint64_t cpu_busy = 0, cpu_in = 0;
  std::uint64_t next_burst = 0, bursts = 0, on_burst = 0, update = 0;
  std::uint64_t drain = 0, merge = 0, encode = 0, save = 0, end_epoch = 0;
  std::uint64_t publish = 0, shadow = 0, shadow_apply = 0, frame_bytes = 0;
  std::uint64_t ckpt_bytes = 0;
  bool full = false;
  double sampled_frac = 0, imbalance = 1;
  std::uint64_t heap_evictions = 0;
  std::size_t queue_depth = 0;
};

/// Cross-thread per-epoch timestamps (epoch loop, exporter sink, dashboard).
struct Stamps {
  std::vector<std::atomic<std::uint64_t>> publish, ack, cover;
  Stamps() : publish(kMaxEpochs), ack(kMaxEpochs), cover(kMaxEpochs) {}
};

struct QuerySample {
  std::uint64_t epoch = 0;  // newest epoch the generation covers
  double total_ms = 0, view_build_ms = 0;
  // Per endpoint, cold; /change needs a previous generation.
  double view_ms = 0, heavy_hitters_ms = 0, entropy_ms = 0, flow_ms = 0;
  double change_ms = std::nan("");
  double cached_ms = 0;
  double heap_mb = 0;  // after the queries: the whole pipeline is idle
};

std::string fmt_ip(std::uint32_t ip) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%u.%u.%u.%u", ip >> 24, (ip >> 16) & 255,
                (ip >> 8) & 255, ip & 255);
  return buf;
}

/// Reads the collector like a dashboard: polls for newly applied epochs,
/// builds the view, then answers the fixed query set cache-cold.
class Dashboard {
 public:
  Dashboard(Rig& rig, Stamps& stamps, std::uint64_t epoch_packets,
            const std::vector<FlowKey>& flow_keys)
      : rig_(rig), stamps_(stamps), epoch_packets_(epoch_packets) {
    for (const auto& k : flow_keys) {
      flow_targets_.push_back("/flow?src=" + fmt_ip(k.src_ip) + "&dst=" +
                              fmt_ip(k.dst_ip) + "&sport=" + std::to_string(k.src_port) +
                              "&dport=" + std::to_string(k.dst_port) +
                              "&proto=" + std::to_string(k.proto));
    }
    samples.reserve(kMaxEpochs);  // no allocation while state_mb is sampled
    thread_ = std::thread([this] { run(); });
  }
  ~Dashboard() { stop(); }

  void stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }

  std::uint64_t done() const { return done_.load(std::memory_order_acquire); }

  std::vector<QuerySample> samples;  // read after stop()
  std::vector<std::uint64_t> done_ns = std::vector<std::uint64_t>(kMaxEpochs);
  std::uint64_t queries = 0, queries_ok = 0;
  std::size_t queue_depth_max = 0;

 private:
  double timed_query(const std::string& target, std::string* resp_out = nullptr) {
    const std::uint64_t t0 = now_ns();
    const std::string resp = rig_.queries->handle("GET", target, t0);
    const double ms = static_cast<double>(now_ns() - t0) / kMs;
    ++queries;
    if (resp.rfind("HTTP/1.1 200", 0) == 0) {
      ++queries_ok;
    } else {
      std::fprintf(stderr, "query %s failed: %.60s\n", target.c_str(), resp.c_str());
    }
    if (resp_out != nullptr) *resp_out = resp;
    return ms;
  }

  /// The generation a /view response reports.  /change must name a
  /// generation the query server has served: the collector can build a
  /// newer one between the dashboard's own view() and the query, and the
  /// server retains only the generations it resolved.
  static std::uint64_t served_generation(const std::string& resp) {
    const char* tag = "\"generation\":";
    const std::size_t at = resp.find(tag);
    return at == std::string::npos ? 0
                                   : std::strtoull(resp.c_str() + at + std::strlen(tag), nullptr, 10);
  }

  void run() {
    std::uint64_t acked_seen = 0, covered = 0, prev_gen = 0;
    while (!stop_.load(std::memory_order_relaxed)) {
      const std::uint64_t acked = rig_.exporter->epochs_acked();
      if (acked > acked_seen) {
        const std::uint64_t t = now_ns();
        for (std::uint64_t e = acked_seen; e < acked && e < kMaxEpochs; ++e) {
          stamps_.ack[e].store(t, std::memory_order_relaxed);
        }
        acked_seen = acked;
      }
      queue_depth_max = std::max(queue_depth_max, rig_.exporter->queue_depth());
      if (rig_.collector->epochs_applied() <= covered) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        continue;
      }
      const std::uint64_t t0 = now_ns();
      const auto view = rig_.collector->view(t0);
      const std::uint64_t t1 = now_ns();
      const std::uint64_t n = static_cast<std::uint64_t>(view->packets) / epoch_packets_;
      if (n <= covered) continue;
      for (std::uint64_t e = covered; e < n && e < kMaxEpochs; ++e) {
        stamps_.cover[e].store(t1, std::memory_order_relaxed);
      }
      covered = n;

      QuerySample s;
      s.epoch = n - 1;
      s.view_build_ms = static_cast<double>(t1 - t0) / kMs;
      auto cold = [&](const std::string& target, std::string* resp = nullptr) {
        const double ms = timed_query(target, resp);
        s.total_ms += ms;
        return ms;
      };
      std::string view_resp;
      s.view_ms = cold("/view", &view_resp);
      s.heavy_hitters_ms = cold("/heavy-hitters");
      s.entropy_ms = cold("/entropy");
      const std::uint64_t gen = served_generation(view_resp);
      if (prev_gen != 0 && prev_gen < gen) {
        s.change_ms = cold("/change?from=" + std::to_string(prev_gen));
      }
      double flow = 0;
      for (const auto& t : flow_targets_) flow += cold(t);
      s.flow_ms = flow / static_cast<double>(flow_targets_.size());
      s.cached_ms = timed_query("/view");  // same target again: cache hit
      s.heap_mb = heap_mb();
      prev_gen = gen;
      samples.push_back(s);
      const std::uint64_t t2 = now_ns();
      for (std::uint64_t e = done_.load(); e < n && e < kMaxEpochs; ++e) done_ns[e] = t2;
      done_.store(n, std::memory_order_release);
    }
  }

  Rig& rig_;
  Stamps& stamps_;
  std::uint64_t epoch_packets_;
  std::vector<std::string> flow_targets_;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> done_{0};
  std::thread thread_;
};

// ------------------------------------------------------------ JSON out

class Json {
 public:
  Json& num(const std::string& k, double v) {
    sep();
    if (std::isfinite(v)) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.17g", v);
      out_ += "\"" + k + "\": " + buf;
    } else {
      out_ += "\"" + k + "\": null";
    }
    return *this;
  }
  Json& str(const std::string& k, const std::string& v) {
    sep();
    out_ += "\"" + k + "\": \"" + v + "\"";
    return *this;
  }
  Json& raw(const std::string& k, const std::string& v) {
    sep();
    out_ += "\"" + k + "\": " + v;
    return *this;
  }
  Json& boolean(const std::string& k, bool v) { return raw(k, v ? "true" : "false"); }
  std::string done() const { return "{" + out_ + "}"; }

 private:
  void sep() {
    if (!out_.empty()) out_ += ", ";
  }
  std::string out_;
};

struct Options {
  std::string workload, input, truth, work, dump;
  double seconds = 10;
  bool trace = false;
};

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string a = argv[i];
    const char* v = argv[i + 1];
    if (a == "--workload") o.workload = v;
    else if (a == "--input") o.input = v;
    else if (a == "--truth") o.truth = v;
    else if (a == "--work") o.work = v;
    else if (a == "--seconds") o.seconds = std::atof(v);
    else if (a == "--trace") o.trace = std::atoi(v) != 0;
    else if (a == "--dump") o.dump = v;
    else return false;
  }
  return !o.workload.empty() && !o.input.empty() && !o.truth.empty() && !o.work.empty();
}

/// FNV-1a over the report fields accuracy depends on: two runs of one
/// seed must produce the same digest.
struct Digest {
  std::uint64_t h = 1469598103934665603ULL;
  void add(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    for (std::size_t i = 0; i < n; ++i) h = (h ^ b[i]) * 1099511628211ULL;
  }
  template <typename T>
  void add(const T& v) {
    add(&v, sizeof v);
  }
};

/// Scores pass 0's epoch reports against the exact ground truth as they
/// are made, so no report is kept while state_mb is sampled.
struct Accuracy {
  Digest digest;
  double recall_sum = 0, are_sum = 0, entropy_sum = 0;
  std::size_t are_n = 0, epochs = 0;

  void add(const control::EpochReport& rep, const Truth::Epoch& truth) {
    std::size_t hits = 0;
    for (const auto& h : rep.heavy_hitters) {
      digest.add(h.key);
      digest.add(h.estimate);
      const auto it = truth.hh.find(h.key);
      if (it == truth.hh.end()) continue;
      ++hits;
      are_sum += std::fabs(static_cast<double>(h.estimate) - static_cast<double>(it->second)) /
                 static_cast<double>(it->second);
      ++are_n;
    }
    for (const auto& c : rep.changed_flows) {
      digest.add(c.key);
      digest.add(c.estimate);
    }
    digest.add(rep.packets);
    digest.add(rep.entropy);
    digest.add(rep.distinct);
    recall_sum += truth.hh.empty() ? 1.0 : static_cast<double>(hits) / truth.hh.size();
    entropy_sum += std::fabs(rep.entropy - truth.entropy) / truth.entropy;
    ++epochs;
  }
  double hh_recall() const { return epochs ? recall_sum / epochs : 0; }
  double hh_are() const { return are_n ? are_sum / are_n : 0; }
  double entropy_re() const { return epochs ? entropy_sum / epochs : 0; }
};

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --input FILE --truth FILE --work DIR "
                 "--seconds S --trace 0|1 [--dump CSV]\n",
                 argv[0]);
    return 2;
  }
  const WorkloadDef* wp = perfledger::find_workload(opt.workload.c_str());
  if (wp == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", opt.workload.c_str());
    return 2;
  }
  const WorkloadDef& w = *wp;
  const Truth truth = load_truth(opt.truth);
  if (truth.epochs.size() != w.epochs_per_pass) {
    std::fprintf(stderr, "truth file does not match workload %s\n", w.name);
    return 2;
  }
  std::string loadavg;
  std::getline(std::ifstream("/proc/loadavg"), loadavg);
  std::filesystem::create_directories(opt.work);
  const std::string ckpt_dir = opt.work + "/ckpt";
  const std::string sock = opt.work + "/collector.sock";

  // ---- set-up, several times; the last rig is the one that runs.
  std::vector<double> setup_s;
  std::unique_ptr<Rig> rig;
  for (int r = 0; r < kSetupReps; ++r) {
    rig.reset();
    const std::uint64_t t0 = now_ns();
    rig = set_up(w, opt.input, ckpt_dir, sock);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  Stamps stamps;
  Dashboard dash(*rig, stamps, w.epoch_packets, truth.flow_keys);
  control::MeasurementDaemon& daemon = *rig->daemon;
  const bool pinned = pin_threads(rig->worker_tids);

  // Shadow collector (traced runs only): replays each exported epoch
  // through encode -> decode -> ingest so collector apply can be timed
  // from outside; its view must equal the real collector's at the end.
  std::unique_ptr<xport::CollectorCore> shadow;
  if (opt.trace) {
    xport::CollectorConfig shadow_cfg;
    shadow_cfg.um_cfg = univmon_config();
    shadow_cfg.seed = kSketchSeed;
    shadow = std::make_unique<xport::CollectorCore>(shadow_cfg);
  }
  std::vector<EpochRec> recs;
  recs.reserve(kMaxEpochs);

  // state_mb's baseline, taken once every harness buffer is allocated, so
  // that only what the program allocates from here on counts.
  {
    std::ofstream("/proc/self/clear_refs") << "5";  // reset the RSS high-water mark
  }
  const long rss_setup_kb = status_kb("VmRSS");
  const double heap_setup_mb = heap_mb();

  EpochRec* cur = nullptr;
  std::uint64_t published = 0, packets_published = 0;
  daemon.set_export_sink([&](control::ExportedEpoch&& e) {
    const std::uint64_t epoch = e.span.first;
    if (opt.trace) {
      const std::uint64_t t0 = now_ns();
      xport::EpochMessage msg;
      msg.source_id = kSourceId;
      msg.seq_first = msg.seq_last = published + 1;
      msg.span = e.span;
      msg.packets = e.packets;
      msg.epoch_close_ns = e.close_ns;
      msg.send_ns = t0;
      msg.seed_gen = e.seed_gen;
      msg.snapshot = e.snapshot;
      const auto frame = xport::encode_epoch(msg);
      const std::uint64_t t1 = now_ns();
      shadow->ingest(xport::decode_epoch(frame), now_ns());
      const std::uint64_t t2 = now_ns();
      cur->shadow_apply = t2 - t1;
      cur->frame_bytes = frame.size();
      cur->shadow = t2 - t0;
    }
    ++published;
    packets_published += static_cast<std::uint64_t>(e.packets);
    const std::uint64_t t0 = now_ns();
    rig->exporter->publish(e.span, e.packets, std::move(e.snapshot), e.close_ns,
                           e.seed_gen);
    const std::uint64_t t1 = now_ns();
    cur->publish = t1 - t0;
    if (epoch < kMaxEpochs) stamps.publish[epoch].store(t1, std::memory_order_relaxed);
  });

  // ---- the epoch loop (tools/nitro_monitor.cpp), one epoch per call.
  std::uint64_t offered = 0, applied = 0, ckpt_attempts = 0, ckpt_ok = 0;
  std::uint64_t frames_since_full = 0;
  std::uint64_t update_acc = 0;
  std::vector<std::uint64_t> shard_pkts_prev(w.workers, 0);
  // Pass 0's reports are scored for accuracy: the data path is
  // timing-independent (fixed-rate sampling, lossless shards), so they
  // repeat exactly on every run of a seed.
  Accuracy accuracy;
  bool epoch_sizes_ok = true;

  auto run_epoch = [&](int pass, bool timed, bool traced, std::uint64_t sched) {
    recs.emplace_back();
    EpochRec& r = recs.back();
    cur = &r;
    r.pass = pass;
    r.timed = timed;
    r.traced = traced;
    r.sched = sched;
    const std::uint64_t epoch = daemon.epoch();
    TimedBackend& tb = *rig->timed_backend;
    TimedMeasurement& tm = *rig->timed_measurement;
    tb.ns = tb.bursts = 0;
    tm.ns = 0;
    update_acc = 0;
    rig->adapter.timer = traced ? &update_acc : nullptr;
    if (rig->shards) {  // workers are quiescent: the last drain() returned
      for (std::uint32_t s = 0; s < rig->shards->workers(); ++s) {
        rig->shards->instance(s).timed = traced;
        rig->shards->instance(s).ns = 0;
      }
    }

    const std::uint64_t cpu0 = process_cpu_ns();
    r.start = now_ns();
    const std::uint64_t got = (traced ? rig->traced_loop : rig->loop)->run(w.epoch_packets);
    r.in_end = now_ns();  // the epoch's last packet has entered the data plane
    r.cpu_in = process_cpu_ns() - cpu0;
    rig->measurement->finish();
    r.drain = now_ns() - r.in_end;
    r.packets = got;
    offered += got;
    r.next_burst = tb.ns;
    r.bursts = tb.bursts;
    r.on_burst = tm.ns;
    r.update = update_acc;  // inline: part of on_burst; sharded: on the workers
    if (rig->shards) {
      for (std::uint32_t s = 0; s < rig->shards->workers(); ++s) {
        r.update += rig->shards->instance(s).ns;
      }
    }

    {
      const std::uint64_t t = now_ns();
      if (rig->shards) {
        auto& g = *rig->shards;
        std::uint64_t sampled = 0, ingested = 0, max_pkts = 0, sum_pkts = 0;
        for (std::uint32_t s = 0; s < g.workers(); ++s) {
          const std::uint64_t p = g.shard_packets(s) - shard_pkts_prev[s];
          shard_pkts_prev[s] = g.shard_packets(s);
          max_pkts = std::max(max_pkts, p);
          sum_pkts += p;
          if (g.quarantined(s)) continue;
          core::NitroUnivMon& sketch = g.instance(s).sketch;
          sampled += sketch.sampled_updates();
          ingested += sketch.ingest_packets();
          daemon.data_plane_mut().merge_from(sketch);
          sketch.clear();
        }
        g.reset_degradation();
        daemon.publish_telemetry();
        r.sampled_frac = ingested ? static_cast<double>(sampled) / ingested : 0;
        r.imbalance = sum_pkts ? static_cast<double>(max_pkts) * g.workers() / sum_pkts : 0;
      } else {
        const auto& dp = daemon.data_plane();
        r.sampled_frac =
            dp.ingest_packets() ? static_cast<double>(dp.sampled_updates()) /
                                      static_cast<double>(dp.ingest_packets())
                                : 0;
      }
      r.merge = now_ns() - t;
    }

    r.full = !daemon.delta_ready() || frames_since_full >= kFullEvery;
    std::uint64_t t = now_ns();
    const auto frame = r.full ? daemon.checkpoint_bytes() : daemon.delta_checkpoint_bytes();
    r.encode = now_ns() - t;
    r.ckpt_bytes = frame.size();
    t = now_ns();
    ++ckpt_attempts;
    const auto saved = rig->ckpt->save_frame("daemon", r.full, frame);
    if (saved.ok) {
      daemon.cut_checkpoint_frame();
      frames_since_full = r.full ? 1 : frames_since_full + 1;
      ++ckpt_ok;
    }
    r.save = now_ns() - t;

    t = now_ns();
    control::EpochReport report = daemon.end_epoch();
    r.end_epoch = now_ns() - t;
    r.close_end = now_ns();
    r.cpu_busy = process_cpu_ns() - cpu0;
    r.queue_depth = rig->exporter->queue_depth();
    r.heap_evictions = report.heap_evictions;
    applied += static_cast<std::uint64_t>(report.packets);
    if (static_cast<std::uint64_t>(report.packets) != w.epoch_packets || got != w.epoch_packets) {
      epoch_sizes_ok = false;
    }
    if (pass == 0) accuracy.add(report, truth.epochs[accuracy.epochs]);
    return epoch;
  };

  const std::uint64_t run_t0 = now_ns();
  auto wait_for_dashboard = [&](std::uint64_t epoch) {
    const std::uint64_t deadline = now_ns() + 20'000 * kMs;
    while (dash.done() <= epoch && now_ns() < deadline) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    return dash.done() > epoch;
  };

  // Pass 0: synchronous calibration pass (and the accuracy pass).
  bool sync_ok = true;
  std::vector<double> monitor_ms, collector_ms;
  for (std::uint32_t i = 0; i < w.epochs_per_pass; ++i) {
    const std::uint64_t e = run_epoch(0, false, opt.trace, now_ns());
    sync_ok = wait_for_dashboard(e) && sync_ok;
    const EpochRec& r = recs.back();
    monitor_ms.push_back(static_cast<double>(r.close_end - r.start) / kMs);
    collector_ms.push_back(static_cast<double>(dash.done_ns[e] - stamps.publish[e].load()) / kMs);
  }
  // The collector side starts when the monitor side publishes, so the
  // cadence must cover both in sequence: an epoch's export, apply and
  // queries finish before the next epoch's ingest begins.  The workload's
  // fixed cadence keeps the schedule identical run to run; a host too slow
  // for it stretches the cadence to 1.5x the measured work, so a slow phase
  // of the host does not back up the exporter queue.
  const double cadence_ms = std::max(
      w.cadence_ms, 1.5 * (quantile(monitor_ms, 0.5) + quantile(collector_ms, 0.5)));
  const auto cadence_ns = static_cast<std::uint64_t>(cadence_ms * kMs);

  // Open loop from here on: each epoch is due one cadence after the
  // previous one was due.  An epoch that finds its slot already past
  // starts at once, and the schedule restarts from it, so a stall never
  // turns into a burst of back-to-back catch-up epochs.
  std::uint64_t due = now_ns() + cadence_ns;
  auto run_pass = [&](int pass, bool timed, bool traced) {
    for (std::uint32_t i = 0; i < w.epochs_per_pass && recs.size() < kMaxEpochs - 1; ++i) {
      while (now_ns() < due) cpu_relax();
      run_epoch(pass, timed, traced, due);
      due = std::max(due, recs.back().start) + cadence_ns;
    }
  };
  auto pass_parallelism = [&](int pass) {
    std::uint64_t cpu = 0, wall = 0;
    for (const auto& r : recs) {
      if (r.pass != pass) continue;
      cpu += r.cpu_in;
      wall += r.in_end - r.start;
    }
    return wall ? static_cast<double>(cpu) / wall : 0.0;
  };

  // Open-loop warm-up; a sharded data plane warms until its parallelism
  // settles (right after the workers spawn, passes ran with CPU ~ wall).
  int pass = 1;
  std::vector<double> warm_parallelism;
  auto settled = [&] {
    const std::size_t n = warm_parallelism.size();
    return n >= 2 && std::fabs(warm_parallelism[n - 1] / warm_parallelism[n - 2] - 1) < 0.05;
  };
  do {
    run_pass(pass, false, false);
    warm_parallelism.push_back(pass_parallelism(pass++));
  } while (w.workers > 0 && warm_parallelism.size() < 4 && !settled());

  // Timed passes: at least --seconds, and enough untraced epochs for
  // every p90 (capped at three times --seconds).
  const int first_timed = pass;
  const std::uint64_t timed_t0 = now_ns();
  const auto budget = static_cast<std::uint64_t>(opt.seconds * 1e9);
  std::size_t timed_plain = 0;
  auto more = [&] {
    const std::uint64_t elapsed = now_ns() - timed_t0;
    if (elapsed >= 3 * budget || recs.size() + w.epochs_per_pass >= kMaxEpochs) return false;
    return elapsed < budget || (!opt.trace && timed_plain < kMinTimedEpochs);
  };
  while (more()) {
    const bool traced = opt.trace && (pass - first_timed) % 2 == 0;
    run_pass(pass, true, traced);
    if (!traced) timed_plain += w.epochs_per_pass;
    ++pass;
  }
  const double timed_s = static_cast<double>(now_ns() - timed_t0) / 1e9;
  const long hwm_kb = status_kb("VmHWM");

  // ---- end of run: one more checkpoint frame, deliver everything.
  bool final_ckpt_ok = false;
  {
    const bool full = !daemon.delta_ready() || frames_since_full >= kFullEvery;
    const auto saved = rig->ckpt->save_frame(
        "daemon", full, full ? daemon.checkpoint_bytes() : daemon.delta_checkpoint_bytes());
    ++ckpt_attempts;
    if (saved.ok) {
      daemon.cut_checkpoint_frame();
      ++ckpt_ok;
      final_ckpt_ok = true;
    }
  }
  const bool flushed = rig->exporter->flush(10'000);
  const std::uint64_t epochs_total = recs.size();
  {
    const std::uint64_t deadline = now_ns() + 10'000 * kMs;
    while (dash.done() < epochs_total && now_ns() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  dash.stop();

  if (!opt.dump.empty()) {
    std::ofstream csv(opt.dump);
    csv << "epoch,pass,timed,traced,packets,sched,start,in_end,close_end,next_burst,bursts,"
           "on_burst,update,drain,merge,encode,save,end_epoch,publish,shadow,shadow_apply,"
           "cpu_in,cpu_busy,full,ckpt_bytes,frame_bytes,ack,cover,dash_done\n";
    for (std::size_t e = 0; e < recs.size(); ++e) {
      const EpochRec& r = recs[e];
      csv << e << ',' << r.pass << ',' << r.timed << ',' << r.traced << ',' << r.packets << ','
          << r.sched << ',' << r.start << ',' << r.in_end << ',' << r.close_end << ','
          << r.next_burst << ',' << r.bursts << ',' << r.on_burst << ',' << r.update << ','
          << r.drain << ',' << r.merge << ',' << r.encode << ',' << r.save << ','
          << r.end_epoch << ',' << r.publish << ',' << r.shadow << ',' << r.shadow_apply << ','
          << r.cpu_in << ',' << r.cpu_busy << ',' << r.full << ','
          << r.ckpt_bytes << ',' << r.frame_bytes << ',' << stamps.ack[e].load() << ','
          << stamps.cover[e].load() << ',' << dash.done_ns[e] << '\n';
    }
  }

  // ---- correctness checks
  std::vector<std::pair<std::string, bool>> checks;
  auto check = [&](const std::string& name, bool ok) {
    checks.emplace_back(name, ok);
    if (!ok) std::fprintf(stderr, "CHECK FAILED: %s\n", name.c_str());
  };
  check("epoch_packets_exact", epoch_sizes_ok);
  check("packets_conserved", applied == offered && offered == epochs_total * w.epoch_packets);
  check("ingest_no_parse_errors", rig->backend->parse_errors() == 0);
  if (rig->shards) {
    auto& g = *rig->shards;
    bool ok = g.quarantines() == 0;
    for (std::uint32_t s = 0; s < g.workers(); ++s) {
      ok = ok && g.shard_packets(s) == g.shard_applied(s) + g.shard_drops(s) &&
           g.shard_drops(s) == 0 && g.degrade_level(s) == 0;
    }
    std::uint64_t degrade_steps = 0;
    rig->registry.for_each_counter([&](const std::string& name, const std::string&,
                                       const telemetry::Counter& c) {
      if (name.find("_degrade_steps_total") != std::string::npos) degrade_steps += c.value();
    });
    check("shards_lossless", ok && g.total_packets() == offered && degrade_steps == 0);
  }
  check("sync_pass_completed", sync_ok);
  check("checkpoint_saves", ckpt_ok == ckpt_attempts && final_ckpt_ok);
  {
    bool ok = false;
    try {
      const auto chain = rig->ckpt->load_chain("daemon");
      control::MeasurementDaemon fresh(univmon_config(),
                                       nitro_config(rig->backend->preferred_prefetch_window()),
                                       daemon_tasks(), kSketchSeed);
      fresh.enable_delta_checkpoints();
      if (chain.found && chain.frames_rejected == 0) {
        fresh.restore_checkpoint(chain.base);
        for (const auto& d : chain.deltas) fresh.apply_delta_checkpoint(d);
        ok = fresh.checkpoint_bytes() == daemon.checkpoint_bytes();
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "restore: %s\n", e.what());
    }
    check("checkpoint_chain_restores_exactly", ok);
  }
  const auto view = rig->collector->view(now_ns());
  const auto sources = rig->collector->sources(now_ns());
  {
    bool ok = flushed && published == epochs_total &&
              rig->exporter->epochs_acked() == published &&
              rig->collector->epochs_applied() == published &&
              static_cast<std::uint64_t>(view->packets) == packets_published &&
              packets_published == applied && sources.size() == 1;
    for (const auto& s : sources) {
      ok = ok && s.duplicates == 0 && s.gap_epochs == 0 && s.coalesced_epochs == 0 &&
           s.overlap_dropped == 0 && s.epochs_applied == published;
    }
    rig->registry.for_each_counter([&](const std::string& name, const std::string&,
                                       const telemetry::Counter& c) {
      if (name.find("coalesce") != std::string::npos && c.value() != 0) ok = false;
    });
    check("collector_conserves_epochs", ok);
  }
  // Backlog: the exporter queue right after each publish, and as the
  // dashboard saw it between epochs.
  std::size_t queue_depth_max = dash.queue_depth_max;
  for (const auto& r : recs) queue_depth_max = std::max(queue_depth_max, r.queue_depth);
  check("export_queue_depth_max_le_1", queue_depth_max <= 1);
  check("queries_all_200", dash.queries > 0 && dash.queries_ok == dash.queries);
  if (opt.trace) {
    const auto sv = shadow->view(now_ns());
    check("shadow_view_equals_collector",
          sv->packets == view->packets &&
              control::snapshot_univmon(sv->merged) == control::snapshot_univmon(view->merged));
  }

  // ---- accuracy (pass 0; identical on every run of a seed)
  const double hh_recall = accuracy.hh_recall();
  const double hh_are = accuracy.hh_are();
  const double entropy_re = accuracy.entropy_re();
  char digest_hex[24];
  std::snprintf(digest_hex, sizeof digest_hex, "%016" PRIx64, accuracy.digest.h);

  // ---- metrics
  std::map<int, std::pair<std::uint64_t, std::uint64_t>> pass_busy;  // packets, busy ns
  std::map<int, std::uint64_t> pass_shadow;
  std::map<int, bool> pass_traced;
  std::vector<double> close_ms, fresh_ms, lag_ms;
  std::uint64_t cpu_busy = 0, timed_packets = 0;
  for (std::size_t e = 0; e < recs.size(); ++e) {
    const EpochRec& r = recs[e];
    if (!r.timed) continue;
    pass_busy[r.pass].first += r.packets;
    pass_busy[r.pass].second += r.close_end - r.start;
    pass_shadow[r.pass] += r.shadow;
    pass_traced[r.pass] = r.traced;
    lag_ms.push_back(static_cast<double>(r.start - r.sched) / kMs);
    if (r.traced) continue;
    close_ms.push_back(static_cast<double>(r.close_end - r.in_end) / kMs);
    const std::uint64_t cover = stamps.cover[e].load();
    if (cover > r.in_end) fresh_ms.push_back(static_cast<double>(cover - r.in_end) / kMs);
    cpu_busy += r.cpu_busy;
    timed_packets += r.packets;
  }
  std::vector<double> pass_mpps, pass_busy_traced, pass_busy_plain;
  for (const auto& [p, pb] : pass_busy) {
    const double busy = static_cast<double>(pb.second - pass_shadow[p]);
    if (pass_traced[p]) {
      pass_busy_traced.push_back(busy);
    } else {
      pass_busy_plain.push_back(busy);
      pass_mpps.push_back(static_cast<double>(pb.first) / (static_cast<double>(pb.second) / 1e3));
    }
  }
  std::vector<double> query_ms, view_build_ms, heap;
  std::vector<double> q_view, q_hh, q_entropy, q_change, q_flow, q_cached;
  for (const auto& s : dash.samples) {
    if (s.epoch >= recs.size() || !recs[s.epoch].timed) continue;
    heap.push_back(s.heap_mb);
    if (!recs[s.epoch].traced) query_ms.push_back(s.total_ms);
    view_build_ms.push_back(s.view_build_ms);
    q_view.push_back(s.view_ms);
    q_hh.push_back(s.heavy_hitters_ms);
    q_entropy.push_back(s.entropy_ms);
    if (!std::isnan(s.change_ms)) q_change.push_back(s.change_ms);
    q_flow.push_back(s.flow_ms);
    q_cached.push_back(s.cached_ms);
  }

  Json metrics;
  if (!opt.trace) {
    // Each p90 pools at least kMinTimedEpochs samples by construction of
    // the timed phase; fewer is a failed check, not a silently noisy p90.
    auto p90_if = [&](const char* name, const std::vector<double>& v) {
      check(std::string(name) + "_has_100_samples", v.size() >= 100);
      metrics.num(name, quantile(v, 0.9));
    };
    metrics.num("throughput_mpps", quantile(pass_mpps, 0.5));
    metrics.num("cpu_ns_per_pkt", timed_packets ? static_cast<double>(cpu_busy) / timed_packets : 0);
    metrics.num("epoch_close_ms_p50", quantile(close_ms, 0.5));
    p90_if("epoch_close_ms_p90", close_ms);
    metrics.num("freshness_ms_p50", quantile(fresh_ms, 0.5));
    p90_if("freshness_ms_p90", fresh_ms);
    metrics.num("query_ms_p50", quantile(query_ms, 0.5));
    p90_if("query_ms_p90", query_ms);
    metrics.num("hh_recall", hh_recall);
    metrics.num("hh_are", hh_are);
    // State the run holds: live heap above the set-up level, median over
    // timed generations.  Peak RSS (diagnostics) also counts what glibc
    // keeps cached, which varied by 30% between seeds of one workload.
    metrics.num("state_mb", quantile(heap, 0.5) - heap_setup_mb);
    metrics.num("setup_s", quantile(setup_s, 0.5));
  } else {
    std::vector<double> nb, ppb, upd, disp, drain, merge, endep, enc, save, pub, ack,
        apply, frame_kb, sampled, evict, imb, par, ckpt_kb;
    std::uint64_t span_ns = 0, busy_ns = 0, full_frames = 0, frames = 0;
    for (std::size_t e = 0; e < recs.size(); ++e) {
      const EpochRec& r = recs[e];
      if (!r.timed || !r.traced) continue;
      const double pk = static_cast<double>(r.packets);
      nb.push_back(r.next_burst / pk);
      ppb.push_back(r.bursts ? pk / r.bursts : 0);
      // Inline, the sketch update runs inside on_burst; sharded, on_burst
      // is all dispatch and the update runs on the workers.
      disp.push_back((static_cast<double>(r.on_burst) - (rig->shards ? 0 : r.update)) / pk);
      upd.push_back(r.update / pk);
      drain.push_back(static_cast<double>(r.drain) / kMs);
      merge.push_back(static_cast<double>(r.merge) / kMs);
      endep.push_back(static_cast<double>(r.end_epoch - r.shadow - r.publish) / kMs);
      enc.push_back(static_cast<double>(r.encode) / kMs);
      save.push_back(static_cast<double>(r.save) / kMs);
      pub.push_back(static_cast<double>(r.publish) / 1e3);
      apply.push_back(static_cast<double>(r.shadow_apply) / kMs);
      frame_kb.push_back(static_cast<double>(r.frame_bytes) / 1024.0);
      ckpt_kb.push_back(static_cast<double>(r.ckpt_bytes) / 1024.0);
      sampled.push_back(r.sampled_frac);
      evict.push_back(static_cast<double>(r.heap_evictions));
      imb.push_back(r.imbalance);
      par.push_back(static_cast<double>(r.cpu_in) / static_cast<double>(r.in_end - r.start));
      const std::uint64_t a = stamps.ack[e].load(), p = stamps.publish[e].load();
      if (a > p) ack.push_back(static_cast<double>(a - p) / kMs);
      full_frames += r.full;
      ++frames;
      span_ns += r.next_burst + r.on_burst + r.drain + r.merge + r.encode + r.save + r.end_epoch;
      busy_ns += r.close_end - r.start;
    }
    const double overhead = quantile(pass_busy_traced, 0.5) / quantile(pass_busy_plain, 0.5) - 1;
    const double coverage = busy_ns ? static_cast<double>(span_ns) / busy_ns : 0;
    check("span_coverage_within_10pct", std::fabs(coverage - 1) <= 0.10);
    metrics.num("ingest.next_burst_ns_per_pkt", mean(nb));
    metrics.num("ingest.pkts_per_burst", mean(ppb));
    metrics.num("ingest.lag_ms_p90", quantile(lag_ms, 0.9));
    metrics.num("core.update_ns_per_pkt", mean(upd));
    metrics.num("core.sampled_frac", mean(sampled));
    metrics.num("sketch.heap_evictions_per_epoch", mean(evict));
    metrics.num("sketch.entropy_re", entropy_re);
    metrics.num("sketch.memory_mb", static_cast<double>(daemon.data_plane().memory_bytes()) / 1e6);
    metrics.num("shard.dispatch_ns_per_pkt", mean(disp));
    metrics.num("shard.drain_ms_mean", mean(drain));
    metrics.num("shard.merge_ms_mean", mean(merge));
    metrics.num("shard.parallelism", mean(par));
    metrics.num("shard.imbalance", mean(imb));
    metrics.num("control.end_epoch_ms_p50", quantile(endep, 0.5));
    metrics.num("control.ckpt_encode_ms_p50", quantile(enc, 0.5));
    metrics.num("control.ckpt_encode_ms_p90", quantile(enc, 0.9));
    metrics.num("control.ckpt_save_ms_p50", quantile(save, 0.5));
    metrics.num("control.ckpt_kb_per_epoch", mean(ckpt_kb));
    metrics.num("control.delta_share", frames ? 1.0 - static_cast<double>(full_frames) / frames : 0);
    metrics.num("export.publish_us_p50", quantile(pub, 0.5));
    metrics.num("export.ack_ms_p50", quantile(ack, 0.5));
    metrics.num("export.queue_depth_max", static_cast<double>(queue_depth_max));
    metrics.num("collector.apply_ms_p50", quantile(apply, 0.5));
    metrics.num("collector.frame_kb", mean(frame_kb));
    metrics.num("collector.view_ms_p50", quantile(view_build_ms, 0.5));
    metrics.num("query.view_ms_p50", quantile(q_view, 0.5));
    metrics.num("query.heavy_hitters_ms_p50", quantile(q_hh, 0.5));
    metrics.num("query.change_ms_p50", quantile(q_change, 0.5));
    metrics.num("query.entropy_ms_p50", quantile(q_entropy, 0.5));
    metrics.num("query.flow_us_p50", quantile(q_flow, 0.5) * 1e3);
    metrics.num("query.cached_us_p50", quantile(q_cached, 0.5) * 1e3);
    metrics.num("bench.trace_overhead_frac", overhead);
    metrics.num("bench.span_coverage", coverage);
  }

  std::size_t checks_ok = 0;
  for (const auto& c : checks) checks_ok += c.second;
  // ---- ok_frac: the worst success share over operation kinds.
  const std::uint64_t acked = rig->exporter->epochs_acked();
  const double shares[] = {
      offered ? static_cast<double>(std::min(applied, offered)) / offered : 0,
      ckpt_attempts ? static_cast<double>(ckpt_ok) / ckpt_attempts : 0,
      published ? static_cast<double>(std::min(acked, published)) / published : 0,
      dash.queries ? static_cast<double>(dash.queries_ok) / dash.queries : 0,
      static_cast<double>(checks_ok) / checks.size(),
  };
  const double ok_frac = *std::min_element(std::begin(shares), std::end(shares));
  const std::uint64_t attempted = epochs_total + ckpt_attempts + published + dash.queries;
  const std::uint64_t failed =
      (epochs_total - std::min(epochs_total, applied / w.epoch_packets)) +
      (ckpt_attempts - ckpt_ok) + (published - std::min(acked, published)) +
      (dash.queries - dash.queries_ok);

  if (!opt.trace) metrics.num("ok_frac", ok_frac);

  // ---- diagnostics and provenance
  struct statfs fs{};
  const bool tmpfs = statfs(ckpt_dir.c_str(), &fs) == 0 && fs.f_type == 0x01021994;
  std::vector<double> all_par;
  for (const auto& r : recs) {
    if (r.timed && r.in_end > r.start) {
      all_par.push_back(static_cast<double>(r.cpu_in) / static_cast<double>(r.in_end - r.start));
    }
  }
  const double pass_spread =
      pass_mpps.size() >= 2
          ? (quantile(pass_mpps, 0.75) - quantile(pass_mpps, 0.25)) / quantile(pass_mpps, 0.5)
          : 0;
  std::string warm = "[";
  for (std::size_t i = 0; i < warm_parallelism.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%s%.3f", i ? ", " : "", warm_parallelism[i]);
    warm += buf;
  }
  warm += "]";
  Json diag;
  diag.str("loadavg_at_start", loadavg)
      .num("nproc", static_cast<double>(std::thread::hardware_concurrency()))
      .str("simd_isa", simd_isa_name())
      .str("compiler", NITRO_COMPILER)
      .str("effective_flags", NITRO_EFFECTIVE_FLAGS)
      .boolean("checkpoints_on_tmpfs", tmpfs)
      .boolean("threads_pinned", pinned)
      .num("cadence_ms", cadence_ms)
      .num("timed_seconds", timed_s)
      .num("run_seconds_total", static_cast<double>(now_ns() - run_t0) / 1e9)
      .num("epochs_total", static_cast<double>(epochs_total))
      .num("timed_passes", static_cast<double>(pass_busy.size()))
      .num("epoch_close_samples", static_cast<double>(close_ms.size()))
      .num("freshness_samples", static_cast<double>(fresh_ms.size()))
      .num("query_samples", static_cast<double>(query_ms.size()))
      .num("pass_mpps_iqr_over_median", pass_spread)
      .raw("warmup_parallelism", warm)
      .num("parallelism_timed_mean", mean(all_par))
      .num("lateness_ms_max", lag_ms.empty() ? 0 : *std::max_element(lag_ms.begin(), lag_ms.end()))
      .num("epochs_late_over_1ms", static_cast<double>(std::count_if(
                                       lag_ms.begin(), lag_ms.end(), [](double x) { return x > 1; })))
      .num("export_queue_depth_max", static_cast<double>(queue_depth_max))
      .num("rss_peak_mb", static_cast<double>(hwm_kb - rss_setup_kb) / 1024.0)
      .num("setup_s_min", quantile(setup_s, 0.0))
      .num("setup_s_p25", quantile(setup_s, 0.25))
      .num("setup_s_max", quantile(setup_s, 1.0))
      .num("hh_recall", hh_recall)
      .num("hh_are", hh_are)
      .num("entropy_re", entropy_re);

  Json check_json;
  for (const auto& [name, ok] : checks) check_json.boolean(name, ok);
  const bool correct = checks_ok == checks.size() && ok_frac == 1.0;

  Json out;
  out.str("workload", w.name)
      .boolean("correct", correct)
      .num("attempted", static_cast<double>(attempted + checks.size()))
      .num("failed", static_cast<double>(failed + checks.size() - checks_ok))
      .str("accuracy_digest", digest_hex)
      .raw("accuracy", Json()
                           .num("hh_recall", hh_recall)
                           .num("hh_are", hh_are)
                           .num("entropy_re", entropy_re)
                           .done())
      .raw("checks", check_json.done())
      .raw("diag", diag.done())
      .raw("metrics", metrics.done());
  std::printf("%s\n", out.done().c_str());
  std::fflush(stdout);
  rig.reset();
  std::filesystem::remove_all(ckpt_dir);
  return 0;
}
