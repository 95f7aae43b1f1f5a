// ledger_gen — the benchmark's input generator.
//
// Builds one workload's traffic from a seed, writes it as the capture the
// measured process replays (pcap or NTR1), and computes the exact
// per-epoch ground truth the harness scores its reports against.  All of
// this runs here, outside every timed region of `ledger`.
//
// Usage:
//   ledger_gen --workload NAME --seed N --out DIR
//
// Writes DIR/input.pcap or DIR/input.ntr, DIR/truth.txt (per epoch: exact
// packets, entropy and heavy hitters at kHhFraction, plus
// the fixed /flow query keys) and DIR/workload.json (the workload's
// properties; run.py adds why it was chosen, from BENCHMARK.json).
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <unordered_map>
#include <vector>

#include "ingest/pcap.hpp"
#include "trace/trace_io.hpp"
#include "trace/workloads.hpp"
#include "workloads.hpp"

namespace {

using nitro::FlowKey;
using nitro::trace::Trace;

Trace generate(const perfledger::WorkloadDef& w, std::uint64_t seed) {
  const std::uint64_t packets =
      w.epoch_packets * static_cast<std::uint64_t>(w.epochs_per_pass);
  const std::string traffic = w.traffic;
  if (traffic == "caida") {
    nitro::trace::WorkloadSpec spec;
    spec.packets = packets;
    spec.flows = w.flows;
    spec.zipf_s = w.zipf_s;
    spec.mean_packet_bytes = w.mean_packet_bytes;
    spec.seed = seed;
    return nitro::trace::caida_like(spec);
  }
  if (traffic == "ddos") return nitro::trace::ddos(packets, w.flows, seed);
  if (traffic == "datacenter") return nitro::trace::datacenter(packets, w.flows, seed);
  std::fprintf(stderr, "unknown traffic '%s'\n", w.traffic);
  std::exit(2);
}

void print_key(std::FILE* f, const FlowKey& k) {
  std::fprintf(f, "%u %u %u %u %u", k.src_ip, k.dst_ip, k.src_port, k.dst_port,
               static_cast<unsigned>(k.proto));
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, out_dir;
  std::uint64_t seed = 0;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string arg = argv[i];
    if (arg == "--workload") {
      workload = argv[i + 1];
    } else if (arg == "--seed") {
      seed = std::strtoull(argv[i + 1], nullptr, 10);
      have_seed = true;
    } else if (arg == "--out") {
      out_dir = argv[i + 1];
    } else {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      return 2;
    }
  }
  const perfledger::WorkloadDef* w = perfledger::find_workload(workload.c_str());
  if (w == nullptr || out_dir.empty() || !have_seed) {
    std::fprintf(stderr, "usage: %s --workload NAME --seed N --out DIR\n", argv[0]);
    return 2;
  }
  std::filesystem::create_directories(out_dir);

  const Trace trace = generate(*w, seed);
  const std::string input = out_dir + "/input." + w->format;
  if (std::string(w->format) == "pcap") {
    nitro::ingest::write_pcap(input, trace, /*nanos=*/true);
  } else {
    nitro::trace::save_trace(input, trace);
  }

  std::FILE* truth = std::fopen((out_dir + "/truth.txt").c_str(), "w");
  if (truth == nullptr) {
    std::perror("truth.txt");
    return 1;
  }
  std::fprintf(truth, "epochs %u epoch_packets %" PRIu64 "\n", w->epochs_per_pass,
               w->epoch_packets);
  std::unordered_map<FlowKey, std::uint64_t> counts;
  std::vector<std::pair<FlowKey, std::uint64_t>> epoch0;
  std::uint64_t distinct_total = 0;
  for (std::uint32_t e = 0; e < w->epochs_per_pass; ++e) {
    counts.clear();
    const std::size_t begin = static_cast<std::size_t>(e * w->epoch_packets);
    for (std::size_t i = begin; i < begin + w->epoch_packets; ++i) {
      ++counts[trace[i].key];
    }
    distinct_total += counts.size();
    const double m = static_cast<double>(w->epoch_packets);
    double xlogx = 0.0;
    for (const auto& [key, f] : counts) {
      xlogx += static_cast<double>(f) * std::log2(static_cast<double>(f));
    }
    const double entropy = std::log2(m) - xlogx / m;
    // Same threshold rule as the daemon's estimation::heavy_hitters().
    const auto threshold =
        std::max<std::uint64_t>(static_cast<std::uint64_t>(perfledger::kHhFraction * m + 0.5), 1);
    std::vector<std::pair<FlowKey, std::uint64_t>> hh;
    for (const auto& [key, f] : counts) {
      if (f >= threshold) hh.emplace_back(key, f);
    }
    std::sort(hh.begin(), hh.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    std::fprintf(truth, "epoch %u packets %" PRIu64 " entropy %.12f hh %zu\n", e,
                 w->epoch_packets, entropy, hh.size());
    for (const auto& [key, f] : hh) {
      print_key(truth, key);
      std::fprintf(truth, " %" PRIu64 "\n", f);
    }
    if (e == 0) epoch0.assign(counts.begin(), counts.end());
  }

  // /flow query keys: the four largest flows of epoch 0 and four of its
  // smallest, ordered deterministically.
  std::sort(epoch0.begin(), epoch0.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second > b.second : a.first < b.first;
  });
  std::vector<FlowKey> flow_keys;
  for (std::size_t i = 0; i < 4 && i < epoch0.size(); ++i) flow_keys.push_back(epoch0[i].first);
  for (std::size_t i = 0; i < 4 && i < epoch0.size(); ++i) {
    flow_keys.push_back(epoch0[epoch0.size() - 1 - i].first);
  }
  std::fprintf(truth, "flowkeys %zu\n", flow_keys.size());
  for (const auto& k : flow_keys) {
    print_key(truth, k);
    std::fprintf(truth, "\n");
  }
  std::fclose(truth);

  std::FILE* props = std::fopen((out_dir + "/workload.json").c_str(), "w");
  if (props == nullptr) {
    std::perror("workload.json");
    return 1;
  }
  std::fprintf(props,
               "{\"workload\": \"%s\", \"seed\": %" PRIu64 ", \"traffic\": \"%s\", "
               "\"format\": \"%s\", \"flows\": %" PRIu64 ", \"zipf_s\": %.2f, "
               "\"mean_packet_bytes\": %.1f, \"packets_per_pass\": %zu, "
               "\"epoch_packets\": %" PRIu64 ", \"epochs_per_pass\": %u, "
               "\"mean_distinct_flows_per_epoch\": %.1f, \"data_plane\": \"%s\", "
               "\"workers\": %u, \"burst\": %u, \"checkpoint_full_every\": %u, "
               "\"hh_fraction\": %g, \"cadence_ms\": %.0f, \"loop\": \"open\"}\n",
               w->name, seed, w->traffic, w->format, w->flows, w->zipf_s,
               w->mean_packet_bytes, trace.size(), w->epoch_packets, w->epochs_per_pass,
               static_cast<double>(distinct_total) / w->epochs_per_pass,
               w->workers == 0 ? "inline" : "sharded", w->workers, perfledger::kBurst,
               perfledger::kFullEvery, perfledger::kHhFraction, w->cadence_ms);
  std::fclose(props);
  return 0;
}
