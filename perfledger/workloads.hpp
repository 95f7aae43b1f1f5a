// Workload table shared by the input generator (ledger_gen) and the
// measured harness (ledger).  One row per benchmark workload; see
// README.md (and the `why` lines in BENCHMARK.json) for why each exists
// and which layers it stresses.
#pragma once

#include <cstdint>
#include <cstring>

namespace perfledger {

struct WorkloadDef {
  const char* name;
  const char* traffic;        // trace generator: caida | ddos | datacenter
  const char* format;         // input file: pcap (full L2/L3 parse) | ntr (NTR1 records)
  std::uint64_t flows;        // flow-space size (sources for ddos)
  double zipf_s;              // generator skew (informational for ddos/datacenter)
  double mean_packet_bytes;   // generator packet-size mean (informational)
  std::uint64_t epoch_packets;
  std::uint32_t epochs_per_pass;  // one pass = one replay of the input file
  std::uint32_t workers;          // 0 = inline (AIO) data plane, else ShardGroup workers
  double cadence_ms;              // open-loop epoch period (floor; see ledger.cpp)
};

// Settings every workload shares.
inline constexpr std::uint32_t kBurst = 32;     // IngestLoop rx burst
inline constexpr std::uint32_t kFullEvery = 4;  // a full checkpoint frame every N (nitro_monitor's default)
inline constexpr double kHhFraction = 0.0005;   // daemon heavy-hitter / change threshold

inline constexpr WorkloadDef kWorkloads[] = {
    {"caida-aio", "caida", "pcap", 100'000, 1.0, 714.0, 250'000, 8, 0, 250},
    {"ddos-sharded", "ddos", "ntr", 1'000'000, 0.4, 272.0, 250'000, 8, 2, 270},
    {"epoch-export", "datacenter", "ntr", 100'000, 1.3, 747.0, 50'000, 20, 0, 140},
};

inline const WorkloadDef* find_workload(const char* name) {
  for (const auto& w : kWorkloads) {
    if (std::strcmp(w.name, name) == 0) return &w;
  }
  return nullptr;
}

}  // namespace perfledger
