#include "control/checkpoint.hpp"

#include <sys/stat.h>
#include <sys/types.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <stdexcept>

#include "common/io.hpp"
#include "control/codec.hpp"
#include "fault/fault.hpp"
#include "telemetry/trace.hpp"

namespace nitro::control {

CheckpointStore::CheckpointStore(std::string dir) : dir_(std::move(dir)) {
  struct stat st{};
  if (::stat(dir_.c_str(), &st) == 0) {
    if (!S_ISDIR(st.st_mode)) {
      throw std::runtime_error("CheckpointStore: not a directory: " + dir_);
    }
    return;
  }
  if (::mkdir(dir_.c_str(), 0755) != 0 && errno != EEXIST) {
    throw std::runtime_error("CheckpointStore: cannot create " + dir_ + ": " +
                             std::strerror(errno));
  }
}

std::string CheckpointStore::tmp_path(const std::string& name) const {
  return dir_ + "/" + name + ".tmp";
}

// --- Delta-checkpoint chains (DESIGN.md §15) --------------------------------

namespace {

/// Inner chain header, CRC-framed like every other checkpoint: kind, the
/// frame's own sequence number and the base generation it is rooted at.
/// Seq and base_gen live *inside* the frame so a file renamed or swapped
/// on disk fails validation instead of silently joining the wrong chain.
constexpr std::uint32_t kChainMagic = 0x4e434831u;  // "NCH1"
constexpr std::uint8_t kChainKindFull = 1;
constexpr std::uint8_t kChainKindDelta = 2;

struct ChainEntry {
  std::uint64_t seq = 0;
  bool full = false;
  std::string path;
};

/// Parse `<name>.NNNNNN.full|.delta` file names belonging to `name`.
bool parse_chain_entry(const std::string& filename, const std::string& name,
                       ChainEntry* out) {
  if (filename.size() <= name.size() + 1 ||
      filename.compare(0, name.size(), name) != 0 ||
      filename[name.size()] != '.') {
    return false;
  }
  const std::string rest = filename.substr(name.size() + 1);
  const auto dot = rest.find('.');
  if (dot == std::string::npos || dot == 0) return false;
  const std::string seq_str = rest.substr(0, dot);
  const std::string kind = rest.substr(dot + 1);
  if (kind != "full" && kind != "delta") return false;
  std::uint64_t seq = 0;
  for (char c : seq_str) {
    if (c < '0' || c > '9') return false;
    seq = seq * 10 + static_cast<std::uint64_t>(c - '0');
  }
  out->seq = seq;
  out->full = kind == "full";
  out->path = filename;
  return true;
}

/// All chain frames of `name` in `dir`, sorted by sequence number.
std::vector<ChainEntry> scan_chain(const std::string& dir, const std::string& name) {
  std::vector<ChainEntry> entries;
  std::error_code ec;
  for (const auto& de : std::filesystem::directory_iterator(dir, ec)) {
    ChainEntry e;
    if (parse_chain_entry(de.path().filename().string(), name, &e)) {
      e.path = dir + "/" + e.path;
      entries.push_back(std::move(e));
    }
  }
  std::sort(entries.begin(), entries.end(),
            [](const ChainEntry& a, const ChainEntry& b) { return a.seq < b.seq; });
  return entries;
}

/// Decoded chain header + payload of one validated frame.
struct ChainFrame {
  std::uint8_t kind = 0;
  std::uint64_t seq = 0;
  std::uint64_t base_gen = 0;
  std::vector<std::uint8_t> payload;
};

/// Read + validate one chain frame (CRC, header, self-declared seq).
/// Throws std::invalid_argument on any mismatch; the kChainLoad fault
/// point (lane = seq) can rot the bytes before validation.
ChainFrame read_chain_frame(const std::string& path, std::uint64_t want_seq) {
  std::vector<std::uint8_t> bytes;
  if (!io::read_file(path, bytes)) {
    throw std::invalid_argument(path + ": unreadable");
  }
  if (fault::point(fault::Site::kChainLoad,
                   static_cast<std::uint32_t>(want_seq)) ==
      fault::Action::kCorrupt) {
    const fault::Schedule* s = fault::installed();
    fault::corrupt_bytes(bytes, s != nullptr ? s->seed() : 0);
  }
  ByteReader r(open_frame(bytes));
  ChainFrame f;
  if (r.get_u32() != kChainMagic) {
    throw std::invalid_argument(path + ": bad chain magic");
  }
  f.kind = r.get_u8();
  if (f.kind != kChainKindFull && f.kind != kChainKindDelta) {
    throw std::invalid_argument(path + ": unknown chain frame kind");
  }
  f.seq = r.get_u64();
  f.base_gen = r.get_u64();
  if (f.seq != want_seq) {
    throw std::invalid_argument(path + ": frame seq does not match file name");
  }
  f.payload = r.get_blob();
  if (!r.exhausted()) {
    throw std::invalid_argument(path + ": trailing bytes");
  }
  return f;
}

}  // namespace

std::string CheckpointStore::chain_path(const std::string& name,
                                        std::uint64_t seq, bool full) const {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%06" PRIu64, seq);
  return dir_ + "/" + name + "." + buf + (full ? ".full" : ".delta");
}

CheckpointStore::ChainState& CheckpointStore::chain_state(const std::string& name) {
  ChainState& st = chains_[name];
  if (!st.scanned) {
    // Lazy resume scan: a restarted process continues the on-disk chain
    // instead of recycling sequence numbers.
    for (const ChainEntry& e : scan_chain(dir_, name)) {
      if (e.seq >= st.next_seq) st.next_seq = e.seq + 1;
      if (e.full && e.seq > st.base_gen) st.base_gen = e.seq;
    }
    st.scanned = true;
  }
  return st;
}

CheckpointStore::ChainSave CheckpointStore::save_frame(
    const std::string& name, bool full, std::span<const std::uint8_t> payload) {
  telemetry::ScopedSpan trace(telemetry::Stage::kCheckpoint);
  ChainState& st = chain_state(name);
  ChainSave out;
  if (!full && st.base_gen == 0) {
    // A delta with no reachable base can never be restored; refuse it so
    // the caller falls back to a full frame.
    if (save_failures_) save_failures_->inc();
    return out;
  }
  out.seq = st.next_seq;
  out.base_gen = full ? out.seq : st.base_gen;

  ByteWriter w;
  w.put_u32(kChainMagic);
  w.put_u8(full ? kChainKindFull : kChainKindDelta);
  w.put_u64(out.seq);
  w.put_u64(out.base_gen);
  w.put_blob(payload);
  std::vector<std::uint8_t> frame = seal_frame(w.bytes());

  // Torn-write injection: the rename completes but only a prefix of the
  // data blocks reached disk — exactly the corruption the CRC exists to
  // catch at restore time.
  std::uint64_t keep = frame.size();
  if (fault::point(fault::Site::kCheckpointWrite, 0, &keep) ==
      fault::Action::kTornWrite) {
    if (keep > frame.size()) keep = frame.size() / 2;
    frame.resize(static_cast<std::size_t>(keep));
  }

  const std::string tmp = tmp_path(name);
  const std::string final_path = chain_path(name, out.seq, full);
  if (!io::write_file_fsync(tmp, frame)) {
    if (save_failures_) save_failures_->inc();
    return out;
  }
  if (::rename(tmp.c_str(), final_path.c_str()) != 0) {
    if (save_failures_) save_failures_->inc();
    return out;
  }
  io::fsync_dir(dir_);
  st.next_seq = out.seq + 1;
  if (full) st.base_gen = out.seq;
  out.ok = true;
  if (chain_frames_) chain_frames_->inc();
  if (last_bytes_) last_bytes_->set(static_cast<double>(frame.size()));
  gc_chain(name);
  return out;
}

void CheckpointStore::gc_chain(const std::string& name) {
  const ChainState& st = chains_[name];
  std::vector<ChainEntry> entries = scan_chain(dir_, name);
  if (entries.size() <= retention_) return;
  std::uint64_t excess = entries.size() - retention_;
  for (const ChainEntry& e : entries) {
    if (excess == 0) break;
    // Never delete the live chain: the newest full frame and everything
    // after it must stay restorable regardless of the retention budget.
    if (e.seq >= st.base_gen) break;
    std::error_code ec;
    if (std::filesystem::remove(e.path, ec)) {
      if (chain_gc_deleted_) chain_gc_deleted_->inc();
      --excess;
    }
  }
}

CheckpointStore::ChainRestored CheckpointStore::load_chain(
    const std::string& name) const {
  ChainRestored out;
  const std::vector<ChainEntry> entries = scan_chain(dir_, name);
  if (entries.empty()) return out;

  // Newest full first; fall back across corrupt bases.
  for (std::size_t fi = entries.size(); fi-- > 0;) {
    if (!entries[fi].full) continue;
    ChainFrame base;
    try {
      base = read_chain_frame(entries[fi].path, entries[fi].seq);
      if (base.kind != kChainKindFull || base.base_gen != base.seq) {
        throw std::invalid_argument(entries[fi].path +
                                    ": full frame with foreign base_gen");
      }
    } catch (const std::invalid_argument& e) {
      ++out.frames_rejected;
      if (chain_rejected_) chain_rejected_->inc();
      if (out.error.empty()) out.error = e.what();
      continue;  // older full, if any
    }

    out.found = true;
    out.base = std::move(base.payload);
    out.base_gen = base.seq;
    out.last_seq = base.seq;

    // Contiguous deltas rooted at this base; the first gap, torn frame or
    // forged base-generation truncates the chain (prefix still valid).
    std::uint64_t want = base.seq + 1;
    for (std::size_t di = fi + 1; di < entries.size(); ++di) {
      const ChainEntry& e = entries[di];
      if (e.seq != want || e.full) break;
      try {
        ChainFrame d = read_chain_frame(e.path, e.seq);
        if (d.kind != kChainKindDelta) {
          throw std::invalid_argument(e.path + ": expected a delta frame");
        }
        if (d.base_gen != out.base_gen) {
          throw std::invalid_argument(e.path +
                                      ": delta rooted at a different base");
        }
        out.deltas.push_back(std::move(d.payload));
        out.last_seq = e.seq;
        ++want;
      } catch (const std::invalid_argument& ex) {
        ++out.frames_rejected;
        if (chain_rejected_) chain_rejected_->inc();
        if (out.error.empty()) out.error = ex.what();
        break;
      }
    }
    break;
  }
  if (out.found && restores_) restores_->inc();
  return out;
}

void CheckpointStore::attach_telemetry(telemetry::Registry& registry,
                                       const std::string& prefix) {
  save_failures_ = &registry.counter(prefix + "_save_failures_total",
                                     "checkpoint writes that failed");
  restores_ = &registry.counter(prefix + "_restores_total",
                                "checkpoints successfully restored");
  chain_frames_ = &registry.counter(prefix + "_chain_frames_total",
                                    "delta-chain frames written (full + delta)");
  chain_rejected_ =
      &registry.counter(prefix + "_chain_rejected_total",
                        "chain frames rejected at restore (torn/corrupt/forged)");
  chain_gc_deleted_ = &registry.counter(
      prefix + "_chain_gc_deleted_total",
      "chain frames deleted by retention GC (never the live chain)");
  last_bytes_ = &registry.gauge(prefix + "_last_bytes",
                                "size of the last checkpoint frame written");
}

}  // namespace nitro::control
