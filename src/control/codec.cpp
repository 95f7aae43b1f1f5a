#include "control/codec.hpp"

#include <algorithm>
#include <string>
#include <utility>

namespace nitro::control {

namespace {
constexpr std::uint32_t kMatrixMagic = 0x4e4d5458;  // "NMTX"
constexpr std::uint32_t kHeapMagic = 0x4e484150;    // "NHAP"
constexpr std::uint32_t kUnivMagic = 0x4e554d31;    // "NUM1"
constexpr std::uint32_t kMatrixDeltaMagic = 0x4e4d4458;  // "NMDX"
constexpr std::uint32_t kUnivDeltaMagic = 0x4e554d44;    // "NUMD"

/// Live counters covered by the dirty-segment run [start, start + len) of
/// a row of width `width`: the run's segments are adjacent, so they are
/// one contiguous slice of the row (only a row's last segment is short).
std::pair<std::size_t, std::size_t> run_counters(std::uint32_t start,
                                                 std::uint32_t len,
                                                 std::uint32_t width) {
  const std::size_t first =
      std::size_t{start} * sketch::CounterMatrix::kSegmentCounters;
  const std::size_t last = std::min<std::size_t>(
      std::size_t{start + len} * sketch::CounterMatrix::kSegmentCounters, width);
  return {first, last > first ? last - first : 0};
}

/// Adjacent dirty segments of row `r`, coalesced into (start, len) runs.
std::vector<std::pair<std::uint32_t, std::uint32_t>> dirty_runs(
    const sketch::CounterMatrix& m, std::uint32_t r) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> runs;
  for (std::uint32_t s = 0; s < m.segments_per_row(); ++s) {
    if (!m.segment_dirty(r, s)) continue;
    if (!runs.empty() && runs.back().first + runs.back().second == s) {
      ++runs.back().second;
    } else {
      runs.emplace_back(s, 1);
    }
  }
  return runs;
}

// Exact encoded sizes, so the snapshot encoders allocate once.
constexpr std::size_t kMatrixHeaderBytes = 4 + 4 + 4 + 1;

std::size_t matrix_bytes(const sketch::CounterMatrix& m) {
  return kMatrixHeaderBytes +
         std::size_t{m.depth()} * m.width() * sizeof(std::int64_t);
}

std::size_t matrix_delta_bytes(const sketch::CounterMatrix& m) {
  std::size_t n = kMatrixHeaderBytes;
  if (!m.dirty_tracking()) return n;  // write_matrix_delta rejects it
  for (std::uint32_t r = 0; r < m.depth(); ++r) {
    n += 4;
    for (const auto& [start, len] : dirty_runs(m, r)) {
      n += 4 + 4 + run_counters(start, len, m.width()).second * sizeof(std::int64_t);
    }
  }
  return n;
}

std::size_t heap_bytes(const sketch::TopKHeap& heap) {
  return 4 + 4 + heap.size() * (sizeof(FlowKey) + sizeof(std::int64_t));
}
}  // namespace

std::vector<std::uint8_t> seal_frame(std::span<const std::uint8_t> payload) {
  ByteWriter w;
  w.put_u32(kFrameMagic);
  w.put_u32(kFrameVersion);
  w.put_u64(payload.size());
  w.put_u32(crc32(payload));
  std::vector<std::uint8_t> out = std::move(w).take();
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

FrameHeader parse_frame_header(std::span<const std::uint8_t> bytes) {
  if (bytes.empty()) {
    throw std::invalid_argument("frame: zero-length buffer");
  }
  if (bytes.size() < kFrameHeaderBytes) {
    throw std::invalid_argument("frame: truncated header");
  }
  ByteReader r(bytes);
  if (r.get_u32() != kFrameMagic) {
    throw std::invalid_argument("frame: bad magic");
  }
  FrameHeader h;
  h.version = r.get_u32();
  if (h.version != kFrameVersion) {
    throw std::invalid_argument("frame: unsupported version " +
                                std::to_string(h.version));
  }
  h.payload_len = r.get_u64();
  h.crc = r.get_u32();
  return h;
}

std::span<const std::uint8_t> open_frame(std::span<const std::uint8_t> bytes) {
  const FrameHeader h = parse_frame_header(bytes);
  const std::span<const std::uint8_t> payload = bytes.subspan(kFrameHeaderBytes);
  if (h.payload_len != payload.size()) {
    throw std::invalid_argument(
        h.payload_len > payload.size() ? "frame: truncated payload"
                                       : "frame: trailing bytes after payload");
  }
  if (crc32(payload) != h.crc) {
    throw std::invalid_argument("frame: CRC mismatch (corrupt payload)");
  }
  return payload;
}

void write_matrix(ByteWriter& w, const sketch::CounterMatrix& m) {
  w.put_u32(kMatrixMagic);
  w.put_u32(m.depth());
  w.put_u32(m.width());
  w.put_u8(m.signed_updates() ? 1 : 0);
  for (std::uint32_t r = 0; r < m.depth(); ++r) w.put_i64s(m.row(r));
}

void read_matrix_into(ByteReader& r, sketch::CounterMatrix& m) {
  if (r.get_u32() != kMatrixMagic) {
    throw std::invalid_argument("snapshot: bad matrix magic");
  }
  const std::uint32_t depth = r.get_u32();
  const std::uint32_t width = r.get_u32();
  const bool is_signed = r.get_u8() != 0;
  if (depth != m.depth() || width != m.width() || is_signed != m.signed_updates()) {
    throw std::invalid_argument("snapshot: matrix shape mismatch with replica");
  }
  for (std::uint32_t row = 0; row < depth; ++row) r.get_i64s(m.row_mut(row));
}

void write_matrix_delta(ByteWriter& w, const sketch::CounterMatrix& m) {
  if (!m.dirty_tracking()) {
    throw std::logic_error(
        "delta: dirty tracking not enabled on the source matrix");
  }
  w.put_u32(kMatrixDeltaMagic);
  w.put_u32(m.depth());
  w.put_u32(m.width());
  w.put_u8(m.signed_updates() ? 1 : 0);
  for (std::uint32_t r = 0; r < m.depth(); ++r) {
    const auto runs = dirty_runs(m, r);
    w.put_u32(static_cast<std::uint32_t>(runs.size()));
    for (const auto& [start, len] : runs) {
      w.put_u32(start);
      w.put_u32(len);
    }
    const auto row = m.row(r);
    for (const auto& [start, len] : runs) {
      const auto [first, count] = run_counters(start, len, m.width());
      w.put_i64s(row.subspan(first, count));
    }
  }
}

void apply_matrix_delta(ByteReader& r, sketch::CounterMatrix& m) {
  if (r.get_u32() != kMatrixDeltaMagic) {
    throw std::invalid_argument("delta: bad matrix-delta magic");
  }
  const std::uint32_t depth = r.get_u32();
  const std::uint32_t width = r.get_u32();
  const bool is_signed = r.get_u8() != 0;
  if (depth != m.depth() || width != m.width() || is_signed != m.signed_updates()) {
    throw std::invalid_argument("delta: matrix shape mismatch with replica");
  }
  const std::uint32_t segs =
      (width + sketch::CounterMatrix::kSegmentCounters - 1) /
      sketch::CounterMatrix::kSegmentCounters;
  for (std::uint32_t row = 0; row < depth; ++row) {
    const std::uint32_t run_count = r.get_u32();
    if (run_count > segs) {
      throw std::invalid_argument("delta: run count exceeds segments per row");
    }
    std::vector<std::pair<std::uint32_t, std::uint32_t>> runs;
    runs.reserve(run_count);
    std::uint32_t next_free = 0;  // runs must be ordered and disjoint
    for (std::uint32_t i = 0; i < run_count; ++i) {
      const std::uint32_t start = r.get_u32();
      const std::uint32_t len = r.get_u32();
      if (len == 0) throw std::invalid_argument("delta: zero-length run");
      if (i > 0 && start < next_free) {
        throw std::invalid_argument("delta: unordered or overlapping runs");
      }
      if (start >= segs || len > segs - start) {
        throw std::invalid_argument("delta: run past the end of the row");
      }
      next_free = start + len;
      runs.emplace_back(start, len);
    }
    auto dst = m.row_mut(row);
    for (const auto& [start, len] : runs) {
      const auto [first, count] = run_counters(start, len, width);
      r.get_i64s(dst.subspan(first, count));
    }
  }
}

void write_heap(ByteWriter& w, const sketch::TopKHeap& heap) {
  w.put_u32(kHeapMagic);
  const auto entries = heap.entries_sorted();
  w.put_u32(static_cast<std::uint32_t>(entries.size()));
  for (const auto& e : entries) {
    w.put_key(e.key);
    w.put_i64(e.estimate);
  }
}

void read_heap_into(ByteReader& r, sketch::TopKHeap& heap) {
  if (r.get_u32() != kHeapMagic) {
    throw std::invalid_argument("snapshot: bad heap magic");
  }
  const std::uint32_t n = r.get_u32();
  heap.clear();
  for (std::uint32_t i = 0; i < n; ++i) {
    const FlowKey key = r.get_key();
    const std::int64_t est = r.get_i64();
    heap.offer(key, est);
  }
}

std::vector<std::uint8_t> snapshot_univmon(const sketch::UnivMon& um) {
  std::size_t n = 4 + 4 + 8;
  for (std::uint32_t j = 0; j < um.num_levels(); ++j) {
    n += matrix_bytes(um.level_sketch(j).matrix()) + heap_bytes(um.level_heap(j));
  }
  ByteWriter w;
  w.reserve(n);
  w.put_u32(kUnivMagic);
  w.put_u32(um.num_levels());
  w.put_i64(um.total());
  for (std::uint32_t j = 0; j < um.num_levels(); ++j) {
    write_matrix(w, um.level_sketch(j).matrix());
    write_heap(w, um.level_heap(j));
  }
  return seal_frame(w.bytes());
}

void load_univmon(std::span<const std::uint8_t> bytes, sketch::UnivMon& replica) {
  ByteReader r(open_frame(bytes));
  if (r.get_u32() != kUnivMagic) {
    throw std::invalid_argument("snapshot: bad UnivMon magic");
  }
  const std::uint32_t levels = r.get_u32();
  if (levels != replica.num_levels()) {
    throw std::invalid_argument("snapshot: level count mismatch with replica");
  }
  replica.set_total(r.get_i64());
  for (std::uint32_t j = 0; j < levels; ++j) {
    read_matrix_into(r, replica.level_sketch_mut(j).matrix());
    read_heap_into(r, replica.level_heap_mut(j));
  }
  if (!r.exhausted()) {
    throw std::invalid_argument("snapshot: trailing bytes");
  }
}

std::vector<std::uint8_t> snapshot_univmon_delta(const sketch::UnivMon& um) {
  std::size_t n = 4 + 4 + 8;
  for (std::uint32_t j = 0; j < um.num_levels(); ++j) {
    n += matrix_delta_bytes(um.level_sketch(j).matrix()) +
         heap_bytes(um.level_heap(j));
  }
  ByteWriter w;
  w.reserve(n);
  w.put_u32(kUnivDeltaMagic);
  w.put_u32(um.num_levels());
  w.put_i64(um.total());
  for (std::uint32_t j = 0; j < um.num_levels(); ++j) {
    write_matrix_delta(w, um.level_sketch(j).matrix());
    write_heap(w, um.level_heap(j));
  }
  return seal_frame(w.bytes());
}

void apply_univmon_delta(std::span<const std::uint8_t> bytes,
                         sketch::UnivMon& replica) {
  ByteReader r(open_frame(bytes));
  if (r.get_u32() != kUnivDeltaMagic) {
    throw std::invalid_argument("delta: bad UnivMon-delta magic");
  }
  const std::uint32_t levels = r.get_u32();
  if (levels != replica.num_levels()) {
    throw std::invalid_argument("delta: level count mismatch with replica");
  }
  replica.set_total(r.get_i64());
  for (std::uint32_t j = 0; j < levels; ++j) {
    apply_matrix_delta(r, replica.level_sketch_mut(j).matrix());
    read_heap_into(r, replica.level_heap_mut(j));
  }
  if (!r.exhausted()) {
    throw std::invalid_argument("delta: trailing bytes");
  }
}

}  // namespace nitro::control
