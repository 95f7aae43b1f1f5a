#include "export/wire.hpp"

#include <cstring>
#include <stdexcept>
#include <string>

namespace nitro::xport {

using control::ByteReader;
using control::ByteWriter;
using control::kFrameHeaderBytes;

namespace {
/// Version gate before any field decode: a frame tagged with any version
/// but ours is rejected by name here, never interpreted through our
/// layout.
void check_version(std::uint32_t version, const char* what) {
  if (version != kWireVersion) {
    throw std::invalid_argument(std::string(what) + ": unsupported version " +
                                std::to_string(version) + " (speaks " +
                                std::to_string(kWireVersion) + ")");
  }
}
}  // namespace

std::vector<std::uint8_t> encode_epoch(const EpochMessage& msg) {
  ByteWriter w;
  w.put_u32(kEpochMsgMagic);
  w.put_u32(kWireVersion);
  w.put_u64(msg.source_id);
  w.put_u64(msg.seq_first);
  w.put_u64(msg.seq_last);
  w.put_u64(msg.span.first);
  w.put_u64(msg.span.last);
  w.put_i64(msg.packets);
  w.put_u64(msg.epoch_close_ns);
  w.put_u64(msg.send_ns);
  w.put_u64(msg.seed_gen);
  w.put_blob(msg.snapshot);
  return control::seal_frame(w.bytes());
}

std::vector<std::uint8_t> encode_ack(const AckMessage& ack) {
  ByteWriter w;
  w.put_u32(kAckMsgMagic);
  w.put_u32(kWireVersion);
  w.put_u64(ack.source_id);
  w.put_u64(ack.seq_last);
  w.put_u8(static_cast<std::uint8_t>(ack.status));
  return control::seal_frame(w.bytes());
}

EpochMessage decode_epoch(std::span<const std::uint8_t> frame) {
  ByteReader r(control::open_frame(frame));
  if (r.get_u32() != kEpochMsgMagic) {
    throw std::invalid_argument("epoch msg: bad magic");
  }
  check_version(r.get_u32(), "epoch msg");
  EpochMessage msg;
  msg.source_id = r.get_u64();
  msg.seq_first = r.get_u64();
  msg.seq_last = r.get_u64();
  msg.span.first = r.get_u64();
  msg.span.last = r.get_u64();
  msg.packets = r.get_i64();
  msg.epoch_close_ns = r.get_u64();
  msg.send_ns = r.get_u64();
  msg.seed_gen = r.get_u64();
  msg.snapshot = r.get_blob();
  if (!r.exhausted()) {
    throw std::invalid_argument("epoch msg: trailing bytes");
  }
  if (msg.seq_first == 0 || msg.seq_first > msg.seq_last) {
    throw std::invalid_argument("epoch msg: bad sequence range");
  }
  if (msg.span.first > msg.span.last) {
    throw std::invalid_argument("epoch msg: bad epoch span");
  }
  // The sequence range and the epoch span both count coalesced epochs;
  // a mismatch means a corrupt or forged header the CRC happened to bless.
  if (msg.seq_last - msg.seq_first != msg.span.last - msg.span.first) {
    throw std::invalid_argument("epoch msg: sequence/span width mismatch");
  }
  return msg;
}

AckMessage decode_ack(std::span<const std::uint8_t> frame) {
  ByteReader r(control::open_frame(frame));
  if (r.get_u32() != kAckMsgMagic) {
    throw std::invalid_argument("ack msg: bad magic");
  }
  check_version(r.get_u32(), "ack msg");
  AckMessage ack;
  ack.source_id = r.get_u64();
  ack.seq_last = r.get_u64();
  const std::uint8_t status = r.get_u8();
  if (!r.exhausted()) {
    throw std::invalid_argument("ack msg: trailing bytes");
  }
  if (status < static_cast<std::uint8_t>(AckStatus::kApplied) ||
      status > static_cast<std::uint8_t>(AckStatus::kOverlapDropped)) {
    throw std::invalid_argument("ack msg: unknown status");
  }
  ack.status = static_cast<AckStatus>(status);
  return ack;
}

std::vector<std::uint8_t> encode_recover_request(const RecoverRequest& req) {
  ByteWriter w;
  w.put_u32(kRecoverReqMagic);
  w.put_u32(kWireVersion);
  w.put_u64(req.source_id);
  return control::seal_frame(w.bytes());
}

std::vector<std::uint8_t> encode_recover_response(const RecoverResponse& resp) {
  ByteWriter w;
  w.put_u32(kRecoverRespMagic);
  w.put_u32(kWireVersion);
  w.put_u64(resp.source_id);
  w.put_u8(resp.found ? 1 : 0);
  w.put_u64(resp.last_seq);
  w.put_u64(resp.span.first);
  w.put_u64(resp.span.last);
  w.put_i64(resp.packets);
  w.put_u64(resp.seed_gen);
  w.put_blob(resp.snapshot);
  return control::seal_frame(w.bytes());
}

RecoverRequest decode_recover_request(std::span<const std::uint8_t> frame) {
  ByteReader r(control::open_frame(frame));
  if (r.get_u32() != kRecoverReqMagic) {
    throw std::invalid_argument("recover req: bad magic");
  }
  check_version(r.get_u32(), "recover req");
  RecoverRequest req;
  req.source_id = r.get_u64();
  if (!r.exhausted()) {
    throw std::invalid_argument("recover req: trailing bytes");
  }
  return req;
}

RecoverResponse decode_recover_response(std::span<const std::uint8_t> frame) {
  ByteReader r(control::open_frame(frame));
  if (r.get_u32() != kRecoverRespMagic) {
    throw std::invalid_argument("recover resp: bad magic");
  }
  check_version(r.get_u32(), "recover resp");
  RecoverResponse resp;
  resp.source_id = r.get_u64();
  resp.found = r.get_u8() != 0;
  resp.last_seq = r.get_u64();
  resp.span.first = r.get_u64();
  resp.span.last = r.get_u64();
  resp.packets = r.get_i64();
  resp.seed_gen = r.get_u64();
  resp.snapshot = r.get_blob();
  if (!r.exhausted()) {
    throw std::invalid_argument("recover resp: trailing bytes");
  }
  if (resp.found && resp.last_seq == 0) {
    throw std::invalid_argument("recover resp: found with zero last_seq");
  }
  if (resp.span.first > resp.span.last) {
    throw std::invalid_argument("recover resp: bad epoch span");
  }
  return resp;
}

std::uint32_t peek_message_magic(std::span<const std::uint8_t> frame) {
  const auto payload = control::open_frame(frame);
  if (payload.size() < 4) {
    throw std::invalid_argument("wire msg: payload too short for magic");
  }
  std::uint32_t magic;
  std::memcpy(&magic, payload.data(), sizeof magic);
  return magic;
}

bool FrameAssembler::next_frame(std::vector<std::uint8_t>& out) {
  if (buf_.size() < kFrameHeaderBytes) return false;
  // Throws on bad magic/version: a byte stream cannot resync after
  // garbage, so the connection is poisoned and the caller drops it.
  const control::FrameHeader h = control::parse_frame_header(buf_);
  if (h.payload_len > max_frame_bytes_) {
    throw std::invalid_argument("frame: oversized payload (corrupt length?)");
  }
  const std::size_t total = kFrameHeaderBytes + static_cast<std::size_t>(h.payload_len);
  if (buf_.size() < total) return false;
  out.assign(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(total));
  buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(total));
  return true;
}

}  // namespace nitro::xport
