#include "serve/protocol.hpp"

#include <algorithm>

namespace hotlib::serve {

const char* error_code_name(ErrorCode c) {
  switch (c) {
    case ErrorCode::kMalformedFrame: return "malformed-frame";
    case ErrorCode::kBadChecksum: return "bad-checksum";
    case ErrorCode::kBadVersion: return "bad-version";
    case ErrorCode::kBadType: return "bad-type";
    case ErrorCode::kBadRequest: return "bad-request";
    case ErrorCode::kUnknownSim: return "unknown-sim";
    case ErrorCode::kBusy: return "busy";
  }
  return "unknown";
}

const char* decode_error_name(DecodeError e) {
  switch (e) {
    case DecodeError::kNone: return "none";
    case DecodeError::kBadMagic: return "bad-magic";
    case DecodeError::kOversized: return "oversized";
    case DecodeError::kBadVersion: return "bad-version";
    case DecodeError::kBadType: return "bad-type";
    case DecodeError::kBadChecksum: return "bad-checksum";
  }
  return "unknown";
}

parc::Bytes encode_frame(FrameType type, std::uint32_t tenant,
                         std::uint64_t request_id,
                         std::span<const std::uint8_t> payload,
                         TraceWire trace) {
  FrameHeader h;
  h.type = static_cast<std::uint16_t>(type);
  h.tenant = tenant;
  h.payload_bytes = static_cast<std::uint32_t>(payload.size());
  h.request_id = request_id;
  h.trace_id = trace.trace_id;
  h.parent_span = trace.parent_span;
  h.trace_flags = trace.sampled ? kTraceFlagSampled : 0u;
  h.checksum = frame_checksum(h, payload.data(), payload.size());
  parc::Bytes out(sizeof(FrameHeader) + payload.size());
  std::memcpy(out.data(), &h, sizeof(h));
  if (!payload.empty())
    std::memcpy(out.data() + sizeof(h), payload.data(), payload.size());
  return out;
}

void FrameDecoder::feed(std::span<const std::uint8_t> data) {
  if (poisoned_ && poison_reported_) return;  // stream is dead; drop bytes
  buf_.insert(buf_.end(), data.begin(), data.end());
}

void FrameDecoder::compact() {
  // Reclaim consumed prefix once it dominates the buffer, so a long-lived
  // connection doesn't grow its receive buffer without bound.
  if (pos_ > 4096 && pos_ * 2 > buf_.size()) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
}

std::optional<FrameDecoder::Event> FrameDecoder::next() {
  if (poisoned_) {
    if (poison_reported_) return std::nullopt;
    poison_reported_ = true;
    Event ev;
    ev.ok = false;
    ev.error = poison_error_;
    return ev;
  }
  // The header fields before the checksum (magic, version, length, and the
  // tenant / request id an error reply is attributed to) decide whether the
  // stream can be framed at all, so judge them as soon as they are here.
  constexpr std::size_t kJudgedBytes = offsetof(FrameHeader, checksum);
  if (buf_.size() - pos_ < kJudgedBytes) return std::nullopt;
  FrameHeader h{};
  std::memcpy(static_cast<void*>(&h), buf_.data() + pos_, kJudgedBytes);
  if (h.magic != kFrameMagic || h.payload_bytes > kMaxFramePayload ||
      h.version != kProtocolVersion) {
    // Framing is broken: wrong magic / absurd length mean we cannot know
    // where the next frame starts; any other protocol version means we
    // cannot know how long its header is. Either way resynchronization is
    // impossible. Poison the stream.
    poisoned_ = true;
    poison_reported_ = true;
    poison_error_ = h.magic != kFrameMagic           ? DecodeError::kBadMagic
                    : h.version != kProtocolVersion ? DecodeError::kBadVersion
                                                    : DecodeError::kOversized;
    buf_.clear();
    pos_ = 0;
    Event ev;
    ev.ok = false;
    ev.error = poison_error_;
    ev.tenant = h.magic == kFrameMagic ? h.tenant : 0;
    ev.request_id = h.magic == kFrameMagic ? h.request_id : 0;
    return ev;
  }
  if (buf_.size() - pos_ < sizeof(FrameHeader) + h.payload_bytes)
    return std::nullopt;  // wait for the rest of the header + payload
  std::memcpy(&h, buf_.data() + pos_, sizeof(h));
  // Validate and copy out of the buffer *before* advancing pos_: compact()
  // may slide the buffer and would invalidate a raw payload pointer.
  const std::uint8_t* payload = buf_.data() + pos_ + sizeof(FrameHeader);
  Event ev;
  ev.tenant = h.tenant;
  ev.request_id = h.request_id;
  if (h.type < kFrameTypeMin || h.type > kFrameTypeMax) {
    ev.ok = false;
    ev.error = DecodeError::kBadType;
  } else if (frame_checksum(h, payload, h.payload_bytes) != h.checksum) {
    ev.ok = false;
    ev.error = DecodeError::kBadChecksum;
  } else {
    ev.ok = true;
    ev.frame.header = h;
    ev.frame.payload.assign(payload, payload + h.payload_bytes);
  }
  pos_ += sizeof(FrameHeader) + h.payload_bytes;
  compact();
  return ev;
}

}  // namespace hotlib::serve
