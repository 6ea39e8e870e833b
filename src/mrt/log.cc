#include "mrt/log.h"

#include "netbase/bytes.h"
#include "netbase/crc32.h"

namespace iri::mrt {

namespace {

// Appends `v` big-endian to `out`.
template <typename T>
void PutBe(T v, std::vector<std::uint8_t>& out) {
  for (int shift = (sizeof(T) - 1) * 8; shift >= 0; shift -= 8) {
    out.push_back(static_cast<std::uint8_t>(v >> shift));
  }
}

}  // namespace

void EncodeRecordRaw(TimePoint timestamp, std::uint32_t peer_id,
                     std::uint16_t peer_asn, std::uint16_t local_asn,
                     std::span<const std::uint8_t> payload,
                     std::vector<std::uint8_t>& out) {
  const std::size_t start = out.size();
  // No reserve here: `out` may be a capture buffer holding the whole stream,
  // and an exact-size reserve defeats geometric growth — every record would
  // reallocate and copy the entire stream (quadratic in stream length).
  PutBe(static_cast<std::uint64_t>(timestamp.nanos()), out);
  PutBe(kTypeBgp4mp, out);
  PutBe(kSubtypeMessage, out);
  PutBe(peer_asn, out);
  PutBe(local_asn, out);
  PutBe(peer_id, out);
  PutBe(static_cast<std::uint32_t>(payload.size()), out);
  out.insert(out.end(), payload.begin(), payload.end());
  const std::uint32_t crc =
      Crc32({out.data() + start, out.size() - start});
  PutBe(crc, out);
}

void EncodeRecord(const Record& record, std::vector<std::uint8_t>& out) {
  EncodeRecordRaw(record.timestamp, record.peer_id, record.peer_asn,
                  record.local_asn, record.payload, out);
}

Writer::Writer(const std::string& path) {
  file_ = std::fopen(path.c_str(), "wb");
  ok_ = file_ != nullptr;
}

Writer::~Writer() { Close(); }

void Writer::Append(const Record& record) {
  LogPayload(record.timestamp, record.peer_id, record.peer_asn,
             record.local_asn, record.payload);
}

void Writer::LogMessage(TimePoint now, std::uint32_t peer_id,
                        std::uint16_t peer_asn, std::uint16_t local_asn,
                        const bgp::Message& msg) {
  LogPayload(now, peer_id, peer_asn, local_asn, bgp::Encode(msg));
}

void Writer::LogPayload(TimePoint now, std::uint32_t peer_id,
                        std::uint16_t peer_asn, std::uint16_t local_asn,
                        std::span<const std::uint8_t> payload) {
  if (!ok_) return;
  if (file_ != nullptr) {
    scratch_.clear();
    EncodeRecordRaw(now, peer_id, peer_asn, local_asn, payload, scratch_);
    ok_ = std::fwrite(scratch_.data(), 1, scratch_.size(), file_) ==
          scratch_.size();
  } else {
    EncodeRecordRaw(now, peer_id, peer_asn, local_asn, payload, buffer_);
  }
  ++records_;
}

void Writer::Flush() {
  if (file_ != nullptr && std::fflush(file_) != 0) ok_ = false;
}

bool Writer::Close() {
  if (file_ != nullptr) {
    if (std::fclose(file_) != 0) ok_ = false;
    file_ = nullptr;
  }
  return ok_;
}

Reader::Reader(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    ok_ = false;
    return;
  }
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  owned_.resize(size > 0 ? static_cast<std::size_t>(size) : 0);
  if (!owned_.empty() &&
      std::fread(owned_.data(), 1, owned_.size(), f) != owned_.size()) {
    ok_ = false;
  }
  std::fclose(f);
  data_ = owned_;
}

std::optional<Record> Reader::Next() {
  // Fixed header: 8+2+2+2+2+4+4 = 24 bytes, then payload, then 4-byte CRC.
  constexpr std::size_t kHeader = 24;
  while (ok_ && data_.size() - pos_ >= kHeader + 4) {
    ByteReader r(data_.subspan(pos_));
    Record rec;
    rec.timestamp = TimePoint::FromNanos(static_cast<std::int64_t>(r.U64()));
    const std::uint16_t type = r.U16();
    const std::uint16_t subtype = r.U16();
    rec.peer_asn = r.U16();
    rec.local_asn = r.U16();
    rec.peer_id = r.U32();
    const std::uint32_t payload_len = r.U32();
    if (payload_len > bgp::kMaxMessageSize ||
        data_.size() - pos_ < kHeader + payload_len + 4) {
      // A corrupt length field: cannot re-synchronize, end the log here.
      ok_ = false;
      return std::nullopt;
    }
    auto payload = r.Bytes(payload_len);
    rec.payload.assign(payload.begin(), payload.end());
    const std::uint32_t stored_crc = r.U32();
    const std::uint32_t actual_crc =
        Crc32(data_.subspan(pos_, kHeader + payload_len));
    pos_ += kHeader + payload_len + 4;
    if (type != kTypeBgp4mp || subtype != kSubtypeMessage ||
        stored_crc != actual_crc) {
      ++crc_failures_;
      continue;  // skip the damaged record, stay in sync via the length
    }
    ++records_;
    return rec;
  }
  return std::nullopt;
}

}  // namespace iri::mrt
