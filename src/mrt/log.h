// MRT-style binary logging of BGP messages, after the Multithreaded Routing
// Toolkit format the Routing Arbiter project used (paper ref [17]).
//
// The collection methodology in §2 is: route server peers with providers,
// every BGP message on those sessions is appended to a log, and analysis
// tools decode the logs offline. This module is that serialization boundary.
// Records resemble MRT BGP4MP/MESSAGE: a fixed header identifying the
// peering, the raw wire-format BGP message, and a CRC-32 trailer (the
// paper's infrastructure famously lost a day of data; we at least detect
// truncation/corruption instead of silently analyzing garbage).
//
// Record layout (all integers big-endian):
//   u64 timestamp_ns      simulated time
//   u16 type (=16)        BGP4MP
//   u16 subtype (=1)      MESSAGE
//   u16 peer_asn
//   u16 local_asn
//   u32 peer_id           collector's local id for the peering
//   u32 payload_length
//   u8  payload[...]      encoded BGP message (marker..body)
//   u32 crc32             over everything above
#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bgp/message.h"
#include "bgp/route.h"
#include "netbase/time.h"

namespace iri::mrt {

inline constexpr std::uint16_t kTypeBgp4mp = 16;
inline constexpr std::uint16_t kSubtypeMessage = 1;

struct Record {
  TimePoint timestamp;
  std::uint16_t peer_asn = 0;
  std::uint16_t local_asn = 0;
  std::uint32_t peer_id = 0;
  std::vector<std::uint8_t> payload;  // encoded BGP message

  // Decodes the payload as a BGP message.
  std::optional<bgp::Message> DecodeMessage() const {
    return bgp::Decode(payload);
  }
};

// Serializes one record (with CRC) into `out`.
void EncodeRecord(const Record& record, std::vector<std::uint8_t>& out);

// Same wire bytes, but straight from the header fields and a payload view —
// no intermediate Record, no scratch buffer: the record is appended to
// `out` in place and the CRC computed over the appended region. This is the
// zero-copy path the monitor drives with the received wire bytes.
void EncodeRecordRaw(TimePoint timestamp, std::uint32_t peer_id,
                     std::uint16_t peer_asn, std::uint16_t local_asn,
                     std::span<const std::uint8_t> payload,
                     std::vector<std::uint8_t>& out);

// Appends records to an in-memory buffer or a file.
class Writer {
 public:
  // In-memory writer.
  Writer() = default;
  // File-backed writer; truncates. Check ok() after construction.
  explicit Writer(const std::string& path);
  ~Writer();

  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  bool ok() const { return ok_; }
  std::uint64_t records_written() const { return records_; }

  void Append(const Record& record);

  // Convenience: logs a BGP message seen on a peering.
  void LogMessage(TimePoint now, std::uint32_t peer_id, std::uint16_t peer_asn,
                  std::uint16_t local_asn, const bgp::Message& msg);

  // Zero-copy variant: logs already-encoded wire bytes as the payload
  // (byte-identical to LogMessage of the decoded message, by the
  // Encode/Decode roundtrip contract).
  void LogPayload(TimePoint now, std::uint32_t peer_id, std::uint16_t peer_asn,
                  std::uint16_t local_asn,
                  std::span<const std::uint8_t> payload);

  // In-memory contents (always empty for file-backed writers).
  const std::vector<std::uint8_t>& buffer() const { return buffer_; }
  // Moves the in-memory contents out, leaving the buffer empty.
  std::vector<std::uint8_t> TakeBuffer() {
    return std::exchange(buffer_, {});
  }

  // A failed fflush/fclose (a write-back error, e.g. a full disk) clears
  // ok(), like a failed fwrite. Close() returns ok() after closing.
  void Flush();
  bool Close();

 private:
  std::vector<std::uint8_t> buffer_;
  std::vector<std::uint8_t> scratch_;  // file path: per-record encode buffer
  std::FILE* file_ = nullptr;
  bool ok_ = true;
  std::uint64_t records_ = 0;
};

// Sequentially decodes records from a byte buffer or a file.
class Reader {
 public:
  // Reads from a caller-owned span.
  explicit Reader(std::span<const std::uint8_t> data) : data_(data) {}
  // Loads an entire file into memory. Check ok().
  explicit Reader(const std::string& path);

  bool ok() const { return ok_; }
  std::uint64_t records_read() const { return records_; }
  std::uint64_t crc_failures() const { return crc_failures_; }
  // Bytes taken so far by returned records and counted CRC skips.
  std::size_t bytes_consumed() const { return pos_; }
  // True once every byte went into a record or a counted CRC skip. After
  // Next() has returned nullopt, false means the log ends on a damaged
  // length field or on a tail shorter than one record.
  bool complete() const { return pos_ == data_.size(); }

  // Next record, or nullopt at end-of-log. Records failing CRC are counted
  // and skipped (the read re-synchronizes on the following record because
  // lengths are still trusted; a corrupt length ends the log).
  std::optional<Record> Next();

 private:
  std::vector<std::uint8_t> owned_;
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
  std::uint64_t records_ = 0;
  std::uint64_t crc_failures_ = 0;
};

}  // namespace iri::mrt
