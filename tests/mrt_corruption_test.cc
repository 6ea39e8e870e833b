// Hostile and corrupted MRT input must be rejected, never analysed.
//
// A fixed-seed log of a few hundred records (random UPDATEs interleaved
// with OPENs and KEEPALIVEs) is damaged four ways:
//
//   1. every single-byte XOR anywhere in the stream: the reader returns only
//      records byte-equal to an original and counts the damage;
//   2. truncation at every offset: the read ends cleanly on the complete
//      records before the cut;
//   3. payload mutations re-framed with a valid CRC (EncodeRecord), so the
//      damage reaches the BGP codec: Decode and DecodeUpdateInto agree on
//      accept/reject and, when both accept an UPDATE, on its contents;
//   4. ExchangeMonitor::Replay over that re-framed log ingests exactly the
//      accepted UPDATEs, and its bins sum to events_seen().
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <optional>
#include <variant>
#include <vector>

#include "bgp/message.h"
#include "core/monitor.h"
#include "mrt/log.h"
#include "netbase/rng.h"

namespace iri::mrt {
namespace {

constexpr std::size_t kRecords = 200;
// A record is a 24-byte header, the payload and a CRC-32 trailer; the
// payload length is the header's u32 at offset 20.
constexpr std::size_t kLengthField = 20;

std::uint8_t NonZeroByte(Rng& rng) {
  return static_cast<std::uint8_t>(1 + rng.Below(255));
}

Prefix RandomPrefix(Rng& rng) {
  const auto len = static_cast<std::uint8_t>(8 + rng.Below(25));
  return Prefix(IPv4Address(static_cast<std::uint32_t>(rng.Next())), len);
}

bgp::Message RandomMessage(Rng& rng) {
  const std::uint64_t kind = rng.Below(10);
  if (kind == 0) return bgp::KeepAliveMessage{};
  if (kind == 1) {
    bgp::OpenMessage open;
    open.asn = static_cast<bgp::Asn>(1 + rng.Below(65000));
    open.hold_time_s = static_cast<std::uint16_t>(rng.Below(300));
    open.bgp_identifier = IPv4Address(static_cast<std::uint32_t>(rng.Next()));
    return open;
  }
  bgp::UpdateMessage u;
  for (std::uint64_t i = rng.Below(4); i > 0; --i) {
    u.withdrawn.push_back(RandomPrefix(rng));
  }
  for (std::uint64_t i = rng.Below(4); i > 0; --i) {
    u.nlri.push_back(RandomPrefix(rng));
  }
  if (!u.nlri.empty()) {
    std::vector<bgp::Asn> path;
    for (std::uint64_t i = 1 + rng.Below(4); i > 0; --i) {
      path.push_back(static_cast<bgp::Asn>(1 + rng.Below(65000)));
    }
    u.attributes.as_path = bgp::AsPath::Sequence(std::move(path));
    u.attributes.next_hop =
        IPv4Address(192, 0, 2, static_cast<std::uint8_t>(rng.Below(256)));
    if (rng.Below(2) == 0) {
      u.attributes.med = static_cast<std::uint32_t>(rng.Below(100));
    }
    if (rng.Below(3) == 0) {
      u.attributes.local_pref = static_cast<std::uint32_t>(rng.Below(200));
    }
    for (std::uint64_t i = rng.Below(3); i > 0; --i) {
      u.attributes.communities.push_back(
          static_cast<bgp::Community>(rng.Next()));
    }
  }
  return u;
}

struct Corpus {
  std::vector<Record> records;
  std::vector<std::uint8_t> stream;  // the encoded records, concatenated
  // Record i spans [offsets[i], offsets[i + 1]) of the stream.
  std::vector<std::size_t> offsets;
};

Corpus BuildCorpus(std::uint64_t seed) {
  Rng rng(seed);
  Corpus c;
  for (std::size_t i = 0; i < kRecords; ++i) {
    Record rec;
    rec.timestamp =
        TimePoint::Origin() + Duration::Seconds(static_cast<double>(i));
    rec.peer_asn = static_cast<std::uint16_t>(700 + rng.Below(8));
    rec.local_asn = 7;
    rec.peer_id = static_cast<std::uint32_t>(rng.Below(8));
    rec.payload = bgp::Encode(RandomMessage(rng));
    c.offsets.push_back(c.stream.size());
    EncodeRecord(rec, c.stream);
    c.records.push_back(std::move(rec));
  }
  c.offsets.push_back(c.stream.size());
  return c;
}

bool SameRecord(const Record& a, const Record& b) {
  return a.timestamp == b.timestamp && a.peer_asn == b.peer_asn &&
         a.local_asn == b.local_asn && a.peer_id == b.peer_id &&
         a.payload == b.payload;
}

// Reads to the end; each returned record is mapped back to the index of the
// original it equals field for field, so byte for byte once encoded (-1 when
// it matches none). Original i is stamped i seconds, which narrows the
// lookup to one candidate.
std::vector<int> ReadAll(const Corpus& c, Reader& reader) {
  std::vector<int> out;
  const std::int64_t step = Duration::Seconds(1).nanos();
  while (auto rec = reader.Next()) {
    const std::int64_t ns = rec->timestamp.nanos();
    const std::int64_t i = ns / step;
    const bool known = ns >= 0 && ns % step == 0 &&
                       i < static_cast<std::int64_t>(kRecords) &&
                       SameRecord(*rec, c.records[static_cast<std::size_t>(i)]);
    out.push_back(known ? static_cast<int>(i) : -1);
  }
  return out;
}

std::size_t RecordAt(const Corpus& c, std::size_t offset) {
  std::size_t k = 0;
  while (c.offsets[k + 1] <= offset) ++k;
  return k;
}

TEST(MrtCorruption, UndamagedStreamReadsBack) {
  const Corpus c = BuildCorpus(1997);
  Reader reader(c.stream);
  std::vector<int> expected(kRecords);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(ReadAll(c, reader), expected);
  EXPECT_EQ(reader.crc_failures(), 0u);
  EXPECT_TRUE(reader.ok());
  EXPECT_TRUE(reader.complete());
}

TEST(MrtCorruption, EverySingleByteFlipIsRejected) {
  const Corpus c = BuildCorpus(1997);
  Rng rng(42);
  std::vector<std::uint8_t> damaged = c.stream;
  for (std::size_t pos = 0; pos < damaged.size(); ++pos) {
    const std::uint8_t mask = NonZeroByte(rng);
    damaged[pos] ^= mask;
    const std::size_t k = RecordAt(c, pos);
    const std::size_t in_record = pos - c.offsets[k];
    const bool length_field =
        in_record >= kLengthField && in_record < kLengthField + 4;

    Reader reader(damaged);
    const std::vector<int> got = ReadAll(c, reader);
    // Every record in front of the damage comes back, in order; after it,
    // only undamaged originals, still in order.
    ASSERT_GE(got.size(), k) << "flip at " << pos;
    for (std::size_t i = 0; i < got.size(); ++i) {
      if (i < k) {
        ASSERT_EQ(got[i], static_cast<int>(i)) << "flip at " << pos;
        continue;
      }
      ASSERT_GT(got[i], static_cast<int>(k))
          << "flip at " << pos << ": record " << i
          << " is not an undamaged original";
      if (i > 0) {
        ASSERT_LT(got[i - 1], got[i]) << "flip at " << pos;
      }
    }
    if (length_field) {
      // A damaged length either ends the log or mis-frames the record,
      // which then fails its CRC.
      EXPECT_TRUE(reader.crc_failures() >= 1 || !reader.ok())
          << "flip at " << pos << " went unnoticed";
    } else {
      // Anywhere else the frame is intact: CRC-32 catches every single-byte
      // error, and the reader skips exactly that record and re-synchronises.
      EXPECT_EQ(reader.crc_failures(), 1u) << "flip at " << pos;
      EXPECT_TRUE(reader.ok()) << "flip at " << pos;
      EXPECT_EQ(got.size(), kRecords - 1) << "flip at " << pos;
    }
    damaged[pos] ^= mask;
  }
}

TEST(MrtCorruption, TruncationEndsTheReadCleanly) {
  const Corpus c = BuildCorpus(1998);
  for (std::size_t cut = 0; cut <= c.stream.size(); ++cut) {
    // An exact-size copy, so a sanitizer build catches a read past the cut.
    const std::vector<std::uint8_t> head(
        c.stream.begin(), c.stream.begin() + static_cast<std::ptrdiff_t>(cut));
    Reader reader(head);
    const std::vector<int> got = ReadAll(c, reader);
    std::size_t complete = 0;
    while (complete < kRecords && c.offsets[complete + 1] <= cut) ++complete;
    ASSERT_EQ(got.size(), complete) << "cut at " << cut;
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i], static_cast<int>(i)) << "cut at " << cut;
    }
    EXPECT_EQ(reader.crc_failures(), 0u) << "cut at " << cut;
    EXPECT_FALSE(reader.Next().has_value()) << "cut at " << cut;
    // Only a cut on a record boundary leaves no unread tail.
    EXPECT_EQ(reader.complete(), c.offsets[complete] == cut)
        << "cut at " << cut;
  }
}

// Damages a payload while keeping it plausible enough to reach the decoder:
// byte flips biased toward the length and type fields, truncation,
// extension, and a BGP length header patched to match the new size.
std::vector<std::uint8_t> MutatePayload(const std::vector<std::uint8_t>& in,
                                        Rng& rng) {
  std::vector<std::uint8_t> p = in;
  for (std::uint64_t n = 1 + rng.Below(3); n > 0; --n) {
    switch (rng.Below(6)) {
      case 0:  // BGP header length / type, UPDATE withdrawn-length field
        if (p.size() > 20) {
          p[16 + rng.Below(5)] ^= NonZeroByte(rng);
        }
        break;
      case 1:  // anywhere in the body
        if (p.size() > bgp::kHeaderSize) {
          p[bgp::kHeaderSize + rng.Below(p.size() - bgp::kHeaderSize)] ^=
              NonZeroByte(rng);
        }
        break;
      case 2:  // small values hit lengths, flags and prefix lengths hardest
        if (p.size() > bgp::kHeaderSize) {
          p[bgp::kHeaderSize + rng.Below(p.size() - bgp::kHeaderSize)] =
              static_cast<std::uint8_t>(rng.Below(40));
        }
        break;
      case 3:  // truncate
        p.resize(rng.Below(p.size() + 1));
        break;
      case 4:  // extend with garbage
        for (std::uint64_t i = 1 + rng.Below(8); i > 0; --i) {
          p.push_back(static_cast<std::uint8_t>(rng.Next()));
        }
        break;
      default:  // anywhere at all, marker included
        if (!p.empty()) {
          p[rng.Below(p.size())] ^= NonZeroByte(rng);
        }
        break;
    }
    // Mostly keep the header length consistent, so the damage gets past
    // framing and into the body parsers.
    if (p.size() >= bgp::kHeaderSize && rng.Below(4) != 0) {
      p[16] = static_cast<std::uint8_t>(p.size() >> 8);
      p[17] = static_cast<std::uint8_t>(p.size() & 0xff);
    }
  }
  return p;
}

TEST(MrtCorruption, MutatedPayloadsDecodeConsistentlyAndReplayOnlyAccepted) {
  const Corpus c = BuildCorpus(1999);
  Rng rng(7);
  Writer writer;
  bgp::UpdateMessage scratch;  // reused, as the router's receive path does
  std::uint64_t accepted_updates = 0;
  std::uint64_t accepted_events = 0;
  std::uint64_t rejected = 0;
  constexpr int kMutationsPerRecord = 24;
  for (const Record& original : c.records) {
    for (int m = 0; m < kMutationsPerRecord; ++m) {
      Record rec = original;
      rec.payload = MutatePayload(original.payload, rng);
      const std::optional<bgp::Message> msg = bgp::Decode(rec.payload);
      const auto* update =
          msg ? std::get_if<bgp::UpdateMessage>(&*msg) : nullptr;
      const bool fast = bgp::DecodeUpdateInto(rec.payload, scratch);
      ASSERT_EQ(update != nullptr, fast)
          << "Decode and DecodeUpdateInto disagree on a "
          << rec.payload.size() << "-byte payload";
      if (update != nullptr) {
        ASSERT_EQ(*update, scratch);
        ++accepted_updates;
        accepted_events += update->withdrawn.size() + update->nlri.size();
      } else if (!msg) {
        ++rejected;
      }
      writer.Append(rec);
    }
  }
  // The mutations must exercise both outcomes, or the agreement is vacuous.
  EXPECT_GT(accepted_updates, 100u);
  EXPECT_GT(rejected, 1000u);

  Reader reader(writer.buffer());
  core::ExchangeMonitor monitor;
  std::uint64_t sunk = 0;
  monitor.AddSink([&sunk](const core::ClassifiedEvent&) { ++sunk; });
  EXPECT_EQ(monitor.Replay(reader), accepted_updates);
  EXPECT_EQ(reader.crc_failures(), 0u);
  EXPECT_EQ(monitor.messages_seen(), accepted_updates);
  EXPECT_EQ(monitor.events_seen(), accepted_events);
  EXPECT_EQ(sunk, accepted_events);
  const auto& bins = monitor.classifier().totals();
  EXPECT_EQ(std::accumulate(bins.begin(), bins.end(), std::uint64_t{0}),
            monitor.events_seen());
}

}  // namespace
}  // namespace iri::mrt
