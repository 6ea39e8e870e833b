#include "mrt/log.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

namespace iri::mrt {
namespace {

Prefix P(const std::string& s) { return *Prefix::Parse(s); }

bgp::UpdateMessage SampleUpdate(int salt = 0) {
  bgp::UpdateMessage u;
  u.withdrawn = {P("192.42.113.0/24")};
  u.attributes.as_path = bgp::AsPath::Sequence({701, static_cast<bgp::Asn>(1000 + salt)});
  u.attributes.next_hop = IPv4Address(10, 0, 0, 1);
  u.nlri = {Prefix(IPv4Address((204u << 24) | (static_cast<std::uint32_t>(salt) << 8)), 24)};
  return u;
}

TEST(MrtLog, InMemoryRoundTrip) {
  Writer writer;
  for (int i = 0; i < 10; ++i) {
    writer.LogMessage(TimePoint::Origin() + Duration::Seconds(i), 3, 701, 7,
                      SampleUpdate(i));
  }
  EXPECT_EQ(writer.records_written(), 10u);

  Reader reader(writer.buffer());
  int count = 0;
  while (auto rec = reader.Next()) {
    EXPECT_EQ(rec->peer_id, 3u);
    EXPECT_EQ(rec->peer_asn, 701);
    EXPECT_EQ(rec->local_asn, 7);
    EXPECT_EQ(rec->timestamp,
              TimePoint::Origin() + Duration::Seconds(count));
    auto msg = rec->DecodeMessage();
    ASSERT_TRUE(msg.has_value());
    EXPECT_EQ(std::get<bgp::UpdateMessage>(*msg), SampleUpdate(count));
    ++count;
  }
  EXPECT_EQ(count, 10);
  EXPECT_EQ(reader.crc_failures(), 0u);
  EXPECT_TRUE(reader.ok());
}

TEST(MrtLog, EmptyLog) {
  Writer writer;
  Reader reader(writer.buffer());
  EXPECT_FALSE(reader.Next().has_value());
  EXPECT_TRUE(reader.ok());
}

TEST(MrtLog, AllMessageTypesRoundTrip) {
  Writer writer;
  writer.LogMessage(TimePoint::Origin(), 0, 1, 7, bgp::KeepAliveMessage{});
  bgp::OpenMessage open;
  open.asn = 701;
  writer.LogMessage(TimePoint::Origin(), 0, 1, 7, open);
  writer.LogMessage(TimePoint::Origin(), 0, 1, 7,
                    bgp::NotificationMessage{bgp::NotifyCode::kCease, 0});
  Reader reader(writer.buffer());
  int n = 0;
  while (auto rec = reader.Next()) {
    EXPECT_TRUE(rec->DecodeMessage().has_value());
    ++n;
  }
  EXPECT_EQ(n, 3);
}

TEST(MrtLog, CorruptRecordSkippedAndCounted) {
  Writer writer;
  writer.LogMessage(TimePoint::Origin(), 1, 1, 7, SampleUpdate(1));
  writer.LogMessage(TimePoint::Origin(), 2, 1, 7, SampleUpdate(2));
  writer.LogMessage(TimePoint::Origin(), 3, 1, 7, SampleUpdate(3));

  auto bytes = writer.buffer();
  // Flip a payload byte in the middle record (after its 24-byte header).
  const std::size_t record_size = bytes.size() / 3;
  bytes[record_size + 30] ^= 0xFF;

  Reader reader(bytes);
  std::vector<std::uint32_t> peers;
  while (auto rec = reader.Next()) peers.push_back(rec->peer_id);
  EXPECT_EQ(peers, (std::vector<std::uint32_t>{1, 3}));
  EXPECT_EQ(reader.crc_failures(), 1u);
}

TEST(MrtLog, TruncatedTailEndsCleanly) {
  Writer writer;
  writer.LogMessage(TimePoint::Origin(), 1, 1, 7, SampleUpdate(1));
  writer.LogMessage(TimePoint::Origin(), 2, 1, 7, SampleUpdate(2));
  auto bytes = writer.buffer();
  bytes.resize(bytes.size() - 7);  // the collector died mid-write

  Reader reader(bytes);
  int n = 0;
  while (auto rec = reader.Next()) ++n;
  EXPECT_EQ(n, 1);
}

TEST(MrtLog, CorruptLengthFieldStopsRead) {
  Writer writer;
  writer.LogMessage(TimePoint::Origin(), 1, 1, 7, SampleUpdate(1));
  auto bytes = writer.buffer();
  bytes[20] = 0xFF;  // length field high byte: absurd payload size
  bytes[21] = 0xFF;
  Reader reader(bytes);
  EXPECT_FALSE(reader.Next().has_value());
  EXPECT_FALSE(reader.ok());
  EXPECT_FALSE(reader.complete());
  EXPECT_EQ(reader.bytes_consumed(), 0u);
}

TEST(MrtLog, FileRoundTrip) {
  const std::string path = "/tmp/iri_mrt_test.log";
  {
    Writer writer(path);
    ASSERT_TRUE(writer.ok());
    for (int i = 0; i < 100; ++i) {
      writer.LogMessage(TimePoint::Origin() + Duration::Seconds(i),
                        static_cast<std::uint32_t>(i % 5), 701, 7,
                        SampleUpdate(i));
    }
  }
  Reader reader(path);
  ASSERT_TRUE(reader.ok());
  int n = 0;
  while (auto rec = reader.Next()) ++n;
  EXPECT_EQ(n, 100);
  std::filesystem::remove(path);
}

TEST(MrtLog, WriteBackFailureClearsOkOnClose) {
  // /dev/full accepts open and buffered fwrite, then fails the write-back
  // with ENOSPC: only the flush inside fclose can report the loss.
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  Writer writer("/dev/full");
  ASSERT_TRUE(writer.ok());
  writer.LogMessage(TimePoint::Origin(), 1, 701, 7, SampleUpdate(1));
  EXPECT_EQ(writer.records_written(), 1u);
  EXPECT_FALSE(writer.Close());
  EXPECT_FALSE(writer.ok());
}

TEST(MrtLog, TakeBufferMovesTheStreamOut) {
  Writer writer;
  writer.LogMessage(TimePoint::Origin(), 1, 701, 7, SampleUpdate(1));
  const std::vector<std::uint8_t> copy = writer.buffer();
  const std::vector<std::uint8_t> taken = writer.TakeBuffer();
  EXPECT_EQ(taken, copy);
  EXPECT_TRUE(writer.buffer().empty());
}

TEST(MrtLog, MissingFileReportsError) {
  Reader reader("/tmp/does_not_exist_iri.log");
  EXPECT_FALSE(reader.ok());
}

}  // namespace
}  // namespace iri::mrt
