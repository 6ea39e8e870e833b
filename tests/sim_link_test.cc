#include "sim/link.h"

#include <gtest/gtest.h>

#include <vector>

namespace iri::sim {
namespace {

// A scriptable endpoint that records everything the link delivers.
class FakeEndpoint : public LinkEndpoint {
 public:
  void OnTransportUp(std::uint32_t peer) override { ups.push_back(peer); }
  void OnTransportDown(std::uint32_t peer) override { downs.push_back(peer); }
  void OnWireData(std::uint32_t peer, std::vector<std::uint8_t> bytes,
                  obs::CauseVec /*causes*/) override {
    received.emplace_back(peer, std::move(bytes));
  }

  std::vector<std::uint32_t> ups, downs;
  std::vector<std::pair<std::uint32_t, std::vector<std::uint8_t>>> received;
};

class LinkTest : public ::testing::Test {
 protected:
  LinkTest() : link(sched, Duration::Millis(5)) {
    link.AttachA(&a, 7);
    link.AttachB(&b, 9);
  }

  Scheduler sched;
  Link link;
  FakeEndpoint a, b;
};

TEST_F(LinkTest, RestoreNotifiesBothEndpointsWithTheirPeerIds) {
  link.Restore();
  ASSERT_EQ(a.ups.size(), 1u);
  ASSERT_EQ(b.ups.size(), 1u);
  EXPECT_EQ(a.ups[0], 7u);
  EXPECT_EQ(b.ups[0], 9u);
  EXPECT_TRUE(link.up());
}

TEST_F(LinkTest, RestoreIsIdempotent) {
  link.Restore();
  link.Restore();
  EXPECT_EQ(a.ups.size(), 1u);
}

TEST_F(LinkTest, FailNotifiesBoth) {
  link.Restore();
  link.Fail();
  EXPECT_EQ(a.downs.size(), 1u);
  EXPECT_EQ(b.downs.size(), 1u);
  EXPECT_FALSE(link.up());
  link.Fail();  // idempotent
  EXPECT_EQ(a.downs.size(), 1u);
}

TEST_F(LinkTest, DeliversAfterLatencyToOtherSide) {
  link.Restore();
  link.Send(&a, {1, 2, 3});
  EXPECT_TRUE(b.received.empty());  // not yet delivered
  sched.RunUntil(TimePoint::Origin() + Duration::Millis(5));
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(b.received[0].first, 9u);
  EXPECT_EQ(b.received[0].second, (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_TRUE(a.received.empty());
}

TEST_F(LinkTest, DeliversBothDirections) {
  link.Restore();
  link.Send(&a, {1});
  link.Send(&b, {2});
  sched.RunAll();
  ASSERT_EQ(b.received.size(), 1u);
  ASSERT_EQ(a.received.size(), 1u);
  EXPECT_EQ(a.received[0].second[0], 2);
}

TEST_F(LinkTest, SendOnDownLinkIsDropped) {
  link.Send(&a, {1});
  sched.RunAll();
  EXPECT_TRUE(b.received.empty());
}

TEST_F(LinkTest, InFlightDataLostOnFailure) {
  link.Restore();
  link.Send(&a, {1});
  link.Fail();  // fails before the 5 ms delivery
  sched.RunAll();
  EXPECT_TRUE(b.received.empty());
}

TEST_F(LinkTest, InFlightDataLostAcrossFlapEpoch) {
  // Fail + restore before delivery time: the segment is still lost (TCP
  // would have seen the carrier drop).
  link.Restore();
  link.Send(&a, {1});
  link.Fail();
  link.Restore();
  sched.RunAll();
  EXPECT_TRUE(b.received.empty());
}

TEST_F(LinkTest, CountsTraffic) {
  link.Restore();
  link.Send(&a, {1, 2, 3, 4});
  link.Send(&b, {5});
  EXPECT_EQ(link.messages_carried(), 2u);
  EXPECT_EQ(link.bytes_carried(), 5u);
}

}  // namespace
}  // namespace iri::sim
