#include "tables/service_tables.hpp"

#include <gtest/gtest.h>

namespace sf::tables {
namespace {

net::FiveTuple tuple(const char* src, const char* dst, std::uint8_t proto,
                     std::uint16_t sport, std::uint16_t dport) {
  return net::FiveTuple{net::IpAddr::must_parse(src),
                        net::IpAddr::must_parse(dst), proto, sport, dport};
}

TEST(AclTable, DefaultVerdictWhenEmpty) {
  AclTable permit(AclVerdict::kPermit);
  AclTable deny(AclVerdict::kDeny);
  const auto t = tuple("10.0.0.1", "10.0.0.2", 6, 1000, 80);
  EXPECT_EQ(permit.evaluate(1, t), AclVerdict::kPermit);
  EXPECT_EQ(deny.evaluate(1, t), AclVerdict::kDeny);
}

TEST(AclTable, WildcardFieldsMatchAnything) {
  AclTable acl;
  AclRule rule;
  rule.dst_port = 22;
  rule.verdict = AclVerdict::kDeny;
  acl.add(rule);
  EXPECT_EQ(acl.evaluate(1, tuple("10.0.0.1", "10.0.0.2", 6, 1000, 22)),
            AclVerdict::kDeny);
  EXPECT_EQ(acl.evaluate(99, tuple("1.1.1.1", "2.2.2.2", 17, 5, 22)),
            AclVerdict::kDeny);
  EXPECT_EQ(acl.evaluate(1, tuple("10.0.0.1", "10.0.0.2", 6, 1000, 80)),
            AclVerdict::kPermit);
}

TEST(AclTable, HigherPriorityWins) {
  AclTable acl;
  AclRule deny_all;
  deny_all.vni = 5;
  deny_all.priority = 10;
  deny_all.verdict = AclVerdict::kDeny;
  AclRule allow_web;
  allow_web.vni = 5;
  allow_web.dst_port = 443;
  allow_web.priority = 20;
  allow_web.verdict = AclVerdict::kPermit;
  acl.add(deny_all);
  acl.add(allow_web);
  EXPECT_EQ(acl.evaluate(5, tuple("10.0.0.1", "10.0.0.2", 6, 1000, 443)),
            AclVerdict::kPermit);
  EXPECT_EQ(acl.evaluate(5, tuple("10.0.0.1", "10.0.0.2", 6, 1000, 80)),
            AclVerdict::kDeny);
  EXPECT_EQ(acl.evaluate(6, tuple("10.0.0.1", "10.0.0.2", 6, 1000, 80)),
            AclVerdict::kPermit);
}

TEST(AclTable, PrefixFieldsMatchSubnets) {
  AclTable acl;
  AclRule rule;
  rule.src = net::IpPrefix::must_parse("192.168.0.0/16");
  rule.verdict = AclVerdict::kDeny;
  acl.add(rule);
  EXPECT_EQ(acl.evaluate(1, tuple("192.168.3.4", "10.0.0.1", 6, 1, 2)),
            AclVerdict::kDeny);
  EXPECT_EQ(acl.evaluate(1, tuple("192.169.0.1", "10.0.0.1", 6, 1, 2)),
            AclVerdict::kPermit);
}

TEST(MeterTable, GreenWithinRateRedBeyond) {
  MeterTable meters;
  // 8 Mbps, 1 KB burst: 1 KB available immediately.
  const std::size_t index = meters.add({8e6, 1000});
  EXPECT_EQ(meters.offer(index, 800, 0.0), MeterColor::kGreen);
  EXPECT_EQ(meters.offer(index, 800, 0.0), MeterColor::kRed);
  // After 1 ms, 1e6 B/s * 1e-3 s = 1000 B refilled (capped at burst).
  EXPECT_EQ(meters.offer(index, 800, 0.001), MeterColor::kGreen);
}

TEST(MeterTable, BurstCapsAccumulation) {
  MeterTable meters;
  const std::size_t index = meters.add({8e6, 1000});
  // A long idle period cannot bank more than one burst.
  EXPECT_EQ(meters.offer(index, 1000, 100.0), MeterColor::kGreen);
  EXPECT_EQ(meters.offer(index, 1, 100.0), MeterColor::kRed);
}

TEST(MeterTable, ReconfigureAppliesNewRate) {
  MeterTable meters;
  const std::size_t index = meters.add({8e6, 1000});
  meters.offer(index, 1000, 0.0);  // drain
  meters.reconfigure(index, {80e6, 10000});
  // New rate: 10 MB/s -> 10 KB after 1 ms... capped by elapsed refill.
  EXPECT_EQ(meters.offer(index, 9000, 1.0), MeterColor::kGreen);
}

TEST(MeterTable, IndependentMeters) {
  MeterTable meters;
  const std::size_t a = meters.add({8e6, 1000});
  const std::size_t b = meters.add({8e6, 1000});
  EXPECT_EQ(meters.offer(a, 1000, 0.0), MeterColor::kGreen);
  EXPECT_EQ(meters.offer(b, 1000, 0.0), MeterColor::kGreen);
}

TEST(MeterTable, OutOfRangeThrows) {
  MeterTable meters;
  EXPECT_THROW(meters.offer(0, 1, 0.0), std::out_of_range);
}

}  // namespace
}  // namespace sf::tables
