#include "lpm_trie.hpp"

#include <gtest/gtest.h>

namespace sf::tables {
namespace {

using net::IpAddr;
using net::IpPrefix;
using net::Vni;

IpPrefix p4(const char* text) { return IpPrefix::must_parse(text); }
IpAddr a(const char* text) { return IpAddr::must_parse(text); }

TEST(LpmTrie, LongestPrefixWins) {
  LpmTrie<int> trie;
  trie.insert(1, p4("10.0.0.0/8"), 8);
  trie.insert(1, p4("10.1.0.0/16"), 16);
  trie.insert(1, p4("10.1.2.0/24"), 24);
  EXPECT_EQ(trie.lookup(1, a("10.1.2.3")), 24);
  EXPECT_EQ(trie.lookup(1, a("10.1.9.9")), 16);
  EXPECT_EQ(trie.lookup(1, a("10.9.9.9")), 8);
  EXPECT_EQ(trie.lookup(1, a("11.0.0.1")), std::nullopt);
}

TEST(LpmTrie, VniScopesTheTables) {
  LpmTrie<int> trie;
  trie.insert(1, p4("10.0.0.0/8"), 100);
  trie.insert(2, p4("10.0.0.0/8"), 200);
  EXPECT_EQ(trie.lookup(1, a("10.1.1.1")), 100);
  EXPECT_EQ(trie.lookup(2, a("10.1.1.1")), 200);
  EXPECT_EQ(trie.lookup(3, a("10.1.1.1")), std::nullopt);
}

TEST(LpmTrie, FamiliesAreSeparate) {
  LpmTrie<int> trie;
  trie.insert(1, p4("0.0.0.0/0"), 4);
  trie.insert(1, IpPrefix::must_parse("::/0"), 6);
  EXPECT_EQ(trie.lookup(1, a("1.2.3.4")), 4);
  EXPECT_EQ(trie.lookup(1, a("2001:db8::1")), 6);
}

TEST(LpmTrie, HostRoutes) {
  LpmTrie<int> trie;
  trie.insert(7, p4("192.168.1.5/32"), 1);
  EXPECT_EQ(trie.lookup(7, a("192.168.1.5")), 1);
  EXPECT_EQ(trie.lookup(7, a("192.168.1.6")), std::nullopt);
}

TEST(LpmTrie, Ipv6LongestMatch) {
  LpmTrie<int> trie;
  trie.insert(9, IpPrefix::must_parse("2001:db8::/32"), 32);
  trie.insert(9, IpPrefix::must_parse("2001:db8:0:1::/64"), 64);
  trie.insert(9, IpPrefix::must_parse("2001:db8:0:1::42/128"), 128);
  EXPECT_EQ(trie.lookup(9, a("2001:db8:0:1::42")), 128);
  EXPECT_EQ(trie.lookup(9, a("2001:db8:0:1::43")), 64);
  EXPECT_EQ(trie.lookup(9, a("2001:db8:ffff::1")), 32);
}

TEST(LpmTrie, InsertReplacesAndReturnsNewness) {
  LpmTrie<int> trie;
  EXPECT_TRUE(trie.insert(1, p4("10.0.0.0/8"), 1));
  EXPECT_FALSE(trie.insert(1, p4("10.0.0.0/8"), 2));
  EXPECT_EQ(trie.size(), 1u);
  EXPECT_EQ(trie.lookup(1, a("10.0.0.1")), 2);
}

TEST(LpmTrie, RemoveExposesShorterPrefix) {
  LpmTrie<int> trie;
  trie.insert(1, p4("10.0.0.0/8"), 8);
  trie.insert(1, p4("10.1.0.0/16"), 16);
  EXPECT_TRUE(trie.remove(1, p4("10.1.0.0/16")));
  EXPECT_EQ(trie.lookup(1, a("10.1.1.1")), 8);
  EXPECT_FALSE(trie.remove(1, p4("10.1.0.0/16")));
  EXPECT_EQ(trie.size(), 1u);
}

TEST(LpmTrie, FindIsExactNotLongest) {
  LpmTrie<int> trie;
  trie.insert(1, p4("10.0.0.0/8"), 8);
  EXPECT_NE(trie.find(1, p4("10.0.0.0/8")), nullptr);
  EXPECT_EQ(trie.find(1, p4("10.0.0.0/16")), nullptr);
}

TEST(LpmTrie, LookupWithLengthReportsDepth) {
  LpmTrie<int> trie;
  trie.insert(1, p4("10.0.0.0/8"), 8);
  trie.insert(1, p4("10.1.0.0/16"), 16);
  auto hit = trie.lookup_with_length(1, a("10.1.0.1"));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->first, 16);
  EXPECT_EQ(hit->second, 16u);
}

TEST(LpmTrie, EntriesEnumerationRoundTrips) {
  LpmTrie<int> trie;
  trie.insert(1, p4("10.0.0.0/8"), 1);
  trie.insert(2, p4("10.1.2.0/24"), 2);
  trie.insert(3, IpPrefix::must_parse("2001:db8::/48"), 3);
  auto entries = trie.entries();
  ASSERT_EQ(entries.size(), 3u);
  LpmTrie<int> rebuilt;
  for (const auto& entry : entries) {
    rebuilt.insert(entry.vni, entry.prefix, entry.value);
  }
  EXPECT_EQ(rebuilt.size(), trie.size());
  EXPECT_EQ(rebuilt.lookup(2, a("10.1.2.200")), 2);
  EXPECT_EQ(rebuilt.lookup(3, a("2001:db8::9")), 3);
}

TEST(LpmTrie, DefaultRoutePrefixLengthZero) {
  LpmTrie<int> trie;
  trie.insert(5, p4("0.0.0.0/0"), 42);
  EXPECT_EQ(trie.lookup(5, a("8.8.8.8")), 42);
  auto entries = trie.entries();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].prefix.length(), 0u);
}

TEST(LpmTrie, ClearEmptiesEverything) {
  LpmTrie<int> trie;
  trie.insert(1, p4("10.0.0.0/8"), 1);
  trie.clear();
  EXPECT_TRUE(trie.empty());
  EXPECT_EQ(trie.lookup(1, a("10.0.0.1")), std::nullopt);
}

}  // namespace
}  // namespace sf::tables
