// The walk-path table: every path a packet can take through the XGW-H
// gateway program (§4.4, Figs. 13/14), pinned by value under the folded
// and unfolded layouts, with the flow cache off and on. Each row fixes the
// verdict, the chip observables (passes, exit pipe, loopback pipe,
// modelled latency), the outer-header rewrite and the exact registry
// counter increments of one packet. With the cache on, the same packet is
// sent three times — an admission-only miss, a capture miss and a cache
// hit — and all three must match the row.
//
// The values were captured from the stage-by-stage pipeline walker the SoA
// sweep replaced, so this table is what keeps the sweep's per-path facts
// (passes and bridged bits derived from field widths and gress crossings)
// honest. A second test sends a stream mixing every path through
// process_batch at bursts of 1, 7 and the whole stream and requires the
// scalar loop's verdicts, registry JSON and cache statistics.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "telemetry/export.hpp"
#include "xgwh/xgwh.hpp"

namespace sf::xgwh {
namespace {

using net::IpAddr;
using net::IpPrefix;
using tables::RouteScope;
using tables::VmNcAction;
using tables::VmNcKey;
using tables::VxlanRouteAction;

XgwH::Config make_config(bool fold, std::size_t cache_entries) {
  XgwH::Config config;
  if (!fold) config.compression = asic::CompressionConfig::none();
  config.flow_cache_entries = cache_entries;
  return config;
}

void install(XgwH& gw) {
  const auto route = [&](net::Vni vni, const char* prefix,
                         VxlanRouteAction action) {
    gw.install_route(vni, IpPrefix::must_parse(prefix), action);
  };
  route(10, "192.168.10.0/24", {RouteScope::kLocal, 0, {}});
  route(10, "0.0.0.0/0", {RouteScope::kInternet, 0, {}});
  route(10, "172.30.0.0/16",
        {RouteScope::kIdc, 0, net::Ipv4Addr(100, 64, 0, 1)});
  route(11, "172.31.0.0/16",
        {RouteScope::kCrossRegion, 0, net::Ipv4Addr(100, 64, 0, 2)});
  route(10, "192.168.30.0/24", {RouteScope::kPeer, 11, {}});
  route(11, "192.168.30.0/24", {RouteScope::kLocal, 0, {}});
  route(32, "10.32.0.0/16", {RouteScope::kLocal, 0, {}});
  route(40, "10.40.0.0/16", {RouteScope::kPeer, 41, {}});
  route(41, "10.40.0.0/16", {RouteScope::kPeer, 40, {}});
  gw.install_mapping(VmNcKey{10, IpAddr::must_parse("192.168.10.2")},
                     VmNcAction{net::Ipv4Addr(10, 1, 1, 11)});
  gw.install_mapping(VmNcKey{10, IpAddr::must_parse("192.168.10.3")},
                     VmNcAction{net::Ipv4Addr(10, 1, 1, 12)});
  gw.install_mapping(VmNcKey{11, IpAddr::must_parse("192.168.30.5")},
                     VmNcAction{net::Ipv4Addr(10, 1, 1, 15)});
  tables::AclRule deny;
  deny.vni = 10;
  deny.dst = IpPrefix::must_parse("192.168.10.3/32");
  deny.priority = 10;
  deny.verdict = tables::AclVerdict::kDeny;
  gw.add_acl_rule(deny);
}

struct PathPacket {
  const char* path;
  net::OverlayPacket packet;
};

net::OverlayPacket packet(net::Vni vni, const char* src, const char* dst,
                          std::uint16_t src_port) {
  net::OverlayPacket pkt;
  pkt.vni = vni;
  pkt.inner.src = IpAddr::must_parse(src);
  pkt.inner.dst = IpAddr::must_parse(dst);
  pkt.inner.proto = 6;
  pkt.inner.src_port = src_port;
  pkt.inner.dst_port = 80;
  pkt.payload_size = 200;
  return pkt;
}

/// One packet per walk path, each its own flow.
std::vector<PathPacket> path_packets() {
  return {
      {"local_forward", packet(10, "192.168.10.7", "192.168.10.2", 1000)},
      {"vm_miss", packet(10, "192.168.10.7", "192.168.10.99", 1010)},
      {"internet", packet(10, "192.168.10.7", "93.184.216.34", 1020)},
      {"route_miss", packet(32, "10.32.0.7", "172.16.0.1", 1030)},
      {"idc", packet(10, "192.168.10.7", "172.30.1.1", 1040)},
      {"cross_region", packet(11, "192.168.30.7", "172.31.1.1", 1050)},
      {"peer_to_local", packet(10, "192.168.10.7", "192.168.30.5", 1060)},
      {"peer_loop", packet(41, "10.40.0.7", "10.40.0.1", 1070)},
      {"acl_deny", packet(10, "192.168.10.7", "192.168.10.3", 1080)},
      {"invalid_vni",
       packet(net::kMaxVni + 1, "192.168.10.7", "192.168.10.2", 1090)},
  };
}

using A = dataplane::Action;
using D = dataplane::DropReason;

struct Expected {
  const char* path;
  bool fold;
  A action;
  D drop_reason;
  unsigned passes;
  unsigned egress_pipe;
  int shard_pipe;  // -1: unfolded, no loopback pipe
  double latency_us;
  const char* outer_src;
  const char* outer_dst;
  std::map<std::string, std::uint64_t> counters;  // non-zero deltas
};

const std::vector<Expected>& expectations() {
  static const std::vector<Expected> rows = {
      {"local_forward", true, A::kForwardToNc, D::kNone, 2, 0, 1, 2.205675,
       "10.0.0.1", "10.1.1.11",
       {{"asic.packets", 1}, {"asic.pipe0.egress.packets", 1},
        {"asic.pipe1.egress.packets", 1}, {"asic.pipe1.ingress.packets", 1},
        {"asic.pipe2.ingress.packets", 1}, {"xgwh.bytes_in", 304},
        {"xgwh.packets_forwarded", 1}, {"xgwh.packets_in", 1},
        {"xgwh.pipe1.loopback_bytes", 304}, {"xgwh.table.route.hit", 1},
        {"xgwh.table.vm_nc.hit", 1}}},
      {"vm_miss", true, A::kFallbackToX86, D::kNone, 2, 0, 1, 2.205095,
       "10.0.0.1", "10.0.0.100",
       {{"asic.packets", 1}, {"asic.pipe0.egress.packets", 1},
        {"asic.pipe1.egress.packets", 1}, {"asic.pipe1.ingress.packets", 1},
        {"asic.pipe2.ingress.packets", 1}, {"xgwh.bytes_in", 304},
        {"xgwh.packets_fallback", 1}, {"xgwh.packets_in", 1},
        {"xgwh.pipe1.loopback_bytes", 304}, {"xgwh.table.route.hit", 1},
        {"xgwh.table.vm_nc.miss", 1}}},
      {"internet", true, A::kFallbackToX86, D::kNone, 2, 0, 1, 2.20495,
       "10.0.0.1", "10.0.0.100",
       {{"asic.packets", 1}, {"asic.pipe0.egress.packets", 1},
        {"asic.pipe1.egress.packets", 1}, {"asic.pipe1.ingress.packets", 1},
        {"asic.pipe2.ingress.packets", 1}, {"xgwh.bytes_in", 304},
        {"xgwh.packets_fallback", 1}, {"xgwh.packets_in", 1},
        {"xgwh.pipe1.loopback_bytes", 304}, {"xgwh.table.route.hit", 1}}},
      {"route_miss", true, A::kFallbackToX86, D::kNone, 2, 2, 3, 2.20495,
       "10.0.0.1", "10.0.0.100",
       {{"asic.packets", 1}, {"asic.pipe0.ingress.packets", 1},
        {"asic.pipe2.egress.packets", 1}, {"asic.pipe3.egress.packets", 1},
        {"asic.pipe3.ingress.packets", 1}, {"xgwh.bytes_in", 304},
        {"xgwh.packets_fallback", 1}, {"xgwh.packets_in", 1},
        {"xgwh.pipe3.loopback_bytes", 304}, {"xgwh.table.route.miss", 1}}},
      {"idc", true, A::kForwardTunnel, D::kNone, 2, 0, 1, 2.206255,
       "10.0.0.1", "100.64.0.1",
       {{"asic.packets", 1}, {"asic.pipe0.egress.packets", 1},
        {"asic.pipe0.ingress.packets", 1}, {"asic.pipe1.egress.packets", 1},
        {"asic.pipe1.ingress.packets", 1}, {"xgwh.bytes_in", 304},
        {"xgwh.packets_forwarded", 1}, {"xgwh.packets_in", 1},
        {"xgwh.pipe1.loopback_bytes", 304}, {"xgwh.table.route.hit", 1}}},
      {"cross_region", true, A::kForwardTunnel, D::kNone, 2, 2, 3, 2.206255,
       "10.0.0.1", "100.64.0.2",
       {{"asic.packets", 1}, {"asic.pipe0.ingress.packets", 1},
        {"asic.pipe2.egress.packets", 1}, {"asic.pipe3.egress.packets", 1},
        {"asic.pipe3.ingress.packets", 1}, {"xgwh.bytes_in", 304},
        {"xgwh.packets_forwarded", 1}, {"xgwh.packets_in", 1},
        {"xgwh.pipe3.loopback_bytes", 304}, {"xgwh.table.route.hit", 1}}},
      {"peer_to_local", true, A::kForwardToNc, D::kNone, 2, 0, 1, 2.205675,
       "10.0.0.1", "10.1.1.15",
       {{"asic.packets", 1}, {"asic.pipe0.egress.packets", 1},
        {"asic.pipe0.ingress.packets", 1}, {"asic.pipe1.egress.packets", 1},
        {"asic.pipe1.ingress.packets", 1}, {"xgwh.bytes_in", 304},
        {"xgwh.packets_forwarded", 1}, {"xgwh.packets_in", 1},
        {"xgwh.pipe1.loopback_bytes", 304}, {"xgwh.table.route.hit", 2},
        {"xgwh.table.vm_nc.hit", 1}}},
      {"peer_loop", true, A::kDrop, D::kPeerResolutionLoop, 1, 0, 3, 1.12408,
       "0.0.0.0", "0.0.0.0",
       {{"asic.drops", 1}, {"asic.packets", 1},
        {"asic.pipe0.ingress.packets", 1}, {"asic.pipe3.egress.packets", 1},
        {"xgwh.bytes_in", 304}, {"xgwh.packets_dropped", 1},
        {"xgwh.packets_in", 1}, {"xgwh.table.route.hit", 4}}},
      {"acl_deny", true, A::kDrop, D::kAclDeny, 0, 0, 1, 0.04408,
       "0.0.0.0", "0.0.0.0",
       {{"asic.drops", 1}, {"asic.packets", 1},
        {"asic.pipe2.ingress.packets", 1}, {"xgwh.bytes_in", 304},
        {"xgwh.packets_dropped", 1}, {"xgwh.packets_in", 1},
        {"xgwh.table.acl.deny", 1}}},
      {"invalid_vni", true, A::kDrop, D::kInvalidVni, 0, 0, 1, 0.04408,
       "0.0.0.0", "0.0.0.0",
       {{"asic.drops", 1}, {"asic.packets", 1},
        {"asic.pipe2.ingress.packets", 1}, {"xgwh.bytes_in", 304},
        {"xgwh.packets_dropped", 1}, {"xgwh.packets_in", 1}}},
      {"local_forward", false, A::kForwardToNc, D::kNone, 1, 1, -1, 1.125095,
       "10.0.0.1", "10.1.1.11",
       {{"asic.packets", 1}, {"asic.pipe1.egress.packets", 1},
        {"asic.pipe1.ingress.packets", 1}, {"xgwh.bytes_in", 304},
        {"xgwh.packets_forwarded", 1}, {"xgwh.packets_in", 1},
        {"xgwh.table.route.hit", 1}, {"xgwh.table.vm_nc.hit", 1}}},
      {"vm_miss", false, A::kFallbackToX86, D::kNone, 1, 3, -1, 1.124515,
       "10.0.0.1", "10.0.0.100",
       {{"asic.packets", 1}, {"asic.pipe3.egress.packets", 1},
        {"asic.pipe3.ingress.packets", 1}, {"xgwh.bytes_in", 304},
        {"xgwh.packets_fallback", 1}, {"xgwh.packets_in", 1},
        {"xgwh.table.route.hit", 1}, {"xgwh.table.vm_nc.miss", 1}}},
      {"internet", false, A::kFallbackToX86, D::kNone, 1, 1, -1, 1.124515,
       "10.0.0.1", "10.0.0.100",
       {{"asic.packets", 1}, {"asic.pipe1.egress.packets", 1},
        {"asic.pipe1.ingress.packets", 1}, {"xgwh.bytes_in", 304},
        {"xgwh.packets_fallback", 1}, {"xgwh.packets_in", 1},
        {"xgwh.table.route.hit", 1}}},
      {"route_miss", false, A::kFallbackToX86, D::kNone, 1, 0, -1, 1.124515,
       "10.0.0.1", "10.0.0.100",
       {{"asic.packets", 1}, {"asic.pipe0.egress.packets", 1},
        {"asic.pipe0.ingress.packets", 1}, {"xgwh.bytes_in", 304},
        {"xgwh.packets_fallback", 1}, {"xgwh.packets_in", 1},
        {"xgwh.table.route.miss", 1}}},
      {"idc", false, A::kForwardTunnel, D::kNone, 1, 0, -1, 1.125095,
       "10.0.0.1", "100.64.0.1",
       {{"asic.packets", 1}, {"asic.pipe0.egress.packets", 1},
        {"asic.pipe0.ingress.packets", 1}, {"xgwh.bytes_in", 304},
        {"xgwh.packets_forwarded", 1}, {"xgwh.packets_in", 1},
        {"xgwh.table.route.hit", 1}}},
      {"cross_region", false, A::kForwardTunnel, D::kNone, 1, 0, -1, 1.125095,
       "10.0.0.1", "100.64.0.2",
       {{"asic.packets", 1}, {"asic.pipe0.egress.packets", 1},
        {"asic.pipe0.ingress.packets", 1}, {"xgwh.bytes_in", 304},
        {"xgwh.packets_forwarded", 1}, {"xgwh.packets_in", 1},
        {"xgwh.table.route.hit", 1}}},
      {"peer_to_local", false, A::kForwardToNc, D::kNone, 1, 0, -1, 1.125095,
       "10.0.0.1", "10.1.1.15",
       {{"asic.packets", 1}, {"asic.pipe0.egress.packets", 1},
        {"asic.pipe0.ingress.packets", 1}, {"xgwh.bytes_in", 304},
        {"xgwh.packets_forwarded", 1}, {"xgwh.packets_in", 1},
        {"xgwh.table.route.hit", 2}, {"xgwh.table.vm_nc.hit", 1}}},
      {"peer_loop", false, A::kDrop, D::kPeerResolutionLoop, 0, 0, -1, 0.04408,
       "0.0.0.0", "0.0.0.0",
       {{"asic.drops", 1}, {"asic.packets", 1},
        {"asic.pipe0.ingress.packets", 1}, {"xgwh.bytes_in", 304},
        {"xgwh.packets_dropped", 1}, {"xgwh.packets_in", 1},
        {"xgwh.table.route.hit", 4}}},
      {"acl_deny", false, A::kDrop, D::kAclDeny, 0, 0, -1, 0.04408,
       "0.0.0.0", "0.0.0.0",
       {{"asic.drops", 1}, {"asic.packets", 1},
        {"asic.pipe3.ingress.packets", 1}, {"xgwh.bytes_in", 304},
        {"xgwh.packets_dropped", 1}, {"xgwh.packets_in", 1},
        {"xgwh.table.acl.deny", 1}}},
      {"invalid_vni", false, A::kDrop, D::kInvalidVni, 0, 0, -1, 0.04408,
       "0.0.0.0", "0.0.0.0",
       {{"asic.drops", 1}, {"asic.packets", 1},
        {"asic.pipe3.ingress.packets", 1}, {"xgwh.bytes_in", 304},
        {"xgwh.packets_dropped", 1}, {"xgwh.packets_in", 1}}},
  };
  return rows;
}

const Expected& expected(const char* path, bool fold) {
  for (const Expected& row : expectations()) {
    if (row.fold == fold && std::string(row.path) == path) return row;
  }
  throw std::logic_error("no expectation row");
}

std::map<std::string, std::uint64_t> counter_deltas(
    const telemetry::Snapshot& before, const telemetry::Snapshot& after) {
  std::map<std::string, std::uint64_t> deltas;
  for (const auto& [name, value] : after.counters) {
    const std::uint64_t delta = value - before.counter(name);
    if (delta != 0) deltas.emplace(name, delta);
  }
  return deltas;
}

void expect_row(const ForwardResult& got, const Expected& want,
                const telemetry::Snapshot& before,
                const telemetry::Snapshot& after) {
  EXPECT_EQ(got.action, want.action);
  EXPECT_EQ(got.drop_reason, want.drop_reason);
  EXPECT_FALSE(got.software_path);
  EXPECT_EQ(got.passes, want.passes);
  EXPECT_EQ(got.egress_pipe, want.egress_pipe);
  if (want.shard_pipe < 0) {
    EXPECT_FALSE(got.shard_pipe.has_value());
  } else {
    ASSERT_TRUE(got.shard_pipe.has_value());
    EXPECT_EQ(*got.shard_pipe, static_cast<unsigned>(want.shard_pipe));
  }
  EXPECT_NEAR(got.latency_us, want.latency_us, 1e-9);
  EXPECT_EQ(got.packet.outer_src_ip.to_string(), want.outer_src);
  EXPECT_EQ(got.packet.outer_dst_ip.to_string(), want.outer_dst);
  EXPECT_EQ(counter_deltas(before, after), want.counters);
  // One "asic.passes" sample per packet, walked or replayed.
  const auto* passes_before = before.histogram("asic.passes");
  const auto* passes_after = after.histogram("asic.passes");
  ASSERT_NE(passes_before, nullptr);
  ASSERT_NE(passes_after, nullptr);
  EXPECT_EQ(passes_after->count, passes_before->count + 1);
  EXPECT_EQ(passes_after->sum, passes_before->sum + want.passes);
}

TEST(WalkPaths, EveryPathMatchesItsRow) {
  for (const bool fold : {true, false}) {
    for (const std::size_t cache : {std::size_t{0}, std::size_t{1024}}) {
      XgwH gw(make_config(fold, cache));
      install(gw);
      for (const PathPacket& pp : path_packets()) {
        SCOPED_TRACE(std::string(pp.path) + (fold ? " folded" : " unfolded") +
                     (cache != 0 ? " cached" : " uncached"));
        const Expected& want = expected(pp.path, fold);
        for (int send = 0; send < 3; ++send) {
          const std::uint64_t hits = gw.flow_cache_stats().hits;
          const telemetry::Snapshot before = gw.registry().snapshot();
          const ForwardResult got = gw.forward(pp.packet, 0.0);
          const telemetry::Snapshot after = gw.registry().snapshot();
          expect_row(got, want, before, after);
          // Cached: miss (admission only), miss (capture), then a hit.
          EXPECT_EQ(gw.flow_cache_stats().hits - hits,
                    cache != 0 && send == 2 ? 1u : 0u);
        }
      }
    }
  }
}

/// Every path, six times over two flows each: the third packet of a flow
/// is a cache hit when the cache is on.
std::vector<net::OverlayPacket> mixed_stream() {
  std::vector<net::OverlayPacket> stream;
  for (int rep = 0; rep < 6; ++rep) {
    for (PathPacket& pp : path_packets()) {
      pp.packet.inner.src_port =
          static_cast<std::uint16_t>(pp.packet.inner.src_port + rep % 2);
      stream.push_back(pp.packet);
    }
  }
  return stream;
}

struct StreamRun {
  std::vector<dataplane::Verdict> verdicts;
  std::string registry;
  dataplane::FlowCacheStats cache;
};

StreamRun run_scalar(bool fold, std::size_t cache,
               const std::vector<net::OverlayPacket>& stream) {
  XgwH gw(make_config(fold, cache));
  install(gw);
  StreamRun run;
  for (const net::OverlayPacket& packet : stream) {
    run.verdicts.push_back(gw.process(packet, 0.0));
  }
  run.registry = telemetry::to_json(gw.registry().snapshot());
  run.cache = gw.flow_cache_stats();
  return run;
}

StreamRun run_bursts(bool fold, std::size_t cache, std::size_t burst,
               const std::vector<net::OverlayPacket>& stream) {
  XgwH gw(make_config(fold, cache));
  install(gw);
  StreamRun run;
  run.verdicts.resize(stream.size());
  const std::span<const net::OverlayPacket> all(stream);
  const std::span<dataplane::Verdict> out(run.verdicts);
  for (std::size_t at = 0; at < stream.size(); at += burst) {
    const std::size_t n = std::min(burst, stream.size() - at);
    gw.process_batch(all.subspan(at, n), 0.0, out.subspan(at, n));
  }
  run.registry = telemetry::to_json(gw.registry().snapshot());
  run.cache = gw.flow_cache_stats();
  return run;
}

TEST(WalkPaths, BurstsMatchTheScalarLoop) {
  const std::vector<net::OverlayPacket> stream = mixed_stream();
  for (const bool fold : {true, false}) {
    const StreamRun uncached = run_scalar(fold, 0, stream);
    for (const std::size_t cache : {std::size_t{0}, std::size_t{1024}}) {
      const StreamRun truth = run_scalar(fold, cache, stream);
      // The cache is invisible to the registry.
      EXPECT_EQ(truth.registry, uncached.registry);
      for (const std::size_t burst :
           {std::size_t{1}, std::size_t{7}, stream.size()}) {
        SCOPED_TRACE(std::string(fold ? "folded" : "unfolded") +
                     (cache != 0 ? " cached" : " uncached") + " burst " +
                     std::to_string(burst));
        const StreamRun got = run_bursts(fold, cache, burst, stream);
        ASSERT_EQ(got.verdicts.size(), truth.verdicts.size());
        for (std::size_t i = 0; i < stream.size(); ++i) {
          EXPECT_EQ(got.verdicts[i].action, truth.verdicts[i].action) << i;
          EXPECT_EQ(got.verdicts[i].drop_reason,
                    truth.verdicts[i].drop_reason)
              << i;
          EXPECT_EQ(got.verdicts[i].latency_us, truth.verdicts[i].latency_us)
              << i;
          EXPECT_EQ(got.verdicts[i].packet.outer_src_ip,
                    truth.verdicts[i].packet.outer_src_ip)
              << i;
          EXPECT_EQ(got.verdicts[i].packet.outer_dst_ip,
                    truth.verdicts[i].packet.outer_dst_ip)
              << i;
        }
        EXPECT_EQ(got.registry, truth.registry);
        EXPECT_EQ(got.cache.hits, truth.cache.hits);
        EXPECT_EQ(got.cache.misses, truth.cache.misses);
        EXPECT_EQ(got.cache.insertions, truth.cache.insertions);
        if (cache != 0) {
          EXPECT_GT(truth.cache.hits, 0u);
        }
      }
    }
  }
}

}  // namespace
}  // namespace sf::xgwh
