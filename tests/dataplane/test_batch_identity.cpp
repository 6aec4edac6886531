// Batch-identity differential suite (DESIGN.md §15): the sharded
// engine's burst size and thread count are pure throughput knobs. For a
// random packet stream hitting every verdict class, the engine at every
// sweep batch size (1/8/32/128/512) x thread count (1/8) x flow-cache
// setting (off/on) must reproduce the scalar ground truth — each packet
// processed one at a time on its hash-picked shard — verdict-for-verdict
// AND counter-for-counter (full per-device registry snapshots, compared
// as serialized JSON). An XGW-x86 group adds a concurrent mutator: bursts
// of 1/7/32 with set_lookup_seq moving between them must match a scalar
// forward() loop on verdicts, registries and flow-cache stats, and punted
// packets must leave the cache untouched.
//
// A third group pins the single-hash contract (the 5-tuple used to be
// hashed two to three times per packet): the engine's precomputed hashes
// must equal FiveTuple::hash(), agree with the shard steering, and
// derive the same flow-cache key as the scalar tuple overload.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dataplane/flow_cache.hpp"
#include "dataplane/shard_engine.hpp"
#include "dataplane/table_programmer.hpp"
#include "net/hash.hpp"
#include "telemetry/export.hpp"
#include "x86/xgw_x86.hpp"
#include "xgwh/xgwh.hpp"

namespace sf::dataplane {
namespace {

using net::IpAddr;
using net::IpPrefix;
using tables::RouteScope;

constexpr std::size_t kShards = 4;
constexpr std::size_t kPackets = 4096;
constexpr std::size_t kVnis = 8;
constexpr std::size_t kHosts = 8;

/// Tables reaching every verdict class: local forwards, VM-mapping
/// misses, internet routes on even tenants (odd tenants route-miss), and
/// the unknown tenant 999 left uninstalled.
template <typename Node>
std::vector<std::unique_ptr<Node>> make_fleet(std::size_t cache_entries) {
  std::vector<std::unique_ptr<Node>> fleet;
  for (std::size_t s = 0; s < kShards; ++s) {
    typename Node::Config config;
    config.flow_cache_entries = cache_entries;
    fleet.push_back(std::make_unique<Node>(config));
  }
  for (auto& node : fleet) {
    for (std::size_t v = 0; v < kVnis; ++v) {
      const net::Vni vni = static_cast<net::Vni>(100 + v);
      node->install_route(
          vni,
          IpPrefix(net::Ipv4Prefix(
              net::Ipv4Addr(10, static_cast<std::uint8_t>(v), 0, 0), 16)),
          {RouteScope::kLocal, 0, {}});
      if (v % 2 == 0) {
        node->install_route(vni, IpPrefix::must_parse("0.0.0.0/0"),
                            {RouteScope::kInternet, 0, {}});
      }
      for (std::size_t h = 1; h <= kHosts; ++h) {
        node->install_mapping(
            {vni, IpAddr(net::Ipv4Addr(10, static_cast<std::uint8_t>(v), 1,
                                       static_cast<std::uint8_t>(h)))},
            {net::Ipv4Addr(172, 16, static_cast<std::uint8_t>(v),
                           static_cast<std::uint8_t>(h))});
      }
    }
  }
  return fleet;
}

/// Deterministic pseudo-random stream: ~10% unknown tenant, ~20%
/// VM-mapping miss, ~10% off-subnet dst, the rest mapped VMs drawn from
/// a small flow space so the cache sees plenty of repeats.
std::vector<net::OverlayPacket> make_stream(std::uint64_t seed) {
  std::vector<net::OverlayPacket> packets;
  packets.reserve(kPackets);
  for (std::size_t i = 0; i < kPackets; ++i) {
    const std::uint64_t r = net::mix64(seed + i);
    const auto v = static_cast<std::uint8_t>(r % kVnis);
    net::OverlayPacket pkt;
    pkt.vni = static_cast<net::Vni>(100 + v);
    pkt.inner.proto = 6;
    pkt.inner.src =
        IpAddr(net::Ipv4Addr(10, v, 2,
                             static_cast<std::uint8_t>(1 + (r >> 8) % 200)));
    pkt.inner.src_port =
        static_cast<std::uint16_t>(1024 + (r >> 16) % 40000);
    pkt.inner.dst_port = 80;
    pkt.payload_size = static_cast<std::uint16_t>(64 + (r >> 24) % 1200);
    switch ((r >> 32) % 10) {
      case 0:  // unknown tenant
        pkt.vni = 999;
        pkt.inner.dst = IpAddr(net::Ipv4Addr(10, 0, 1, 1));
        break;
      case 1:
      case 2:  // inside the local /16 but no VM mapping
        pkt.inner.dst = IpAddr(net::Ipv4Addr(10, v, 9, 9));
        break;
      case 3:  // off-subnet: internet route on even tenants, miss on odd
        pkt.inner.dst = IpAddr(net::Ipv4Addr(93, 184, 216, 34));
        break;
      default:  // mapped VM, narrow flow space -> repeats -> cache hits
        pkt.inner.dst = IpAddr(
            net::Ipv4Addr(10, v, 1,
                          static_cast<std::uint8_t>(1 + (r >> 40) % kHosts)));
        pkt.inner.src = IpAddr(net::Ipv4Addr(
            10, v, 2, static_cast<std::uint8_t>(1 + (r >> 8) % 4)));
        pkt.inner.src_port =
            static_cast<std::uint16_t>(40000 + (r >> 48) % 64);
        break;
    }
    packets.push_back(pkt);
  }
  return packets;
}

/// Ground truth: the packets one at a time, each on the shard its tuple
/// hash picks — no engine, no bursts, no threads.
template <typename Node>
std::vector<Verdict> run_scalar(
    std::vector<std::unique_ptr<Node>>& fleet,
    std::span<const net::OverlayPacket> packets) {
  std::vector<Verdict> out(packets.size());
  for (std::size_t i = 0; i < packets.size(); ++i) {
    const std::size_t shard =
        static_cast<std::size_t>(packets[i].inner.hash()) % kShards;
    out[i] = fleet[shard]->process(packets[i], /*now=*/0.0);
  }
  return out;
}

template <typename Node>
std::vector<Verdict> run_engine(std::size_t threads, std::size_t batch,
                                std::vector<std::unique_ptr<Node>>& fleet,
                                std::span<const net::OverlayPacket> packets) {
  ShardEngine engine({kShards, threads, batch});
  std::vector<Verdict> out(packets.size());
  engine.process_packets(
      packets, /*now=*/0.0,
      [&](std::size_t s) -> Gateway& { return *fleet[s]; }, out);
  return out;
}

template <typename Node>
std::vector<std::string> fleet_registries(
    const std::vector<std::unique_ptr<Node>>& fleet) {
  std::vector<std::string> out;
  out.reserve(fleet.size());
  for (const auto& node : fleet) {
    out.push_back(telemetry::to_json(node->registry().snapshot()));
  }
  return out;
}

void expect_identical(const std::vector<Verdict>& got,
                      const std::vector<Verdict>& truth,
                      std::size_t threads, std::size_t batch) {
  ASSERT_EQ(got.size(), truth.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].action, truth[i].action)
        << "packet " << i << " threads " << threads << " batch " << batch;
    ASSERT_EQ(got[i].drop_reason, truth[i].drop_reason) << "packet " << i;
    ASSERT_EQ(got[i].software_path, truth[i].software_path) << "packet " << i;
    ASSERT_EQ(got[i].latency_us, truth[i].latency_us) << "packet " << i;
    ASSERT_EQ(got[i].packet.outer_src_ip, truth[i].packet.outer_src_ip)
        << "packet " << i;
    ASSERT_EQ(got[i].packet.outer_dst_ip, truth[i].packet.outer_dst_ip)
        << "packet " << i;
  }
}

template <typename Node>
void check_batch_identity(std::size_t cache_entries) {
  const auto packets = make_stream(0x5a11f15bULL);

  auto truth_fleet = make_fleet<Node>(cache_entries);
  const auto truth = run_scalar(truth_fleet, packets);
  const auto truth_regs = fleet_registries(truth_fleet);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    for (const std::size_t batch :
         {std::size_t{1}, std::size_t{8}, std::size_t{32}, std::size_t{128},
          std::size_t{512}}) {
      auto fleet = make_fleet<Node>(cache_entries);
      const auto got = run_engine(threads, batch, fleet, packets);
      expect_identical(got, truth, threads, batch);
      const auto regs = fleet_registries(fleet);
      for (std::size_t s = 0; s < kShards; ++s) {
        EXPECT_EQ(regs[s], truth_regs[s])
            << "registry diverged on shard " << s << " threads " << threads
            << " batch " << batch;
      }
    }
  }
}

TEST(BatchIdentity, XgwHUncached) { check_batch_identity<xgwh::XgwH>(0); }

TEST(BatchIdentity, XgwHCached) {
  check_batch_identity<xgwh::XgwH>(1 << 10);
}

TEST(BatchIdentity, XgwX86Uncached) {
  check_batch_identity<x86::XgwX86>(0);
}

TEST(BatchIdentity, XgwX86Cached) {
  check_batch_identity<x86::XgwX86>(1 << 10);
}

// ---- XGW-x86 under churn ---------------------------------------------------

/// A deterministic churn stream over the fleet's tenants: VM migrations,
/// mapping removals, and an odd tenant's internet route coming and going
/// (so SNAT verdicts appear and vanish mid-stream). Stamped evenly across
/// the packet stream.
std::vector<TimedTableOp> make_churn(std::size_t count) {
  std::vector<TimedTableOp> updates;
  for (std::size_t k = 0; k < count; ++k) {
    const std::uint64_t r = net::mix64(0xc4u + k);
    const auto v = static_cast<std::uint8_t>(r % kVnis);
    const auto host = static_cast<std::uint8_t>(1 + (r >> 8) % kHosts);
    TableOp op;
    op.vni = static_cast<net::Vni>(100 + v);
    op.mapping_key = {op.vni, IpAddr(net::Ipv4Addr(10, v, 1, host))};
    switch (k % 3) {
      case 0:  // live migration toward a fresh NC
        op.kind = TableOp::Kind::kAddMapping;
        op.mapping_action = {net::Ipv4Addr(
            172, static_cast<std::uint8_t>(17 + k % 50), v, host)};
        break;
      case 1:
        op.kind = TableOp::Kind::kDelMapping;
        break;
      default:  // an odd tenant's internet route, added then removed
        op.vni = static_cast<net::Vni>(101 + 2 * ((k / 6) % (kVnis / 2)));
        op.kind = (k / 3) % 2 == 0 ? TableOp::Kind::kAddRoute
                                   : TableOp::Kind::kDelRoute;
        op.prefix = IpPrefix::must_parse("0.0.0.0/0");
        op.route_action = {RouteScope::kInternet, 0, {}};
        break;
    }
    updates.push_back({op, k * kPackets / count});
  }
  return updates;
}

bool same_stats(const FlowCacheStats& a, const FlowCacheStats& b) {
  return a.hits == b.hits && a.misses == b.misses &&
         a.insertions == b.insertions && a.evictions == b.evictions &&
         a.stale_reclaims == b.stale_reclaims && a.occupied == b.occupied &&
         a.high_watermark == b.high_watermark;
}

TEST(BatchIdentity, XgwX86BurstsUnderChurnMatchTheScalarLoop) {
  // The XGW-x86 packet loop pins one table version per call. Under a
  // concurrent mutator, the engine moves set_lookup_seq between bursts;
  // every burst size must reproduce a scalar forward() loop that applies
  // each op in place the moment its apply_index passes.
  using Fleet = std::vector<std::unique_ptr<x86::XgwX86>>;
  const auto packets = make_stream(0x7e57ULL);
  const auto updates = make_churn(48);

  Fleet truth_fleet = make_fleet<x86::XgwX86>(1 << 10);
  std::vector<Verdict> truth(packets.size());
  std::size_t next = 0;
  for (std::size_t i = 0; i < packets.size(); ++i) {
    for (; next < updates.size() && updates[next].apply_index < i; ++next) {
      const TableOpBatch batch = TableOpBatch::single(updates[next].op);
      for (auto& node : truth_fleet) node->apply(batch);
    }
    const std::size_t shard =
        static_cast<std::size_t>(packets[i].inner.hash()) % kShards;
    truth[i] = truth_fleet[shard]->forward(packets[i], /*now=*/0.0);
  }
  const auto truth_regs = fleet_registries(truth_fleet);
  std::uint64_t truth_hits = 0;
  for (const auto& node : truth_fleet) {
    truth_hits += node->flow_cache_stats().hits;
  }
  ASSERT_GT(truth_hits, 0u);

  for (const std::size_t batch :
       {std::size_t{1}, std::size_t{7}, std::size_t{32}}) {
    Fleet fleet = make_fleet<x86::XgwX86>(1 << 10);
    std::vector<std::uint64_t> base(kShards);
    for (std::size_t s = 0; s < kShards; ++s) {
      base[s] = fleet[s]->table_version();
    }
    ShardEngine::UpdatePlan plan;
    plan.updates = updates;
    plan.apply = [&](std::size_t k) {
      const TableOpBatch ops = TableOpBatch::single(updates[k].op);
      for (auto& node : fleet) node->apply(ops);
    };
    plan.advance = [&](std::size_t shard, std::size_t visible) {
      fleet[shard]->set_lookup_seq(base[shard] + visible);
    };
    ShardEngine engine({kShards, /*threads=*/2, batch});
    std::vector<Verdict> got(packets.size());
    engine.process_packets(
        packets, /*now=*/0.0,
        [&](std::size_t s) -> Gateway& { return *fleet[s]; }, got, plan);
    for (auto& node : fleet) node->set_lookup_seq(std::nullopt);

    expect_identical(got, truth, /*threads=*/2, batch);
    const auto regs = fleet_registries(fleet);
    for (std::size_t s = 0; s < kShards; ++s) {
      EXPECT_EQ(regs[s], truth_regs[s])
          << "registry diverged on shard " << s << " batch " << batch;
      EXPECT_TRUE(same_stats(fleet[s]->flow_cache_stats(),
                             truth_fleet[s]->flow_cache_stats()))
          << "cache stats diverged on shard " << s << " batch " << batch;
    }
  }
}

TEST(BatchIdentity, XgwX86PuntsLeaveTheCacheUntouched) {
  // forward_punted is a burst of one through the same loop minus the
  // cache: it must neither probe nor fill, even for flows the cache holds.
  auto fleet = make_fleet<x86::XgwX86>(1 << 10);
  x86::XgwX86& node = *fleet[0];
  const auto packets = make_stream(0x977ULL);
  for (const auto& pkt : packets) node.forward(pkt, /*now=*/0.0);
  const FlowCacheStats before = node.flow_cache_stats();
  ASSERT_GT(before.hits, 0u);
  ASSERT_GT(before.occupied, 0u);
  const std::uint64_t in = node.registry().counter_value("x86.packets_in");
  for (const auto& pkt : packets) node.forward_punted(pkt, /*now=*/0.0);
  EXPECT_TRUE(same_stats(node.flow_cache_stats(), before));
  EXPECT_EQ(node.registry().counter_value("x86.packets_in"),
            in + packets.size());
}

// ---- single-hash contract --------------------------------------------------

/// Probe gateway: records what the engine feeds process_batch_indexed and
/// asserts the precomputed hash per packet equals FiveTuple::hash() and
/// lands on this very shard.
class HashProbe : public Gateway {
 public:
  HashProbe(std::size_t shard, std::size_t shards)
      : shard_(shard), shards_(shards) {}

  Verdict process(const net::OverlayPacket&, double) override {
    return Verdict{};
  }

  void process_batch_indexed(std::span<const net::OverlayPacket> packets,
                             std::span<const std::uint64_t> flow_hashes,
                             std::span<const std::uint32_t> indices,
                             double, std::span<Verdict> out) override {
    EXPECT_EQ(flow_hashes.size(), packets.size());
    for (const std::uint32_t i : indices) {
      EXPECT_EQ(flow_hashes[i], packets[i].inner.hash()) << "packet " << i;
      EXPECT_EQ(static_cast<std::size_t>(flow_hashes[i]) % shards_, shard_)
          << "packet " << i;
      out[i] = Verdict{};
      ++seen_;
    }
  }

  std::size_t seen() const { return seen_; }

 private:
  std::size_t shard_;
  std::size_t shards_;
  std::size_t seen_ = 0;
};

TEST(BatchIdentity, EngineHashesAgreeWithShardSteering) {
  const auto packets = make_stream(0xfeedULL);
  std::vector<std::unique_ptr<HashProbe>> probes;
  for (std::size_t s = 0; s < kShards; ++s) {
    probes.push_back(std::make_unique<HashProbe>(s, kShards));
  }
  ShardEngine engine({kShards, /*threads=*/2, /*batch=*/32});
  std::vector<Verdict> out(packets.size());
  engine.process_packets(
      packets, /*now=*/0.0,
      [&](std::size_t s) -> Gateway& { return *probes[s]; }, out);
  std::size_t total = 0;
  for (const auto& probe : probes) total += probe->seen();
  EXPECT_EQ(total, packets.size());
}

TEST(BatchIdentity, FlowKeyDerivationsAgree) {
  // The batched path derives cache keys from the precomputed hash; the
  // scalar path from the tuple. Both overloads must agree, or a cache
  // entry written by one path would be invisible to the other.
  const auto packets = make_stream(0xabcdULL);
  for (const auto& pkt : packets) {
    const FlowKey from_tuple = make_flow_key(pkt.vni, pkt.inner);
    const FlowKey from_hash = make_flow_key(pkt.vni, pkt.inner.hash());
    EXPECT_EQ(from_tuple, from_hash);
  }
}

}  // namespace
}  // namespace sf::dataplane
