// The XGW-H layer probe of the traced region run: an 8-shard fleet of
// XGW-H devices behind ShardEngine, each holding every entry of the
// region topology that a device accepts, fed bursts in which every packet
// is a new flow to an installed VM. The flow cache never hits, so the ALPM
// route lookup, the VM-NC digest table and the miss/admission path do the
// work; an uncached twin fleet and standalone tables take the same keys.

#include <map>
#include <memory>

#include "common.hpp"
#include "dataplane/shard_engine.hpp"
#include "tables/alpm.hpp"
#include "tables/digest_table.hpp"
#include "trace.hpp"
#include "workload/rng.hpp"
#include "xgwh/xgwh.hpp"

namespace pb {
namespace {

constexpr std::size_t kShards = 8;
constexpr std::size_t kBurst = 2048;      // packets per engine call
constexpr std::size_t kProbeCalls = 200;

using Fleet = std::vector<std::unique_ptr<xgwh::XgwH>>;

/// An installed VM a packet can be sent to, with a same-VPC source.
struct Dest {
  net::Vni vni = 0;
  net::IpAddr ip;
  net::IpAddr src;
  net::Ipv4Addr nc;
};

/// Every admitted VM, with a same-VPC source address.
std::vector<Dest> destinations(const workload::RegionTopology& topology,
                               const TableEntries& admitted) {
  std::map<std::pair<net::Vni, net::IpAddr>, net::Ipv4Addr> installed;
  for (const auto& [key, action] : admitted.mappings) {
    installed.emplace(std::make_pair(key.vni, key.vm_ip), action.nc_ip);
  }
  std::vector<Dest> dests;
  for (const workload::VpcRecord& vpc : topology.vpcs) {
    for (std::size_t i = 0; i < vpc.vms.size(); ++i) {
      const auto it = installed.find({vpc.vni, vpc.vms[i].ip});
      if (it == installed.end()) continue;
      const auto& peer = vpc.vms[(i + 1) % vpc.vms.size()];
      dests.push_back(Dest{vpc.vni, vpc.vms[i].ip, peer.ip, it->second});
    }
  }
  return dests;
}

/// Builds the fleet and installs the entries (every op must succeed).
Fleet make_fleet(const TableEntries& entries, bool cached, Outcome& out) {
  Fleet fleet;
  for (std::size_t s = 0; s < kShards; ++s) {
    xgwh::XgwH::Config config;
    if (!cached) config.flow_cache_entries = 0;
    fleet.push_back(std::make_unique<xgwh::XgwH>(config));
    install_entries(*fleet.back(), entries, out);
  }
  return fleet;
}

net::OverlayPacket packet_to(const Dest& dest, std::uint16_t src_port,
                             std::uint16_t dst_port) {
  net::OverlayPacket packet;
  packet.vni = dest.vni;
  packet.inner.src = dest.src;
  packet.inner.dst = dest.ip;
  packet.inner.proto = 17;
  packet.inner.src_port = src_port;
  packet.inner.dst_port = dst_port;
  packet.payload_size = 0;  // minimum-size frames
  return packet;
}

/// The packet source: every packet a never-repeated flow to a random
/// installed VM.
class Source {
 public:
  Source(const std::vector<Dest>& dests, std::uint64_t seed)
      : dests_(dests), rng_(seed) {}

  /// Fills a burst and the verdicts it must produce.
  void fill(std::vector<net::OverlayPacket>& packets,
            std::vector<Expect>& expect) {
    for (std::size_t i = 0; i < packets.size(); ++i) {
      const Dest& dest = dests_[rng_.uniform(dests_.size())];
      // The counter spreads over both ports, so no 5-tuple repeats.
      packets[i] =
          packet_to(dest, static_cast<std::uint16_t>(counter_ & 0xFFFF),
                    static_cast<std::uint16_t>(1 + (counter_ >> 16)));
      expect[i] = Expect{dataplane::Action::kForwardToNc, dest.nc};
      ++counter_;
    }
  }

 private:
  const std::vector<Dest>& dests_;
  workload::Rng rng_;
  std::uint64_t counter_ = 0;
};

std::uint64_t route_lookups(const Fleet& fleet) {
  std::uint64_t sum = 0;
  for (const auto& device : fleet) {
    sum += device->registry().counter_value("xgwh.table.route.hit") +
           device->registry().counter_value("xgwh.table.route.miss");
  }
  return sum;
}

/// Standalone ALPM and VM-NC digest tables holding the fleet's entries,
/// replaying the keys of `packets` through their batch lookup paths.
void table_probe(const TableEntries& entries,
                 const std::vector<net::OverlayPacket>& packets,
                 const std::vector<Expect>& expect, Outcome& out) {
  // Two shard tables split by VNI, configured like a device's.
  const xgwh::XgwH::Config device;
  tables::Alpm<tables::VxlanRouteAction>::Config alpm_config;
  alpm_config.max_bucket_entries = device.compression.alpm_max_bucket;
  alpm_config.directory_slice_bits = device.chip.tcam_slice_bits;
  tables::DigestVmNcTable::Config digest_config;
  digest_config.buckets = device.vm_table_buckets;
  std::vector<tables::Alpm<tables::VxlanRouteAction>> alpm;
  std::vector<tables::DigestVmNcTable> digest;
  for (int s = 0; s < 2; ++s) {
    alpm.emplace_back(alpm_config);
    digest.emplace_back(digest_config);
  }
  const auto shard = [](net::Vni vni) { return xgwh::XgwH::shard_of_vni(vni); };
  for (const auto& [key, action] : entries.routes) {
    out.check(alpm[shard(key.vni)].insert(key.vni, key.prefix, action),
              "probe route insert");
  }
  for (const auto& [key, action] : entries.mappings) {
    out.check(digest[shard(key.vni)].insert(key, action),
              "probe mapping insert");
  }

  std::vector<tables::TcamKey> keys[2];
  std::vector<std::uint32_t> parts[2];
  std::vector<std::size_t> index[2];
  std::vector<std::optional<tables::VxlanRouteAction>> routes(kBurst);
  std::vector<std::optional<tables::VmNcAction>> maps(kBurst);
  for (std::size_t base = 0; base + kBurst <= packets.size(); base += kBurst) {
    for (unsigned s = 0; s < 2; ++s) {
      keys[s].clear();
      index[s].clear();
    }
    for (std::size_t i = 0; i < kBurst; ++i) {
      const net::OverlayPacket& p = packets[base + i];
      keys[shard(p.vni)].push_back(tables::make_pooled_key(p.vni, p.inner.dst));
      index[shard(p.vni)].push_back(i);
    }
    for (unsigned s = 0; s < 2; ++s) parts[s].resize(keys[s].size());
    {
      ScopedSpan span("tables.alpm", 0, base / kBurst, kBurst);
      for (unsigned s = 0; s < 2; ++s) {
        alpm[s].lookup_prepare_batch(keys[s], parts[s]);
        for (std::size_t k = 0; k < keys[s].size(); ++k) {
          routes[index[s][k]] = alpm[s].lookup_resolve(keys[s][k], parts[s][k]);
        }
      }
    }
    {
      ScopedSpan span("tables.vmnc", 0, base / kBurst, kBurst);
      for (std::size_t i = 0; i < kBurst; ++i) {
        const net::OverlayPacket& p = packets[base + i];
        digest[shard(p.vni)].prefetch(p.vni, p.inner.dst);
      }
      for (std::size_t i = 0; i < kBurst; ++i) {
        const net::OverlayPacket& p = packets[base + i];
        maps[i] = digest[shard(p.vni)].lookup(p.vni, p.inner.dst);
      }
    }
    for (std::size_t i = 0; i < kBurst; ++i) {
      out.check(routes[i].has_value() &&
                    routes[i]->scope == tables::RouteScope::kLocal,
                "probe route lookup");
      out.check(maps[i].has_value() && maps[i]->nc_ip == expect[base + i].nc,
                "probe mapping lookup");
    }
  }
}

}  // namespace

/// The entries one device accepts, in install order. A 4-way VM-NC
/// bucket that is full rejects an entry with kCapacityExceeded; the
/// controller would place such a VM on the software tier, so the hardware
/// fleet is programmed with the accepted subset only and every install op
/// of the timed fleet must then succeed. Devices share one configuration,
/// so one scratch device decides for all of them. When `rss_per_entry` is
/// given it receives the resident growth from building and filling the
/// scratch device, per accepted entry.
TableEntries admit_to_xgwh(const TableEntries& entries,
                           double* rss_per_entry) {
  const double before = rss_mb();
  xgwh::XgwH scratch{xgwh::XgwH::Config{}};
  for (const auto& [key, action] : entries.routes) {
    scratch.install_route(key.vni, key.prefix, action);
  }
  std::vector<bool> accepted;
  accepted.reserve(entries.mappings.size());
  for (const auto& [key, action] : entries.mappings) {
    accepted.push_back(scratch.install_mapping(key, action) ==
                       dataplane::TableOpStatus::kOk);
  }
  const double grown_bytes = (rss_mb() - before) * 1e6;

  TableEntries admitted;
  admitted.routes = entries.routes;
  for (std::size_t i = 0; i < accepted.size(); ++i) {
    if (accepted[i]) admitted.mappings.push_back(entries.mappings[i]);
  }
  if (rss_per_entry != nullptr) {
    *rss_per_entry = grown_bytes / static_cast<double>(admitted.size());
  }
  return admitted;
}

void xgwh_fleet_probe(const workload::RegionTopology& topology,
                      std::uint64_t seed, Outcome& out) {
  const TableEntries entries = admit_to_xgwh(TableEntries(topology));
  const std::vector<Dest> dests = destinations(topology, entries);
  Fleet fleet = make_fleet(entries, /*cached=*/true, out);
  Fleet twin = make_fleet(entries, /*cached=*/false, out);
  std::vector<std::unique_ptr<TimedGateway>> cached_gw, twin_gw;
  for (std::size_t s = 0; s < kShards; ++s) {
    cached_gw.push_back(
        std::make_unique<TimedGateway>(*fleet[s], "xgwh.gateway"));
    twin_gw.push_back(
        std::make_unique<TimedGateway>(*twin[s], "probe.uncached"));
  }
  dataplane::ShardEngine engine({kShards, 1});
  Source source(dests, seed * 0x9e3779b97f4a7c15ULL + 1);
  std::vector<net::OverlayPacket> burst(kBurst);
  std::vector<Expect> expect(kBurst);
  std::vector<dataplane::Verdict> verdicts(kBurst), twin_verdicts(kBurst);
  std::vector<net::OverlayPacket> packets;
  std::vector<Expect> expected;

  // The same fresh flows through the cached fleet and the uncached twin;
  // the gateway-time difference is what the cache's probe, admission
  // filter and capture walk add on a miss.
  const std::uint64_t lookups0 = route_lookups(fleet);
  for (std::size_t c = 0; c < kProbeCalls; ++c) {
    source.fill(burst, expect);
    for (std::size_t s = 0; s < kShards; ++s) {
      cached_gw[s]->set_parent(0, c);
      twin_gw[s]->set_parent(0, c);
    }
    engine.process_packets(
        burst, 0.0,
        [&](std::size_t s) -> dataplane::Gateway& { return *cached_gw[s]; },
        verdicts);
    engine.process_packets(
        burst, 0.0,
        [&](std::size_t s) -> dataplane::Gateway& { return *twin_gw[s]; },
        twin_verdicts);
    for (std::size_t i = 0; i < kBurst; ++i) {
      out.check_verdict(verdicts[i], expect[i]);
      out.check_verdict(twin_verdicts[i], expect[i]);
    }
    packets.insert(packets.end(), burst.begin(), burst.end());
    expected.insert(expected.end(), expect.begin(), expect.end());
  }

  const auto& spans = Tracer::get().spans();
  const SpanTotals cached = totals(spans, "xgwh.gateway");
  const SpanTotals uncached = totals(spans, "probe.uncached");
  auto& m = out.metrics;
  m["xgwh.ns_per_pkt"] = ratio(cached.total_ns, cached.items);
  m["flow_cache.miss_cost_ns_per_pkt"] =
      ratio(cached.total_ns, cached.items) -
      ratio(uncached.total_ns, uncached.items);
  m["xgwh.walks_per_pkt"] =
      ratio(static_cast<double>(route_lookups(fleet) - lookups0),
            static_cast<double>(packets.size()));
  m["xgwh.registry_counters"] =
      static_cast<double>(fleet[0]->registry().counter_count());

  table_probe(entries, packets, expected, out);
  const SpanTotals alpm = totals(spans, "tables.alpm");
  const SpanTotals vmnc = totals(spans, "tables.vmnc");
  m["tables.alpm_ns_per_lookup"] = ratio(alpm.total_ns, alpm.items);
  m["tables.vmnc_ns_per_lookup"] = ratio(vmnc.total_ns, vmnc.items);
}

}  // namespace pb
