// XGW-H: the Tofino-based hardware gateway (one SfChip running the Sailfish
// gateway program).
//
// Datapath (folded mode, Fig. 13/14 of the paper):
//   Ingress 0/2 : entry pipes — ACL, shard select (hash of VNI) -> egress 1|3
//   Egress  1/3 : loopback pipes — VXLAN route lookup in that shard
//   Ingress 1/3 : VM-NC lookup in that shard -> exit pipe select
//   Egress  0/2 : tunnel rewrite (outer DIP = NC, or steer to XGW-x86)
//
// Unfolded mode runs the whole program in one pass on every pipeline with
// fully replicated tables (4x memory, 2x throughput, half the latency).
//
// The program is defined once, as the column-major SoA sweep in
// flush_soa_walk(): every walk, scalar or batched, goes through it. The
// chip facts of each walk path (passes, bridged metadata bits, the pipes
// whose gresses it enters) are derived from the metadata field widths and
// the fold/unfold layout at construction.
//
// The gateway exposes a controller-facing table API and a data-plane
// process() call; occupancy reports come from the placer fed with *live*
// table statistics (measured ALPM partitions, measured digest conflicts).

#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "asic/chip_config.hpp"
#include "asic/placer.hpp"
#include "dataplane/flow_cache.hpp"
#include "dataplane/gateway.hpp"
#include "dataplane/table_programmer.hpp"
#include "tables/alpm.hpp"
#include "tables/digest_table.hpp"
#include "tables/service_tables.hpp"
#include "telemetry/registry.hpp"

namespace sf::xgwh {

/// The hardware gateway's verdict: the unified dataplane fields plus the
/// chip-level observables the figures consume.
struct ForwardResult : dataplane::Verdict {
  unsigned passes = 0;
  unsigned egress_pipe = 0;
  /// Loopback egress pipe (1 or 3) the packet crossed in folded mode —
  /// the quantity Figs. 20/21 balance.
  std::optional<unsigned> shard_pipe;
};

class XgwH : public dataplane::Gateway, public dataplane::TableProgrammer {
 public:
  struct Config {
    asic::ChipConfig chip;
    asic::CompressionConfig compression = asic::CompressionConfig::all();
    net::Ipv4Addr device_ip = net::Ipv4Addr(10, 0, 0, 1);
    /// Next hop for fallback traffic (the XGW-x86 cluster VIP).
    net::Ipv4Addr x86_next_hop = net::Ipv4Addr(10, 0, 0, 100);
    /// Rate limit toward XGW-x86 (overload protection, §4.2).
    double fallback_rate_bps = 20e9;
    double fallback_burst_bytes = 32e6;
    /// Hash buckets of each shard's VM-NC table (4 ways each). Sized for
    /// the expected mapping count; fleet simulations spawn many devices,
    /// so the default stays modest.
    std::size_t vm_table_buckets = 1 << 14;
    /// Flow-cache slots in front of the pipeline walk (0 disables; the
    /// default honors the SF_FLOW_CACHE environment gate). The cache table
    /// is allocated lazily on first insert, so idle fleet devices cost
    /// nothing.
    std::size_t flow_cache_entries = dataplane::default_flow_cache_entries();
  };

  explicit XgwH(Config config);

  // ---- controller-facing table API (dataplane::TableProgrammer) ----------

  /// Applies a batch op-by-op. Cached verdicts of a mutated VNI lazily
  /// miss and re-walk; other VNIs keep their fast path (per-VNI
  /// generations — DESIGN.md §13). The publish epoch reported per op is
  /// the device's monotone mutation counter.
  dataplane::BatchResult apply(const dataplane::TableOpBatch& batch) override;
  void add_acl_rule(tables::AclRule rule);

  /// Invalidates every cached verdict, across all VNIs: the cluster/DR
  /// layers call this on health reroutes and standby swaps, and ACL
  /// changes escalate here too (rules match any VNI).
  void invalidate_fast_path() {
    ++op_epoch_;
    ++global_gen_;
  }
  std::uint64_t fast_path_generation() const { return op_epoch_; }

  /// Hit/miss/eviction statistics of the flow cache (plain struct, kept
  /// outside the registry so telemetry snapshots stay byte-identical with
  /// the cache on or off).
  const dataplane::FlowCacheStats& flow_cache_stats() const {
    return flow_cache_.stats();
  }

  /// True when this device's flow cache holds a live entry for the
  /// packet's flow — the guard's tier-1 "established?" probe. Const and
  /// side-effect free: it never touches cache stats or the admission
  /// filter, so probing cannot perturb cache-on/off byte-identity.
  bool flow_established(const net::OverlayPacket& packet) const {
    if (!flow_cache_.enabled()) return false;
    return flow_cache_.contains(
        dataplane::make_flow_key(packet.vni, packet.inner),
        effective_generation(packet.vni));
  }

  std::size_t route_count() const;
  std::size_t mapping_count() const;

  /// Exact-presence checks, used by the controller's consistency audit.
  bool has_route(net::Vni vni, const net::IpPrefix& prefix) const;
  bool has_mapping(const tables::VmNcKey& key) const;

  // ---- data plane (dataplane::Gateway) ------------------------------------

  /// Processes one packet with full chip observables. `now` is the
  /// simulation clock (seconds), used by the fallback rate limiter. The
  /// entry pipe is a flow-hash pick among the entry pipes.
  ForwardResult forward(const net::OverlayPacket& packet, double now = 0);

  /// Gateway interface: forward() sliced to the unified verdict.
  dataplane::Verdict process(const net::OverlayPacket& packet,
                             double now) override {
    return forward(packet, now);
  }

  /// The SoA batched fast path (DESIGN.md §15): cache probes stay in
  /// strict packet order (FlowCacheStats byte-exact), misses walk the
  /// pipeline as a column-major batch, and verdicts emit in packet order —
  /// byte-identical to looping process(). The sharded engine hands each
  /// shard sub-spans of one shared index list, so packets and verdicts
  /// are never copied per burst. `flow_hashes` may be empty (hashes are
  /// then computed here, once per packet).
  void process_batch_indexed(std::span<const net::OverlayPacket> packets,
                             std::span<const std::uint64_t> flow_hashes,
                             std::span<const std::uint32_t> indices,
                             double now,
                             std::span<dataplane::Verdict> out) override;

  using dataplane::Gateway::process_batch;  // contiguous forms

  // ---- telemetry ----------------------------------------------------------

  /// This device's always-on counter registry, the only count of its
  /// outcomes: packets and bytes in, forwarded/fallback/dropped and
  /// rate-limited packets, per-table hit/miss counts
  /// ("xgwh.table.route.hit", ...), per-pipe gress counters
  /// ("asic.pipeN.*"), per-loopback-pipe bytes and pass-count and
  /// forwarding-latency histograms. Fleet views merge these snapshots.
  telemetry::Registry& registry() { return *registry_; }
  const telemetry::Registry& registry() const { return *registry_; }

  /// Occupancy under this gateway's compression config, fed with live
  /// table statistics.
  asic::OccupancyReport occupancy_report() const;

  /// Live workload description (entry counts by family + measured ALPM /
  /// digest stats) — also reused by the controller's water-level checks.
  asic::GatewayWorkload live_workload() const;

  const Config& config() const { return config_; }

  /// Performance envelope of this gateway (Fig. 18): active entry pipes
  /// halve under folding.
  double max_throughput_bps() const;
  double max_packet_rate_pps() const;

  /// The shard (0/1) a VNI's entries land in when splitting is enabled:
  /// a hash of the VNI (§4.4 offers "parity of VNI" as one option; a
  /// hash stays balanced even when VNI assignment correlates with
  /// clusters). Static so load balancers and simulators can agree.
  static unsigned shard_of_vni(net::Vni vni);

 private:
  struct Shard {
    tables::Alpm<tables::VxlanRouteAction> routes;
    tables::DigestVmNcTable mappings;
    std::size_t routes_v4 = 0;
    std::size_t routes_v6 = 0;
    std::size_t maps_v4 = 0;
    std::size_t maps_v6 = 0;
  };

  /// Where a walk of the gateway program ends. With the pipes it used, a
  /// walk's path fixes its verdict, its chip facts (PathFacts) and every
  /// counter it bumps (count_walk()). Drop paths come first.
  enum class WalkPath : std::uint8_t {
    kInvalidVni,  // entry stage drop
    kAclDeny,     // entry stage drop
    kPeerLoop,    // route stage drop: the peer hop budget ran out
    kRouteMiss,   // route stage steers to XGW-x86
    kInternet,    // route stage steers to XGW-x86 (SNAT there, Fig. 11)
    kTunnel,      // IDC / cross-region: outer DIP = the remote endpoint
    kVmMiss,      // VM-NC stage steers to XGW-x86
    kLocal,       // VM-NC hit: outer DIP = the NC
  };
  static constexpr std::size_t kWalkPaths = 8;

  /// What one walk took: the flow cache's per-flow entry. A hit goes
  /// through the same finish_into()/count_walk() code as a fresh walk, so
  /// neither verdicts nor the registry can tell the two apart.
  struct CachedWalk {
    WalkPath path = WalkPath::kInvalidVni;
    std::uint8_t route_lookups = 0;  // peer hops + the final lookup
    std::uint8_t entry_pipe = 0;
    /// Folded: the exit pipe paired with the VNI shard's loopback pipe,
    /// which is exit_pipe | 1. Unfolded: the entry pipe.
    std::uint8_t exit_pipe = 0;
    net::IpAddr outer_dst;  // NC, tunnel endpoint or XGW-x86; unset on drops
  };

  /// Chip facts of one walk path under this device's layout, derived at
  /// construction (path_facts() in xgwh.cpp).
  struct PathFacts {
    std::uint8_t passes = 0;
    std::uint16_t bridged_bits = 0;
    /// Pipe roles (bit 0 entry, 1 loopback, 2 exit) whose ingress / egress
    /// gress the walk enters.
    std::uint8_t ingress_roles = 0;
    std::uint8_t egress_roles = 0;
  };
  static std::array<PathFacts, kWalkPaths> path_facts(
      const asic::ChipConfig& chip, bool fold);

  /// Shard index (0/1) for a VNI — parity split (§4.4).
  unsigned shard_of(net::Vni vni) const;
  Shard& shard_for(net::Vni vni);
  const Shard& shard_for(net::Vni vni) const;

  // Per-op bodies behind apply().
  dataplane::TableOpStatus apply_install_route(
      net::Vni vni, const net::IpPrefix& prefix,
      tables::VxlanRouteAction action);
  dataplane::TableOpStatus apply_remove_route(net::Vni vni,
                                              const net::IpPrefix& prefix);
  dataplane::TableOpStatus apply_install_mapping(const tables::VmNcKey& key,
                                                 tables::VmNcAction action);
  dataplane::TableOpStatus apply_remove_mapping(const tables::VmNcKey& key);

  /// Invalidates cached verdicts that may depend on `vni`: bumps the
  /// VNI's own generation, or the global one when the VNI ever took part
  /// in a peer route (a cached verdict may have crossed the hop).
  void note_vni_mutation(net::Vni vni);
  /// Composite cache generation for a packet entering on `vni`.
  std::uint64_t effective_generation(net::Vni vni) const {
    const auto it = vni_gens_.find(vni);
    const std::uint64_t local = it == vni_gens_.end() ? 0 : it->second;
    return (global_gen_ << 32) | (local & 0xFFFFFFFFu);
  }

  /// The one counter rule: bumps the registry counters for what `walk`
  /// took, for walked and replayed packets alike.
  void count_walk(const CachedWalk& walk);

  /// Emits the verdict of `walk` straight into the caller's slot (the
  /// batch path emits without an intermediate ForwardResult copy) and
  /// counts the walk. Every Verdict field of `dest` is assigned;
  /// `extras`, when given, receives the ForwardResult-only fields.
  void finish_into(dataplane::Verdict& dest, const net::OverlayPacket& packet,
                   double now, const CachedWalk& walk,
                   ForwardResult* extras = nullptr);

  /// Entry-pipe pick from the flow hash (the scalar path and the batch
  /// path must agree bit-for-bit).
  unsigned entry_pipe_of(std::uint64_t flow_hash) const {
    return config_.compression.fold
               ? (flow_hash & 1 ? 2u : 0u)
               : static_cast<unsigned>(flow_hash & 3);
  }

  /// The gateway program: walks the pending positions of the current
  /// burst (`batch_.pend`) as a column-major SoA batch and fills their
  /// CachedWalk entries.
  void flush_soa_walk(std::span<const net::OverlayPacket> packets,
                      std::span<const std::uint32_t> indices);

  /// Reusable column-major scratch of the batched fast path (DESIGN.md
  /// §15). A device is single-writer, so one scratch per device suffices;
  /// vectors keep their capacity across bursts.
  struct BatchScratch {
    // Per-packet columns, indexed by POSITION in the burst's index list
    // (not by the caller's packet index — positions are dense, indices
    // may stride).
    std::vector<dataplane::FlowKey> key;
    std::vector<std::uint64_t> gen;
    std::vector<CachedWalk> walk;
    std::vector<std::uint64_t> hash;  // position-indexed flow hashes
    /// Burst positions whose walk is pending for the SoA sweep (cache
    /// misses, or every packet when the cache is off).
    std::vector<std::uint32_t> pend;

    // SoA walk columns, indexed by position in `pend`.
    std::vector<net::Vni> vni;            // VNI of the current route hop
    std::vector<tables::TcamKey> rkey;    // pooled route key per hop
    std::vector<std::uint32_t> rpart;     // prepared ALPM partition
    std::vector<std::uint32_t> work;      // current sweep's worklist
    std::vector<std::uint32_t> next_work;
    std::vector<std::uint32_t> local;     // local-scope hits for VM-NC
    // Per-pipeline-shard gather lists for the batched directory sweep:
    // the route stage groups the worklist by shard so each shard's ALPM
    // sees one contiguous key span to software-pipeline.
    std::vector<tables::TcamKey> shard_keys[2];
    std::vector<std::uint32_t> shard_pos[2];
    std::vector<std::uint32_t> shard_part[2];
  };
  BatchScratch batch_;

  Config config_;
  std::array<Shard, 2> shards_;
  tables::AclTable acl_;
  tables::MeterTable fallback_meter_;
  std::size_t fallback_meter_index_ = 0;

  std::array<PathFacts, kWalkPaths> path_facts_;

  // Flow-cache fast path (single-writer; one cache per device/shard).
  // Invalidation is per-VNI: entries carry the composite generation of
  // their entry VNI, so a route churn in one tenant leaves every other
  // tenant's fast path warm.
  dataplane::FlowCache<CachedWalk> flow_cache_;
  std::uint64_t op_epoch_ = 0;    // monotone mutation counter
  std::uint64_t global_gen_ = 0;  // all-VNI invalidation generation
  std::unordered_map<net::Vni, std::uint64_t> vni_gens_;
  std::unordered_set<net::Vni> peered_vnis_;

  // Registry + pre-resolved counter handles (hot-path instruments).
  std::unique_ptr<telemetry::Registry> registry_;
  telemetry::Counter* ctr_packets_in_ = nullptr;
  telemetry::Counter* ctr_bytes_in_ = nullptr;
  telemetry::Counter* ctr_forwarded_ = nullptr;
  telemetry::Counter* ctr_fallback_ = nullptr;
  telemetry::Counter* ctr_dropped_ = nullptr;
  telemetry::Counter* ctr_rate_limited_ = nullptr;
  telemetry::Counter* ctr_route_hit_ = nullptr;
  telemetry::Counter* ctr_route_miss_ = nullptr;
  telemetry::Counter* ctr_vm_hit_ = nullptr;
  telemetry::Counter* ctr_vm_miss_ = nullptr;
  telemetry::Counter* ctr_acl_deny_ = nullptr;
  std::array<telemetry::Counter*, 4> ctr_pipe_bytes_{};
  telemetry::Histogram* hist_latency_ = nullptr;
  telemetry::Histogram* hist_passes_ = nullptr;
  telemetry::Counter* ctr_asic_packets_ = nullptr;
  telemetry::Counter* ctr_asic_drops_ = nullptr;
  std::array<telemetry::Counter*, 4> ctr_asic_ingress_{};
  std::array<telemetry::Counter*, 4> ctr_asic_egress_{};
};

}  // namespace sf::xgwh
