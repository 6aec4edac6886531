#include "xgwh/xgwh.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "net/hash.hpp"

namespace sf::xgwh {
namespace {

// ---- The gateway program's shape -----------------------------------------
//
// Four stages in walk order. Folded (Figs. 13/14), each runs in its own
// gress: entry + ACL in the entry pipe's ingress, the route lookup in the
// VNI shard's loopback egress, the VM-NC lookup back in that pipe's
// ingress, and the rewrite in the paired exit pipe's egress. Unfolded, the
// first three share the entry pipe's ingress and the rewrite runs in its
// egress. flush_soa_walk() implements the stages; this table only says
// where they run.
enum Stage : unsigned {
  kEntryStage,
  kRouteStage,
  kVmNcStage,
  kRewriteStage,
  kStageCount
};
enum PipeRole : unsigned { kEntryPipe, kLoopbackPipe, kExitPipe };

struct GressSlot {
  bool egress;
  PipeRole pipe;
};
constexpr GressSlot kFolded[kStageCount] = {
    {false, kEntryPipe}, {true, kLoopbackPipe}, {false, kLoopbackPipe},
    {true, kExitPipe}};
constexpr GressSlot kUnfolded[kStageCount] = {
    {false, kEntryPipe}, {false, kEntryPipe}, {false, kEntryPipe},
    {true, kEntryPipe}};

constexpr unsigned bit(unsigned i) { return 1u << i; }

// The metadata the stages hand on, with the widths a P4 program would
// carry in its bridged header. Metadata does not survive a gress crossing
// unless bridged, and a bridge lasts one crossing (§3.2, §4.4): a field
// crosses the first gress boundary after each stage that bridges it and
// costs its width in wire bits there. The route stage's verdict is
// re-bridged by the VM-NC stage, so folded it crosses twice; the forward
// action is read in the gress that writes it and never crosses.
struct Field {
  unsigned bits;
  unsigned bridged_by;  // stage bitmask
};
enum FieldId : unsigned {
  kShard,
  kScope,
  kFallback,
  kResolvedVni,
  kTunnelIp,
  kNcIp,
  kAction,
  kFieldCount
};
constexpr unsigned kRouteVerdict = bit(kRouteStage) | bit(kVmNcStage);
constexpr Field kFields[kFieldCount] = {
    {1, bit(kEntryStage)},  // shard
    {3, kRouteVerdict},     // scope
    {1, kRouteVerdict},     // fallback
    {24, kRouteVerdict},    // resolved_vni
    {32, kRouteVerdict},    // tunnel_ip
    {32, bit(kVmNcStage)},  // nc_ip
    {2, 0},                 // fwd_action
};

// Each walk path: the last stage it reaches and the fields it writes
// (indexed by XgwH::WalkPath).
struct PathShape {
  Stage last;
  unsigned fields;  // FieldId bitmask
};
constexpr unsigned kSteered =
    bit(kShard) | bit(kFallback) | bit(kResolvedVni) | bit(kAction);
constexpr unsigned kScoped = kSteered | bit(kScope);
constexpr PathShape kShapes[] = {
    {kEntryStage, 0},                           // invalid VNI
    {kEntryStage, bit(kShard)},                 // ACL deny
    {kRouteStage, bit(kShard)},                 // peer loop
    {kRewriteStage, kSteered},                  // route miss
    {kRewriteStage, kSteered},                  // Internet
    {kRewriteStage, kScoped | bit(kTunnelIp)},  // IDC / cross-region
    {kRewriteStage, kScoped},                   // VM miss
    {kRewriteStage, kScoped | bit(kNcIp)},      // local forward
};

// Walk paths ordered before kRouteMiss are drops.
constexpr dataplane::DropReason kDropReason[] = {
    dataplane::DropReason::kInvalidVni, dataplane::DropReason::kAclDeny,
    dataplane::DropReason::kPeerResolutionLoop};

}  // namespace

std::array<XgwH::PathFacts, XgwH::kWalkPaths> XgwH::path_facts(
    const asic::ChipConfig& chip, bool fold) {
  static_assert(std::size(kShapes) == kWalkPaths);
  const GressSlot* layout = fold ? kFolded : kUnfolded;
  std::array<PathFacts, kWalkPaths> facts{};
  unsigned widest = 0;
  for (std::size_t p = 0; p < kWalkPaths; ++p) {
    const PathShape& shape = kShapes[p];
    PathFacts& f = facts[p];
    unsigned bridged_since = 0;  // stages run since the last crossing
    for (unsigned s = 0; s <= shape.last; ++s) {
      if (s == 0 || layout[s].egress != layout[s - 1].egress) {
        // Entering a gress: the fields bridged since the last crossing
        // ride along as wire overhead.
        for (unsigned i = 0; i < kFieldCount; ++i) {
          if ((shape.fields & bit(i)) &&
              (kFields[i].bridged_by & bridged_since)) {
            f.bridged_bits = static_cast<std::uint16_t>(f.bridged_bits +
                                                        kFields[i].bits);
          }
        }
        (layout[s].egress ? f.egress_roles : f.ingress_roles) |=
            static_cast<std::uint8_t>(bit(layout[s].pipe));
        if (layout[s].egress) ++f.passes;
        bridged_since = 0;
      }
      bridged_since |= bit(s);
    }
    unsigned live = 0;
    for (unsigned i = 0; i < kFieldCount; ++i) {
      if (shape.fields & bit(i)) live += kFields[i].bits;
    }
    widest = std::max(widest, live);
  }
  // PHV resources are scarce (§6.2): the program's metadata must fit.
  if (widest > chip.phv_metadata_bits) {
    throw std::length_error(
        "PHV budget exceeded: the gateway program carries " +
        std::to_string(widest) + " metadata bits, the chip has " +
        std::to_string(chip.phv_metadata_bits));
  }
  return facts;
}

XgwH::XgwH(Config config)
    : config_(std::move(config)),
      path_facts_(path_facts(config_.chip, config_.compression.fold)) {
  if (config_.chip.pipelines != 4) {
    throw std::invalid_argument("XGW-H expects a 4-pipeline chip");
  }
  tables::Alpm<tables::VxlanRouteAction>::Config alpm_config;
  alpm_config.max_bucket_entries = config_.compression.alpm_max_bucket;
  alpm_config.directory_slice_bits = config_.chip.tcam_slice_bits;
  tables::DigestVmNcTable::Config vm_config;
  vm_config.buckets = config_.vm_table_buckets;
  for (Shard& shard : shards_) {
    shard.routes = tables::Alpm<tables::VxlanRouteAction>(alpm_config);
    shard.mappings = tables::DigestVmNcTable(vm_config);
  }
  fallback_meter_index_ = fallback_meter_.add(tables::MeterTable::Config{
      config_.fallback_rate_bps, config_.fallback_burst_bytes});
  flow_cache_ = dataplane::FlowCache<CachedWalk>(
      dataplane::FlowCache<CachedWalk>::Config{config_.flow_cache_entries});

  registry_ = std::make_unique<telemetry::Registry>();
  ctr_asic_packets_ = &registry_->counter("asic.packets");
  ctr_asic_drops_ = &registry_->counter("asic.drops");
  for (unsigned pipe = 0; pipe < 4; ++pipe) {
    const std::string base = "asic.pipe" + std::to_string(pipe);
    ctr_asic_ingress_[pipe] = &registry_->counter(base + ".ingress.packets");
    ctr_asic_egress_[pipe] = &registry_->counter(base + ".egress.packets");
  }
  hist_passes_ = &registry_->histogram(
      "asic.passes", telemetry::Histogram::Config{
                         /*min_value=*/1.0, /*growth=*/2.0,
                         /*buckets=*/4, /*reservoir=*/128});
  ctr_packets_in_ = &registry_->counter("xgwh.packets_in");
  ctr_bytes_in_ = &registry_->counter("xgwh.bytes_in");
  ctr_forwarded_ = &registry_->counter("xgwh.packets_forwarded");
  ctr_fallback_ = &registry_->counter("xgwh.packets_fallback");
  ctr_dropped_ = &registry_->counter("xgwh.packets_dropped");
  ctr_rate_limited_ = &registry_->counter("xgwh.fallback_rate_limited");
  ctr_route_hit_ = &registry_->counter("xgwh.table.route.hit");
  ctr_route_miss_ = &registry_->counter("xgwh.table.route.miss");
  ctr_vm_hit_ = &registry_->counter("xgwh.table.vm_nc.hit");
  ctr_vm_miss_ = &registry_->counter("xgwh.table.vm_nc.miss");
  ctr_acl_deny_ = &registry_->counter("xgwh.table.acl.deny");
  for (unsigned pipe = 0; pipe < 4; ++pipe) {
    ctr_pipe_bytes_[pipe] = &registry_->counter(
        "xgwh.pipe" + std::to_string(pipe) + ".loopback_bytes");
  }
  hist_latency_ = &registry_->histogram(
      "xgwh.latency_us", telemetry::Histogram::Config{
                             /*min_value=*/0.25, /*growth=*/2.0,
                             /*buckets=*/16, /*reservoir=*/256});
}

unsigned XgwH::shard_of_vni(net::Vni vni) {
  return static_cast<unsigned>(net::mix64(vni) & 1u);
}

unsigned XgwH::shard_of(net::Vni vni) const {
  return config_.compression.split ? shard_of_vni(vni) : 0u;
}

XgwH::Shard& XgwH::shard_for(net::Vni vni) { return shards_[shard_of(vni)]; }
const XgwH::Shard& XgwH::shard_for(net::Vni vni) const {
  return shards_[shard_of(vni)];
}

dataplane::BatchResult XgwH::apply(const dataplane::TableOpBatch& batch) {
  dataplane::BatchResult result;
  for (const dataplane::TableOp& op : batch.ops) {
    dataplane::TableOpStatus status = dataplane::TableOpStatus::kNotFound;
    switch (op.kind) {
      case dataplane::TableOp::Kind::kAddRoute:
        status = apply_install_route(op.vni, op.prefix, op.route_action);
        break;
      case dataplane::TableOp::Kind::kDelRoute:
        status = apply_remove_route(op.vni, op.prefix);
        break;
      case dataplane::TableOp::Kind::kAddMapping:
        status = apply_install_mapping(op.mapping_key, op.mapping_action);
        break;
      case dataplane::TableOp::Kind::kDelMapping:
        status = apply_remove_mapping(op.mapping_key);
        break;
    }
    result.record(status, op_epoch_);
  }
  return result;
}

void XgwH::note_vni_mutation(net::Vni vni) {
  ++op_epoch_;
  if (peered_vnis_.count(vni) > 0) {
    ++global_gen_;
  } else {
    ++vni_gens_[vni];
  }
}

dataplane::TableOpStatus XgwH::apply_install_route(
    net::Vni vni, const net::IpPrefix& prefix,
    tables::VxlanRouteAction action) {
  Shard& shard = shard_for(vni);
  const bool is_new = shard.routes.insert(vni, prefix, action);
  if (is_new) {
    (prefix.family() == net::IpFamily::kV4 ? shard.routes_v4
                                           : shard.routes_v6)++;
  }
  // Re-inserts can change the action payload too, so invalidate either
  // way. A peer route welds both VNIs' cache fates together permanently.
  if (action.scope == tables::RouteScope::kPeer) {
    peered_vnis_.insert(vni);
    peered_vnis_.insert(action.next_hop_vni);
    ++op_epoch_;
    ++global_gen_;
  } else {
    note_vni_mutation(vni);
  }
  return is_new ? dataplane::TableOpStatus::kOk
                : dataplane::TableOpStatus::kDuplicate;
}

dataplane::TableOpStatus XgwH::apply_remove_route(net::Vni vni,
                                                  const net::IpPrefix& prefix) {
  Shard& shard = shard_for(vni);
  if (!shard.routes.erase(vni, prefix)) {
    return dataplane::TableOpStatus::kNotFound;
  }
  (prefix.family() == net::IpFamily::kV4 ? shard.routes_v4
                                         : shard.routes_v6)--;
  note_vni_mutation(vni);
  return dataplane::TableOpStatus::kOk;
}

dataplane::TableOpStatus XgwH::apply_install_mapping(
    const tables::VmNcKey& key, tables::VmNcAction action) {
  Shard& shard = shard_for(key.vni);
  const std::size_t before =
      shard.mappings.stats().main_entries +
      shard.mappings.stats().conflict_entries;
  if (!shard.mappings.insert(key, action)) {
    // The digest table only rejects when the main bucket and the conflict
    // store are both unable to take the entry.
    return dataplane::TableOpStatus::kCapacityExceeded;
  }
  note_vni_mutation(key.vni);
  const std::size_t after = shard.mappings.stats().main_entries +
                            shard.mappings.stats().conflict_entries;
  if (after > before) {
    (key.vm_ip.is_v4() ? shard.maps_v4 : shard.maps_v6)++;
    return dataplane::TableOpStatus::kOk;
  }
  return dataplane::TableOpStatus::kDuplicate;
}

dataplane::TableOpStatus XgwH::apply_remove_mapping(
    const tables::VmNcKey& key) {
  Shard& shard = shard_for(key.vni);
  if (!shard.mappings.erase(key)) return dataplane::TableOpStatus::kNotFound;
  (key.vm_ip.is_v4() ? shard.maps_v4 : shard.maps_v6)--;
  note_vni_mutation(key.vni);
  return dataplane::TableOpStatus::kOk;
}

void XgwH::add_acl_rule(tables::AclRule rule) {
  acl_.add(std::move(rule));
  invalidate_fast_path();
}

bool XgwH::has_route(net::Vni vni, const net::IpPrefix& prefix) const {
  return shard_for(vni).routes.find(vni, prefix) != nullptr;
}

bool XgwH::has_mapping(const tables::VmNcKey& key) const {
  return shard_for(key.vni)
      .mappings.lookup(key.vni, key.vm_ip)
      .has_value();
}

std::size_t XgwH::route_count() const {
  return shards_[0].routes.size() + shards_[1].routes.size();
}

std::size_t XgwH::mapping_count() const {
  const auto s0 = shards_[0].mappings.stats();
  const auto s1 = shards_[1].mappings.stats();
  return s0.main_entries + s0.conflict_entries + s1.main_entries +
         s1.conflict_entries;
}

void XgwH::count_walk(const CachedWalk& walk) {
  const PathFacts& facts = path_facts_[static_cast<std::size_t>(walk.path)];
  const unsigned pipes[] = {walk.entry_pipe, walk.exit_pipe | 1u,
                            walk.exit_pipe};
  for (unsigned role = 0; role < 3; ++role) {
    if ((facts.ingress_roles >> role) & 1u) {
      ctr_asic_ingress_[pipes[role]]->add();
    }
    if ((facts.egress_roles >> role) & 1u) {
      ctr_asic_egress_[pipes[role]]->add();
    }
  }
  ctr_asic_packets_->add();
  // Every route lookup hits except the last one of a route miss.
  const unsigned route_hits =
      walk.route_lookups - (walk.path == WalkPath::kRouteMiss ? 1u : 0u);
  if (route_hits != 0) ctr_route_hit_->add(route_hits);
  switch (walk.path) {
    case WalkPath::kInvalidVni:
    case WalkPath::kPeerLoop:
      ctr_asic_drops_->add();
      break;
    case WalkPath::kAclDeny:
      ctr_asic_drops_->add();
      ctr_acl_deny_->add();
      break;
    case WalkPath::kRouteMiss:
      ctr_route_miss_->add();
      break;
    case WalkPath::kVmMiss:
      ctr_vm_miss_->add();
      break;
    case WalkPath::kLocal:
      ctr_vm_hit_->add();
      break;
    case WalkPath::kInternet:
    case WalkPath::kTunnel:
      break;
  }
}

void XgwH::finish_into(dataplane::Verdict& dest,
                       const net::OverlayPacket& packet, double now,
                       const CachedWalk& walk, ForwardResult* extras) {
  count_walk(walk);
  const PathFacts& facts = path_facts_[static_cast<std::size_t>(walk.path)];
  const bool dropped = walk.path < WalkPath::kRouteMiss;
  hist_passes_->record(static_cast<double>(facts.passes));

  // The batch path hands `dest` straight from the caller's verdict array,
  // so every Verdict field is (re)assigned here — nothing may survive from
  // a previous burst's verdict in the same slot. Drops die before the
  // rewrite and leave the packet untouched.
  dest.packet = packet;
  if (!dropped) {
    dest.packet.outer_src_ip = net::IpAddr(config_.device_ip);
    dest.packet.outer_dst_ip = walk.outer_dst;
  }
  dest.software_path = false;
  if (extras != nullptr) {
    extras->passes = facts.passes;
    extras->egress_pipe = dropped ? 0u : walk.exit_pipe;
  }
  // Wire size comes from this packet, so flows whose packets vary in size
  // still get exact latencies on a cache hit.
  dest.latency_us = config_.chip.latency_us(
      facts.passes, dest.packet.wire_size() + facts.bridged_bits / 8);
  hist_latency_->record(dest.latency_us);

  if (config_.compression.fold) {
    const unsigned shard = shard_of(packet.vni);
    const unsigned loopback_pipe = 1 + 2 * shard;
    if (extras != nullptr) extras->shard_pipe = loopback_pipe;
    if (!dropped) {
      ctr_pipe_bytes_[loopback_pipe]->add(packet.wire_size());
    }
  }

  if (dropped) {
    ctr_dropped_->add();
    dest.action = dataplane::Action::kDrop;
    dest.drop_reason = kDropReason[static_cast<std::size_t>(walk.path)];
    return;
  }
  dest.drop_reason = dataplane::DropReason::kNone;

  if (walk.path != WalkPath::kTunnel && walk.path != WalkPath::kLocal) {
    // Overload protection before handing to the software gateway. The
    // meter is stateful, so it runs on every packet — cache hits included.
    if (fallback_meter_.offer(fallback_meter_index_,
                              static_cast<double>(packet.wire_size()),
                              now) == tables::MeterColor::kRed) {
      ctr_rate_limited_->add();
      ctr_dropped_->add();
      dest.action = dataplane::Action::kDrop;
      dest.drop_reason = dataplane::DropReason::kFallbackRateLimited;
      return;
    }
    ctr_fallback_->add();
    dest.action = dataplane::Action::kFallbackToX86;
    return;
  }
  ctr_forwarded_->add();
  dest.action = walk.path == WalkPath::kTunnel
                    ? dataplane::Action::kForwardTunnel
                    : dataplane::Action::kForwardToNc;
}

ForwardResult XgwH::forward(const net::OverlayPacket& packet, double now) {
  ctr_packets_in_->add();
  ctr_bytes_in_->add(packet.wire_size());

  // One tuple hash serves both the entry-pipe pick and the cache key (the
  // sharded engine threads the very same hash down process_batch).
  const std::uint64_t h = packet.inner.hash();
  ForwardResult result;
  dataplane::FlowKey key;
  std::uint64_t generation = 0;
  bool capture = false;
  if (flow_cache_.enabled()) {
    // Fast path: replay the cached walk for this exact (VNI, 5-tuple).
    key = dataplane::make_flow_key(packet.vni, h);
    generation = effective_generation(packet.vni);
    if (const CachedWalk* hit = flow_cache_.find(key, generation)) {
      finish_into(result, packet, now, *hit, &result);
      return result;
    }
    // Second-miss admission: only flows that have missed before are worth
    // an insert; one-packet flows cost a single filter write.
    capture = flow_cache_.note_miss(key);
  }

  // A miss walks as a burst of one.
  static constexpr std::uint32_t kOnly = 0;
  batch_.hash.assign(1, h);
  batch_.walk.resize(1);
  batch_.pend.assign(1, 0);
  flush_soa_walk({&packet, 1}, {&kOnly, 1});
  const CachedWalk walk = batch_.walk[0];
  finish_into(result, packet, now, walk, &result);
  if (capture) flow_cache_.insert(key, generation, walk);
  return result;
}

void XgwH::process_batch_indexed(std::span<const net::OverlayPacket> packets,
                                 std::span<const std::uint64_t> flow_hashes,
                                 std::span<const std::uint32_t> indices,
                                 double now,
                                 std::span<dataplane::Verdict> out) {
  const std::size_t n = indices.size();
  if (out.size() < packets.size()) {
    throw std::invalid_argument(
        "process_batch_indexed: output span smaller than the packet array");
  }
  if (n == 0) return;

  BatchScratch& b = batch_;

  // Normalize hashes to one position-indexed column: the later sweeps
  // then stream it sequentially no matter how the indices stride. This
  // first walk also prefetches each packet a few positions ahead — the
  // engine's index lists stride the base array (one shard keeps every
  // N-th packet), which defeats the hardware streamer, so the first
  // touch of every packet would otherwise stall on L3; the later phases
  // then re-touch the burst L2-warm.
  constexpr std::size_t kAhead = 8;
  const auto prefetch_packet = [&](std::size_t i) {
    if (i + kAhead < n) {
      const char* p =
          reinterpret_cast<const char*>(&packets[indices[i + kAhead]]);
      __builtin_prefetch(p);
      __builtin_prefetch(p + 64);
    }
  };
  b.hash.resize(n);
  if (flow_hashes.empty()) {
    for (std::size_t i = 0; i < n; ++i) {
      prefetch_packet(i);
      b.hash[i] = packets[indices[i]].inner.hash();
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      prefetch_packet(i);
      b.hash[i] = flow_hashes[indices[i]];
    }
  }

  std::uint64_t bytes = 0;
  for (std::size_t i = 0; i < n; ++i) bytes += packets[indices[i]].wire_size();
  ctr_packets_in_->add(n);
  ctr_bytes_in_->add(bytes);

  b.pend.clear();
  b.walk.resize(n);

  if (flow_cache_.enabled()) {
    b.key.resize(n);
    b.gen.resize(n);
    // Phase 1: derive every cache key from the precomputed flow hash and
    // issue its slot prefetch — by the time phase 2 probes slot i, the
    // line has had n-i probes' worth of time to arrive.
    for (std::size_t i = 0; i < n; ++i) {
      b.key[i] = dataplane::make_flow_key(packets[indices[i]].vni, b.hash[i]);
      b.gen[i] = effective_generation(packets[indices[i]].vni);
      flow_cache_.prefetch(b.key[i]);
    }
    // Phase 2: probe in strict packet order — find/note_miss/insert
    // mutate cache stats and admission state, and their sequence is part
    // of the byte-identity contract. Misses queue for the SoA sweep.
    for (std::size_t i = 0; i < n; ++i) {
      if (const CachedWalk* hit = flow_cache_.find(b.key[i], b.gen[i])) {
        b.walk[i] = *hit;  // copy: the pointer dies at the next insert
        continue;
      }
      b.pend.push_back(static_cast<std::uint32_t>(i));
      if (flow_cache_.note_miss(b.key[i])) {
        // Capture miss: the entry must be in the cache before the next
        // probe (a later packet of this flow may hit it), so the pending
        // sub-burst, this packet included, walks now.
        flush_soa_walk(packets, indices);
        flow_cache_.insert(b.key[i], b.gen[i], b.walk[i]);
      }
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      b.pend.push_back(static_cast<std::uint32_t>(i));
    }
  }
  flush_soa_walk(packets, indices);

  // Phase 3: emit verdicts in packet order. Histogram records and the
  // stateful fallback meter live here, so their streams are sample-for-
  // sample what the scalar loop produces.
  for (std::size_t i = 0; i < n; ++i) {
    // The verdict slots are write-allocated on first touch and the index
    // stride defeats the hardware streamer — hint them in ahead.
    if (i + 4 < n) {
      char* slot = reinterpret_cast<char*>(&out[indices[i + 4]]);
      __builtin_prefetch(slot, 1);
      __builtin_prefetch(slot + 64, 1);
      __builtin_prefetch(slot + 128, 1);
    }
    // In-place emission: finish_into writes every Verdict field, so the
    // slot needs no clearing and no ForwardResult temporary is copied.
    finish_into(out[indices[i]], packets[indices[i]], now, b.walk[i]);
  }
}

void XgwH::flush_soa_walk(std::span<const net::OverlayPacket> packets,
                          std::span<const std::uint32_t> indices) {
  BatchScratch& b = batch_;
  const std::size_t m = b.pend.size();
  if (m == 0) return;
  const bool fold = config_.compression.fold;
  const net::IpAddr x86_hop{config_.x86_next_hop};

  b.vni.resize(m);
  b.rkey.resize(m);
  b.rpart.resize(m);

  // Entry stage: VNI check and ACL. Folded, the VNI's shard picks the
  // loopback pipe (1 + 2 * shard) and the exit pipe paired with it
  // (Ingress 1 -> Egress 0, Ingress 3 -> Egress 2; Fig. 13); unfolded,
  // the packet exits through the pipe it entered.
  b.work.clear();
  for (std::size_t k = 0; k < m; ++k) {
    const std::uint32_t pos = b.pend[k];
    const net::OverlayPacket& pkt = packets[indices[pos]];
    CachedWalk& walk = b.walk[pos];
    walk = CachedWalk{};
    walk.entry_pipe = static_cast<std::uint8_t>(entry_pipe_of(b.hash[pos]));
    walk.exit_pipe = static_cast<std::uint8_t>(
        fold ? 2 * shard_of(pkt.vni) : walk.entry_pipe);
    if (pkt.vni > net::kMaxVni) {
      walk.path = WalkPath::kInvalidVni;
      continue;
    }
    if (acl_.evaluate(pkt.vni, pkt.inner) == tables::AclVerdict::kDeny) {
      walk.path = WalkPath::kAclDeny;
      continue;
    }
    b.vni[k] = pkt.vni;
    b.work.push_back(static_cast<std::uint32_t>(k));
  }

  // Route stage, one software-pipelined sweep per peer hop (Fig. 2's
  // iterative lookup until the scope leaves "Peer"): build the pooled key
  // and prepare (TCAM directory probe + SRAM bucket prefetch) for the
  // whole worklist, then resolve the whole worklist — each bucket's DRAM
  // fetch hides behind the other keys' directory probes. Each hop
  // resolves in the shard owning the *current* VNI: peered VPCs can land
  // on different shards, in which case hardware recirculates through the
  // sibling loopback pipe (rare; peer hops are a thin slice of traffic)
  // or the controller co-shards the peer group. The model reads the
  // sibling shard directly.
  b.local.clear();
  for (int hop = 0; hop < 4 && !b.work.empty(); ++hop) {
    // Group the worklist by pipeline shard so each shard's ALPM gets one
    // contiguous key span: the directory sweep then hashes + prefetches
    // the whole span depth-major (the per-packet serial probe chain was
    // the hot path's single largest stall).
    for (unsigned s = 0; s < 2; ++s) {
      b.shard_keys[s].clear();
      b.shard_pos[s].clear();
    }
    for (std::uint32_t k : b.work) {
      const net::OverlayPacket& pkt = packets[indices[b.pend[k]]];
      b.rkey[k] = tables::make_pooled_key(b.vni[k], pkt.inner.dst);
      const unsigned s = shard_of(b.vni[k]);
      b.shard_keys[s].push_back(b.rkey[k]);
      b.shard_pos[s].push_back(k);
    }
    for (unsigned s = 0; s < 2; ++s) {
      b.shard_part[s].resize(b.shard_keys[s].size());
      shards_[s].routes.lookup_prepare_batch(b.shard_keys[s],
                                             b.shard_part[s]);
      for (std::size_t j = 0; j < b.shard_pos[s].size(); ++j) {
        b.rpart[b.shard_pos[s][j]] = b.shard_part[s][j];
      }
    }
    b.next_work.clear();
    for (std::uint32_t k : b.work) {
      CachedWalk& walk = b.walk[b.pend[k]];
      ++walk.route_lookups;
      auto route = shards_[shard_of(b.vni[k])].routes.lookup_resolve(
          b.rkey[k], b.rpart[k]);
      if (!route) {
        // Long-tail/volatile tables live in XGW-x86: steer, don't drop.
        walk.path = WalkPath::kRouteMiss;
        walk.outer_dst = x86_hop;
        continue;
      }
      switch (route->scope) {
        case tables::RouteScope::kLocal:
          b.local.push_back(k);
          break;
        case tables::RouteScope::kPeer:
          b.vni[k] = route->next_hop_vni;
          b.next_work.push_back(k);
          break;
        case tables::RouteScope::kIdc:
        case tables::RouteScope::kCrossRegion:
          walk.path = WalkPath::kTunnel;
          walk.outer_dst = net::IpAddr(route->remote_endpoint);
          break;
        case tables::RouteScope::kInternet:
          // South-north: SNAT happens at XGW-x86 (Fig. 11).
          walk.path = WalkPath::kInternet;
          walk.outer_dst = x86_hop;
          break;
      }
    }
    std::swap(b.work, b.next_work);
  }
  for (std::uint32_t k : b.work) b.walk[b.pend[k]].path = WalkPath::kPeerLoop;

  // VM-NC stage: prefetch the mapping buckets a strip at a time, then
  // resolve the strip. Strips keep the prefetched lines L1-resident —
  // prefetching the whole burst up front left the early lines evicted by
  // the time the resolve loop reached them. The mapping lives in the
  // *resolved* VNI's shard, like the route.
  constexpr std::size_t kVmStrip = 64;
  for (std::size_t s0 = 0; s0 < b.local.size(); s0 += kVmStrip) {
    const std::size_t s1 = std::min(s0 + kVmStrip, b.local.size());
    for (std::size_t j = s0; j < s1; ++j) {
      const std::uint32_t k = b.local[j];
      const net::OverlayPacket& pkt = packets[indices[b.pend[k]]];
      shards_[shard_of(b.vni[k])].mappings.prefetch(b.vni[k], pkt.inner.dst);
    }
    for (std::size_t j = s0; j < s1; ++j) {
      const std::uint32_t k = b.local[j];
      const net::OverlayPacket& pkt = packets[indices[b.pend[k]]];
      CachedWalk& walk = b.walk[b.pend[k]];
      auto mapping =
          shards_[shard_of(b.vni[k])].mappings.lookup(b.vni[k], pkt.inner.dst);
      if (mapping) {
        walk.path = WalkPath::kLocal;
        walk.outer_dst = net::IpAddr(mapping->nc_ip);
      } else {
        // Mapping not in hardware (volatile entry): fall back to XGW-x86.
        walk.path = WalkPath::kVmMiss;
        walk.outer_dst = x86_hop;
      }
    }
  }
  b.pend.clear();
}

asic::GatewayWorkload XgwH::live_workload() const {
  asic::GatewayWorkload w{};
  w.vxlan_routes_v4 = shards_[0].routes_v4 + shards_[1].routes_v4;
  w.vxlan_routes_v6 = shards_[0].routes_v6 + shards_[1].routes_v6;
  w.vm_maps_v4 = shards_[0].maps_v4 + shards_[1].maps_v4;
  w.vm_maps_v6 = shards_[0].maps_v6 + shards_[1].maps_v6;
  w.digest_conflicts = shards_[0].mappings.stats().conflict_entries +
                       shards_[1].mappings.stats().conflict_entries;
  // Physical TCAM rows, port-range expansion included.
  w.acl_rules = acl_.tcam_rows();
  return w;
}

asic::OccupancyReport XgwH::occupancy_report() const {
  asic::CompressionConfig compression = config_.compression;
  if (compression.alpm) {
    const auto s0 = shards_[0].routes.stats();
    const auto s1 = shards_[1].routes.stats();
    compression.measured_alpm = asic::AlpmDemand{
        s0.directory_slices + s1.directory_slices,
        s0.allocated_bucket_words + s1.allocated_bucket_words};
  }
  return asic::Placer(config_.chip).evaluate(live_workload(), compression);
}

double XgwH::max_throughput_bps() const {
  const unsigned active = config_.compression.fold ? 2 : 4;
  return config_.chip.throughput_bps(active);
}

double XgwH::max_packet_rate_pps() const {
  const unsigned active = config_.compression.fold ? 2 : 4;
  return config_.chip.packet_rate_pps(active);
}

}  // namespace sf::xgwh
