#include "x86/xgw_x86.hpp"

#include <algorithm>
#include <stdexcept>

namespace sf::x86 {

XgwX86::XgwX86(Config config)
    : config_(config),
      routes_(/*bucket_hint=*/4096),
      mappings_(/*bucket_hint=*/4096),
      vni_gens_(/*bucket_hint=*/256),
      snat_(config.snat),
      rss_(config.model.cores, 128, config.rss_seed),
      flow_cache_(dataplane::FlowCache<CachedVerdict>::Config{
          config.flow_cache_entries}),
      registry_(std::make_unique<telemetry::Registry>()) {
  ctr_packets_in_ = &registry_->counter("x86.packets_in");
  ctr_bytes_in_ = &registry_->counter("x86.bytes_in");
  ctr_forwarded_ = &registry_->counter("x86.packets_forwarded");
  ctr_snat_ = &registry_->counter("x86.packets_snat");
  ctr_snat_failures_ = &registry_->counter("x86.snat_failures");
  ctr_dropped_ = &registry_->counter("x86.packets_dropped");
  ctr_table_ops_ = &registry_->counter("x86.table_ops");
  hist_latency_ = &registry_->histogram(
      "x86.latency_us", telemetry::Histogram::Config{
                            /*min_value=*/1.0, /*growth=*/2.0,
                            /*buckets=*/16, /*reservoir=*/256});
}

dataplane::BatchResult XgwX86::apply(const dataplane::TableOpBatch& batch) {
  dataplane::BatchResult result;
  if (batch.empty()) {
    result.publish_epoch = seq_;
    return result;
  }
  // The whole batch lands at one new version: forwarding observes either
  // none of it or all of it, never a partial transaction.
  ++seq_;
  for (const dataplane::TableOp& op : batch.ops) {
    result.record(apply_one(op), seq_);
  }
  epoch_.publish(seq_);
  // Steady-state reclamation: versions below the forwarding floor are
  // unreachable; sweep every few hundred mutations.
  if (seq_ - last_collect_seq_ >= 512) {
    const std::uint64_t floor =
        lookup_seq_.load(std::memory_order_acquire);
    collect_garbage(floor == kLookupLatest ? seq_ : floor);
  }
  return result;
}

dataplane::TableOpStatus XgwX86::apply_one(const dataplane::TableOp& op) {
  ctr_table_ops_->add();
  note_mutation(op);
  switch (op.kind) {
    case dataplane::TableOp::Kind::kAddRoute:
      return routes_.insert(op.vni, op.prefix, op.route_action, seq_)
                 ? dataplane::TableOpStatus::kOk
                 : dataplane::TableOpStatus::kDuplicate;
    case dataplane::TableOp::Kind::kDelRoute:
      return routes_.erase(op.vni, op.prefix, seq_)
                 ? dataplane::TableOpStatus::kOk
                 : dataplane::TableOpStatus::kNotFound;
    case dataplane::TableOp::Kind::kAddMapping:
      return mappings_.insert(op.mapping_key, op.mapping_action, seq_)
                 ? dataplane::TableOpStatus::kOk
                 : dataplane::TableOpStatus::kDuplicate;
    case dataplane::TableOp::Kind::kDelMapping:
      return mappings_.erase(op.mapping_key, seq_)
                 ? dataplane::TableOpStatus::kOk
                 : dataplane::TableOpStatus::kNotFound;
  }
  return dataplane::TableOpStatus::kNotFound;
}

void XgwX86::note_mutation(const dataplane::TableOp& op) {
  if (op.kind == dataplane::TableOp::Kind::kAddRoute &&
      op.route_action.scope == tables::RouteScope::kPeer) {
    // Verdicts in either VNI may now cross the peer hop; both escalate to
    // the global generation, permanently (a later non-peer mutation can
    // still sit under a cached cross-VNI verdict).
    peered_vnis_.insert(op.vni);
    peered_vnis_.insert(op.route_action.next_hop_vni);
    bump_generation(kGlobalGenKey);
    return;
  }
  if (peered_vnis_.count(op.vni) > 0) {
    bump_generation(kGlobalGenKey);
  } else {
    bump_generation(static_cast<std::uint32_t>(op.vni));
  }
}

void XgwX86::bump_generation(std::uint32_t gen_key) {
  const std::uint64_t* current = vni_gens_.find_latest(gen_key);
  vni_gens_.insert(gen_key, (current != nullptr ? *current : 0) + 1, seq_);
}

std::uint64_t XgwX86::effective_generation(net::Vni vni,
                                           std::uint64_t seq) const {
  const std::uint64_t* global = vni_gens_.lookup(kGlobalGenKey, seq);
  const std::uint64_t* local =
      vni_gens_.lookup(static_cast<std::uint32_t>(vni), seq);
  return ((global != nullptr ? *global : 0) << 32) |
         ((local != nullptr ? *local : 0) & 0xFFFFFFFFu);
}

void XgwX86::invalidate_fast_path() {
  ++seq_;
  bump_generation(kGlobalGenKey);
  epoch_.publish(seq_);
}

void XgwX86::collect_garbage(std::uint64_t keep_from) {
  routes_.collect(keep_from, epoch_);
  mappings_.collect(keep_from, epoch_);
  vni_gens_.collect(keep_from, epoch_);
  last_collect_seq_ = seq_;
}

// Inlined into each entry point: forward() compiles to a one-packet copy
// of the loop and pays nothing for sharing it (micro-benchmarked).
[[gnu::always_inline]] inline void XgwX86::forward_burst(
    std::span<const net::OverlayPacket> packets,
    std::span<const std::uint64_t> flow_hashes,
    std::span<const std::uint32_t> indices, double now, bool allow_cache,
    std::span<dataplane::Verdict> out, std::optional<SnatBinding>* snat) {
  if (out.size() < packets.size()) {
    throw std::invalid_argument(
        "process_batch_indexed: output span smaller than the packet array");
  }
  // Pin the table version this call reads: either the replay-required
  // version (deterministic mid-interval interleave) or whatever the
  // mutator last published. The sharded engine splits bursts at every
  // visibility boundary, so every packet below — cache generation, route
  // walk, mapping probe — observes exactly this one version.
  std::uint64_t pin_seq = lookup_seq_.load(std::memory_order_acquire);
  if (pin_seq == kLookupLatest) {
    pin_seq = reader_.pin_latest();
  } else {
    reader_.pin(pin_seq);
  }

  // The stateless outcomes (routes + mappings are pure table functions of
  // the flow) replay from the cache. SNAT never caches, and punted packets
  // (allow_cache == false) neither probe nor fill — a shed tenant's
  // spillover must not touch the fast path at all.
  const bool cached = allow_cache && flow_cache_.enabled();
  const bool hashed = !flow_hashes.empty();
  const double latency_us = config_.model.latency_us(0.0);
  const net::IpAddr device_ip(config_.device_ip);
  // Run-to-completion per packet (the SNAT engine is inherently
  // sequential), striding the index list: packet, verdict slot and cache
  // slot of indices[k + kAhead] are all requested while indices[k] runs.
  constexpr std::size_t kAhead = 8;
  for (std::size_t k = 0; k < indices.size(); ++k) {
    if (k + kAhead < indices.size()) {
      const std::uint32_t ahead = indices[k + kAhead];
      __builtin_prefetch(&packets[ahead]);
      __builtin_prefetch(&out[ahead], 1);
      if (cached && hashed) {
        flow_cache_.prefetch(
            dataplane::make_flow_key(packets[ahead].vni, flow_hashes[ahead]));
      }
    }
    const std::uint32_t i = indices[k];
    const net::OverlayPacket& packet = packets[i];
    dataplane::Verdict& verdict = out[i];
    ctr_packets_in_->add();
    ctr_bytes_in_->add(packet.wire_size());
    hist_latency_->record(latency_us);
    verdict.packet = packet;
    verdict.software_path = true;
    verdict.latency_us = latency_us;

    // Cache probe; on a miss, second-miss admission (FlowCache::note_miss)
    // decides whether the resolved outcome is remembered.
    dataplane::FlowKey key;
    std::uint64_t generation = 0;
    const CachedVerdict* hit = nullptr;
    if (cached) {
      key = hashed ? dataplane::make_flow_key(packet.vni, flow_hashes[i])
                   : dataplane::make_flow_key(packet.vni, packet.inner);
      generation = effective_generation(packet.vni, pin_seq);
      hit = flow_cache_.find(key, generation);
    }
    CachedVerdict outcome;
    if (hit != nullptr) {
      outcome = *hit;
    } else {
      const bool capture = cached && flow_cache_.note_miss(key);
      outcome = resolve(packet, pin_seq);
      if (outcome.action == dataplane::Action::kSnatToInternet) {
        // Stateful, so never cached: translate, then decap — the packet
        // leaves as plain IP with the public source.
        AllocFailure failure = AllocFailure::kNone;
        const auto binding = snat_.translate(packet.inner, now, &failure);
        if (binding) {
          verdict.packet.vni = 0;
          verdict.packet.inner.src = net::IpAddr(binding->public_ip);
          verdict.packet.inner.src_port = binding->public_port;
          if (snat != nullptr) *snat = binding;
        } else {
          ctr_snat_failures_->add();
          outcome = {dataplane::Action::kDrop,
                     dataplane::DropReason::kSnatPoolExhausted, {}};
          if (failure == AllocFailure::kPortBlockExhausted) {
            // Lazily registered: a node that never exhausts a block keeps
            // its snapshot byte-identical to before this counter existed.
            registry_->counter("x86.snat_port_block_exhausted").add();
            outcome.reason = dataplane::DropReason::kSnatPortBlockExhausted;
          }
        }
      } else if (capture) {
        flow_cache_.insert(key, generation, outcome);
      }
    }

    verdict.action = outcome.action;
    verdict.drop_reason = outcome.reason;
    if (outcome.action == dataplane::Action::kDrop) {
      ctr_dropped_->add();
    } else {
      verdict.packet.outer_src_ip = device_ip;
      verdict.packet.outer_dst_ip = outcome.outer_dst;
      (outcome.action == dataplane::Action::kSnatToInternet ? ctr_snat_
                                                             : ctr_forwarded_)
          ->add();
    }
  }
  reader_.unpin();
}

constexpr std::uint32_t kOnly = 0;  // index list of a one-packet burst

X86Result XgwX86::forward(const net::OverlayPacket& packet, double now) {
  X86Result result;
  forward_burst({&packet, 1}, {}, {&kOnly, 1}, now, /*allow_cache=*/true,
                {static_cast<dataplane::Verdict*>(&result), 1}, &result.snat);
  return result;
}

X86Result XgwX86::forward_punted(const net::OverlayPacket& packet,
                                 double now) {
  X86Result result;
  forward_burst({&packet, 1}, {}, {&kOnly, 1}, now, /*allow_cache=*/false,
                {static_cast<dataplane::Verdict*>(&result), 1}, &result.snat);
  return result;
}

void XgwX86::process_batch_indexed(std::span<const net::OverlayPacket> packets,
                                   std::span<const std::uint64_t> flow_hashes,
                                   std::span<const std::uint32_t> indices,
                                   double now,
                                   std::span<dataplane::Verdict> out) {
  forward_burst(packets, flow_hashes, indices, now, /*allow_cache=*/true, out,
                /*snat=*/nullptr);
}

XgwX86::CachedVerdict XgwX86::resolve(const net::OverlayPacket& packet,
                                      std::uint64_t seq) const {
  using dataplane::Action;
  using dataplane::DropReason;
  // Route chain: a peer route re-resolves in the next hop's VNI.
  net::Vni vni = packet.vni;
  const tables::VxlanRouteAction* route = nullptr;
  for (int hop = 0; hop < 4; ++hop) {
    route = routes_.lookup(vni, packet.inner.dst, seq);
    if (route == nullptr || route->scope != tables::RouteScope::kPeer) break;
    vni = route->next_hop_vni;
  }
  if (route == nullptr) return {Action::kDrop, DropReason::kNoRoute, {}};
  switch (route->scope) {
    case tables::RouteScope::kLocal: {
      const tables::VmNcAction* mapping =
          mappings_.lookup(tables::VmNcKey{vni, packet.inner.dst}, seq);
      if (mapping == nullptr) {
        return {Action::kDrop, DropReason::kNoVmNcMapping, {}};
      }
      return {Action::kForwardToNc, DropReason::kNone,
              net::IpAddr(mapping->nc_ip)};
    }
    case tables::RouteScope::kIdc:
    case tables::RouteScope::kCrossRegion:
      return {Action::kForwardTunnel, DropReason::kNone,
              net::IpAddr(route->remote_endpoint)};
    case tables::RouteScope::kInternet:
      return {Action::kSnatToInternet, DropReason::kNone, packet.inner.dst};
    case tables::RouteScope::kPeer:
      return {Action::kDrop, DropReason::kPeerResolutionLoop, {}};
  }
  return {Action::kDrop, DropReason::kUnhandledScope, {}};
}

std::optional<net::OverlayPacket> XgwX86::process_response(
    const SnatBinding& binding, const net::IpAddr& peer_ip,
    std::uint16_t peer_port, std::uint16_t payload_size, double now) {
  auto session = snat_.reverse(binding, peer_ip, peer_port, now);
  if (!session) return std::nullopt;

  // The session tells us the VM but not its VNI, so scan the installed
  // mappings for the VM (unique within one node's table in this model).
  std::optional<net::OverlayPacket> reply;
  mappings_.for_each_live([&](const tables::VmNcKey& key,
                              const tables::VmNcAction& action) {
    if (reply.has_value() || key.vm_ip != session->src) return;
    net::OverlayPacket packet;
    packet.vni = key.vni;
    packet.inner.src = peer_ip;
    packet.inner.src_port = peer_port;
    packet.inner.dst = session->src;
    packet.inner.dst_port = session->src_port;
    packet.inner.proto = session->proto;
    packet.payload_size = payload_size;
    packet.outer_src_ip = net::IpAddr(config_.device_ip);
    packet.outer_dst_ip = net::IpAddr(action.nc_ip);
    reply = packet;
  });
  return reply;
}

IntervalReport XgwX86::simulate_interval(
    std::span<const FlowRate> flows) const {
  IntervalReport report;
  report.cores.resize(config_.model.cores);

  for (const FlowRate& flow : flows) {
    CoreLoad& core = report.cores[rss_.queue_for(flow.tuple)];
    core.offered_pps += flow.pps;
    ++core.flows;
    if (flow.pps > core.top1_pps) {
      core.top2_pps = core.top1_pps;
      core.top1_pps = flow.pps;
    } else if (flow.pps > core.top2_pps) {
      core.top2_pps = flow.pps;
    }
    report.offered_pps += flow.pps;
    report.offered_bps += flow.bps;
  }

  const double capacity = config_.model.core_pps();
  for (CoreLoad& core : report.cores) {
    core.processed_pps = std::min(core.offered_pps, capacity);
    core.dropped_pps = core.offered_pps - core.processed_pps;
    core.utilization = core.offered_pps / capacity;
    report.dropped_pps += core.dropped_pps;
    report.max_core_utilization =
        std::max(report.max_core_utilization, core.utilization);
  }
  report.drop_rate =
      report.offered_pps > 0 ? report.dropped_pps / report.offered_pps : 0;
  return report;
}

}  // namespace sf::x86
