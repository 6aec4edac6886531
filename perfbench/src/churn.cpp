// sw_churn: an 8-shard XGW-x86 fleet on RCU tables forwarding while a
// stamped TableOpBatch stream (VM migrations, tenant onboarding and
// removal) is applied through ShardEngine::UpdatePlan by the engine's
// dedicated mutator thread. Writes run beside reads, so a read-side gain
// that slows apply(), or the reverse, shows.
//
// The tables and flows are the generators' defaults (TopologyConfig,
// FlowGenConfig: 5% of the flows are Internet flows, SNAT on this tier).
// The op stream follows bench_churn's mix, alternating migrations and
// tenant ops, at a quarter of its density. NOTES.md lists each
// parameter's source and why the density departs from it.

#include <atomic>
#include <deque>
#include <map>
#include <memory>
#include <thread>

#include "common.hpp"
#include "dataplane/shard_engine.hpp"
#include "trace.hpp"
#include "x86/xgw_x86.hpp"

namespace pb {
namespace {

constexpr std::size_t kShards = 8;
/// One op per 480 packets, a quarter of bench_churn's density: at its
/// density the calls whose readers park for the writer's wake-up made the
/// mean call 22-68% longer than the median, varying with host load.
constexpr std::size_t kPacketsPerOp = 480;
constexpr std::size_t kOpsPerCall = 8;
constexpr std::size_t kBurst = kOpsPerCall * kPacketsPerOp;  // per call
/// Onboarded tenants kept live: the 1000 tenants one bench_churn run
/// onboards. Past it each onboarding is paired with a removal, so the
/// tables stop growing and every call of a run costs alike.
constexpr std::size_t kTenantPool = 1000;
/// Untimed calls before the loop: enough tenant ops to fill the pool.
constexpr std::size_t kWarmCalls = 2 * kTenantPool / kOpsPerCall + 1;
constexpr std::size_t kProbeCalls = 100;  // traced-only static/churn pairs
/// Set-ups per untraced run; setup_s is their median. One set-up takes
/// about 40 ms, so they add under 2 s to a run.
constexpr int kSetupReps = 41;

using Fleet = std::vector<std::unique_ptr<x86::XgwX86>>;
using Status = dataplane::TableOpStatus;

struct Setup {
  std::unique_ptr<workload::RegionTopology> topology;
  std::vector<workload::Flow> flows;
  Fleet fleet;
};

Setup build(std::uint64_t seed, bool trace, Outcome& out) {
  Setup setup;
  workload::TopologyConfig topo;
  topo.seed = seed;
  {
    auto span = maybe_span(trace, "workload.generate_topology");
    setup.topology = std::make_unique<workload::RegionTopology>(
        workload::generate_topology(topo));
  }
  workload::FlowGenConfig flows;
  flows.seed = seed + 1;
  {
    auto span = maybe_span(trace, "workload.generate_flows");
    setup.flows = workload::generate_flows(*setup.topology, flows);
  }
  const TableEntries entries(*setup.topology);
  for (std::size_t s = 0; s < kShards; ++s) {
    setup.fleet.push_back(std::make_unique<x86::XgwX86>(x86::XgwX86::Config{}));
    install_entries(*setup.fleet.back(), entries, out);
  }
  return setup;
}

/// The VM-NC mapping a Local or Peer flow resolves through: the longest
/// route of the flow's VPC that covers the destination names the VNI
/// (the flow's own, or the peer's for a Peer route).
tables::VmNcKey mapping_of(
    const workload::Flow& flow,
    const std::map<net::Vni, const workload::VpcRecord*>& vpcs) {
  const workload::RouteRecord* best = nullptr;
  for (const workload::RouteRecord& route : vpcs.at(flow.vni)->routes) {
    if (route.prefix.contains(flow.tuple.dst) &&
        (best == nullptr || route.prefix.length() > best->prefix.length())) {
      best = &route;
    }
  }
  const net::Vni vni = best != nullptr &&
                               best->action.scope == tables::RouteScope::kPeer
                           ? best->action.next_hop_vni
                           : flow.vni;
  return tables::VmNcKey{vni, flow.tuple.dst};
}

/// The op stream, after bench_churn: even ops migrate a VM that carries
/// traffic to another NC; odd ops onboard a tenant (one /16 route in a
/// fresh VNI) or, once kTenantPool tenants are live, alternately remove
/// the oldest. `nc` is the model of every traffic-carrying mapping.
class OpSource {
 public:
  OpSource(const workload::RegionTopology& topology,
           const std::vector<workload::Flow>& flows, std::uint64_t seed)
      : ncs_(topology.ncs), rng_(seed) {
    std::map<net::Vni, const workload::VpcRecord*> vpcs;
    for (const workload::VpcRecord& vpc : topology.vpcs) vpcs[vpc.vni] = &vpc;
    for (const workload::Flow& flow : flows) {
      std::size_t key = kSnat;
      if (flow.scope != tables::RouteScope::kInternet) {
        const tables::VmNcKey mapping = mapping_of(flow, vpcs);
        const auto [it, fresh] = index_.try_emplace(mapping, keys_.size());
        if (fresh) {
          keys_.push_back(mapping);
          nc.push_back(flow.dst_nc);
        }
        key = it->second;
      }
      key_of_flow.push_back(key);
    }
  }

  static constexpr std::size_t kSnat = ~std::size_t{0};

  /// The next kOpsPerCall ops, one every kPacketsPerOp packets of a burst,
  /// with the status every node must return.
  void next(std::vector<dataplane::TimedTableOp>& ops,
            std::vector<Status>& expect) {
    ops.clear();
    expect.clear();
    for (std::size_t k = 0; k < kOpsPerCall; ++k) {
      dataplane::TimedTableOp timed;
      timed.apply_index = k * kPacketsPerOp;
      timed.op = next_op();
      ops.push_back(timed);
      expect.push_back(timed.op.kind == dataplane::TableOp::Kind::kAddMapping
                           ? Status::kDuplicate
                           : Status::kOk);
    }
  }

  /// Applies an op to the model (packets after its apply index see it).
  void observe(const dataplane::TableOp& op) {
    if (op.kind != dataplane::TableOp::Kind::kAddMapping) return;
    const auto it = index_.find(op.mapping_key);
    if (it != index_.end()) nc[it->second] = op.mapping_action.nc_ip;
  }

  std::vector<std::size_t> key_of_flow;  // kSnat for Internet flows
  std::vector<net::Ipv4Addr> nc;         // per key, as of observed ops

 private:
  dataplane::TableOp next_op() {
    dataplane::TableOp op;
    if (ops_made_++ % 2 == 0) {
      // Migration: the VM's mapping moves to another NC.
      const tables::VmNcKey& key = keys_[rng_.uniform(keys_.size())];
      op.kind = dataplane::TableOp::Kind::kAddMapping;
      op.vni = key.vni;
      op.mapping_key = key;
      op.mapping_action.nc_ip = ncs_[rng_.uniform(ncs_.size())];
      return op;
    }
    if (tenants_.size() == kTenantPool && remove_next_) {
      remove_next_ = false;
      op = tenants_.front();
      tenants_.pop_front();
      op.kind = dataplane::TableOp::Kind::kDelRoute;
      return op;
    }
    remove_next_ = true;
    const std::uint64_t t = next_tenant_++;
    op.kind = dataplane::TableOp::Kind::kAddRoute;
    // A departed tenant's VNI goes to the next one onboarded.
    op.vni = static_cast<net::Vni>(0x30000 + t % kTenantPool);
    op.prefix = net::Ipv4Prefix(
        net::Ipv4Addr(10, static_cast<std::uint8_t>(64 + t % 128), 0, 0), 16);
    op.route_action =
        tables::VxlanRouteAction{tables::RouteScope::kLocal, 0, {}};
    tenants_.push_back(op);
    return op;
  }

  std::vector<net::Ipv4Addr> ncs_;
  workload::Rng rng_;
  std::vector<tables::VmNcKey> keys_;
  std::map<tables::VmNcKey, std::size_t> index_;  // key -> position in keys_
  std::deque<dataplane::TableOp> tenants_;        // live onboarded routes
  std::uint64_t next_tenant_ = 0;
  std::uint64_t ops_made_ = 0;
  bool remove_next_ = true;
};

}  // namespace

Outcome run_churn(const Options& options) {
  Outcome out;
  EndToEnd e2e;
  Tracer& tracer = Tracer::get();

  // ---- set-up: topology, flows, fleet construction, table install -----------
  std::vector<double> setup_s;
  Setup setup;
  const int reps = options.trace ? 1 : kSetupReps;
  for (int rep = 0; rep < reps; ++rep) {
    setup = Setup{};
    const std::uint64_t t0 = now_ns();
    setup = build(options.seed, options.trace, out);
    setup_s.push_back(seconds_since(t0));
  }
  Fleet& fleet = setup.fleet;

  dataplane::ShardEngine engine({kShards, 1});
  std::vector<std::unique_ptr<TimedGateway>> timed;
  for (auto& node : fleet) {
    timed.push_back(std::make_unique<TimedGateway>(*node, "x86.gateway"));
  }
  const auto raw_for = [&](std::size_t s) -> dataplane::Gateway& {
    return *fleet[s];
  };
  const auto timed_for = [&](std::size_t s) -> dataplane::Gateway& {
    return *timed[s];
  };

  const std::uint64_t stream = options.seed * 0x9e3779b97f4a7c15ULL;
  OpSource op_source(*setup.topology, setup.flows, stream + 3);
  const WeightedSampler sampler(setup.flows);
  workload::Rng rng(stream + 4);

  std::vector<net::OverlayPacket> burst(kBurst);
  std::vector<std::size_t> flow_of(kBurst);
  std::vector<dataplane::Verdict> verdicts(kBurst);
  std::vector<dataplane::TimedTableOp> ops;
  std::vector<Status> expect_status;
  std::vector<Status> statuses(kOpsPerCall * kShards);
  std::vector<std::uint64_t> base(kShards);
  std::atomic<std::size_t> applied{0};
  std::uint64_t call_span = 0;
  std::uint64_t call_id = 0;
  bool traced = false;

  dataplane::ShardEngine::UpdatePlan plan;
  plan.apply = [&](std::size_t k) {
    const std::uint64_t t0 = now_ns();
    const auto batch = dataplane::TableOpBatch::single(ops[k].op);
    for (std::size_t s = 0; s < kShards; ++s) {
      statuses[k * kShards + s] = fleet[s]->apply(batch).status();
    }
    if (traced) {
      const std::uint64_t t1 = now_ns();
      // A root span: the mutator runs beside the forwarding call, so its
      // time is not part of the engine call's self time.
      Span span;
      span.name = "rcu.apply";
      span.id = tracer.next_id();
      span.call = call_id;
      span.start_ns = t0;
      span.end_ns = t1;
      span.items = kShards;
      tracer.record(span);
    }
    applied.store(k + 1, std::memory_order_release);
  };
  plan.advance = [&](std::size_t shard, std::size_t visible) {
    if (traced && visible > 0) {
      // The reader waits here, in the open, for the version it needs;
      // otherwise the wait would hide inside the gateway's epoch pin.
      ScopedSpan span("rcu.advance", call_span, call_id);
      while (applied.load(std::memory_order_acquire) < visible) {
        std::this_thread::yield();
      }
    }
    fleet[shard]->set_lookup_seq(base[shard] + visible);
  };

  std::size_t snat_verdicts = 0;
  // One churn call: forwards a fresh burst while its ops are applied, then
  // checks every verdict and op status. Returns the call's duration in ns.
  const auto churn_call = [&](bool with_updates) -> std::uint64_t {
    for (std::size_t i = 0; i < kBurst; ++i) {
      flow_of[i] = sampler.sample(rng);
      burst[i] = packet_of(setup.flows[flow_of[i]]);
    }
    if (with_updates) {
      op_source.next(ops, expect_status);
    } else {
      ops.clear();
    }
    plan.updates = ops;
    applied.store(0);
    for (std::size_t s = 0; s < kShards; ++s) {
      base[s] = fleet[s]->table_version();
    }
    const std::uint64_t t0 = now_ns();
    if (traced) {
      ScopedSpan span("engine.process_packets", 0, call_id, kBurst);
      call_span = span.id();
      for (auto& gw : timed) gw->set_parent(span.id(), call_id);
      engine.process_packets(burst, 0.0, timed_for, verdicts, plan);
    } else {
      engine.process_packets(burst, 0.0, raw_for, verdicts, plan);
    }
    const std::uint64_t dt = now_ns() - t0;
    for (auto& node : fleet) node->set_lookup_seq(std::nullopt);

    for (std::size_t k = 0; k < ops.size(); ++k) {
      for (std::size_t s = 0; s < kShards; ++s) {
        out.check(statuses[k * kShards + s] == expect_status[k], "op status");
      }
    }
    std::size_t cursor = 0;
    for (std::size_t i = 0; i < kBurst; ++i) {
      while (cursor < ops.size() && ops[cursor].apply_index < i) {
        op_source.observe(ops[cursor++].op);
      }
      const std::size_t key = op_source.key_of_flow[flow_of[i]];
      const Expect expect =
          key == OpSource::kSnat
              ? Expect{dataplane::Action::kSnatToInternet, {}}
              : Expect{dataplane::Action::kForwardToNc, op_source.nc[key]};
      out.check_verdict(verdicts[i], expect);
      if (verdicts[i].action == dataplane::Action::kSnatToInternet) {
        ++snat_verdicts;
      }
    }
    while (cursor < ops.size()) op_source.observe(ops[cursor++].op);
    return dt;
  };

  for (std::size_t c = 0; c < kWarmCalls; ++c) churn_call(true);

  // ---- timed closed loop ----------------------------------------------------
  const dataplane::FlowCacheStats cache0 = fleet_cache_stats(fleet);
  std::vector<double> untraced_us;
  std::uint64_t hash_sink = 0;
  std::size_t calls = 0;
  snat_verdicts = 0;
  for (Deadline deadline(options.seconds); deadline.more(calls); ++calls) {
    traced = options.trace && calls % 2 == 1;
    call_id = calls;
    const std::uint64_t dt = churn_call(true);
    if (!traced) {
      untraced_us.push_back(static_cast<double>(dt) * 1e-3);
      e2e.forward_s += static_cast<double>(dt) * 1e-9;
      e2e.packets += kBurst;
    } else {
      ScopedSpan span("net.hash", 0, calls, kBurst);
      for (const auto& packet : burst) hash_sink ^= packet.inner.hash();
    }
    if (calls < kDigestCalls) {
      for (std::size_t i = 0; i < kBurst; ++i) {
        out.inputs.add(burst[i]);
        out.outputs.add(verdicts[i]);
      }
      for (const auto& op : ops) {
        out.inputs.add(static_cast<std::uint64_t>(op.op.kind));
        out.inputs.add(static_cast<std::uint64_t>(op.op.vni));
        out.inputs.add(op.apply_index);
      }
      for (Status status : statuses) {
        out.outputs.add(static_cast<std::uint64_t>(status));
      }
    }
  }
  traced = false;
  out.calls = calls;
  const double packets_seen = static_cast<double>(calls * kBurst);

  if (!options.trace) {
    e2e.setup_s = median(setup_s);
    e2e.call_us = std::move(untraced_us);
    report_end_to_end(e2e, out);
    return out;
  }
  out.info["hash_sink_bit"] = static_cast<double>(hash_sink & 1);

  // ---- per-layer metrics from the spans -------------------------------------
  const dataplane::FlowCacheStats cache1 = fleet_cache_stats(fleet);
  report_engine_layers(untraced_us, kBurst, "x86.gateway", "x86.ns_per_pkt",
                       out);
  report_flow_cache(cache0, cache1, out);
  const auto& spans = tracer.spans();
  const SpanTotals calls_traced = totals(spans, "engine.process_packets");
  const SpanTotals apply = totals(spans, "rcu.apply");
  const SpanTotals advance = totals(spans, "rcu.advance");
  auto& m = out.metrics;
  m["x86.snat_frac"] = ratio(static_cast<double>(snat_verdicts), packets_seen);
  m["rcu.apply_us_per_op"] = ratio(apply.total_ns * 1e-3, apply.items);
  m["rcu.mutator_busy_frac"] = ratio(apply.total_ns, calls_traced.total_ns);
  m["rcu.reader_wait_frac"] = ratio(advance.total_ns, calls_traced.total_ns);

  // Forwarding degradation: static passes (no ops) against churn passes,
  // alternating, untraced.
  double static_ns = 0, churn_ns = 0;
  for (std::size_t c = 0; c < kProbeCalls; ++c) {
    static_ns += static_cast<double>(churn_call(false));
    churn_ns += static_cast<double>(churn_call(true));
  }
  m["rcu.fwd_degradation"] = 1 - ratio(static_ns, churn_ns);
  return out;
}

}  // namespace pb
