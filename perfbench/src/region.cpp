// region: a whole Sailfish region at the scale of the operational figure
// benches, built by their own sf::bench::make_scenario (core::make_system
// plus MTU-sized heavy flows; 400 VPCs, 12k VMs, 20k flows, 4 clusters of
// 10+10 devices, 4 XGW-x86 nodes). Each timed call steps the
// festival-week pattern through simulate_interval on one interval thread;
// each step also sends a fixed weighted packet sample through
// SailfishRegion::process_batch. This is the only workload that reaches
// core, cluster and the interval engine.

#include <cmath>
#include <memory>
#include <optional>

#include "common.hpp"
#include "core/sailfish.hpp"
#include "dataplane/shard_engine.hpp"
#include "net/hash.hpp"
#include "sailfish_region_sim.hpp"
#include "trace.hpp"
#include "workload/traffic_pattern.hpp"

namespace pb {
namespace {

constexpr double kScale = 1.0;              // make_scenario's region size
constexpr double kBaseTbps = 30;            // as the figure benches run it
constexpr std::size_t kSample = 1024;       // packets per step
constexpr std::size_t kWeekSteps = 168;     // one simulated hour per step
constexpr std::size_t kTracedPacketSteps = 128;
constexpr std::size_t kProbeSteps = 100;    // traced-only probes
constexpr int kSetupReps = 7;  // setup_s is their median
/// The generator settings make_scenario uses at kScale. Only the traced
/// run's step-by-step replay needs them, and it checks that they
/// regenerate the scenario's topology and flows exactly.
constexpr std::size_t kScenarioVpcs = 400;
constexpr std::size_t kScenarioVms = 12'000;
constexpr std::size_t kScenarioNcs = 1'500;
constexpr std::size_t kScenarioFlows = 20'000;
constexpr double kScenarioFlowZipf = 0.5;

using Scenario = sf::bench::SailfishScenario;

Scenario make(std::uint64_t seed) {
  return sf::bench::make_scenario(kScale, seed, kBaseTbps);
}

void add_flows(Digest& digest, const std::vector<workload::Flow>& flows) {
  for (const workload::Flow& flow : flows) {
    digest.add(packet_of(flow));
    digest.add(flow.weight);
    digest.add(static_cast<std::uint64_t>(flow.scope));
    digest.add(net::IpAddr(flow.dst_nc));
  }
}

/// Replays the steps of core::make_system with spans around each (the
/// region's configuration taken from the built scenario) and checks that
/// the replay regenerates the scenario's topology and flows. Returns the
/// replayed region, so the caller decides when its memory is freed.
std::unique_ptr<core::SailfishRegion> replay_make_system(
    const Scenario& scenario, std::uint64_t seed, Outcome& out) {
  const core::SailfishSystem& built = scenario.system;
  workload::TopologyConfig topo;
  topo.vpc_count = kScenarioVpcs;
  topo.total_vms = kScenarioVms;
  topo.nc_count = kScenarioNcs;
  topo.seed = seed;
  workload::FlowGenConfig flowgen;
  flowgen.flow_count = kScenarioFlows;
  flowgen.zipf_exponent = kScenarioFlowZipf;
  flowgen.seed = seed + 1;

  std::optional<workload::RegionTopology> topology;
  {
    ScopedSpan span("workload.generate_topology", 0, 0);
    topology.emplace(workload::generate_topology(topo));
  }
  const TableEntries replayed(*topology), original(built.topology);
  out.check(replayed.routes == original.routes &&
                replayed.mappings == original.mappings,
            "make_system replay topology");

  const double rss0 = rss_mb();
  std::unique_ptr<core::SailfishRegion> region;
  {
    ScopedSpan span("core.region_ctor", 0, 0);
    region = std::make_unique<core::SailfishRegion>(built.region->config());
  }
  out.metrics["core.rss_after_ctor_mb"] = rss_mb() - rss0;
  {
    ScopedSpan span("core.install_topology", 0, 0, replayed.size());
    out.check(region->install_topology(*topology) == built.admitted_vpcs,
              "make_system replay admission");
  }
  std::vector<workload::Flow> flows;
  {
    ScopedSpan span("workload.generate_flows", 0, 0);
    flows = workload::generate_flows(*topology, flowgen);
  }
  Digest replayed_flows, original_flows;
  add_flows(replayed_flows, flows);
  add_flows(original_flows, built.flows);
  out.check(replayed_flows.value == original_flows.value,
            "make_system replay flows");
  return region;
}

/// Bounds every interval report must meet.
bool report_ok(const core::SailfishRegion::IntervalReport& r,
               double total_bps) {
  const double eps = 1e-9;
  bool ok = r.offered_pps > 0 && r.offered_bps > 0;
  ok = ok && std::abs(r.offered_bps - total_bps) <= 1e-6 * total_bps;
  ok = ok && r.dropped_pps >= 0 && r.dropped_pps <= r.offered_pps * (1 + eps);
  ok = ok && std::abs(r.drop_rate - r.dropped_pps / r.offered_pps) <= eps;
  ok = ok && r.fallback_pps >= 0 &&
       r.fallback_pps <= r.offered_pps * (1 + eps);
  ok = ok && r.fallback_ratio >= 0 && r.fallback_ratio <= 1 + eps;
  ok = ok && r.guard_shed_pps >= 0 &&
       r.guard_shed_pps <= r.dropped_pps * (1 + eps);
  ok = ok && r.x86_max_core_utilization >= 0;
  for (double bps : r.shard_pipe_bps) ok = ok && bps >= 0;
  ok = ok && r.p99_latency_us >= 0 && r.p999_latency_us >= r.p99_latency_us;
  return ok;
}

void add_report(Digest& digest, const core::SailfishRegion::IntervalReport& r) {
  digest.add(r.offered_bps);
  digest.add(r.offered_pps);
  digest.add(r.dropped_pps);
  digest.add(r.fallback_bps);
  digest.add(r.x86_max_core_utilization);
  for (double bps : r.shard_pipe_bps) digest.add(bps);
  digest.add(r.p99_latency_us);
}

dataplane::FlowCacheStats cache_stats(const core::SailfishRegion& region) {
  dataplane::FlowCacheStats sum;
  const auto& controller = region.controller();
  for (std::size_t c = 0; c < controller.cluster_count(); ++c) {
    const auto& cluster = controller.cluster(c);
    for (std::size_t d = 0; d < cluster.device_count(); ++d) {
      accumulate(sum, cluster.device(d).flow_cache_stats());
    }
  }
  return sum;
}

}  // namespace

Outcome run_region(const Options& options) {
  Outcome out;
  EndToEnd e2e;
  Tracer& tracer = Tracer::get();

  // ---- set-up: make_scenario (make_system and the MTU-sized heavy flows) ----
  std::vector<double> setup_s;
  std::optional<Scenario> scenario;
  const int reps = options.trace ? 1 : kSetupReps;
  for (int rep = 0; rep < reps; ++rep) {
    scenario.reset();
    const std::uint64_t t0 = now_ns();
    scenario.emplace(make(options.seed));
    setup_s.push_back(seconds_since(t0));
  }
  core::SailfishSystem& sys = scenario->system;
  out.check(sys.admitted_vpcs == sys.topology.vpcs.size(), "vpc admission");
  core::SailfishRegion& region = *sys.region;
  region.set_interval_threads(1);
  const workload::TrafficPattern& pattern = scenario->pattern;

  if (options.trace) {
    // Resident growth is measured while everything built before it is
    // alive, so it cannot reuse freed pages: the replayed region's, then
    // that of one device filled with the region's entries.
    const auto replayed = replay_make_system(*scenario, options.seed, out);
    admit_to_xgwh(TableEntries(sys.topology),
                  &out.metrics["xgwh.rss_bytes_per_entry"]);
  }

  // The fixed weighted sample and the verdict each packet must get.
  workload::Rng rng(options.seed * 0x9e3779b97f4a7c15ULL + 5);
  const WeightedSampler sampler(sys.flows);
  std::vector<net::OverlayPacket> sample(kSample);
  std::vector<Expect> expect(kSample);
  for (std::size_t i = 0; i < kSample; ++i) {
    const workload::Flow& flow = sys.flows[sampler.sample(rng)];
    sample[i] = packet_of(flow);
    expect[i] = flow.scope == tables::RouteScope::kInternet
                    ? Expect{dataplane::Action::kSnatToInternet, {}}
                    : Expect{dataplane::Action::kForwardToNc, flow.dst_nc};
  }
  for (const auto& packet : sample) out.inputs.add(packet);

  // ---- timed closed loop ----------------------------------------------------
  const dataplane::FlowCacheStats cache0 = cache_stats(region);
  std::vector<dataplane::Verdict> verdicts(kSample);
  std::vector<double> untraced_us;
  double untraced_pkt_ns = 0, traced_pkt_ns = 0;
  std::size_t untraced_pkt_steps = 0, traced_pkt_steps = 0;
  std::size_t traced_steps = 0;
  double interval_s = 0;
  std::size_t calls = 0;
  for (Deadline deadline(options.seconds); deadline.more(calls); ++calls) {
    const double t = workload::hours(static_cast<double>(calls % kWeekSteps)) +
                     1800.0;
    const double total_bps = workload::rate_at(pattern, t);
    const bool traced = options.trace && calls % 2 == 1;

    core::SailfishRegion::IntervalReport report;
    const std::uint64_t t0 = now_ns();
    if (traced) {
      ScopedSpan span("region.simulate_interval", 0, calls);
      report = region.simulate_interval(sys.flows, total_bps, calls);
    } else {
      report = region.simulate_interval(sys.flows, total_bps, calls);
    }
    const std::uint64_t t1 = now_ns();
    if (!traced) {
      untraced_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
      interval_s += static_cast<double>(t1 - t0) * 1e-9;
    }
    out.check(report_ok(report, total_bps), "interval report");

    if (traced && traced_steps++ < kTracedPacketSteps) {
      // Per-packet spans, named by the path the verdict took.
      const std::uint64_t p0 = now_ns();
      {
        ScopedSpan loop("region.process_traced", 0, calls, kSample);
        for (std::size_t i = 0; i < kSample; ++i) {
          ScopedSpan span("region.process.hw", loop.id(), calls, 1);
          verdicts[i] = region.process(sample[i], t);
          if (verdicts[i].software_path) span.rename("region.process.sw");
        }
      }
      traced_pkt_ns += static_cast<double>(now_ns() - p0);
      ++traced_pkt_steps;
    } else {
      const std::uint64_t p0 = now_ns();
      region.process_batch(sample, t, verdicts);
      const double ns = static_cast<double>(now_ns() - p0);
      if (!traced) {
        e2e.forward_s += ns * 1e-9;
        e2e.packets += kSample;
        untraced_pkt_ns += ns;
        ++untraced_pkt_steps;
      }
    }
    if (traced) {
      ScopedSpan span("telemetry.snapshot", 0, calls);
      const telemetry::Snapshot snapshot = region.telemetry_snapshot();
      out.check(!snapshot.counters.empty(), "telemetry snapshot");
    }
    for (std::size_t i = 0; i < kSample; ++i) {
      out.check_verdict(verdicts[i], expect[i]);
    }
    if (calls < kDigestCalls) {
      add_report(out.outputs, report);
      for (const auto& verdict : verdicts) out.outputs.add(verdict);
    }
  }
  out.calls = calls;
  out.info["intervals_per_s"] =
      ratio(static_cast<double>(untraced_us.size()), interval_s);

  if (!options.trace) {
    e2e.setup_s = median(setup_s);
    e2e.call_us = std::move(untraced_us);
    report_end_to_end(e2e, out);
    return out;
  }

  // ---- per-layer metrics from the spans -------------------------------------
  const auto& spans = tracer.spans();
  auto& m = out.metrics;
  m["client.call_p99_us"] = percentile(untraced_us, 0.99);
  const auto per_call_s = [&](const char* name) {
    const SpanTotals s = totals(spans, name);
    return ratio(s.total_ns * 1e-9, s.count);
  };
  m["workload.topology_s"] = per_call_s("workload.generate_topology");
  m["workload.flowgen_s"] = per_call_s("workload.generate_flows");
  m["core.region_ctor_s"] = per_call_s("core.region_ctor");
  m["core.install_topology_s"] = per_call_s("core.install_topology");
  const SpanTotals install = totals(spans, "core.install_topology");
  m["cluster.install_ops_per_s"] = ratio(install.items,
                                         install.total_ns * 1e-9);
  const SpanTotals sim = totals(spans, "region.simulate_interval");
  m["core.intervals_per_s"] = ratio(sim.count, sim.total_ns * 1e-9);
  const SpanTotals hw = totals(spans, "region.process.hw");
  const SpanTotals sw = totals(spans, "region.process.sw");
  m["core.hw_path_ns_per_pkt"] = ratio(hw.total_ns, hw.count);
  m["core.sw_path_frac"] = ratio(sw.count, hw.count + sw.count);
  // The weighted sample rarely leaves the hardware path (the Internet
  // flows carry 0.015% of the traffic), so the software path is timed on
  // one packet of every Internet flow.
  {
    const double t = workload::hours(0.5);
    for (const workload::Flow& flow : sys.flows) {
      if (flow.scope != tables::RouteScope::kInternet) continue;
      dataplane::Verdict verdict;
      {
        ScopedSpan span("probe.process.sw", 0, 0, 1);
        verdict = region.process(packet_of(flow), t);
        if (!verdict.software_path) span.rename("probe.process.hw");
      }
      out.check(verdict.software_path, "software path");
      out.check_verdict(verdict,
                        Expect{dataplane::Action::kSnatToInternet, {}});
    }
    const SpanTotals probe = totals(spans, "probe.process.sw");
    m["core.sw_path_ns_per_pkt"] =
        ratio(sw.total_ns + probe.total_ns, sw.count + probe.count);
  }
  const SpanTotals snap = totals(spans, "telemetry.snapshot");
  m["telemetry.snapshot_us"] = ratio(snap.total_ns * 1e-3, snap.count);
  m["trace.overhead_frac"] =
      ratio(ratio(traced_pkt_ns, traced_pkt_steps),
            ratio(untraced_pkt_ns, untraced_pkt_steps)) -
      1;
  const dataplane::FlowCacheStats cache1 = cache_stats(region);
  report_flow_cache(cache0, cache1, out);

  // The XGW-H layer on a hardware fleet holding this region's entries.
  xgwh_fleet_probe(sys.topology, options.seed, out);

  // Shard dispatch alone: the region's interval plan with an empty shard
  // function over the same flow population.
  {
    dataplane::ShardEngine engine(region.interval_plan());
    const auto owner = [&](std::size_t i) {
      return static_cast<std::size_t>(net::mix64(sys.flows[i].vni));
    };
    for (std::size_t c = 0; c < kProbeSteps; ++c) {
      ScopedSpan span("dataplane.run_sharded", 0, c);
      engine.run_sharded(sys.flows.size(), owner,
                         [](std::size_t, std::span<const std::uint32_t>,
                            telemetry::Registry&) {});
    }
    const SpanTotals dispatch = totals(spans, "dataplane.run_sharded");
    m["dataplane.dispatch_us_per_interval"] =
        ratio(dispatch.total_ns * 1e-3, dispatch.count);
  }

  // Interval engine at 2 threads against 1, on the same steps; the
  // reports must be identical (the engine's determinism contract).
  {
    std::vector<Digest> one(kProbeSteps);
    for (std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
      region.set_interval_threads(threads);
      for (std::size_t c = 0; c < kProbeSteps; ++c) {
        const double t = workload::hours(static_cast<double>(c)) + 1800.0;
        core::SailfishRegion::IntervalReport report;
        {
          ScopedSpan span(threads == 1 ? "probe.interval_1t"
                                       : "probe.interval_2t",
                          0, c);
          report = region.simulate_interval(
              sys.flows, workload::rate_at(pattern, t), c);
        }
        Digest d;
        add_report(d, report);
        if (threads == 1) {
          one[c] = d;
        } else {
          out.check(d.value == one[c].value, "interval thread identity");
        }
      }
    }
    region.set_interval_threads(1);
    const SpanTotals t1 = totals(spans, "probe.interval_1t");
    const SpanTotals t2 = totals(spans, "probe.interval_2t");
    m["dataplane.interval_parallel_eff"] = ratio(t1.total_ns, t2.total_ns) / 2;
  }
  return out;
}

}  // namespace pb
