#include "common.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

#include "net/hash.hpp"

namespace pb {

void Digest::add(std::uint64_t v) { value = net::hash_combine(value, v); }

void Digest::add(double v) { add(std::bit_cast<std::uint64_t>(v)); }

void Digest::add(const net::IpAddr& ip) { add(net::hash_ip(ip)); }

void Digest::add(const net::OverlayPacket& packet) {
  add(static_cast<std::uint64_t>(packet.vni));
  add(packet.inner.src);
  add(packet.inner.dst);
  add((static_cast<std::uint64_t>(packet.inner.proto) << 32) |
      (static_cast<std::uint64_t>(packet.inner.src_port) << 16) |
      packet.inner.dst_port);
}

void Digest::add(const dataplane::Verdict& verdict) {
  add((static_cast<std::uint64_t>(verdict.action) << 8) |
      static_cast<std::uint64_t>(verdict.drop_reason));
  add(verdict.packet.outer_dst_ip);
  add(verdict.latency_us);
}

Deadline::Deadline(double seconds)
    : start_ns_(now_ns()),
      window_ns_(static_cast<std::uint64_t>(seconds * 1e9)) {}

bool Deadline::more(std::size_t calls) const {
  const std::uint64_t elapsed = now_ns() - start_ns_;
  if (elapsed < window_ns_) return true;
  return calls < kMinCalls && elapsed < 3 * window_ns_;
}

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  const std::size_t index =
      rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double rss_mb() {
  long pages = 0, resident = 0;
  if (FILE* f = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) resident = 0;
    std::fclose(f);
  }
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / 1e6;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;  // KiB
}

void report_end_to_end(const EndToEnd& e2e, Outcome& out) {
  out.metrics["setup_s"] = e2e.setup_s;
  out.metrics["peak_rss_mb"] = peak_rss_mb();
  out.metrics["mpps"] =
      e2e.forward_s > 0 ? e2e.packets / e2e.forward_s / 1e6 : 0;
  out.metrics["call_p50_us"] = percentile(e2e.call_us, 0.50);
  out.calls = e2e.call_us.size();
}

void accumulate(dataplane::FlowCacheStats& sum,
                const dataplane::FlowCacheStats& stats) {
  sum.hits += stats.hits;
  sum.misses += stats.misses;
  sum.insertions += stats.insertions;
  sum.evictions += stats.evictions;
  sum.stale_reclaims += stats.stale_reclaims;
}

void report_flow_cache(const dataplane::FlowCacheStats& before,
                       const dataplane::FlowCacheStats& after, Outcome& out) {
  const auto delta = [](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(b - a);
  };
  const double hits = delta(before.hits, after.hits);
  const double lookups = hits + delta(before.misses, after.misses);
  const double insertions = delta(before.insertions, after.insertions);
  auto& m = out.metrics;
  m["flow_cache.hit_ratio"] = ratio(hits, lookups);
  m["flow_cache.insert_per_miss"] = ratio(insertions, lookups - hits);
  m["flow_cache.evict_per_insert"] =
      ratio(delta(before.evictions, after.evictions), insertions);
  m["flow_cache.stale_per_lookup"] =
      ratio(delta(before.stale_reclaims, after.stale_reclaims), lookups);
}

bool matches(const dataplane::Verdict& verdict, const Expect& expect) {
  if (verdict.action != expect.action) return false;
  if (verdict.drop_reason != dataplane::DropReason::kNone) return false;
  if (expect.action == dataplane::Action::kForwardToNc) {
    return verdict.packet.outer_dst_ip == net::IpAddr(expect.nc);
  }
  return true;
}

void install_entries(dataplane::TableProgrammer& target,
                     const TableEntries& entries, Outcome& out) {
  constexpr std::size_t kBatch = 1024;  // ops per controller transaction
  dataplane::TableOpBatch batch;
  const auto flush = [&] {
    if (batch.empty()) return;
    const dataplane::BatchResult result = target.apply(batch);
    for (std::size_t i = 0; i < result.results.size(); ++i) {
      const dataplane::TableOpStatus status = result.results[i].status;
      out.check(status == dataplane::TableOpStatus::kOk, "table install");
      if (status != dataplane::TableOpStatus::kOk && out.failed <= 5) {
        std::fprintf(stderr, "  op %d vni %u: %s\n",
                     static_cast<int>(batch.ops[i].kind), batch.ops[i].vni,
                     dataplane::to_string(status).c_str());
      }
    }
    out.check(result.results.size() == batch.size());
    batch.ops.clear();
  };
  for (const auto& [key, action] : entries.routes) {
    batch.add_route(key.vni, key.prefix, action);
    if (batch.size() == kBatch) flush();
  }
  for (const auto& [key, action] : entries.mappings) {
    batch.add_mapping(key, action);
    if (batch.size() == kBatch) flush();
  }
  flush();
}

WeightedSampler::WeightedSampler(const std::vector<workload::Flow>& flows) {
  double sum = 0;
  for (const workload::Flow& flow : flows) {
    sum += flow.weight;
    cdf_.push_back(sum);
  }
  for (double& c : cdf_) c /= sum;
}

std::size_t WeightedSampler::sample(workload::Rng& rng) const {
  const auto it =
      std::upper_bound(cdf_.begin(), cdf_.end(), rng.uniform_real());
  return std::min<std::size_t>(it - cdf_.begin(), cdf_.size() - 1);
}

net::OverlayPacket packet_of(const workload::Flow& flow) {
  net::OverlayPacket packet;
  packet.vni = flow.vni;
  packet.inner = flow.tuple;
  packet.payload_size = 0;  // minimum-size frames
  return packet;
}

void Outcome::check_verdict(const dataplane::Verdict& verdict,
                            const Expect& expect) {
  const bool ok = matches(verdict, expect);
  check(ok, "verdict");
  if (!ok && failed <= 5) {
    std::fprintf(stderr,
                 "  got %s/%s outer_dst=%s, want %s outer_dst=%s\n",
                 dataplane::name(verdict.action),
                 dataplane::name(verdict.drop_reason),
                 verdict.packet.outer_dst_ip.to_string().c_str(),
                 dataplane::name(expect.action),
                 expect.nc.to_string().c_str());
  }
}

}  // namespace pb
