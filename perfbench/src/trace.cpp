#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

namespace pb {

Tracer& Tracer::get() {
  static Tracer tracer;
  return tracer;
}

std::uint64_t Tracer::next_id() {
  return next_id_.fetch_add(1, std::memory_order_relaxed);
}

void Tracer::record(const Span& span) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
}

bool Tracer::write(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "name\tid\tparent\tcall\tstart_ns\tend_ns\titems\n");
  for (const Span& s : spans_) {
    std::fprintf(f, "%s\t%llu\t%llu\t%llu\t%llu\t%llu\t%llu\n", s.name,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.call),
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns),
                 static_cast<unsigned long long>(s.items));
  }
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(const char* name, std::uint64_t parent,
                       std::uint64_t call, std::uint64_t items) {
  span_.name = name;
  span_.id = Tracer::get().next_id();
  span_.parent = parent;
  span_.call = call;
  span_.items = items;
  span_.start_ns = now_ns();
}

ScopedSpan::~ScopedSpan() {
  span_.end_ns = now_ns();
  Tracer::get().record(span_);
}

std::unique_ptr<ScopedSpan> maybe_span(bool trace, const char* name,
                                       std::uint64_t items) {
  return trace ? std::make_unique<ScopedSpan>(name, 0, 0, items) : nullptr;
}

SpanTotals totals(const std::vector<Span>& spans, const char* name) {
  const std::string wanted = name;
  // Child intervals per parent id, for the spans of this name only.
  std::unordered_map<std::uint64_t, std::vector<std::pair<std::uint64_t,
                                                          std::uint64_t>>>
      children;
  std::vector<const Span*> selected;
  for (const Span& s : spans) {
    if (wanted == s.name) selected.push_back(&s);
  }
  std::unordered_map<std::uint64_t, const Span*> by_id;
  for (const Span* s : selected) by_id.emplace(s->id, s);
  for (const Span& s : spans) {
    if (by_id.contains(s.parent)) {
      children[s.parent].emplace_back(s.start_ns, s.end_ns);
    }
  }

  SpanTotals out;
  for (const Span* s : selected) {
    ++out.count;
    out.items += static_cast<double>(s->items);
    const double duration = static_cast<double>(s->duration_ns());
    out.total_ns += duration;
    // Union of the children's intervals, clipped to the span.
    double covered = 0;
    auto it = children.find(s->id);
    if (it != children.end()) {
      auto& intervals = it->second;
      std::sort(intervals.begin(), intervals.end());
      std::uint64_t reach = s->start_ns;
      for (auto [begin, end] : intervals) {
        begin = std::max(begin, reach);
        end = std::min(end, s->end_ns);
        if (end > begin) {
          covered += static_cast<double>(end - begin);
          reach = end;
        }
      }
    }
    out.self_ns += duration - covered;
  }
  return out;
}

void report_engine_layers(const std::vector<double>& untraced_us,
                          std::size_t burst, const char* gateway_span,
                          const char* gateway_metric, Outcome& out) {
  const auto& spans = Tracer::get().spans();
  const SpanTotals engine = totals(spans, "engine.process_packets");
  const SpanTotals gateway = totals(spans, gateway_span);
  const SpanTotals hash = totals(spans, "net.hash");
  const SpanTotals topology = totals(spans, "workload.generate_topology");
  const SpanTotals flowgen = totals(spans, "workload.generate_flows");
  double untraced_ns = 0;
  for (double us : untraced_us) untraced_ns += us * 1e3;
  auto& m = out.metrics;
  m["client.call_p99_us"] = percentile(untraced_us, 0.99);
  m["trace.overhead_frac"] =
      ratio(ratio(engine.total_ns, engine.items),
            ratio(untraced_ns,
                  static_cast<double>(untraced_us.size() * burst))) -
      1;
  m["net.hash_ns_per_pkt"] = ratio(hash.total_ns, hash.items);
  m["dataplane.engine_self_ns_per_pkt"] = ratio(engine.self_ns, engine.items);
  m["dataplane.pkts_per_gateway_call"] = ratio(gateway.items, gateway.count);
  m[gateway_metric] = ratio(gateway.total_ns, gateway.items);
  m["workload.topology_s"] = ratio(topology.total_ns * 1e-9, topology.count);
  m["workload.flowgen_s"] = ratio(flowgen.total_ns * 1e-9, flowgen.count);
}

dataplane::Verdict TimedGateway::process(const net::OverlayPacket& packet,
                                         double now) {
  ScopedSpan span(name_, parent_, call_, 1);
  return inner_.process(packet, now);
}

void TimedGateway::process_batch(std::span<const net::OverlayPacket> packets,
                                 double now,
                                 std::span<dataplane::Verdict> out) {
  ScopedSpan span(name_, parent_, call_, packets.size());
  inner_.process_batch(packets, now, out);
}

void TimedGateway::process_batch(std::span<const net::OverlayPacket> packets,
                                 std::span<const std::uint64_t> flow_hashes,
                                 double now,
                                 std::span<dataplane::Verdict> out) {
  ScopedSpan span(name_, parent_, call_, packets.size());
  inner_.process_batch(packets, flow_hashes, now, out);
}

void TimedGateway::process_batch_indexed(
    std::span<const net::OverlayPacket> packets,
    std::span<const std::uint64_t> flow_hashes,
    std::span<const std::uint32_t> indices, double now,
    std::span<dataplane::Verdict> out) {
  ScopedSpan span(name_, parent_, call_, indices.size());
  inner_.process_batch_indexed(packets, flow_hashes, indices, now, out);
}

}  // namespace pb
