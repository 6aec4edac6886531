// The traced run's span recorder and the timing gateway decorator.
//
// Spans are recorded from the benchmark's own code around calls into each
// layer's public functions (the engine, the gateways, table apply, the
// region). They are kept in memory, written once at exit, and the
// per-layer metrics are derived from them: a span's self time is its
// duration minus the part of it its child spans cover.

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common.hpp"
#include "dataplane/gateway.hpp"

namespace pb {

struct Span {
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::uint64_t call = 0;    // timed call the span belongs to
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t items = 0;   // packets / ops / entries the span covered

  std::uint64_t duration_ns() const { return end_ns - start_ns; }
};

/// Process-wide span store. Thread-safe: the engine's mutator thread
/// records next to the forwarding thread.
class Tracer {
 public:
  static Tracer& get();

  std::uint64_t next_id();
  void record(const Span& span);
  /// The recorded spans; read only once every recording thread is done.
  const std::vector<Span>& spans() const { return spans_; }

  /// Writes one tab-separated line per span.
  bool write(const std::string& path) const;

 private:
  std::atomic<std::uint64_t> next_id_{1};
  std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
};

/// Records a span from construction to destruction.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, std::uint64_t parent, std::uint64_t call,
             std::uint64_t items = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const { return span_.id; }
  /// Names the span by its outcome, known only at the end.
  void rename(const char* name) { span_.name = name; }

 private:
  Span span_;
};

/// A root span when `trace` is set, nothing otherwise.
std::unique_ptr<ScopedSpan> maybe_span(bool trace, const char* name,
                                       std::uint64_t items = 0);

/// Sums over the recorded spans of one name.
struct SpanTotals {
  std::size_t count = 0;
  double total_ns = 0;
  double self_ns = 0;  // total minus child-span coverage
  double items = 0;
};
SpanTotals totals(const std::vector<Span>& spans, const char* name);

/// Per-layer metrics every ShardEngine workload derives alike from its
/// "engine.process_packets", gateway (`gateway_span`) and "net.hash" spans
/// and its untraced call durations: client.call_p99_us,
/// trace.overhead_frac, net.hash_ns_per_pkt, the dataplane.* engine
/// metrics and `gateway_metric` (ns per packet inside the gateway).
void report_engine_layers(const std::vector<double>& untraced_us,
                          std::size_t burst, const char* gateway_span,
                          const char* gateway_metric, Outcome& out);

/// Gateway decorator: every call into the wrapped gateway becomes a child
/// span of the engine call named by parent(). The engine sees it through
/// gateway_for, so the wrapped gateway's behaviour is unchanged.
class TimedGateway final : public dataplane::Gateway {
 public:
  TimedGateway(dataplane::Gateway& inner, const char* name)
      : inner_(inner), name_(name) {}

  void set_parent(std::uint64_t parent, std::uint64_t call) {
    parent_ = parent;
    call_ = call;
  }

  dataplane::Verdict process(const net::OverlayPacket& packet,
                             double now) override;
  void process_batch(std::span<const net::OverlayPacket> packets, double now,
                     std::span<dataplane::Verdict> out) override;
  void process_batch(std::span<const net::OverlayPacket> packets,
                     std::span<const std::uint64_t> flow_hashes, double now,
                     std::span<dataplane::Verdict> out) override;
  void process_batch_indexed(std::span<const net::OverlayPacket> packets,
                             std::span<const std::uint64_t> flow_hashes,
                             std::span<const std::uint32_t> indices,
                             double now,
                             std::span<dataplane::Verdict> out) override;

 private:
  dataplane::Gateway& inner_;
  const char* name_;
  std::uint64_t parent_ = 0;
  std::uint64_t call_ = 0;
};

}  // namespace pb
