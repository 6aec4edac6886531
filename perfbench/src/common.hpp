// Shared pieces of the benchmark: options, the result record, digests,
// percentiles, memory probes and the closed-loop deadline.

#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "dataplane/flow_cache.hpp"
#include "dataplane/table_programmer.hpp"
#include "telemetry/registry.hpp"
#include "dataplane/verdict.hpp"
#include "net/packet.hpp"
#include "workload/flowgen.hpp"
#include "workload/rng.hpp"
#include "workload/topology.hpp"

namespace sf::core {}
namespace sf::x86 {}
namespace sf::xgwh {}

namespace pb {

namespace core = sf::core;
namespace dataplane = sf::dataplane;
namespace net = sf::net;
namespace telemetry = sf::telemetry;
namespace tables = sf::tables;
namespace workload = sf::workload;
namespace x86 = sf::x86;
namespace xgwh = sf::xgwh;

using Clock = std::chrono::steady_clock;

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

inline double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;  // span dump of a traced run; empty = none
};

/// Every run makes at least this many timed calls, so the p99 of the call
/// durations (client.call_p99_us) has at least ten samples beyond it.
constexpr std::size_t kMinCalls = 1000;

/// Order-sensitive 64-bit digest of a stream of values.
struct Digest {
  std::uint64_t value = 0x5a11f15b0b5e55edULL;
  void add(std::uint64_t v);
  void add(double v);
  void add(const net::IpAddr& ip);
  void add(const net::OverlayPacket& packet);
  void add(const dataplane::Verdict& verdict);
};

/// Verdict expected for a packet: forward to an NC with that outer
/// destination, or SNAT toward the Internet.
struct Expect {
  dataplane::Action action = dataplane::Action::kForwardToNc;
  net::Ipv4Addr nc;
};
bool matches(const dataplane::Verdict& verdict, const Expect& expect);

/// What one workload run produces. `attempted`/`failed` count checked
/// outputs: verdicts, table-op statuses, interval reports, probe lookups.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Digest of the generated inputs and of the checked outputs of the
  /// first kDigestCalls timed calls; equal for traced and untraced runs
  /// of one seed.
  Digest inputs;
  Digest outputs;
  std::size_t calls = 0;
  /// Measured metrics by name; BENCHMARK.json holds their units.
  std::map<std::string, double> metrics;
  std::map<std::string, double> info;  // extra facts for the info line

  /// Counts one checked output; the first few failures are described on
  /// stderr under `what`.
  void check(bool ok, const char* what = "check") {
    ++attempted;
    if (!ok && ++failed <= 5) {
      std::fprintf(stderr, "perfbench: failed %s (#%llu)\n", what,
                   static_cast<unsigned long long>(attempted));
    }
  }
  /// Checks a verdict against its expectation, describing a mismatch.
  void check_verdict(const dataplane::Verdict& verdict, const Expect& expect);
};

/// Calls whose inputs and outputs enter the run digests.
constexpr std::size_t kDigestCalls = 64;

/// The closed-loop window: keeps issuing calls until `seconds` of wall
/// time have passed and at least kMinCalls calls were made (bounded at
/// three times the window, after which the count is what it is).
class Deadline {
 public:
  explicit Deadline(double seconds);
  bool more(std::size_t calls) const;

 private:
  std::uint64_t start_ns_;
  std::uint64_t window_ns_;
};

/// num / den, or 0 when there is nothing to divide by.
inline double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Nearest-rank percentile (q in [0, 1]) of unsorted samples.
double percentile(std::vector<double> samples, double q);
double median(std::vector<double> samples);

/// Resident set size right now / peak so far, in MB (10^6 bytes).
double rss_mb();
double peak_rss_mb();

/// The end-to-end metrics every workload reports (see BENCHMARK.json).
struct EndToEnd {
  double setup_s = 0;
  double packets = 0;      // forwarded packets inside timed calls
  double forward_s = 0;    // time inside the timed forwarding calls
  std::vector<double> call_us;  // one duration per timed call
};
void report_end_to_end(const EndToEnd& e2e, Outcome& out);


/// Adds one gateway's flow-cache counters into a fleet total.
void accumulate(dataplane::FlowCacheStats& sum,
                const dataplane::FlowCacheStats& stats);

/// Flow-cache counters summed over a fleet of gateways.
template <typename Fleet>
dataplane::FlowCacheStats fleet_cache_stats(const Fleet& fleet) {
  dataplane::FlowCacheStats sum;
  for (const auto& gateway : fleet) {
    accumulate(sum, gateway->flow_cache_stats());
  }
  return sum;
}

/// The per-layer flow_cache.* ratios from fleet totals before and after
/// the timed loop.
void report_flow_cache(const dataplane::FlowCacheStats& before,
                       const dataplane::FlowCacheStats& after, Outcome& out);

/// A topology's table contents, flattened once per set-up.
struct TableEntries {
  std::vector<std::pair<tables::VxlanRouteKey, tables::VxlanRouteAction>>
      routes;
  std::vector<std::pair<tables::VmNcKey, tables::VmNcAction>> mappings;

  TableEntries() = default;
  explicit TableEntries(const workload::RegionTopology& topology)
      : routes(topology.vxlan_routes()), mappings(topology.vm_mappings()) {}
  std::size_t size() const { return routes.size() + mappings.size(); }
};

/// Installs every entry through TableProgrammer::apply in fixed-size
/// batches and checks each op's status.
void install_entries(dataplane::TableProgrammer& target,
                     const TableEntries& entries, Outcome& out);

/// The subset of `entries` an XGW-H device accepts (see xgwh_probe.cpp);
/// optionally the device's resident bytes per accepted entry.
TableEntries admit_to_xgwh(const TableEntries& entries,
                           double* rss_per_entry = nullptr);

/// Draws flow indices in proportion to the flows' weights.
class WeightedSampler {
 public:
  explicit WeightedSampler(const std::vector<workload::Flow>& flows);
  std::size_t sample(workload::Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

/// A minimum-size packet of a generated flow.
net::OverlayPacket packet_of(const workload::Flow& flow);

/// Traced-run probe of the XGW-H layer over `topology`'s entries (see
/// xgwh_probe.cpp): xgwh.*, tables.* and flow_cache.miss_cost_ns_per_pkt.
void xgwh_fleet_probe(const workload::RegionTopology& topology,
                      std::uint64_t seed, Outcome& out);

/// Workload entry points.
Outcome run_churn(const Options& options);
Outcome run_region(const Options& options);

}  // namespace pb
