// Fig. 18 — "XGW-H's forwarding performance": throughput, packet rate and
// latency of one XGW-H vs one XGW-x86 of roughly the same unit price.
// Rates come from the calibrated envelopes; latency is *measured* by
// pushing packets through the gateway program's walk.

#include <cstdio>

#include "bench_util.hpp"
#include "x86/cost_model.hpp"
#include "xgwh/xgwh.hpp"

using namespace sf;

namespace {

double measure_xgwh_latency(xgwh::XgwH& gw, std::uint16_t payload) {
  net::OverlayPacket pkt;
  pkt.vni = 10;
  pkt.inner.src = net::IpAddr::must_parse("192.168.10.2");
  pkt.inner.dst = net::IpAddr::must_parse("192.168.10.3");
  pkt.inner.proto = 6;
  pkt.payload_size = payload;
  return gw.forward(pkt).latency_us;
}

}  // namespace

int main() {
  bench::print_header("Fig. 18", "XGW-H vs XGW-x86 forwarding performance");

  xgwh::XgwH hw{xgwh::XgwH::Config{}};  // folded, fully compressed
  hw.install_route(10, net::IpPrefix::must_parse("192.168.10.0/24"),
                   {tables::RouteScope::kLocal, 0, {}});
  hw.install_mapping({10, net::IpAddr::must_parse("192.168.10.3")},
                     {net::Ipv4Addr(10, 1, 1, 12)});
  const x86::X86CostModel sw;

  // (a) throughput and (b) packet rate.
  sim::TablePrinter rates({"Metric", "XGW-x86", "XGW-H", "Ratio", "Paper"});
  const double hw_bps = hw.max_throughput_bps();
  const double sw_bps = sw.nic_bps;
  const double hw_pps = hw.max_packet_rate_pps();
  const double sw_pps = sw.max_pps();
  rates.add_row({"Throughput", sim::format_si(sw_bps, "bps"),
                 sim::format_si(hw_bps, "bps"),
                 sim::format_double(hw_bps / sw_bps, 0) + "x",
                 ">20x (3.2 Tbps)"});
  rates.add_row({"Packet rate", sim::format_si(sw_pps, "pps"),
                 sim::format_si(hw_pps, "pps"),
                 sim::format_double(hw_pps / sw_pps, 0) + "x",
                 "72x (1800 vs 25 Mpps)"});
  rates.print();

  // Line-rate crossover vs packet size.
  std::printf("\nline rate vs packet size (achievable throughput):\n");
  sim::TablePrinter sweep({"Packet size", "XGW-x86", "XGW-H",
                           "x86 at line rate", "XGW-H at line rate"});
  for (std::size_t size : {64ul, 128ul, 256ul, 512ul, 1024ul, 1500ul}) {
    const double sw_tp = sw.throughput_bps(size);
    const double hw_tp =
        std::min(hw_bps, hw_pps * 8.0 * static_cast<double>(size));
    sweep.add_row({std::to_string(size) + "B", sim::format_si(sw_tp, "bps"),
                   sim::format_si(hw_tp, "bps"),
                   sw_tp >= sw.nic_bps * 0.999 ? "yes" : "no",
                   hw_tp >= hw_bps * 0.999 ? "yes" : "no"});
  }
  sweep.print();
  bench::print_note(
      "paper: XGW-H reaches line rate below 256B; XGW-x86 only above "
      "512B.");

  // (c) latency, measured through the folded gateway walk.
  std::printf("\nforwarding latency (measured through the walker):\n");
  sim::TablePrinter latency({"Packet", "XGW-H measured", "XGW-H paper",
                             "XGW-x86 model", "XGW-x86 paper"});
  for (std::uint16_t payload : {32, 384, 928}) {
    net::OverlayPacket probe;
    probe.payload_size = payload;
    const std::size_t wire = probe.wire_size() + 8;  // ~ inner TCP adjust
    latency.add_row(
        {std::to_string(wire) + "B",
         sim::format_double(measure_xgwh_latency(hw, payload), 3) + " us",
         "2.17-2.31 us",
         sim::format_double(sw.latency_us(0.2), 0) + " us", "~40 us"});
  }
  latency.print();
  bench::print_note(
      "folding makes the packet traverse two pipeline passes: ~2x the "
      "pass latency, still 95% below the x86 path.");
  return 0;
}
