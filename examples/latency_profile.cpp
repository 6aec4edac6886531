// Latency deep-dive: where the paper's "2 µs vs 40 µs" (Fig. 18c) comes
// from. The XGW-H side is measured through the gateway walk at several
// packet sizes; the XGW-x86 side runs the per-core queueing simulator
// across utilizations, showing the M/D/1 blow-up and the p99 tail that a
// mean-only model hides.

#include <cstdio>

#include "x86/cost_model.hpp"
#include "x86/queue_sim.hpp"
#include "xgwh/xgwh.hpp"

using namespace sf;

int main() {
  std::printf("latency profile: XGW-H pipeline vs XGW-x86 core queue\n\n");

  // Hardware: deterministic pipeline latency, folded (2 passes).
  xgwh::XgwH hw{xgwh::XgwH::Config{}};
  hw.install_route(10, net::IpPrefix::must_parse("10.0.0.0/8"),
                   {tables::RouteScope::kLocal, 0, {}});
  hw.install_mapping({10, net::IpAddr::must_parse("10.0.0.9")},
                     {net::Ipv4Addr(172, 16, 0, 1)});
  std::printf("XGW-H (folded, 2 passes):\n");
  std::printf("  %8s %12s\n", "payload", "latency");
  for (std::uint16_t payload : {32, 128, 384, 928, 1380}) {
    net::OverlayPacket pkt;
    pkt.vni = 10;
    pkt.inner.src = net::IpAddr::must_parse("10.0.0.1");
    pkt.inner.dst = net::IpAddr::must_parse("10.0.0.9");
    pkt.payload_size = payload;
    const auto result = hw.forward(pkt);
    std::printf("  %7uB %9.3f us\n", payload, result.latency_us);
  }

  // Software: queueing latency vs core utilization.
  const x86::X86CostModel model;
  x86::CoreQueueSim::Config config;
  config.service_pps = model.core_pps();
  config.base_latency_us = model.base_latency_us - 2;
  x86::CoreQueueSim sim(config);
  std::printf("\nXGW-x86 core (service %.2f Mpps):\n",
              model.core_pps() / 1e6);
  std::printf("  %6s %10s %10s %10s %10s\n", "util", "mean", "p50", "p99",
              "drops");
  for (double rho : {0.1, 0.3, 0.5, 0.7, 0.9, 0.98, 1.2}) {
    const auto result = sim.run(rho * model.core_pps(), 3.0);
    std::printf("  %5.0f%% %7.1f us %7.1f us %7.1f us %9.2e\n", rho * 100,
                result.mean_latency_us, result.p50_latency_us,
                result.p99_latency_us, result.drop_rate);
  }
  std::printf(
      "\nthe heavy-hitter core (Fig. 4) lives on the right edge of this "
      "table — latency and loss explode exactly when a tenant's flow "
      "peaks. The pipeline's %0.1f us is load-independent until line "
      "rate.\n",
      2.2);
  return 0;
}
