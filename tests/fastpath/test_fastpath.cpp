// Fast-path micro-contract, checked with real instrumentation rather
// than inspection: a warmed cache hit performs ZERO heap allocations end
// to end (counting global operator new/delete overrides below).
//
// This lives in its own binary because the operator new/delete overrides
// are global: they must not contaminate the other test suites.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "x86/xgw_x86.hpp"
#include "xgwh/xgwh.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace sf {
namespace {

using net::IpAddr;
using net::IpPrefix;
using tables::RouteScope;
using tables::VmNcAction;
using tables::VmNcKey;
using tables::VxlanRouteAction;

void install_tables(dataplane::TableProgrammer& gw) {
  gw.install_route(10, IpPrefix::must_parse("192.168.10.0/24"),
                   VxlanRouteAction{RouteScope::kLocal, 0, {}});
  gw.install_mapping(VmNcKey{10, IpAddr::must_parse("192.168.10.2")},
                     VmNcAction{net::Ipv4Addr(10, 1, 1, 11)});
}

net::OverlayPacket sample_packet(std::uint16_t src_port = 40000) {
  net::OverlayPacket pkt;
  pkt.vni = 10;
  pkt.inner.src = IpAddr::must_parse("192.168.10.3");
  pkt.inner.dst = IpAddr::must_parse("192.168.10.2");
  pkt.inner.proto = 6;
  pkt.inner.src_port = src_port;
  pkt.inner.dst_port = 80;
  pkt.payload_size = 200;
  return pkt;
}

TEST(FastPath, XgwHCacheHitMakesZeroHeapAllocations) {
  xgwh::XgwH::Config config;
  config.flow_cache_entries = 1 << 10;
  xgwh::XgwH gw(config);
  install_tables(gw);
  const net::OverlayPacket pkt = sample_packet();

  // Warm-up: fill the cache AND saturate the histogram reservoirs
  // (latency keeps 256 samples, passes 128) so steady state is reached.
  for (int i = 0; i < 400; ++i) gw.forward(pkt, i * 1e-6);
  ASSERT_GT(gw.flow_cache_stats().hits, 0u);
  ASSERT_EQ(gw.forward(pkt, 1.0).action, dataplane::Action::kForwardToNc);

  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 100; ++i) gw.forward(pkt, 2.0 + i * 1e-6);
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u)
      << "a warmed cache hit must not touch the heap";
}

TEST(FastPath, XgwX86CacheHitMakesZeroHeapAllocations) {
  x86::XgwX86::Config config;
  config.flow_cache_entries = 1 << 10;
  x86::XgwX86 gw(config);
  install_tables(gw);
  const net::OverlayPacket pkt = sample_packet();

  for (int i = 0; i < 400; ++i) gw.forward(pkt, i * 1e-6);
  ASSERT_GT(gw.flow_cache_stats().hits, 0u);

  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 100; ++i) gw.forward(pkt, 2.0 + i * 1e-6);
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u);
}

}  // namespace
}  // namespace sf
