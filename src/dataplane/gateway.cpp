#include "dataplane/gateway.hpp"

#include <algorithm>
#include <array>
#include <numeric>
#include <stdexcept>

namespace sf::dataplane {

namespace {

/// The contiguous forms, defined once: the batch goes to
/// process_batch_indexed through an identity index list, built a
/// stack-sized chunk at a time so the call stays allocation-free.
void process_contiguous(Gateway& gateway,
                        std::span<const net::OverlayPacket> packets,
                        std::span<const std::uint64_t> flow_hashes, double now,
                        std::span<Verdict> out) {
  if (out.size() < packets.size()) {
    throw std::invalid_argument(
        "process_batch: output span smaller than the batch");
  }
  std::array<std::uint32_t, 256> identity;
  for (std::size_t base = 0; base < packets.size(); base += identity.size()) {
    const std::size_t n = std::min(identity.size(), packets.size() - base);
    std::iota(identity.begin(), identity.begin() + n,
              static_cast<std::uint32_t>(base));
    gateway.process_batch_indexed(packets, flow_hashes, {identity.data(), n},
                                  now, out);
  }
}

}  // namespace

void Gateway::process_batch(std::span<const net::OverlayPacket> packets,
                            double now, std::span<Verdict> out) {
  process_contiguous(*this, packets, {}, now, out);
}

void Gateway::process_batch(std::span<const net::OverlayPacket> packets,
                            std::span<const std::uint64_t> flow_hashes,
                            double now, std::span<Verdict> out) {
  if (flow_hashes.size() != packets.size()) {
    throw std::invalid_argument(
        "process_batch: flow_hashes.size() must equal packets.size()");
  }
  process_contiguous(*this, packets, flow_hashes, now, out);
}

void Gateway::process_batch_indexed(
    std::span<const net::OverlayPacket> packets,
    std::span<const std::uint64_t> flow_hashes,
    std::span<const std::uint32_t> indices, double now,
    std::span<Verdict> out) {
  (void)flow_hashes;
  if (out.size() < packets.size()) {
    throw std::invalid_argument(
        "process_batch_indexed: output span smaller than the packet array");
  }
  for (const std::uint32_t i : indices) {
    out[i] = process(packets[i], now);
  }
}

std::vector<Verdict> Gateway::process_batch(
    std::span<const net::OverlayPacket> packets, double now) {
  std::vector<Verdict> verdicts(packets.size());
  process_batch(packets, now, verdicts);
  return verdicts;
}

}  // namespace sf::dataplane
