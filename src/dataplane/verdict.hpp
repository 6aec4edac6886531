// sf::dataplane — the unified dataplane API every gateway implements.
//
// Before this subsystem the three packet-processing layers (XGW-H, XGW-x86
// and the whole region) each had an ad-hoc result struct with its own
// action enum and a free-form `std::string drop_reason`. A fleet simulator
// cannot aggregate, compare or branch on strings cheaply, and the structs
// even disagreed on default-drop semantics. `Verdict` is the one result
// type: a typed action, a typed drop reason, the rewritten packet and the
// modeled latency. Layer-specific extras (pipeline passes, SNAT bindings)
// live in thin subclasses; the common fields are what the region, the
// traces and the figures consume.

#pragma once

#include <cstdint>
#include <string>

#include "net/packet.hpp"

namespace sf::dataplane {

/// What a gateway decided to do with a packet.
enum class Action : std::uint8_t {
  kForwardToNc,     // rewritten toward the destination server
  kForwardTunnel,   // rewritten toward a remote region/IDC endpoint
  kFallbackToX86,   // steered from XGW-H to the software gateway
  kSnatToInternet,  // translated and decapped toward the Internet
  kDrop,
};

/// Static-storage name — the allocation-free spelling for hot paths
/// (drop notes, cached verdicts). to_string() wraps it.
const char* name(Action action);
std::string to_string(Action action);

/// Why a packet was dropped. `kNone` means "not dropped" — every verdict
/// whose action is kDrop carries a reason other than kNone.
enum class DropReason : std::uint8_t {
  kNone = 0,
  kInvalidVni,
  kAclDeny,
  kNoRoute,
  kNoVmNcMapping,
  kPeerResolutionLoop,
  kSnatPoolExhausted,
  kFallbackRateLimited,
  kUnknownVni,           // VNI not assigned to any cluster
  kNoLiveDevice,         // cluster ECMP set is empty
  kUnhandledScope,
  // ---- sf::guard overload protection (never emitted by a gateway) --------
  kTenantShed,            // tier-2 degradation: the whole tenant is shed
  kTenantNewFlowShed,     // tier-1 degradation: new-flow setup shed
  kPuntQueueFull,         // hardware→x86 punt queue backpressure
  kSnatPortBlockExhausted,  // the session's external IP has no free port
};

/// Static-storage name; byte-identical to to_string(). The allocation-free
/// spelling for hot paths.
const char* name(DropReason reason);
std::string to_string(DropReason reason);

/// The unified per-packet result.
struct Verdict {
  Action action = Action::kDrop;
  /// kNone unless action == kDrop; a dropping gateway always sets it.
  DropReason drop_reason = DropReason::kNone;
  /// Region level: the verdict was produced by the XGW-x86 fleet (the
  /// packet crossed the fallback path) rather than by XGW-H alone.
  bool software_path = false;
  net::OverlayPacket packet;  // with rewritten outer header
  double latency_us = 0;

  bool dropped() const { return action == Action::kDrop; }
  bool forwarded() const {
    return action == Action::kForwardToNc ||
           action == Action::kForwardTunnel ||
           action == Action::kSnatToInternet;
  }

  /// A drop verdict with its reason — keeps the invariant in one place.
  static Verdict drop(DropReason reason) {
    Verdict verdict;
    verdict.action = Action::kDrop;
    verdict.drop_reason = reason;
    return verdict;
  }
};

/// Region-path label of a verdict ("hardware-forwarded", "software-snat",
/// "dropped", ...) — the vocabulary of Fig. 10 and the path traces.
std::string path_label(const Verdict& verdict);

}  // namespace sf::dataplane
