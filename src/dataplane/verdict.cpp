#include "dataplane/verdict.hpp"

namespace sf::dataplane {

const char* name(Action action) {
  switch (action) {
    case Action::kForwardToNc:
      return "forward-to-nc";
    case Action::kForwardTunnel:
      return "forward-tunnel";
    case Action::kFallbackToX86:
      return "fallback-to-x86";
    case Action::kSnatToInternet:
      return "snat-to-internet";
    case Action::kDrop:
      return "drop";
  }
  return "?";
}

std::string to_string(Action action) { return name(action); }

const char* name(DropReason reason) {
  // The strings keep the exact phrasing of the pre-enum free-form reasons
  // so traces and logs read the same as before the API migration.
  switch (reason) {
    case DropReason::kNone:
      return "none";
    case DropReason::kInvalidVni:
      return "invalid VNI";
    case DropReason::kAclDeny:
      return "acl deny";
    case DropReason::kNoRoute:
      return "no route";
    case DropReason::kNoVmNcMapping:
      return "no VM-NC mapping";
    case DropReason::kPeerResolutionLoop:
      return "peer VNI resolution loop";
    case DropReason::kSnatPoolExhausted:
      return "SNAT pool exhausted";
    case DropReason::kFallbackRateLimited:
      return "fallback rate limited";
    case DropReason::kUnknownVni:
      return "VNI not assigned to any cluster";
    case DropReason::kNoLiveDevice:
      return "cluster has no live devices";
    case DropReason::kUnhandledScope:
      return "unhandled scope";
    case DropReason::kTenantShed:
      return "tenant shed by overload guard";
    case DropReason::kTenantNewFlowShed:
      return "tenant new-flow setup shed";
    case DropReason::kPuntQueueFull:
      return "punt queue full";
    case DropReason::kSnatPortBlockExhausted:
      return "SNAT port block exhausted for external IP";
  }
  return "?";
}

std::string to_string(DropReason reason) { return name(reason); }

std::string path_label(const Verdict& verdict) {
  switch (verdict.action) {
    case Action::kForwardToNc:
      return verdict.software_path ? "software-forwarded"
                                   : "hardware-forwarded";
    case Action::kForwardTunnel:
      return verdict.software_path ? "software-forwarded"
                                   : "hardware-tunnel";
    case Action::kSnatToInternet:
      return "software-snat";
    case Action::kFallbackToX86:
      return "fallback-to-x86";
    case Action::kDrop:
      return "dropped";
  }
  return "?";
}

}  // namespace sf::dataplane
