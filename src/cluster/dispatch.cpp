#include "hcep/cluster/dispatch.hpp"

namespace hcep::cluster {

std::string to_string(DispatchPolicy policy) {
  switch (policy) {
    case DispatchPolicy::kRoundRobin: return "round-robin";
    case DispatchPolicy::kRandom: return "random";
    case DispatchPolicy::kJoinShortestQueue: return "join-shortest-queue";
    case DispatchPolicy::kFastestFirst: return "fastest-first";
    case DispatchPolicy::kLeastEnergy: return "least-energy";
  }
  return "unknown";
}

std::vector<DispatchPolicy> all_dispatch_policies() {
  return {DispatchPolicy::kRoundRobin, DispatchPolicy::kRandom,
          DispatchPolicy::kJoinShortestQueue, DispatchPolicy::kFastestFirst,
          DispatchPolicy::kLeastEnergy};
}

}  // namespace hcep::cluster
