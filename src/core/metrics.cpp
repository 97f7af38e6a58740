#include "core/metrics.hpp"

#include <algorithm>

namespace bftsim {

std::uint64_t Metrics::decision_count(NodeId node) const noexcept {
  return static_cast<std::uint64_t>(
      std::count_if(decisions_.begin(), decisions_.end(),
                    [node](const Decision& d) { return d.node == node; }));
}

Time Metrics::completion_time(const std::vector<NodeId>& nodes,
                              std::uint64_t k) const noexcept {
  Time latest = kNoTime;
  for (const NodeId node : nodes) {
    std::uint64_t seen = 0;
    Time at = kNoTime;
    for (const Decision& d : decisions_) {
      if (d.node != node) continue;
      if (++seen == k) {
        at = d.at;
        break;
      }
    }
    if (at == kNoTime) return kNoTime;  // this node has not reached k yet
    latest = std::max(latest, at);
  }
  return latest;
}

}  // namespace bftsim
