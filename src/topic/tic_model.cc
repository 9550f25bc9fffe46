#include "topic/tic_model.h"

#include "common/strings.h"

namespace isa::topic {

Result<TopicEdgeProbabilities> TopicEdgeProbabilities::Create(
    const graph::Graph& g, std::vector<std::vector<double>> per_topic) {
  if (per_topic.empty()) {
    return Status::InvalidArgument("TopicEdgeProbabilities: no topics");
  }
  for (const auto& arr : per_topic) {
    if (arr.size() != g.num_edges()) {
      return Status::InvalidArgument(
          StrFormat("TopicEdgeProbabilities: %zu probs for %u edges",
                    arr.size(), g.num_edges()));
    }
    for (double p : arr) {
      if (p < 0.0 || p > 1.0) {
        return Status::InvalidArgument(
            "TopicEdgeProbabilities: probability outside [0,1]");
      }
    }
  }
  TopicEdgeProbabilities out;
  out.p_ = std::move(per_topic);
  return out;
}

Result<AdProbabilities> AdProbabilities::Mix(
    const TopicEdgeProbabilities& topics, const TopicDistribution& gamma) {
  if (gamma.num_topics() != topics.num_topics()) {
    return Status::InvalidArgument(
        StrFormat("AdProbabilities: gamma has %u topics, model has %u",
                  gamma.num_topics(), topics.num_topics()));
  }
  AdProbabilities out;
  out.p_.assign(topics.num_edges(), 0.0);
  for (uint32_t z = 0; z < topics.num_topics(); ++z) {
    const double gz = gamma.weight(z);
    if (gz == 0.0) continue;
    std::span<const double> pz = topics.topic(z);
    for (uint32_t e = 0; e < topics.num_edges(); ++e) {
      out.p_[e] += gz * pz[e];
    }
  }
  return out;
}

}  // namespace isa::topic
