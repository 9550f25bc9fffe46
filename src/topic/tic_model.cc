#include "topic/tic_model.h"

#include "common/rng.h"
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

uint64_t TopicEdgeProbabilities::MemoryBytes() const {
  uint64_t bytes = 0;
  for (const auto& arr : p_) bytes += arr.capacity() * sizeof(double);
  return bytes;
}

Result<TopicEdgeProbabilities> MakeWeightedCascade(const graph::Graph& g,
                                                   uint32_t num_topics) {
  if (num_topics == 0) {
    return Status::InvalidArgument("MakeWeightedCascade: num_topics == 0");
  }
  std::vector<double> probs(g.num_edges());
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    const graph::NodeId dst = g.EdgeDst(e);
    probs[e] = 1.0 / static_cast<double>(g.InDegree(dst));
  }
  std::vector<std::vector<double>> per_topic(num_topics, probs);
  return TopicEdgeProbabilities::Create(g, std::move(per_topic));
}

Result<TopicEdgeProbabilities> MakeUniform(const graph::Graph& g,
                                           uint32_t num_topics, double p) {
  if (num_topics == 0) {
    return Status::InvalidArgument("MakeUniform: num_topics == 0");
  }
  if (p < 0.0 || p > 1.0) {
    return Status::InvalidArgument("MakeUniform: p outside [0,1]");
  }
  std::vector<std::vector<double>> per_topic(
      num_topics, std::vector<double>(g.num_edges(), p));
  return TopicEdgeProbabilities::Create(g, std::move(per_topic));
}

Result<TopicEdgeProbabilities> MakeDegreeScaledRandom(const graph::Graph& g,
                                                      uint32_t num_topics,
                                                      uint64_t seed) {
  if (num_topics == 0) {
    return Status::InvalidArgument("MakeDegreeScaledRandom: num_topics == 0");
  }
  std::vector<std::vector<double>> per_topic(num_topics);
  for (uint32_t z = 0; z < num_topics; ++z) {
    Rng rng(HashSeed(seed, 0x7091c + z));
    auto& arr = per_topic[z];
    arr.resize(g.num_edges());
    for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
      const graph::NodeId dst = g.EdgeDst(e);
      arr[e] = rng.NextDouble() / static_cast<double>(g.InDegree(dst));
    }
  }
  return TopicEdgeProbabilities::Create(g, std::move(per_topic));
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
