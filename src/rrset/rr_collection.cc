#include "rrset/rr_collection.h"

#include <algorithm>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "rrset/parallel_sampler.h"

namespace isa::rrset {

namespace {

// Below this posting count an extra adoption worker costs more in
// transient per-worker arrays and task hand-off than it saves; one worker
// adopts inline (the results are bit-identical at any worker count). Each
// extra worker also zero-fills and merges an O(num_nodes) count array, so
// the effective per-worker floor is max(threshold, num_nodes).
constexpr uint64_t kMinPostingsPerAdoptWorker = 1u << 12;

}  // namespace

RrCollection::RrCollection(graph::NodeId num_nodes)
    : store_(std::make_shared<RrStore>(num_nodes)),
      coverage_(num_nodes, 0) {}

RrCollection::RrCollection(std::shared_ptr<RrStore> store)
    : store_(std::move(store)), coverage_(store_->num_nodes(), 0) {}

void RrCollection::AddSets(ParallelSampler& sampler, uint64_t count,
                           std::span<const graph::NodeId> current_seeds,
                           std::vector<graph::NodeId>* touched) {
  const uint64_t target = theta_ + count;
  if (store_->num_sets() < target) {
    sampler.SampleAppend(*store_, target - store_->num_sets());
  }
  // sampler.pool() may lazily create a pool; only ask for one when the
  // adoption is big enough to shard at all.
  const uint64_t postings = store_->PostingsInRange(theta_, target);
  const bool worth_sharding =
      postings >= 2 * std::max<uint64_t>(kMinPostingsPerAdoptWorker,
                                         store_->num_nodes());
  AdoptUpTo(target, current_seeds, worth_sharding ? sampler.pool() : nullptr,
            touched);
}

void RrCollection::AdoptUpTo(uint64_t new_theta,
                             std::span<const graph::NodeId> current_seeds,
                             ThreadPool* pool,
                             std::vector<graph::NodeId>* touched) {
  // Adopted prefixes only grow (the θ schedule is monotone) and can never
  // run ahead of the physical store; a violation here means a driver
  // bug (e.g. adopting before the batch was appended), not bad user
  // input — catch it at the boundary instead of underflowing below.
  ISA_CHECK(new_theta >= theta_);
  ISA_CHECK(new_theta <= store_->num_sets());
  // Adoption reads members, so the range must still be resident. The spill
  // policy only evicts ids below every view's θ, which makes this a
  // driver-bug detector, not a reachable state.
  ISA_CHECK(theta_ >= store_->first_resident_set());
  if (touched != nullptr) touched->clear();
  const uint64_t first_new = theta_;
  alive_.resize(new_theta, 1);
  theta_ = new_theta;
  const uint64_t count = new_theta - first_new;
  if (count == 0) return;

  // Algorithm 3 (UpdateEstimates): a newly adopted set already containing a
  // chosen seed counts as covered immediately and contributes nothing to
  // the coverage counts; every other new set increments its members.
  std::vector<uint8_t> is_seed;
  if (!current_seeds.empty()) {
    is_seed.assign(store_->num_nodes(), 0);
    for (graph::NodeId s : current_seeds) is_seed[s] = 1;
  }
  auto covered_by_seed = [&](std::span<const graph::NodeId> members) {
    if (is_seed.empty()) return false;
    for (graph::NodeId v : members) {
      if (is_seed[v]) return true;
    }
    return false;
  };

  const uint32_t workers =
      pool == nullptr
          ? 1
          : pool->WorkersFor(
                store_->PostingsInRange(first_new, new_theta),
                std::max<uint64_t>(kMinPostingsPerAdoptWorker,
                                   store_->num_nodes()));
  // Runs fn(w) for every worker w; one worker runs inline.
  const auto for_workers = [&](const auto& fn) {
    if (workers == 1) return fn(uint64_t{0});
    pool->Run(workers, fn);
  };

  // Workers take contiguous set ranges into per-worker count arrays, then
  // the arrays are merged in node order. Both passes write disjoint slots
  // and sum integers, so the result is bit-identical at any worker count.
  const graph::NodeId n = store_->num_nodes();
  const std::vector<uint64_t> bounds =
      store_->PostingBalancedRanges(first_new, new_theta, workers);
  std::vector<std::vector<uint32_t>> counts(workers);
  std::vector<uint64_t> covered(workers, 0);
  for_workers([&](uint64_t w) {
    auto& local = counts[w];
    local.assign(n, 0);
    const uint64_t lo = bounds[w];
    const uint64_t hi = bounds[w + 1];
    for (uint64_t r = lo; r < hi; ++r) {
      const auto members = store_->SetMembers(r);
      if (covered_by_seed(members)) {
        alive_[r] = 0;
        ++covered[w];
      } else {
        for (graph::NodeId v : members) ++local[v];
      }
    }
  });
  for (uint64_t c : covered) covered_count_ += c;
  // Merge workers cover contiguous ascending node ranges, so per-worker
  // delta lists concatenated in worker order are globally ascending.
  std::vector<std::vector<graph::NodeId>> touched_shards(
      touched != nullptr ? workers : 0);
  for_workers([&](uint64_t w) {
    const graph::NodeId lo =
        static_cast<graph::NodeId>(uint64_t{n} * w / workers);
    const graph::NodeId hi =
        static_cast<graph::NodeId>(uint64_t{n} * (w + 1) / workers);
    for (graph::NodeId v = lo; v < hi; ++v) {
      uint32_t add = 0;
      for (uint32_t w2 = 0; w2 < workers; ++w2) add += counts[w2][v];
      coverage_[v] += add;
      if (touched != nullptr && add > 0) touched_shards[w].push_back(v);
    }
  });
  if (touched != nullptr) {
    for (const auto& shard : touched_shards) {
      touched->insert(touched->end(), shard.begin(), shard.end());
    }
  }
}

graph::NodeId RrCollection::ArgmaxCoverage(
    std::span<const uint8_t> eligible) const {
  // Ascending scan: ties resolve to the smallest node id.
  graph::NodeId best = kInvalidNode;
  uint32_t best_cov = 0;
  const graph::NodeId n = store_->num_nodes();
  for (graph::NodeId v = 0; v < n; ++v) {
    if (!eligible[v]) continue;
    if (coverage_[v] > best_cov) {
      best = v;
      best_cov = coverage_[v];
    }
  }
  return best_cov == 0 ? kInvalidNode : best;
}

uint32_t RrCollection::RemoveCoveredBy(graph::NodeId v,
                                       std::vector<graph::NodeId>* touched,
                                       ThreadPool* /*pool*/) {
  if (touched != nullptr) {
    touched->clear();
    if (touch_mark_.empty()) touch_mark_.assign(store_->num_nodes(), 0);
  }
  uint32_t removed = 0;
  auto cover_set = [&](uint64_t r, std::span<const graph::NodeId> members) {
    alive_[r] = 0;
    ++covered_count_;
    ++removed;
    for (graph::NodeId w : members) {
      --coverage_[w];
      if (touched != nullptr && !touch_mark_[w]) {
        touch_mark_[w] = 1;
        touched->push_back(w);
      }
    }
  };
  // Cold tier first, then the hot index (coverage updates are sums, so
  // the split changes nothing observable vs a resident-only store). The
  // max_id cap keeps the cold lookup inside this view's adopted prefix.
  if (store_->first_resident_set() > 0) {
    store_->ForEachSpilledSetContaining(
        v, std::min(theta_, store_->first_resident_set()), alive_, cover_set);
  }
  store_->ForEachSetContaining(v, [&](uint32_t r) {
    if (r >= theta_) return false;  // ids ascend; rest is beyond the prefix
    if (!alive_[r]) return true;
    cover_set(r, store_->SetMembers(r));
    return true;
  });
  if (touched != nullptr) {
    for (graph::NodeId w : *touched) touch_mark_[w] = 0;
    std::sort(touched->begin(), touched->end());
  }
  return removed;
}

double RrCollection::MaxCoverageFraction() const {
  if (theta_ == 0) return 0.0;
  uint32_t best = 0;
  for (uint32_t c : coverage_) best = std::max(best, c);
  return static_cast<double>(best) / static_cast<double>(theta_);
}

uint64_t RrCollection::MemoryBytes(bool include_store) const {
  uint64_t bytes = alive_.capacity() + coverage_.capacity() * sizeof(uint32_t) +
                   touch_mark_.capacity();
  if (include_store) bytes += store_->MemoryBytes();
  return bytes;
}

}  // namespace isa::rrset
