#include "rrset/parallel_sampler.h"

#include <algorithm>
#include <new>
#include <thread>

#include "common/failpoint.h"
#include "common/thread_pool.h"

namespace isa::rrset {

ParallelSampler::ParallelSampler(const graph::Graph& g,
                                 std::span<const double> probs,
                                 DiffusionModel model, uint64_t base_seed,
                                 ParallelSamplerOptions options,
                                 std::shared_ptr<const CoinColumn> coins)
    : g_(g),
      probs_(probs),
      model_(model),
      base_seed_(base_seed),
      min_sets_per_thread_(std::max<uint64_t>(1, options.min_sets_per_thread)),
      // max_threads_ bounds shard count and per-worker sampler memory, not
      // just threads, so even explicit requests are capped: by the borrowed
      // pool's concurrency, or by a small multiple of the hardware (over-
      // subscribing pure-CPU work buys nothing). Determinism is unaffected:
      // worker count never changes the sampled sets.
      max_threads_(std::clamp(
          options.num_threads != 0
              ? options.num_threads
              : (options.pool != nullptr
                     ? options.pool->concurrency()
                     : std::max(1u, std::thread::hardware_concurrency())),
          1u,
          options.pool != nullptr
              ? options.pool->concurrency()
              : 4 * std::max(1u, std::thread::hardware_concurrency()))),
      borrowed_pool_(options.pool),
      coins_(model != DiffusionModel::kIndependentCascade ? nullptr
             : coins != nullptr ? std::move(coins)
                                : BuildCoinColumn(g, probs)) {}

ParallelSampler::~ParallelSampler() = default;
ParallelSampler::ParallelSampler(ParallelSampler&&) noexcept = default;

uint32_t ParallelSampler::WorkerCountFor(uint64_t count) const {
  const uint64_t by_work = count / min_sets_per_thread_;
  return static_cast<uint32_t>(
      std::clamp<uint64_t>(by_work, 1, max_threads_));
}

ThreadPool* ParallelSampler::pool() {
  if (max_threads_ <= 1) return nullptr;  // explicit single-thread request
  if (borrowed_pool_ != nullptr) return borrowed_pool_;
  if (owned_pool_ == nullptr) {
    owned_pool_ = std::make_unique<ThreadPool>(max_threads_);
  }
  return owned_pool_.get();
}

void ParallelSampler::SampleRange(uint32_t w, uint64_t first_id,
                                  uint64_t count, Shard* shard) {
  if (workers_[w] == nullptr) {
    workers_[w] = std::make_unique<RrSampler>(g_, probs_, model_, coins_);
  }
  workers_[w]->SampleIds(base_seed_, first_id, count, &shard->sizes,
                         &shard->nodes);
}

void ParallelSampler::SampleToBuffer(uint64_t first_id, uint64_t count,
                                     std::vector<graph::NodeId>* nodes,
                                     std::vector<uint32_t>* sizes) {
  nodes->clear();
  sizes->clear();
  if (count == 0) return;
  // "sampler.alloc" models the shard buffers failing to allocate — the
  // same std::bad_alloc a real heap exhaustion would raise on the reserve
  // calls below (on a pool task this marshals to the launcher's Wait).
  if (FailPointHit("sampler.alloc") != 0) throw std::bad_alloc();
  const uint32_t workers = WorkerCountFor(count);
  if (workers_.size() < workers) workers_.resize(workers);

  if (workers == 1) {
    // Inline path: no pool dispatch, still the per-id substreams, so the
    // output is identical to any multi-worker run.
    Shard shard;
    SampleRange(0, first_id, count, &shard);
    *nodes = std::move(shard.nodes);
    *sizes = std::move(shard.sizes);
    return;
  }

  // Contiguous id ranges per worker: worker w gets [lo_w, lo_{w+1}), the
  // first `count % workers` ranges one set longer. Shards are merged in
  // range order below, so ids land in the output exactly in sequence.
  std::vector<Shard> shards(workers);
  std::vector<uint64_t> lo(workers + 1, first_id);
  const uint64_t base = count / workers;
  const uint64_t extra = count % workers;
  for (uint32_t w = 0; w < workers; ++w) {
    lo[w + 1] = lo[w] + base + (w < extra ? 1 : 0);
  }
  pool()->Run(workers, [&](uint64_t w) {
    SampleRange(static_cast<uint32_t>(w), lo[w], lo[w + 1] - lo[w],
                &shards[w]);
  });

  sizes->reserve(count);
  size_t total_nodes = 0;
  for (const Shard& s : shards) total_nodes += s.nodes.size();
  nodes->reserve(total_nodes);
  for (const Shard& shard : shards) {
    sizes->insert(sizes->end(), shard.sizes.begin(), shard.sizes.end());
    nodes->insert(nodes->end(), shard.nodes.begin(), shard.nodes.end());
  }

  // Release the extra workers' epoch arrays (O(n) each): with one sampler
  // per advertiser, keeping them alive between growth events would cost
  // O(ads * threads * n) idle memory. Worker 0 persists for the inline
  // path's tiny batches; multi-worker batches are large enough (>=
  // 2 * min_sets_per_thread) to amortize re-creation.
  workers_.resize(1);
}

void ParallelSampler::SampleAppend(RrStore& store, uint64_t count) {
  if (count == 0) return;
  const uint32_t workers = WorkerCountFor(count);
  std::vector<graph::NodeId> nodes;
  std::vector<uint32_t> sizes;
  SampleToBuffer(store.num_sets(), count, &nodes, &sizes);
  // The whole batch is appended (and indexed) as a unit, so the resulting
  // store, including vector capacities, is identical to a 1-worker run.
  // For the inline path an already-live pool is forwarded for the index
  // build, but none is created just for it: every batch, however small,
  // rebuilds the hot index (an O(hot postings) copy plus the batch's
  // sort), which then runs on one worker for a standalone sampler whose
  // pool was never needed for sampling — an accepted trade-off; the driver
  // always passes a borrowed pool.
  ThreadPool* p = workers == 1
                      ? (max_threads_ > 1 && borrowed_pool_ != nullptr
                             ? borrowed_pool_
                             : owned_pool_.get())
                      : pool();
  // base_seed_ is recorded as the batch's provenance: every appended id is
  // reproducible as Rng(HashSeed(base_seed_, id)), which is what lets the
  // store re-sample a lost cold chunk (see RrStore::SetResampler).
  store.AppendBatch(nodes, sizes, p, base_seed_);
}

}  // namespace isa::rrset
