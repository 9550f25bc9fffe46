#include "rrset/parallel_sampler.h"

#include <algorithm>
#include <new>

#include "common/failpoint.h"
#include "common/logging.h"
#include "common/thread_pool.h"

namespace isa::rrset {

ParallelSampler::ParallelSampler(const graph::Graph& g,
                                 std::span<const double> probs,
                                 DiffusionModel /*model*/, uint64_t base_seed,
                                 ParallelSamplerOptions options,
                                 std::shared_ptr<const CoinColumn> coins)
    : g_(g),
      probs_(probs),
      base_seed_(base_seed),
      min_sets_per_thread_(std::max<uint64_t>(1, options.min_sets_per_thread)),
      // max_threads_ bounds shard count and per-worker sampler memory, not
      // just threads, so even explicit requests are capped by the pool.
      // Determinism is unaffected: worker count never changes the sets.
      max_threads_(options.pool == nullptr
                       ? 1
                       : std::clamp(options.num_threads != 0
                                        ? options.num_threads
                                        : options.pool->concurrency(),
                                    1u, options.pool->concurrency())),
      pool_(max_threads_ > 1 ? options.pool : nullptr),
      coins_(coins != nullptr ? std::move(coins)
                              : BuildCoinColumn(g, probs)) {
  ISA_CHECK(options.pool != nullptr || options.num_threads <= 1);
}

uint32_t ParallelSampler::WorkerCountFor(uint64_t count) const {
  const uint64_t by_work = count / min_sets_per_thread_;
  return static_cast<uint32_t>(
      std::clamp<uint64_t>(by_work, 1, max_threads_));
}

RrSetColumns ParallelSampler::SampleRange(uint32_t w, uint64_t first_id,
                                          uint64_t count) {
  if (workers_[w] == nullptr) {
    workers_[w] = std::make_unique<RrSampler>(g_, probs_, coins_);
  }
  RrSetColumns shard;
  workers_[w]->SampleIds(base_seed_, first_id, count, &shard.sizes,
                         &shard.nodes);
  return shard;
}

std::vector<RrSetColumns> ParallelSampler::SampleShards(uint64_t first_id,
                                                        uint64_t count) {
  // "sampler.alloc" models the shard buffers failing to allocate — the
  // same std::bad_alloc a real heap exhaustion would raise while they grow
  // (on a pool task this marshals to the launcher's Wait).
  if (FailPointHit("sampler.alloc") != 0) throw std::bad_alloc();
  const uint32_t workers = WorkerCountFor(count);
  if (workers_.size() < workers) workers_.resize(workers);
  std::vector<RrSetColumns> shards(workers);
  if (workers == 1) {
    // Inline path: no pool dispatch, still the per-id substreams, so the
    // output is identical to any multi-worker run.
    shards[0] = SampleRange(0, first_id, count);
    return shards;
  }

  // Contiguous id ranges per worker: worker w gets [lo_w, lo_{w+1}), the
  // first `count % workers` ranges one set longer, so the shards in order
  // hold the ids in sequence.
  std::vector<uint64_t> lo(workers + 1, first_id);
  const uint64_t base = count / workers;
  const uint64_t extra = count % workers;
  for (uint32_t w = 0; w < workers; ++w) {
    lo[w + 1] = lo[w] + base + (w < extra ? 1 : 0);
  }
  pool_->Run(workers, [&](uint64_t w) {
    shards[w] =
        SampleRange(static_cast<uint32_t>(w), lo[w], lo[w + 1] - lo[w]);
  });

  // Release the extra workers' epoch arrays (O(n) each): with one sampler
  // per advertiser, keeping them alive between growth events would cost
  // O(ads * threads * n) idle memory. Worker 0 persists for the inline
  // path's tiny batches; multi-worker batches are large enough (>=
  // 2 * min_sets_per_thread) to amortize re-creation.
  workers_.resize(1);
  return shards;
}

void ParallelSampler::SampleToBuffer(uint64_t first_id, uint64_t count,
                                     std::vector<graph::NodeId>* nodes,
                                     std::vector<uint32_t>* sizes) {
  nodes->clear();
  sizes->clear();
  if (count == 0) return;
  ConcatSetColumns(SampleShards(first_id, count), pool_, nodes, sizes);
}

void ParallelSampler::SampleAppend(RrStore& store, uint64_t count) {
  if (count == 0) return;
  AppendShards(store, SampleShards(store.num_sets(), count));
}

void ParallelSampler::AppendShards(RrStore& store,
                                   std::vector<RrSetColumns> shards) {
  // The shards land in the store as one batch, so the resulting store,
  // including vector capacities, is identical to a 1-worker run.
  // base_seed_ is recorded as the batch's provenance: every appended id is
  // reproducible as Rng(HashSeed(base_seed_, id)), which is what lets the
  // store re-sample a lost cold chunk (see RrStore::SetResampler).
  store.AppendParts(std::move(shards), pool_, base_seed_);
}

}  // namespace isa::rrset
