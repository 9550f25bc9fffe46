// Deterministic parallel RR-set sampling — the one sampling API. RR sets
// enter an RrStore only through SampleAppend, and the two samples that
// never reach a store go through SampleToBuffer: the KPT pilot
// (rrset::SampleSizer) and the singleton-spread estimator
// (rrset::EstimateAllSingletonSpreads).
//
// Every RR set has an *absolute id* — its index in the destination
// RrStore — and is drawn from its own Rng substream
// HashSeed(base_seed, set_id) (the substream construction in common/rng.h;
// the per-id loop is RrSampler::SampleIds). Consequences:
//
//   - set `i`'s content depends only on (base_seed, i): sampling with 1, 2
//     or 64 workers yields bit-identical stores;
//   - workers take contiguous id ranges and sample into private shards;
//     each shard is then copied once, in parallel, to its prefix-sum
//     offset in the destination — the store's columns, or SampleToBuffer's
//     caller buffers — so ids land in ascending order, placed by shard
//     sizes, never by completion time. A store frees the shards before it
//     builds its index, so no third copy of the batch is ever alive;
//   - repeated SampleAppend calls continue the id sequence exactly where
//     the store left off, so incremental sample growth (Algorithm 2 line
//     19) is as deterministic as one big batch;
//   - base_seed is recorded as each batch's provenance, so a lost cold
//     chunk can be re-sampled bit for bit (see RrStore::SetResampler).
//
// Execution: shard tasks run on the ThreadPool the caller hands in
// through ParallelSamplerOptions::pool (RunTiGreedy's per-solve pool, so
// the driver's many samplers reuse one set of threads), or inline on the
// calling thread when there is none. The sampler never creates a pool, so
// no thread is spawned per batch or per sampler. The per-set Rng re-seed
// costs four SplitMix64 draws — noise next to the reverse BFS each set
// runs. Each worker keeps its own RrSampler (epoch array), reused across
// calls.
//
// The sampler takes the (graph, probs) pair's coin column — the
// store's, from SampleSizer::coins(), with arc codes, or node coins only
// that it builds when handed none (see rr_sampler.h: one coin per node
// whose in-arcs share a probability, so the walk skips the per-arc
// probability gather, and on high-in-degree nodes the dead arcs too; one
// code byte per arc of the other nodes) — and every worker sampler
// shares it: workers beyond the first are re-created per multi-worker
// batch, the column is not. coins() hands it to other samplers of the
// same pair, e.g. a cold-chunk re-sampler.

#ifndef ISA_RRSET_PARALLEL_SAMPLER_H_
#define ISA_RRSET_PARALLEL_SAMPLER_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "rrset/rr_collection.h"
#include "rrset/rr_sampler.h"

namespace isa {
class ThreadPool;
}

namespace isa::rrset {

struct ParallelSamplerOptions {
  /// Workers, when `pool` is set: 0 = the pool's concurrency, and any
  /// request is capped by it. Without a pool the sampler runs inline, and
  /// a request above 1 is a checked error (it would silently lose its
  /// parallelism). The sampled sets are identical at any worker count,
  /// only wall-clock changes.
  uint32_t num_threads = 0;
  /// Below this many sets per would-be worker, fewer workers are used
  /// (down to inline execution): parallel dispatch for a handful of sets
  /// costs more than it saves.
  uint64_t min_sets_per_thread = 64;
  /// Pool to run shard tasks on (not owned; must outlive the sampler), or
  /// null to run inline.
  ThreadPool* pool = nullptr;
};

/// Samples RR sets for one (graph, arc-probability) pair across a worker
/// pool, appending to an RrStore in deterministic order. Not thread-safe
/// itself (one ParallelSampler per advertiser, as with RrSampler), though
/// many samplers may share one pool — including reentrantly from
/// tasks already running on that pool (see common/thread_pool.h).
class ParallelSampler {
 public:
  /// `probs` is indexed by forward EdgeId and must outlive the sampler.
  /// `coins` must be BuildCoinColumn(g, probs), with or without arc codes,
  /// or null to build node coins only here. The DiffusionModel parameter
  /// is read by nothing, kept only because perfbench passes it (ROADMAP
  /// item 2).
  ParallelSampler(const graph::Graph& g, std::span<const double> probs,
                  DiffusionModel /*model*/, uint64_t base_seed,
                  ParallelSamplerOptions options = {},
                  std::shared_ptr<const CoinColumn> coins = nullptr);

  /// Samples `count` RR sets with absolute ids [store.num_sets(),
  /// store.num_sets() + count) and appends them to `store` in id order:
  /// the workers' shards go straight into the store's columns
  /// (RrStore::AppendParts), each copied once, in parallel.
  void SampleAppend(RrStore& store, uint64_t count);

  /// SampleAppend in two halves, for a caller that draws a batch while the
  /// store is busy (RunTiGreedy draws a budgeted store's next batch while
  /// its tier evicts the last one). SampleShards samples ids [first_id,
  /// first_id + count) into one shard per worker, the workers taking
  /// contiguous id ranges in shard order, on the pool when more than one;
  /// one "sampler.alloc" failpoint hit per call with count > 0.
  /// AppendShards appends shards drawn at first_id = store.num_sets() to
  /// `store` as one batch.
  std::vector<RrSetColumns> SampleShards(uint64_t first_id, uint64_t count);
  void AppendShards(RrStore& store, std::vector<RrSetColumns> shards);

  /// Samples `count` RR sets with absolute ids [first_id, first_id + count)
  /// into caller buffers (cleared first) without touching any store:
  /// `sizes` holds one cardinality per set, `nodes` the concatenated
  /// members, both in id order — exactly what RrStore::AppendBatch takes.
  /// The same shards as SampleAppend, copied once, in parallel, into the
  /// buffers (ConcatSetColumns; a single shard is moved). For the samples
  /// that never enter a store, and for callers that append the batch
  /// themselves. Content depends only on (base_seed, id), never on worker
  /// count.
  void SampleToBuffer(uint64_t first_id, uint64_t count,
                      std::vector<graph::NodeId>* nodes,
                      std::vector<uint32_t>* sizes);

  /// Workers that would be used for a `count`-set batch (diagnostics).
  uint32_t WorkerCountFor(uint64_t count) const;

  /// The pool shard tasks run on; null when this sampler runs inline
  /// (no pool, or max_threads 1). Exposed so downstream consumers of a
  /// batch (index build, coverage adoption) can share the same threads.
  ThreadPool* pool() const { return pool_; }

  uint64_t base_seed() const { return base_seed_; }
  uint32_t max_threads() const { return max_threads_; }
  /// The shared coin column.
  const std::shared_ptr<const CoinColumn>& coins() const { return coins_; }

 private:
  // Samples ids [first_id, first_id + count) into a new shard using the
  // worker-private sampler `w`. The shard grows in the worker's own frame
  // and is moved into place once full: the kernel pushes every member
  // onto it, and the shards' vector headers share cache lines, so growing
  // them in place would bounce those lines between workers on each push.
  RrSetColumns SampleRange(uint32_t w, uint64_t first_id, uint64_t count);

  const graph::Graph& g_;
  std::span<const double> probs_;
  uint64_t base_seed_;
  uint64_t min_sets_per_thread_;
  uint32_t max_threads_;
  ThreadPool* pool_;
  std::shared_ptr<const CoinColumn> coins_;
  // Worker-private samplers (epoch arrays), created lazily, reused across
  // SampleAppend calls.
  std::vector<std::unique_ptr<RrSampler>> workers_;
};

}  // namespace isa::rrset

#endif  // ISA_RRSET_PARALLEL_SAMPLER_H_
