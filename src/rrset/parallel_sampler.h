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
// Execution: shard tasks run on a ThreadPool — either one *borrowed*
// through ParallelSamplerOptions::pool (the shared per-RunTiGreedy pool,
// so the driver's many samplers reuse one set of threads) or, for
// standalone use, a pool the sampler lazily creates and owns. Either way
// no thread is spawned per batch; num_threads = 1 runs inline on the
// calling thread. The per-set Rng re-seed costs four SplitMix64 draws —
// noise next to the reverse BFS each set runs. Each worker keeps its own
// RrSampler (epoch array), reused across calls.
//
// Under IC the sampler takes the (graph, probs) pair's coin column — the
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
  /// Worker threads. 0 = std::thread::hardware_concurrency() (or, when
  /// `pool` is set, the pool's concurrency); 1 = run inline on the calling
  /// thread — the sampled sets are identical either way, only wall-clock
  /// changes.
  uint32_t num_threads = 0;
  /// Below this many sets per would-be worker, fewer workers are used
  /// (down to inline execution): parallel dispatch for a handful of sets
  /// costs more than it saves.
  uint64_t min_sets_per_thread = 64;
  /// Borrowed pool to run shard tasks on (not owned; must outlive the
  /// sampler). When null, the sampler lazily creates a private pool the
  /// first time a batch is worth parallelizing.
  ThreadPool* pool = nullptr;
};

/// Samples RR sets for one (graph, arc-probability) pair across a worker
/// pool, appending to an RrStore in deterministic order. Not thread-safe
/// itself (one ParallelSampler per advertiser, as with RrSampler), though
/// many samplers may share one borrowed pool — including reentrantly from
/// tasks already running on that pool (see common/thread_pool.h).
class ParallelSampler {
 public:
  /// `probs` is indexed by forward EdgeId and must outlive the sampler.
  /// Under IC `coins` must be BuildCoinColumn(g, probs), with or without
  /// arc codes, or null to build node coins only here; LT ignores it.
  ParallelSampler(const graph::Graph& g, std::span<const double> probs,
                  DiffusionModel model, uint64_t base_seed,
                  ParallelSamplerOptions options = {},
                  std::shared_ptr<const CoinColumn> coins = nullptr);
  // Out of line: the owned pool's deleter needs the complete ThreadPool.
  ~ParallelSampler();
  ParallelSampler(ParallelSampler&&) noexcept;

  /// Samples `count` RR sets with absolute ids [store.num_sets(),
  /// store.num_sets() + count) and appends them to `store` in id order:
  /// the workers' shards go straight into the store's columns
  /// (RrStore::AppendParts), each copied once, in parallel.
  void SampleAppend(RrStore& store, uint64_t count);

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

  /// The pool shard tasks run on: the borrowed one, or the lazily created
  /// private one. Null when this sampler is single-threaded (max_threads
  /// 1) and will never parallelize. Exposed so downstream consumers of a
  /// batch (index build, coverage adoption) can share the same threads.
  ThreadPool* pool();

  uint64_t base_seed() const { return base_seed_; }
  uint32_t max_threads() const { return max_threads_; }
  /// The shared coin column (null under LT).
  const std::shared_ptr<const CoinColumn>& coins() const { return coins_; }

 private:
  // Samples ids [first_id, first_id + count) (count > 0) into one shard per
  // worker, the workers taking contiguous id ranges in shard order, on the
  // pool when more than one. One "sampler.alloc" failpoint hit per call.
  std::vector<RrSetColumns> SampleShards(uint64_t first_id, uint64_t count);

  // Samples ids [first_id, first_id + count) into a new shard using the
  // worker-private sampler `w`. The shard grows in the worker's own frame
  // and is moved into place once full: the kernel pushes every member
  // onto it, and the shards' vector headers share cache lines, so growing
  // them in place would bounce those lines between workers on each push.
  RrSetColumns SampleRange(uint32_t w, uint64_t first_id, uint64_t count);

  const graph::Graph& g_;
  std::span<const double> probs_;
  DiffusionModel model_;
  uint64_t base_seed_;
  uint64_t min_sets_per_thread_;
  uint32_t max_threads_;
  ThreadPool* borrowed_pool_;
  std::unique_ptr<ThreadPool> owned_pool_;
  std::shared_ptr<const CoinColumn> coins_;
  // Worker-private samplers (epoch arrays), created lazily, reused across
  // SampleAppend calls.
  std::vector<std::unique_ptr<RrSampler>> workers_;
};

}  // namespace isa::rrset

#endif  // ISA_RRSET_PARALLEL_SAMPLER_H_
