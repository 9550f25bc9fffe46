#include "rrset/rr_store.h"

#include <algorithm>
#include <ranges>

#include "common/failpoint.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "rrset/spill_file.h"

namespace isa::rrset {

namespace {

// Below this posting count an extra index-build worker costs more in
// transient per-worker arrays and task hand-off than it saves; one worker
// builds inline (the results are bit-identical at any worker count). Each
// extra worker also zero-fills and merges an O(num_nodes) count array, so
// the effective per-worker floor is max(threshold, num_nodes).
constexpr uint64_t kMinPostingsPerIndexWorker = 1u << 14;

// Where each part lands in the concatenation of `parts`: sets[k] and
// nodes[k] are the earlier parts' summed set and member counts, and
// sets.back() / nodes.back() the totals. A function of the part sizes
// alone, so the concatenation is the same at any worker count.
struct PartOffsets {
  std::vector<uint64_t> sets;
  std::vector<uint64_t> nodes;
};

template <typename Part>
PartOffsets OffsetsOf(std::span<const Part> parts) {
  PartOffsets at{std::vector<uint64_t>(parts.size() + 1, 0),
                 std::vector<uint64_t>(parts.size() + 1, 0)};
  for (size_t k = 0; k < parts.size(); ++k) {
    at.sets[k + 1] = at.sets[k] + parts[k].sizes.size();
    at.nodes[k + 1] = at.nodes[k] + parts[k].nodes.size();
  }
  return at;
}

// Runs fn(k) for every part k: one task per part on `pool`, inline without
// a pool or for a single part.
template <typename Fn>
void ForEachPart(size_t parts, ThreadPool* pool, const Fn& fn) {
  if (pool == nullptr || parts <= 1) {
    for (size_t k = 0; k < parts; ++k) fn(k);
    return;
  }
  pool->Run(parts, fn);
}

}  // namespace

void ConcatSetColumns(std::vector<RrSetColumns> parts, ThreadPool* pool,
                      std::vector<graph::NodeId>* nodes,
                      std::vector<uint32_t>* sizes) {
  if (parts.size() == 1) {
    *nodes = std::move(parts[0].nodes);
    *sizes = std::move(parts[0].sizes);
    return;
  }
  const PartOffsets at = OffsetsOf<RrSetColumns>(parts);
  nodes->clear();
  sizes->clear();
  nodes->resize(at.nodes.back());
  sizes->resize(at.sets.back());
  ForEachPart(parts.size(), pool, [&](uint64_t k) {
    std::ranges::copy(parts[k].nodes, nodes->begin() + at.nodes[k]);
    std::ranges::copy(parts[k].sizes, sizes->begin() + at.sets[k]);
  });
}

RrStore::RrStore(graph::NodeId num_nodes)
    : num_nodes_(num_nodes),
      rr_offsets_{0},
      csr_offsets_(static_cast<size_t>(num_nodes) + 1, 0) {}

RrStore::~RrStore() = default;
RrStore::RrStore(RrStore&&) noexcept = default;
RrStore& RrStore::operator=(RrStore&&) noexcept = default;

void RrStore::AppendParts(std::vector<RrSetColumns> parts, ThreadPool* pool,
                          uint64_t provenance_seed) {
  std::vector<PartView> views;
  views.reserve(parts.size());
  for (const RrSetColumns& part : parts) {
    views.push_back(PartView{part.nodes, part.sizes});
  }
  const uint64_t lo = AppendColumns(views, pool, provenance_seed);
  // Every member is in the store: free the shards before the index build
  // allocates its CSR.
  parts.clear();
  if (lo < num_sets()) RebuildIndex(lo, pool);
}

void RrStore::AppendBatch(std::span<const graph::NodeId> nodes,
                          std::span<const uint32_t> sizes, ThreadPool* pool,
                          uint64_t provenance_seed) {
  const PartView part{nodes, sizes};
  const uint64_t lo = AppendColumns({&part, 1}, pool, provenance_seed);
  if (lo < num_sets()) RebuildIndex(lo, pool);
}

uint64_t RrStore::AppendColumns(std::span<const PartView> parts,
                                ThreadPool* pool, uint64_t provenance_seed) {
  const PartOffsets at = OffsetsOf(parts);
  const uint64_t lo = num_sets();
  if (at.sets.back() == 0) return lo;
  const uint64_t hi = lo + at.sets.back();
  // The index holds set ids as uint32_t.
  ISA_CHECK(hi <= uint64_t{1} << 32);
  if (!provenance_.empty() && provenance_.back().seed == provenance_seed) {
    provenance_.back().hi = hi;  // coalesce consecutive same-seed appends
  } else {
    provenance_.push_back(ProvenanceRange{lo, hi, provenance_seed});
  }
  // One resize per column: the first batch fits exactly, and a later one
  // grows the capacity geometrically (to at least twice the size), so
  // incremental growth batches still amortize.
  const uint64_t node_base = rr_nodes_.size();
  const uint64_t set_base = rr_offsets_.size();
  rr_nodes_.resize(node_base + at.nodes.back());
  rr_offsets_.resize(set_base + at.sets.back());
  total_postings_ += at.nodes.back();
  // Set lo + i ends at rr_offsets_[set_base + i]; the last resident set
  // ends at node_base.
  ForEachPart(parts.size(), pool, [&](uint64_t k) {
    const PartView& part = parts[k];
    uint64_t pos = node_base + at.nodes[k];
    std::ranges::copy(part.nodes, rr_nodes_.begin() + pos);
    uint64_t* end = rr_offsets_.data() + set_base + at.sets[k];
    for (const uint32_t size : part.sizes) {
      pos += size;
      *end++ = pos;
    }
    ISA_CHECK(pos == node_base + at.nodes[k + 1]);  // sizes sum to members
  });
  return lo;
}

void RrStore::RebuildIndex(uint64_t lo, ThreadPool* pool) {
  const uint64_t sets = num_sets();
  const uint64_t first = first_resident_;
  uint32_t workers = 1;
  if (pool != nullptr && sets - lo > 1) {
    workers = pool->WorkersFor(
        rr_nodes_.size(),
        std::max<uint64_t>(kMinPostingsPerIndexWorker, num_nodes_));
    workers = static_cast<uint32_t>(std::min<uint64_t>(workers, sets - lo));
  }
  // Runs fn(w) for every worker w; one worker runs inline.
  const auto for_workers = [&](const auto& fn) {
    if (workers == 1) return fn(uint64_t{0});
    pool->Run(workers, fn);
  };

  // The old CSR's slices stay sorted; only the batch [lo, sets) is
  // counting-sorted in behind them, sharded by contiguous set ranges:
  // per-worker histograms over the nodes, then a serial prefix pass that
  // places each node's batch postings after its old slice as disjoint
  // per-worker write cursors, then the fill, in which worker w also copies
  // the old slices of its node range. Batch ids exceed every old id, the
  // worker ranges ascend and each worker scans its range in order, so
  // every node's postings come out ascending at any worker count.
  const std::vector<uint64_t> bounds = PostingBalancedRanges(lo, sets, workers);
  std::vector<std::vector<uint64_t>> hist(workers);
  for_workers([&](uint64_t w) {
    auto& h = hist[w];
    h.assign(num_nodes_, 0);
    const uint64_t begin = rr_offsets_[bounds[w] - first];
    const uint64_t end = rr_offsets_[bounds[w + 1] - first];
    for (uint64_t k = begin; k < end; ++k) ++h[rr_nodes_[k]];
  });
  std::vector<uint64_t> offsets(static_cast<size_t>(num_nodes_) + 1, 0);
  for (graph::NodeId v = 0; v < num_nodes_; ++v) {
    uint64_t base = offsets[v] + (csr_offsets_[v + 1] - csr_offsets_[v]);
    for (uint32_t w = 0; w < workers; ++w) {
      const uint64_t c = hist[w][v];
      hist[w][v] = base;  // becomes worker w's write cursor for v
      base += c;
    }
    offsets[v + 1] = base;
  }
  std::vector<uint32_t> flat(rr_nodes_.size());
  for_workers([&](uint64_t w) {
    const auto v_lo = static_cast<graph::NodeId>(num_nodes_ * w / workers);
    const auto v_hi =
        static_cast<graph::NodeId>(num_nodes_ * (w + 1) / workers);
    for (graph::NodeId v = v_lo; v < v_hi; ++v) {
      std::copy(csr_sets_.begin() + csr_offsets_[v],
                csr_sets_.begin() + csr_offsets_[v + 1],
                flat.begin() + offsets[v]);
    }
    auto& cursor = hist[w];
    for (uint64_t r = bounds[w]; r < bounds[w + 1]; ++r) {
      for (graph::NodeId v : SetMembers(r)) {
        flat[cursor[v]++] = static_cast<uint32_t>(r);
      }
    }
  });
  csr_offsets_ = std::move(offsets);
  csr_sets_ = std::move(flat);
}

std::vector<uint64_t> RrStore::PostingBalancedRanges(uint64_t lo, uint64_t hi,
                                                     uint32_t workers) const {
  // rr_offsets_ is the cumulative posting count over resident sets, so a
  // binary search places each boundary at the set whose cumulative
  // postings cross the target. All ids here are hot, translated to
  // resident indices for the search and back for the returned bounds.
  const uint64_t first = first_resident_;
  std::vector<uint64_t> bounds(workers + 1, hi);
  bounds[0] = lo;
  const uint64_t base = rr_offsets_[lo - first];
  const uint64_t total = rr_offsets_[hi - first] - base;
  for (uint32_t w = 1; w < workers; ++w) {
    const uint64_t target = base + total / workers * w;
    bounds[w] = first + static_cast<uint64_t>(
        std::upper_bound(rr_offsets_.begin() + (lo - first),
                         rr_offsets_.begin() + (hi - first), target) -
        rr_offsets_.begin() - 1);
    bounds[w] = std::clamp(bounds[w], bounds[w - 1], hi);
  }
  return bounds;
}

std::vector<uint32_t> RrStore::SetsContaining(graph::NodeId v) const {
  std::vector<uint32_t> out;
  ForEachSetContaining(v, [&](uint32_t r) {
    out.push_back(r);
    return true;
  });
  return out;
}

double RrStore::MeanSetSize() const {
  if (num_sets() == 0) return 0.0;
  return static_cast<double>(total_postings_) /
         static_cast<double>(num_sets());
}

// -------------------------------------------------------------- spill tier

void RrStore::SpillPrefix(uint64_t new_first, const SpillOptions& options,
                          ThreadPool* pool) {
  ISA_CHECK(new_first <= num_sets());
  if (new_first <= first_resident_) return;
  if (spill_ == nullptr) {
    spill_ = std::make_unique<SpillFile>(
        options.path.empty() ? MakeSpillPath() : options.path);
  }
  const uint32_t workers =
      pool == nullptr ? 1
                      : pool->WorkersFor(csr_sets_.size() + num_nodes_,
                                         kMinPostingsPerIndexWorker);
  // Runs fn(v_lo, v_hi) over one node range per worker; workers write
  // disjoint slots.
  const auto for_node_ranges = [&](const auto& fn) {
    if (workers == 1) return fn(graph::NodeId{0}, num_nodes_);
    pool->Run(workers, [&](uint64_t w) {
      fn(static_cast<graph::NodeId>(num_nodes_ * w / workers),
         static_cast<graph::NodeId>(num_nodes_ * (w + 1) / workers));
    });
  };
  // Node v's postings in the chunk being built start at cursor[v]: chunks
  // ascend in id, so each chunk's are the next run of v's ascending CSR
  // slice, and the evicted ids end up a prefix of it.
  std::vector<uint64_t> cursor(csr_offsets_.begin(), csr_offsets_.end() - 1);
  {
    std::vector<uint32_t> counts(num_nodes_);
    std::vector<uint32_t> sizes;
    std::vector<uint32_t> index;
    // Calls emit(k) for v's postings k below `hi`, skipping a repeat (a
    // set that lists v twice is indexed once); returns where they end.
    const auto scan = [&](graph::NodeId v, uint64_t hi, const auto& emit) {
      uint64_t k = cursor[v];
      for (; k < csr_offsets_[v + 1] && csr_sets_[k] < hi; ++k) {
        if (k == cursor[v] || csr_sets_[k] != csr_sets_[k - 1]) emit(k);
      }
      return k;
    };
    for (uint64_t lo = first_resident_; lo < new_first;) {
      // The first set boundary where the chunk's bytes (4 per member and
      // per set) reach the target; an iota's end reads as its bound.
      const uint64_t hi = *std::ranges::partition_point(
          std::views::iota(lo + 1, new_first), [&](uint64_t h) {
            return PostingsInRange(lo, h) * sizeof(graph::NodeId) +
                       (h - lo) * sizeof(uint32_t) <
                   options.chunk_target_bytes;
          });
      sizes.clear();
      for (uint64_t r = lo; r < hi; ++r) {
        sizes.push_back(static_cast<uint32_t>(PostingsInRange(r, r + 1)));
      }
      for_node_ranges([&](graph::NodeId a, graph::NodeId b) {
        for (graph::NodeId v = a; v < b; ++v) {
          counts[v] = 0;
          scan(v, hi, [&](uint64_t) { ++counts[v]; });
        }
      });
      index.clear();
      if (PostingsInRange(lo, hi) > 0) {
        graph::NodeId node_min = 0;
        graph::NodeId node_max = num_nodes_ - 1;
        while (counts[node_min] == 0) ++node_min;
        while (counts[node_max] == 0) --node_max;
        const uint64_t span = uint64_t{node_max} - node_min + 1;
        index.resize(span + 1);
        for (uint64_t s = 0; s < span; ++s) {
          index[s + 1] = index[s] + counts[node_min + s];
        }
        index.resize(span + 1 + index[span]);
        for_node_ranges([&](graph::NodeId a, graph::NodeId b) {
          for (graph::NodeId v = a; v < b; ++v) {
            if (counts[v] == 0) continue;
            uint32_t* out = index.data() + span + 1 + index[v - node_min];
            cursor[v] = scan(v, hi, [&](uint64_t k) {
              *out++ = static_cast<uint32_t>(csr_sets_[k] - lo);
            });
          }
        });
      }
      const uint64_t node_lo = rr_offsets_[lo - first_resident_];
      spill_->AppendChunk(lo, hi, sizes,
                          std::span<const graph::NodeId>(
                              rr_nodes_.data() + node_lo,
                              rr_offsets_[hi - first_resident_] - node_lo),
                          index);
      lo = hi;
    }
  }
  // Every chunk is on disk. The nodes' suffixes past their evicted ids are
  // the exact-fit CSR of the hot remainder; trimming to them before the
  // column copy below keeps the transient peak down.
  std::vector<uint64_t> offsets(static_cast<size_t>(num_nodes_) + 1, 0);
  for (graph::NodeId v = 0; v < num_nodes_; ++v) {
    offsets[v + 1] = offsets[v] + (csr_offsets_[v + 1] - cursor[v]);
  }
  std::vector<uint32_t> flat(offsets[num_nodes_]);
  for_node_ranges([&](graph::NodeId a, graph::NodeId b) {
    for (graph::NodeId v = a; v < b; ++v) {
      std::copy(csr_sets_.begin() + cursor[v],
                csr_sets_.begin() + csr_offsets_[v + 1],
                flat.begin() + offsets[v]);
    }
  });
  csr_offsets_ = std::move(offsets);
  csr_sets_ = std::move(flat);

  // Exact-fit rebuild of both resident columns: an erase would keep the
  // old capacity alive and the freed bytes would never leave MemoryBytes,
  // defeating the budget the spill exists to honor. This transiently
  // holds old + retained copies of the nodes column (the unavoidable cost
  // of an exact-fit shrink), which the tier's resident meter, sampled
  // after the spill, does not see; between the batches of a streamed
  // first sample the whole store is evicted, so there it is empty.
  const uint64_t drop = new_first - first_resident_;
  const uint64_t dropped_postings = rr_offsets_[drop];
  std::vector<graph::NodeId> nodes(rr_nodes_.begin() + dropped_postings,
                                   rr_nodes_.end());
  std::vector<uint64_t> kept(rr_offsets_.begin() + drop, rr_offsets_.end());
  for (uint64_t& offset : kept) offset -= dropped_postings;
  rr_nodes_.swap(nodes);
  rr_offsets_.swap(kept);
  first_resident_ = new_first;
}

const RrSetColumns& RrStore::RecoverChunk(uint32_t chunk) const {
  const auto it = recovered_.find(chunk);
  if (it != recovered_.end()) return it->second;
  const SpillFile::ChunkMeta& m = spill_->chunks()[chunk];
  // "spill.resample" models a fault DURING recovery (heap exhaustion in
  // the re-sampler, say) — the genuinely unrecoverable double-fault path.
  if (FailPointHit("spill.resample") != 0) {
    throw SpillIoError("RrStore: injected fault during chunk re-sample");
  }
  if (resampler_ == nullptr) {
    throw SpillIoError(
        "RrStore: unreadable spill chunk and no re-sampler installed");
  }
  RrSetColumns rec;
  rec.sizes.reserve(m.NumSets());
  rec.nodes.reserve(m.postings);
  std::vector<uint32_t> part_sizes;
  std::vector<graph::NodeId> part_nodes;
  // The provenance ranges tile [0, num_sets()) in ascending order.
  uint64_t pos = m.set_lo;
  for (const ProvenanceRange& p : provenance_) {
    if (pos == m.set_hi) break;
    if (p.hi <= pos) continue;
    const uint64_t hi = std::min(p.hi, m.set_hi);
    resampler_(p.seed, pos, hi, &part_sizes, &part_nodes);
    rec.sizes.insert(rec.sizes.end(), part_sizes.begin(), part_sizes.end());
    rec.nodes.insert(rec.nodes.end(), part_nodes.begin(), part_nodes.end());
    pos = hi;
  }
  // Cross-check the regenerated columns against the chunk footer — a
  // mismatch means the re-sampler does not reproduce the original bits,
  // and serving it would silently corrupt the result.
  graph::NodeId node_min = rec.nodes.empty() ? 0 : UINT32_MAX;
  graph::NodeId node_max = 0;
  for (graph::NodeId v : rec.nodes) {
    node_min = std::min(node_min, v);
    node_max = std::max(node_max, v);
  }
  if (rec.sizes.size() != m.NumSets() || rec.nodes.size() != m.postings ||
      node_min != m.node_min || node_max != m.node_max) {
    throw SpillIoError(
        "RrStore: re-sampled chunk disagrees with its footer (provenance "
        "seed or re-sampler mismatch)");
  }
  recovered_bytes_ += rec.sizes.capacity() * sizeof(uint32_t) +
                      rec.nodes.capacity() * sizeof(graph::NodeId);
  ++degradation_events_;
  recovered_sets_ += m.NumSets();
  ISA_LOG("RrStore: recovered spill chunk %u (sets [%llu, %llu)) by "
          "re-sampling",
          chunk, static_cast<unsigned long long>(m.set_lo),
          static_cast<unsigned long long>(m.set_hi));
  return recovered_.emplace(chunk, std::move(rec)).first->second;
}

void RrStore::ForEachSpilledSetContaining(
    graph::NodeId v, uint64_t max_id, std::span<const uint8_t> alive,
    const std::function<void(uint64_t, std::span<const graph::NodeId>)>& fn)
    const {
  if (spill_ == nullptr) return;
  const std::span<const SpillFile::ChunkMeta> chunks = spill_->chunks();
  const auto wanted = [&](uint64_t id) {
    return alive.empty() || alive[id] != 0;
  };
  // One chunk's hits: ids[h]'s members are members[ends[h - 1], ends[h]).
  std::vector<uint32_t> local;
  std::vector<uint64_t> ids;
  std::vector<size_t> ends;
  std::vector<graph::NodeId> members;
  const auto clear_hits = [&] {
    ids.clear();
    ends.clear();
    members.clear();
  };
  // Member scan over a recovered chunk's cached columns — the rare path.
  const auto scan_recovered = [&](const SpillFile::ChunkMeta& m,
                                  const RrSetColumns& rec) {
    uint64_t off = 0;
    for (uint64_t s = 0; s < rec.sizes.size(); ++s) {
      const uint64_t id = m.set_lo + s;
      if (id >= max_id) break;
      const std::span<const graph::NodeId> set(rec.nodes.data() + off,
                                               rec.sizes[s]);
      off += rec.sizes[s];
      if (!wanted(id) || std::find(set.begin(), set.end(), v) == set.end()) {
        continue;
      }
      ids.push_back(id);
      members.insert(members.end(), set.begin(), set.end());
      ends.push_back(members.size());
    }
  };
  uint64_t considered = 0;
  uint64_t read = 0;
  for (uint32_t c = 0; c < chunks.size(); ++c) {
    const SpillFile::ChunkMeta& m = chunks[c];
    // Chunks ascend in id: none from here on overlaps [0, max_id).
    if (m.set_lo >= max_id) break;
    ++considered;
    if (m.postings == 0 || v < m.node_min || v > m.node_max) continue;
    clear_hits();
    const auto cached = recovered_.find(c);
    if (cached != recovered_.end()) {
      scan_recovered(m, cached->second);
    } else {
      try {
        spill_->SetsContaining(c, v, &local);
        for (const uint32_t k : local) {
          const uint64_t id = m.set_lo + k;
          if (id >= max_id) break;
          if (!wanted(id)) continue;
          spill_->AppendSetMembers(c, k, &members);
          ids.push_back(id);
          ends.push_back(members.size());
        }
      } catch (const SpillIoError&) {
        // The bounded retries gave up on this chunk. Nothing of it has
        // reached fn yet: drop the partial hits and rebuild the chunk by
        // re-sampling.
        clear_hits();
        scan_recovered(m, RecoverChunk(c));
      }
    }
    if (ids.empty()) continue;
    ++read;
    size_t begin = 0;
    for (size_t h = 0; h < ids.size(); ++h) {
      fn(ids[h], std::span<const graph::NodeId>(members.data() + begin,
                                                ends[h] - begin));
      begin = ends[h];
    }
  }
  if (considered == 0) return;
  ++scan_reloads_;
  chunks_read_ += read;
  chunks_skipped_ += considered - read;
}

uint64_t RrStore::SpilledBytes() const {
  return spill_ == nullptr ? 0 : spill_->bytes_on_disk();
}

uint64_t RrStore::spill_retries() const {
  return spill_ == nullptr ? 0 : spill_->retries();
}

uint64_t RrStore::spill_retry_successes() const {
  return spill_ == nullptr ? 0 : spill_->retry_successes();
}

uint64_t RrStore::SpillChunks() const {
  return spill_ == nullptr ? 0 : spill_->num_chunks();
}

// -------------------------------------------------------------- accounting

uint64_t RrStore::MemoryBytes() const {
  return rr_offsets_.capacity() * sizeof(uint64_t) +
         rr_nodes_.capacity() * sizeof(graph::NodeId) + IndexBytes() +
         (spill_ == nullptr ? 0 : spill_->MetadataBytes()) + recovered_bytes_;
}

uint64_t RrStore::IndexBytes() const {
  return csr_offsets_.capacity() * sizeof(uint64_t) +
         csr_sets_.capacity() * sizeof(uint32_t);
}

}  // namespace isa::rrset
