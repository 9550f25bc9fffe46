// Append-only columnar chunk file — the cold tier of the out-of-core RR
// store (see rr_store.h for the two-tier picture).
//
// A chunk holds a contiguous RR set id range [set_lo, set_hi) as a member
// column plus a chunk-local inverted index over it; chunks tile ascending
// id ranges in file order. On-disk chunk region (v5):
//
//   [uint32 member_offsets[num_sets + 1]]  prefix sums of the set sizes:
//                                          set k's members are
//                                          nodes[member_offsets[k],
//                                                member_offsets[k + 1])
//   [uint32 nodes[postings]]               concatenated members, id order
//   [uint32 index_offsets[span + 1]]       postings CSR over the node-id
//                                          envelope (span = node_max -
//                                          node_min + 1): node v's entries
//                                          are index_sets[index_offsets[
//                                          v - node_min], ...[v - node_min
//                                          + 1])
//   [uint32 index_sets[index_postings]]    chunk-local set indices k,
//                                          ascending per node, one per
//                                          distinct (node, set) pair
//   [footer v5]                            id range, node-id min/max,
//                                          region offset, posting counts,
//                                          version + magic
//
// (The two index columns are absent from a chunk with no members.)
// Regions are packed back to back; the footer ends each region, so the
// file stays self-describing by a backward footer walk from EOF (each
// footer names its region's file_offset; the previous footer ends where
// that region starts). Footers are mirrored in memory — nothing per set or
// per posting — and every column's file offset follows from the mirrored
// counts, so a lookup needs no resident index.
//
// A lookup for node v touches only what it needs: outside the envelope no
// I/O at all; otherwise one read of v's two index offsets (equal offsets
// = v is certainly absent — an exact skip), one read of v's set-index
// slice, then per wanted set one read of its two member offsets and one of
// its members. Members of sets that do not contain v are never read.
//
// All reads are buffered positional preads through the bounded retry
// layer, so concurrent reads need no locking. The file is created O_EXCL
// at a process-unique name (a pre-existing file or symlink at the
// requested path is never truncated or followed — the constructor retries
// with a fresh suffix instead) and removed by the destructor; it is a
// cache of evicted state, never a persistence format.

#ifndef ISA_RRSET_SPILL_FILE_H_
#define ISA_RRSET_SPILL_FILE_H_

#include <atomic>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/graph.h"

namespace isa::rrset {

/// Thrown when the spill file cannot be created, written or read after the
/// bounded retry layer gives up (ENOSPC while evicting, EIO on a chunk
/// read). The tiers above degrade instead of dying where they can —
/// TieredRrStore disables eviction on a write failure, RrStore re-samples
/// a lost chunk on a read failure — and only a genuinely unrecoverable
/// fault propagates to the TI driver, which converts it to
/// Status::ResourceExhausted, exactly like a pool-task std::bad_alloc.
class SpillIoError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// How RrStore::SpillPrefix carves evicted sets into chunks and where the
/// chunk file lives.
struct SpillOptions {
  /// Chunk file path. Empty = a fresh unique file under the system temp
  /// directory (see MakeSpillPath). The actual file may get a retry
  /// suffix when the exclusive create loses a race — see SpillFile::path.
  std::string path;
  /// Target member bytes per chunk. Chunks close at the first set
  /// boundary past the target, so one oversized RR set still lands in a
  /// single (oversized) chunk. Every chunk carries an index column the
  /// size of its node-id envelope, so tiny targets pay that per chunk.
  uint64_t chunk_target_bytes = 4ull << 20;
};

/// A process-unique spill file path: `<dir>/isa-spill-<pid>-<seq>.bin`,
/// with `dir` defaulting to std::filesystem::temp_directory_path().
std::string MakeSpillPath(const std::string& dir = {});

/// Append-only columnar chunk file (see file comment). Appends are
/// single-writer; reads are thread-safe (positional I/O) and may run
/// concurrently with each other but not with an append.
class SpillFile {
 public:
  /// One chunk's in-memory footer.
  struct ChunkMeta {
    /// The chunk's sets are exactly [set_lo, set_hi); chunk-local index k
    /// is set set_lo + k. Chunks tile ascending ranges in file order.
    uint64_t set_lo = 0;
    uint64_t set_hi = 0;
    /// Envelope of the member node ids in this chunk — lookups for a node
    /// v outside [node_min, node_max] skip the chunk without reading it.
    graph::NodeId node_min = 0;
    graph::NodeId node_max = 0;
    /// Byte offset of the region (its member-offset column) in the file.
    uint64_t file_offset = 0;
    /// Total members over the chunk's sets (the nodes column length).
    uint64_t postings = 0;

    uint64_t NumSets() const { return set_hi - set_lo; }
    /// Node ids the index columns span (0 for a chunk without members).
    uint64_t EnvelopeSpan() const {
      return postings == 0 ? 0 : uint64_t{node_max} - node_min + 1;
    }
    /// File offsets of the columns (see the file comment's layout).
    uint64_t NodesAt() const {
      return file_offset + (NumSets() + 1) * sizeof(uint32_t);
    }
    uint64_t IndexOffsetsAt() const {
      return NodesAt() + postings * sizeof(graph::NodeId);
    }
    uint64_t IndexSetsAt() const {
      return IndexOffsetsAt() + (EnvelopeSpan() + 1) * sizeof(uint32_t);
    }
  };

  /// Creates the file at `path` with O_EXCL, retrying with a numeric
  /// suffix while the name is taken (path() reports the winner). Throws
  /// SpillIoError on creation failure — the spill tier is backing storage;
  /// running on without it would silently break the memory budget.
  explicit SpillFile(std::string path);
  ~SpillFile();
  SpillFile(const SpillFile&) = delete;
  SpillFile& operator=(const SpillFile&) = delete;

  /// Appends sets [set_lo, set_hi): `sizes[k]` members of set set_lo + k
  /// taken in order from the concatenated `nodes`, and `index`, the
  /// caller's index_offsets + index_sets columns over the envelope of
  /// `nodes` (see the file comment). Builds the member-offset column and
  /// writes the region. set_lo must be at or past every previously
  /// appended id — a lower id means a caller re-spilled a range after a
  /// SpillIoError (the file is then inconsistent; fail loudly). Throws
  /// SpillIoError on I/O failure (the chunk is then not recorded).
  void AppendChunk(uint64_t set_lo, uint64_t set_hi,
                   std::span<const uint32_t> sizes,
                   std::span<const graph::NodeId> nodes,
                   std::span<const uint32_t> index);

  /// Reads chunk `chunk`'s sets back into `sizes`/`nodes` (resized to
  /// fit) — the exact columns AppendChunk was given. Thread-safe against
  /// other reads. Throws SpillIoError on I/O failure.
  void ReadChunk(size_t chunk, std::vector<uint32_t>* sizes,
                 std::vector<graph::NodeId>* nodes) const;

  /// Sets `local` to the chunk-local indices (ascending) of the sets in
  /// chunk `chunk` that contain `v` — exact, no false positives. No I/O
  /// when v lies outside the chunk's envelope; otherwise one read of v's
  /// index offsets plus, when v is present, one read of its slice.
  /// Throws SpillIoError on I/O failure.
  void SetsContaining(size_t chunk, graph::NodeId v,
                      std::vector<uint32_t>* local) const;

  /// Appends the members of chunk-local set `k` of chunk `chunk` to
  /// `members`: one read of its two member offsets, one of the members.
  /// Throws SpillIoError on I/O failure (`members` is then unspecified).
  void AppendSetMembers(size_t chunk, uint64_t k,
                        std::vector<graph::NodeId>* members) const;

  std::span<const ChunkMeta> chunks() const { return chunks_; }
  size_t num_chunks() const { return chunks_.size(); }

  /// Bytes written to disk (members, index columns, footers) —
  /// the non-resident tier's size for Table 3 accounting.
  uint64_t bytes_on_disk() const { return bytes_; }

  /// Resident bytes this object itself holds (the footer mirror) —
  /// charged into RrStore::MemoryBytes so the accounting stays honest.
  uint64_t MetadataBytes() const {
    return chunks_.capacity() * sizeof(ChunkMeta);
  }

  const std::string& path() const { return path_; }

  /// Transient-fault retries issued by the bounded retry layer (reads and
  /// writes combined) and how many of them ultimately succeeded. A
  /// permanent fault (EIO, ENOSPC, EOF) never retries; a transient one
  /// (EAGAIN, ENOMEM, EBUSY, ...) retries up to a fixed attempt cap with
  /// a deterministic yield backoff — no wall clock feeds the decision.
  uint64_t retries() const {
    return retries_.load(std::memory_order_relaxed);
  }
  uint64_t retry_successes() const {
    return retry_successes_.load(std::memory_order_relaxed);
  }

 private:
  // pwrite/pread the full range with failpoint hooks ("spill.write" /
  // "spill.read") and bounded transient retries; throws SpillIoError when
  // the retry budget runs out or the fault is permanent.
  void WriteAll(const void* data, size_t len, uint64_t offset);
  void ReadAll(void* data, size_t len, uint64_t offset) const;

  std::string path_;
  int fd_ = -1;
  uint64_t bytes_ = 0;
  uint64_t max_set_hi_ = 0;  // highest id bound appended so far
  std::vector<ChunkMeta> chunks_;
  mutable std::atomic<uint64_t> retries_{0};
  mutable std::atomic<uint64_t> retry_successes_{0};
};

}  // namespace isa::rrset

#endif  // ISA_RRSET_SPILL_FILE_H_
