#include "rrset/spill_file.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <thread>

#include "common/failpoint.h"
#include "common/logging.h"

namespace isa::rrset {

namespace {

// The on-disk footer v5: ChunkMeta's scalar fields at fixed width plus the
// index column's length, written LAST in each chunk's region so
// the file is self-describing (a backward walk from EOF reads the final
// footer, whose file_offset locates its region's start — the previous
// footer ends right there; magic + version pin the layout).
struct DiskFooter {
  uint64_t set_lo;
  uint64_t set_hi;
  uint32_t node_min;
  uint32_t node_max;
  uint64_t file_offset;
  uint64_t postings;
  uint64_t index_postings;  // length of the index_sets column
  uint32_t version;
  uint32_t magic;
};
static_assert(sizeof(DiskFooter) == 56);
constexpr uint32_t kFooterMagic = 0x35415349;  // "ISA5"
constexpr uint32_t kFooterVersion = 5;

[[noreturn]] void ThrowIo(const char* op, const char* path,
                          const char* detail) {
  ISA_LOG("SpillFile: %s(%s) failed: %s", op, path, detail);
  throw SpillIoError(std::string("SpillFile: ") + op + "(" + path +
                     ") failed: " + detail);
}

const char* IoErrorDetail(int err) {
  return err == kFailPointEof ? "unexpected EOF" : std::strerror(err);
}

// ---- bounded retry layer ----
//
// Fault taxonomy: EINTR is retried unboundedly inside the once-functions
// (it is a non-fault); EAGAIN/ENOMEM/EBUSY/ETIMEDOUT are TRANSIENT and
// retried up to kMaxIoAttempts with a deterministic yield backoff;
// everything else — EIO, ENOSPC, EOF-before-length — is PERMANENT and
// fails immediately. No wall clock feeds any retry decision, so a fixed
// failpoint spec produces the same attempt sequence in every run.

constexpr int kMaxIoAttempts = 4;

bool TransientIoError(int err) {
  return err == EAGAIN || err == EWOULDBLOCK || err == ENOMEM ||
         err == EBUSY || err == ETIMEDOUT;
}

void BackoffYield(int attempt) {
  // Donates exponentially more time slices per attempt; the yield count is
  // a pure function of the attempt number, never of elapsed time.
  for (int i = 0; i < (1 << attempt); ++i) std::this_thread::yield();
}

// pwrite/pread the full range once. Returns 0 on success, a positive
// errno, or kFailPointEof for EOF before the requested length; EINTR is
// absorbed internally.
int PwriteOnce(int fd, const void* data, size_t len, uint64_t offset) {
  const char* p = static_cast<const char*>(data);
  while (len > 0) {
    const ssize_t n = ::pwrite(fd, p, len, static_cast<off_t>(offset));
    if (n < 0) {
      if (errno == EINTR) continue;
      return errno;
    }
    p += n;
    len -= static_cast<size_t>(n);
    offset += static_cast<uint64_t>(n);
  }
  return 0;
}

int PreadOnce(int fd, void* data, size_t len, uint64_t offset) {
  char* p = static_cast<char*>(data);
  while (len > 0) {
    const ssize_t n = ::pread(fd, p, len, static_cast<off_t>(offset));
    if (n < 0) {
      if (errno == EINTR) continue;
      return errno;
    }
    if (n == 0) return kFailPointEof;
    p += n;
    len -= static_cast<size_t>(n);
    offset += static_cast<uint64_t>(n);
  }
  return 0;
}

}  // namespace

void SpillFile::WriteAll(const void* data, size_t len, uint64_t offset) {
  for (int attempt = 0;; ++attempt) {
    int err = FailPointHit("spill.write");
    if (err == 0) err = PwriteOnce(fd_, data, len, offset);
    if (err == 0) {
      if (attempt > 0) retry_successes_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    if (!TransientIoError(err) || attempt + 1 >= kMaxIoAttempts) {
      ThrowIo("pwrite", path_.c_str(), IoErrorDetail(err));
    }
    retries_.fetch_add(1, std::memory_order_relaxed);
    BackoffYield(attempt);
  }
}

void SpillFile::ReadAll(void* data, size_t len, uint64_t offset) const {
  for (int attempt = 0;; ++attempt) {
    int err = FailPointHit("spill.read");
    if (err == 0) err = PreadOnce(fd_, data, len, offset);
    if (err == 0) {
      if (attempt > 0) retry_successes_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    if (!TransientIoError(err) || attempt + 1 >= kMaxIoAttempts) {
      ThrowIo("pread", path_.c_str(), IoErrorDetail(err));
    }
    retries_.fetch_add(1, std::memory_order_relaxed);
    BackoffYield(attempt);
  }
}

std::string MakeSpillPath(const std::string& dir) {
  static std::atomic<uint64_t> seq{0};
  std::string base = dir;
  if (base.empty()) {
    std::error_code ec;
    auto tmp = std::filesystem::temp_directory_path(ec);
    base = ec ? "/tmp" : tmp.string();
  }
  return base + "/isa-spill-" + std::to_string(::getpid()) + "-" +
         std::to_string(seq.fetch_add(1)) + ".bin";
}

SpillFile::SpillFile(std::string path) : path_(std::move(path)) {
  // O_EXCL (and no O_TRUNC): the spill path is predictable
  // (pid + sequence), so a file or symlink planted there by another
  // process must never be truncated or followed. If the name is taken,
  // retry with a fresh suffix — the file is private scratch, so any
  // unique name works.
  const std::string requested = path_;
  for (uint32_t attempt = 0; fd_ < 0; ++attempt) {
    fd_ = ::open(path_.c_str(),
                 O_CREAT | O_EXCL | O_RDWR | O_CLOEXEC | O_NOFOLLOW, 0600);
    if (fd_ >= 0) break;
    if (errno != EEXIST || attempt >= 100) {
      ThrowIo("open", path_.c_str(), std::strerror(errno));
    }
    path_ = requested + "." + std::to_string(attempt);
  }
}

SpillFile::~SpillFile() {
  if (fd_ >= 0) ::close(fd_);
  ::unlink(path_.c_str());
}

void SpillFile::AppendChunk(uint64_t set_lo, uint64_t set_hi,
                            std::span<const uint32_t> sizes,
                            std::span<const graph::NodeId> nodes,
                            std::span<const uint32_t> index) {
  ISA_CHECK(set_hi - set_lo == sizes.size());
  // Member and index offsets are uint32 columns.
  ISA_CHECK(nodes.size() < UINT32_MAX);
  // Chunks tile ascending ranges; a lower id means a caller re-spilled a
  // range after a SpillIoError (the file is then inconsistent; fail
  // loudly).
  ISA_CHECK(set_lo >= max_set_hi_);
  max_set_hi_ = set_hi;
  ChunkMeta meta;
  meta.set_lo = set_lo;
  meta.set_hi = set_hi;
  meta.file_offset = bytes_;
  meta.postings = nodes.size();
  meta.node_min = nodes.empty() ? 0 : UINT32_MAX;
  meta.node_max = 0;
  for (graph::NodeId v : nodes) {
    if (v < meta.node_min) meta.node_min = v;
    if (v > meta.node_max) meta.node_max = v;
  }

  std::vector<uint32_t> member_offsets(sizes.size() + 1, 0);
  for (size_t k = 0; k < sizes.size(); ++k) {
    member_offsets[k + 1] = member_offsets[k] + sizes[k];
  }
  ISA_CHECK(member_offsets.back() == nodes.size());

  const uint64_t span = meta.EnvelopeSpan();
  ISA_CHECK(span == 0 ? index.empty()
                      : index.size() > span &&
                            index.size() == span + 1 + index[span]);
  const uint64_t index_postings = span == 0 ? 0 : index[span];

  // Region layout: [member offsets][nodes][index][footer].
  uint64_t cursor = bytes_;
  const auto write = [&](const void* data, uint64_t len) {
    if (len == 0) return;
    WriteAll(data, len, cursor);
    cursor += len;
  };
  write(member_offsets.data(), member_offsets.size() * sizeof(uint32_t));
  write(nodes.data(), nodes.size_bytes());
  write(index.data(), index.size_bytes());
  const DiskFooter footer{meta.set_lo,
                          meta.set_hi,
                          meta.node_min,
                          meta.node_max,
                          meta.file_offset,
                          meta.postings,
                          index_postings,
                          kFooterVersion,
                          kFooterMagic};
  write(&footer, sizeof(footer));
  bytes_ = cursor;
  chunks_.push_back(meta);
}

void SpillFile::ReadChunk(size_t chunk, std::vector<uint32_t>* sizes,
                          std::vector<graph::NodeId>* nodes) const {
  const ChunkMeta& meta = chunks_[chunk];
  // Read the member offsets into `sizes`, then difference them in place.
  sizes->resize(meta.NumSets() + 1);
  nodes->resize(meta.postings);
  ReadAll(sizes->data(), sizes->size() * sizeof(uint32_t), meta.file_offset);
  ReadAll(nodes->data(), nodes->size() * sizeof(graph::NodeId),
          meta.NodesAt());
  for (size_t k = 0; k + 1 < sizes->size(); ++k) {
    (*sizes)[k] = (*sizes)[k + 1] - (*sizes)[k];
  }
  sizes->pop_back();
}

void SpillFile::SetsContaining(size_t chunk, graph::NodeId v,
                               std::vector<uint32_t>* local) const {
  const ChunkMeta& meta = chunks_[chunk];
  local->clear();
  if (meta.postings == 0 || v < meta.node_min || v > meta.node_max) return;
  uint32_t range[2];
  ReadAll(range, sizeof(range),
          meta.IndexOffsetsAt() +
              uint64_t{v - meta.node_min} * sizeof(uint32_t));
  if (range[0] == range[1]) return;
  local->resize(range[1] - range[0]);
  ReadAll(local->data(), local->size() * sizeof(uint32_t),
          meta.IndexSetsAt() + uint64_t{range[0]} * sizeof(uint32_t));
}

void SpillFile::AppendSetMembers(size_t chunk, uint64_t k,
                                 std::vector<graph::NodeId>* members) const {
  const ChunkMeta& meta = chunks_[chunk];
  uint32_t range[2];
  ReadAll(range, sizeof(range), meta.file_offset + k * sizeof(uint32_t));
  const size_t old = members->size();
  members->resize(old + (range[1] - range[0]));
  if (range[1] == range[0]) return;
  ReadAll(members->data() + old, (range[1] - range[0]) * sizeof(graph::NodeId),
          meta.NodesAt() + uint64_t{range[0]} * sizeof(graph::NodeId));
}

}  // namespace isa::rrset
