// Edge-list I/O: whitespace-separated text (SNAP style, '#' comments).

#ifndef ISA_GRAPH_GRAPH_IO_H_
#define ISA_GRAPH_GRAPH_IO_H_

#include <string>

#include "common/status.h"
#include "graph/graph.h"

namespace isa::graph {

/// Text-loader diagnostics (see LoadEdgeListText).
struct EdgeListLoadStats {
  size_t lines = 0;          // lines read, including comments/blank
  size_t comment_lines = 0;  // '#'/'%' lines (and blank lines) skipped
  size_t edge_lines = 0;     // lines that contributed an edge
};

/// Raw parsed edge list, before CSR construction: the node count after
/// first-appearance id compaction plus the (possibly duplicate) edges in
/// file order. The dataset catalog consumes this form so it can double
/// undirected SNAP lists ("each edge appears once") before building the
/// directed CSR.
struct EdgeListData {
  NodeId num_nodes = 0;
  std::vector<Edge> edges;
  EdgeListLoadStats stats;
  bool gzipped = false;  // input was a gzip stream (detected by magic)
};

/// Loads a SNAP-style text edge list: one "src dst" pair per line.
/// Tolerated without error: '#' and '%' comment lines (KONECT files use
/// '%'), blank lines, leading/trailing whitespace, and duplicate edges
/// (collapsed by Graph::FromEdges and counted in dropped_duplicates()).
/// Rejected with a Status naming the file and 1-based line number:
/// non-numeric tokens, negative ids, missing fields, and trailing garbage
/// after the two ids ("1 2 3" is a malformed line, not an edge plus
/// noise — silently dropping a third field hides weighted-graph inputs).
/// Node ids need not be contiguous; they are compacted to [0, n)
/// preserving first-appearance order. `stats`, when non-null, receives
/// line-level counts even on failure (up to the offending line).
///
/// Gzip inputs (SNAP distributes .txt.gz) are detected by the 1f 8b
/// magic bytes — not the file name — and inflated transparently when the
/// library was built with zlib; without zlib a gzip file is a clear
/// FailedPrecondition instead of a parse error on binary garbage.
Result<Graph> LoadEdgeListText(const std::string& path,
                               EdgeListLoadStats* stats = nullptr);

/// Like LoadEdgeListText but stops before CSR construction and returns the
/// raw compacted edges (same tolerance/rejection rules, same gzip
/// handling).
Result<EdgeListData> ReadEdgeListText(const std::string& path);

/// Whether gzip edge lists can be inflated (built with zlib).
bool GzipSupported();

/// Writes "src dst" per line with a header comment.
Status SaveEdgeListText(const Graph& g, const std::string& path);

}  // namespace isa::graph

#endif  // ISA_GRAPH_GRAPH_IO_H_
