#include "graph/graph_io.h"

#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <unordered_map>

#ifdef ISA_HAVE_ZLIB
#include <zlib.h>
#endif

#include "common/strings.h"

namespace isa::graph {

namespace {

// Strict unsigned-decimal token parse. istream >> uint64_t would accept
// "-1" by two's-complement wrap and stop quietly at the first non-digit;
// here any sign, non-digit or overflow rejects the whole token.
bool ParseNodeToken(std::string_view token, uint64_t* out) {
  if (token.empty()) return false;
  uint64_t value = 0;
  for (char c : token) {
    if (c < '0' || c > '9') return false;
    const uint64_t digit = static_cast<uint64_t>(c - '0');
    if (value > (UINT64_MAX - digit) / 10) return false;
    value = value * 10 + digit;
  }
  *out = value;
  return true;
}

// One "give me the next line" closure per input kind: returns 1 with the
// line in *out (newline stripped), 0 on clean EOF, -1 on a read error.
using LineSource = std::function<int(std::string* out)>;

// Shared line-level parser behind both the plain and gzip paths.
Result<EdgeListData> ParseEdgeLines(const std::string& path,
                                    const LineSource& next_line,
                                    EdgeListLoadStats* stats) {
  EdgeListData data;
  std::unordered_map<uint64_t, NodeId> remap;
  auto intern = [&](uint64_t raw) {
    auto [it, inserted] =
        remap.try_emplace(raw, static_cast<NodeId>(remap.size()));
    (void)inserted;
    return it->second;
  };

  EdgeListLoadStats local_stats;
  EdgeListLoadStats& st = stats != nullptr ? *stats : local_stats;
  st = EdgeListLoadStats{};
  std::string line;
  size_t lineno = 0;
  auto malformed = [&](const char* why) {
    return Status::InvalidArgument(StrFormat(
        "%s:%zu: %s (expected 'src dst' with non-negative integer ids)",
        path.c_str(), lineno, why));
  };
  int got;
  while ((got = next_line(&line)) > 0) {
    ++lineno;
    ++st.lines;
    std::string_view sv = Trim(line);
    // '#' is the SNAP comment convention, '%' the KONECT one; blank lines
    // count as comments too (headers often end with one).
    if (sv.empty() || sv[0] == '#' || sv[0] == '%') {
      ++st.comment_lines;
      continue;
    }
    std::string_view rest = sv;
    uint64_t ids[2];
    for (int k = 0; k < 2; ++k) {
      const size_t cut = rest.find_first_of(" \t");
      const std::string_view token = rest.substr(0, cut);
      rest = cut == std::string_view::npos
                 ? std::string_view{}
                 : TrimLeft(rest.substr(cut));
      if (token.empty()) return malformed("missing field");
      if (token[0] == '-' || token[0] == '+') {
        return malformed("signed node id");
      }
      if (!ParseNodeToken(token, &ids[k])) {
        return malformed("non-numeric node id");
      }
    }
    if (!rest.empty()) return malformed("trailing data after 'src dst'");
    ++st.edge_lines;
    data.edges.push_back(Edge{intern(ids[0]), intern(ids[1])});
  }
  if (got < 0) return Status::IOError("read failed: " + path);
  data.num_nodes = static_cast<NodeId>(remap.size());
  data.stats = st;
  return data;
}

Result<EdgeListData> ReadEdgeListImpl(const std::string& path,
                                      EdgeListLoadStats* stats) {
  // Sniff the gzip magic instead of trusting the extension: SNAP mirrors
  // serve both "<name>.txt" and "<name>.txt.gz", and a renamed file should
  // still load (or fail with the right message).
  bool gz = false;
  {
    std::ifstream probe(path, std::ios::binary);
    if (!probe) return Status::IOError("cannot open: " + path);
    unsigned char magic[2] = {0, 0};
    probe.read(reinterpret_cast<char*>(magic), 2);
    gz = probe.gcount() == 2 && magic[0] == 0x1f && magic[1] == 0x8b;
  }

  if (!gz) {
    std::ifstream f(path);
    if (!f) return Status::IOError("cannot open: " + path);
    auto next = [&f](std::string* out) -> int {
      if (std::getline(f, *out)) return 1;
      return f.bad() ? -1 : 0;
    };
    return ParseEdgeLines(path, next, stats);
  }

#ifdef ISA_HAVE_ZLIB
  gzFile f = gzopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IOError("cannot open: " + path);
  auto next = [f](std::string* out) -> int {
    out->clear();
    char buf[4096];
    // gzgets returns at most one line per call but may fill the buffer
    // mid-line; keep appending until the newline (or EOF) arrives.
    while (true) {
      if (gzgets(f, buf, sizeof(buf)) == nullptr) {
        int errnum = 0;
        gzerror(f, &errnum);
        if (errnum != Z_OK && errnum != Z_STREAM_END) return -1;
        return out->empty() ? 0 : 1;  // EOF; flush a final unterminated line
      }
      out->append(buf);
      if (!out->empty() && out->back() == '\n') {
        out->pop_back();
        return 1;
      }
    }
  };
  auto result = ParseEdgeLines(path, next, stats);
  gzclose(f);
  if (result.ok()) {
    auto data = std::move(result).value();
    data.gzipped = true;
    return data;
  }
  return result;
#else
  return Status::FailedPrecondition(
      path + " is gzip-compressed but this build has no zlib; gunzip the "
             "file or rebuild with zlib available");
#endif
}

}  // namespace

bool GzipSupported() {
#ifdef ISA_HAVE_ZLIB
  return true;
#else
  return false;
#endif
}

Result<EdgeListData> ReadEdgeListText(const std::string& path) {
  return ReadEdgeListImpl(path, nullptr);
}

Result<Graph> LoadEdgeListText(const std::string& path,
                               EdgeListLoadStats* stats) {
  auto data = ReadEdgeListImpl(path, stats);
  if (!data.ok()) return data.status();
  return Graph::FromEdges(data.value().num_nodes,
                          std::move(data.value().edges));
}

Status SaveEdgeListText(const Graph& g, const std::string& path) {
  std::ofstream f(path);
  if (!f) return Status::IOError("cannot open for write: " + path);
  f << "# isa edge list: " << g.num_nodes() << " nodes, " << g.num_edges()
    << " edges\n";
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v : g.OutNeighbors(u)) f << u << ' ' << v << '\n';
  }
  if (!f) return Status::IOError("write failed: " + path);
  return Status::OK();
}

}  // namespace isa::graph
