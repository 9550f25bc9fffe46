// Named real-dataset resolution for the paper's evaluation graphs.
//
// The paper evaluates on SNAP graphs (com-DBLP, LiveJournal, Epinions) and
// on FLIXSTER.
// `DatasetCatalog` resolves a dataset NAME to a graph plus per-arc
// influence weights, in two steps:
//
//   1. a SNAP edge-list file under the data directory ($ISA_DATA_DIR or
//      Options::data_dir) — plain or gzip (detected by magic, see
//      graph_io.h); undirected lists are doubled into both arc
//      directions, as the paper does for DBLP;
//   2. the deterministic synthetic fallback generator — every catalog
//      entry carries a generator spec with matched directedness and
//      heavy-tailed degrees, so CI and offline hosts never need the
//      network and two hosts at the same (scale, seed) get bit-identical
//      graphs.
//
// Weighting regimes are first-class fields of the spec: every dataset can
// be materialized under weighted-cascade (p = 1/indeg, the paper's
// EPINIONS/DBLP/LIVEJOURNAL setting), uniform-IC (constant p), or
// topic-mix (L degree-scaled random topic layers, the FLIXSTER-style TIC
// marketplace) weights. MakeRegimeWeights is the repository's one weight
// builder; it returns raw per-topic arrays indexed by forward EdgeId. This
// layer sits below src/topic, so callers wrap them in
// topic::TopicEdgeProbabilities::Create themselves.

#ifndef ISA_GRAPH_DATASET_CATALOG_H_
#define ISA_GRAPH_DATASET_CATALOG_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "graph/graph.h"
#include "graph/graph_io.h"

namespace isa::graph {

/// How per-arc influence probabilities are assigned to a dataset.
enum class WeightingRegime {
  kWeightedCascade,  // p_{u,v} = 1 / indeg(v), single topic
  kUniformIc,        // p_{u,v} = spec.uniform_p, single topic
  kTopicMix,         // L topics, per-(arc, topic) U(0,1) / indeg(v)
};

const char* WeightingRegimeName(WeightingRegime regime);
/// One catalog entry: where the real file lives, how to stand it in
/// synthetically, and how to weight its arcs.
struct DatasetSpec {
  /// Synthetic fallback generator family. Sizes below are the scale-1.0
  /// targets; Options::scale shrinks them (R-MAT by whole powers of two).
  enum class Fallback { kBarabasiAlbert, kRmat, kPowerLaw };

  std::string name;  // catalog key, e.g. "com-dblp"
  /// Candidate file basenames under the data dir, tried in order. Both
  /// plain and gzip payloads load (sniffed by magic, not name).
  std::vector<std::string> files;
  /// SNAP lists each undirected edge once; double into both directions.
  bool undirected = false;

  // -- Weighting regime (overridable per materialization). --
  WeightingRegime regime = WeightingRegime::kWeightedCascade;
  uint32_t topic_mix_topics = 5;  // L for kTopicMix
  double uniform_p = 0.05;        // p for kUniformIc

  // -- Deterministic synthetic fallback. --
  Fallback fallback = Fallback::kBarabasiAlbert;
  NodeId fallback_nodes = 0;            // scale-1 node target
  uint64_t fallback_edges = 0;          // scale-1 arc target (rmat/powerlaw)
  uint32_t fallback_edges_per_node = 3; // BA attachment arcs
  bool fallback_bidirectional = false;  // BA: add both arc directions
  uint64_t fallback_seed = 2017;

  // -- Self-description (emitted into BENCH_matrix.json). --
  NodeId paper_nodes = 0;    // the real graph's published size
  uint64_t paper_edges = 0;
};

/// A materialized dataset: provenance, graph, and per-topic arc weights.
struct LoadedDataset {
  DatasetSpec spec;          // with the regime actually applied
  /// "file:<path>", "file-gz:<path>" or "synthetic:<family>" —
  /// self-describing provenance for bench JSON.
  std::string source;
  bool from_file = false;    // true for file/file-gz (real data)
  Graph graph;
  /// num_topics() parallel arrays, one probability per forward EdgeId.
  std::vector<std::vector<double>> arc_weights;
  uint32_t num_topics() const {
    return static_cast<uint32_t>(arc_weights.size());
  }
  EdgeListLoadStats load_stats;  // meaningful for file sources
};

class DatasetCatalog {
 public:
  struct Options {
    /// Directory searched for SNAP files. Empty means $ISA_DATA_DIR; if
    /// that is unset too, resolution goes straight to the generator.
    /// Missing directories are not an error.
    std::string data_dir;
    /// Shrinks the synthetic fallback targets (files always load whole).
    double scale = 1.0;
    /// Mixed into the fallback generator and weighting seeds.
    uint64_t seed = 2017;
    /// Read by nothing; kept only because perfbench sets it (ROADMAP
    /// item 2).
    bool cache_synthetic = true;
  };

  /// The built-in entries: "com-dblp", "soc-livejournal1",
  /// "soc-epinions1", "flixster".
  static const std::vector<DatasetSpec>& BuiltinSpecs();
  static std::vector<std::string> Names();

  /// Looks `name` up among the built-ins.
  static Result<DatasetSpec> Resolve(std::string_view name);

  /// Materializes `spec` under `options`: file, else generator (see file
  /// comment). Weights follow spec.regime.
  static Result<LoadedDataset> Load(const DatasetSpec& spec,
                                    const Options& options);

  /// Resolve + Load under the spec's own regime.
  static Result<LoadedDataset> Load(std::string_view name,
                                    const Options& options);

  /// Resolve + Load, with the regime overridden (the sweep's regime axis).
  static Result<LoadedDataset> Load(std::string_view name,
                                    WeightingRegime regime,
                                    const Options& options);
};

/// Computes the regime's per-topic arc weights for an already-built graph:
/// the one builder behind the catalog, the tools, the benches and the
/// tests. `uniform_p` is read only by kUniformIc; `topic_mix_topics` and
/// `seed` only by kTopicMix, whose topic z depends on (graph, seed, z)
/// alone.
Result<std::vector<std::vector<double>>> MakeRegimeWeights(
    const Graph& graph, WeightingRegime regime, uint32_t topic_mix_topics = 1,
    double uniform_p = 0.0, uint64_t seed = 0);

}  // namespace isa::graph

#endif  // ISA_GRAPH_DATASET_CATALOG_H_
