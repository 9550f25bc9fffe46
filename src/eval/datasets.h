// The evaluation's view of a dataset: a graph plus its per-topic arc
// probabilities.
//
// Graphs come from graph::DatasetCatalog, the one dataset layer: a named
// entry ("flixster", "soc-epinions1", "com-dblp", "soc-livejournal1")
// resolves to a real SNAP file under $ISA_DATA_DIR when present, else to a
// deterministic synthetic stand-in with matched directedness, size and
// weighting regime (see dataset_catalog.h). MakeDataset wraps that result
// for the workload and instance builders.

#ifndef ISA_EVAL_DATASETS_H_
#define ISA_EVAL_DATASETS_H_

#include <memory>
#include <string>

#include "common/status.h"
#include "graph/dataset_catalog.h"
#include "graph/graph.h"
#include "topic/tic_model.h"

namespace isa::eval {

/// A materialized dataset: graph + per-topic arc probabilities.
/// Held by unique_ptr so the graph's address stays stable for the
/// RmInstance that references it.
struct Dataset {
  std::string name;
  graph::Graph graph;
  topic::TopicEdgeProbabilities topics;
  uint32_t num_topics = 1;
};

/// Wraps a catalog materialization (graph::DatasetCatalog::Load): the
/// graph moves in, and its per-topic arc weights become the dataset's
/// topic::TopicEdgeProbabilities. A failed load passes through.
Result<std::unique_ptr<Dataset>> MakeDataset(
    Result<graph::LoadedDataset> loaded);

/// Reads the ISA_BENCH_SCALE environment variable (default 1.0, clamped to
/// [0.01, 1.0]) — lets `for b in build/bench/*; do $b; done` be resized
/// without rebuilding.
double BenchScaleFromEnv();

}  // namespace isa::eval

#endif  // ISA_EVAL_DATASETS_H_
