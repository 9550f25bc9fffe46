// Table 1: statistics of the network datasets.
//
// Paper: FLIXSTER 30K/425K (directed), EPINIONS 76K/509K (directed),
// DBLP 317K/1.05M (undirected), LIVEJOURNAL 4.8M/69M (directed).
// Every graph comes from graph::DatasetCatalog — the real SNAP file under
// $ISA_DATA_DIR when present, else its synthetic stand-in; this bench
// prints each catalog entry's realized statistics side by side with the
// paper's size from its spec.

#include <cstdio>
#include <iostream>

#include "bench/bench_util.h"
#include "common/table_writer.h"
#include "graph/stats.h"

int main() {
  const double scale = isa::bench::EffectiveScale(1.0);
  std::printf("=== Table 1: dataset statistics (stand-ins at scale %.2f) "
              "===\n\n",
              scale);

  isa::TableWriter table({"dataset", "paper #nodes", "paper #edges",
                          "paper type", "ours #nodes", "ours #edges",
                          "ours type", "max outdeg", "max indeg",
                          "largest WCC"});
  for (const auto& spec : isa::graph::DatasetCatalog::BuiltinSpecs()) {
    auto ds = isa::bench::LoadDataset(spec.name, scale);
    const auto stats = isa::graph::ComputeStats(ds->graph);
    table.AddCell(ds->name);
    table.AddCell(uint64_t{spec.paper_nodes});
    table.AddCell(spec.paper_edges);
    table.AddCell(std::string(spec.undirected ? "undirected" : "directed"));
    table.AddCell(uint64_t{stats.num_nodes});
    table.AddCell(uint64_t{stats.num_edges});
    table.AddCell(std::string(stats.looks_bidirectional
                                  ? "undirected (both dirs)"
                                  : "directed"));
    table.AddCell(uint64_t{stats.max_out_degree});
    table.AddCell(uint64_t{stats.max_in_degree});
    table.AddCell(uint64_t{stats.largest_wcc});
    isa::bench::Check(table.EndRow(), "table row");
  }
  table.Print(std::cout);
  return 0;
}
