#include "eval/datasets.h"

#include <algorithm>
#include <cstdlib>

#include "common/strings.h"

namespace isa::eval {

Result<std::unique_ptr<Dataset>> MakeDataset(
    Result<graph::LoadedDataset> loaded) {
  if (!loaded.ok()) return loaded.status();
  graph::LoadedDataset& in = loaded.value();
  auto ds = std::make_unique<Dataset>();
  ds->name = in.spec.name;
  ds->graph = std::move(in.graph);
  auto topics = topic::TopicEdgeProbabilities::Create(
      ds->graph, std::move(in.arc_weights));
  if (!topics.ok()) return topics.status();
  ds->topics = std::move(topics).value();
  ds->num_topics = ds->topics.num_topics();
  return ds;
}

double BenchScaleFromEnv() {
  const char* raw = std::getenv("ISA_BENCH_SCALE");
  if (raw == nullptr) return 1.0;
  auto parsed = ParseDouble(raw);
  if (!parsed.ok()) return 1.0;
  return std::clamp(parsed.value(), 0.01, 1.0);
}

}  // namespace isa::eval
