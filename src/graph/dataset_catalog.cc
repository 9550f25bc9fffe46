#include "graph/dataset_catalog.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>

#include "common/rng.h"
#include "common/strings.h"
#include "graph/generators.h"

namespace isa::graph {

const char* WeightingRegimeName(WeightingRegime regime) {
  switch (regime) {
    case WeightingRegime::kWeightedCascade:
      return "wc";
    case WeightingRegime::kUniformIc:
      return "uniform";
    case WeightingRegime::kTopicMix:
      return "mix";
  }
  return "unknown";
}

namespace {

uint64_t FnvHash(std::string_view s) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : s) h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  return h;
}

const char* FallbackName(DatasetSpec::Fallback f) {
  switch (f) {
    case DatasetSpec::Fallback::kBarabasiAlbert:
      return "ba";
    case DatasetSpec::Fallback::kRmat:
      return "rmat";
    case DatasetSpec::Fallback::kPowerLaw:
      return "powerlaw";
  }
  return "unknown";
}

// Shrink a power-of-two node count by whole powers of two (R-MAT node
// counts are 2^k; fractional scales round down to the nearest power).
uint32_t ScaledPow2(uint32_t base_pow, double scale) {
  uint32_t s = base_pow;
  while (scale < 0.75 && s > 6) {
    scale *= 2.0;
    --s;
  }
  return s;
}

Result<Graph> GenerateFallback(const DatasetSpec& spec,
                               const DatasetCatalog::Options& options) {
  const uint64_t seed = HashSeed(spec.fallback_seed, options.seed);
  switch (spec.fallback) {
    case DatasetSpec::Fallback::kBarabasiAlbert: {
      BarabasiAlbertOptions opt;
      opt.num_nodes = std::max<NodeId>(
          64, static_cast<NodeId>(spec.fallback_nodes * options.scale));
      opt.edges_per_node = spec.fallback_edges_per_node;
      opt.bidirectional = spec.fallback_bidirectional;
      opt.seed = seed;
      return GenerateBarabasiAlbert(opt);
    }
    case DatasetSpec::Fallback::kRmat: {
      uint32_t base_pow = 1;
      while ((1u << base_pow) < spec.fallback_nodes) ++base_pow;
      RmatOptions opt;
      opt.scale = ScaledPow2(base_pow, options.scale);
      opt.num_edges = static_cast<uint64_t>(
          static_cast<double>(spec.fallback_edges) *
          std::pow(2.0, static_cast<int>(opt.scale) -
                            static_cast<int>(base_pow)));
      opt.seed = seed;
      return GenerateRmat(opt);
    }
    case DatasetSpec::Fallback::kPowerLaw: {
      PowerLawOptions opt;
      opt.num_nodes = std::max<NodeId>(
          64, static_cast<NodeId>(spec.fallback_nodes * options.scale));
      opt.num_edges = std::max<uint64_t>(
          128,
          static_cast<uint64_t>(spec.fallback_edges * options.scale));
      opt.exponent = 2.0;
      opt.seed = seed;
      return GeneratePowerLaw(opt);
    }
  }
  return Status::InvalidArgument("unknown fallback family");
}

// Cache key for the generated fallback: anything that changes the graph
// (family, size targets, scale, seeds) must change the file name, so a
// stale cache can never be confused for the requested graph.
std::string CacheFileName(const DatasetSpec& spec,
                          const DatasetCatalog::Options& options) {
  return StrFormat("%s.synthetic-%s-n%u-m%llu-e%u%s-s%.4f-r%llu-r%llu.bin",
                   spec.name.c_str(), FallbackName(spec.fallback),
                   spec.fallback_nodes,
                   static_cast<unsigned long long>(spec.fallback_edges),
                   spec.fallback_edges_per_node,
                   spec.fallback_bidirectional ? "-bidi" : "",
                   options.scale,
                   static_cast<unsigned long long>(spec.fallback_seed),
                   static_cast<unsigned long long>(options.seed));
}

std::string EffectiveDataDir(const DatasetCatalog::Options& options) {
  if (!options.data_dir.empty()) return options.data_dir;
  const char* env = std::getenv("ISA_DATA_DIR");
  return env != nullptr ? std::string(env) : std::string();
}

}  // namespace

Result<std::vector<std::vector<double>>> MakeRegimeWeights(
    const Graph& graph, WeightingRegime regime, uint32_t topic_mix_topics,
    double uniform_p, uint64_t seed) {
  const EdgeId m = graph.num_edges();
  switch (regime) {
    case WeightingRegime::kWeightedCascade: {
      std::vector<double> p(m);
      for (EdgeId e = 0; e < m; ++e) {
        p[e] = 1.0 / static_cast<double>(graph.InDegree(graph.EdgeDst(e)));
      }
      return std::vector<std::vector<double>>{std::move(p)};
    }
    case WeightingRegime::kUniformIc: {
      if (uniform_p < 0.0 || uniform_p > 1.0) {
        return Status::InvalidArgument(
            "uniform-IC probability must be in [0, 1]");
      }
      return std::vector<std::vector<double>>{
          std::vector<double>(m, uniform_p)};
    }
    case WeightingRegime::kTopicMix: {
      if (topic_mix_topics == 0) {
        return Status::InvalidArgument("topic-mix needs >= 1 topic");
      }
      // Degree-scaled random per (arc, topic): U(0,1) / indeg(dst), the
      // FLIXSTER-style stand-in for MLE-learned TIC probabilities. One
      // substream per topic, arcs drawn in EdgeId order — deterministic
      // in (graph, seed) regardless of topic count elsewhere.
      std::vector<std::vector<double>> topics(topic_mix_topics);
      for (uint32_t z = 0; z < topic_mix_topics; ++z) {
        Rng rng(HashSeed(seed, 0x70F1C + z));
        topics[z].resize(m);
        for (EdgeId e = 0; e < m; ++e) {
          topics[z][e] =
              rng.NextDouble() /
              static_cast<double>(graph.InDegree(graph.EdgeDst(e)));
        }
      }
      return topics;
    }
  }
  return Status::InvalidArgument("unknown weighting regime");
}

const std::vector<DatasetSpec>& DatasetCatalog::BuiltinSpecs() {
  static const std::vector<DatasetSpec>* kSpecs = [] {
    auto* specs = new std::vector<DatasetSpec>;
    {
      // SNAP com-DBLP: 317,080 nodes / 1,049,866 undirected edges; the
      // paper directs every edge both ways and uses weighted cascade.
      DatasetSpec s;
      s.name = "com-dblp";
      s.files = {"com-dblp.ungraph.txt", "com-dblp.ungraph.txt.gz",
                 "com-dblp.txt", "com-dblp.txt.gz"};
      s.undirected = true;
      s.regime = WeightingRegime::kWeightedCascade;
      s.fallback = DatasetSpec::Fallback::kBarabasiAlbert;
      s.fallback_nodes = 317'080;
      s.fallback_edges_per_node = 3;
      s.fallback_bidirectional = true;
      s.paper_nodes = 317'080;
      s.paper_edges = 1'049'866;
      specs->push_back(std::move(s));
    }
    {
      // SNAP soc-LiveJournal1: 4.8M nodes / 69M directed arcs. The
      // fallback is the scaled R-MAT stand-in (2^18 nodes / 3M arcs at
      // scale 1 — the full graph does not fit laptop benches).
      DatasetSpec s;
      s.name = "soc-livejournal1";
      s.files = {"soc-LiveJournal1.txt", "soc-LiveJournal1.txt.gz",
                 "soc-livejournal1.txt", "soc-livejournal1.txt.gz"};
      s.regime = WeightingRegime::kWeightedCascade;
      s.fallback = DatasetSpec::Fallback::kRmat;
      s.fallback_nodes = 262'144;
      s.fallback_edges = 3'000'000;
      s.paper_nodes = 4'847'571;
      s.paper_edges = 68'993'773;
      specs->push_back(std::move(s));
    }
    {
      // SNAP soc-Epinions1: 75,879 nodes / 508,837 directed arcs.
      DatasetSpec s;
      s.name = "soc-epinions1";
      s.files = {"soc-Epinions1.txt", "soc-Epinions1.txt.gz",
                 "soc-epinions1.txt", "soc-epinions1.txt.gz"};
      s.regime = WeightingRegime::kWeightedCascade;
      s.fallback = DatasetSpec::Fallback::kPowerLaw;
      s.fallback_nodes = 75'879;
      s.fallback_edges = 508'837;
      s.paper_nodes = 75'879;
      s.paper_edges = 508'837;
      specs->push_back(std::move(s));
    }
    {
      // FLIXSTER (the paper's Table 1: 30K nodes / 425K directed arcs,
      // TIC probabilities with L = 10 topics learned by MLE) is not
      // redistributable. The fallback is an R-MAT stand-in under topic-mix
      // weights, the degree-scaled random substitute for learned topics.
      DatasetSpec s;
      s.name = "flixster";
      s.files = {"flixster.txt", "flixster.txt.gz"};
      s.regime = WeightingRegime::kTopicMix;
      s.topic_mix_topics = 10;
      s.fallback = DatasetSpec::Fallback::kRmat;
      s.fallback_nodes = 32'768;
      s.fallback_edges = 425'000;
      s.paper_nodes = 30'000;
      s.paper_edges = 425'000;
      specs->push_back(std::move(s));
    }
    return specs;
  }();
  return *kSpecs;
}

std::vector<std::string> DatasetCatalog::Names() {
  std::vector<std::string> names;
  for (const DatasetSpec& s : BuiltinSpecs()) names.push_back(s.name);
  return names;
}

Result<DatasetSpec> DatasetCatalog::Resolve(std::string_view name) {
  for (const DatasetSpec& s : BuiltinSpecs()) {
    if (s.name == name) return s;
  }
  std::string known;
  for (const std::string& n : Names()) {
    if (!known.empty()) known += ", ";
    known += n;
  }
  return Status::InvalidArgument(
      StrFormat("unknown dataset: %.*s (known: %s)",
                static_cast<int>(name.size()), name.data(), known.c_str()));
}

Result<LoadedDataset> DatasetCatalog::Load(const DatasetSpec& spec,
                                           const Options& options) {
  if (options.scale <= 0.0 || options.scale > 1.0) {
    return Status::InvalidArgument("DatasetCatalog: scale must be in (0,1]");
  }
  LoadedDataset out;
  out.spec = spec;

  const std::string dir = EffectiveDataDir(options);
  std::error_code ec;

  // 1. The real SNAP file, if present under the data dir.
  if (!dir.empty()) {
    for (const std::string& base : spec.files) {
      const std::string path = dir + "/" + base;
      if (!std::filesystem::is_regular_file(path, ec)) continue;
      auto data = ReadEdgeListText(path);
      if (!data.ok()) return data.status();
      auto& parsed = data.value();
      std::vector<Edge> edges = std::move(parsed.edges);
      if (spec.undirected) {
        const size_t once = edges.size();
        edges.reserve(once * 2);
        for (size_t i = 0; i < once; ++i) {
          edges.push_back(Edge{edges[i].dst, edges[i].src});
        }
      }
      auto g = Graph::FromEdges(parsed.num_nodes, std::move(edges));
      if (!g.ok()) return g.status();
      out.graph = std::move(g).value();
      out.source = (parsed.gzipped ? "file-gz:" : "file:") + path;
      out.from_file = true;
      out.load_stats = parsed.stats;
      break;
    }
  }

  // 2./3. Cached or freshly generated synthetic fallback.
  if (!out.from_file) {
    const std::string cache_path =
        dir.empty() ? std::string() : dir + "/" + CacheFileName(spec, options);
    bool from_cache = false;
    if (!cache_path.empty() &&
        std::filesystem::is_regular_file(cache_path, ec)) {
      auto cached = LoadBinary(cache_path);
      if (cached.ok()) {
        out.graph = std::move(cached).value();
        out.source = "cache:" + cache_path;
        from_cache = true;
      }
      // An unreadable/stale cache is not fatal — fall through and
      // regenerate (the rewrite below replaces it).
    }
    if (!from_cache) {
      auto g = GenerateFallback(spec, options);
      if (!g.ok()) return g.status();
      out.graph = std::move(g).value();
      out.source = StrFormat("synthetic:%s", FallbackName(spec.fallback));
      if (options.cache_synthetic && !cache_path.empty() &&
          std::filesystem::is_directory(dir, ec)) {
        // Best effort: a read-only data dir just skips the cache.
        (void)SaveBinary(out.graph, cache_path);
      }
    }
  }

  auto weights = MakeRegimeWeights(
      out.graph, spec.regime,
      spec.regime == WeightingRegime::kTopicMix ? spec.topic_mix_topics : 1,
      spec.uniform_p, HashSeed(options.seed, FnvHash(spec.name)));
  if (!weights.ok()) return weights.status();
  out.arc_weights = std::move(weights).value();
  return out;
}

Result<LoadedDataset> DatasetCatalog::Load(std::string_view name,
                                           const Options& options) {
  auto spec = Resolve(name);
  if (!spec.ok()) return spec.status();
  return Load(spec.value(), options);
}

Result<LoadedDataset> DatasetCatalog::Load(std::string_view name,
                                           WeightingRegime regime,
                                           const Options& options) {
  auto spec = Resolve(name);
  if (!spec.ok()) return spec.status();
  spec.value().regime = regime;
  return Load(spec.value(), options);
}

}  // namespace isa::graph
