// Random reverse-reachable (RR) set sampling (Borgs et al., used by TIM).
//
// Under IC with arc probabilities p: a random RR set is generated by picking
// a target node w uniformly at random, then collecting every node that can
// reach w in a possible world where each arc survives independently with its
// probability. The sampler runs a lazy reverse BFS: arcs are flipped only
// when the frontier reaches them, which is equivalent to materializing the
// whole world. For a sample R of RR sets, n · (fraction of R covered by S)
// is an unbiased estimator of the spread σ(S).
//
// Ad-specificity (TIC): each ad has its own arc probabilities (Eq. 1), so
// each advertiser keeps its own sampler + collection, as in Algorithm 2.
//
// Coin column. Under weighted cascade and uniform IC every in-arc
// of a node shares one probability, so the per-arc gather probs[eid] and
// its int-to-double coin are redundant. A CoinColumn holds one uint64_t per
// node, built once per (graph, probs) pair:
//   - kCoinNever  (p <= 0): the arc is dead, no draw;
//   - kCoinAlways (p >= 1): the arc is live, no draw;
//   - a threshold t < 2^53: one draw x per arc, live iff (x >> 11) < t;
//   - a skip coin (a high-in-degree threshold node, see UsesSkip): one
//     draw per live arc, which jumps straight to the next live arc;
//   - kCoinMixed: the in-arcs disagree; the walk flips each in-arc on its
//     own probability, reading the arc's code byte (below) when the
//     column has codes, else Rng::NextBernoulli(probs[eid]).
// The threshold walk is bit-exact, not approximately equal: NextDouble()
// is k * 2^-53 for the integer k = x >> 11, scaling by 2^53 is exact, so
// k * 2^-53 < p  <=>  k < p * 2^53  <=>  k < ceil(p * 2^53) = t. A node is
// uniform when all its in-arcs give the same state — exactly the condition
// under which they make identical decisions, so no float equality is
// involved. NaN maps to t = 0: like NextBernoulli(NaN) it draws once and
// never succeeds.
//
// Arc codes. On a topic-mix graph (Eq. 1) nearly every node is mixed, and
// its flips gather probs[eid] at random. A store's column (SampleSizer's)
// adds one byte per in-arc in transpose-CSR order: code = t >> 45, the
// top 8 of the threshold's 53 bits, or kArcExact (255) for 255, p <= 0 or
// p >= 1. With hi = x >> 56, the top byte of x >> 11: hi < code gives
// (x >> 11) < (hi + 1) * 2^45 <= t, live; hi > code gives (x >> 11) >=
// hi * 2^45 > t, dead; a tie (probability 1/256) compares t exactly. A
// kArcExact arc runs NextBernoulli(probs[eid]), which draws nothing at
// p <= 0 or p >= 1. So every flip takes the same draw and verdict as
// without codes. Other samplers (the singleton-spread estimator, one-off
// samplers) build none, too few sets to repay the build, nor does a graph
// without a mixed node; without codes every arc reads kArcExact.
//
// Geometric skip (SUBSIM, Guo et al., SIGMOD 2020). The live arcs of a
// node whose d in-arcs each live with p = t * 2^-53 form a Bernoulli
// process, so the gap before the next live arc is Geometric(p):
// P(gap >= j) = (1 - p)^j. A skip node draws it as
// floor(log(u) * inv_log1m), with u = ((x >> 11) + 1) * 2^-53 in (0, 1]
// and inv_log1m = 1 / log1p(-p), and checks `visited` only on the arc it
// lands on: d * p + 1 draws in expectation instead of d. The column stores
// inv_log1m itself, computed once per node by BuildCoinColumn; it is a
// negative finite double, so its bit pattern lies in [2^63, kCoinMixed)
// and never collides with a threshold or a sentinel.
//
// Scope of exactness. A skip node's live arcs follow the per-arc walk's
// law but come from different draws, so the two walks agree in
// distribution, not draw for draw. A sampled set equals the per-arc
// walk's draw for draw exactly when it reaches no skip node: every set on
// a graph below the cutover, and every topic-mix set on the catalog's
// graphs (their topic-mix nodes with two or more in-arcs are mixed).
// Either way a set is
// a pure function of (seed, set id). The gap calls std::log and
// std::log1p, which are not correctly rounded everywhere: a libm whose
// last bit differs moves a gap only when log(u) * inv_log1m lands within
// an ulp of an integer, but that is enough to change a set, so the golden
// results assume glibc's libm.

#ifndef ISA_RRSET_RR_SAMPLER_H_
#define ISA_RRSET_RR_SAMPLER_H_

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/rng.h"
#include "graph/graph.h"

namespace isa::rrset {

/// The propagation model: Independent Cascade, each in-arc (u, v) live
/// independently with probability p_{u,v}. The one model sampled; the enum
/// is kept only because perfbench names it (ROADMAP item 2).
enum class DiffusionModel {
  kIndependentCascade,
};

/// The IC coins of one (graph, probs) pair (see the file comment): one
/// state per node and, on a store's column over a graph with a mixed node,
/// one ArcCode per arc, arc_codes[g.InArcBegin(v) + k] for InNeighbors(v)[k].
struct CoinColumn {
  std::vector<uint64_t> nodes;
  std::vector<uint8_t> arc_codes;
};
inline constexpr uint64_t kCoinAlways = uint64_t{1} << 53;
inline constexpr uint64_t kCoinNever = kCoinAlways + 1;
inline constexpr uint64_t kCoinMixed = ~uint64_t{0};
inline constexpr uint8_t kArcExact = 255;

/// The coin state deciding exactly as Rng::NextBernoulli(p), draw for draw.
inline uint64_t CoinState(double p) {
  if (p <= 0.0) return kCoinNever;
  if (p >= 1.0) return kCoinAlways;
  if (p != p) return 0;  // NaN: NextBernoulli draws and never succeeds
  const double scaled = p * 0x1p53;  // exact: a power-of-two scale
  const auto t = static_cast<uint64_t>(scaled);
  return t + (static_cast<double>(t) != scaled);  // ceil, no libm call
}

/// The code byte of an in-arc of probability p: the top 8 bits of its
/// threshold, kArcExact when those read 255 or p <= 0 or p >= 1.
inline uint8_t ArcCode(double p) {
  const uint64_t state = CoinState(p);
  return state >= kCoinAlways ? kArcExact : static_cast<uint8_t>(state >> 45);
}

/// A threshold coin's verdict on the raw draw `x`: NextDouble() < p for
/// the draw Rng::Next() == x.
inline bool CoinAccepts(uint64_t threshold, uint64_t x) {
  return (x >> 11) < threshold;
}

/// One Bernoulli trial under `state` (not kCoinMixed): Rng::NextBernoulli(p)
/// for the p that CoinState mapped to it, consuming the same draws.
inline bool FlipCoin(uint64_t state, Rng& rng) {
  if (state >= kCoinAlways) return state == kCoinAlways;
  return CoinAccepts(state, rng.Next());
}

/// The skip coin of threshold `t` (0 < t < kCoinAlways): the bits of
/// inv_log1m = 1 / log1p(-t * 2^-53), a negative finite double.
inline uint64_t SkipCoin(uint64_t threshold) {
  return std::bit_cast<uint64_t>(
      1.0 / std::log1p(-static_cast<double>(threshold) * 0x1p-53));
}

/// Whether `state` is a skip coin (sign bit set, not kCoinMixed).
inline bool IsSkipCoin(uint64_t state) {
  return (state >> 63) != 0 && state != kCoinMixed;
}

/// The in-arcs a skip node passes over before its next live one, drawn from
/// the raw draw `x`: Geometric(p) on {0, 1, ...}. A double, so that the
/// caller compares a huge gap (up to ~3.3e17 at t = 1) before any cast.
inline double SkipGap(uint64_t skip_coin, uint64_t x) {
  const double u = static_cast<double>((x >> 11) + 1) * 0x1p-53;
  return std::floor(std::log(u) * std::bit_cast<double>(skip_coin));
}

/// One skip draw's cost in per-arc draws: a log against an xoshiro draw,
/// a compare and a `visited` probe (bench_micro_components' cutover sweep).
inline constexpr double kSkipDrawCost = 4.0;

/// The cutover: a threshold node of in-degree d gets the skip coin when
/// the per-arc walk's d draws cost more than the skip's expected d * p + 1
/// draws, each kSkipDrawCost — under weighted cascade (p = 1/d) from
/// in-degree 2 * kSkipDrawCost up; never for p >= 1 / kSkipDrawCost.
inline bool UsesSkip(uint64_t in_degree, uint64_t threshold) {
  const double d = static_cast<double>(in_degree);
  const double p = static_cast<double>(threshold) * 0x1p-53;
  return threshold > 0 && threshold < kCoinAlways &&
         d >= kSkipDrawCost * (d * p + 1.0);
}

/// The coin column of `probs` (indexed by forward EdgeId) over g's nodes.
/// A node with no in-arcs reads kCoinNever; a threshold node past the
/// cutover reads its skip coin. With `arc_codes`, a graph that has a mixed
/// node also gets the arc codes (a store's column, see the file comment).
std::shared_ptr<const CoinColumn> BuildCoinColumn(
    const graph::Graph& g, std::span<const double> probs,
    bool arc_codes = false);

/// Generates random RR sets for one (graph, arc-probability) pair.
/// Not thread-safe; create one per thread.
class RrSampler {
 public:
  /// `probs` is indexed by forward EdgeId and must outlive the sampler.
  /// The sampler shares `coins`, which must be BuildCoinColumn(g, probs),
  /// with or without arc codes, or builds node coins only when it is null
  /// (one-off samplers).
  RrSampler(const graph::Graph& g, std::span<const double> probs,
            std::shared_ptr<const CoinColumn> coins = nullptr);

  /// Samples one RR set into `out` (cleared first). Returns the root node.
  graph::NodeId SampleInto(Rng& rng, std::vector<graph::NodeId>* out);

  /// Samples the RR sets with absolute ids [first_id, first_id + count),
  /// set `id` from its own substream Rng(HashSeed(base_seed, id)), into
  /// `sizes` (one cardinality per set) and `nodes` (the concatenated
  /// members), both cleared first — the shape RrStore::AppendBatch takes.
  /// Each set is walked in place at the tail of `nodes`, so every member
  /// is written once.
  /// Each set depends only on (base_seed, id); this is the one loop that
  /// turns a (seed, set id) pair into an RR set, shared by
  /// ParallelSampler's workers and the cold-chunk re-sampler.
  void SampleIds(uint64_t base_seed, uint64_t first_id, uint64_t count,
                 std::vector<uint32_t>* sizes,
                 std::vector<graph::NodeId>* nodes);

 private:
  // SampleInto without the clear: appends the set's members to `out`, the
  // root first, and runs the reverse BFS over them in place. Same draws
  // and member order as SampleInto.
  graph::NodeId AppendSet(Rng& rng, std::vector<graph::NodeId>* out);

  const graph::Graph& g_;
  std::span<const double> probs_;
  std::shared_ptr<const CoinColumn> coins_;
  const uint8_t* arc_codes_ = nullptr;  // coins_'s codes, null without
  std::vector<uint32_t> visited_epoch_;
  uint32_t epoch_ = 0;
};

}  // namespace isa::rrset

#endif  // ISA_RRSET_RR_SAMPLER_H_
