// Oracles held apart from the library: the benchmark's own adjacency, its
// own batch application, a plain BFS for reachability and a plain
// bounded-simulation fixpoint for pattern queries (Fan et al., Theorem 4:
// Match on the compressed graph, expanded through P, must equal the maximum
// match on the original graph). Nothing here calls into qpgc's algorithms;
// qpgc types appear only as the input formats the generated workloads come
// in (UpdateBatch, PatternQuery) and as the answers being checked
// (MatchResult).

#ifndef SERVEBENCH_ORACLE_H_
#define SERVEBENCH_ORACLE_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/update.h"
#include "pattern/match.h"
#include "pattern/pattern.h"

namespace servebench {

using qpgc::Label;
using qpgc::NodeId;

/// Out-adjacency in CSR form.
struct OracleGraph {
  std::vector<uint32_t> offsets;  // num_nodes + 1
  std::vector<NodeId> targets;

  size_t num_nodes() const { return offsets.empty() ? 0 : offsets.size() - 1; }
  size_t num_edges() const { return targets.size(); }
  std::span<const NodeId> Out(NodeId u) const {
    return {targets.data() + offsets[u], targets.data() + offsets[u + 1]};
  }
};

/// The evolving edge set: sorted out-lists, updated edge by edge in batch
/// order (inserting a present edge or deleting an absent one is a no-op),
/// which is the post-batch graph whatever no-op elimination the library
/// does on its side.
class OracleState {
 public:
  OracleState(size_t num_nodes,
              const std::vector<std::pair<NodeId, NodeId>>& edges);

  void Apply(const qpgc::UpdateBatch& batch);
  size_t num_nodes() const { return out_.size(); }
  OracleGraph Freeze() const;

 private:
  std::vector<std::vector<NodeId>> out_;
};

/// Every graph version a run produced: version b is the graph after the
/// first b batches. In sharded serving each shard publishes on its own, so
/// a reader may pin shards at different versions; node u's out-edges then
/// come from the version of the shard owning u (edges are cut by source).
class OracleHistory {
 public:
  /// `shard_of` is empty for unsharded serving.
  OracleHistory(const OracleState& initial, std::vector<uint32_t> shard_of);

  /// Appends the version after `batch`.
  void Apply(const qpgc::UpdateBatch& batch);

  size_t num_nodes() const { return state_.num_nodes(); }
  const OracleGraph& version(size_t b) const { return versions_[b]; }

  /// marks[x] = 1 iff a non-empty path leads from s to x in the graph whose
  /// node u takes its out-edges from version batches[shard(u)].
  void ReachableFrom(std::span<const uint32_t> batches, NodeId s,
                     std::vector<uint8_t>& marks,
                     std::vector<NodeId>& queue) const;

 private:
  OracleState state_;
  std::vector<uint32_t> shard_of_;
  std::vector<OracleGraph> versions_;
};

/// A reach question (u, v) under reflexive path semantics.
struct ReachPair {
  NodeId u = 0;
  NodeId v = 0;
};

/// Oracle answers for `pairs` on the version mix `batches`, one BFS per
/// distinct source.
std::vector<uint8_t> OracleReachAnswers(const OracleHistory& history,
                                        std::span<const uint32_t> batches,
                                        std::span<const ReachPair> pairs);

/// `count` answers a reader got alike: `answer` for pair `pair` of the
/// pool, read on the version mix numbered `mix`.
struct RecordedReach {
  uint32_t mix = 0;
  uint32_t pair = 0;
  uint8_t answer = 0;
  uint32_t count = 1;
};

/// Checks recorded answers against the oracle at the version mix each one
/// was read on (`mixes[r.mix]` is that mix's batches per shard). Returns the
/// number of answers (summing `count`) that disagree.
size_t CountWrongReaches(const OracleHistory& history,
                         const std::vector<std::vector<uint32_t>>& mixes,
                         std::span<const ReachPair> pool,
                         std::span<const RecordedReach> records);

/// The maximum bounded-simulation match of a pattern on a plain graph.
struct OracleMatch {
  bool matched = false;
  /// Per pattern node, matching graph nodes ascending; all empty when
  /// some pattern node has no match.
  std::vector<std::vector<NodeId>> sets;
};

/// Bounded simulation by fixpoint: start from label-equal candidates and
/// drop v from sim(u) while some pattern edge (u, u', k) finds no w in
/// sim(u') at the end of a non-empty path of length <= k from v.
class OracleMatcher {
 public:
  OracleMatcher(const OracleGraph& g, std::vector<Label> labels);
  OracleMatch Run(const qpgc::PatternQuery& q) const;

 private:
  // Marks every node with a non-empty path of length <= k into `targets`.
  void MarkWithin(const std::vector<NodeId>& targets, uint32_t k,
                  std::vector<uint8_t>& marks) const;

  OracleGraph reverse_;
  std::vector<Label> labels_;
};

/// True iff the library's answer equals the oracle's maximum match.
bool MatchAgrees(const OracleMatch& oracle, const qpgc::MatchResult& got);

/// |quotient| <= |V|: a compression never has more nodes than its input.
bool QuotientWithin(size_t quotient_nodes, size_t original_nodes);

}  // namespace servebench

#endif  // SERVEBENCH_ORACLE_H_
