// The three deployments the benchmark serves from, behind one interface the
// phases drive: an unsharded SnapshotManager behind QueryService, the same
// behind CachedQueryService, and a K-shard ShardedSnapshotManager behind
// ShardedQueryService. Every call goes through the library's public
// functions; spans (trace.h) wrap each call into a layer.

#ifndef SERVEBENCH_DEPLOYMENT_H_
#define SERVEBENCH_DEPLOYMENT_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "graph/shard_view.h"
#include "graph/update.h"
#include "pattern/match.h"
#include "pattern/pattern.h"
#include "serve/answer_cache.h"
#include "oracle.h"
#include "trace.h"

namespace servebench {

using qpgc::NodeId;

enum class Kind { kLocal, kCached, kRouted };

/// What the publishes of one batch did, summed over shards.
struct PublishTotals {
  double freeze_secs = 0.0;
  double swap_secs = 0.0;
  double summary_freeze_secs = 0.0;
  size_t sides_refrozen = 0;
  size_t publishes = 0;
};

struct WriteOutcome {
  size_t effective_updates = 0;
  PublishTotals publish;
  /// A fresh pin returned the new version on every shard.
  bool visible = false;
};

/// Sizes of the published serving state, per shard (one entry unsharded).
struct ServingShape {
  std::vector<size_t> shard_nodes;  // |V| of each shard's graph
  std::vector<size_t> reach_nodes, reach_edges;
  std::vector<size_t> pattern_nodes, pattern_edges;
  size_t serving_bytes = 0;
  size_t reach_side_bytes = 0;
  size_t pattern_side_bytes = 0;
  size_t boundary_exits = 0;
  size_t boundary_entries = 0;
};

class Deployment {
 public:
  virtual ~Deployment() = default;

  /// One quiescent reach query. Untraced it goes through the service
  /// facade, which pins once; traced it pins and queries as two child
  /// spans of one request.
  virtual bool Reach(NodeId u, NodeId v, ThreadTrace* t) const = 0;
  /// Pins, answers, and sets `mix[s]` to the number of batches shard s's
  /// pinned version includes.
  virtual bool ReachRecordingMix(NodeId u, NodeId v,
                                 std::vector<uint32_t>& mix) const = 0;
  /// Full Match, answer expanded through P. Traced it runs as pin, Match
  /// on the pinned pattern quotient and expansion, each a span.
  virtual qpgc::MatchResult Match(const qpgc::PatternQuery& q,
                                  ThreadTrace* t) const = 0;
  /// The pinned snapshot's own quotient sweep for (u, v), past any cache or
  /// router: u's home shard when sharded (a shard-local answer, not
  /// checked). Traced runs only.
  virtual void SweepProbe(NodeId u, NodeId v, ThreadTrace* t) const = 0;

  /// Writer: applies one batch, publishes every shard and pins fresh.
  /// `batches_done` counts this batch.
  virtual WriteOutcome ApplyAndPublish(const qpgc::UpdateBatch& batch,
                                       uint32_t batches_done,
                                       ThreadTrace* t) = 0;
  /// Routed only: times a stitch and a first routed reach on a fresh pin of
  /// the current version vector, off the service's own cached pin.
  virtual void TraceFreshPin(NodeId /*u*/, NodeId /*v*/,
                             ThreadTrace* /*t*/) const {}

  virtual ServingShape Shape() const = 0;
  virtual std::optional<qpgc::CacheStats> cache_stats() const {
    return std::nullopt;
  }
  /// Share of stitched-quotient segments reused across version vectors.
  virtual double stitch_reuse() const { return 0.0; }
  /// The partition when sharded, else null.
  virtual const qpgc::ShardPartition* partition() const { return nullptr; }

  /// Saves the published state (one file per shard) next to `stem`.
  virtual std::vector<std::string> Save(const std::string& stem,
                                        ThreadTrace* t) const = 0;
  /// Opens the saved files (checksums and structure validation on when
  /// `verified`) and answers one reach; nullopt when the open fails.
  virtual std::optional<bool> OpenAndReach(
      const std::vector<std::string>& paths, bool verified, NodeId u,
      NodeId v, ThreadTrace* t) const = 0;
};

/// Builds the deployment from the generated graph and publishes version 1.
std::unique_ptr<Deployment> BuildDeployment(Kind kind, qpgc::Graph g,
                                            uint32_t num_shards,
                                            uint64_t partition_seed,
                                            ThreadTrace* t);

/// Reach answers read off a trusted mapping of an unsharded artifact, one
/// span per query; empty when the file does not open.
std::vector<uint8_t> MmapReachProbe(const std::string& path,
                                    std::span<const ReachPair> pairs,
                                    ThreadTrace* t);

}  // namespace servebench

#endif  // SERVEBENCH_DEPLOYMENT_H_
