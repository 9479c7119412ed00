#include "deployment.h"

#include <type_traits>
#include <utility>

#include "core/pattern_scheme.h"
#include "serve/query_service.h"
#include "serve/router.h"
#include "serve/sharded_manager.h"
#include "serve/snapshot_manager.h"
#include "storage/mmap_snapshot.h"
#include "storage/snapshot_io.h"

namespace servebench {
namespace {

using qpgc::MatchResult;
using qpgc::PatternQuery;
using qpgc::ServingSnapshot;
using qpgc::UpdateBatch;

const ServingSnapshot& Base(const ServingSnapshot& s) { return s; }
const ServingSnapshot& Base(const qpgc::CachedSnapshot& s) {
  return s.snapshot();
}

void AddPublish(const qpgc::PublishStats& p, PublishTotals& totals) {
  totals.freeze_secs += p.freeze_secs;
  totals.swap_secs += p.swap_secs;
  totals.summary_freeze_secs += p.summary_freeze_secs;
  totals.sides_refrozen += (p.froze_reach ? 1 : 0) + (p.froze_pattern ? 1 : 0);
  ++totals.publishes;
}

void AddShape(const ServingSnapshot& s, ServingShape& shape) {
  shape.shard_nodes.push_back(s.original_num_nodes());
  shape.reach_nodes.push_back(s.reach_gr().num_nodes());
  shape.reach_edges.push_back(s.reach_gr().num_edges());
  shape.pattern_nodes.push_back(s.pattern_gr().num_nodes());
  shape.pattern_edges.push_back(s.pattern_gr().num_edges());
  shape.serving_bytes += s.MemoryBytes();
  shape.reach_side_bytes += s.reach_side()->MemoryBytes();
  shape.pattern_side_bytes += s.pattern_side()->MemoryBytes();
}

// One SnapshotManager behind QueryService or CachedQueryService.
template <typename Service>
class Unsharded final : public Deployment {
 public:
  static constexpr bool kCached =
      std::is_same_v<Service, qpgc::CachedQueryService>;

  Unsharded(qpgc::Graph g, ThreadTrace* t) {
    {
      ScopedSpan span(t, "serve.snapshot.manager_setup");
      manager_ = std::make_unique<qpgc::SnapshotManager>(std::move(g));
    }
    service_ = std::make_unique<Service>(*manager_);
  }

  bool Reach(NodeId u, NodeId v, ThreadTrace* t) const override {
    if (t == nullptr) return service_->Reach(u, v);
    ScopedSpan root(t, "reach.query");
    PinType pin;
    {
      ScopedSpan span(t, "serve.snapshot.pin");
      pin = service_->Pin();
    }
    ScopedSpan span(t, kCached ? "serve.cache.reach" : "reach.sweep");
    return pin->Reach(u, v);
  }

  bool ReachRecordingMix(NodeId u, NodeId v,
                         std::vector<uint32_t>& mix) const override {
    const auto pin = service_->Pin();
    mix.assign(1, static_cast<uint32_t>(pin->version() - 1));
    return pin->Reach(u, v);
  }

  MatchResult Match(const PatternQuery& q, ThreadTrace* t) const override {
    if (t == nullptr) return service_->Match(q);
    ScopedSpan root(t, "match.query");
    PinType pin;
    {
      ScopedSpan span(t, "serve.snapshot.pin");
      pin = service_->Pin();
    }
    const ServingSnapshot& s = Base(*pin);
    MatchResult on_gr;
    {
      ScopedSpan span(t, "pattern.match_quotient");
      on_gr = qpgc::Match(s.pattern_gr(), q);
    }
    ScopedSpan span(t, "core.expand");
    return qpgc::ExpandMatchWith(
        s.pattern_gr().num_nodes(), s.pattern_map(),
        [&s](NodeId block) { return s.pattern_block_members(block); }, on_gr);
  }

  void SweepProbe(NodeId u, NodeId v, ThreadTrace* t) const override {
    const auto pin = service_->Pin();
    ScopedSpan span(t, "reach.sweep");
    (void)Base(*pin).Reach(u, v);
  }

  WriteOutcome ApplyAndPublish(const UpdateBatch& batch, uint32_t batches_done,
                               ThreadTrace* t) override {
    WriteOutcome out;
    ScopedSpan root(t, "write.batch");
    {
      ScopedSpan span(t, "serve.write.apply");
      out.effective_updates = manager_->Apply(batch).effective_updates;
    }
    {
      ScopedSpan span(t, "serve.snapshot.publish");
      AddPublish(manager_->Publish(), out.publish);
    }
    ScopedSpan span(t, "serve.write.visible_pin");
    out.visible = service_->Pin()->version() == batches_done + 1u;
    return out;
  }

  ServingShape Shape() const override {
    ServingShape shape;
    AddShape(*manager_->Acquire(), shape);
    return shape;
  }

  std::optional<qpgc::CacheStats> cache_stats() const override {
    if constexpr (kCached) {
      return service_->cache_stats();
    } else {
      return std::nullopt;
    }
  }

  std::vector<std::string> Save(const std::string& stem,
                                ThreadTrace* t) const override {
    const std::string path = stem + ".snap";
    const auto snap = manager_->Acquire();
    ScopedSpan span(t, "storage.save");
    if (!qpgc::storage::SaveSnapshot(*snap, path).ok()) return {};
    return {path};
  }

  std::optional<bool> OpenAndReach(const std::vector<std::string>& paths,
                                   bool verified, NodeId u, NodeId v,
                                   ThreadTrace* t) const override {
    if (paths.size() != 1) return std::nullopt;
    std::optional<qpgc::Result<qpgc::storage::MmapSnapshot>> opened;
    {
      ScopedSpan span(t, verified ? "storage.open_verified"
                                  : "storage.open_trusted");
      opened.emplace(qpgc::storage::MmapSnapshot::Open(
          paths[0], qpgc::storage::LoadOptions{verified, verified}));
    }
    if (!opened->ok()) return std::nullopt;
    ScopedSpan span(t, "storage.first_answer");
    return opened->value().Reach(u, v);
  }

 private:
  using PinType = decltype(std::declval<const Service&>().Pin());

  std::unique_ptr<qpgc::SnapshotManager> manager_;
  std::unique_ptr<Service> service_;
};

// K hash shards behind ShardedQueryService.
class Routed final : public Deployment {
 public:
  Routed(const qpgc::Graph& g, uint32_t num_shards, uint64_t partition_seed,
         ThreadTrace* t) {
    qpgc::ShardedManagerOptions options;
    options.num_shards = num_shards;
    options.partition_seed = partition_seed;
    {
      ScopedSpan span(t, "serve.router.sharded_setup");
      manager_ = std::make_unique<qpgc::ShardedSnapshotManager>(g, options);
    }
    service_ = std::make_unique<qpgc::ShardedQueryService>(*manager_);
  }

  bool Reach(NodeId u, NodeId v, ThreadTrace* t) const override {
    if (t == nullptr) return service_->Reach(u, v);
    ScopedSpan root(t, "reach.query");
    std::shared_ptr<const qpgc::PinnedShards> pin;
    {
      ScopedSpan span(t, "serve.snapshot.pin");
      pin = service_->Pin();
    }
    ScopedSpan span(t, "serve.router.reach");
    return pin->Reach(u, v);
  }

  bool ReachRecordingMix(NodeId u, NodeId v,
                         std::vector<uint32_t>& mix) const override {
    const auto pin = service_->Pin();
    mix.clear();
    for (const uint64_t version : pin->versions()) {
      mix.push_back(static_cast<uint32_t>(version - 1));
    }
    return pin->Reach(u, v);
  }

  MatchResult Match(const PatternQuery& q, ThreadTrace* t) const override {
    if (t == nullptr) return service_->Match(q);
    ScopedSpan root(t, "match.query");
    std::shared_ptr<const qpgc::PinnedShards> pin;
    {
      ScopedSpan span(t, "serve.snapshot.pin");
      pin = service_->Pin();
    }
    const qpgc::StitchedPatternQuotient* st = nullptr;
    {
      ScopedSpan span(t, "serve.router.stitched");
      st = &pin->stitched();
    }
    MatchResult on_gr;
    {
      ScopedSpan span(t, "pattern.match_quotient");
      on_gr = qpgc::Match(st->gr, q);
    }
    ScopedSpan span(t, "core.expand");
    return qpgc::ExpandMatchWith(
        st->gr.num_nodes(), st->node_map,
        [&](NodeId block) {
          const auto& [s, c] = st->origin[block];
          return pin->shard(s).pattern_block_members(c);
        },
        on_gr);
  }

  void SweepProbe(NodeId u, NodeId v, ThreadTrace* t) const override {
    const auto pin = service_->Pin();
    const ServingSnapshot& home = pin->shard(manager_->partition().shard_of[u]);
    ScopedSpan span(t, "reach.sweep");
    (void)home.Reach(u, v);
  }

  WriteOutcome ApplyAndPublish(const UpdateBatch& batch, uint32_t batches_done,
                               ThreadTrace* t) override {
    WriteOutcome out;
    ScopedSpan root(t, "write.batch");
    {
      ScopedSpan span(t, "serve.write.apply");
      out.effective_updates = manager_->Apply(batch).effective_updates;
    }
    {
      ScopedSpan span(t, "serve.snapshot.publish");
      for (const qpgc::PublishStats& p : manager_->PublishAll()) {
        AddPublish(p, out.publish);
      }
    }
    ScopedSpan span(t, "serve.write.visible_pin");
    out.visible = true;
    for (const uint64_t version : service_->Pin()->versions()) {
      out.visible = out.visible && version == batches_done + 1u;
    }
    return out;
  }

  void TraceFreshPin(NodeId u, NodeId v, ThreadTrace* t) const override {
    const qpgc::PinnedShards pin(manager_->partition_ptr(),
                                 manager_->AcquireAll(), stitch_cache_);
    {
      ScopedSpan span(t, "serve.router.stitch");
      (void)pin.stitched();
    }
    ScopedSpan span(t, "serve.router.route_compile");
    (void)pin.Reach(u, v);
  }

  ServingShape Shape() const override {
    ServingShape shape;
    for (const auto& snap : manager_->AcquireAll()) AddShape(*snap, shape);
    for (uint32_t s = 0; s < manager_->num_shards(); ++s) {
      shape.boundary_exits += manager_->BoundaryExitCount(s);
      shape.boundary_entries += manager_->BoundaryEntryCount(s);
    }
    return shape;
  }

  // The fresh pins taken after each publish stitch through their own cache,
  // one Stitch per version vector, so its counters show how much of the
  // stitched quotient carried over between consecutive versions.
  double stitch_reuse() const override {
    return stitch_cache_->stats().reuse_ratio();
  }

  const qpgc::ShardPartition* partition() const override {
    return &manager_->partition();
  }

  std::vector<std::string> Save(const std::string& stem,
                                ThreadTrace* t) const override {
    const auto snaps = manager_->AcquireAll();
    std::vector<std::string> paths;
    for (uint32_t s = 0; s < snaps.size(); ++s) {
      qpgc::storage::SaveOptions options;
      options.shard = s;
      options.num_shards = static_cast<uint32_t>(snaps.size());
      options.partition = &manager_->partition();
      paths.push_back(stem + ".shard" + std::to_string(s) + ".snap");
      ScopedSpan span(t, "storage.save");
      if (!qpgc::storage::SaveSnapshot(*snaps[s], paths.back(), options)
               .ok()) {
        return {};
      }
    }
    return paths;
  }

  std::optional<bool> OpenAndReach(const std::vector<std::string>& paths,
                                   bool verified, NodeId u, NodeId v,
                                   ThreadTrace* t) const override {
    std::optional<qpgc::Result<qpgc::storage::LoadedShardSet>> set;
    {
      ScopedSpan span(t, verified ? "storage.load_shard_set"
                                  : "storage.load_shard_set_trusted");
      set.emplace(qpgc::storage::LoadShardSet(
          paths, qpgc::storage::LoadOptions{verified, verified}));
    }
    if (!set->ok()) return std::nullopt;
    ScopedSpan span(t, "storage.first_answer");
    const qpgc::PinnedShards pin(set->value().partition,
                                 set->value().snapshots);
    return pin.Reach(u, v);
  }

 private:
  std::unique_ptr<qpgc::ShardedSnapshotManager> manager_;
  std::unique_ptr<qpgc::ShardedQueryService> service_;
  // The traced fresh pins' own stitch cache, so timing them leaves the
  // service's cached pin and stitch counters as the readers found them.
  std::shared_ptr<qpgc::StitchCache> stitch_cache_ =
      std::make_shared<qpgc::StitchCache>();
};

}  // namespace

std::unique_ptr<Deployment> BuildDeployment(Kind kind, qpgc::Graph g,
                                            uint32_t num_shards,
                                            uint64_t partition_seed,
                                            ThreadTrace* t) {
  switch (kind) {
    case Kind::kLocal:
      return std::make_unique<Unsharded<qpgc::QueryService>>(std::move(g), t);
    case Kind::kCached:
      return std::make_unique<Unsharded<qpgc::CachedQueryService>>(
          std::move(g), t);
    case Kind::kRouted:
      return std::make_unique<Routed>(g, num_shards, partition_seed, t);
  }
  return nullptr;
}

std::vector<uint8_t> MmapReachProbe(const std::string& path,
                                    std::span<const ReachPair> pairs,
                                    ThreadTrace* t) {
  auto opened = qpgc::storage::MmapSnapshot::Open(path);
  if (!opened.ok()) return {};
  const qpgc::storage::MmapSnapshot& snap = opened.value();
  std::vector<uint8_t> answers;
  answers.reserve(pairs.size());
  for (const ReachPair& p : pairs) {
    ScopedSpan span(t, "storage.mmap_reach");
    answers.push_back(snap.Reach(p.u, p.v) ? 1 : 0);
  }
  return answers;
}

}  // namespace servebench
