#include "oracle.h"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <limits>
#include <thread>

namespace servebench {
namespace {

// The reach oracles run one BFS per distinct source (8192 sources on the
// uniform workloads) before and between the timed phases, so they sweep on
// up to this many threads.
constexpr unsigned kSweepThreads = 4;

// Runs sweep(begin, end) over [0, n) in contiguous chunks, one thread each.
// A chunk ends only between i - 1 and i where same_group(i - 1, i) is
// false, so items that share one BFS stay in one chunk.
template <typename SameGroup, typename Sweep>
void SweepInChunks(size_t n, SameGroup same_group, Sweep sweep) {
  const unsigned cpus = std::max(1u, std::thread::hardware_concurrency());
  const size_t chunks = std::min<size_t>({kSweepThreads, cpus, n / 64 + 1});
  std::vector<size_t> cuts{0};
  for (size_t c = 1; c < chunks; ++c) {
    size_t cut = std::max(cuts.back(), n * c / chunks);
    while (cut > 0 && cut < n && same_group(cut - 1, cut)) ++cut;
    cuts.push_back(cut);
  }
  cuts.push_back(n);
  std::vector<std::thread> workers;
  for (size_t c = 1; c < cuts.size(); ++c) {
    workers.emplace_back([&, c, cpus] {
      // The caller may be pinned to one CPU; its threads inherit that.
      cpu_set_t all;
      CPU_ZERO(&all);
      for (unsigned cpu = 0; cpu < cpus && cpu < CPU_SETSIZE; ++cpu) {
        CPU_SET(cpu, &all);
      }
      (void)pthread_setaffinity_np(pthread_self(), sizeof(all), &all);
      sweep(cuts[c - 1], cuts[c]);
    });
  }
  for (std::thread& w : workers) w.join();
}

}  // namespace

OracleState::OracleState(size_t num_nodes,
                         const std::vector<std::pair<NodeId, NodeId>>& edges)
    : out_(num_nodes) {
  for (const auto& [u, v] : edges) out_[u].push_back(v);
  for (auto& list : out_) {
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
  }
}

void OracleState::Apply(const qpgc::UpdateBatch& batch) {
  for (const qpgc::EdgeUpdate& e : batch.updates) {
    std::vector<NodeId>& list = out_[e.u];
    const auto it = std::lower_bound(list.begin(), list.end(), e.v);
    const bool present = it != list.end() && *it == e.v;
    if (e.is_insert && !present) list.insert(it, e.v);
    if (!e.is_insert && present) list.erase(it);
  }
}

OracleGraph OracleState::Freeze() const {
  OracleGraph g;
  g.offsets.reserve(out_.size() + 1);
  g.offsets.push_back(0);
  for (const auto& list : out_) {
    g.targets.insert(g.targets.end(), list.begin(), list.end());
    g.offsets.push_back(static_cast<uint32_t>(g.targets.size()));
  }
  return g;
}

OracleHistory::OracleHistory(const OracleState& initial,
                             std::vector<uint32_t> shard_of)
    : state_(initial), shard_of_(std::move(shard_of)) {
  versions_.push_back(state_.Freeze());
}

void OracleHistory::Apply(const qpgc::UpdateBatch& batch) {
  state_.Apply(batch);
  versions_.push_back(state_.Freeze());
}

void OracleHistory::ReachableFrom(std::span<const uint32_t> batches, NodeId s,
                                  std::vector<uint8_t>& marks,
                                  std::vector<NodeId>& queue) const {
  marks.assign(num_nodes(), 0);
  queue.clear();
  const auto out = [&](NodeId u) {
    const uint32_t b = shard_of_.empty() ? batches[0] : batches[shard_of_[u]];
    return versions_[b].Out(u);
  };
  for (const NodeId w : out(s)) {
    if (!marks[w]) {
      marks[w] = 1;
      queue.push_back(w);
    }
  }
  for (size_t head = 0; head < queue.size(); ++head) {
    for (const NodeId w : out(queue[head])) {
      if (!marks[w]) {
        marks[w] = 1;
        queue.push_back(w);
      }
    }
  }
}

std::vector<uint8_t> OracleReachAnswers(const OracleHistory& history,
                                        std::span<const uint32_t> batches,
                                        std::span<const ReachPair> pairs) {
  std::vector<uint32_t> order(pairs.size());
  for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](uint32_t a, uint32_t b) { return pairs[a].u < pairs[b].u; });
  std::vector<uint8_t> answers(pairs.size(), 0);
  SweepInChunks(
      order.size(),
      [&](size_t a, size_t b) { return pairs[order[a]].u == pairs[order[b]].u; },
      [&](size_t begin, size_t end) {
        std::vector<uint8_t> marks;
        std::vector<NodeId> queue;
        for (size_t k = begin; k < end; ++k) {
          const ReachPair& p = pairs[order[k]];
          if (k == begin || p.u != pairs[order[k - 1]].u) {
            history.ReachableFrom(batches, p.u, marks, queue);
          }
          answers[order[k]] = p.u == p.v || marks[p.v] != 0;
        }
      });
  return answers;
}

size_t CountWrongReaches(const OracleHistory& history,
                         const std::vector<std::vector<uint32_t>>& mixes,
                         std::span<const ReachPair> pool,
                         std::span<const RecordedReach> records) {
  std::vector<uint32_t> order(records.size());
  for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  const auto same_sweep = [&](uint32_t a, uint32_t b) {
    return records[a].mix == records[b].mix &&
           pool[records[a].pair].u == pool[records[b].pair].u;
  };
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    const RecordedReach& x = records[a];
    const RecordedReach& y = records[b];
    if (x.mix != y.mix) return x.mix < y.mix;
    return pool[x.pair].u < pool[y.pair].u;
  });
  std::atomic<size_t> wrong{0};
  SweepInChunks(
      order.size(),
      [&](size_t a, size_t b) { return same_sweep(order[a], order[b]); },
      [&](size_t begin, size_t end) {
        std::vector<uint8_t> marks;
        std::vector<NodeId> queue;
        size_t chunk_wrong = 0;
        for (size_t k = begin; k < end; ++k) {
          const RecordedReach& r = records[order[k]];
          const ReachPair& p = pool[r.pair];
          if (k == begin || !same_sweep(order[k - 1], order[k])) {
            history.ReachableFrom(mixes[r.mix], p.u, marks, queue);
          }
          const bool expected = p.u == p.v || marks[p.v] != 0;
          if (expected != (r.answer != 0)) chunk_wrong += r.count;
        }
        wrong += chunk_wrong;
      });
  return wrong;
}

OracleMatcher::OracleMatcher(const OracleGraph& g, std::vector<Label> labels)
    : labels_(std::move(labels)) {
  const size_t n = g.num_nodes();
  reverse_.offsets.assign(n + 1, 0);
  for (const NodeId v : g.targets) ++reverse_.offsets[v + 1];
  for (size_t i = 0; i < n; ++i) reverse_.offsets[i + 1] += reverse_.offsets[i];
  reverse_.targets.resize(g.num_edges());
  std::vector<uint32_t> fill(reverse_.offsets.begin(),
                             reverse_.offsets.end() - 1);
  for (NodeId u = 0; u < n; ++u) {
    for (const NodeId v : g.Out(u)) reverse_.targets[fill[v]++] = u;
  }
}

void OracleMatcher::MarkWithin(const std::vector<NodeId>& targets, uint32_t k,
                               std::vector<uint8_t>& marks) const {
  marks.assign(labels_.size(), 0);
  std::vector<NodeId> frontier(targets.begin(), targets.end());
  std::vector<NodeId> next;
  for (uint64_t depth = 1; depth <= k && !frontier.empty(); ++depth) {
    next.clear();
    for (const NodeId x : frontier) {
      for (const NodeId p : reverse_.Out(x)) {
        if (!marks[p]) {
          marks[p] = 1;
          next.push_back(p);
        }
      }
    }
    frontier.swap(next);
  }
}

OracleMatch OracleMatcher::Run(const qpgc::PatternQuery& q) const {
  std::vector<std::vector<NodeId>> sim(q.num_nodes());
  for (NodeId v = 0; v < labels_.size(); ++v) {
    for (uint32_t u = 0; u < q.num_nodes(); ++u) {
      if (labels_[v] == q.label(u)) sim[u].push_back(v);
    }
  }
  std::vector<uint8_t> marks;
  for (bool changed = true; changed;) {
    changed = false;
    for (const qpgc::PatternEdge& e : q.edges()) {
      const uint32_t k = e.bound == qpgc::kStarBound
                             ? std::numeric_limits<uint32_t>::max()
                             : e.bound;
      MarkWithin(sim[e.to], k, marks);
      const size_t before = sim[e.from].size();
      std::erase_if(sim[e.from], [&](NodeId v) { return marks[v] == 0; });
      changed = changed || sim[e.from].size() != before;
    }
  }
  OracleMatch result;
  result.matched = std::all_of(sim.begin(), sim.end(),
                               [](const auto& s) { return !s.empty(); });
  result.sets = result.matched ? std::move(sim)
                               : std::vector<std::vector<NodeId>>(q.num_nodes());
  return result;
}

bool MatchAgrees(const OracleMatch& oracle, const qpgc::MatchResult& got) {
  return oracle.matched == got.matched && oracle.sets == got.match_sets;
}

bool QuotientWithin(size_t quotient_nodes, size_t original_nodes) {
  return quotient_nodes <= original_nodes;
}

}  // namespace servebench
