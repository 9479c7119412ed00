// servebench: qpgc's end-to-end serving benchmark.
//
//   servebench --workload citation-local|social-hot-cached|web-routed-k4|all
//              --seed N --seconds S --trace 0|1 [--out DIR]
//
// A run builds one deployment from a generated graph and drives it through
// the library's public functions, phase by phase, each op type in its own
// phase with a fixed operation count (a per-workload count per second of
// --seconds, so the same arguments always attempt the same operations):
//
//   setup      generated graph -> compression, partition, v1 publish ->
//              first answered reach
//   properties |Vr| <= |V| and |Vp| <= |V| per shard; Reach(v, v) is true
//   reach      2 closed-loop clients, reach through the service facade
//   match      the same 2 clients, full Match expanded through P; the
//              reach and match rounds alternate
//   write      1 writer: Apply + publish + fresh pin per batch, while 1
//              reader keeps issuing reach queries
//   cold       save the final state, then repeatedly open it verified and
//              answer one reach
//
// Every answer is checked against oracles held apart from the library
// (oracle.h); a wrong answer is a failed operation and makes the run
// incorrect. The last stdout line is one JSON object: correct, attempted,
// failed and the metrics — the end-to-end ones untraced, the per-layer ones
// with --trace 1. A traced run records spans around every call into a
// layer (sampled for the high-rate reach clients), replays set-up and the
// write path on its own copy of the state to split them by layer, prints
// each layer's self time, and writes the spans to DIR as a Chrome trace.

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <barrier>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <functional>
#include <latch>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bisim/max_bisimulation.h"
#include "core/pattern_scheme.h"
#include "deployment.h"
#include "gen/random_models.h"
#include "gen/uniform.h"
#include "gen/update_gen.h"
#include "graph/csr.h"
#include "graph/shard_view.h"
#include "graph/update.h"
#include "inc/inc_pcm.h"
#include "inc/inc_rcm.h"
#include "oracle.h"
#include "reach/compress_r.h"
#include "serve/load_gen.h"
#include "serve/snapshot_manager.h"
#include "trace.h"
#include "util/rng.h"

namespace servebench {
namespace {

constexpr size_t kNodes = 30000;
// Each workload serves one fixed generated graph (its dataset) and hash
// partition; --seed draws the traffic: reach pairs, patterns and update
// batches. A graph drawn per seed moved the reach median by up to 2x
// between seeds (the cost of a reach depends on how much of the graph its
// source reaches), which buried the run-to-run signal.
constexpr uint64_t kDatasetSeed = 1;
constexpr size_t kBatchSize = 16;
// Enough patterns that the match tail is not one pattern's cost.
constexpr size_t kPatterns = 128;
constexpr size_t kReflexiveProbes = 256;
constexpr int kClients = 2;
// Each reader cycles through this many pre-drawn pool indexes.
constexpr size_t kDraws = 1 << 16;
// Closed-loop phases run in kRounds rounds of at least kMinOpsPerRound ops
// (see ClosedLoop); the live reader's latencies are split by kLiveRounds
// parts of the write phase.
constexpr size_t kRounds = 8;
constexpr size_t kMinOpsPerRound = 1000;
constexpr size_t kLiveRounds = 4;

enum class GraphModel { kCitation, kSocial, kWeb };
enum class PairShape { kUniform, kZipfHotSet };
enum class Churn { kAppend, kMixed };

// One workload: what is generated, how it is served, and how many
// operations of each type one second of --seconds buys (calibrated on a
// 4-core machine so a run measures for about --seconds).
struct WorkloadSpec {
  const char* name;
  GraphModel model;
  Kind kind;
  uint32_t shards;
  PairShape pairs;
  Churn churn;
  double reach_ops_per_s;
  double match_ops_per_s;
  double batches_per_s;
  double opens_per_s;
  // Spans are recorded for one reach query in every `trace_every`.
  size_t trace_every;
};

constexpr WorkloadSpec kWorkloads[] = {
    {"citation-local", GraphModel::kCitation, Kind::kLocal, 1,
     PairShape::kUniform, Churn::kAppend, 16000, 700, 0.8, 20, 4},
    {"social-hot-cached", GraphModel::kSocial, Kind::kCached, 1,
     PairShape::kZipfHotSet, Churn::kMixed, 600000, 540, 4, 40, 256},
    {"web-routed-k4", GraphModel::kWeb, Kind::kRouted, 4, PairShape::kUniform,
     Churn::kMixed, 1200, 540, 1.2, 10, 1},
};


// ---------------------------------------------------------------------------
// Inputs. Everything below derives from --seed; the library receives only
// the generated graph, queries and batches.
// ---------------------------------------------------------------------------

qpgc::Graph MakeGraph(GraphModel model, uint64_t seed) {
  qpgc::Graph g;
  switch (model) {
    case GraphModel::kCitation:
      g = qpgc::CitationDag(kNodes, 6, 0.5, seed);
      qpgc::AssignZipfLabels(g, 8, 0.9, seed ^ 0x1abe1);
      break;
    case GraphModel::kSocial:
      g = qpgc::PreferentialAttachment(kNodes, 4, 0.45, seed);
      qpgc::AssignZipfLabels(g, 4, 1.1, seed ^ 0x1abe1);
      break;
    case GraphModel::kWeb:
      g = qpgc::CopyingModel(kNodes, 5, 0.6, seed);
      qpgc::AssignZipfLabels(g, 6, 0.9, seed ^ 0x1abe1);
      break;
  }
  return g;
}

struct Inputs {
  qpgc::Graph graph;
  std::vector<Label> labels;
  std::vector<std::pair<NodeId, NodeId>> edges;
  // Quiescent reach: a pool of pairs; each client runs `reach_per_client`
  // queries, cycling through its own draw of kDraws pool indexes. The live
  // reader cycles through `live_ops`, over the first `live_pairs` entries.
  std::vector<ReachPair> pool;
  size_t live_pairs = 0;
  size_t reach_per_client = 0;
  std::vector<uint32_t> reach_ops[kClients];
  std::vector<uint32_t> live_ops;
  std::vector<qpgc::PatternQuery> patterns;
  std::vector<uint32_t> match_ops[kClients];
  std::vector<qpgc::UpdateBatch> batches;
  std::vector<ReachPair> reflexive;
};

std::vector<ReachPair> MakePairs(qpgc::Rng& rng, size_t sources,
                                 size_t per_source) {
  std::vector<ReachPair> pairs;
  for (size_t s = 0; s < sources; ++s) {
    const NodeId u = static_cast<NodeId>(rng.Uniform(kNodes));
    for (size_t i = 0; i < per_source; ++i) {
      pairs.push_back({u, static_cast<NodeId>(rng.Uniform(kNodes))});
    }
  }
  return pairs;
}

Inputs MakeInputs(const WorkloadSpec& w, uint64_t seed, double seconds) {
  Inputs in;
  in.graph = MakeGraph(w.model, kDatasetSeed);
  in.labels = in.graph.labels();
  in.graph.ForEachEdge([&](NodeId u, NodeId v) { in.edges.push_back({u, v}); });
  qpgc::Rng rng(seed * 0x9e3779b97f4a7c15ull + 17);

  const auto ops_for = [&](double per_s) {
    return std::max<size_t>(kRounds * kMinOpsPerRound,
                            static_cast<size_t>(per_s * seconds)) /
           kClients;
  };
  in.reach_per_client = ops_for(w.reach_ops_per_s);
  std::optional<qpgc::ZipfSampler> zipf;
  if (w.pairs == PairShape::kUniform) {
    // 8192 sources x 2 targets, so the latency quantiles rest on many
    // sources: a reach costs what its source reaches, and citation's p50
    // sits where the cost climbs from 5 to 18 us between p45 and p55, so
    // with 2048 sources it moved by 0.2 of itself from seed to seed. The
    // live reader uses the first 64 sources (its answers are checked per
    // pinned version, one BFS per source and version).
    in.pool = MakePairs(rng, 8192, 2);
    in.live_pairs = 64 * 2;
  } else {
    // A hot set of 1024 pairs (128 sources x 8 targets) in random rank
    // order, drawn Zipf(1.1) by every reader.
    in.pool = MakePairs(rng, 128, 8);
    rng.Shuffle(in.pool);
    in.live_pairs = in.pool.size();
    zipf.emplace(in.pool.size(), 1.1);
  }
  const auto draw = [&](std::vector<uint32_t>& ops, size_t range) {
    for (size_t i = 0; i < kDraws; ++i) {
      ops.push_back(static_cast<uint32_t>(zipf ? zipf->Sample(rng)
                                               : rng.Uniform(range)));
    }
  };
  for (auto& ops : in.reach_ops) draw(ops, in.pool.size());
  draw(in.live_ops, in.live_pairs);

  in.patterns = qpgc::ServeLoadPatterns(in.graph, kPatterns, seed ^ 0x9a77);
  const size_t match_per_client = ops_for(w.match_ops_per_s);
  for (auto& ops : in.match_ops) {
    for (size_t i = 0; i < match_per_client; ++i) {
      ops.push_back(static_cast<uint32_t>(rng.Uniform(in.patterns.size())));
    }
  }

  const size_t num_batches =
      std::max<size_t>(8, static_cast<size_t>(w.batches_per_s * seconds));
  if (w.churn == Churn::kAppend) {
    // New citations from the newest 1% of papers to older ones (ids follow
    // publication order, so the graph stays a DAG).
    const NodeId newest = static_cast<NodeId>(kNodes - kNodes / 100);
    for (size_t b = 0; b < num_batches; ++b) {
      qpgc::UpdateBatch batch;
      for (size_t i = 0; i < kBatchSize; ++i) {
        const NodeId u =
            newest + static_cast<NodeId>(rng.Uniform(kNodes - newest));
        batch.Insert(u, static_cast<NodeId>(rng.Uniform(u)));
      }
      in.batches.push_back(std::move(batch));
    }
  } else {
    // Uniform mixed churn, each batch drawn against the graph the previous
    // batches left.
    qpgc::Graph evolving = in.graph;
    for (size_t b = 0; b < num_batches; ++b) {
      in.batches.push_back(
          qpgc::RandomMixed(evolving, kBatchSize, 0.5, seed * 131 + b));
      (void)qpgc::ApplyBatch(evolving, in.batches.back());
    }
  }

  for (size_t i = 0; i < kReflexiveProbes; ++i) {
    const NodeId v = static_cast<NodeId>(rng.Uniform(kNodes));
    in.reflexive.push_back({v, v});
  }
  return in;
}

// ---------------------------------------------------------------------------
// Measurement helpers.
// ---------------------------------------------------------------------------

// Nearest-rank percentile of `v` (q in (0, 1]); 0 for an empty sample.
double Percentile(std::vector<int64_t> v, double q) {
  if (v.empty()) return 0.0;
  const size_t rank = static_cast<size_t>(std::ceil(q * v.size()));
  const size_t k = std::clamp<size_t>(rank, 1, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + k, v.end());
  return static_cast<double>(v[k]);
}

// Latencies in ns: all of them until kCap were seen, then a uniform
// reservoir sample of all seen (Algorithm R), so memory stays bounded
// however fast a loop runs.
class LatencySample {
 public:
  static constexpr size_t kCap = 1 << 17;

  explicit LatencySample(uint64_t seed) : rng_(seed) {}

  void Add(int64_t ns) {
    ++seen_;
    if (kept_.size() < kCap) {
      kept_.push_back(ns);
      return;
    }
    const uint64_t j = rng_.Uniform(seen_);
    if (j < kCap) kept_[j] = ns;
  }
  uint64_t seen() const { return seen_; }
  const std::vector<int64_t>& kept() const { return kept_; }

 private:
  qpgc::Rng rng_;
  uint64_t seen_ = 0;
  std::vector<int64_t> kept_;
};

struct PhaseTally {
  std::string name;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double secs = 0.0;
};

class Report {
 public:
  PhaseTally& Phase(const std::string& name) {
    phases_.push_back({name, 0, 0, 0.0});
    return phases_.back();
  }
  void Metric(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  void TakeMetrics(const Report& other) {
    metrics_.insert(metrics_.end(), other.metrics_.begin(),
                    other.metrics_.end());
  }
  // Folds another workload's run in, its metrics keyed workload/metric.
  void Absorb(const std::string& workload, const Report& other) {
    for (const auto& p : other.phases_) {
      phases_.push_back({workload + "/" + p.name, p.attempted, p.failed,
                         p.secs});
    }
    for (const auto& m : other.metrics_) {
      metrics_.push_back({workload + "/" + m.name, m.value, m.unit});
    }
  }
  uint64_t attempted() const {
    uint64_t a = 0;
    for (const auto& p : phases_) a += p.attempted;
    return a;
  }
  uint64_t failed() const {
    uint64_t f = 0;
    for (const auto& p : phases_) f += p.failed;
    return f;
  }
  void PrintHuman(const char* workload, const char* tag) const {
    for (const auto& p : phases_) {
      std::printf("[%s] phase %-10s attempted=%llu failed=%llu secs=%.3f\n",
                  workload, p.name.c_str(),
                  static_cast<unsigned long long>(p.attempted),
                  static_cast<unsigned long long>(p.failed), p.secs);
    }
    for (const auto& m : metrics_) {
      std::printf("[%s] %s %s = %.6g %s\n", workload, tag, m.name.c_str(),
                  m.value, m.unit.c_str());
    }
  }
  std::string Json() const {
    std::string s = "{\"correct\": ";
    s += failed() == 0 ? "true" : "false";
    s += ", \"attempted\": " + std::to_string(attempted());
    s += ", \"failed\": " + std::to_string(failed());
    s += ", \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.17g", metrics_[i].value);
      s += (i ? ", " : "") + std::string("\"") + metrics_[i].name +
           "\": {\"value\": " + buf + ", \"unit\": \"" + metrics_[i].unit +
           "\"}";
    }
    return s + "}}";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::deque<PhaseTally> phases_;  // Phase() hands out references
  std::vector<Entry> metrics_;
};

double Secs(int64_t ns) { return static_cast<double>(ns) / 1e9; }

// Keeps the calling thread on one CPU (when there are that many), so the
// two clients of a phase always run side by side on distinct CPUs.
void PinToCpu(unsigned cpu) {
  if (cpu >= std::thread::hardware_concurrency()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

// What a closed loop of kClients clients measured. The op count of each
// client is split into kRounds rounds that start together; rate, median and
// p99 are taken per round and reported as their median over rounds, so a
// round that a burst on a shared machine slowed does not move the result.
// A round's rate is the sum of its clients' rates, each client's ops over
// its own time in the round: a client that finishes first does not wait on
// the other in the figure. Every round holds at least kMinOpsPerRound ops,
// so its p99 has at least ten samples beyond it.
struct LoopResult {
  uint64_t ops = 0;
  int64_t wall_ns = 0;
  double qps = 0.0;
  double p50_ns = 0.0;
  double p99_ns = 0.0;
};

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0.0
                   : (v[(v.size() - 1) / 2] + v[v.size() / 2]) / 2.0;
}

// kClients client threads, pinned to CPUs 1..kClients, that run one job at
// a time, all of them together. They live for the whole quiescent part of
// the run, so the per-thread state of the library (its query scratch) and
// of the tracer stays warm from one round to the next.
class ClientPool {
 public:
  using Job = std::function<void(int client, ThreadTrace* trace)>;

  explicit ClientPool(Tracer& tracer) : sync_(kClients + 1) {
    for (int c = 0; c < kClients; ++c) {
      threads_.emplace_back([this, &tracer, c] {
        PinToCpu(1 + c);
        ThreadTrace* const t = tracer.NewThread();
        for (;;) {
          sync_.arrive_and_wait();
          if (job_ == nullptr) return;
          (*job_)(c, t);
          sync_.arrive_and_wait();
        }
      });
    }
  }
  ~ClientPool() {
    job_ = nullptr;
    sync_.arrive_and_wait();
    for (auto& th : threads_) th.join();
  }

  // Runs job on every client at once and returns the wall time from their
  // common start to the end of the last one.
  int64_t Run(const Job& job) {
    job_ = &job;
    sync_.arrive_and_wait();
    const int64_t t0 = NowNs();
    sync_.arrive_and_wait();
    return NowNs() - t0;
  }

 private:
  std::barrier<> sync_;
  const Job* job_ = nullptr;  // written only while the clients wait
  std::vector<std::thread> threads_;
};

// Runs op(client, i, trace) for i in [0, per_client) on each client of a
// ClientPool, one round per RunRound call, timing every call. check(client,
// i, answer) then checks the op's answer outside the timed region, so the
// latencies are the program's alone. The caller alternates the rounds of
// two loops, so each loop's median over rounds spans the whole quiescent
// part of the run rather than a few seconds of it: the host's load drifts
// over tens of seconds.
template <typename Op, typename Check>
class ClosedLoop {
 public:
  ClosedLoop(size_t per_client, uint64_t seed, Op op, Check check)
      : per_client_(per_client), op_(op), check_(check) {
    for (size_t r = 0; r < kRounds; ++r) {
      lat_.emplace_back();
      for (int c = 0; c < kClients; ++c) {
        lat_[r].emplace_back(seed * 1000 + r * kClients + c);
      }
    }
  }

  void RunRound(ClientPool& clients, size_t r) {
    int64_t busy_ns[kClients] = {};
    out_.wall_ns += clients.Run([&](int c, ThreadTrace* t) {
      int64_t busy = 0;
      for (size_t i = per_client_ * r / kRounds;
           i < per_client_ * (r + 1) / kRounds; ++i) {
        const int64_t t0 = NowNs();
        const auto got = op_(c, i, t);
        const int64_t ns = NowNs() - t0;
        busy += ns;
        lat_[r][c].Add(ns);
        check_(c, i, got);
      }
      busy_ns[c] = busy;
    });
    std::vector<int64_t> round;
    double qps = 0.0;
    for (int c = 0; c < kClients; ++c) {
      const LatencySample& s = lat_[r][c];
      out_.ops += s.seen();
      qps += static_cast<double>(s.seen()) / Secs(busy_ns[c]);
      round.insert(round.end(), s.kept().begin(), s.kept().end());
    }
    round_qps_.push_back(qps);
    round_p50_.push_back(Percentile(round, 0.50));
    round_p99_.push_back(Percentile(std::move(round), 0.99));
  }

  // The totals and the medians over the rounds run so far.
  LoopResult Result() const {
    LoopResult out = out_;
    out.qps = Median(round_qps_);
    out.p50_ns = Median(round_p50_);
    out.p99_ns = Median(round_p99_);
    return out;
  }

 private:
  const size_t per_client_;
  Op op_;
  Check check_;
  std::vector<std::vector<LatencySample>> lat_;  // [round][client]
  LoopResult out_;
  std::vector<double> round_qps_, round_p50_, round_p99_;
};

// ---------------------------------------------------------------------------
// Traced-only replays: set-up and the write path re-run step by step on a
// copy of the state the benchmark builds itself, through the same calls
// SnapshotManager's constructor and Apply make, in the same order.
// ---------------------------------------------------------------------------

struct ReplayShard {
  qpgc::Graph g;
  qpgc::ReachCompression rc;
  qpgc::PatternCompression pc;
};

struct WriteReplay {
  qpgc::IncRcmStats rcm;
  qpgc::IncPcmStats pcm;
};

std::vector<ReplayShard> ReplaySetup(const qpgc::Graph& g, uint32_t shards,
                                     uint64_t seed,
                                     std::optional<qpgc::ShardPartition>& part,
                                     ThreadTrace* t) {
  ScopedSpan root(t, "replay.setup");
  if (shards > 1) {
    ScopedSpan span(t, "graph.partition");
    part = qpgc::BuildPartition(qpgc::PartitionerKind::kHash, g, shards, seed);
  }
  std::vector<ReplayShard> out(shards);
  for (uint32_t s = 0; s < shards; ++s) {
    ReplayShard& r = out[s];
    if (shards > 1) {
      ScopedSpan span(t, "graph.materialize_shard");
      r.g = qpgc::MaterializeShard(g, *part, s);
    } else {
      r.g = g;
    }
    {
      ScopedSpan span(t, "reach.compress_r");
      r.rc = qpgc::CompressR(r.g);
    }
    {
      ScopedSpan span(t, "core.compress_b");
      const qpgc::CsrGraph frozen(r.g);
      qpgc::Partition p;
      {
        ScopedSpan inner(t, "bisim.max_bisim");
        p = qpgc::MaxBisimulation(frozen);
      }
      r.pc = qpgc::CompressBFromPartition(frozen, p);
    }
    qpgc::Graph g_copy = r.g;
    qpgc::ReachCompression rc_copy = r.rc;
    qpgc::PatternCompression pc_copy = r.pc;
    std::unique_ptr<qpgc::SnapshotManager> manager;
    {
      ScopedSpan span(t, "serve.snapshot.first_publish");
      manager = std::make_unique<qpgc::SnapshotManager>(
          std::move(g_copy), std::move(rc_copy), std::move(pc_copy));
    }
  }
  return out;
}

WriteReplay ReplayWrites(std::vector<ReplayShard>& shards,
                         const std::optional<qpgc::ShardPartition>& part,
                         const std::vector<qpgc::UpdateBatch>& batches,
                         ThreadTrace* t) {
  ScopedSpan root(t, "replay.write");
  WriteReplay out;
  for (const qpgc::UpdateBatch& batch : batches) {
    const std::vector<qpgc::UpdateBatch> split =
        part ? qpgc::SplitBatchByShard(batch, *part)
             : std::vector<qpgc::UpdateBatch>{batch};
    for (size_t s = 0; s < shards.size(); ++s) {
      if (split[s].empty()) continue;
      ReplayShard& r = shards[s];
      qpgc::UpdateBatch effective;
      {
        ScopedSpan span(t, "graph.apply_batch");
        effective = qpgc::ApplyBatch(r.g, split[s]);
      }
      if (effective.empty()) continue;
      {
        ScopedSpan span(t, "inc.inc_rcm");
        out.rcm.Accumulate(qpgc::IncRCM(r.g, effective, r.rc));
      }
      ScopedSpan span(t, "inc.inc_pcm");
      out.pcm.Accumulate(qpgc::IncPCM(r.g, effective, r.pc));
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// One workload run.
// ---------------------------------------------------------------------------

struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir;
};

// Finds (or appends) `mix` in `mixes`, starting from the most recent.
uint32_t MixIndex(std::vector<std::vector<uint32_t>>& mixes,
                  const std::vector<uint32_t>& mix) {
  for (size_t i = mixes.size(); i-- > 0;) {
    if (mixes[i] == mix) return static_cast<uint32_t>(i);
  }
  mixes.push_back(mix);
  return static_cast<uint32_t>(mixes.size() - 1);
}

Report RunWorkload(const WorkloadSpec& w, const RunOptions& opt) {
  Report report;
  PinToCpu(0);  // set-up, the writer and the cold opens run here
  Tracer tracer(opt.trace);
  ThreadTrace* const main_trace = tracer.NewThread();
  const char* const name = w.name;

  Inputs in = MakeInputs(w, opt.seed, opt.seconds);
  const size_t n = in.graph.num_nodes();
  const OracleState initial_state(n, in.edges);
  std::optional<qpgc::Graph> replay_graph;
  if (opt.trace) replay_graph = in.graph;

  // --- setup: generated graph in memory -> first answered query ----------
  PhaseTally& setup = report.Phase("setup");
  const int64_t setup_start = NowNs();
  std::unique_ptr<Deployment> dep = BuildDeployment(
      w.kind, std::move(in.graph), w.shards, kDatasetSeed, main_trace);
  const bool first_answer = dep->Reach(in.pool[0].u, in.pool[0].v, main_trace);
  const int64_t setup_ns = NowNs() - setup_start;
  setup.secs = Secs(setup_ns);

  std::vector<uint32_t> shard_of;
  if (dep->partition() != nullptr) shard_of = dep->partition()->shard_of;
  OracleHistory history(initial_state, shard_of);
  const std::vector<uint32_t> mix0(w.shards, 0);
  const std::vector<uint8_t> expected0 =
      OracleReachAnswers(history, mix0, in.pool);
  setup.attempted = 1;
  setup.failed = first_answer != (expected0[0] != 0);

  // --- properties -----------------------------------------------------------
  PhaseTally& props = report.Phase("properties");
  const ServingShape shape0 = dep->Shape();
  for (size_t s = 0; s < shape0.reach_nodes.size(); ++s) {
    props.attempted += 2;
    props.failed +=
        !QuotientWithin(shape0.reach_nodes[s], shape0.shard_nodes[s]);
    props.failed +=
        !QuotientWithin(shape0.pattern_nodes[s], shape0.shard_nodes[s]);
  }
  const std::vector<uint8_t> reflexive =
      OracleReachAnswers(history, mix0, in.reflexive);
  for (size_t i = 0; i < in.reflexive.size(); ++i) {
    ++props.attempted;
    props.failed +=
        dep->Reach(in.reflexive[i].u, in.reflexive[i].v, nullptr) !=
        (reflexive[i] != 0);
  }

  // --- reach and match: 2 closed-loop clients each -------------------------
  // The reach and match rounds alternate; each round runs one op type only.
  PhaseTally& reach = report.Phase("reach");
  PhaseTally& match = report.Phase("match");
  std::vector<OracleMatch> match_oracle;
  {
    const OracleMatcher matcher(history.version(0), in.labels);
    for (const auto& q : in.patterns) match_oracle.push_back(matcher.Run(q));
  }
  uint64_t reach_failed[kClients] = {};
  uint64_t match_failed[kClients] = {};
  uint64_t match_pairs[kClients] = {};
  ClosedLoop reach_rounds(
      in.reach_per_client, opt.seed,
      [&](int c, size_t i, ThreadTrace* t) {
        const ReachPair& p = in.pool[in.reach_ops[c][i % kDraws]];
        return dep->Reach(p.u, p.v, i % w.trace_every == 0 ? t : nullptr);
      },
      [&](int c, size_t i, bool got) {
        reach_failed[c] += got != (expected0[in.reach_ops[c][i % kDraws]] != 0);
      });
  ClosedLoop match_rounds(
      in.match_ops[0].size(), opt.seed + kClients,
      [&](int c, size_t i, ThreadTrace* t) {
        return dep->Match(in.patterns[in.match_ops[c][i]], t);
      },
      [&](int c, size_t i, const qpgc::MatchResult& got) {
        match_failed[c] += !MatchAgrees(match_oracle[in.match_ops[c][i]], got);
        match_pairs[c] += got.TotalPairs();
      });
  // Match reads no answer cache, so these counters are the reach rounds'.
  const std::optional<qpgc::CacheStats> cache_before = dep->cache_stats();
  {
    ClientPool clients(tracer);
    for (size_t r = 0; r < kRounds; ++r) {
      reach_rounds.RunRound(clients, r);
      match_rounds.RunRound(clients, r);
    }
  }
  const std::optional<qpgc::CacheStats> cache_after = dep->cache_stats();
  const LoopResult reach_loop = reach_rounds.Result();
  const LoopResult match_loop = match_rounds.Result();
  reach.attempted = reach_loop.ops;
  for (const uint64_t f : reach_failed) reach.failed += f;
  reach.secs = Secs(reach_loop.wall_ns);
  match.attempted = match_loop.ops;
  uint64_t answer_pairs = 0;
  for (int c = 0; c < kClients; ++c) {
    match.failed += match_failed[c];
    answer_pairs += match_pairs[c];
  }
  match.secs = Secs(match_loop.wall_ns);

  // --- write: 1 writer, 1 reader beside it ----------------------------------
  PhaseTally& write = report.Phase("write");
  std::vector<int64_t> visible_lat;
  PublishTotals publish;
  size_t effective_updates = 0;
  // The live reader's latencies, by the quarter of the batches the writer
  // was in; its p99 is the median of the rounds' p99s, as in ClosedLoop.
  std::vector<LatencySample> live_lat;
  for (size_t r = 0; r < kLiveRounds; ++r) {
    live_lat.emplace_back(opt.seed * 7 + r);
  }
  std::atomic<size_t> live_round{0};
  std::vector<std::vector<uint32_t>> mixes;
  // live_counts[mix][pair][answer]: every live answer, counted by what it
  // read, so all of them can be checked at the end in bounded memory.
  std::vector<std::vector<std::array<uint32_t, 2>>> live_counts;
  int64_t write_ns = 0;
  {
    std::atomic<bool> done{false};
    std::latch start(2);
    std::thread reader([&] {
      PinToCpu(1);
      std::vector<uint32_t> mix;
      start.arrive_and_wait();
      for (size_t i = 0; !done.load(std::memory_order_relaxed); ++i) {
        const uint32_t idx = in.live_ops[i % in.live_ops.size()];
        const ReachPair& p = in.pool[idx];
        const int64_t t0 = NowNs();
        const bool got = dep->ReachRecordingMix(p.u, p.v, mix);
        live_lat[live_round.load(std::memory_order_relaxed)].Add(NowNs() - t0);
        const uint32_t m = MixIndex(mixes, mix);
        if (m == live_counts.size()) {
          live_counts.emplace_back(in.live_pairs, std::array<uint32_t, 2>{});
        }
        ++live_counts[m][idx][got ? 1 : 0];
      }
    });
    start.arrive_and_wait();
    const int64_t t0 = NowNs();
    for (size_t b = 0; b < in.batches.size(); ++b) {
      live_round.store(b * kLiveRounds / in.batches.size(),
                       std::memory_order_relaxed);
      const int64_t b0 = NowNs();
      const WriteOutcome out = dep->ApplyAndPublish(
          in.batches[b], static_cast<uint32_t>(b + 1), main_trace);
      visible_lat.push_back(NowNs() - b0);
      ++write.attempted;
      write.failed += !out.visible;
      effective_updates += out.effective_updates;
      publish.freeze_secs += out.publish.freeze_secs;
      publish.swap_secs += out.publish.swap_secs;
      publish.summary_freeze_secs += out.publish.summary_freeze_secs;
      publish.sides_refrozen += out.publish.sides_refrozen;
      publish.publishes += out.publish.publishes;
      if (opt.trace) {
        const ReachPair& p = in.pool[b % in.pool.size()];
        dep->TraceFreshPin(p.u, p.v, main_trace);
      }
    }
    write_ns = NowNs() - t0;
    done.store(true);
    reader.join();
  }
  write.secs = Secs(write_ns);
  for (const auto& batch : in.batches) history.Apply(batch);
  {
    std::vector<RecordedReach> records;
    for (uint32_t m = 0; m < live_counts.size(); ++m) {
      for (uint32_t idx = 0; idx < live_counts[m].size(); ++idx) {
        for (uint8_t a = 0; a < 2; ++a) {
          const uint32_t count = live_counts[m][idx][a];
          if (count > 0) records.push_back({m, idx, a, count});
          write.attempted += count;
        }
      }
    }
    write.failed += CountWrongReaches(history, mixes, in.pool, records);
  }

  // --- cold: save, then verified open + first reach -------------------------
  PhaseTally& cold = report.Phase("cold");
  const std::vector<uint32_t> mix_final(w.shards,
                                        static_cast<uint32_t>(in.batches.size()));
  const std::vector<uint8_t> expected_final =
      OracleReachAnswers(history, mix_final, in.pool);
  std::filesystem::create_directories(opt.out_dir);
  const std::string stem = opt.out_dir + "/" + name;
  const std::vector<std::string> paths = dep->Save(stem, main_trace);
  // The saved files live only as long as this run needs them.
  struct RemoveOnExit {
    const std::vector<std::string>& paths;
    ~RemoveOnExit() {
      std::error_code ec;
      for (const auto& p : paths) std::filesystem::remove(p, ec);
    }
  } remove_artifacts{paths};
  size_t artifact_bytes = 0;
  for (const auto& p : paths) artifact_bytes += std::filesystem::file_size(p);
  const size_t opens =
      std::max<size_t>(20, static_cast<size_t>(w.opens_per_s * opt.seconds));
  std::vector<int64_t> open_lat;
  const int64_t cold_start = NowNs();
  for (size_t i = 0; i < opens; ++i) {
    const size_t idx = i % in.pool.size();
    const int64_t t0 = NowNs();
    const std::optional<bool> got = dep->OpenAndReach(
        paths, /*verified=*/true, in.pool[idx].u, in.pool[idx].v, main_trace);
    open_lat.push_back(NowNs() - t0);
    ++cold.attempted;
    cold.failed += !got.has_value() || *got != (expected_final[idx] != 0);
  }
  cold.secs = Secs(NowNs() - cold_start);
  const ServingShape shape_final = dep->Shape();

  // --- end-to-end metrics ---------------------------------------------------
  Report e2e;
  e2e.Metric("setup_s", Secs(setup_ns), "s");
  e2e.Metric("reach_qps", reach_loop.qps, "queries/s");
  e2e.Metric("reach_p50_us", reach_loop.p50_ns / 1e3, "us");
  e2e.Metric("reach_p99_us", reach_loop.p99_ns / 1e3, "us");
  e2e.Metric("match_qps", match_loop.qps, "queries/s");
  e2e.Metric("match_p50_ms", match_loop.p50_ns / 1e6, "ms");
  // Not an end-to-end metric either: the tail of a 1 ms match moved by more
  // than the largest bound between two ten-seed sets of the same code while
  // the host was busy elsewhere (README). Printed here, and reported per
  // layer by the traced run.
  const double match_p99_ms = match_loop.p99_ns / 1e6;
  std::printf("[%s] match p99_ms = %.6g ms\n", name, match_p99_ms);
  e2e.Metric("update_visible_p50_ms", Percentile(visible_lat, 0.50) / 1e6,
             "ms");
  e2e.Metric("updates_per_s", effective_updates / Secs(write_ns), "updates/s");
  std::vector<double> live_p99;
  uint64_t live_reads = 0;
  for (const LatencySample& s : live_lat) {
    live_p99.push_back(Percentile(s.kept(), 0.99));
    live_reads += s.seen();
  }
  // Not an end-to-end metric: on web-routed-k4 the reader pays a route
  // compile on ~1% of its reads (each new version vector), right at p99, so
  // the figure did not hold steady from run to run (README). Printed here,
  // and reported per layer by the traced run.
  const double live_p99_us = Median(live_p99) / 1e3;
  std::printf("[%s] live reach_p99_us = %.6g us\n", name, live_p99_us);
  e2e.Metric("cold_open_ms", Percentile(open_lat, 0.50) / 1e6, "ms");
  e2e.Metric("serving_bytes", static_cast<double>(shape_final.serving_bytes),
             "bytes");

  size_t vr = 0, vp = 0;
  for (const size_t x : shape0.reach_nodes) vr += x;
  for (const size_t x : shape0.pattern_nodes) vp += x;
  std::printf("[%s] seed=%llu |V|=%zu |E|=%zu shards=%u |Vr|=%zu |Vp|=%zu "
              "batches=%zu effective_updates=%zu live_reads=%zu mixes=%zu\n",
              name, static_cast<unsigned long long>(opt.seed), n,
              in.edges.size(), w.shards, vr, vp, in.batches.size(),
              effective_updates, live_reads, mixes.size());

  if (!opt.trace) {
    report.TakeMetrics(e2e);
    report.PrintHuman(name, "e2e");
    return report;
  }
  // A traced run's end-to-end figures are its overhead baseline's
  // counterpart: printed, not reported.
  e2e.PrintHuman(name, "traced-e2e");

  // --- traced-only probes and replays ---------------------------------------
  if (w.kind != Kind::kLocal) {
    for (size_t i = 0; i < std::min<size_t>(in.pool.size(), 2048); ++i) {
      dep->SweepProbe(in.pool[i].u, in.pool[i].v, main_trace);
    }
  }
  PhaseTally& trusted = report.Phase("cold-trust");
  for (size_t i = 0; i < opens; ++i) {
    const size_t idx = i % in.pool.size();
    const std::optional<bool> got = dep->OpenAndReach(
        paths, /*verified=*/false, in.pool[idx].u, in.pool[idx].v, main_trace);
    ++trusted.attempted;
    trusted.failed += !got.has_value() || *got != (expected_final[idx] != 0);
  }
  if (w.kind != Kind::kRouted) {
    PhaseTally& mapped = report.Phase("mmap-reach");
    const std::vector<uint8_t> got =
        MmapReachProbe(paths.empty() ? "" : paths[0], in.pool, main_trace);
    mapped.attempted = in.pool.size();
    mapped.failed = got.size() == in.pool.size() ? 0 : in.pool.size();
    for (size_t i = 0; i < got.size() && i < in.pool.size(); ++i) {
      mapped.failed += got[i] != expected_final[i];
    }
  }
  // The replayed artifacts must land where the served ones did.
  PhaseTally& replay = report.Phase("replay");
  std::optional<qpgc::ShardPartition> part;
  std::vector<ReplayShard> shards =
      ReplaySetup(*replay_graph, w.shards, kDatasetSeed, part, main_trace);
  ++replay.attempted;
  replay.failed += part.has_value() && part->shard_of != shard_of;
  const WriteReplay wr = ReplayWrites(shards, part, in.batches, main_trace);
  for (size_t s = 0; s < shards.size(); ++s) {
    ++replay.attempted;
    replay.failed += shards[s].rc.gr.num_nodes() != shape_final.reach_nodes[s];
  }

  const std::map<std::string, SpanSummary> spans = tracer.Summarize();
  std::printf("[%s] %-34s %9s %12s %12s\n", name, "span", "count", "total_ms",
              "self_ms");
  for (const auto& [span, sum] : spans) {
    std::printf("[%s] %-34s %9zu %12.3f %12.3f\n", name, span.c_str(),
                sum.durations.size(), sum.total_ns() / 1e6, sum.self_ns() / 1e6);
  }
  const std::string trace_path = stem + ".trace.json";
  if (tracer.WriteChromeTrace(trace_path)) {
    std::printf("[%s] spans written to %s\n", name, trace_path.c_str());
  }

  const auto median = [&](const char* span) {
    const auto it = spans.find(span);
    return it == spans.end() ? 0.0 : Percentile(it->second.durations, 0.5);
  };
  const auto total = [&](const char* span) {
    const auto it = spans.find(span);
    return it == spans.end() ? 0.0 : static_cast<double>(it->second.total_ns());
  };
  const auto self_total = [&](const char* span) {
    const auto it = spans.find(span);
    return it == spans.end() ? 0.0 : static_cast<double>(it->second.self_ns());
  };
  const double nb = static_cast<double>(in.batches.size());
  const double np = static_cast<double>(std::max<size_t>(publish.publishes, 1));
  const qpgc::CacheStats cache =
      cache_after.has_value() ? *cache_after : qpgc::CacheStats{};
  const qpgc::CacheStats cache0 =
      cache_before.has_value() ? *cache_before : qpgc::CacheStats{};
  const auto sum = [](const std::vector<size_t>& v) {
    double s = 0;
    for (const size_t x : v) s += static_cast<double>(x);
    return s;
  };
  const bool routed = w.kind == Kind::kRouted;

  report.Metric("reach.compress_r_s", total("reach.compress_r") / 1e9, "s");
  report.Metric("bisim.max_bisim_s", total("bisim.max_bisim") / 1e9, "s");
  report.Metric("core.compress_b_s", self_total("core.compress_b") / 1e9, "s");
  report.Metric("graph.partition_s", total("graph.partition") / 1e9, "s");
  report.Metric("serve.router.sharded_setup_s",
                total("serve.router.sharded_setup") / 1e9, "s");
  report.Metric("serve.snapshot.first_publish_s",
                total("serve.snapshot.first_publish") / 1e9, "s");
  report.Metric("reach.quotient_nodes", sum(shape0.reach_nodes), "count");
  report.Metric("reach.quotient_edges", sum(shape0.reach_edges), "count");
  report.Metric("pattern.quotient_nodes", sum(shape0.pattern_nodes), "count");
  report.Metric("pattern.quotient_edges", sum(shape0.pattern_edges), "count");
  report.Metric("serve.live.reach_p99_us", live_p99_us, "us");
  report.Metric("serve.match.p99_ms", match_p99_ms, "ms");
  report.Metric("serve.snapshot.pin_us", median("serve.snapshot.pin") / 1e3,
                "us");
  report.Metric("reach.sweep_us", median("reach.sweep") / 1e3, "us");
  const double hits = static_cast<double>(cache.reach_hits() - cache0.reach_hits());
  const double misses =
      static_cast<double>(cache.reach_misses - cache0.reach_misses);
  report.Metric("serve.cache.hit_rate",
                hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
  report.Metric("serve.cache.exact_hits",
                cache.reach_exact_hits - cache0.reach_exact_hits, "count");
  report.Metric("serve.cache.subsumption_hits",
                cache.reach_subsumption_hits - cache0.reach_subsumption_hits,
                "count");
  report.Metric("serve.cache.misses", misses, "count");
  report.Metric("serve.cache.evictions",
                cache.reach_evictions - cache0.reach_evictions, "count");
  report.Metric("serve.router.route_compile_ms",
                median("serve.router.route_compile") / 1e6, "ms");
  report.Metric("serve.router.reach_us", median("serve.router.reach") / 1e3,
                "us");
  report.Metric("serve.router.boundary_exits",
                static_cast<double>(shape_final.boundary_exits), "count");
  report.Metric("serve.router.boundary_entries",
                static_cast<double>(shape_final.boundary_entries), "count");
  report.Metric("pattern.match_quotient_ms",
                median("pattern.match_quotient") / 1e6, "ms");
  report.Metric("core.expand_ms", median("core.expand") / 1e6, "ms");
  report.Metric("pattern.answer_pairs",
                static_cast<double>(answer_pairs) / match.attempted, "count");
  report.Metric("serve.router.stitch_ms", median("serve.router.stitch") / 1e6,
                "ms");
  report.Metric("serve.router.stitch_reuse", dep->stitch_reuse(), "ratio");
  report.Metric("graph.apply_batch_us", total("graph.apply_batch") / nb / 1e3,
                "us");
  report.Metric("inc.inc_rcm_ms", total("inc.inc_rcm") / nb / 1e6, "ms");
  report.Metric("inc.inc_pcm_ms", total("inc.inc_pcm") / nb / 1e6, "ms");
  report.Metric("inc.rcm_dissolved_nodes", wr.rcm.dissolved_nodes / nb,
                "count");
  report.Metric("inc.rcm_hybrid_vertices", wr.rcm.hybrid_vertices / nb,
                "count");
  report.Metric("inc.rcm_affected_share",
                wr.rcm.hybrid_vertices == 0
                    ? 0.0
                    : static_cast<double>(wr.rcm.dissolved_nodes) /
                          wr.rcm.hybrid_vertices,
                "ratio");
  report.Metric("inc.pcm_dissolved_nodes", wr.pcm.dissolved_nodes / nb,
                "count");
  report.Metric("inc.pcm_hybrid_vertices", wr.pcm.hybrid_vertices / nb,
                "count");
  report.Metric("serve.snapshot.freeze_ms", publish.freeze_secs / nb * 1e3,
                "ms");
  report.Metric("serve.snapshot.swap_us", publish.swap_secs / np * 1e6, "us");
  report.Metric("serve.snapshot.sides_refrozen",
                static_cast<double>(publish.sides_refrozen) / nb, "count");
  report.Metric("serve.router.summary_freeze_ms",
                publish.summary_freeze_secs / nb * 1e3, "ms");
  report.Metric("storage.save_ms", total("storage.save") / 1e6, "ms");
  report.Metric("storage.artifact_bytes", static_cast<double>(artifact_bytes),
                "bytes");
  report.Metric("storage.open_verified_ms",
                median(routed ? "storage.load_shard_set"
                              : "storage.open_verified") / 1e6,
                "ms");
  report.Metric("storage.open_trusted_ms",
                median(routed ? "storage.load_shard_set_trusted"
                              : "storage.open_trusted") / 1e6,
                "ms");
  report.Metric("storage.first_answer_us", median("storage.first_answer") / 1e3,
                "us");
  report.Metric("storage.load_shard_set_ms",
                median("storage.load_shard_set") / 1e6, "ms");
  report.Metric("storage.mmap_reach_p50_us",
                median("storage.mmap_reach") / 1e3, "us");
  report.Metric("serve.snapshot.reach_side_bytes",
                static_cast<double>(shape_final.reach_side_bytes), "bytes");
  report.Metric("serve.snapshot.pattern_side_bytes",
                static_cast<double>(shape_final.pattern_side_bytes), "bytes");
  report.PrintHuman(name, "layer");
  return report;
}

bool ParseArgs(int argc, char** argv, std::string& workload, RunOptions& opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      workload = value;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value, &end, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(value, &end);
    } else if (key == "--trace") {
      opt.trace = std::strcmp(value, "1") == 0;
      if (!opt.trace && std::strcmp(value, "0") != 0) return false;
    } else if (key == "--out") {
      opt.out_dir = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return argc % 2 == 1 && !workload.empty() && opt.seconds > 0 &&
         !opt.out_dir.empty();
}

int Main(int argc, char** argv) {
  std::string workload;
  RunOptions opt;
  if (!ParseArgs(argc, argv, workload, opt)) {
    std::fprintf(stderr,
                 "usage: servebench --workload NAME|all --seed N --seconds S "
                 "--trace 0|1 --out DIR\n");
    return 2;
  }
  std::vector<const WorkloadSpec*> selected;
  for (const WorkloadSpec& w : kWorkloads) {
    if (workload == "all" || workload == w.name) selected.push_back(&w);
  }
  if (selected.empty()) {
    std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
    return 2;
  }
  if (selected.size() == 1) {
    const Report r = RunWorkload(*selected[0], opt);
    std::printf("%s\n", r.Json().c_str());
    return 0;
  }
  // All workloads in one process: metrics keyed workload/metric.
  Report all;
  for (const WorkloadSpec* w : selected) {
    Report r = RunWorkload(*w, opt);
    all.Absorb(w->name, r);
  }
  std::printf("%s\n", all.Json().c_str());
  return 0;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) { return servebench::Main(argc, argv); }
