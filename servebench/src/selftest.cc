// Self-test of the benchmark's correctness checks: each oracle is run on a
// small graph with known answers, and each check is fed a wrong answer and
// must count it as failed. Exits non-zero on the first check that does not
// behave.
//
//   servebench_selftest

#include <cstdio>
#include <vector>

#include "graph/update.h"
#include "oracle.h"
#include "pattern/match.h"
#include "pattern/pattern.h"

namespace servebench {
namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

// 0 -> 1 -> 2, 3 <-> 4, 5 isolated; labels a b a b a c.
OracleState SmallGraph() {
  return OracleState(6, {{0, 1}, {1, 2}, {3, 4}, {4, 3}});
}

void ReachOracle() {
  const OracleHistory h(SmallGraph(), {});
  const std::vector<ReachPair> pairs = {{0, 2}, {2, 0}, {3, 3}, {3, 4},
                                        {5, 5}, {5, 0}, {1, 1}, {0, 5}};
  const std::vector<uint8_t> want = {1, 0, 1, 1, 1, 0, 1, 0};
  const std::vector<uint32_t> mix = {0};
  Expect(OracleReachAnswers(h, mix, pairs) == want,
         "reach oracle: BFS answers on the small graph, reflexive diagonal");
}

void ReachCheckCountsWrongAnswers() {
  OracleHistory h(SmallGraph(), {});
  qpgc::UpdateBatch b;
  b.Insert(2, 3);
  b.Delete(0, 1);
  b.Insert(0, 1);  // re-inserted: net effect keeps 0 -> 1
  h.Apply(b);
  const std::vector<ReachPair> pool = {{0, 3}, {2, 2}, {1, 4}};
  const std::vector<std::vector<uint32_t>> mixes = {{0}, {1}};
  // Right answers on each version: 0 reaches 3 only after the batch.
  std::vector<RecordedReach> right = {{0, 0, 0, 5}, {1, 0, 1, 2},
                                      {0, 1, 1, 1}, {1, 2, 1, 3}};
  Expect(CountWrongReaches(h, mixes, pool, right) == 0,
         "reach check: right answers on two versions pass");
  std::vector<RecordedReach> stale = {{1, 0, 0, 4}};
  Expect(CountWrongReaches(h, mixes, pool, stale) == 4,
         "reach check: an answer from the wrong version fails (x count)");
  std::vector<RecordedReach> reflexive = {{0, 1, 0, 1}};
  Expect(CountWrongReaches(h, mixes, pool, reflexive) == 1,
         "reflexive check: Reach(v, v) = false fails");
}

void ShardedMixes() {
  // Shard 0 owns 0..2, shard 1 owns 3..5; the batch adds 2 -> 3 (shard 0)
  // and 4 -> 5 (shard 1).
  OracleHistory h(SmallGraph(), {0, 0, 0, 1, 1, 1});
  qpgc::UpdateBatch b;
  b.Insert(2, 3);
  b.Insert(4, 5);
  h.Apply(b);
  const std::vector<ReachPair> pool = {{0, 5}, {0, 4}, {3, 5}};
  const std::vector<uint32_t> new0_old1 = {1, 0};
  const std::vector<uint32_t> old0_new1 = {0, 1};
  Expect(OracleReachAnswers(h, new0_old1, pool) ==
             std::vector<uint8_t>({0, 1, 0}),
         "sharded mix: shard 0 new, shard 1 old");
  Expect(OracleReachAnswers(h, old0_new1, pool) ==
             std::vector<uint8_t>({0, 0, 1}),
         "sharded mix: shard 0 old, shard 1 new");
  const std::vector<std::vector<uint32_t>> mixes = {new0_old1};
  const std::vector<RecordedReach> wrong = {{0, 0, 1, 1}};
  Expect(CountWrongReaches(h, mixes, pool, wrong) == 1,
         "sharded mix: an answer true only on the full new version fails");
}

void MatchOracleAndCheck() {
  const OracleState s = SmallGraph();
  const OracleGraph g = s.Freeze();
  // labels: 0:a 1:b 2:a 3:b 4:a 5:c
  const OracleMatcher m(g, {0, 1, 0, 1, 0, 2});
  qpgc::PatternQuery ab;  // a -> b within 1
  {
    const uint32_t from = ab.AddNode(0);
    ab.AddEdge(from, ab.AddNode(1), 1);
  }
  const OracleMatch r = m.Run(ab);
  Expect(r.matched &&
             r.sets == std::vector<std::vector<NodeId>>({{0, 4}, {1, 3}}),
         "match oracle: a -> b within 1 (b needs no successor)");

  qpgc::PatternQuery aa1;  // a -> a within 1: no a has an a child
  {
    const uint32_t from = aa1.AddNode(0);
    aa1.AddEdge(from, aa1.AddNode(0), 1);
  }
  Expect(!m.Run(aa1).matched, "match oracle: a -> a within 1 has no match");
  qpgc::PatternQuery aa2;  // a -> a within 2: 0 -> 1 -> 2, 4 -> 3 -> 4
  {
    const uint32_t from = aa2.AddNode(0);
    aa2.AddEdge(from, aa2.AddNode(0), 2);
  }
  const OracleMatch r2 = m.Run(aa2);
  Expect(r2.matched && r2.sets[0] == std::vector<NodeId>({0, 4}),
         "match oracle: bounded paths of length 2 count, and the fixpoint "
         "drops 2, then nothing else");

  qpgc::MatchResult got;
  got.matched = true;
  got.match_sets = {{0, 4}, {1, 3}};
  Expect(MatchAgrees(r, got), "match check: the right answer passes");
  got.match_sets[1].pop_back();
  Expect(!MatchAgrees(r, got), "match check: a missing node fails");
  got.match_sets[1] = {1, 3, 5};
  Expect(!MatchAgrees(r, got), "match check: an extra node fails");
  got.match_sets[1] = {1, 3};
  got.matched = false;
  Expect(!MatchAgrees(r, got), "match check: a wrong matched flag fails");
}

void QuotientBound() {
  Expect(QuotientWithin(10, 10), "quotient check: |Vr| = |V| passes");
  Expect(!QuotientWithin(11, 10), "quotient check: |Vr| > |V| fails");
}

}  // namespace
}  // namespace servebench

int main() {
  servebench::ReachOracle();
  servebench::ReachCheckCountsWrongAnswers();
  servebench::ShardedMixes();
  servebench::MatchOracleAndCheck();
  servebench::QuotientBound();
  std::printf("%d failure(s)\n", servebench::failures);
  return servebench::failures == 0 ? 0 : 1;
}
