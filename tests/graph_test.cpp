// Unit tests for the graph substrate: dictionary, shard indexes/scans,
// the sharded triple store, and solution tables.

#include <gtest/gtest.h>

#include "graph/dictionary.h"
#include "graph/shard.h"
#include "graph/solution.h"
#include "graph/triple_store.h"

namespace ids::graph {
namespace {

TEST(Dictionary, InternIsIdempotent) {
  Dictionary d;
  TermId a = d.intern("foo");
  TermId b = d.intern("foo");
  EXPECT_EQ(a, b);
  EXPECT_EQ(d.size(), 1u);
  EXPECT_EQ(d.name(a), "foo");
}

TEST(Dictionary, IdsAreDenseAndOrdered) {
  Dictionary d;
  EXPECT_EQ(d.intern("a"), 1u);
  EXPECT_EQ(d.intern("b"), 2u);
  EXPECT_EQ(d.intern("c"), 3u);
}

TEST(Dictionary, LookupMissingReturnsNullopt) {
  Dictionary d;
  EXPECT_FALSE(d.lookup("nope").has_value());
  d.intern("yes");
  EXPECT_TRUE(d.lookup("yes").has_value());
}

class ShardTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Small graph: edges (s, p, o) with ids 1..4 as terms.
    for (TermId s = 1; s <= 4; ++s) {
      for (TermId o = 1; o <= 4; ++o) {
        if (s != o) shard_.add({s, 10, o});
      }
    }
    shard_.add({1, 11, 1});  // self loop on different predicate
    shard_.add({1, 11, 1});  // duplicate: must dedup
    shard_.finalize();
  }
  GraphShard shard_;
};

TEST_F(ShardTest, FinalizeDedups) {
  EXPECT_EQ(shard_.size(), 13u);  // 12 edges + 1 self loop
}

TEST_F(ShardTest, FullyBoundLookup) {
  TriplePattern p{PatternTerm::Const(1), PatternTerm::Const(10),
                  PatternTerm::Const(2)};
  EXPECT_EQ(shard_.count(p), 1u);
  p.o = PatternTerm::Const(1);
  EXPECT_EQ(shard_.count(p), 0u);
}

TEST_F(ShardTest, SubjectBoundScan) {
  TriplePattern p{PatternTerm::Const(2), PatternTerm::Var("p"),
                  PatternTerm::Var("o")};
  EXPECT_EQ(shard_.count(p), 3u);
}

TEST_F(ShardTest, PredicateBoundUsesPos) {
  TriplePattern p{PatternTerm::Var("s"), PatternTerm::Const(11),
                  PatternTerm::Var("o")};
  EXPECT_EQ(GraphShard::choose_index(p), IndexOrder::kPOS);
  EXPECT_EQ(shard_.count(p), 1u);
}

TEST_F(ShardTest, ObjectBoundUsesOsp) {
  TriplePattern p{PatternTerm::Var("s"), PatternTerm::Var("p"),
                  PatternTerm::Const(3)};
  EXPECT_EQ(GraphShard::choose_index(p), IndexOrder::kOSP);
  EXPECT_EQ(shard_.count(p), 3u);
}

TEST_F(ShardTest, UnboundScansEverything) {
  TriplePattern p{PatternTerm::Var("s"), PatternTerm::Var("p"),
                  PatternTerm::Var("o")};
  EXPECT_EQ(shard_.count(p), 13u);
}

TEST_F(ShardTest, RepeatedVariableConstrains) {
  // {?x ?p ?x} matches only the self loop.
  TriplePattern p{PatternTerm::Var("x"), PatternTerm::Var("p"),
                  PatternTerm::Var("x")};
  EXPECT_EQ(shard_.count(p), 1u);
}

TEST(TripleStore, ShardingIsStableAndComplete) {
  TripleStore store(4);
  for (int i = 0; i < 100; ++i) {
    std::string s = "s";
    std::string o = "o";
    s += std::to_string(i);
    o += std::to_string(i);
    store.add(s, "p", o);
  }
  store.finalize();
  EXPECT_EQ(store.total_triples(), 100u);
  // Every subject hashes to the same shard repeatedly.
  TermId s0 = *store.dict().lookup("s0");
  EXPECT_EQ(store.shard_of_subject(s0), store.shard_of_subject(s0));
  // Shards are reasonably balanced for 100 distinct subjects.
  for (int sh = 0; sh < 4; ++sh) {
    EXPECT_GT(store.shard(sh).size(), 10u);
  }
}

TEST(TripleStore, FreezeReopenEpochRoundTrip) {
  TripleStore store(2);
  EXPECT_FALSE(store.frozen());
  store.add("a", "knows", "b");
  store.finalize();
  EXPECT_TRUE(store.frozen());
  store.finalize();  // idempotent
  EXPECT_EQ(store.total_triples(), 1u);
  store.reopen();
  EXPECT_FALSE(store.frozen());
  store.add("b", "knows", "c");
  store.finalize();
  EXPECT_EQ(store.total_triples(), 2u);
}

TEST(TripleStore, MatchAllSpansShards) {
  TripleStore store(8);
  store.add("a", "knows", "b");
  store.add("b", "knows", "c");
  store.add("c", "knows", "a");
  store.finalize();
  TriplePattern p{PatternTerm::Var("x"),
                  PatternTerm::Const(*store.dict().lookup("knows")),
                  PatternTerm::Var("y")};
  EXPECT_EQ(store.match_all(p).size(), 3u);
}

TEST(SolutionTable, AppendAndAccess) {
  SolutionTable t({"a", "b"}, {"score"});
  TermId row1[] = {1, 2};
  double num1[] = {0.5};
  t.append_row(row1, num1);
  EXPECT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.id_at(0, t.id_var_index("a")), 1u);
  EXPECT_EQ(t.id_at(0, t.id_var_index("b")), 2u);
  EXPECT_DOUBLE_EQ(t.num_at(0, t.num_var_index("score")), 0.5);
}

TEST(SolutionTable, VarIndexMissingIsNegative) {
  SolutionTable t({"a"});
  EXPECT_EQ(t.id_var_index("zzz"), -1);
  EXPECT_EQ(t.num_var_index("zzz"), -1);
}

TEST(SolutionTable, FilterRowsIsStable) {
  SolutionTable t({"x"});
  for (TermId i = 1; i <= 6; ++i) t.append_row({&i, 1});
  t.filter_rows({1, 0, 1, 0, 1, 0});
  ASSERT_EQ(t.num_rows(), 3u);
  EXPECT_EQ(t.id_at(0, 0), 1u);
  EXPECT_EQ(t.id_at(1, 0), 3u);
  EXPECT_EQ(t.id_at(2, 0), 5u);
}

TEST(SolutionTable, TruncateAndTakeRows) {
  SolutionTable t({"x"});
  for (TermId i = 1; i <= 5; ++i) t.append_row({&i, 1});
  std::size_t rows[] = {4, 0};
  SolutionTable picked = t.take_rows(rows);
  ASSERT_EQ(picked.num_rows(), 2u);
  EXPECT_EQ(picked.id_at(0, 0), 5u);
  EXPECT_EQ(picked.id_at(1, 0), 1u);
  t.truncate(2);
  EXPECT_EQ(t.num_rows(), 2u);
  t.truncate(10);  // no-op
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(SolutionTable, AppendTableRequiresSameSchemaAndConcats) {
  SolutionTable a({"x"}, {"s"});
  SolutionTable b({"x"}, {"s"});
  TermId v = 7;
  double s = 1.5;
  b.append_row({&v, 1}, {&s, 1});
  a.append_table(b);
  a.append_table(b);
  EXPECT_EQ(a.num_rows(), 2u);
  EXPECT_TRUE(a.same_schema(b));
}

TEST(SolutionTable, AddNumVarBackfillsZero) {
  SolutionTable t({"x"});
  TermId v = 1;
  t.append_row({&v, 1});
  int col = t.add_num_var("energy");
  EXPECT_DOUBLE_EQ(t.num_at(0, col), 0.0);
  t.set_num(0, col, -7.5);
  EXPECT_DOUBLE_EQ(t.num_at(0, col), -7.5);
}

TEST(SolutionTable, RowBytesCountsBothKinds) {
  SolutionTable t({"a", "b"}, {"s"});
  EXPECT_EQ(t.row_bytes(), 2 * sizeof(TermId) + sizeof(double));
}

}  // namespace
}  // namespace ids::graph
