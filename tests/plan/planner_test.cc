// Tests for the planning layer: selectivity estimates from index
// metadata, the greedy connected cost order, pairwise join-key
// signatures, and the structural plan cache.

#include "plan/planner.h"

#include <gtest/gtest.h>

#include <thread>

#include "query/parser.h"
#include "testing/paper_world.h"

namespace trinit::plan {
namespace {

query::Query Parse(const xkg::Xkg& xkg, const char* text) {
  auto r = query::Parser::Parse(text, &xkg.dict());
  EXPECT_TRUE(r.ok()) << r.status();
  return std::move(r).value();
}

class PlannerTest : public ::testing::Test {
 protected:
  PlannerTest() : xkg_(testing::BuildPaperXkg()) {}

  std::shared_ptr<const JoinPlan> Compile(const char* text) {
    query::Query q = Parse(xkg_, text);
    query::VarTable vars(q);
    return Planner::Compile(q, vars, xkg_);
  }

  xkg::Xkg xkg_;
};

TEST_F(PlannerTest, EstimatesComeFromIndexMetadata) {
  auto plan = Compile("?x bornIn Ulm ; ?x ?p ?o");
  ASSERT_EQ(plan->estimates.size(), 2u);
  // Exactly one bornIn triple with object Ulm in the paper KG.
  EXPECT_DOUBLE_EQ(plan->estimates[0].cardinality, 1.0);
  EXPECT_TRUE(plan->estimates[0].exact);
  // The second pattern is a full wildcard: every triple matches.
  EXPECT_DOUBLE_EQ(plan->estimates[1].cardinality,
                   static_cast<double>(xkg_.store().size()));
  EXPECT_GT(plan->estimates[1].mass, plan->estimates[0].mass);
}

TEST_F(PlannerTest, UnresolvableConstantEstimatesZero) {
  auto plan = Compile("?x bornIn Atlantis");
  ASSERT_EQ(plan->estimates.size(), 1u);
  EXPECT_DOUBLE_EQ(plan->estimates[0].cardinality, 0.0);
}

TEST_F(PlannerTest, TokenSlotDegradesToInexactEstimate) {
  auto plan = Compile("?x 'won nobel for' ?y");
  ASSERT_EQ(plan->estimates.size(), 1u);
  EXPECT_FALSE(plan->estimates[0].exact);
}

TEST_F(PlannerTest, SelectiveFirstConnectedOrder) {
  // Parser order: the wide wildcard first, the selective pattern last.
  auto plan =
      Compile("SELECT ?x WHERE ?c ?p ?o ; ?x bornIn ?c ; ?c locatedIn Germany");
  ASSERT_EQ(plan->order.size(), 3u);
  // The two 1-match patterns lead (bornIn first: equal cost, earlier
  // index); the full wildcard goes last despite being written first.
  EXPECT_EQ(plan->order[0], 1u);
  EXPECT_EQ(plan->order[1], 2u);
  EXPECT_EQ(plan->order.back(), 0u);
}

TEST_F(PlannerTest, ConnectivityBeatsRawSelectivity) {
  // Pattern 1 (bornOn, 1 match) is the cheapest remaining after the
  // leader, but shares no variable with it; pattern 2 does and wins the
  // second slot despite a larger estimate.
  auto plan = Compile(
      "SELECT ?x WHERE ?x bornIn Ulm ; ?y bornOn ?d ; ?x affiliation ?u");
  ASSERT_EQ(plan->order.size(), 3u);
  EXPECT_EQ(plan->order[0], 0u);
  EXPECT_EQ(plan->order[1], 2u);
  EXPECT_EQ(plan->order[2], 1u);
}

TEST_F(PlannerTest, EstimatesCarryPredicateFanOutStats) {
  auto plan = Compile("?x bornIn ?c");
  ASSERT_EQ(plan->estimates.size(), 1u);
  // One bornIn triple in the paper KG: one distinct subject and object.
  EXPECT_DOUBLE_EQ(plan->estimates[0].distinct_subjects, 1.0);
  EXPECT_DOUBLE_EQ(plan->estimates[0].distinct_objects, 1.0);
  // Variable predicate: no stats to attribute.
  auto wild = Compile("?x ?p ?o");
  EXPECT_DOUBLE_EQ(wild->estimates[0].distinct_subjects, 0.0);
}

TEST_F(PlannerTest, FanOutAwareCostRanksByJoinOutputNotInputSize) {
  // `fans`: 6 triples, all from one subject (fan-out 6 per binding).
  // `narrow`: 8 triples across 8 distinct subjects (fan-out 1). Input-
  // size ordering would pick `fans` right after the seed (6 < 8); the
  // fan-out-aware cost knows a bound ?x expects 6 rows through `fans`
  // but only 1 through `narrow`, and flips them.
  xkg::XkgBuilder b;
  b.AddKgFact("S1", "isSeed", "Seed");
  for (int i = 1; i <= 6; ++i) {
    b.AddKgFact("S1", "fans", "F" + std::to_string(i));
  }
  for (int i = 1; i <= 8; ++i) {
    b.AddKgFact("S" + std::to_string(i), "narrow",
                "N" + std::to_string(i));
  }
  auto built = b.Build();
  ASSERT_TRUE(built.ok());
  xkg::Xkg xkg = std::move(built).value();

  query::Query q = Parse(
      xkg, "SELECT ?x WHERE ?x fans ?a ; ?x narrow ?b ; ?x isSeed Seed");
  query::VarTable vars(q);
  auto plan = Planner::Compile(q, vars, xkg);
  ASSERT_EQ(plan->order.size(), 3u);
  EXPECT_EQ(plan->order[0], 2u);  // the 1-match seed leads
  EXPECT_EQ(plan->order[1], 1u);  // narrow: 8/8 = 1 expected row
  EXPECT_EQ(plan->order[2], 0u);  // fans: 6/1 = 6 expected rows
  EXPECT_DOUBLE_EQ(plan->estimates[0].distinct_subjects, 1.0);
  EXPECT_DOUBLE_EQ(plan->estimates[1].distinct_subjects, 8.0);
}

TEST_F(PlannerTest, JoinKeysAreSharedVarsByExecPosition) {
  auto plan = Compile("SELECT ?x WHERE ?x bornIn ?c ; ?c locatedIn Germany");
  ASSERT_EQ(plan->order.size(), 2u);
  // Whatever the exec order, the pair signature is the shared ?c.
  query::Query q = Parse(xkg_, "SELECT ?x WHERE ?x bornIn ?c ; ?c locatedIn Germany");
  query::VarTable vars(q);
  query::VarId c = vars.Require("c");
  ASSERT_EQ(plan->JoinKey(0, 1).size(), 1u);
  EXPECT_EQ(plan->JoinKey(0, 1)[0], c);
  EXPECT_EQ(plan->JoinKey(1, 0), plan->JoinKey(0, 1));
  ASSERT_EQ(plan->probe_preference[0].size(), 1u);
  EXPECT_EQ(plan->probe_preference[0][0], 1u);
}

TEST_F(PlannerTest, CrossProductPairHasEmptyKey) {
  auto plan = Compile("SELECT ?x WHERE ?x bornIn Ulm ; ?y bornOn ?d");
  EXPECT_TRUE(plan->JoinKey(0, 1).empty());
  EXPECT_TRUE(plan->probe_preference[0].empty());
  EXPECT_TRUE(plan->probe_preference[1].empty());
}

TEST_F(PlannerTest, StructureIgnoresEntityButNotPredicateIdentity) {
  query::Query a = Parse(xkg_, "?x bornIn Ulm");
  query::Query b = Parse(xkg_, "?x bornIn Germany");
  query::Query c = Parse(xkg_, "?x bornIn ?y");
  query::Query d = Parse(xkg_, "?x locatedIn Ulm");
  query::VarTable va(a), vb(b), vc(c), vd(d);
  // Same shapes + predicate, different object entity: shared.
  EXPECT_EQ(JoinPlan::StructureOf(a, va), JoinPlan::StructureOf(b, vb));
  // Different shape: distinct.
  EXPECT_NE(JoinPlan::StructureOf(a, va), JoinPlan::StructureOf(c, vc));
  // Same shape, different predicate: distinct (predicates dominate
  // cardinality, so unrelated queries must not share a plan).
  EXPECT_NE(JoinPlan::StructureOf(a, va), JoinPlan::StructureOf(d, vd));
}

TEST_F(PlannerTest, CacheReusesStructurallyIdenticalVariants) {
  PlanCache cache;
  query::Query a = Parse(xkg_, "?x bornIn Ulm");
  query::Query b = Parse(xkg_, "?x bornIn Germany");
  query::VarTable va(a), vb(b);
  auto p1 = cache.Get(a, va, xkg_, /*generation=*/0);
  auto p2 = cache.Get(b, vb, xkg_, /*generation=*/0);
  EXPECT_EQ(p1.get(), p2.get());  // same plan object
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST_F(PlannerTest, CacheIsThreadSafe) {
  PlanCache cache;
  query::Query q =
      Parse(xkg_, "SELECT ?x WHERE ?x bornIn ?c ; ?c locatedIn Germany");
  query::VarTable vars(q);
  std::vector<std::thread> threads;
  std::vector<std::shared_ptr<const JoinPlan>> got(8);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back(
        [&, t]() { got[t] = cache.Get(q, vars, xkg_, /*generation=*/0); });
  }
  for (std::thread& t : threads) t.join();
  for (const auto& plan : got) {
    ASSERT_NE(plan, nullptr);
    EXPECT_EQ(plan->structure, got[0]->structure);
  }
  EXPECT_EQ(cache.size(), 1u);
  PlanCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, 8u);
}

}  // namespace
}  // namespace trinit::plan
