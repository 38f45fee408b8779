#include "topk/topk_processor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <ostream>
#include <set>

#include "query/parser.h"
#include "relax/inversion_miner.h"
#include "relax/synonym_miner.h"
#include "testing/paper_world.h"
#include "topk/exhaustive_processor.h"
#include "util/random.h"

namespace trinit::topk {
namespace {

query::Query ParseQuery(const xkg::Xkg& xkg, const char* text) {
  auto r = query::Parser::Parse(text, &xkg.dict());
  EXPECT_TRUE(r.ok()) << r.status();
  return std::move(r).value();
}

std::string Answer0(const xkg::Xkg& xkg, const TopKResult& result,
                    size_t rank) {
  return xkg.dict().DebugLabel(result.ValueAt(rank, 0));
}

// ---------------------------------------------------------------------
// Figure 2: the four users' queries, without and with relaxation.
// ---------------------------------------------------------------------

class Figure2Test : public ::testing::Test {
 protected:
  Figure2Test()
      : xkg_(testing::BuildPaperXkg()), rules_(testing::BuildPaperRules()) {}

  TopKResult Run(const char* text, bool relax) {
    ProcessorOptions opts;
    opts.k = 5;
    opts.enable_relaxation = relax;
    TopKProcessor processor(xkg_, rules_, {}, opts);
    auto r = processor.Answer(ParseQuery(xkg_, text));
    EXPECT_TRUE(r.ok()) << r.status();
    return std::move(r).value();
  }

  xkg::Xkg xkg_;
  relax::RuleSet rules_;
};

TEST_F(Figure2Test, UserAFailsWithoutRelaxation) {
  // "Who was born in Germany?" — the KG knows birth *cities* only.
  TopKResult r = Run("?x bornIn Germany", /*relax=*/false);
  EXPECT_TRUE(r.answers.empty());
}

TEST_F(Figure2Test, UserARescuedByGeoExpansion) {
  TopKResult r = Run("?x bornIn Germany", /*relax=*/true);
  ASSERT_FALSE(r.answers.empty());
  EXPECT_EQ(Answer0(xkg_, r, 0), "AlbertEinstein");
  EXPECT_TRUE(r.answers[0].used_relaxation());
}

TEST_F(Figure2Test, UserBFailsWithoutRelaxation) {
  // "Who was the advisor of Albert Einstein?" — wrong argument order.
  TopKResult r = Run("AlbertEinstein hasAdvisor ?x", /*relax=*/false);
  EXPECT_TRUE(r.answers.empty());
}

TEST_F(Figure2Test, UserBRescuedByInversionRule) {
  TopKResult r = Run("AlbertEinstein hasAdvisor ?x", /*relax=*/true);
  ASSERT_FALSE(r.answers.empty());
  EXPECT_EQ(Answer0(xkg_, r, 0), "AlfredKleiner");
  // The derivation shows rule2 fired.
  bool saw_rule2 = false;
  for (const DerivationStep& step : r.answers[0].derivation) {
    for (const relax::Rule* rule : step.rules) {
      if (rule->name == "rule2") saw_rule2 = true;
    }
  }
  EXPECT_TRUE(saw_rule2);
}

TEST_F(Figure2Test, UserCFailsWithoutRelaxation) {
  // "Ivy League university Einstein was affiliated with."
  TopKResult r = Run(
      "SELECT ?x WHERE AlbertEinstein affiliation ?x ; ?x member IvyLeague",
      /*relax=*/false);
  EXPECT_TRUE(r.answers.empty());
}

TEST_F(Figure2Test, UserCRescuedThroughXkgBridge) {
  TopKResult r = Run(
      "SELECT ?x WHERE AlbertEinstein affiliation ?x ; ?x member IvyLeague",
      /*relax=*/true);
  ASSERT_FALSE(r.answers.empty());
  EXPECT_EQ(Answer0(xkg_, r, 0), "PrincetonUniversity");
  EXPECT_TRUE(r.answers[0].used_relaxation());
  // The best derivation must lean on an XKG extraction triple.
  bool used_extraction = false;
  for (const DerivationStep& step : r.answers[0].derivation) {
    for (rdf::TripleId id : step.triples) {
      if (!xkg_.IsKgTriple(id)) used_extraction = true;
    }
  }
  EXPECT_TRUE(used_extraction);
}

TEST_F(Figure2Test, UserDAnsweredByXkgWithoutRelaxation) {
  // "What did Albert Einstein win a Nobel prize for?" — no KG predicate
  // exists; the extended query language + XKG answer it directly.
  TopKResult r = Run("AlbertEinstein 'won nobel for' ?x",
                     /*relax=*/false);
  ASSERT_FALSE(r.answers.empty());
  EXPECT_EQ(Answer0(xkg_, r, 0),
            "'discovery of the photoelectric effect'");
  EXPECT_FALSE(r.answers[0].used_relaxation());
}

TEST_F(Figure2Test, Rule1FiresOnTypedQuery) {
  // The paper's rule 1 as written: the user *did* state the type.
  TopKResult r = Run("?x bornIn Germany ; Germany type country",
                     /*relax=*/true);
  ASSERT_FALSE(r.answers.empty());
  EXPECT_EQ(Answer0(xkg_, r, 0), "AlbertEinstein");
}

TEST_F(Figure2Test, RelaxedAnswersRankBelowExactOnes) {
  // Exact affiliation answer (IAS) must outrank the relaxed Princeton
  // answers: relaxation weights only attenuate.
  TopKResult r = Run("AlbertEinstein affiliation ?x", /*relax=*/true);
  ASSERT_GE(r.answers.size(), 2u);
  EXPECT_EQ(Answer0(xkg_, r, 0), "IAS");
  EXPECT_FALSE(r.answers[0].used_relaxation());
  EXPECT_TRUE(r.answers[1].used_relaxation());
  EXPECT_GE(r.answers[0].score, r.answers[1].score);
}

TEST_F(Figure2Test, KRespectsRequestedSize) {
  ProcessorOptions opts;
  opts.k = 1;
  TopKProcessor processor(xkg_, rules_, {}, opts);
  auto r = processor.Answer(ParseQuery(xkg_, "AlbertEinstein ?p ?o"));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->answers.size(), 1u);
}

TEST_F(Figure2Test, InvalidQueryRejected) {
  ProcessorOptions opts;
  TopKProcessor processor(xkg_, rules_, {}, opts);
  query::Query empty;
  EXPECT_FALSE(processor.Answer(empty).ok());
}

TEST_F(Figure2Test, StatsReportLazyOpening) {
  TopKResult r = Run("AlbertEinstein affiliation ?x", /*relax=*/true);
  EXPECT_GT(r.stats.alternatives_total, 1u);
  EXPECT_LE(r.stats.alternatives_opened, r.stats.alternatives_total);
  EXPECT_GT(r.stats.items_pulled, 0u);
}

// ---------------------------------------------------------------------
// Property test: the incremental processor returns exactly the same
// top-k answers and scores as the exhaustive reference on randomized
// worlds, queries, and mined rule sets.
// ---------------------------------------------------------------------

struct WorldParams {
  uint64_t seed;
  int entities;
  int predicates;
  int triples;
  int queries;
  int k;
};

// Names each instance by its fields. Without it gtest prints the raw
// bytes, trailing padding included, and the ctest names change per run.
void PrintTo(const WorldParams& p, std::ostream* os) {
  *os << "seed" << p.seed << "_e" << p.entities << "_p" << p.predicates
      << "_t" << p.triples << "_q" << p.queries << "_k" << p.k;
}

class TopKEquivalenceTest : public ::testing::TestWithParam<WorldParams> {};

xkg::Xkg RandomWorld(Rng& rng, const WorldParams& wp) {
  xkg::XkgBuilder b;
  for (int i = 0; i < wp.triples; ++i) {
    std::string s = "E" + std::to_string(rng.Uniform(wp.entities));
    std::string o = "E" + std::to_string(rng.Uniform(wp.entities));
    int p = static_cast<int>(rng.Uniform(wp.predicates));
    if (p % 3 == 2) {
      // Token predicate in the extraction layer.
      b.AddExtraction(s, true, "verb phrase " + std::to_string(p), o, true,
                      0.5f + 0.5f * static_cast<float>(rng.UniformDouble()),
                      {static_cast<uint32_t>(i), 0, s + " ... " + o, 0.8});
    } else {
      b.AddKgFact(s, "p" + std::to_string(p), o);
    }
  }
  auto r = b.Build();
  EXPECT_TRUE(r.ok());
  return std::move(r).value();
}

query::Query RandomQuery(Rng& rng, const xkg::Xkg& xkg) {
  const rdf::TripleStore& store = xkg.store();
  int num_patterns = 1 + static_cast<int>(rng.Uniform(2));
  std::vector<query::TriplePattern> patterns;
  std::vector<std::string> var_names{"x", "y", "z"};
  for (int i = 0; i < num_patterns; ++i) {
    const rdf::Triple& t =
        store.triple(static_cast<rdf::TripleId>(rng.Uniform(store.size())));
    auto term_for = [&](rdf::TermId id) -> query::Term {
      if (xkg.dict().kind(id) == rdf::TermKind::kToken) {
        return query::Term::Token(std::string(xkg.dict().label(id)), id);
      }
      return query::Term::Resource(std::string(xkg.dict().label(id)), id);
    };
    query::TriplePattern p;
    // Share variable ?x across patterns to force joins; otherwise pick
    // constants from the sampled triple so matches exist.
    p.s = rng.Bernoulli(0.5) ? query::Term::Variable(var_names[i])
                             : term_for(t.s);
    p.p = rng.Bernoulli(0.3) ? query::Term::Variable("pv" + std::to_string(i))
                             : term_for(t.p);
    p.o = rng.Bernoulli(0.5) ? query::Term::Variable(var_names[i + 1])
                             : term_for(t.o);
    if (p.s.is_constant() && p.p.is_constant() && p.o.is_constant()) {
      p.o = query::Term::Variable(var_names[i + 1]);
    }
    patterns.push_back(std::move(p));
  }
  return query::Query(std::move(patterns), {});
}

TEST_P(TopKEquivalenceTest, IncrementalMatchesExhaustive) {
  const WorldParams wp = GetParam();
  Rng rng(wp.seed);
  xkg::Xkg xkg = RandomWorld(rng, wp);

  // Mine rules from the world itself.
  relax::RuleSet rules;
  relax::SynonymMiner::Options syn_opts;
  syn_opts.min_weight = 0.05;
  syn_opts.min_overlap = 1;
  relax::SynonymMiner syn(syn_opts);
  ASSERT_TRUE(syn.Generate(xkg, &rules).ok());
  relax::InversionMiner::Options inv_opts;
  inv_opts.min_weight = 0.05;
  inv_opts.min_overlap = 1;
  relax::InversionMiner inv(inv_opts);
  ASSERT_TRUE(inv.Generate(xkg, &rules).ok());

  ProcessorOptions opts;
  opts.k = wp.k;
  opts.rewrite.max_depth = 1;
  opts.rewrite.min_weight = 0.05;
  TopKProcessor incremental(xkg, rules, {}, opts);
  ExhaustiveProcessor exhaustive(xkg, rules, {}, opts);

  for (int qi = 0; qi < wp.queries; ++qi) {
    query::Query q = RandomQuery(rng, xkg);
    auto inc = incremental.Answer(q);
    auto exh = exhaustive.Answer(q);
    ASSERT_TRUE(inc.ok()) << inc.status() << " for " << q.ToString();
    ASSERT_TRUE(exh.ok()) << exh.status() << " for " << q.ToString();

    // Identical score sequences (ties may reorder bindings).
    ASSERT_EQ(inc->answers.size(), exh->answers.size())
        << "query: " << q.ToString();
    for (size_t i = 0; i < inc->answers.size(); ++i) {
      EXPECT_NEAR(inc->answers[i].score, exh->answers[i].score, 1e-9)
          << "rank " << i << " of " << q.ToString();
    }

    // Answers strictly above the k-th score must agree as sets.
    auto strict_set = [&](const TopKResult& r) {
      std::set<std::string> keys;
      double kth = r.answers.empty() ? 0.0 : r.answers.back().score;
      for (const Answer& a : r.answers) {
        if (a.score > kth + 1e-9) {
          std::string key;
          for (size_t v = 0; v < r.projection.size(); ++v) {
            key += std::to_string(a.binding.Get(
                       static_cast<query::VarId>(v))) +
                   "|";
          }
          keys.insert(key);
        }
      }
      return keys;
    };
    EXPECT_EQ(strict_set(*inc), strict_set(*exh))
        << "query: " << q.ToString();

    // The incremental processor never does more opening work than the
    // exhaustive one.
    EXPECT_LE(inc->stats.alternatives_opened,
              exh->stats.alternatives_opened);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Worlds, TopKEquivalenceTest,
    ::testing::Values(WorldParams{11, 12, 6, 120, 12, 100},
                      WorldParams{22, 30, 9, 400, 10, 100},
                      WorldParams{33, 8, 3, 60, 12, 100},
                      WorldParams{44, 50, 12, 700, 8, 5},
                      WorldParams{55, 20, 6, 250, 10, 3}));

// ---------------------------------------------------------------------
// Exhaustive-specific behaviour.
// ---------------------------------------------------------------------

TEST(ExhaustiveProcessorTest, OpensEveryAlternative) {
  xkg::Xkg xkg = testing::BuildPaperXkg();
  relax::RuleSet rules = testing::BuildPaperRules();
  ProcessorOptions opts;
  opts.k = 5;
  ExhaustiveProcessor exhaustive(xkg, rules, {}, opts);
  auto r = exhaustive.Answer(
      *query::Parser::Parse("AlbertEinstein affiliation ?x", &xkg.dict()));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->stats.alternatives_opened, r->stats.alternatives_total);
}

TEST(ProcessorOptionsTest, MaxOverDerivationsVsSum) {
  xkg::Xkg xkg = testing::BuildPaperXkg();
  relax::RuleSet rules = testing::BuildPaperRules();
  ProcessorOptions max_opts;
  max_opts.k = 5;
  ProcessorOptions sum_opts = max_opts;
  sum_opts.join.max_over_derivations = false;

  // Princeton is derivable through rule3 (0.8) and rule4 (0.7): the
  // sum-combination score must exceed the max-combination score.
  query::Query q = *query::Parser::Parse(
      "SELECT ?x WHERE AlbertEinstein affiliation ?x ; ?x member IvyLeague",
      &xkg.dict());
  TopKProcessor max_proc(xkg, rules, {}, max_opts);
  TopKProcessor sum_proc(xkg, rules, {}, sum_opts);
  auto max_r = max_proc.Answer(q);
  auto sum_r = sum_proc.Answer(q);
  ASSERT_TRUE(max_r.ok());
  ASSERT_TRUE(sum_r.ok());
  ASSERT_FALSE(max_r->answers.empty());
  ASSERT_FALSE(sum_r->answers.empty());
  EXPECT_GE(sum_r->answers[0].score, max_r->answers[0].score - 1e-9);
}

}  // namespace
}  // namespace trinit::topk
