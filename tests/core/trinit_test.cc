#include "core/trinit.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "baselines/exact_engine.h"
#include "eval/runner.h"
#include "eval/workload.h"
#include "query/parser.h"
#include "testing/paper_world.h"

namespace trinit::core {
namespace {

synth::World SmallWorld(uint64_t seed = 21) {
  synth::WorldSpec spec;
  spec.seed = seed;
  spec.num_persons = 60;
  spec.num_universities = 8;
  spec.num_institutes = 5;
  spec.num_cities = 12;
  spec.num_countries = 4;
  spec.num_prizes = 4;
  spec.num_fields = 6;
  spec.predicates = synth::WorldSpec::DefaultPredicates();
  return synth::KgGenerator::Generate(spec);
}

TEST(TrinitTest, OpenOverPaperWorldAnswersUserD) {
  auto engine = Trinit::Open(testing::BuildPaperXkg());
  ASSERT_TRUE(engine.ok()) << engine.status();
  auto result = engine->Query("AlbertEinstein 'won nobel for' ?x", 5);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_FALSE(result->answers.empty());
  EXPECT_EQ(engine->RenderAnswer(*result, 0),
            "?x = 'discovery of the photoelectric effect'");
}

TEST(TrinitTest, ManualRulesEnableUserB) {
  auto engine = Trinit::Open(testing::BuildPaperXkg());
  ASSERT_TRUE(engine.ok());
  // Without rule 2, no answer (the paper world is too small for the
  // miners to find the inversion).
  auto before = engine->Query("AlbertEinstein hasAdvisor ?x", 5);
  ASSERT_TRUE(before.ok());
  EXPECT_TRUE(before->answers.empty());

  ASSERT_TRUE(engine->AddManualRules(testing::kPaperRulesText).ok());
  auto after = engine->Query("AlbertEinstein hasAdvisor ?x", 5);
  ASSERT_TRUE(after.ok());
  ASSERT_FALSE(after->answers.empty());
  EXPECT_EQ(engine->RenderAnswer(*after, 0), "?x = AlfredKleiner");
}

TEST(TrinitTest, ExplainAndSuggestWork) {
  auto engine = Trinit::Open(testing::BuildPaperXkg());
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE(engine->AddManualRules(testing::kPaperRulesText).ok());
  auto q = query::Parser::Parse(
      "SELECT ?x WHERE AlbertEinstein affiliation ?x ; ?x member "
      "IvyLeague",
      &engine->xkg().dict());
  ASSERT_TRUE(q.ok());
  auto result = engine->Answer(*q, 5);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->answers.empty());

  explain::Explanation ex = engine->Explain(*result, 0);
  EXPECT_NE(ex.ToString().find("PrincetonUniversity"), std::string::npos);

  auto suggestions = engine->Suggest(*q, *result);
  EXPECT_FALSE(suggestions.empty());  // at least the rule feedback
}

TEST(TrinitTest, FromWorldBuildsFullPipeline) {
  Trinit::BuildReport report;
  auto engine = Trinit::FromWorld(SmallWorld(), {}, &report);
  ASSERT_TRUE(engine.ok()) << engine.status();
  EXPECT_GT(report.kg_triples, 100u);
  EXPECT_GT(report.extraction_triples, 50u);
  EXPECT_GT(report.corpus_documents, 10u);
  EXPECT_GT(report.extractions, 100u);
  EXPECT_GT(report.rules_mined, 0u);
  EXPECT_EQ(engine->rules().size(), report.rules_mined);
}

TEST(TrinitTest, MinedRulesTranslateParaphrases) {
  synth::World world = SmallWorld();
  auto engine = Trinit::FromWorld(world);
  ASSERT_TRUE(engine.ok());
  // Some synonym rule bridging affiliation <-> a token paraphrase must
  // have been mined (that is what the corpus engineering guarantees).
  bool found = false;
  for (const relax::Rule& rule : engine->rules().rules()) {
    if (rule.kind == relax::RuleKind::kSynonym &&
        rule.ToString().find("affiliation") != std::string::npos) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(TrinitTest, MiningTogglesReduceRuleKinds) {
  synth::World world = SmallWorld();
  TrinitOptions no_inv;
  no_inv.mine_inversions = false;
  auto engine = Trinit::FromWorld(world, no_inv);
  ASSERT_TRUE(engine.ok());
  EXPECT_EQ(engine->rules().CountOfKind(relax::RuleKind::kInversion), 0u);
}

TEST(TrinitTest, RunOperatorAbsorbsCustomRules) {
  // The paper's operator API: plug in custom rule generation.
  class FixedRuleOperator : public relax::RelaxationOperator {
   public:
    std::string name() const override { return "fixed"; }
    Status Generate(const xkg::Xkg&, relax::RuleSet* rules) override {
      auto rule = relax::ParseManualRule(
          "custom: ?x knows ?y => ?y knows ?x @ 0.5", 1);
      TRINIT_RETURN_IF_ERROR(rule.status());
      return rules->Add(std::move(rule).value());
    }
  };
  auto engine = Trinit::Open(testing::BuildPaperXkg());
  ASSERT_TRUE(engine.ok());
  size_t before = engine->rules().size();
  FixedRuleOperator op;
  ASSERT_TRUE(engine->RunOperator(op).ok());
  EXPECT_EQ(engine->rules().size(), before + 1);
}

// Everything a held result is explained, rendered and suggested with
// as it was before the writes.
struct HeldView {
  std::vector<std::string> explanations;
  std::vector<std::string> renderings;
  std::vector<std::string> suggestions;
};

HeldView ViewOf(const Trinit& engine, const query::Query& q,
                const topk::TopKResult& result) {
  HeldView view;
  for (size_t rank = 0; rank < result.answers.size(); ++rank) {
    view.explanations.push_back(engine.Explain(result, rank).ToString());
    view.renderings.push_back(engine.RenderAnswer(result, rank));
  }
  for (const suggest::Suggestion& s : engine.Suggest(q, result)) {
    view.suggestions.push_back(s.message + " | " + s.replacement);
  }
  return view;
}

// A held result is explained, rendered and suggested against the state
// that computed it: rule writes reallocate the rule vector its
// derivations point into, and an XKG rebuild re-interns every term id
// its bindings hold.
TEST(TrinitTest, HeldResultSurvivesWrites) {
  auto engine = Trinit::Open(testing::BuildPaperXkg());
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE(engine->AddManualRules(testing::kPaperRulesText).ok());
  auto q = query::Parser::Parse(
      "SELECT ?x WHERE AlbertEinstein affiliation ?x ; ?x member "
      "IvyLeague",
      &engine->xkg().dict());
  ASSERT_TRUE(q.ok());
  auto held = engine->Execute(QueryRequest::Parsed(*q, 5));
  ASSERT_TRUE(held.ok());
  const topk::TopKResult& result = held->result();
  ASSERT_FALSE(result.answers.empty());
  ASSERT_TRUE(result.answers[0].used_relaxation());
  const HeldView before = ViewOf(*engine, *q, result);

  std::string many_rules;
  for (int i = 0; i < 300; ++i) {
    many_rules += "held" + std::to_string(i) + ": ?x heldPred" +
                  std::to_string(i) + " ?y => ?x affiliation ?y @ 0.5\n";
  }
  ASSERT_TRUE(engine->AddManualRules(many_rules).ok());
  ASSERT_TRUE(engine
                  ->ExtendKg("AardvarkInstitute member IvyLeague\n"
                             "AlbertEinstein affiliation AardvarkInstitute\n")
                  .ok());

  const HeldView after = ViewOf(*engine, *q, result);
  EXPECT_EQ(after.renderings, before.renderings);
  EXPECT_EQ(after.explanations, before.explanations);
  EXPECT_EQ(after.suggestions, before.suggestions);
}

// A structural (multi-pattern) rule reaches an answer through a
// whole-query variant. Its derivation must point into the engine's rule
// set, which the result keeps alive, not into the processor's private
// copy, which dies when Execute returns.
TEST(TrinitTest, StructuralRuleDerivationOutlivesTheProcessor) {
  auto engine = Trinit::Open(testing::BuildPaperXkg());
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE(engine->AddManualRules(testing::kPaperRulesText).ok());
  auto response = engine->Execute(
      QueryRequest::Text("SELECT ?x WHERE ?x bornIn Germany ; Germany type "
                         "country",
                         5));
  ASSERT_TRUE(response.ok());
  const topk::TopKResult& result = response->result();
  bool used_rule1 = false;
  for (size_t rank = 0; rank < result.answers.size(); ++rank) {
    for (const auto& use : engine->Explain(result, rank).rules) {
      if (use.name == "rule1") {
        used_rule1 = true;
        EXPECT_EQ(use.weight, 1.0);
      }
    }
  }
  EXPECT_TRUE(used_rule1);
}

// A write that fails publishes nothing: an operator that adds a rule
// and then errors leaves the rule set and the generation as they were.
TEST(TrinitTest, FailedWritePublishesNothing) {
  class AddThenFailOperator : public relax::RelaxationOperator {
   public:
    std::string name() const override { return "add-then-fail"; }
    Status Generate(const xkg::Xkg&, relax::RuleSet* rules) override {
      auto rule = relax::ParseManualRule(
          "partial: ?x knows ?y => ?y knows ?x @ 0.5", 1);
      TRINIT_RETURN_IF_ERROR(rule.status());
      TRINIT_RETURN_IF_ERROR(rules->Add(std::move(rule).value()));
      return Status::Internal("operator failed after adding a rule");
    }
  };
  auto engine = Trinit::Open(testing::BuildPaperXkg());
  ASSERT_TRUE(engine.ok());
  auto generation_now = [&engine] {
    auto response = engine->Execute(QueryRequest::Text("?x bornIn Ulm", 1));
    EXPECT_TRUE(response.ok());
    return response.ok() ? response->serving.generation : 0;
  };
  const size_t rules_before = engine->rules().size();
  const uint64_t generation_before = generation_now();

  AddThenFailOperator op;
  EXPECT_FALSE(engine->RunOperator(op).ok());
  EXPECT_EQ(engine->rules().size(), rules_before);
  EXPECT_EQ(generation_now(), generation_before);
}

TEST(TrinitTest, PerRequestOverridesServeMixedWorkloadsFromOneEngine) {
  // One engine; two requests differing only in k and relaxation must
  // match engines *built* with those settings.
  auto engine = Trinit::Open(testing::BuildPaperXkg());
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE(engine->AddManualRules(testing::kPaperRulesText).ok());

  TrinitOptions strict_options;
  strict_options.processor.enable_relaxation = false;
  auto strict_engine =
      Trinit::Open(testing::BuildPaperXkg(), strict_options);
  ASSERT_TRUE(strict_engine.ok());
  ASSERT_TRUE(strict_engine->AddManualRules(testing::kPaperRulesText).ok());

  QueryRequest relaxed = QueryRequest::Text("?x bornIn Germany", 3);
  QueryRequest strict = relaxed;
  strict.enable_relaxation = false;

  auto relaxed_response = engine->Execute(relaxed);
  auto strict_response = engine->Execute(strict);
  auto strict_reference = strict_engine->Query("?x bornIn Germany", 3);
  ASSERT_TRUE(relaxed_response.ok());
  ASSERT_TRUE(strict_response.ok());
  ASSERT_TRUE(strict_reference.ok());

  // Relaxation finds Einstein via the geo rule; strict matching cannot.
  ASSERT_FALSE(relaxed_response->result().answers.empty());
  EXPECT_EQ(engine->RenderAnswer(relaxed_response->result(), 0),
            "?x = AlbertEinstein");
  EXPECT_EQ(strict_response->result().answers.size(),
            strict_reference->answers.size());
  EXPECT_TRUE(strict_response->result().answers.empty());
  EXPECT_LE(relaxed_response->result().answers.size(), 3u);
}

TEST(TrinitTest, QueryParseErrorsPropagate) {
  auto engine = Trinit::Open(testing::BuildPaperXkg());
  ASSERT_TRUE(engine.ok());
  auto result = engine->Query("?x bornIn", 5);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kParseError);
}

// End-to-end evaluation smoke test: TriniT must beat the no-relaxation
// and keyword baselines on the generated workload (the E1 shape).
TEST(TrinitEvalTest, TrinitBeatsBaselinesOnWorkload) {
  synth::World world = SmallWorld(33);
  auto engine = Trinit::FromWorld(world);
  ASSERT_TRUE(engine.ok());

  // KG-only exact baseline: a separate XKG without the extraction layer.
  xkg::XkgBuilder kg_only_builder;
  synth::KgGenerator::PopulateKg(world, &kg_only_builder);
  auto kg_only = kg_only_builder.Build();
  ASSERT_TRUE(kg_only.ok());
  baselines::ExactEngine kg_exact(*kg_only, {});

  eval::WorkloadGenerator::Options wopts;
  wopts.num_queries = 18;  // keep the unit test quick
  eval::Workload workload = eval::WorkloadGenerator::Generate(world, wopts);
  ASSERT_FALSE(workload.queries.empty());

  // Both systems run through the unified core::Engine interface.
  std::vector<eval::EngineUnderTest> systems = {
      {"TriniT", &engine.value(), {}},
      {"KG-exact", &kg_exact, {}},
  };
  auto reports = eval::Runner::Run(workload, systems, 10);
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_GT(reports[0].ndcg5, reports[1].ndcg5)
      << "TriniT must beat the KG-exact baseline";
  EXPECT_GT(reports[0].ndcg5, 0.2);
}

}  // namespace
}  // namespace trinit::core
