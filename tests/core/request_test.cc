// Coverage for the request/response front door: per-request option
// overrides must behave exactly like an engine configured with those
// options at Open() time, and the resolved effective options must be
// reported back.

#include "core/request.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "baselines/exact_engine.h"
#include "baselines/keyword_engine.h"
#include "core/engine.h"
#include "core/trinit.h"
#include "query/parser.h"
#include "testing/paper_world.h"

namespace trinit::core {
namespace {

std::vector<std::string> Rendered(const Trinit& engine,
                                  const topk::TopKResult& result) {
  std::vector<std::string> out;
  for (size_t i = 0; i < result.answers.size(); ++i) {
    out.push_back(engine.RenderAnswer(result, i));
  }
  return out;
}

TEST(ResolveRequestOptionsTest, InheritsEngineDefaultsWhenUnset) {
  scoring::ScorerOptions scorer;
  scorer.use_idf = false;
  topk::ProcessorOptions processor;
  processor.k = 7;
  QueryRequest request;  // everything unset

  ResolvedOptions resolved =
      ResolveRequestOptions(scorer, processor, request);
  EXPECT_EQ(resolved.scorer, scorer);
  EXPECT_EQ(resolved.processor.k, 7);
  EXPECT_TRUE(resolved.processor.enable_relaxation);
}

TEST(ResolveRequestOptionsTest, RequestFieldsWinOverEngineAndOverrides) {
  topk::ProcessorOptions engine_processor;
  engine_processor.k = 7;

  QueryRequest request;
  topk::ProcessorOptions per_request;
  per_request.k = 3;
  per_request.max_query_variants = 5;
  request.processor = per_request;
  request.k = 2;                      // beats both k's
  request.enable_relaxation = false;  // beats the override's default
  request.timeout_ms = 12.5;
  request.max_items_budget = 99;

  ResolvedOptions resolved =
      ResolveRequestOptions({}, engine_processor, request);
  EXPECT_EQ(resolved.processor.k, 2);
  EXPECT_EQ(resolved.processor.max_query_variants, 5u);
  EXPECT_FALSE(resolved.processor.enable_relaxation);
  EXPECT_DOUBLE_EQ(resolved.processor.deadline_ms, 12.5);
  EXPECT_EQ(resolved.processor.join.max_pulls, 99u);
}

TEST(RequestTest, PerRequestKMatchesPerEngineK) {
  auto engine = Trinit::Open(testing::BuildPaperXkg());
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE(engine->AddManualRules(testing::kPaperRulesText).ok());

  // One engine, two requests with different k.
  auto r1 = engine->Execute(QueryRequest::Text("AlbertEinstein ?p ?o", 1));
  auto r5 = engine->Execute(QueryRequest::Text("AlbertEinstein ?p ?o", 5));
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r5.ok());
  EXPECT_EQ(r1->result().answers.size(), 1u);
  EXPECT_GT(r5->result().answers.size(), 1u);
  EXPECT_EQ(r1->effective_processor.k, 1);
  EXPECT_EQ(r5->effective_processor.k, 5);
  // Both rankings agree on the best score (the head itself can differ
  // under ties, which this star query has plenty of).
  EXPECT_DOUBLE_EQ(r1->result().answers[0].score,
                   r5->result().answers[0].score);
}

TEST(RequestTest, RelaxationOverrideMatchesEngineBuiltWithoutRelaxation) {
  // Reference: an engine whose processor disables relaxation at Open().
  core::TrinitOptions no_relax_options;
  no_relax_options.processor.enable_relaxation = false;
  auto no_relax_engine =
      Trinit::Open(testing::BuildPaperXkg(), no_relax_options);
  ASSERT_TRUE(no_relax_engine.ok());
  ASSERT_TRUE(
      no_relax_engine->AddManualRules(testing::kPaperRulesText).ok());

  // Subject: a fully-relaxing engine with a per-request off switch.
  auto engine = Trinit::Open(testing::BuildPaperXkg());
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE(engine->AddManualRules(testing::kPaperRulesText).ok());

  const char* queries[] = {"?x bornIn Germany",
                           "AlbertEinstein hasAdvisor ?x",
                           "AlbertEinstein affiliation ?x"};
  for (const char* text : queries) {
    QueryRequest off = QueryRequest::Text(text, 5);
    off.enable_relaxation = false;
    auto overridden = engine->Execute(off);
    auto reference = no_relax_engine->Query(text, 5);
    ASSERT_TRUE(overridden.ok()) << text;
    ASSERT_TRUE(reference.ok()) << text;
    EXPECT_EQ(Rendered(*engine, overridden->result()),
              Rendered(*no_relax_engine, *reference))
        << text;
    EXPECT_FALSE(overridden->effective_processor.enable_relaxation);

    // And the same engine still relaxes when the request does not say
    // otherwise.
    auto on = engine->Execute(QueryRequest::Text(text, 5));
    ASSERT_TRUE(on.ok());
    EXPECT_TRUE(on->effective_processor.enable_relaxation);
    EXPECT_GE(on->result().answers.size(),
              overridden->result().answers.size());
  }
}

TEST(RequestTest, ScorerOverrideMatchesEngineBuiltWithThatScorer) {
  scoring::ScorerOptions no_confidence;
  no_confidence.use_confidence = false;

  core::TrinitOptions reference_options;
  reference_options.scorer = no_confidence;
  auto reference_engine =
      Trinit::Open(testing::BuildPaperXkg(), reference_options);
  ASSERT_TRUE(reference_engine.ok());

  auto engine = Trinit::Open(testing::BuildPaperXkg());
  ASSERT_TRUE(engine.ok());

  QueryRequest request =
      QueryRequest::Text("AlbertEinstein 'won nobel for' ?x", 5);
  request.scorer = no_confidence;
  auto overridden = engine->Execute(request);
  auto reference =
      reference_engine->Query("AlbertEinstein 'won nobel for' ?x", 5);
  ASSERT_TRUE(overridden.ok());
  ASSERT_TRUE(reference.ok());
  ASSERT_EQ(overridden->result().answers.size(), reference->answers.size());
  for (size_t i = 0; i < reference->answers.size(); ++i) {
    EXPECT_DOUBLE_EQ(overridden->result().answers[i].score,
                     reference->answers[i].score);
  }
  EXPECT_EQ(overridden->effective_scorer, no_confidence);
}

TEST(RequestTest, ParsedQueryAndTextAgree) {
  auto engine = Trinit::Open(testing::BuildPaperXkg());
  ASSERT_TRUE(engine.ok());
  auto parsed = query::Parser::Parse("AlbertEinstein bornIn ?x",
                                     &engine->xkg().dict());
  ASSERT_TRUE(parsed.ok());

  auto from_text =
      engine->Execute(QueryRequest::Text("AlbertEinstein bornIn ?x", 5));
  auto from_parsed = engine->Execute(QueryRequest::Parsed(*parsed, 5));
  ASSERT_TRUE(from_text.ok());
  ASSERT_TRUE(from_parsed.ok());
  EXPECT_EQ(Rendered(*engine, from_text->result()),
            Rendered(*engine, from_parsed->result()));
}

TEST(RequestTest, TraceCollectsStages) {
  auto engine = Trinit::Open(testing::BuildPaperXkg());
  ASSERT_TRUE(engine.ok());

  QueryRequest request = QueryRequest::Text("AlbertEinstein bornIn ?x", 5);
  request.trace = true;
  auto response = engine->Execute(request);
  ASSERT_TRUE(response.ok());
  ASSERT_TRUE(response->span.has_value());
  const std::vector<obs::TraceSpan>& stages = response->span->children;
  ASSERT_EQ(stages.size(), 3u);
  EXPECT_EQ(stages[0].name, "parse");
  EXPECT_EQ(stages[1].name, "cache");
  EXPECT_EQ(stages[2].name, "process");
  EXPECT_GT(response->wall_ms, 0.0);

  // No trace -> no span.
  auto quiet =
      engine->Execute(QueryRequest::Text("AlbertEinstein bornIn ?x", 5));
  ASSERT_TRUE(quiet.ok());
  EXPECT_FALSE(quiet->span.has_value());
}

TEST(RequestTest, ParseErrorsPropagateThroughExecute) {
  auto engine = Trinit::Open(testing::BuildPaperXkg());
  ASSERT_TRUE(engine.ok());
  auto response = engine->Execute(QueryRequest::Text("?x bornIn", 5));
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kParseError);
}

TEST(RequestTest, ItemBudgetCapsWork) {
  auto engine = Trinit::Open(testing::BuildPaperXkg());
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE(engine->AddManualRules(testing::kPaperRulesText).ok());

  QueryRequest request = QueryRequest::Text("?x bornIn Germany", 5);
  request.max_items_budget = 1;
  auto response = engine->Execute(request);
  ASSERT_TRUE(response.ok());
  EXPECT_LE(response->stats.items_pulled, 1u);
  EXPECT_EQ(response->effective_processor.join.max_pulls, 1u);
}

TEST(RequestTest, ExpiredDeadlineTruncatesInsteadOfFailing) {
  auto engine = Trinit::Open(testing::BuildPaperXkg());
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE(engine->AddManualRules(testing::kPaperRulesText).ok());

  QueryRequest request = QueryRequest::Text("?x bornIn Germany", 5);
  request.timeout_ms = 1e-6;  // expires before any variant evaluates
  auto response = engine->Execute(request);
  ASSERT_TRUE(response.ok());  // truncation is not an error
  EXPECT_TRUE(response->deadline_hit);
  EXPECT_TRUE(response->stats.deadline_hit);
  EXPECT_DOUBLE_EQ(response->effective_processor.deadline_ms, 1e-6);
}

TEST(RequestTest, BaselinesServeRequestsThroughEngineInterface) {
  xkg::Xkg xkg = testing::BuildPaperXkg();
  baselines::ExactEngine exact(xkg, {});
  baselines::KeywordEngine keyword(xkg, {});
  auto trinit = Trinit::Open(testing::BuildPaperXkg());
  ASSERT_TRUE(trinit.ok());

  const Engine* engines[] = {&exact, &keyword, &trinit.value()};
  for (const Engine* engine : engines) {
    auto response =
        engine->Execute(QueryRequest::Text("AlbertEinstein bornIn ?x", 5));
    ASSERT_TRUE(response.ok()) << engine->name();
    ASSERT_FALSE(response->result().answers.empty()) << engine->name();
    EXPECT_EQ(engine->xkg().dict().DebugLabel(
                  response->result().ValueAt(0, 0)),
              "Ulm")
        << engine->name();
    EXPECT_FALSE(engine->name().empty());
  }
}

TEST(RequestTest, BaselinesTraceTheEngineSpan) {
  xkg::Xkg xkg = testing::BuildPaperXkg();
  baselines::ExactEngine exact(xkg, {});
  baselines::KeywordEngine keyword(xkg, {});
  auto trinit = Trinit::Open(testing::BuildPaperXkg());
  ASSERT_TRUE(trinit.ok());

  QueryRequest request = QueryRequest::Text("AlbertEinstein bornIn ?x", 5);
  request.trace = true;
  auto counter_keys = [](const obs::TraceSpan& span) {
    std::vector<std::string> keys;
    for (const auto& [key, value] : span.counters) keys.push_back(key);
    return keys;
  };
  auto reference = trinit->Execute(request);
  ASSERT_TRUE(reference.ok());
  ASSERT_TRUE(reference->span.has_value());

  const Engine* baselines[] = {&exact, &keyword};
  for (const Engine* engine : baselines) {
    auto response = engine->Execute(request);
    ASSERT_TRUE(response.ok()) << engine->name();
    ASSERT_TRUE(response->span.has_value()) << engine->name();
    const obs::TraceSpan& root = *response->span;
    EXPECT_EQ(root.name, "execute");
    EXPECT_DOUBLE_EQ(root.duration_ms, response->wall_ms);
    // The engine's counter vocabulary; no serving cache, so no cache
    // stage between parse and process.
    EXPECT_EQ(counter_keys(root), counter_keys(*reference->span))
        << engine->name();
    ASSERT_EQ(root.children.size(), 2u) << engine->name();
    EXPECT_EQ(root.children[0].name, "parse");
    EXPECT_EQ(root.children[1].name, "process");
    EXPECT_DOUBLE_EQ(root.children[1].start_ms,
                     root.children[0].duration_ms);

    auto quiet = engine->Execute(QueryRequest::Text(request.text, 5));
    ASSERT_TRUE(quiet.ok());
    EXPECT_FALSE(quiet->span.has_value()) << engine->name();
  }
}

TEST(RequestTest, ExactEngineIgnoresRelaxationOverride) {
  xkg::Xkg xkg = testing::BuildPaperXkg();
  baselines::ExactEngine exact(xkg, {});
  QueryRequest request = QueryRequest::Text("?x bornIn Germany", 5);
  request.enable_relaxation = true;  // must not turn the baseline soft
  auto response = exact.Execute(request);
  ASSERT_TRUE(response.ok());
  EXPECT_TRUE(response->result().answers.empty());
  EXPECT_FALSE(response->effective_processor.enable_relaxation);
}

}  // namespace
}  // namespace trinit::core
