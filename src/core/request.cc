#include "core/request.h"

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "query/parser.h"

namespace trinit::core {

QueryRequest QueryRequest::Text(std::string text, int k) {
  QueryRequest request;
  request.text = std::move(text);
  request.k = k;
  return request;
}

QueryRequest QueryRequest::Parsed(query::Query query, int k) {
  QueryRequest request;
  request.query = std::move(query);
  request.k = k;
  return request;
}

void QueryResponse::AdoptResult(topk::TopKResult result) {
  stats = result.stats;
  // The pointee is created non-const (and viewed through a
  // shared_ptr<const ...>) so ReleaseResult may legally cast away the
  // const and move out of a uniquely-owned body.
  result_body = std::make_shared<topk::TopKResult>(std::move(result));
}

topk::TopKResult QueryResponse::ReleaseResult() {
  topk::TopKResult out;
  if (result_body == nullptr) return out;  // no body (failed/released)
  if (result_body.use_count() == 1) {
    // Sole owner (no cache entry aliases it): stealing the body is safe
    // and legal — every body is allocated non-const (see AdoptResult;
    // cache hits alias bodies that were stored through the same path).
    out = std::move(const_cast<topk::TopKResult&>(*result_body));
  } else {
    out = *result_body;
  }
  out.stats = stats;
  result_body.reset();
  return out;
}

ResolvedOptions ResolveRequestOptions(
    const scoring::ScorerOptions& engine_scorer,
    const topk::ProcessorOptions& engine_processor,
    const QueryRequest& request) {
  ResolvedOptions resolved;
  resolved.scorer = request.scorer.value_or(engine_scorer);
  resolved.processor = request.processor.value_or(engine_processor);
  if (request.k > 0) resolved.processor.k = request.k;
  if (request.enable_relaxation.has_value()) {
    resolved.processor.enable_relaxation = *request.enable_relaxation;
  }
  if (request.timeout_ms > 0) {
    resolved.processor.deadline_ms = request.timeout_ms;
  }
  if (request.max_items_budget > 0) {
    resolved.processor.join.max_pulls = request.max_items_budget;
  }
  return resolved;
}

Result<const query::Query*> ResolveRequestQuery(
    const QueryRequest& request, const rdf::Dictionary& dict,
    query::Query* storage) {
  if (request.query.has_value()) return &*request.query;
  TRINIT_ASSIGN_OR_RETURN(*storage,
                          query::Parser::Parse(request.text, &dict));
  return storage;
}

namespace {

void AppendRunStatsCounters(
    const topk::TopKResult::RunStats& stats,
    std::vector<std::pair<std::string, double>>* counters) {
  auto add = [counters](const char* name, double value) {
    counters->emplace_back(name, value);
  };
  add("query_variants_total", static_cast<double>(stats.query_variants_total));
  add("query_variants_evaluated",
      static_cast<double>(stats.query_variants_evaluated));
  add("alternatives_total", static_cast<double>(stats.alternatives_total));
  add("alternatives_opened", static_cast<double>(stats.alternatives_opened));
  add("items_pulled", static_cast<double>(stats.items_pulled));
  add("items_decoded", static_cast<double>(stats.items_decoded));
  add("items_skipped", static_cast<double>(stats.items_skipped));
  add("combinations_tried", static_cast<double>(stats.combinations_tried));
  add("combinations_emitted",
      static_cast<double>(stats.combinations_emitted));
  add("partition_probes", static_cast<double>(stats.partition_probes));
  add("partition_fallbacks",
      static_cast<double>(stats.partition_fallbacks));
  add("plan_cache_hits", static_cast<double>(stats.plan_cache_hits));
  add("plan_cache_misses", static_cast<double>(stats.plan_cache_misses));
  add("deadline_hit", stats.deadline_hit ? 1.0 : 0.0);
}

void AppendServingStatsCounters(
    const ServingStats& s,
    std::vector<std::pair<std::string, double>>* counters) {
  auto add = [counters](const char* name, double value) {
    counters->emplace_back(name, value);
  };
  add("serving_answer_hit", s.answer_hit ? 1.0 : 0.0);
  add("serving_generation", static_cast<double>(s.generation));
  add("serving_answer_hits", static_cast<double>(s.answer_hits));
  add("serving_answer_misses", static_cast<double>(s.answer_misses));
  add("serving_answer_evictions", static_cast<double>(s.answer_evictions));
  add("serving_plan_hits", static_cast<double>(s.plan_hits));
  add("serving_plan_misses", static_cast<double>(s.plan_misses));
  add("serving_plan_invalidated",
      static_cast<double>(s.plan_invalidated));
}

}  // namespace

obs::TraceSpan RequestSpan(const QueryResponse& response, double parse_ms,
                           std::optional<double> cache_ms,
                           std::optional<double> process_ms) {
  obs::TraceSpan root;
  root.name = "execute";
  root.duration_ms = response.wall_ms;
  AppendRunStatsCounters(response.stats, &root.counters);
  AppendServingStatsCounters(response.serving, &root.counters);
  // Stages run strictly in parse -> cache -> process order, so each
  // child starts where the previous one ended.
  root.AddChild("parse", 0.0, parse_ms);
  double start_ms = parse_ms;
  if (cache_ms.has_value()) {
    root.AddChild("cache", start_ms, *cache_ms);
    start_ms += *cache_ms;
  }
  if (process_ms.has_value()) root.AddChild("process", start_ms, *process_ms);
  return root;
}

}  // namespace trinit::core
