#include "baselines/exact_engine.h"

#include "query/parser.h"
#include "util/timer.h"

namespace trinit::baselines {

ExactEngine::ExactEngine(const xkg::Xkg& xkg,
                         scoring::ScorerOptions scorer_options,
                         int default_k)
    : xkg_(xkg),
      scorer_options_(scorer_options),
      default_k_(default_k) {}

Result<core::QueryResponse> ExactEngine::Execute(
    const core::QueryRequest& request) const {
  WallTimer total;
  core::QueryResponse response;

  topk::ProcessorOptions engine_defaults;
  engine_defaults.k = default_k_;
  core::ResolvedOptions resolved = core::ResolveRequestOptions(
      scorer_options_, engine_defaults, request);
  // Exact semantics are the point of this baseline: not overridable.
  resolved.processor.enable_relaxation = false;

  WallTimer stage;
  query::Query parsed_storage;
  TRINIT_ASSIGN_OR_RETURN(
      const query::Query* q,
      core::ResolveRequestQuery(request, xkg_.dict(), &parsed_storage));
  const double parse_ms = stage.ElapsedMillis();

  stage.Reset();
  topk::TopKProcessor processor(xkg_, empty_rules_, resolved.scorer,
                                resolved.processor);
  TRINIT_ASSIGN_OR_RETURN(topk::TopKResult computed, processor.Answer(*q));
  response.AdoptResult(std::move(computed));
  const double process_ms = stage.ElapsedMillis();

  response.effective_scorer = resolved.scorer;
  response.effective_processor = resolved.processor;
  response.deadline_hit = response.stats.deadline_hit;
  response.wall_ms = total.ElapsedMillis();
  if (request.trace) {
    response.span =
        core::RequestSpan(response, parse_ms, std::nullopt, process_ms);
  }
  return response;
}

Result<topk::TopKResult> ExactEngine::Answer(const query::Query& q,
                                             int k) const {
  core::QueryRequest request = core::QueryRequest::Parsed(q, k);
  TRINIT_ASSIGN_OR_RETURN(core::QueryResponse response, Execute(request));
  return response.ReleaseResult();  // no cache shares the body: a move
}

}  // namespace trinit::baselines
