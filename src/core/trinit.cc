#include "core/trinit.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <optional>
#include <thread>
#include <utility>

#include "query/parser.h"
#include "relax/manual_rules.h"
#include "synth/kg_generator.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace trinit::core {

Trinit::Trinit(xkg::Xkg xkg, relax::RuleSet rules, TrinitOptions options,
               uint64_t generation)
    : writer_mu_(std::make_unique<Mutex>()),
      current_mu_(std::make_unique<Mutex>()),
      options_(std::move(options)),
      serving_cache_(std::make_unique<serve::ServingCache>(options_.serving)),
      registry_(std::make_unique<obs::MetricsRegistry>()),
      slow_log_(std::make_unique<obs::SlowQueryLog>(
          options_.obs.slow_query_ms, options_.obs.slow_log_capacity)) {
  // Bind every instrument before the engine is shared: handles are
  // plain pointer writes published by the factory-return handoff (and,
  // for the score-shape handles of each later XKG, by the state swap).
  // With `obs.metrics` off nothing registers and every handle stays an
  // unbound no-op — the runtime proxy for TRINIT_OBS_COMPILED_OUT.
  if (options_.obs.metrics) {
    metrics_ = EngineMetrics::Register(*registry_);
    serve::ServingCache::Metrics cache_metrics;
    cache_metrics.answer_hits = metrics_.answer_hits;
    cache_metrics.answer_misses = metrics_.answer_misses;
    cache_metrics.answer_insertions = metrics_.answer_insertions;
    cache_metrics.answer_evictions = metrics_.answer_evictions;
    cache_metrics.invalidations = metrics_.invalidations;
    cache_metrics.body_shares = metrics_.body_shares;
    cache_metrics.plan_hits = metrics_.plan_hits;
    cache_metrics.plan_misses = metrics_.plan_misses;
    cache_metrics.plan_invalidated = metrics_.plan_invalidated;
    serving_cache_->BindMetrics(cache_metrics);
  }
  std::shared_ptr<const EngineState> state =
      std::make_shared<const EngineState>(EngineState{
          NewXkgState(std::move(xkg)), std::move(rules), generation});
  MutexLock lock(*current_mu_);
  current_ = std::move(state);
}

Result<Trinit> Trinit::Open(xkg::Xkg xkg, TrinitOptions options) {
  // The options are stored exactly once; the miner setup below reads the
  // engine's copy so the two can never drift apart.
  Trinit engine(std::move(xkg), relax::RuleSet(), std::move(options),
                /*generation=*/0);
  const TrinitOptions& opts = engine.options_;
  if (opts.mine_synonyms) {
    relax::SynonymMiner miner(opts.synonym_options);
    TRINIT_RETURN_IF_ERROR(engine.RunOperator(miner));
  }
  if (opts.mine_inversions) {
    relax::InversionMiner miner(opts.inversion_options);
    TRINIT_RETURN_IF_ERROR(engine.RunOperator(miner));
  }
  if (opts.mine_expansions) {
    relax::BridgeMiner miner(opts.bridge_options);
    TRINIT_RETURN_IF_ERROR(engine.RunOperator(miner));
  }
  return engine;
}

Result<Trinit> Trinit::Open(const std::string& path, TrinitOptions options,
                            storage::LoadReport* report) {
  WallTimer open_timer;
  TRINIT_ASSIGN_OR_RETURN(
      storage::LoadedSnapshot snapshot,
      storage::SnapshotReader::Read(path, options.snapshot_read));
  const double open_ms = open_timer.ElapsedMillis();
  if (report != nullptr) *report = snapshot.report;
  // No mining on this path: the snapshot's rule set *is* the serving
  // state (mined + manual + operator rules as of the save), and the
  // engine continues the saved engine's generation sequence.
  Trinit engine(std::move(snapshot.xkg), std::move(snapshot.rules),
                std::move(options), snapshot.generation);
  engine.RecordOpenMetrics(snapshot.report, open_ms);
  return engine;
}

void Trinit::RecordOpenMetrics(const storage::LoadReport& report,
                               double open_ms) const {
  metrics_.open_ms.Observe(open_ms);
  metrics_.snapshot_bytes.Set(static_cast<int64_t>(report.bytes));
  metrics_.bytes_touched_open.Set(static_cast<int64_t>(report.bytes_touched));
  metrics_.resident_bytes.Set(static_cast<int64_t>(report.resident_bytes));
  metrics_.mapped.Set(report.mapped ? 1 : 0);
}

std::shared_ptr<const EngineState> Trinit::Pin() const {
  MutexLock lock(*current_mu_);
  return current_;
}

const EngineState& Trinit::StateOf(
    const topk::TopKResult& result,
    std::shared_ptr<const EngineState>* pinned) const {
  // Only Trinit sets a keepalive, and it always parks an EngineState;
  // the caller's result keeps it alive for the call.
  if (result.keepalive != nullptr) {
    return *static_cast<const EngineState*>(result.keepalive.get());
  }
  *pinned = Pin();
  return **pinned;
}

std::shared_ptr<const XkgState> Trinit::NewXkgState(xkg::Xkg xkg) const {
  if (options_.obs.metrics) {
    xkg.BindScoreMetrics(metrics_.shape_sort_ms, metrics_.shape_builds);
  }
  return std::make_shared<const XkgState>(std::move(xkg));
}

void Trinit::Publish(std::shared_ptr<const XkgState> xkg_state,
                     relax::RuleSet rules, uint64_t generation) {
  std::shared_ptr<const EngineState> next =
      std::make_shared<const EngineState>(
          EngineState{std::move(xkg_state), std::move(rules), generation});
  std::shared_ptr<const EngineState> previous;
  {
    MutexLock lock(*current_mu_);
    previous = std::exchange(current_, std::move(next));
  }
  // No answer of an older generation stays cached: its body would keep
  // a retired state alive for a key no new reader asks for.
  serving_cache_->Publish(generation);
  // `previous` is released outside the state mutex. The old state goes
  // with its last reference: this writer's, once it returns, or that of
  // the last reader or held result still on it.
}

const xkg::Xkg& Trinit::xkg() const { return Pin()->xkg(); }

const relax::RuleSet& Trinit::rules() const { return Pin()->rules; }

const suggest::Autocomplete& Trinit::autocomplete() const {
  return Pin()->xkg_state->autocomplete();
}

uint64_t Trinit::generation() const { return Pin()->generation; }

Status Trinit::Save(const std::string& path) const {
  const std::shared_ptr<const EngineState> state = Pin();
  return storage::SnapshotWriter::Write(state->xkg(), state->rules,
                                        state->generation, path);
}

Result<Trinit> Trinit::FromWorld(const synth::World& world,
                                 TrinitOptions options,
                                 BuildReport* report) {
  xkg::XkgBuilder builder;
  synth::KgGenerator::PopulateKg(world, &builder);

  std::vector<synth::Document> docs =
      synth::CorpusGenerator::Generate(world);
  openie::Pipeline pipeline(openie::Extractor(),
                            openie::Pipeline::LinkerForWorld(world));
  openie::Pipeline::Stats stats = pipeline.Run(docs, &builder);

  TRINIT_ASSIGN_OR_RETURN(xkg::Xkg xkg, builder.Build());
  if (report != nullptr) {
    report->kg_triples = xkg.kg_triple_count();
    report->extraction_triples = xkg.extraction_triple_count();
    report->corpus_documents = stats.documents;
    report->corpus_sentences = stats.sentences;
    report->extractions = stats.extractions;
  }
  TRINIT_ASSIGN_OR_RETURN(Trinit engine, Open(std::move(xkg), options));
  if (report != nullptr) {
    report->rules_mined = engine.rules().size();
  }
  return engine;
}

Status Trinit::AddManualRules(std::string_view text) {
  // Parsing is pure; it needs no lock.
  TRINIT_ASSIGN_OR_RETURN(std::vector<relax::Rule> parsed,
                          relax::ParseManualRules(text));
  MutexLock writer(*writer_mu_);
  const std::shared_ptr<const EngineState> current = Pin();
  relax::RuleSet rules = current->rules;
  for (relax::Rule& rule : parsed) {
    TRINIT_RETURN_IF_ERROR(rules.Add(std::move(rule)));
  }
  // New rules change the rewrite space, hence cached answers (and,
  // harmlessly, cached plans): the new generation invalidates both.
  Publish(current->xkg_state, std::move(rules), current->generation + 1);
  return Status::Ok();
}

Status Trinit::RunOperator(relax::RelaxationOperator& op) {
  MutexLock writer(*writer_mu_);
  const std::shared_ptr<const EngineState> current = Pin();
  // The operator adds to a copy: if it fails part-way, the rules it
  // added before the error go with the copy.
  relax::RuleSet rules = current->rules;
  TRINIT_RETURN_IF_ERROR(op.Generate(current->xkg(), &rules));
  Publish(current->xkg_state, std::move(rules), current->generation + 1);
  return Status::Ok();
}

Status Trinit::ExtendKg(std::string_view facts_text) {
  // Parse and check every fact before taking the writer mutex.
  std::vector<query::TriplePattern> facts;
  for (const std::string& raw : Split(facts_text, '\n')) {
    std::string_view line = Trim(raw);
    if (line.empty() || line.front() == '#') continue;
    TRINIT_ASSIGN_OR_RETURN(query::Query parsed,
                            query::Parser::Parse(line));
    for (const query::TriplePattern& p : parsed.patterns()) {
      for (const query::Term* slot : {&p.s, &p.p, &p.o}) {
        if (slot->is_variable()) {
          return Status::InvalidArgument(
              "facts must be fully ground, got variable in: " +
              p.ToString());
        }
      }
      facts.push_back(p);
    }
  }
  if (facts.empty()) return Status::InvalidArgument("no facts to add");

  // The rebuild runs off the read path: readers keep running on the
  // current state until the swap in Publish.
  MutexLock writer(*writer_mu_);
  const std::shared_ptr<const EngineState> current = Pin();
  xkg::XkgBuilder builder = xkg::XkgBuilder::FromXkg(current->xkg());
  auto intern = [&builder](const query::Term& t) {
    switch (t.kind) {
      case query::Term::Kind::kToken:
        return builder.dict().InternToken(t.text);
      case query::Term::Kind::kLiteral:
        return builder.dict().InternLiteral(t.text);
      default:
        return builder.dict().InternResource(t.text);
    }
  };
  for (const query::TriplePattern& p : facts) {
    builder.AddKgFact(intern(p.s), intern(p.p), intern(p.o));
  }
  TRINIT_ASSIGN_OR_RETURN(xkg::Xkg rebuilt, builder.Build());
  std::shared_ptr<const XkgState> xkg_state = NewXkgState(std::move(rebuilt));
  // Term ids are not stable across rebuilds: re-resolve rule constants
  // against the new dictionary. Term ids, index lists, and statistics
  // all changed, so the new generation retires every cached plan and
  // answer.
  relax::RuleSet rules = current->rules;
  rules.ResolveAgainst(xkg_state->xkg().dict());
  Publish(std::move(xkg_state), std::move(rules), current->generation + 1);
  return Status::Ok();
}

Result<QueryResponse> Trinit::Execute(const QueryRequest& request) const {
  // Pinned once: the whole request — parse, cache key, plan, join —
  // runs on this state, whatever a writer publishes meanwhile.
  const std::shared_ptr<const EngineState> state = Pin();
  WallTimer total;
  metrics_.requests.Increment();
  // In-flight gauge + high-water mark, decremented on every exit path.
  obs::GaugeGuard in_flight(metrics_.active_requests,
                            metrics_.concurrent_peak);
  QueryResponse response;
  response.serving.generation = state->generation;
  ResolvedOptions resolved =
      ResolveRequestOptions(options_.scorer, options_.processor, request);

  WallTimer stage;
  query::Query parsed_storage;
  Result<const query::Query*> resolved_query =
      ResolveRequestQuery(request, state->xkg().dict(), &parsed_storage);
  if (!resolved_query.ok()) {
    metrics_.parse_errors.Increment();
    return resolved_query.status();
  }
  const query::Query* q = *resolved_query;
  // Stage wall times are always measured: the span tree of a traced or
  // slow request is built from them after the fact. A stage that did
  // not run stays unset.
  const double parse_ms = stage.ElapsedMillis();
  std::optional<double> cache_ms;
  std::optional<double> process_ms;

  auto finish = [&]() -> QueryResponse&& {
    response.effective_scorer = resolved.scorer;
    response.effective_processor = resolved.processor;
    response.deadline_hit = response.stats.deadline_hit;
    response.wall_ms = total.ElapsedMillis();
    FinishRequestObservation(request, *q, parse_ms, cache_ms, process_ms,
                             &response);
    return std::move(response);
  };

  // Serving cache, answer layer: a complete result stored for the same
  // canonical query under the same effective configuration and
  // generation short-circuits everything below — no planning, no
  // streams, no rank-join.
  std::string answer_key;
  const bool try_answer_cache = serving_cache_->options().enabled &&
                                serving_cache_->options().cache_answers;
  if (try_answer_cache) {
    stage.Reset();
    // The processor's canonical form: projection pinned explicitly, so
    // an implicit-projection spelling and its explicit equivalent land
    // on one key. (Constant resolution is irrelevant to the key — it
    // renders from term text — and is left to the processor.)
    query::Query canonical(q->patterns(), q->EffectiveProjection());
    answer_key = serve::ServingCache::AnswerKey(
        canonical, resolved.scorer, resolved.processor, state->generation);
    std::shared_ptr<const topk::TopKResult> cached =
        serving_cache_->LookupAnswer(answer_key);
    cache_ms = stage.ElapsedMillis();
    if (cached != nullptr) {
      // Alias the stored immutable body — no deep copy of k answers.
      // `response.stats` stays all-zero: the hit did no processing work
      // (the body's own stats are the stored run's).
      response.result_body = std::move(cached);
      response.serving.answer_hit = true;
      return finish();
    }
  }

  stage.Reset();
  topk::TopKProcessor processor(state->xkg(), state->rules, resolved.scorer,
                                resolved.processor,
                                serving_cache_->plan_cache(),
                                state->generation);
  TRINIT_ASSIGN_OR_RETURN(topk::TopKResult computed, processor.Answer(*q));
  // The result keeps its state: its term ids and rule pointers stay
  // meaningful to Explain, RenderAnswer and Suggest after any write.
  computed.keepalive = state;
  response.AdoptResult(std::move(computed));
  process_ms = stage.ElapsedMillis();

  // Only complete runs are cacheable: a deadline-truncated result is
  // not what uncached execution would produce tomorrow. Storing shares
  // the response's own body — the cache never deep-copies either.
  if (try_answer_cache && !response.stats.deadline_hit) {
    serving_cache_->StoreAnswer(answer_key, state->generation,
                                response.result_body);
  }
  return finish();
}

void Trinit::FinishRequestObservation(const QueryRequest& request,
                                      const query::Query& q, double parse_ms,
                                      std::optional<double> cache_ms,
                                      std::optional<double> process_ms,
                                      QueryResponse* response) const {
  // The caller has already stamped `response->wall_ms`, so every
  // consumer below (latency histogram, span tree, slow-log gate) sees
  // one consistent end-to-end number.
  ServingStats& serving = response->serving;
  // Satellite of PR 10: cumulative counters now come from the lock-free
  // registry on *every* request — the per-trace shard-lock sweep is
  // gone. Relaxed reads; zeros when metrics are off.
  serving.answer_hits = static_cast<size_t>(metrics_.answer_hits.Value());
  serving.answer_misses = static_cast<size_t>(metrics_.answer_misses.Value());
  serving.answer_evictions =
      static_cast<size_t>(metrics_.answer_evictions.Value());
  serving.plan_hits = static_cast<size_t>(metrics_.plan_hits.Value());
  serving.plan_misses = static_cast<size_t>(metrics_.plan_misses.Value());
  serving.plan_invalidated =
      static_cast<size_t>(metrics_.plan_invalidated.Value());

  const topk::TopKResult::RunStats& stats = response->stats;

  // ------------------------------------------------ registry recording
  metrics_.request_ms.Observe(response->wall_ms);
  if (response->deadline_hit) metrics_.deadline_hits.Increment();
  metrics_.items_pulled.Increment(stats.items_pulled);
  metrics_.items_decoded.Increment(stats.items_decoded);
  metrics_.items_skipped.Increment(stats.items_skipped);
  metrics_.combinations_tried.Increment(stats.combinations_tried);
  metrics_.partition_probes.Increment(stats.partition_probes);
  if (!serving.answer_hit) {
    // Cache hits did no pulling or planning: recording zeros would
    // poison the depth and error distributions.
    metrics_.pulls_per_request.Observe(
        static_cast<double>(stats.items_pulled));
    if (response->result_body != nullptr &&
        metrics_.plan_cardinality_error.bound()) {
      for (const topk::TopKResult::PlanStep& step : response->result().plan) {
        const double ratio = (static_cast<double>(step.pulled) + 1.0) /
                             (step.estimated + 1.0);
        metrics_.plan_cardinality_error.Observe(
            std::fabs(std::log2(ratio)));
      }
    }
  }

  // ------------------------------------------------- span + slow log
  const bool slow = slow_log_->ShouldRecord(response->wall_ms);
  if (!request.trace && !slow) return;

  obs::TraceSpan root = RequestSpan(*response, parse_ms, cache_ms, process_ms);

  if (slow) {
    obs::SlowQueryRecord record;
    record.query = q.ToString();
    record.wall_ms = response->wall_ms;
    record.generation = serving.generation;
    record.answer_hit = serving.answer_hit;
    record.deadline_hit = response->deadline_hit;
    // An answer hit executed no plan; the aliased body's embedded plan
    // belongs to the run that produced it, not this request.
    if (!serving.answer_hit && response->result_body != nullptr) {
      std::string plan_text;
      for (const topk::TopKResult::PlanStep& step : response->result().plan) {
        if (!plan_text.empty()) plan_text.push_back(' ');
        char buf[64];
        std::snprintf(buf, sizeof(buf), "p%zu(est=%.0f pulled=%zu)",
                      step.pattern, step.estimated, step.pulled);
        plan_text.append(buf);
      }
      record.plan = std::move(plan_text);
    }
    record.counters = root.counters;
    record.span = root;
    slow_log_->Record(std::move(record));
    metrics_.slowlog_records.Increment();
  }
  if (request.trace) response->span = std::move(root);
}

std::vector<Result<QueryResponse>> Trinit::ExecuteBatch(
    std::span<const QueryRequest> requests, int num_threads) const {
  size_t n = requests.size();
  if (num_threads <= 0) {
    unsigned hw = std::thread::hardware_concurrency();
    num_threads = static_cast<int>(hw == 0 ? 1 : hw);
  }
  // Never spawn more workers than there are requests to claim.
  num_threads = static_cast<int>(
      std::min<size_t>(static_cast<size_t>(num_threads), n));

  // Slots keep results aligned with requests regardless of which worker
  // finishes first; each slot is written by exactly one worker.
  std::vector<std::optional<Result<QueryResponse>>> slots(n);
  std::atomic<size_t> next{0};
  auto worker = [&]() {
    for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      slots[i] = Execute(requests[i]);
    }
  };

  if (num_threads <= 1 || n <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<size_t>(num_threads));
    for (int t = 0; t < num_threads; ++t) pool.emplace_back(worker);
    for (std::thread& th : pool) th.join();
  }

  std::vector<Result<QueryResponse>> results;
  results.reserve(n);
  for (std::optional<Result<QueryResponse>>& slot : slots) {
    TRINIT_CHECK(slot.has_value());
    results.push_back(std::move(*slot));
  }
  return results;
}

Result<topk::TopKResult> Trinit::Query(std::string_view text, int k) const {
  TRINIT_ASSIGN_OR_RETURN(QueryResponse response,
                          Execute(QueryRequest::Text(std::string(text), k)));
  // Moves when the body is not shared with the answer cache, copies
  // when it is; stats are per-request, zero on a hit.
  return response.ReleaseResult();
}

Result<topk::TopKResult> Trinit::Answer(const query::Query& q,
                                        int k) const {
  TRINIT_ASSIGN_OR_RETURN(QueryResponse response,
                          Execute(QueryRequest::Parsed(q, k)));
  return response.ReleaseResult();
}

explain::Explanation Trinit::Explain(const topk::TopKResult& result,
                                     size_t rank) const {
  TRINIT_CHECK(rank < result.answers.size());
  std::shared_ptr<const EngineState> pinned;
  const EngineState& state = StateOf(result, &pinned);
  return explain::ExplanationBuilder(state.xkg())
      .Explain(result.projection, result.answers[rank]);
}

std::vector<suggest::Suggestion> Trinit::Suggest(
    const query::Query& q, const topk::TopKResult& result) const {
  std::shared_ptr<const EngineState> pinned;
  const EngineState& state = StateOf(result, &pinned);
  return state.xkg_state->suggester().Suggest(q, result.answers);
}

std::string Trinit::RenderAnswer(const topk::TopKResult& result,
                                 size_t rank) const {
  TRINIT_CHECK(rank < result.answers.size());
  std::shared_ptr<const EngineState> pinned;
  const EngineState& state = StateOf(result, &pinned);
  std::vector<std::string> parts;
  for (size_t i = 0; i < result.projection.size(); ++i) {
    parts.push_back("?" + result.projection[i] + " = " +
                    state.xkg().dict().DebugLabel(result.ValueAt(rank, i)));
  }
  return Join(parts, ", ");
}

}  // namespace trinit::core
