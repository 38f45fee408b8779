#include "topk/topk_processor.h"

#include <algorithm>
#include <unordered_map>

#include "topk/relaxed_stream.h"
#include "util/logging.h"

namespace trinit::topk {

rdf::TermId TopKResult::ValueAt(size_t rank, size_t idx) const {
  TRINIT_CHECK(rank < answers.size());
  TRINIT_CHECK(idx < projection.size());
  return answers[rank].binding.Get(static_cast<query::VarId>(idx));
}

TopKProcessor::TopKProcessor(const xkg::Xkg& xkg,
                             const relax::RuleSet& rules,
                             scoring::ScorerOptions scorer_options,
                             ProcessorOptions options,
                             const plan::PlanCache* shared_plan_cache,
                             uint64_t plan_generation)
    : xkg_(xkg),
      rules_(rules),
      scorer_(xkg, scorer_options),
      options_(options),
      owned_plan_cache_(shared_plan_cache != nullptr
                            ? nullptr
                            : std::make_unique<plan::PlanCache>()),
      plan_cache_(shared_plan_cache != nullptr ? shared_plan_cache
                                               : owned_plan_cache_.get()),
      plan_generation_(plan_generation) {
  options_.join.k = options_.k;
  if (options_.exhaustive) {
    options_.join.drain = true;
    options_.join.max_pulls = SIZE_MAX;
  }
  for (const relax::Rule& r : rules_.rules()) {
    if (r.lhs.size() > 1) {
      Status s = structural_rules_.Add(r);
      TRINIT_CHECK(s.ok());
      structural_origin_.push_back(&r);
    }
  }
  // `rules_` holds no duplicates, so the copy kept every rule it got.
  TRINIT_CHECK(structural_origin_.size() == structural_rules_.size());
}

std::vector<TopKProcessor::Variant> TopKProcessor::QueryVariants(
    const query::Query& q) const {
  std::vector<Variant> variants;
  if (!options_.enable_relaxation || structural_rules_.size() == 0) {
    variants.push_back(Variant{q, 1.0, {}});
    return variants;
  }
  relax::Rewriter::Options ropts = options_.rewrite;
  ropts.max_rewrites = options_.max_query_variants;
  relax::Rewriter rewriter(structural_rules_, ropts);
  for (relax::RewriteResult& rw : rewriter.EnumerateRewrites(q)) {
    // Answers' derivations must point into `rules_`, which outlives the
    // result (the caller's, kept alive by core::Trinit's keepalive),
    // not into the private copy, which dies with this processor.
    for (const relax::Rule*& rule : rw.applied) {
      rule = structural_origin_[static_cast<size_t>(
          rule - structural_rules_.rules().data())];
    }
    variants.push_back(
        Variant{std::move(rw.query), rw.weight, std::move(rw.applied)});
  }
  return variants;
}

void TopKProcessor::EvaluateVariant(
    const Variant& variant, const std::vector<std::string>& projection,
    std::chrono::steady_clock::time_point deadline,
    TopKResult* result) const {
  const query::Query& vq = variant.query;
  query::VarTable vars(vq);
  std::vector<query::VarId> projection_ids;
  projection_ids.reserve(projection.size());
  for (const std::string& name : projection) {
    std::optional<query::VarId> id = vars.Find(name);
    if (!id.has_value()) return;  // variant lost a projection variable
    projection_ids.push_back(*id);
  }

  relax::Rewriter pattern_rewriter(rules_, options_.rewrite);

  // Compile (or fetch) the variant's plan; streams are then built in
  // the plan's execution order so the join engine's hash partitions can
  // use the precomputed pair signatures directly. Derivation steps keep
  // the *original* pattern index — execution order is invisible to
  // answers and explanations.
  std::shared_ptr<const plan::JoinPlan> jplan;
  if (options_.use_cost_order ||
      options_.join.probe_mode == JoinEngine::ProbeMode::kHashPartition) {
    bool cache_hit = false;
    jplan = plan_cache_->Get(vq, vars, xkg_, plan_generation_,
                             options_.use_cost_order, &cache_hit);
    // Attributed per call, not via cache-global deltas, so concurrent
    // Answer runs on one processor never report each other's counters.
    if (cache_hit) {
      ++result->stats.plan_cache_hits;
    } else {
      ++result->stats.plan_cache_misses;
    }
  }

  std::vector<std::unique_ptr<BindingStream>> streams;
  std::vector<RelaxedStream*> relaxed;  // borrowed, for stats
  for (size_t pos = 0; pos < vq.patterns().size(); ++pos) {
    const size_t i = jplan != nullptr ? jplan->order[pos] : pos;
    if (options_.enable_relaxation && !options_.exhaustive) {
      std::vector<Alternative> alts =
          AlternativesForPattern(pattern_rewriter, vq.patterns()[i]);
      result->stats.alternatives_total += alts.size();
      auto stream = std::make_unique<RelaxedStream>(xkg_, scorer_, vars,
                                                    std::move(alts), i);
      relaxed.push_back(stream.get());
      streams.push_back(std::move(stream));
    } else if (options_.enable_relaxation) {
      // Exhaustive mode: pay for every alternative up front.
      std::vector<Alternative> alts =
          AlternativesForPattern(pattern_rewriter, vq.patterns()[i]);
      result->stats.alternatives_total += alts.size();
      result->stats.alternatives_opened += alts.size();
      std::vector<std::unique_ptr<BindingStream>> opened;
      for (const Alternative& alt : alts) {
        if (alt.patterns.size() == 1) {
          opened.push_back(std::make_unique<LeafStream>(
              xkg_, scorer_, vars, alt.patterns[0], i, alt.rules,
              scoring::LmScorer::LogWeight(alt.weight)));
        } else {
          opened.push_back(
              std::make_unique<GroupStream>(xkg_, scorer_, vars, alt, i));
        }
      }
      streams.push_back(std::make_unique<MergeStream>(std::move(opened)));
    } else {
      streams.push_back(std::make_unique<LeafStream>(
          xkg_, scorer_, vars, vq.patterns()[i], i));
      ++result->stats.alternatives_total;
      ++result->stats.alternatives_opened;
    }
  }

  JoinEngine::Options join_options = options_.join;
  join_options.deadline = deadline;
  join_options.plan = jplan;
  // max_pulls is a whole-request budget: charge the items previous
  // variants already pulled against this variant's allowance.
  if (join_options.max_pulls != SIZE_MAX) {
    join_options.max_pulls =
        join_options.max_pulls > result->stats.items_pulled
            ? join_options.max_pulls - result->stats.items_pulled
            : 0;
  }
  JoinEngine engine(std::move(streams), vars, projection_ids,
                    join_options);
  std::vector<topk::Answer> variant_answers = engine.Run();

  result->stats.items_pulled += engine.stats().items_pulled;
  result->stats.items_decoded += engine.stats().items_decoded;
  result->stats.items_skipped += engine.stats().items_skipped;
  result->stats.combinations_tried += engine.stats().combinations_tried;
  result->stats.combinations_emitted += engine.stats().combinations_emitted;
  result->stats.partition_probes += engine.stats().partition_probes;
  result->stats.partition_fallbacks += engine.stats().partition_fallbacks;
  result->stats.deadline_hit |= engine.stats().deadline_hit;
  if (jplan != nullptr && result->plan.empty()) {
    // First evaluated variant: record the chosen order with estimated
    // vs. actual per-pattern cardinalities for the trace.
    const std::vector<size_t>& pulled = engine.stats().per_stream_pulled;
    result->plan.reserve(jplan->order.size());
    for (size_t pos = 0; pos < jplan->order.size(); ++pos) {
      TopKResult::PlanStep step;
      step.pattern = jplan->order[pos];
      step.estimated = jplan->estimates[step.pattern].cardinality;
      step.pulled = pos < pulled.size() ? pulled[pos] : 0;
      result->plan.push_back(step);
    }
  }
  for (RelaxedStream* rs : relaxed) {
    result->stats.alternatives_opened += rs->opened_alternatives();
  }

  double variant_log = scoring::LmScorer::LogWeight(variant.weight);
  for (topk::Answer& ans : variant_answers) {
    ans.score += variant_log;
    if (!variant.rules.empty() && !ans.derivation.empty()) {
      // Structural whole-query rules precede per-pattern relaxations in
      // the derivation narrative.
      auto& first_rules = ans.derivation.front().rules;
      first_rules.insert(first_rules.begin(), variant.rules.begin(),
                         variant.rules.end());
    }
    // Re-map the full variant binding onto the projection-ordered
    // binding the caller sees.
    query::Binding projected(projection_ids.size());
    bool ok = true;
    for (size_t i = 0; i < projection_ids.size(); ++i) {
      rdf::TermId value = ans.binding.Get(projection_ids[i]);
      if (value == rdf::kNullTerm) {
        ok = false;
        break;
      }
      projected.Bind(static_cast<query::VarId>(i), value);
    }
    if (!ok) continue;
    ans.binding = std::move(projected);

    // Merge into the cross-variant answer pool (max over derivations).
    std::string key;
    for (size_t i = 0; i < projection_ids.size(); ++i) {
      key += std::to_string(ans.binding.Get(static_cast<query::VarId>(i)));
      key.push_back('|');
    }
    bool found = false;
    for (topk::Answer& existing : result->answers) {
      std::string existing_key;
      for (size_t i = 0; i < projection_ids.size(); ++i) {
        existing_key += std::to_string(
            existing.binding.Get(static_cast<query::VarId>(i)));
        existing_key.push_back('|');
      }
      if (existing_key == key) {
        found = true;
        if (ans.score > existing.score) existing = std::move(ans);
        break;
      }
    }
    if (!found) result->answers.push_back(std::move(ans));
  }
}

Result<TopKResult> TopKProcessor::Answer(const query::Query& q) const {
  TRINIT_RETURN_IF_ERROR(q.Validate());
  // Canonicalize: resolve constants and pin the projection explicitly so
  // rewrites cannot silently drop projected variables.
  query::Query canonical(q.patterns(), q.EffectiveProjection());
  canonical.ResolveAgainst(xkg_.dict());

  TopKResult result;
  result.projection = canonical.projection();

  std::chrono::steady_clock::time_point deadline{};
  if (options_.deadline_ms > 0) {
    deadline = std::chrono::steady_clock::now() +
               std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                   std::chrono::duration<double, std::milli>(
                       options_.deadline_ms));
  }

  std::vector<Variant> variants = QueryVariants(canonical);
  result.stats.query_variants_total = variants.size();

  for (const Variant& variant : variants) {
    if (deadline != std::chrono::steady_clock::time_point{} &&
        std::chrono::steady_clock::now() >= deadline) {
      result.stats.deadline_hit = true;
      break;
    }
    // A variant's answers score at most log(weight); skip it once the
    // current top-k is already beyond reach (the same "only when it can
    // contribute" cutoff as inside RelaxedStream).
    if (!options_.exhaustive &&
        result.answers.size() >= static_cast<size_t>(options_.k)) {
      std::vector<double> scores;
      scores.reserve(result.answers.size());
      for (const topk::Answer& a : result.answers) scores.push_back(a.score);
      std::nth_element(scores.begin(), scores.begin() + (options_.k - 1),
                       scores.end(), std::greater<double>());
      double kth = scores[options_.k - 1];
      if (scoring::LmScorer::LogWeight(variant.weight) <= kth) continue;
    }
    ++result.stats.query_variants_evaluated;
    EvaluateVariant(variant, canonical.projection(), deadline, &result);
  }

  std::sort(result.answers.begin(), result.answers.end(),
            [](const topk::Answer& a, const topk::Answer& b) {
              return a.score > b.score;
            });
  if (result.answers.size() > static_cast<size_t>(options_.k)) {
    result.answers.resize(options_.k);
  }
  return result;
}

}  // namespace trinit::topk
