#include "plan/planner.h"

#include <algorithm>
#include <optional>

namespace trinit::plan {
namespace {

/// Index-metadata cardinality estimate for one pattern. Resource and
/// literal constants resolve against the dictionary (unresolvable ones
/// match nothing directly — relaxation is their rescue path, and the
/// cost order puts such patterns first since they bind for free); token
/// constants soft-match an unknown subset of a slot's vocabulary, so
/// they degrade to a wildcard upper bound.
PatternEstimate EstimatePattern(const xkg::Xkg& xkg,
                                const query::TriplePattern& pattern,
                                size_t index) {
  PatternEstimate est;
  est.pattern = index;

  rdf::TermId ids[3] = {rdf::kNullTerm, rdf::kNullTerm, rdf::kNullTerm};
  const query::Term* slots[3] = {&pattern.s, &pattern.p, &pattern.o};
  for (int i = 0; i < 3; ++i) {
    const query::Term& t = *slots[i];
    if (t.is_variable()) continue;
    if (t.kind == query::Term::Kind::kToken) {
      est.exact = false;  // wildcard stand-in for the soft-match set
      continue;
    }
    rdf::TermId id = t.id;
    if (id == rdf::kNullTerm) {
      id = xkg.dict().Find(t.kind == query::Term::Kind::kResource
                               ? rdf::TermKind::kResource
                               : rdf::TermKind::kLiteral,
                           t.text);
    }
    if (id == rdf::kNullTerm) {
      // Unresolvable constant: the pattern matches nothing directly.
      est.cardinality = 0.0;
      est.mass = 0;
      return est;
    }
    ids[i] = id;
  }

  // A constant predicate's distinct subject/object counts feed the
  // fan-out-aware join cost: expected rows per bound subject binding is
  // cardinality / distinct_subjects (ditto objects).
  if (ids[1] != rdf::kNullTerm) {
    const rdf::GraphStats::PredicateStats* ps =
        xkg.stats().ForPredicate(ids[1]);
    if (ps != nullptr) {
      est.distinct_subjects = ps->distinct_subjects;
      est.distinct_objects = ps->distinct_objects;
    }
  }

  // GraphStats serves the common predicate-only shape in O(1) — its
  // per-predicate triple and evidence counts are exactly the P-block's
  // length and mass — without even touching (and thus lazily building)
  // the score-ordered P permutation. Every other shape is an O(log n)
  // score-ordered block search whose length and prefix-sum mass are the
  // estimate we want.
  if (ids[0] == rdf::kNullTerm && ids[1] != rdf::kNullTerm &&
      ids[2] == rdf::kNullTerm) {
    const rdf::GraphStats::PredicateStats* ps =
        xkg.stats().ForPredicate(ids[1]);
    if (ps != nullptr) {
      est.cardinality = ps->triple_count;
      est.mass = ps->evidence_count;
    }
    return est;
  }
  rdf::ScoreOrderIndex::List list =
      xkg.store().ScoreOrdered(ids[0], ids[1], ids[2]);
  est.cardinality = static_cast<double>(list.ids.size());
  est.mass = list.mass;
  return est;
}

std::vector<query::VarId> SharedVars(const std::vector<query::VarId>& a,
                                     const std::vector<query::VarId>& b) {
  std::vector<query::VarId> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

}  // namespace

std::shared_ptr<const JoinPlan> Planner::Compile(const query::Query& q,
                                                 const query::VarTable& vars,
                                                 const xkg::Xkg& xkg,
                                                 bool cost_order) {
  auto plan = std::make_shared<JoinPlan>();
  const size_t n = q.patterns().size();
  plan->structure = JoinPlan::StructureOf(q, vars);
  plan->estimates.reserve(n);
  std::vector<std::vector<query::VarId>> pattern_vars(n);
  for (size_t i = 0; i < n; ++i) {
    plan->estimates.push_back(EstimatePattern(xkg, q.patterns()[i], i));
    pattern_vars[i] = vars.IdsIn(q.patterns()[i]);
  }

  if (!cost_order) {
    // Parser order: estimates and signatures only (exec pos == index).
    plan->order.resize(n);
    for (size_t i = 0; i < n; ++i) plan->order[i] = i;
  }

  // Slot variables for the fan-out discount: a pattern whose subject
  // (object) variable is already bound by the ordered prefix joins at
  // its per-subject (per-object) fan-out, not its full cardinality.
  std::vector<std::optional<query::VarId>> svar(n), ovar(n);
  for (size_t i = 0; i < n; ++i) {
    const query::TriplePattern& pattern = q.patterns()[i];
    if (pattern.s.is_variable()) svar[i] = vars.Find(pattern.s.text);
    if (pattern.o.is_variable()) ovar[i] = vars.Find(pattern.o.text);
  }

  // Greedy cost order: cheapest first, connected-to-prefix preferred
  // over cheaper-but-disconnected (a cross product always costs more
  // than the connectivity it defers). The cost of a connected pattern
  // is its estimated join *output* — cardinality divided by the
  // predicate's distinct-subject/object count for each slot variable
  // the prefix already binds — falling back to raw cardinality when the
  // predicate has no stats. Ties by raw cardinality, then mass, then
  // original index for determinism.
  std::vector<bool> used(n, false);
  std::vector<query::VarId> bound_vars;
  auto effective_cost = [&](size_t i) {
    const PatternEstimate& e = plan->estimates[i];
    double cost = e.cardinality;
    if (svar[i].has_value() && e.distinct_subjects > 0 &&
        std::binary_search(bound_vars.begin(), bound_vars.end(),
                           *svar[i])) {
      cost /= e.distinct_subjects;
    }
    if (ovar[i].has_value() && e.distinct_objects > 0 &&
        std::binary_search(bound_vars.begin(), bound_vars.end(),
                           *ovar[i])) {
      cost /= e.distinct_objects;
    }
    return cost;
  };
  plan->order.reserve(n);
  for (size_t step = 0; cost_order && step < n; ++step) {
    size_t best = n;
    bool best_connected = false;
    for (size_t i = 0; i < n; ++i) {
      if (used[i]) continue;
      bool connected =
          step > 0 && !SharedVars(bound_vars, pattern_vars[i]).empty();
      if (best == n) {
        best = i;
        best_connected = connected;
        continue;
      }
      if (connected != best_connected) {
        if (connected) {
          best = i;
          best_connected = true;
        }
        continue;
      }
      const PatternEstimate& a = plan->estimates[i];
      const PatternEstimate& b = plan->estimates[best];
      const double cost_a = effective_cost(i);
      const double cost_b = effective_cost(best);
      if (cost_a != cost_b
              ? cost_a < cost_b
              : (a.cardinality != b.cardinality
                     ? a.cardinality < b.cardinality
                     : a.mass < b.mass)) {
        best = i;
      }
    }
    used[best] = true;
    plan->order.push_back(best);
    for (query::VarId v : pattern_vars[best]) {
      if (!std::binary_search(bound_vars.begin(), bound_vars.end(), v)) {
        bound_vars.insert(std::upper_bound(bound_vars.begin(),
                                           bound_vars.end(), v),
                          v);
      }
    }
  }

  // Pairwise join-key signatures and probe preference, by exec position.
  plan->join_keys.assign(n, std::vector<std::vector<query::VarId>>(n));
  plan->probe_preference.assign(n, {});
  for (size_t a = 0; a < n; ++a) {
    for (size_t b = 0; b < n; ++b) {
      if (a == b) continue;
      plan->join_keys[a][b] = SharedVars(pattern_vars[plan->order[a]],
                                         pattern_vars[plan->order[b]]);
    }
  }
  for (size_t b = 0; b < n; ++b) {
    std::vector<size_t>& pref = plan->probe_preference[b];
    for (size_t a = 0; a < n; ++a) {
      if (a != b && !plan->join_keys[b][a].empty()) pref.push_back(a);
    }
    std::stable_sort(pref.begin(), pref.end(), [&](size_t x, size_t y) {
      return plan->join_keys[b][x].size() > plan->join_keys[b][y].size();
    });
  }
  return plan;
}

PlanCache::PlanCache(size_t num_shards)
    : shards_(num_shards == 0 ? 1 : num_shards) {}

PlanCache::Shard& PlanCache::ShardFor(const std::string& key) const {
  return shards_[std::hash<std::string>{}(key) % shards_.size()];
}

std::shared_ptr<const JoinPlan> PlanCache::Get(const query::Query& q,
                                               const query::VarTable& vars,
                                               const xkg::Xkg& xkg,
                                               uint64_t generation,
                                               bool cost_order,
                                               bool* was_hit) const {
  std::string key =
      (cost_order ? "C|" : "P|") + JoinPlan::StructureOf(q, vars);
  if (was_hit != nullptr) *was_hit = false;
  Shard& shard = ShardFor(key);
  {
    MutexLock lock(shard.mu);
    if (shard.swept_generation < generation) {
      // First touch of this shard by a newer state: reap every older
      // entry (a rebuild may have moved the term ids inside the
      // structural keys, so stale entries would otherwise be orphaned
      // under dead keys forever). Amortized — one sweep per shard per
      // write.
      for (auto it = shard.entries.begin(); it != shard.entries.end();) {
        if (it->second.generation < generation) {
          it = shard.entries.erase(it);
          ++shard.stats.invalidated;
          metric_invalidated_.Increment();
        } else {
          ++it;
        }
      }
      shard.swept_generation = generation;
    }
    auto it = shard.entries.find(key);
    if (it != shard.entries.end() && it->second.generation == generation) {
      ++shard.stats.hits;
      metric_hits_.Increment();
      if (was_hit != nullptr) *was_hit = true;
      return it->second.plan;
    }
    ++shard.stats.misses;
    metric_misses_.Increment();
  }
  // Compile outside the lock: planning is read-only over the XKG, and a
  // racing duplicate compile of the same structure is cheaper than
  // serializing every planner behind one mutex.
  std::shared_ptr<const JoinPlan> plan =
      Planner::Compile(q, vars, xkg, cost_order);
  MutexLock lock(shard.mu);
  // Only the shard's newest generation caches: a reader still on an
  // older state keeps its plan to itself, so the entries a shard holds
  // never mix generations.
  if (generation != shard.swept_generation) return plan;
  Entry& entry = shard.entries[key];
  if (entry.plan == nullptr) entry = Entry{generation, std::move(plan)};
  return entry.plan;
}

void PlanCache::BindMetrics(obs::Counter hits, obs::Counter misses,
                            obs::Counter invalidated) {
  metric_hits_ = hits;
  metric_misses_ = misses;
  metric_invalidated_ = invalidated;
}

PlanCache::Stats PlanCache::stats() const {
  Stats total;
  for (const Shard& shard : shards_) {
    MutexLock lock(shard.mu);
    total.hits += shard.stats.hits;
    total.misses += shard.stats.misses;
    total.invalidated += shard.stats.invalidated;
  }
  return total;
}

size_t PlanCache::size() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    MutexLock lock(shard.mu);
    total += shard.entries.size();
  }
  return total;
}

}  // namespace trinit::plan
