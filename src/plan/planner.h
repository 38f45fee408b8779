#ifndef TRINIT_PLAN_PLANNER_H_
#define TRINIT_PLAN_PLANNER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"
#include "plan/join_plan.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "xkg/xkg.h"

namespace trinit::plan {

/// Compiles a (possibly rewritten) query into a `JoinPlan`.
///
/// Cardinality estimation is pure index metadata — a `ScoreOrdered`
/// block search per pattern (O(log n)) plus `GraphStats` lookups for
/// predicate-bound shapes — so planning never decodes a triple. The
/// pattern order is greedy: start from the most selective pattern, then
/// repeatedly append the cheapest pattern *connected* to the ordered
/// prefix by a shared variable; a disconnected pattern (cross product)
/// is only chosen when nothing connected remains. "Cheapest" is
/// fan-out-aware: for a connected pattern the cost is the estimated
/// join *output* — match cardinality divided by the predicate's
/// distinct subjects/objects for every slot variable the prefix
/// already binds (`PatternEstimate::distinct_*`) — so joins are ranked
/// by what they produce, not by input list length.
class Planner {
 public:
  /// `vars` must be the variable table of `q`. The plan holds no
  /// references into `q` or `xkg` and outlives both. With
  /// `cost_order == false` the execution order stays the parser's
  /// pattern order (the bench comparator that isolates ordering from
  /// hash partitioning); estimates and join-key signatures are computed
  /// either way.
  static std::shared_ptr<const JoinPlan> Compile(const query::Query& q,
                                                 const query::VarTable& vars,
                                                 const xkg::Xkg& xkg,
                                                 bool cost_order = true);
};

/// Thread-safe, sharded cache of compiled plans keyed by the query's
/// structural signature (`JoinPlan::StructureOf`): rewrite variants with
/// the same pattern shapes but different constants reuse one plan
/// instead of re-deriving order and join-key signatures per variant.
///
/// Lifetime: the cache lives as long as its owner. Since PR 4 the
/// serving path shares one engine-level cache across requests
/// (`serve::ServingCache` owns it; `TopKProcessor` *borrows* it), so
/// plans are amortized over the whole workload, not one request. A
/// processor constructed without a shared cache still owns a private
/// one (benches, tests, direct processor users).
///
/// Invalidation: entries are stamped with the *generation* of the
/// engine state the caller planned against, which every `Get` passes
/// in (the engine's pinned `EngineState` generation, through
/// `topk::TopKProcessor`). A hit needs an exact generation match, so a
/// reader still running on an older state never gets a plan compiled
/// on a newer XKG, nor the other way round. The first lookup of a
/// newer generation on a shard reaps that shard's older entries
/// (`Stats::invalidated` counts them), so orphaned keys (a rebuild
/// moves term ids inside structural signatures) cannot accumulate; a
/// lookup from an older generation compiles its plan without caching
/// it.
class PlanCache {
 public:
  struct Stats {
    size_t hits = 0;
    size_t misses = 0;
    /// Lookups that found an entry from an older generation; counted on
    /// top of the miss they turn into.
    size_t invalidated = 0;
  };

  /// `num_shards` splits the key space across independently locked
  /// maps; 1 (the default) is right for per-processor private caches,
  /// the engine-level serving cache uses more.
  explicit PlanCache(size_t num_shards = 1);

  /// Returns the cached plan for `q`'s structure under `generation`,
  /// compiling (and caching) it on first sight. `xkg` must be the XKG
  /// of that generation. Safe for concurrent callers. Cost-ordered and
  /// parser-ordered plans cache under distinct keys. `was_hit`
  /// (optional) reports whether this call was served from cache —
  /// per-call, so concurrent callers can attribute hits/misses to their
  /// own run (the aggregate `stats()` is cache-global).
  std::shared_ptr<const JoinPlan> Get(const query::Query& q,
                                      const query::VarTable& vars,
                                      const xkg::Xkg& xkg,
                                      uint64_t generation,
                                      bool cost_order = true,
                                      bool* was_hit = nullptr) const;

  Stats stats() const;
  size_t size() const;  ///< entries held, including not-yet-reaped stale

  /// Mirrors hit/miss/invalidation counting onto engine registry
  /// metrics (in addition to the mutex-guarded `Stats`, which remain
  /// the exact per-cache numbers). Must be called before the cache is
  /// shared across threads — the engine binds at construction, under
  /// exclusive ownership. Unbound handles (the default, and every
  /// processor-private cache) cost one null check per event.
  void BindMetrics(obs::Counter hits, obs::Counter misses,
                   obs::Counter invalidated);

 private:
  struct Entry {
    uint64_t generation = 0;
    std::shared_ptr<const JoinPlan> plan;
  };
  struct Shard {
    mutable Mutex mu;
    std::unordered_map<std::string, Entry> entries TRINIT_GUARDED_BY(mu);
    Stats stats TRINIT_GUARDED_BY(mu);
    /// Newest generation looked up on this shard; older entries are
    /// reaped when it advances (a rebuild can move term ids inside
    /// structural keys, so stale entries must be swept, not just
    /// overwritten on key collision).
    uint64_t swept_generation TRINIT_GUARDED_BY(mu) = 0;
  };

  Shard& ShardFor(const std::string& key) const;

  mutable std::vector<Shard> shards_;
  // Registry mirrors of Stats; written only by BindMetrics (pre-share).
  obs::Counter metric_hits_;
  obs::Counter metric_misses_;
  obs::Counter metric_invalidated_;
};

}  // namespace trinit::plan

#endif  // TRINIT_PLAN_PLANNER_H_
