#ifndef TRINIT_SERVE_SERVING_CACHE_H_
#define TRINIT_SERVE_SERVING_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"
#include "plan/planner.h"
#include "query/query.h"
#include "scoring/lm_scorer.h"
#include "topk/topk_processor.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace trinit::serve {

/// Sizing and behavior knobs of the engine-level serving cache.
struct ServingCacheOptions {
  /// Master switch; off restores the pre-PR-4 behavior (every request
  /// plans and joins from scratch).
  bool enabled = true;

  /// Cache compiled `plan::JoinPlan`s across requests (keyed by
  /// structural signature, stamped with the generation).
  bool cache_plans = true;

  /// Cache complete top-k results across requests (keyed by canonical
  /// query + k + scorer/relaxation config + generation).
  bool cache_answers = true;

  /// Total answer-cache entries across all shards (LRU per shard; the
  /// shard count is clamped so the bound holds exactly). 0 disables
  /// answer caching. Plans are unbounded (the structure space is tiny —
  /// one entry per distinct query/rewrite shape).
  size_t answer_capacity = 1024;

  /// Lock striping for both caches. More shards = less contention under
  /// `ExecuteBatch`-style concurrency; 1 degenerates to a single map.
  size_t num_shards = 8;
};

/// The engine-level serving cache (paper §4's long-lived endpoint
/// assumption made real): one per `core::Trinit`, shared by every
/// request, thread-safe throughout.
///
/// Two layers, both keyed under the *generation* of the engine state a
/// request pinned (`core::Trinit` publishes a new state, generation + 1,
/// on every write — KG extension, rule addition, operator run). The
/// cache keeps no generation counter of its own: every caller passes
/// the generation it read its state at.
///
/// - **Plan cache** — the per-request `plan::PlanCache` of PR 3
///   promoted to cross-request scope. Keyed by structural signature;
///   entries are stamped with the caller's generation and reaped lazily
///   by the first lookup of a newer one.
/// - **Answer cache** — a bounded, sharded LRU of complete
///   `topk::TopKResult`s keyed by the full canonical query text plus
///   `k`, the effective scorer/relaxation configuration, and the
///   generation. A hit returns the ranked answers without touching the
///   rank-join at all (zero pulls). Entries are *shared immutable*
///   bodies (`shared_ptr<const TopKResult>`): storing shares the run's
///   own result and a hit hands the caller the same body — no deep copy
///   of k answers on either side of the cache, and the shard lock is
///   held only for a refcount bump. Only *complete* results are stored:
///   a deadline-truncated run is never cached, so a cached answer
///   always equals what uncached execution would produce.
///   `Publish` drops every entry of an older generation, so no cached
///   body keeps a retired engine state (and its XKG) alive.
class ServingCache {
 public:
  /// Cumulative cache-activity counters (monotone since construction;
  /// `*_entries` are point-in-time).
  struct Counters {
    size_t answer_hits = 0;
    size_t answer_misses = 0;
    size_t answer_insertions = 0;
    size_t answer_evictions = 0;  ///< LRU pressure only
    size_t answer_entries = 0;
    size_t plan_hits = 0;
    size_t plan_misses = 0;
    size_t plan_invalidated = 0;  ///< older-generation plans reaped
    size_t plan_entries = 0;
  };

  explicit ServingCache(ServingCacheOptions options = {});

  ServingCache(const ServingCache&) = delete;
  ServingCache& operator=(const ServingCache&) = delete;

  const ServingCacheOptions& options() const { return options_; }

  /// Called by the engine's writer after it published the state of
  /// `generation`: drops every answer entry of an older generation and
  /// refuses older stores from then on. Each shard is swept under its
  /// own lock, one at a time; the dropped bodies are destroyed after
  /// the shard lock is released. Plans are reaped lazily instead (see
  /// `plan::PlanCache`).
  void Publish(uint64_t generation);

  /// The shared cross-request plan cache, or nullptr when plan caching
  /// is disabled (callers then fall back to private per-processor
  /// caches).
  const plan::PlanCache* plan_cache() const {
    return options_.enabled && options_.cache_plans ? &plan_cache_ : nullptr;
  }

  /// Cache key for an answer lookup: the canonical query (projection
  /// pinned explicitly — `ToString()` of the same pattern/projection
  /// shape the processor evaluates; constant *text* identifies
  /// constants), the effective `k`, every scorer and relaxation knob
  /// that can change the answer set, and `generation`.
  /// Wall-clock deadlines are deliberately excluded: they do not change
  /// what the ideal answer is, and truncated results are never stored.
  static std::string AnswerKey(const query::Query& canonical,
                               const scoring::ScorerOptions& scorer,
                               const topk::ProcessorOptions& processor,
                               uint64_t generation);

  /// Returns the shared immutable result stored under `key` (refreshing
  /// its LRU position), or nullptr on a miss. No deep copy: the caller
  /// aliases the stored body, whose `stats` are the *stored run's*
  /// work — serving layers report per-request (zero) work separately
  /// (copy-on-serve stats, see `core::QueryResponse::stats`). Answers,
  /// projection, and plan trace are byte-identical to uncached
  /// execution.
  std::shared_ptr<const topk::TopKResult> LookupAnswer(
      const std::string& key) const;

  /// Stores a *complete* result computed on the state of `generation`
  /// under `key` (callers must not pass deadline-truncated runs; null
  /// is rejected), evicting the shard's LRU tail beyond capacity. The
  /// body is shared, not copied — callers typically pass the same
  /// `shared_ptr` their response aliases. No-op when answer caching is
  /// disabled, and for a body older than the newest `Publish`.
  void StoreAnswer(const std::string& key, uint64_t generation,
                   std::shared_ptr<const topk::TopKResult> result) const;

  Counters counters() const;

  /// The registry handles the cache mirrors its activity onto (PR 10).
  /// Everything here is *in addition to* the exact mutex-guarded
  /// per-shard counters behind `counters()`; registry reads are
  /// relaxed and lock-free. `invalidations` counts `Publish` calls.
  struct Metrics {
    obs::Counter answer_hits;
    obs::Counter answer_misses;
    obs::Counter answer_insertions;
    obs::Counter answer_evictions;
    obs::Counter invalidations;
    obs::Counter body_shares;  ///< hits handing out a shared body
    obs::Counter plan_hits;
    obs::Counter plan_misses;
    obs::Counter plan_invalidated;
  };

  /// Binds the registry mirrors (forwarding the plan handles to the
  /// internal `PlanCache`). Must be called before the cache is shared
  /// across threads — the engine binds at construction.
  void BindMetrics(const Metrics& metrics);

 private:
  struct AnswerEntry {
    std::string key;
    uint64_t generation = 0;
    std::shared_ptr<const topk::TopKResult> body;
  };
  struct AnswerShard {
    mutable Mutex mu;
    /// Newest generation published; older stores are refused.
    uint64_t published TRINIT_GUARDED_BY(mu) = 0;
    /// Front = most recently used. The list owns key + shared body; the
    /// index points into it.
    std::list<AnswerEntry> lru TRINIT_GUARDED_BY(mu);
    std::unordered_map<std::string, std::list<AnswerEntry>::iterator> index
        TRINIT_GUARDED_BY(mu);
    size_t hits TRINIT_GUARDED_BY(mu) = 0;
    size_t misses TRINIT_GUARDED_BY(mu) = 0;
    size_t insertions TRINIT_GUARDED_BY(mu) = 0;
    size_t evictions TRINIT_GUARDED_BY(mu) = 0;
  };

  AnswerShard& ShardFor(const std::string& key) const;
  size_t ShardCapacity() const;

  ServingCacheOptions options_;
  plan::PlanCache plan_cache_;
  mutable std::vector<AnswerShard> answer_shards_;
  // Registry mirrors; written only by BindMetrics (pre-share).
  Metrics metrics_;
};

}  // namespace trinit::serve

#endif  // TRINIT_SERVE_SERVING_CACHE_H_
