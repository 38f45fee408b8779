#ifndef TRINIT_CORE_TRINIT_H_
#define TRINIT_CORE_TRINIT_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/engine.h"
#include "core/engine_metrics.h"
#include "core/engine_state.h"
#include "core/request.h"
#include "explain/explanation.h"
#include "obs/metrics.h"
#include "obs/slow_query_log.h"
#include "openie/pipeline.h"
#include "relax/bridge_miner.h"
#include "relax/inversion_miner.h"
#include "relax/synonym_miner.h"
#include "serve/serving_cache.h"
#include "storage/snapshot.h"
#include "suggest/suggester.h"
#include "synth/corpus_generator.h"
#include "topk/topk_processor.h"
#include "util/mutex.h"
#include "util/result.h"
#include "util/thread_annotations.h"

namespace trinit::core {

/// Everything tunable about a TriniT instance. These are *defaults*: any
/// of the query-time knobs can be overridden per request through
/// `QueryRequest` without reopening the engine.
struct TrinitOptions {
  scoring::ScorerOptions scorer;
  topk::ProcessorOptions processor;

  /// Which mined rule families to enable (ablation bench A1 toggles
  /// these).
  bool mine_synonyms = true;
  bool mine_inversions = true;
  bool mine_expansions = true;
  relax::SynonymMiner::Options synonym_options;
  relax::InversionMiner::Options inversion_options;
  relax::BridgeMiner::Options bridge_options;

  /// Engine-level serving cache (cross-request plan reuse + answer
  /// LRU). Defaults on; `serving.enabled = false` restores per-request
  /// planning from scratch.
  serve::ServingCacheOptions serving;

  /// How `Open(path)` loads a snapshot: copy-and-decode (default) or
  /// mmap with zero-copy section views, and how hard to verify. See
  /// `storage::SnapshotReader` for the mode/verification contract.
  storage::ReadOptions snapshot_read;

  /// Observability (PR 10): the always-on metrics registry, the
  /// slow-query log's threshold and ring capacity. `obs.metrics =
  /// false` unbinds every instrument (the runtime stand-in for building
  /// with TRINIT_OBS_COMPILED_OUT); see docs/OBSERVABILITY.md.
  obs::ObsOptions obs;
};

/// The TriniT engine — the system of the paper, end to end: an extended
/// knowledge graph, a relaxation rule set (mined + manual + plugged-in
/// operators), the incremental top-k processor, answer explanation, and
/// query suggestion.
///
/// Threading: everything a write replaces — the XKG with its derived
/// state, the rule set, and the generation — lives in one immutable
/// `EngineState`. Readers never wait for a write:
///
/// - **Pin.** `Execute` (and the `Query`/`Answer` shims over it) and
///   `Save` copy the current `shared_ptr<const EngineState>` once, under
///   a mutex held only for that copy, and run against the pinned state
///   to the end. Any number of threads may read one engine concurrently
///   — `ExecuteBatch` does exactly that.
/// - **Publish.** The writers (`AddManualRules`, `ExtendKg`,
///   `RunOperator`) serialize on one writer mutex, build the next state
///   from the current one without blocking readers, and publish it with
///   one pointer swap at generation + 1. A reader sees a write entirely
///   or not at all. A write that returns an error publishes nothing.
/// - **Results keep their state.** A result `Execute` returns carries
///   its state (`topk::TopKResult::keepalive`), and `Explain`,
///   `RenderAnswer` and `Suggest` read that state, so a held result
///   explains and renders the same after any number of writes.
///
/// Lock order: writer mutex → state mutex → serving- and plan-cache
/// shard mutexes (see docs/CONCURRENCY.md).
///
/// The reference-returning accessors (`xkg()`, `rules()`,
/// `autocomplete()`) return the current state's objects. A reference
/// stays valid until the next write returns; it must not be held
/// across one.
class Trinit : public Engine {
 public:
  /// Statistics of a FromWorld build.
  struct BuildReport {
    size_t kg_triples = 0;
    size_t extraction_triples = 0;
    size_t corpus_documents = 0;
    size_t corpus_sentences = 0;
    size_t extractions = 0;
    size_t rules_mined = 0;
  };

  Trinit(Trinit&&) = default;
  Trinit& operator=(Trinit&&) = default;

  /// Opens an engine over an existing XKG; mines relaxation rules from
  /// it per `options`.
  static Result<Trinit> Open(xkg::Xkg xkg, TrinitOptions options = {});

  /// Opens an engine from a binary snapshot written by `Save` — the
  /// instant cold start: no TSV parse, no index sort, no rule
  /// re-mining. The dictionary, triple store, permutation indexes,
  /// every score-ordered shape built before the save, graph statistics,
  /// provenance, and the active rule set are restored verbatim, and the
  /// engine continues at the snapshot's stamped generation.
  /// `report` (optional) receives what was restored. Corrupt, foreign,
  /// or version-mismatched files yield the typed errors documented on
  /// `storage::SnapshotReader`.
  static Result<Trinit> Open(const std::string& path,
                             TrinitOptions options = {},
                             storage::LoadReport* report = nullptr);

  /// Persists the complete serving state — XKG (dictionary, triples +
  /// confidences + provenance, graph statistics, all permutation
  /// indexes and lazily-built score-ordered shapes as currently
  /// materialized), the active rule set, and the generation — into one
  /// versioned binary snapshot at `path`. A `Trinit::Open(path)` of the
  /// result answers byte-identically to this engine. Writes the state
  /// it pinned, so saving is safe concurrently with queries and with
  /// writers, and never waits for a write.
  Status Save(const std::string& path) const;

  /// Full reproduction pipeline: generate the synthetic world's KG,
  /// verbalize it (plus held-out facts) into a corpus, run Open IE +
  /// linking, build the XKG, mine rules.
  static Result<Trinit> FromWorld(const synth::World& world,
                                  TrinitOptions options = {},
                                  BuildReport* report = nullptr);

  /// Adds user-defined relaxation rules (demo §5), in the
  /// `ParseManualRules` syntax. All or nothing: a rule that fails to
  /// add leaves the engine as it was.
  Status AddManualRules(std::string_view text);

  /// Extends the knowledge graph with additional facts — the demo's
  /// "allows users to extend the KG to make up for missing knowledge"
  /// (paper §1). The XKG is rebuilt (O(n log n)); mined rules are *not*
  /// re-mined automatically (call the miners again if the additions are
  /// large). Format: one fact per line, `Subject predicate Object`, in
  /// query term syntax (quoted tokens allowed in any slot).
  Status ExtendKg(std::string_view facts_text);

  /// Runs a plugged-in relaxation operator over the XKG (paper §3's
  /// operator API) and absorbs its rules. The operator works on a copy
  /// of the rule set; if it returns an error, none of its rules land.
  Status RunOperator(relax::RelaxationOperator& op);

  // ------------------------------------------------------- Engine API

  std::string_view name() const override { return "TriniT"; }

  /// The current state's XKG; valid until the next write returns (see
  /// class comment).
  const xkg::Xkg& xkg() const override;

  /// The single query entry point: resolves the request's per-call
  /// overrides against the engine defaults, parses `request.text`
  /// (unless a parsed query was supplied), runs the incremental top-k
  /// processor, and reports the answers with timings and the effective
  /// options. Thread-safe (see class comment).
  Result<QueryResponse> Execute(const QueryRequest& request) const override;

  /// Fans a batch of requests across `num_threads` workers over this one
  /// engine (the serving path's first concrete step). `num_threads <= 0`
  /// picks `min(batch size, hardware_concurrency)`. Results are aligned
  /// with `requests`; each is its request's independent success/error.
  std::vector<Result<QueryResponse>> ExecuteBatch(
      std::span<const QueryRequest> requests, int num_threads = 0) const;

  // ------------------------------------- compatibility shims (legacy)

  /// Parses and answers a query. Thin shim over `Execute`; prefer the
  /// request/response API, which exposes per-request options and
  /// timings. Kept for source compatibility (see docs/API.md).
  Result<topk::TopKResult> Query(std::string_view text, int k = 10) const;

  /// Answers an already-built query. Thin shim over `Execute` (see
  /// `Query`).
  Result<topk::TopKResult> Answer(const query::Query& q, int k = 10) const;

  // ----------------------------------------------- exploration extras

  // Explain, Suggest and RenderAnswer read the state that computed
  // `result` (its keepalive), and the current state only for a result
  // no Trinit produced, such as a bare `topk::TopKProcessor`'s.

  /// Structured explanation of `result.answers[rank]` (demo §5).
  explain::Explanation Explain(const topk::TopKResult& result,
                               size_t rank) const;

  /// Query-reformulation suggestions for a query and its answers
  /// (demo §5).
  std::vector<suggest::Suggestion> Suggest(
      const query::Query& q, const topk::TopKResult& result) const;

  /// Renders `result.answers[rank]`'s projection binding as text.
  std::string RenderAnswer(const topk::TopKResult& result,
                           size_t rank) const;

  /// Prefix auto-completion over the current XKG's vocabulary (demo
  /// §5), built on first use; valid until the next write returns.
  const suggest::Autocomplete& autocomplete() const;

  /// The current rule set; valid until the next write returns.
  const relax::RuleSet& rules() const;

  /// The current state's generation: the one `Execute` reports in
  /// `ServingStats::generation`, one more after every write.
  uint64_t generation() const;

  const TrinitOptions& options() const { return options_; }

  /// The engine-level serving cache: cross-request plan reuse plus the
  /// bounded answer LRU, with its hit/miss/evict/invalidate counters.
  /// Always present (its options may disable it).
  const serve::ServingCache& serving_cache() const {
    return *serving_cache_;
  }

  /// Point-in-time snapshot of every registered engine metric (PR 10).
  /// Lock-free relaxed reads of the live cells — safe concurrently with
  /// any number of executing requests and with writers. Empty when the
  /// engine runs with `ObsOptions::metrics = false`. Render with
  /// `obs::RenderPrometheus` / `obs::RenderJson`.
  obs::MetricsSnapshot MetricsSnapshot() const { return registry_->Snapshot(); }

  /// The slow-query log (bounded ring of requests that crossed
  /// `ObsOptions::slow_query_ms`); always present, possibly disabled.
  const obs::SlowQueryLog& slow_query_log() const { return *slow_log_; }

 private:
  Trinit(xkg::Xkg xkg, relax::RuleSet rules, TrinitOptions options,
         uint64_t generation);

  /// The current state, copied under `current_mu_`. A reader pins once
  /// and runs on the copy to the end.
  std::shared_ptr<const EngineState> Pin() const;

  /// The state that computed `result`, or, for a result without a
  /// keepalive, the current one, pinned into `*pinned`.
  const EngineState& StateOf(const topk::TopKResult& result,
                             std::shared_ptr<const EngineState>* pinned) const;

  /// Wraps a freshly built XKG for a new state, binding the score-shape
  /// metrics first (the XKG is immutable once shared).
  std::shared_ptr<const XkgState> NewXkgState(xkg::Xkg xkg) const;

  /// Swaps in the state built from `xkg_state` and `rules` at
  /// `generation`, then drops older serving-cache answers. The previous
  /// state is released after the state mutex, so no pin waits on its
  /// destructor. Callers hold `writer_mu_`.
  void Publish(std::shared_ptr<const XkgState> xkg_state,
               relax::RuleSet rules, uint64_t generation);

  /// Serializes writers: each builds the next state from the current
  /// one. Heap-allocated, like `current_mu_`, so the (non-movable) mutex
  /// survives the factory-return move of the engine.
  std::unique_ptr<Mutex> writer_mu_;
  /// The state mutex: held only to copy or swap `current_`, never while
  /// building a state or destroying one.
  std::unique_ptr<Mutex> current_mu_;
  std::shared_ptr<const EngineState> current_
      TRINIT_GUARDED_BY(current_mu_);

  TrinitOptions options_;  // immutable after construction
  // Shared across every request and every state; answer entries are
  // keyed by generation and dropped on publish. Internally
  // synchronized.
  std::unique_ptr<serve::ServingCache> serving_cache_;

  // ------------------------------------------------ observability (PR 10)

  /// Fills `response.serving`'s registry-sourced cumulative counters,
  /// records the per-request registry observations (latency, deadline,
  /// topk work, cardinality error), and — for traced or
  /// slow requests — builds the span tree and feeds the slow-query log.
  /// Called at the end of `Execute` on every path that has a response.
  void FinishRequestObservation(const QueryRequest& request,
                                const query::Query& q, double parse_ms,
                                std::optional<double> cache_ms,
                                std::optional<double> process_ms,
                                QueryResponse* response) const;

  /// Records storage-layer metrics of one snapshot open.
  void RecordOpenMetrics(const storage::LoadReport& report,
                         double open_ms) const;

  /// Metric cell storage, never null; heap-allocated so handles (raw
  /// pointers into it) survive the factory-return move of the engine.
  /// Internally synchronized; increments are lock-free (see
  /// obs/metrics.h). Empty (nothing registered) when
  /// `ObsOptions::metrics` is false.
  std::unique_ptr<obs::MetricsRegistry> registry_;
  /// The engine's bound instrument handles; all unbound no-ops when
  /// `ObsOptions::metrics` is false.
  EngineMetrics metrics_;
  /// Bounded slow-request ring, never null (possibly disabled);
  /// internally synchronized, touched only for requests already slower
  /// than the threshold.
  std::unique_ptr<obs::SlowQueryLog> slow_log_;
};

}  // namespace trinit::core

#endif  // TRINIT_CORE_TRINIT_H_
