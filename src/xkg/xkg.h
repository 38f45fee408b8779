#ifndef TRINIT_XKG_XKG_H_
#define TRINIT_XKG_XKG_H_

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "rdf/dictionary.h"
#include "rdf/graph_stats.h"
#include "rdf/triple_store.h"
#include "text/phrase_index.h"

namespace trinit::xkg {

/// Provenance record for one supporting extraction of a triple
/// (paper §5: answer explanation shows "the XKG triples that contributed
/// to an answer and their provenance").
struct Provenance {
  uint32_t doc_id = 0;        ///< document the extraction came from
  uint32_t sentence_idx = 0;  ///< sentence offset within the document
  std::string sentence;       ///< the supporting sentence text
  double extraction_confidence = 1.0;
};

/// The Extended Knowledge Graph: curated KG triples plus Open IE
/// extraction triples, sharing one dictionary and one triple index.
///
/// Immutable once built (see `XkgBuilder`). The paper's instance combined
/// ~50M Yago2s triples with ~390M ClueWeb extractions; ours is built from
/// the synthetic world at configurable scale preserving that ratio.
class Xkg {
 public:
  Xkg(const Xkg&) = delete;
  Xkg& operator=(const Xkg&) = delete;
  Xkg(Xkg&&) = default;
  Xkg& operator=(Xkg&&) = default;

  using ProvenanceMap =
      std::unordered_map<rdf::TripleId, std::vector<Provenance>>;

  /// Reassembles an XKG from snapshot-restored parts — the storage
  /// layer's load path (everything else builds through `XkgBuilder`).
  /// The phrase index is derived data and is rebuilt from `dict` (an
  /// O(tokens) hash build, no sorts); every triple's term ids and every
  /// provenance triple id are bounds-checked so a corrupt snapshot
  /// yields a typed error instead of out-of-range indexing later.
  static Result<Xkg> FromParts(std::unique_ptr<rdf::Dictionary> dict,
                               rdf::TripleStore store, rdf::GraphStats stats,
                               size_t kg_triple_count,
                               ProvenanceMap provenance);

  /// Deferred-provenance variant for the trusted mmap load path:
  /// `loader` decodes the snapshot's PROV section on the first
  /// `ProvenanceFor` call (thread-safe, once) instead of at open time —
  /// provenance is only read by `Explain`, so a replica that never
  /// explains never touches those file bytes. A loader failure (the
  /// deferred decode hit corrupt bytes) makes every triple's provenance
  /// empty rather than failing the query path; the typed error is kept
  /// and exposed through `provenance_status()`.
  static Result<Xkg> FromPartsLazyProvenance(
      std::unique_ptr<rdf::Dictionary> dict, rdf::TripleStore store,
      rdf::GraphStats stats, size_t kg_triple_count,
      std::function<Result<ProvenanceMap>()> loader);

  /// Parks an opaque keepalive that must outlive this XKG's index
  /// views — the storage layer hands over the snapshot file mapping
  /// when index arrays alias it (see docs/CONCURRENCY.md, "Mapping
  /// lifetime"). `ExtendKg` rebuilds into owned vectors; the old XKG,
  /// and the mapping with it, goes with the last engine state or result
  /// that holds it (copy-on-write).
  void AttachBacking(std::shared_ptr<const void> backing) {
    backing_ = std::move(backing);
  }

  /// Ok unless a deferred provenance decode failed (see
  /// `FromPartsLazyProvenance`); triggers the decode.
  Status provenance_status() const;

  const rdf::Dictionary& dict() const { return *dict_; }
  const rdf::TripleStore& store() const { return store_; }
  const rdf::GraphStats& stats() const { return *stats_; }
  const text::PhraseIndex& phrase_index() const { return *phrase_index_; }

  /// Forwards first-touch score-shape sort instrumentation to the
  /// store's score index. Mutates state the `const` query paths read —
  /// call only before the XKG is shared (the engine binds each new XKG
  /// before publishing the state that holds it).
  void BindScoreMetrics(obs::Histogram sort_ms, obs::Counter builds) {
    store_.BindScoreMetrics(sort_ms, builds);
  }

  /// True iff the triple has curated-KG provenance.
  bool IsKgTriple(rdf::TripleId id) const {
    return store_.triple(id).source == rdf::kKgSource;
  }

  /// Number of distinct triples with curated-KG provenance.
  size_t kg_triple_count() const { return kg_triple_count_; }

  /// Number of distinct triples that exist only through extraction.
  size_t extraction_triple_count() const {
    return store_.size() - kg_triple_count_;
  }

  /// Supporting extractions of a triple, empty for pure-KG triples.
  const std::vector<Provenance>& ProvenanceFor(rdf::TripleId id) const;

  /// Human-readable one-line rendering "S --P--> O" of a triple.
  std::string RenderTriple(rdf::TripleId id) const;

 private:
  friend class XkgBuilder;
  Xkg() = default;

  /// Deferred PROV-section decode state. Heap-allocated so the
  /// once_flag keeps a stable address across moves of the owning Xkg
  /// (same idiom as ScoreOrderIndex::ShapeIndex); the once_flag itself
  /// is the publication protocol — `map`/`status` are written only
  /// inside the once-body and immutable after, so post-once reads are
  /// wait-free (documented in docs/CONCURRENCY.md, exercised under
  /// `ci.sh --tsan`).
  struct LazyProvenance {
    std::once_flag once;
    std::function<Result<ProvenanceMap>()> loader;
    ProvenanceMap map;
    Status status = Status::Ok();
  };

  /// Runs the deferred decode (at most once) and returns the map.
  const ProvenanceMap& DecodedProvenance() const;

  std::unique_ptr<rdf::Dictionary> dict_;
  rdf::TripleStore store_;
  std::unique_ptr<rdf::GraphStats> stats_;
  std::unique_ptr<text::PhraseIndex> phrase_index_;
  ProvenanceMap provenance_;
  std::unique_ptr<LazyProvenance> lazy_provenance_;  // null = eager
  std::vector<Provenance> empty_provenance_;
  // Keepalive for memory the index structures may view (the snapshot
  // mapping); destroyed last-ish by member order, after no views
  // remain reachable. Never dereferenced.
  std::shared_ptr<const void> backing_;
  size_t kg_triple_count_ = 0;
};

}  // namespace trinit::xkg

#endif  // TRINIT_XKG_XKG_H_
