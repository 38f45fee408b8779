#ifndef TRINIT_CORE_ENGINE_METRICS_H_
#define TRINIT_CORE_ENGINE_METRICS_H_

#include "obs/metrics.h"

/// The engine's complete metric catalog (PR 10): one handle per metric,
/// registered in `Register` with the names, types, and help strings
/// documented in docs/OBSERVABILITY.md. `core::Trinit` owns one of
/// these by value; when `ObsOptions::metrics` is false the struct is
/// simply left default-constructed (every handle unbound, every
/// increment site a no-op).
namespace trinit::core {

struct EngineMetrics {
  // ---------------------------------------------------------- engine
  obs::Counter requests;        ///< Execute calls, any outcome
  obs::Counter parse_errors;    ///< requests rejected at parse
  obs::Counter deadline_hits;   ///< responses truncated by deadline
  obs::Gauge active_requests;   ///< Execute calls in flight now
  obs::Gauge concurrent_peak;   ///< high-water mark of the above
  obs::Histogram request_ms;    ///< end-to-end Execute latency

  // ----------------------------------------------------------- serve
  obs::Counter answer_hits;
  obs::Counter answer_misses;
  obs::Counter answer_insertions;
  obs::Counter answer_evictions;
  obs::Counter invalidations;  ///< engine states published
  obs::Counter body_shares;    ///< responses sharing a cached body

  // ------------------------------------------------------------ plan
  obs::Counter plan_hits;
  obs::Counter plan_misses;
  obs::Counter plan_invalidated;
  /// |log2((pulled+1)/(estimated+1))| per executed plan step — the
  /// estimated-vs-actual error distribution the future planner
  /// calibration loop (ROADMAP) reads. 0 = perfect estimate; each unit
  /// is one power of two off.
  obs::Histogram plan_cardinality_error;

  // ------------------------------------------------------------ topk
  obs::Counter items_pulled;
  obs::Counter items_decoded;
  obs::Counter items_skipped;  ///< early termination: known, not decoded
  obs::Counter combinations_tried;
  obs::Counter partition_probes;
  obs::Histogram pulls_per_request;  ///< early-termination depth

  // ------------------------------------------------------------- rdf
  obs::Counter shape_builds;      ///< first-touch score-shape sorts
  obs::Histogram shape_sort_ms;   ///< ... their latency

  // --------------------------------------------------------- storage
  obs::Histogram open_ms;         ///< snapshot open latency
  obs::Gauge snapshot_bytes;      ///< last-opened snapshot file size
  obs::Gauge bytes_touched_open;  ///< bytes read during that open
  obs::Gauge resident_bytes;      ///< private bytes of the loaded state
  obs::Gauge mapped;              ///< 1 = serving through an mmap view

  // --------------------------------------------------------- slowlog
  obs::Counter slowlog_records;  ///< requests written to the slow log

  /// Registers the full catalog against `registry` and returns the
  /// bound handles. Idempotent (registration is by name).
  static EngineMetrics Register(obs::MetricsRegistry& registry);
};

}  // namespace trinit::core

#endif  // TRINIT_CORE_ENGINE_METRICS_H_
