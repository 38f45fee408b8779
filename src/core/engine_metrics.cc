#include "core/engine_metrics.h"

#include <vector>

namespace trinit::core {
namespace {

/// Request latencies from sub-millisecond cache hits up to multi-second
/// stragglers; p50/p95/p99 land inside the finite range on every bench
/// world we serve.
const std::vector<double> kLatencyBoundsMs = {0.05, 0.1, 0.25, 0.5,  1.0,
                                              2.5,  5.0, 10.0, 25.0, 50.0,
                                              100.0, 250.0, 500.0, 1000.0};

/// Sort latency of one first-touch score-shape build (smaller worlds
/// sort in microseconds; big worlds take longer).
const std::vector<double> kSortBoundsMs = {0.01, 0.05, 0.1, 0.5, 1.0,
                                           5.0,  10.0, 50.0, 100.0};

/// Items pulled by one request: powers of four from "answered from the
/// very top of the lists" to "drained a large rewrite space".
const std::vector<double> kPullBounds = {0, 4,    16,   64,   256,
                                         1024, 4096, 16384, 65536};

/// |log2| cardinality error per plan step; 0.5 = sqrt(2) off,
/// 10 = three orders of magnitude.
const std::vector<double> kCardinalityErrorBounds = {0.5, 1, 2, 3, 4,
                                                     6,   8, 10};

}  // namespace

EngineMetrics EngineMetrics::Register(obs::MetricsRegistry& registry) {
  EngineMetrics m;

  m.requests = registry.RegisterCounter(
      "trinit_engine_requests_total", "Execute calls, any outcome.");
  m.parse_errors = registry.RegisterCounter(
      "trinit_engine_parse_errors_total",
      "Requests rejected with a parse error.");
  m.deadline_hits = registry.RegisterCounter(
      "trinit_engine_deadline_hits_total",
      "Responses truncated by the request deadline.");
  m.active_requests = registry.RegisterGauge(
      "trinit_engine_active_requests", "Execute calls in flight.");
  m.concurrent_peak = registry.RegisterGauge(
      "trinit_engine_concurrent_requests_peak",
      "High-water mark of concurrent Execute calls.");
  m.request_ms = registry.RegisterHistogram(
      "trinit_engine_request_ms", "End-to-end Execute latency (ms).",
      kLatencyBoundsMs);

  m.answer_hits = registry.RegisterCounter(
      "trinit_serve_answer_hits_total", "Answer-cache hits.");
  m.answer_misses = registry.RegisterCounter(
      "trinit_serve_answer_misses_total", "Answer-cache misses.");
  m.answer_insertions = registry.RegisterCounter(
      "trinit_serve_answer_insertions_total", "Answer-cache insertions.");
  m.answer_evictions = registry.RegisterCounter(
      "trinit_serve_answer_evictions_total", "Answer-cache LRU evictions.");
  m.invalidations = registry.RegisterCounter(
      "trinit_serve_invalidations_total",
      "Engine states published; each drops older-generation answers.");
  m.body_shares = registry.RegisterCounter(
      "trinit_serve_answer_body_shares_total",
      "Responses that shared an immutable cached result body.");

  m.plan_hits = registry.RegisterCounter(
      "trinit_plan_cache_hits_total", "Plan-cache hits.");
  m.plan_misses = registry.RegisterCounter(
      "trinit_plan_cache_misses_total", "Plan-cache misses (fresh compiles).");
  m.plan_invalidated = registry.RegisterCounter(
      "trinit_plan_cache_invalidated_total",
      "Plan-cache entries swept as generation-stale.");
  m.plan_cardinality_error = registry.RegisterHistogram(
      "trinit_plan_cardinality_log2_error",
      "Per plan step: |log2((pulled+1)/(estimated+1))|.",
      kCardinalityErrorBounds);

  m.items_pulled = registry.RegisterCounter(
      "trinit_topk_items_pulled_total", "Items the rank-join consumed.");
  m.items_decoded = registry.RegisterCounter(
      "trinit_topk_items_decoded_total",
      "Index-list entries fetched and scored.");
  m.items_skipped = registry.RegisterCounter(
      "trinit_topk_items_skipped_total",
      "Known index entries never decoded (early termination).");
  m.combinations_tried = registry.RegisterCounter(
      "trinit_topk_combinations_tried_total",
      "Candidate join combinations examined.");
  m.partition_probes = registry.RegisterCounter(
      "trinit_topk_partition_probes_total",
      "Hash-narrowed seen-state probes.");
  m.pulls_per_request = registry.RegisterHistogram(
      "trinit_topk_pulls_per_request",
      "Items pulled by one request (early-termination depth).",
      kPullBounds);

  m.shape_builds = registry.RegisterCounter(
      "trinit_rdf_score_shape_builds_total",
      "First-touch score-shape sorts.");
  m.shape_sort_ms = registry.RegisterHistogram(
      "trinit_rdf_score_shape_sort_ms",
      "First-touch score-shape sort latency (ms).", kSortBoundsMs);

  m.open_ms = registry.RegisterHistogram(
      "trinit_storage_open_ms", "Snapshot open latency (ms).",
      kLatencyBoundsMs);
  m.snapshot_bytes = registry.RegisterGauge(
      "trinit_storage_snapshot_bytes", "Last-opened snapshot file size.");
  m.bytes_touched_open = registry.RegisterGauge(
      "trinit_storage_bytes_touched_at_open",
      "Distinct file bytes read during the last snapshot open.");
  m.resident_bytes = registry.RegisterGauge(
      "trinit_storage_resident_bytes",
      "Private bytes of the loaded serving state.");
  m.mapped = registry.RegisterGauge(
      "trinit_storage_mapped", "1 when serving through an mmap view.");

  m.slowlog_records = registry.RegisterCounter(
      "trinit_slowlog_records_total", "Requests written to the slow log.");

  return m;
}

}  // namespace trinit::core
