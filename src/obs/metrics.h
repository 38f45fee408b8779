#ifndef TRINIT_OBS_METRICS_H_
#define TRINIT_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

/// Always-on engine metrics (PR 10): a registry of named counters,
/// gauges, and fixed-bucket histograms whose *increment* path is
/// lock-free relaxed atomics — cheap enough for every untraced request
/// — while registration and scraping go through an ordinary mutex.
///
/// This header is the one place in src/ allowed to name `std::atomic`
/// directly (tools/lint.py's `adhoc-atomic` rule): every aggregate
/// counter the engine keeps must be a registry metric so a scrape can
/// see it. The few non-metric atomics that remain (generation counters,
/// publication flags) are individually allowlisted.
///
/// Handles (`Counter`, `Gauge`, `Histogram`) are trivially copyable
/// values wrapping a pointer into registry-owned storage; a
/// default-constructed ("unbound") handle is a no-op on every
/// operation, which is how `ObsOptions::metrics = false` turns the
/// whole subsystem off at a single-branch cost per site. Building with
/// `-DTRINIT_OBS_COMPILED_OUT` removes even that branch (the bodies
/// compile to nothing); see docs/OBSERVABILITY.md for the overhead
/// contract and bench_p3_serving for the measurement that gates it.
///
/// Memory ordering (docs/CONCURRENCY.md): increments and reads are
/// `memory_order_relaxed`. Each metric is monotone and exact in
/// isolation, but one scrape is NOT a cross-metric atomic cut — two
/// counters bumped by the same request may be observed one-with,
/// one-without. Handles must be bound before the owning structure is
/// shared across threads (the engine binds before construction
/// returns, or on a new XKG before it publishes the state holding it).
namespace trinit::obs {

/// Observability knobs of one engine (`core::TrinitOptions::obs`).
struct ObsOptions {
  /// Master switch. False leaves every handle unbound: all increment
  /// sites degrade to a null check, `MetricsSnapshot()` reports every
  /// metric as zero, and `QueryResponse::serving` cumulative counters
  /// stay zero. The runtime stand-in for TRINIT_OBS_COMPILED_OUT.
  bool metrics = true;

  /// Requests slower than this (end-to-end `Execute` wall time, ms)
  /// are recorded in the slow-query log with their full span tree;
  /// <= 0 disables the log.
  double slow_query_ms = 250.0;

  /// Bounded ring capacity of the slow-query log; oldest records are
  /// overwritten. 0 disables the log.
  size_t slow_log_capacity = 64;
};

enum class MetricKind { kCounter, kGauge, kHistogram };

namespace internal {

/// Stripes per counter: enough to keep `ExecuteBatch` workers off each
/// other's cache lines, small enough that a scrape's stripe sum is
/// trivial. Must be a power of two (the stripe index masks with it).
inline constexpr size_t kCounterStripes = 4;

struct alignas(64) CounterCell {
  std::atomic<uint64_t> value{0};
};

struct CounterCells {
  CounterCell stripes[kCounterStripes];
};

struct GaugeCell {
  std::atomic<int64_t> value{0};
};

struct HistogramCells {
  std::vector<double> bounds;  ///< ascending finite upper bounds
  /// Per-bucket observation counts, size bounds.size() + 1 (the last
  /// is the implicit +Inf bucket).
  std::unique_ptr<std::atomic<uint64_t>[]> buckets;
  std::atomic<uint64_t> count{0};
  /// Sum of observed values as raw IEEE-754 bits, accumulated by CAS
  /// (`AddToDoubleBits`) so the sum stays lock-free without a mutex.
  std::atomic<uint64_t> sum_bits{0};
};

/// This thread's counter stripe (a cached hash of the thread id).
size_t StripeIndex();

/// Lock-free `cell += delta` where `cell` holds double bits.
void AddToDoubleBits(std::atomic<uint64_t>& cell, double delta);

}  // namespace internal

/// Monotone counter handle. Unbound (default) is a no-op.
class Counter {
 public:
  Counter() = default;

  /// Relaxed, lock-free, striped; `n == 0` is a no-op.
  void Increment(uint64_t n = 1) const {
#ifndef TRINIT_OBS_COMPILED_OUT
    if (cells_ == nullptr || n == 0) return;
    cells_->stripes[internal::StripeIndex()].value.fetch_add(
        n, std::memory_order_relaxed);
#else
    (void)n;
#endif
  }

  /// Sum over stripes (relaxed reads); 0 when unbound. Exact for this
  /// counter, but not an atomic cut across counters.
  uint64_t Value() const;

  bool bound() const { return cells_ != nullptr; }

 private:
  friend class MetricsRegistry;
  explicit Counter(internal::CounterCells* cells) : cells_(cells) {}
  internal::CounterCells* cells_ = nullptr;
};

/// Point-in-time gauge handle (single relaxed atomic). Unbound is a
/// no-op (`Add` returns 0).
class Gauge {
 public:
  Gauge() = default;

  /// Adds `delta` and returns the post-add value (0 when unbound).
  int64_t Add(int64_t delta) const {
#ifndef TRINIT_OBS_COMPILED_OUT
    if (cell_ == nullptr) return 0;
    return cell_->value.fetch_add(delta, std::memory_order_relaxed) + delta;
#else
    (void)delta;
    return 0;
#endif
  }

  void Set(int64_t value) const {
#ifndef TRINIT_OBS_COMPILED_OUT
    if (cell_ != nullptr) cell_->value.store(value, std::memory_order_relaxed);
#else
    (void)value;
#endif
  }

  /// Monotone max: raises the gauge to `candidate` if it is higher
  /// (CAS loop) — the high-water-mark primitive.
  void UpdateMax(int64_t candidate) const;

  int64_t Value() const;

  bool bound() const { return cell_ != nullptr; }

 private:
  friend class MetricsRegistry;
  explicit Gauge(internal::GaugeCell* cell) : cell_(cell) {}
  internal::GaugeCell* cell_ = nullptr;
};

/// Fixed-bucket histogram handle. Unbound is a no-op.
class Histogram {
 public:
  Histogram() = default;

  /// Counts `value` into its bucket (first upper bound >= value, +Inf
  /// catch-all) and accumulates the sum. Relaxed, lock-free.
  void Observe(double value) const;

  bool bound() const { return cells_ != nullptr; }

 private:
  friend class MetricsRegistry;
  explicit Histogram(internal::HistogramCells* cells) : cells_(cells) {}
  internal::HistogramCells* cells_ = nullptr;
};

/// RAII in-flight marker: `gauge += 1` on construction (recording the
/// post-increment value as a candidate high-water mark on `peak`),
/// `gauge -= 1` on destruction — the engine's concurrent-reader gauge.
class GaugeGuard {
 public:
  GaugeGuard(Gauge gauge, Gauge peak) : gauge_(gauge) {
    peak.UpdateMax(gauge_.Add(1));
  }
  GaugeGuard(const GaugeGuard&) = delete;
  GaugeGuard& operator=(const GaugeGuard&) = delete;
  ~GaugeGuard() { gauge_.Add(-1); }

 private:
  Gauge gauge_;
};

/// Stable, renderer-independent snapshot of every registered metric
/// (registration order preserved). `obs::RenderPrometheus` /
/// `RenderJson` (obs/exposition.h) turn it into wire formats.
struct MetricsSnapshot {
  struct Bucket {
    double le = 0.0;     ///< upper bound; infinity for the last bucket
    uint64_t count = 0;  ///< cumulative observations <= le
  };
  struct Metric {
    std::string name;
    std::string help;
    MetricKind kind = MetricKind::kCounter;
    double value = 0.0;  ///< counter/gauge value
    // Histogram-only fields.
    uint64_t count = 0;
    double sum = 0.0;
    std::vector<Bucket> buckets;  ///< cumulative; last is +Inf

    /// Histogram quantile estimate (linear interpolation within the
    /// winning bucket; the +Inf bucket answers with the largest finite
    /// bound). 0 for empty histograms and non-histogram kinds.
    double Quantile(double q) const;
  };

  std::vector<Metric> metrics;

  const Metric* Find(std::string_view name) const;
};

/// Named metric registry: one per engine. Registration is idempotent
/// by name (re-registering returns a handle to the same cells) and
/// mutex-guarded; it happens at engine construction, never on the
/// request path. `Snapshot` takes the same mutex to walk the
/// definition list, reading cell values relaxed — increments are never
/// blocked by a scrape.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter RegisterCounter(const std::string& name, const std::string& help);
  Gauge RegisterGauge(const std::string& name, const std::string& help);
  /// `bounds` are ascending finite bucket upper bounds; the +Inf
  /// catch-all is implicit. On re-registration the original bounds win.
  Histogram RegisterHistogram(const std::string& name,
                              const std::string& help,
                              std::vector<double> bounds);

  MetricsSnapshot Snapshot() const;

  size_t size() const;

 private:
  struct Def {
    std::string name;
    std::string help;
    MetricKind kind = MetricKind::kCounter;
    std::unique_ptr<internal::CounterCells> counter;
    std::unique_ptr<internal::GaugeCell> gauge;
    std::unique_ptr<internal::HistogramCells> histogram;
  };

  /// Existing def for `name` (checking the kind matches), or a fresh
  /// one appended to `defs_`.
  Def& DefFor(const std::string& name, const std::string& help,
              MetricKind kind) TRINIT_REQUIRES(mu_);

  mutable Mutex mu_;
  /// unique_ptr elements give every Def a stable address: handles keep
  /// raw cell pointers while the vector grows.
  std::vector<std::unique_ptr<Def>> defs_ TRINIT_GUARDED_BY(mu_);
  std::unordered_map<std::string, size_t> index_ TRINIT_GUARDED_BY(mu_);
};

}  // namespace trinit::obs

#endif  // TRINIT_OBS_METRICS_H_
