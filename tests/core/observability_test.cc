// Engine-level observability (PR 10): traced requests carry a span
// tree mirroring the uniform counter set, every response fills the
// registry-sourced cumulative serving counters, the slow-query log
// captures a deliberately-slow request with its full span tree, the
// metrics registry counts engine work exactly, and observation is
// consistent across every way of standing the same engine up
// (TSV-built, snapshot copy, mmap/trusted).

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "core/trinit.h"
#include "obs/exposition.h"
#include "testing/paper_world.h"

namespace trinit::core {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

Trinit OpenPaperEngine(TrinitOptions options = {}) {
  auto engine = Trinit::Open(testing::BuildPaperXkg(), options);
  EXPECT_TRUE(engine.ok()) << engine.status();
  EXPECT_TRUE(engine->AddManualRules(testing::kPaperRulesText).ok());
  return std::move(engine).value();
}

const std::vector<std::string>& PaperQueries() {
  static const std::vector<std::string> queries = {
      "?x bornIn Germany",
      "AlbertEinstein hasAdvisor ?x",
      "SELECT ?x WHERE ?x affiliation ?u ; ?u 'housed in' ?p",
  };
  return queries;
}

double CounterValue(const obs::MetricsSnapshot& snapshot,
                    const char* name) {
  const obs::MetricsSnapshot::Metric* m = snapshot.Find(name);
  EXPECT_NE(m, nullptr) << name;
  return m == nullptr ? 0.0 : m->value;
}

TEST(ObservabilityTest, TracedRequestCarriesSpanTree) {
  Trinit engine = OpenPaperEngine();
  QueryRequest request = QueryRequest::Text("?x bornIn Germany", 5);
  request.trace = true;
  auto response = engine.Execute(request);
  ASSERT_TRUE(response.ok());

  ASSERT_TRUE(response->span.has_value());
  const obs::TraceSpan& root = *response->span;
  EXPECT_EQ(root.name, "execute");
  EXPECT_DOUBLE_EQ(root.duration_ms, response->wall_ms);
  // One child per executed stage, in execution order.
  ASSERT_EQ(root.children.size(), 3u);
  EXPECT_EQ(root.children[0].name, "parse");
  EXPECT_EQ(root.children[1].name, "cache");
  EXPECT_EQ(root.children[2].name, "process");
  EXPECT_GE(root.children[2].start_ms, root.children[1].start_ms);

  // The children tile the request in order: each stage starts where
  // the previous one ended.
  EXPECT_DOUBLE_EQ(root.children[1].start_ms, root.children[0].duration_ms);
  EXPECT_DOUBLE_EQ(root.children[2].start_ms,
                   root.children[1].start_ms + root.children[1].duration_ms);

  // The root carries the request's own work and serving state: the
  // run's counters first, then the serving_* counters.
  auto counter = [&root](const std::string& name) {
    for (const auto& [key, value] : root.counters) {
      if (key == name) return value;
    }
    ADD_FAILURE() << "no counter " << name;
    return -1.0;
  };
  EXPECT_EQ(root.counters.front().first, "query_variants_total");
  EXPECT_EQ(counter("items_pulled"),
            static_cast<double>(response->stats.items_pulled));
  EXPECT_EQ(counter("items_decoded"),
            static_cast<double>(response->stats.items_decoded));
  EXPECT_EQ(counter("serving_answer_hit"), 0.0);
  EXPECT_EQ(counter("serving_generation"),
            static_cast<double>(response->serving.generation));
  EXPECT_EQ(root.counters.back().first, "serving_plan_invalidated");

  // trace_json: valid-looking JSON with the schema's keys.
  const std::string json = response->trace_json();
  EXPECT_EQ(json.find("{\"name\":\"execute\""), 0u);
  EXPECT_NE(json.find("\"children\":[{\"name\":\"parse\""),
            std::string::npos);
  EXPECT_NE(json.find("[\"items_pulled\","), std::string::npos);

  // Untraced requests carry no span and an empty trace_json.
  auto untraced = engine.Execute(QueryRequest::Text("?x bornIn Ulm", 5));
  ASSERT_TRUE(untraced.ok());
  EXPECT_FALSE(untraced->span.has_value());
  EXPECT_EQ(untraced->trace_json(), "{}");
}

TEST(ObservabilityTest, EveryResponseFillsCumulativeServingCounters) {
  Trinit engine = OpenPaperEngine();
  const QueryRequest request = QueryRequest::Text("?x bornIn Ulm", 5);
  ASSERT_TRUE(engine.Execute(request).ok());          // cold miss
  auto warm = engine.Execute(request);                // untraced hit
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->serving.answer_hit);

  // The registry-sourced cumulative fields agree with the exact
  // lock-sweeping cache snapshot — on an *untraced* response.
  const serve::ServingCache::Counters c = engine.serving_cache().counters();
  EXPECT_EQ(warm->serving.answer_hits, c.answer_hits);
  EXPECT_EQ(warm->serving.answer_misses, c.answer_misses);
  EXPECT_EQ(warm->serving.answer_evictions, c.answer_evictions);
  EXPECT_EQ(warm->serving.plan_hits, c.plan_hits);
  EXPECT_EQ(warm->serving.plan_misses, c.plan_misses);
  EXPECT_EQ(warm->serving.plan_invalidated, c.plan_invalidated);
  EXPECT_EQ(warm->serving.answer_hits, 1u);
  EXPECT_EQ(warm->serving.answer_misses, 1u);
}

TEST(ObservabilityTest, MetricsOffLeavesZeroObservation) {
  TrinitOptions options;
  options.obs.metrics = false;
  Trinit engine = OpenPaperEngine(options);
  const QueryRequest request = QueryRequest::Text("?x bornIn Ulm", 5);
  ASSERT_TRUE(engine.Execute(request).ok());
  auto warm = engine.Execute(request);
  ASSERT_TRUE(warm.ok());
  // Serving still works (the per-request hit flag is cache state, not
  // registry state) but every cumulative counter stays zero.
  EXPECT_TRUE(warm->serving.answer_hit);
  EXPECT_EQ(warm->serving.answer_hits, 0u);
  EXPECT_EQ(warm->serving.answer_misses, 0u);
  // Nothing was registered: the scrape is empty, and renders validly.
  const obs::MetricsSnapshot snapshot = engine.MetricsSnapshot();
  EXPECT_TRUE(snapshot.metrics.empty());
  EXPECT_EQ(obs::RenderJson(snapshot), "{\"metrics\":[]}");
}

TEST(ObservabilityTest, RegistryCountsEngineWorkExactly) {
  Trinit engine = OpenPaperEngine();
  const QueryRequest request = QueryRequest::Text("?x bornIn Germany", 5);
  auto cold = engine.Execute(request);
  ASSERT_TRUE(cold.ok());
  auto warm = engine.Execute(request);
  ASSERT_TRUE(warm.ok());
  ASSERT_TRUE(warm->serving.answer_hit);

  const obs::MetricsSnapshot snapshot = engine.MetricsSnapshot();
  EXPECT_EQ(CounterValue(snapshot, "trinit_engine_requests_total"), 2.0);
  EXPECT_EQ(CounterValue(snapshot, "trinit_serve_answer_misses_total"), 1.0);
  EXPECT_EQ(CounterValue(snapshot, "trinit_serve_answer_hits_total"), 1.0);
  EXPECT_EQ(CounterValue(snapshot, "trinit_topk_items_pulled_total"),
            static_cast<double>(cold->stats.items_pulled));
  const obs::MetricsSnapshot::Metric* latency =
      snapshot.Find("trinit_engine_request_ms");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->count, 2u);
  EXPECT_GT(latency->sum, 0.0);
  EXPECT_GT(latency->Quantile(0.99), 0.0);
  // Only the cold request observed an early-termination depth: answer
  // hits do no pulling and must not dilute the distribution.
  const obs::MetricsSnapshot::Metric* pulls =
      snapshot.Find("trinit_topk_pulls_per_request");
  ASSERT_NE(pulls, nullptr);
  EXPECT_EQ(pulls->count, 1u);
}

TEST(ObservabilityTest, SlowLogCapturesSlowRequestWithSpanTree) {
  TrinitOptions options;
  options.obs.slow_query_ms = 1e-6;  // everything is "slow"
  options.obs.slow_log_capacity = 4;
  Trinit engine = OpenPaperEngine(options);
  // Untraced on purpose: slow requests get their span tree built even
  // when the caller never asked for a trace.
  auto response = engine.Execute(QueryRequest::Text("?x bornIn Germany", 5));
  ASSERT_TRUE(response.ok());
  EXPECT_FALSE(response->span.has_value());

  const auto entries = engine.slow_query_log().Entries();
  ASSERT_EQ(entries.size(), 1u);
  const obs::SlowQueryRecord& record = entries[0];
  EXPECT_EQ(record.sequence, 1u);
  EXPECT_GT(record.wall_ms, 0.0);
  EXPECT_FALSE(record.answer_hit);
  EXPECT_NE(record.query.find("bornIn"), std::string::npos);
  // The full span tree rode along: root + per-stage children + the
  // uniform counter set, and an execution-ordered plan rendering.
  EXPECT_EQ(record.span.name, "execute");
  ASSERT_GE(record.span.children.size(), 2u);
  EXPECT_EQ(record.span.children[0].name, "parse");
  EXPECT_EQ(record.span.children.back().name, "process");
  EXPECT_FALSE(record.counters.empty());
  EXPECT_NE(record.plan.find("p0(est="), std::string::npos);
  EXPECT_EQ(CounterValue(engine.MetricsSnapshot(),
                         "trinit_slowlog_records_total"),
            1.0);

  // A repeat is served from the answer cache and recorded as such.
  ASSERT_TRUE(
      engine.Execute(QueryRequest::Text("?x bornIn Germany", 5)).ok());
  const auto after = engine.slow_query_log().Entries();
  ASSERT_EQ(after.size(), 2u);
  EXPECT_TRUE(after[1].answer_hit);
  EXPECT_TRUE(after[1].plan.empty());
}

TEST(ObservabilityTest, ObservationConsistentAcrossEngineOrigins) {
  // Stand the same serving state up three ways: TSV/world-built,
  // snapshot reloaded (copy + verified), and snapshot mmap + trusted.
  // Each must emit the identical traced counter key set
  // and a registry whose per-engine deltas reconcile with the
  // per-request stats it served.
  Trinit built = OpenPaperEngine();
  const std::string path = TempPath("observability_paper.trinit");
  ASSERT_TRUE(built.Save(path).ok());

  TrinitOptions mmap_options;
  mmap_options.snapshot_read.mode = storage::LoadMode::kMapped;
  mmap_options.snapshot_read.verify = rdf::SnapshotValidation::kTrusted;

  struct EngineUnderTest {
    std::string name;
    Trinit engine;
  };
  auto copy_opened = Trinit::Open(path, {});
  ASSERT_TRUE(copy_opened.ok()) << copy_opened.status();
  auto mmap_opened = Trinit::Open(path, mmap_options);
  ASSERT_TRUE(mmap_opened.ok()) << mmap_opened.status();
  std::vector<EngineUnderTest> engines;
  engines.push_back({"built", std::move(built)});
  engines.push_back({"copy", std::move(copy_opened).value()});
  engines.push_back({"mmap+trusted", std::move(mmap_opened).value()});

  std::vector<std::string> reference_keys;
  for (EngineUnderTest& e : engines) {
    SCOPED_TRACE(e.name);
    const obs::MetricsSnapshot before = e.engine.MetricsSnapshot();
    size_t expected_pulled = 0;
    size_t requests = 0;
    for (const std::string& q : PaperQueries()) {
      QueryRequest request = QueryRequest::Text(q, 5);
      request.trace = true;
      auto response = e.engine.Execute(request);
      ASSERT_TRUE(response.ok()) << q;
      ++requests;
      expected_pulled += response->stats.items_pulled;
      ASSERT_TRUE(response->span.has_value());
      std::vector<std::string> keys;
      for (const auto& [key, value] : response->span->counters) {
        keys.push_back(key);
      }
      if (reference_keys.empty()) {
        reference_keys = keys;
      } else {
        // The uniform vocabulary: same keys, same order, on every
        // engine origin.
        EXPECT_EQ(keys, reference_keys) << q;
      }
    }
    const obs::MetricsSnapshot after = e.engine.MetricsSnapshot();
    EXPECT_EQ(CounterValue(after, "trinit_engine_requests_total") -
                  CounterValue(before, "trinit_engine_requests_total"),
              static_cast<double>(requests));
    EXPECT_EQ(CounterValue(after, "trinit_topk_items_pulled_total") -
                  CounterValue(before, "trinit_topk_items_pulled_total"),
              static_cast<double>(expected_pulled));
  }
}

TEST(ObservabilityTest, StorageGaugesReportTheOpen) {
  Trinit built = OpenPaperEngine();
  const std::string path = TempPath("observability_gauges.trinit");
  ASSERT_TRUE(built.Save(path).ok());

  TrinitOptions options;
  options.snapshot_read.mode = storage::LoadMode::kMapped;
  options.snapshot_read.verify = rdf::SnapshotValidation::kTrusted;
  auto loaded = Trinit::Open(path, options);
  ASSERT_TRUE(loaded.ok()) << loaded.status();

  const obs::MetricsSnapshot snapshot = loaded->MetricsSnapshot();
  const obs::MetricsSnapshot::Metric* open_ms =
      snapshot.Find("trinit_storage_open_ms");
  ASSERT_NE(open_ms, nullptr);
  EXPECT_EQ(open_ms->count, 1u);
  EXPECT_GT(CounterValue(snapshot, "trinit_storage_snapshot_bytes"), 0.0);
  EXPECT_GT(CounterValue(snapshot, "trinit_storage_bytes_touched_at_open"),
            0.0);
  EXPECT_EQ(CounterValue(snapshot, "trinit_storage_mapped"), 1.0);
  // A TSV/world-built engine never opened a file: gauges stay zero.
  EXPECT_EQ(CounterValue(built.MetricsSnapshot(), "trinit_storage_mapped"),
            0.0);
}

}  // namespace
}  // namespace trinit::core
