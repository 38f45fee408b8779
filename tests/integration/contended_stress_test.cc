// Contended stress tests — the TSan exhibits. Each test pins one of the
// concurrency scenarios docs/CONCURRENCY.md guarantees, at thread
// counts ThreadSanitizer can exhaust in CI (`ci.sh --tsan` runs this
// whole suite under -fsanitize=thread):
//
//   * ExecuteBatch herd racing ExtendKg/AddManualRules generation bumps
//     (pre-PR-6 this was a genuine data race: the XKG pointee was
//     rebuilt under live readers; the engine-state reader-writer lock
//     now serializes mutators against the query herd),
//   * concurrent Save during serving and during mutation, and
//     concurrent Saves to one path beside an opener of that path,
//   * concurrent first touch of lazy score-ordered shapes,
//   * answer-cache store/lookup/evict races under a capacity small
//     enough to evict constantly,
//   * metrics scrapes racing the query herd and a KG mutator (the
//     registry's relaxed-atomic cells plus the slow-query log's ring
//     under concurrent writes).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/trinit.h"
#include "testing/paper_world.h"

namespace trinit::core {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::vector<std::string> Rendered(const Trinit& engine,
                                  const topk::TopKResult& result) {
  std::vector<std::string> out;
  for (size_t i = 0; i < result.answers.size(); ++i) {
    out.push_back(engine.RenderAnswer(result, i));
  }
  return out;
}

Result<Trinit> BuildEngine(TrinitOptions options = {}) {
  auto engine = Trinit::Open(testing::BuildPaperXkg(), options);
  if (engine.ok()) {
    Status s = engine->AddManualRules(testing::kPaperRulesText);
    if (!s.ok()) return s;
  }
  return engine;
}

const char* kHerdQueries[] = {
    "?x bornIn Germany",
    "AlbertEinstein hasAdvisor ?x",
    "AlbertEinstein 'won nobel for' ?x",
    "SELECT ?x WHERE AlbertEinstein affiliation ?x ; ?x member IvyLeague",
};

// The scenario the PR-6 lock exists for: a query herd hammering the
// engine while a mutator thread keeps extending the KG (every extension
// rebuilds the XKG pointee and bumps the serving-cache generation).
// Every request must succeed against a coherent engine — strictly
// before or strictly after each rebuild — and the final state must be
// byte-equal to applying the same mutations serially.
TEST(ContendedStressTest, ExecuteBatchHerdVsExtendKg) {
  auto engine = BuildEngine();
  ASSERT_TRUE(engine.ok()) << engine.status();
  const uint64_t start_generation = engine->serving_cache().generation();

  constexpr int kQueryThreads = 3;
  constexpr int kRounds = 6;
  constexpr int kMutations = 5;
  std::atomic<int> failures{0};
  std::atomic<bool> stop{false};

  std::thread mutator([&] {
    for (int i = 0; i < kMutations; ++i) {
      std::string fact = "StressNode" + std::to_string(i) +
                         " stressLink StressHub\n";
      if (!engine->ExtendKg(fact).ok()) failures.fetch_add(1);
    }
    stop.store(true);
  });

  std::vector<std::thread> herd;
  for (int t = 0; t < kQueryThreads; ++t) {
    herd.emplace_back([&] {
      // Keep querying at least until the mutator is done so rebuilds
      // really land under live readers; bounded rounds after that so
      // reader-preferring rwlocks cannot starve anyone forever.
      for (int round = 0; round < kRounds || !stop.load(); ++round) {
        std::vector<QueryRequest> batch;
        for (const char* text : kHerdQueries) {
          batch.push_back(QueryRequest::Text(text, 5));
        }
        auto results = engine->ExecuteBatch(batch, /*num_threads=*/2);
        for (const auto& r : results) {
          if (!r.ok()) failures.fetch_add(1);
        }
      }
    });
  }
  mutator.join();
  for (std::thread& th : herd) th.join();
  EXPECT_EQ(failures.load(), 0);

  // Every mutation bumped the generation exactly once (rules added at
  // build time already advanced it past 0).
  EXPECT_EQ(engine->serving_cache().generation(),
            start_generation + kMutations);

  // Race-free end state: identical to the same history applied with no
  // concurrency at all.
  auto reference = BuildEngine();
  ASSERT_TRUE(reference.ok());
  for (int i = 0; i < kMutations; ++i) {
    ASSERT_TRUE(reference
                    ->ExtendKg("StressNode" + std::to_string(i) +
                               " stressLink StressHub\n")
                    .ok());
  }
  for (const char* text : kHerdQueries) {
    auto got = engine->Execute(QueryRequest::Text(text, 5));
    auto want = reference->Execute(QueryRequest::Text(text, 5));
    ASSERT_TRUE(got.ok() && want.ok()) << text;
    EXPECT_EQ(Rendered(*engine, got->result()),
              Rendered(*reference, want->result()))
        << text;
  }
  auto stress = engine->Execute(
      QueryRequest::Text("?x stressLink StressHub", kMutations + 1));
  ASSERT_TRUE(stress.ok());
  EXPECT_EQ(stress->result().answers.size(), size_t{kMutations});
}

// Writer-vs-writer: concurrent mutators must serialize, not interleave
// mid-rebuild; all facts from all threads survive.
TEST(ContendedStressTest, ConcurrentMutatorsAllLand) {
  auto engine = BuildEngine();
  ASSERT_TRUE(engine.ok()) << engine.status();

  constexpr int kWriters = 3;
  constexpr int kFactsPerWriter = 3;
  std::atomic<int> failures{0};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < kFactsPerWriter; ++i) {
        std::string fact = "HerdNode" + std::to_string(w) + "x" +
                           std::to_string(i) + " herdLink HerdHub\n";
        if (!engine->ExtendKg(fact).ok()) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& th : writers) th.join();
  EXPECT_EQ(failures.load(), 0);

  auto all = engine->Execute(QueryRequest::Text(
      "?x herdLink HerdHub", kWriters * kFactsPerWriter + 1));
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->result().answers.size(),
            size_t{kWriters * kFactsPerWriter});
}

// Snapshot save racing the query herd AND a mutator: every save must
// capture a coherent engine (reopenable, answers a probe) — never a
// torn mid-rebuild state. Two more savers share one path with an
// opener reading it back: each save writes its own temp file, so every
// save succeeds and every open of the shared path loads a whole file.
TEST(ContendedStressTest, ConcurrentSaveDuringServingAndMutation) {
  auto engine = BuildEngine();
  ASSERT_TRUE(engine.ok()) << engine.status();

  constexpr int kSaves = 4;
  constexpr int kSharedSaves = 50;
  const std::string shared_path = TempPath("contended_save_shared.trntsnap");
  std::atomic<int> failures{0};
  std::atomic<int> shared_save_failures{0};
  std::atomic<int> shared_open_failures{0};
  std::atomic<int> shared_savers_running{2};
  std::atomic<bool> shared_saved{false};
  std::atomic<bool> stop{false};

  std::thread saver([&] {
    for (int i = 0; i < kSaves; ++i) {
      std::string path = TempPath("contended_save_" + std::to_string(i) +
                                  ".trntsnap");
      if (!engine->Save(path).ok()) {
        failures.fetch_add(1);
        continue;
      }
      auto reopened = Trinit::Open(path);
      if (!reopened.ok()) {
        failures.fetch_add(1);
        continue;
      }
      auto probe = reopened->Execute(
          QueryRequest::Text("AlbertEinstein hasAdvisor ?x", 3));
      if (!probe.ok() || probe->result().answers.empty()) {
        failures.fetch_add(1);
      }
    }
  });
  auto shared_saver = [&] {
    for (int i = 0; i < kSharedSaves; ++i) {
      if (engine->Save(shared_path).ok()) {
        shared_saved.store(true);
      } else {
        shared_save_failures.fetch_add(1);
      }
    }
    shared_savers_running.fetch_sub(1);
  };
  std::thread shared_saver_a(shared_saver);
  std::thread shared_saver_b(shared_saver);
  // Opens the shared path from the first completed save until both
  // savers are done; a rename always publishes a whole file, so no
  // open may ever see a torn one.
  std::thread opener([&] {
    for (bool last = false; !last;) {
      last = shared_savers_running.load() == 0;
      if (!shared_saved.load()) {
        std::this_thread::yield();
        continue;
      }
      if (!Trinit::Open(shared_path).ok()) shared_open_failures.fetch_add(1);
    }
  });
  std::thread mutator([&] {
    for (int i = 0; i < 3; ++i) {
      if (!engine->ExtendKg("SaveNode" + std::to_string(i) +
                            " saveLink SaveHub\n")
               .ok()) {
        failures.fetch_add(1);
      }
    }
    stop.store(true);
  });
  std::vector<std::thread> herd;
  for (int t = 0; t < 2; ++t) {
    herd.emplace_back([&] {
      for (int round = 0; round < 4 || !stop.load(); ++round) {
        for (const char* text : kHerdQueries) {
          if (!engine->Execute(QueryRequest::Text(text, 5)).ok()) {
            failures.fetch_add(1);
          }
        }
      }
    });
  }
  saver.join();
  shared_saver_a.join();
  shared_saver_b.join();
  opener.join();
  mutator.join();
  for (std::thread& th : herd) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(shared_save_failures.load(), 0);
  EXPECT_EQ(shared_open_failures.load(), 0);
  EXPECT_TRUE(shared_saved.load());
}

// Concurrent first touch of the lazy score-ordered shape permutations:
// one query per bound-slot shape, all at once, against an engine that
// has built nothing yet. The once-flag build must serialize per shape
// and the answers must equal a serial run on an identical fresh engine.
TEST(ContendedStressTest, ConcurrentLazyShapeFirstTouch) {
  const char* shape_queries[] = {
      "AlbertEinstein ?p ?o",        // S-bound
      "?x bornIn ?y",                // P-bound
      "?x ?p Ulm",                   // O-bound
      "AlbertEinstein bornIn ?x",    // SP-bound
      "AlbertEinstein ?p Ulm",       // SO-bound
      "?x bornIn Ulm",               // PO-bound
  };

  auto serial = BuildEngine();
  ASSERT_TRUE(serial.ok());
  std::vector<std::vector<std::string>> expected;
  for (const char* text : shape_queries) {
    auto response = serial->Execute(QueryRequest::Text(text, 5));
    ASSERT_TRUE(response.ok()) << text;
    expected.push_back(Rendered(*serial, response->result()));
  }

  auto engine = BuildEngine();
  ASSERT_TRUE(engine.ok());
  ASSERT_EQ(engine->xkg().store().score_shapes_built(), 0u)
      << "engine build must not pre-touch lazy shapes";

  std::atomic<int> mismatches{0};
  std::vector<std::thread> pool;
  for (size_t qi = 0; qi < std::size(shape_queries); ++qi) {
    pool.emplace_back([&, qi] {
      // Two passes: the first races the other shapes' first builds,
      // the second reads freshly published permutations.
      for (int pass = 0; pass < 2; ++pass) {
        auto response =
            engine->Execute(QueryRequest::Text(shape_queries[qi], 5));
        if (!response.ok() ||
            Rendered(*engine, response->result()) != expected[qi]) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& th : pool) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(engine->xkg().store().score_shapes_built(), 0u);
}

// Answer-cache shards under constant eviction pressure: capacity far
// below the working set, every thread cycling the same query list, so
// store/lookup/evict interleave on the same shards. Counters must
// reconcile and answers must stay byte-identical to an uncached run.
TEST(ContendedStressTest, AnswerCacheEvictionHerd) {
  TrinitOptions options;
  options.serving.answer_capacity = 4;  // working set is ~10 queries
  auto engine = BuildEngine(options);
  ASSERT_TRUE(engine.ok()) << engine.status();

  TrinitOptions uncached_options;
  uncached_options.serving.enabled = false;
  auto reference = BuildEngine(uncached_options);
  ASSERT_TRUE(reference.ok());

  std::vector<std::string> queries;
  for (const char* text : kHerdQueries) queries.push_back(text);
  for (int i = 0; i < 6; ++i) {
    // Distinct k values make distinct cache keys: more keys than
    // capacity guarantees steady eviction traffic.
    queries.push_back("AlbertEinstein ?p ?o");
  }

  constexpr int kThreads = 4;
  constexpr int kRounds = 4;
  std::atomic<int> mismatches{0};
  std::atomic<size_t> executed{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (size_t qi = 0; qi < queries.size(); ++qi) {
          int k = 1 + static_cast<int>((qi + t + round) % 5);
          auto got =
              engine->Execute(QueryRequest::Text(queries[qi], k));
          executed.fetch_add(1);
          auto want =
              reference->Execute(QueryRequest::Text(queries[qi], k));
          if (!got.ok() || !want.ok() ||
              Rendered(*engine, got->result()) !=
                  Rendered(*reference, want->result())) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& th : pool) th.join();
  EXPECT_EQ(mismatches.load(), 0);

  const serve::ServingCache::Counters counters =
      engine->serving_cache().counters();
  // Exactly one lookup per Execute; every miss that completed stored.
  EXPECT_EQ(counters.answer_hits + counters.answer_misses, executed.load());
  EXPECT_LE(counters.answer_insertions, counters.answer_misses);
  EXPECT_GT(counters.answer_evictions, 0u) << "capacity never pressured";
  EXPECT_LE(counters.answer_entries, options.serving.answer_capacity);
}

// Metrics scrapes racing the serving herd and a mutator: Snapshot()
// walks every registered cell with relaxed reads while ExecuteBatch
// workers increment them and ExtendKg rebinds score-shape handles under
// the exclusive state lock; a tiny slow-query threshold keeps the
// slow-log ring under concurrent Record pressure too. Each counter must
// stay monotone across scrapes, and the final scrape must reconcile
// exactly with the work submitted.
TEST(ContendedStressTest, ConcurrentMetricsScrapeDuringServingAndMutation) {
  TrinitOptions options;
  options.obs.slow_query_ms = 1e-6;  // every request records
  options.obs.slow_log_capacity = 8;
  auto engine = BuildEngine(options);
  ASSERT_TRUE(engine.ok()) << engine.status();

  constexpr int kQueryThreads = 2;
  constexpr int kRounds = 5;
  std::atomic<int> failures{0};
  std::atomic<size_t> executed{0};
  std::atomic<bool> stop{false};

  std::thread scraper([&] {
    uint64_t last_requests = 0;
    while (!stop.load()) {
      const obs::MetricsSnapshot snapshot = engine->MetricsSnapshot();
      const auto* requests = snapshot.Find("trinit_engine_requests_total");
      if (requests == nullptr ||
          static_cast<uint64_t>(requests->value) < last_requests) {
        failures.fetch_add(1);  // counter went backwards mid-storm
      } else {
        last_requests = static_cast<uint64_t>(requests->value);
      }
      // The slow log is being written concurrently; Entries() must
      // always hand back a coherent, capacity-bounded copy.
      if (engine->slow_query_log().Entries().size() >
          options.obs.slow_log_capacity) {
        failures.fetch_add(1);
      }
    }
  });
  std::thread mutator([&] {
    for (int i = 0; i < 3; ++i) {
      if (!engine->ExtendKg("ScrapeNode" + std::to_string(i) +
                            " scrapeLink ScrapeHub\n")
               .ok()) {
        failures.fetch_add(1);
      }
    }
  });
  std::vector<std::thread> herd;
  for (int t = 0; t < kQueryThreads; ++t) {
    herd.emplace_back([&] {
      for (int round = 0; round < kRounds; ++round) {
        std::vector<QueryRequest> batch;
        for (const char* text : kHerdQueries) {
          batch.push_back(QueryRequest::Text(text, 5));
        }
        auto results = engine->ExecuteBatch(batch, /*num_threads=*/2);
        executed.fetch_add(results.size());
        for (const auto& r : results) {
          if (!r.ok()) failures.fetch_add(1);
        }
      }
    });
  }
  mutator.join();
  for (std::thread& th : herd) th.join();
  stop.store(true);
  scraper.join();
  EXPECT_EQ(failures.load(), 0);

  // Quiescent reconciliation: the registry counted every request, and
  // the slow log kept its ring bounded while recording all of them.
  const obs::MetricsSnapshot final_snapshot = engine->MetricsSnapshot();
  const auto* requests = final_snapshot.Find("trinit_engine_requests_total");
  ASSERT_NE(requests, nullptr);
  EXPECT_EQ(static_cast<size_t>(requests->value), executed.load());
  const auto* active = final_snapshot.Find("trinit_engine_active_requests");
  ASSERT_NE(active, nullptr);
  EXPECT_EQ(active->value, 0.0);
  const auto* peak =
      final_snapshot.Find("trinit_engine_concurrent_requests_peak");
  ASSERT_NE(peak, nullptr);
  EXPECT_GE(peak->value, 1.0);
  EXPECT_EQ(engine->slow_query_log().total_recorded(), executed.load());
  EXPECT_EQ(engine->slow_query_log().Entries().size(),
            options.obs.slow_log_capacity);
}

}  // namespace
}  // namespace trinit::core
