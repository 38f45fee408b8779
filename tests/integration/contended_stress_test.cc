// Contended stress tests — the TSan exhibits. Each test pins one of the
// concurrency scenarios docs/CONCURRENCY.md guarantees, at thread
// counts ThreadSanitizer can exhaust in CI (`ci.sh --tsan` runs this
// whole suite under -fsanitize=thread):
//
//   * ExecuteBatch herd racing ExtendKg publishes (every request runs
//     on the one state it pinned; responses of one generation agree),
//   * readers that never wait for a writer parked mid-build,
//   * concurrent Save during serving and during mutation, and
//     concurrent Saves to one path beside an opener of that path,
//   * concurrent first touch of lazy score-ordered shapes and of the
//     lazily built suggester and autocomplete,
//   * answer-cache store/lookup/evict races under a capacity small
//     enough to evict constantly,
//   * metrics scrapes racing the query herd and a KG mutator (the
//     registry's relaxed-atomic cells plus the slow-query log's ring
//     under concurrent writes).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/trinit.h"
#include "query/parser.h"
#include "relax/manual_rules.h"
#include "testing/answer_bytes.h"
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

// A query herd hammering the engine while a writer keeps extending the
// KG (every extension rebuilds the XKG and publishes a new state).
// Every request must succeed against one coherent state — strictly
// before or strictly after each rebuild — so responses to one query
// that report the same generation agree byte for byte, and the final
// state must be byte-equal to applying the same writes serially.
TEST(ContendedStressTest, ExecuteBatchHerdVsExtendKg) {
  auto engine = BuildEngine();
  ASSERT_TRUE(engine.ok()) << engine.status();
  const uint64_t start_generation = engine->generation();

  constexpr int kQueryThreads = 3;
  constexpr int kRounds = 6;
  constexpr int kMutations = 5;
  std::atomic<int> failures{0};
  std::atomic<bool> stop{false};
  // (query index, generation) -> AnswerBytes, one map per herd thread.
  using Seen = std::map<std::pair<size_t, uint64_t>, std::vector<std::string>>;
  std::vector<Seen> seen(kQueryThreads);

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
    herd.emplace_back([&, t] {
      // Keep querying at least until the mutator is done so rebuilds
      // really land under live readers; bounded rounds after that.
      for (int round = 0; round < kRounds || !stop.load(); ++round) {
        std::vector<QueryRequest> batch;
        for (const char* text : kHerdQueries) {
          batch.push_back(QueryRequest::Text(text, 5));
        }
        auto results = engine->ExecuteBatch(batch, /*num_threads=*/2);
        for (size_t i = 0; i < results.size(); ++i) {
          if (!results[i].ok()) {
            failures.fetch_add(1);
            continue;
          }
          seen[t][{i, results[i]->serving.generation}].push_back(
              testing::AnswerBytes(results[i]->result()));
        }
      }
    });
  }
  mutator.join();
  for (std::thread& th : herd) th.join();
  EXPECT_EQ(failures.load(), 0);

  // One generation, one state: every response to a query that reports
  // a generation carries that state's answers.
  std::map<std::pair<size_t, uint64_t>, std::string> first;
  for (const Seen& thread_seen : seen) {
    for (const auto& [key, all_bytes] : thread_seen) {
      for (const std::string& bytes : all_bytes) {
        EXPECT_EQ(first.emplace(key, bytes).first->second, bytes)
            << kHerdQueries[key.first] << " at generation " << key.second;
      }
    }
  }

  // Every write published exactly one generation (rules added at build
  // time already advanced it past 0).
  EXPECT_EQ(engine->generation(),
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

// A writer parked mid-build holds nothing a reader needs: while an
// operator blocks inside Generate, another thread's Execute, Explain,
// RenderAnswer, Suggest and Save each finish within a bounded wait, on
// the old generation. Then the write lands as generation + 1. The latch
// opens on every exit path, so a failure cannot hang the suite.
TEST(ContendedStressTest, ReadersDoNotWaitForAWriter) {
  using std::chrono::seconds;
  auto engine = BuildEngine();
  ASSERT_TRUE(engine.ok()) << engine.status();
  const QueryRequest request =
      QueryRequest::Text("AlbertEinstein hasAdvisor ?x", 5);
  auto held = engine->Execute(request);
  ASSERT_TRUE(held.ok());
  ASSERT_FALSE(held->result().answers.empty());
  const topk::TopKResult& result = held->result();
  const uint64_t old_generation = held->serving.generation;
  const std::string rendered = engine->RenderAnswer(result, 0);
  const std::string explained = engine->Explain(result, 0).ToString();
  auto q = query::Parser::Parse("AlbertEinstein hasAdvisor ?x",
                                &engine->xkg().dict());
  ASSERT_TRUE(q.ok());
  const std::string path = TempPath("readers_do_not_wait.trntsnap");

  // Parks inside Generate until the latch opens.
  class LatchedOperator : public relax::RelaxationOperator {
   public:
    explicit LatchedOperator(std::shared_future<void> latch)
        : latch_(std::move(latch)) {}
    std::string name() const override { return "latched"; }
    Status Generate(const xkg::Xkg&, relax::RuleSet* rules) override {
      entered_.set_value();
      latch_.wait();
      auto rule = relax::ParseManualRule(
          "latched: ?x knows ?y => ?y knows ?x @ 0.5", 1);
      TRINIT_RETURN_IF_ERROR(rule.status());
      return rules->Add(std::move(rule).value());
    }
    std::future<void> Entered() { return entered_.get_future(); }

   private:
    std::shared_future<void> latch_;
    std::promise<void> entered_;
  };

  std::promise<void> latch;
  LatchedOperator op(latch.get_future().share());
  std::future<void> entered = op.Entered();
  // Every future is declared before the opener below, so on any exit
  // the latch opens before their destructors wait for their threads.
  std::future<Status> writer;
  std::future<uint64_t> execute;
  std::future<std::string> explain;
  std::future<std::string> render;
  std::future<size_t> suggest;
  std::future<Status> save;
  struct LatchOpener {
    std::promise<void>* latch;
    bool opened = false;
    void OpenLatch() {
      if (!opened) latch->set_value();
      opened = true;
    }
    ~LatchOpener() { OpenLatch(); }
  } opener{&latch};

  writer = std::async(std::launch::async,
                      [&] { return engine->RunOperator(op); });
  ASSERT_EQ(entered.wait_for(seconds(10)), std::future_status::ready)
      << "the writer never reached Generate";

  execute = std::async(std::launch::async, [&] {
    auto response = engine->Execute(request);
    return response.ok() ? response->serving.generation : UINT64_MAX;
  });
  explain = std::async(std::launch::async, [&] {
    return engine->Explain(result, 0).ToString();
  });
  render = std::async(std::launch::async,
                      [&] { return engine->RenderAnswer(result, 0); });
  suggest = std::async(std::launch::async,
                       [&] { return engine->Suggest(*q, result).size(); });
  save = std::async(std::launch::async, [&] { return engine->Save(path); });

  const auto deadline = std::chrono::steady_clock::now() + seconds(10);
  auto finished = [&deadline](const auto& future) {
    return future.wait_until(deadline) == std::future_status::ready;
  };
  const bool execute_done = finished(execute);
  const bool explain_done = finished(explain);
  const bool render_done = finished(render);
  const bool suggest_done = finished(suggest);
  const bool save_done = finished(save);
  EXPECT_TRUE(execute_done) << "Execute waited for the writer";
  EXPECT_TRUE(explain_done) << "Explain waited for the writer";
  EXPECT_TRUE(render_done) << "RenderAnswer waited for the writer";
  EXPECT_TRUE(suggest_done) << "Suggest waited for the writer";
  EXPECT_TRUE(save_done) << "Save waited for the writer";
  // The write is still parked: everything read the old state.
  EXPECT_NE(writer.wait_for(seconds(0)), std::future_status::ready);
  if (execute_done) EXPECT_EQ(execute.get(), old_generation);
  if (explain_done) EXPECT_EQ(explain.get(), explained);
  if (render_done) EXPECT_EQ(render.get(), rendered);
  if (suggest_done) (void)suggest.get();
  if (save_done) EXPECT_TRUE(save.get().ok());

  opener.OpenLatch();
  ASSERT_TRUE(writer.get().ok());
  auto after = engine->Execute(request);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->serving.generation, old_generation + 1);
  if (save_done) {
    auto reopened = Trinit::Open(path);
    ASSERT_TRUE(reopened.ok()) << reopened.status();
    auto probe = reopened->Execute(request);
    ASSERT_TRUE(probe.ok());
    EXPECT_EQ(probe->serving.generation, old_generation);
  }
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
// The state's lazily built suggester and autocomplete race the same
// way: threads make their first Suggest and autocomplete() calls at
// once, and each must see what a serial engine sees.
TEST(ContendedStressTest, ConcurrentLazyShapeFirstTouch) {
  const char* shape_queries[] = {
      "AlbertEinstein ?p ?o",        // S-bound
      "?x bornIn ?y",                // P-bound
      "?x ?p Ulm",                   // O-bound
      "AlbertEinstein bornIn ?x",    // SP-bound
      "AlbertEinstein ?p Ulm",       // SO-bound
      "?x bornIn Ulm",               // PO-bound
  };
  const char* suggest_query = "AlbertEinstein 'won nobel for' ?x";
  auto suggestions_of = [suggest_query](const Trinit& engine) {
    std::vector<std::string> out;
    auto q = query::Parser::Parse(suggest_query, &engine.xkg().dict());
    auto response = engine.Execute(QueryRequest::Text(suggest_query, 5));
    if (!q.ok() || !response.ok()) return out;
    for (const auto& s : engine.Suggest(*q, response->result())) {
      out.push_back(s.message);
    }
    return out;
  };
  auto completions_of = [](const Trinit& engine) {
    std::vector<std::string> out;
    for (const auto& c : engine.autocomplete().Complete("al", 8)) {
      out.push_back(c.text);
    }
    return out;
  };

  auto serial = BuildEngine();
  ASSERT_TRUE(serial.ok());
  std::vector<std::vector<std::string>> expected;
  for (const char* text : shape_queries) {
    auto response = serial->Execute(QueryRequest::Text(text, 5));
    ASSERT_TRUE(response.ok()) << text;
    expected.push_back(Rendered(*serial, response->result()));
  }
  const std::vector<std::string> expected_suggestions =
      suggestions_of(*serial);
  const std::vector<std::string> expected_completions =
      completions_of(*serial);
  ASSERT_FALSE(expected_completions.empty());

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
  for (int t = 0; t < 3; ++t) {
    pool.emplace_back([&] {
      if (suggestions_of(*engine) != expected_suggestions) {
        mismatches.fetch_add(1);
      }
    });
    pool.emplace_back([&] {
      if (completions_of(*engine) != expected_completions) {
        mismatches.fetch_add(1);
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

// Metrics scrapes racing the serving herd and a writer: Snapshot()
// walks every registered cell with relaxed reads while ExecuteBatch
// workers increment them and ExtendKg binds score-shape handles on each
// new XKG before publishing it; a tiny slow-query threshold keeps the
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
