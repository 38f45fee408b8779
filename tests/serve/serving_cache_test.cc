// Unit tests for the engine-level serving cache: answer-LRU mechanics
// (bounded capacity, eviction order, shared immutable bodies served
// without a deep copy), key construction (every answer-changing knob
// and the generation are in), what a publish drops and refuses, and
// the plan cache's lazy invalidation by the callers' generations.

#include "serve/serving_cache.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "query/parser.h"
#include "testing/paper_world.h"

namespace trinit::serve {
namespace {

query::Query Parse(const char* text) {
  auto r = query::Parser::Parse(text);
  EXPECT_TRUE(r.ok()) << r.status();
  return std::move(r).value();
}

std::shared_ptr<const topk::TopKResult> FakeResult(rdf::TermId value,
                                                   size_t pulled) {
  topk::TopKResult result;
  result.projection = {"x"};
  topk::Answer ans;
  ans.binding = query::Binding(1);
  ans.binding.Bind(0, value);
  ans.score = -0.5;
  result.answers.push_back(std::move(ans));
  result.stats.items_pulled = pulled;
  return std::make_shared<const topk::TopKResult>(std::move(result));
}

TEST(AnswerKeyTest, DistinguishesEveryAnswerChangingKnob) {
  query::Query q = Parse("?x bornIn Ulm");
  scoring::ScorerOptions scorer;
  topk::ProcessorOptions processor;
  const std::string base = ServingCache::AnswerKey(q, scorer, processor, 0);

  // Same inputs -> same key (the cache's whole premise).
  EXPECT_EQ(ServingCache::AnswerKey(q, scorer, processor, 0), base);

  topk::ProcessorOptions k_changed = processor;
  k_changed.k = processor.k + 1;
  EXPECT_NE(ServingCache::AnswerKey(q, scorer, k_changed, 0), base);

  topk::ProcessorOptions relax_off = processor;
  relax_off.enable_relaxation = false;
  EXPECT_NE(ServingCache::AnswerKey(q, scorer, relax_off, 0), base);

  topk::ProcessorOptions depth_changed = processor;
  depth_changed.rewrite.max_depth = processor.rewrite.max_depth + 1;
  EXPECT_NE(ServingCache::AnswerKey(q, scorer, depth_changed, 0), base);

  topk::ProcessorOptions budget_changed = processor;
  budget_changed.join.max_pulls = 7;
  EXPECT_NE(ServingCache::AnswerKey(q, scorer, budget_changed, 0), base);

  scoring::ScorerOptions scorer_changed = scorer;
  scorer_changed.use_idf = false;
  EXPECT_NE(ServingCache::AnswerKey(q, scorer_changed, processor, 0), base);

  // A generation bump changes every key — that is the invalidation.
  EXPECT_NE(ServingCache::AnswerKey(q, scorer, processor, 1), base);

  // A different query, obviously.
  query::Query other = Parse("?x bornIn Germany");
  EXPECT_NE(ServingCache::AnswerKey(other, scorer, processor, 0), base);

  // The wall-clock deadline is deliberately NOT part of the key:
  // truncated runs are never stored, complete ones serve any deadline.
  topk::ProcessorOptions deadline_changed = processor;
  deadline_changed.deadline_ms = 123.0;
  EXPECT_EQ(ServingCache::AnswerKey(q, scorer, deadline_changed, 0), base);
}

TEST(ServingCacheTest, AnswerRoundtripSharesTheStoredBody) {
  ServingCache cache;
  EXPECT_EQ(cache.LookupAnswer("k1"), nullptr);
  std::shared_ptr<const topk::TopKResult> stored =
      FakeResult(42, /*pulled=*/99);
  cache.StoreAnswer("k1", 0, stored);

  auto hit = cache.LookupAnswer("k1");
  ASSERT_NE(hit, nullptr);
  // Shared immutable body: the very pointer that was stored comes back —
  // no deep copy of the answers on either side of the cache. Its
  // embedded stats are the stored run's; per-request zero-work stats
  // are the serving layer's copy-on-serve concern
  // (core::QueryResponse::stats).
  EXPECT_EQ(hit.get(), stored.get());
  ASSERT_EQ(hit->answers.size(), 1u);
  EXPECT_EQ(hit->answers[0].binding.Get(0), 42u);
  EXPECT_EQ(hit->projection, std::vector<std::string>{"x"});
  EXPECT_EQ(hit->stats.items_pulled, 99u);

  ServingCache::Counters c = cache.counters();
  EXPECT_EQ(c.answer_hits, 1u);
  EXPECT_EQ(c.answer_misses, 1u);
  EXPECT_EQ(c.answer_insertions, 1u);
  EXPECT_EQ(c.answer_entries, 1u);
}

TEST(ServingCacheTest, LruEvictsOldestWithinCapacity) {
  ServingCacheOptions options;
  options.answer_capacity = 2;
  options.num_shards = 1;  // single shard: capacity is exact
  ServingCache cache(options);

  cache.StoreAnswer("a", 0, FakeResult(1, 0));
  cache.StoreAnswer("b", 0, FakeResult(2, 0));
  ASSERT_NE(cache.LookupAnswer("a"), nullptr);  // refresh a; b is LRU
  cache.StoreAnswer("c", 0, FakeResult(3, 0));  // evicts b

  EXPECT_NE(cache.LookupAnswer("a"), nullptr);
  EXPECT_EQ(cache.LookupAnswer("b"), nullptr);
  EXPECT_NE(cache.LookupAnswer("c"), nullptr);

  ServingCache::Counters c = cache.counters();
  EXPECT_EQ(c.answer_evictions, 1u);
  EXPECT_EQ(c.answer_entries, 2u);
}

TEST(ServingCacheTest, CapacityBelowShardCountIsHonoredExactly) {
  ServingCacheOptions options;
  options.answer_capacity = 2;
  options.num_shards = 8;  // clamped to 2 answer shards internally
  ServingCache cache(options);
  for (int i = 0; i < 10; ++i) {
    cache.StoreAnswer("k" + std::to_string(i), 0, FakeResult(i + 1, 0));
  }
  EXPECT_LE(cache.counters().answer_entries, 2u);

  ServingCacheOptions zero;
  zero.answer_capacity = 0;  // means: no answer caching at all
  ServingCache none(zero);
  none.StoreAnswer("k", 0, FakeResult(1, 0));
  EXPECT_EQ(none.LookupAnswer("k"), nullptr);
  EXPECT_EQ(none.counters().answer_entries, 0u);
}

TEST(ServingCacheTest, DisabledCacheStoresAndServesNothing) {
  ServingCacheOptions options;
  options.enabled = false;
  ServingCache cache(options);
  cache.StoreAnswer("k", 0, FakeResult(1, 0));
  EXPECT_EQ(cache.LookupAnswer("k"), nullptr);
  EXPECT_EQ(cache.plan_cache(), nullptr);
  EXPECT_EQ(cache.counters().answer_entries, 0u);
}

TEST(ServingCacheTest, PublishDropsOlderAnswersAndRefusesOlderStores) {
  ServingCacheOptions options;
  options.num_shards = 2;
  ServingCache cache(options);
  std::shared_ptr<const topk::TopKResult> old_body = FakeResult(1, 0);
  std::weak_ptr<const topk::TopKResult> old_watch = old_body;
  cache.StoreAnswer("old", 3, std::move(old_body));
  cache.StoreAnswer("current", 4, FakeResult(2, 0));

  cache.Publish(4);
  // The generation-3 body is gone from the cache and, with no reader
  // holding it, destroyed: a retired state is not kept alive.
  EXPECT_EQ(cache.LookupAnswer("old"), nullptr);
  EXPECT_TRUE(old_watch.expired());
  EXPECT_NE(cache.LookupAnswer("current"), nullptr);

  // A reader still on generation 3 cannot store after the publish; one
  // on the published generation (or a newer one) can.
  cache.StoreAnswer("late", 3, FakeResult(3, 0));
  EXPECT_EQ(cache.LookupAnswer("late"), nullptr);
  cache.StoreAnswer("fresh", 4, FakeResult(4, 0));
  EXPECT_NE(cache.LookupAnswer("fresh"), nullptr);

  ServingCache::Counters c = cache.counters();
  EXPECT_EQ(c.answer_entries, 2u);
  EXPECT_EQ(c.answer_insertions, 3u);
  EXPECT_EQ(c.answer_evictions, 0u) << "a publish is not LRU pressure";
}

TEST(ServingCacheTest, NewerGenerationInvalidatesPlansLazily) {
  xkg::Xkg xkg = testing::BuildPaperXkg();
  ServingCache cache;
  const plan::PlanCache* plans = cache.plan_cache();
  ASSERT_NE(plans, nullptr);

  query::Query q = Parse("?x bornIn Ulm");
  q.ResolveAgainst(xkg.dict());
  query::VarTable vars(q);

  auto p1 = plans->Get(q, vars, xkg, /*generation=*/0);
  auto p1_again = plans->Get(q, vars, xkg, /*generation=*/0);
  EXPECT_EQ(p1.get(), p1_again.get());
  EXPECT_EQ(cache.counters().plan_hits, 1u);

  // Lazy invalidation: the first lookup at a newer generation reaps
  // the shard's older entries and recompiles.
  auto p2 = plans->Get(q, vars, xkg, /*generation=*/1);
  EXPECT_NE(p1.get(), p2.get());
  ServingCache::Counters c = cache.counters();
  EXPECT_EQ(c.plan_invalidated, 1u);
  EXPECT_EQ(c.plan_misses, 2u);
  // The stale entry was reaped, not just shadowed: one live entry.
  EXPECT_EQ(c.plan_entries, 1u);
  // And the recompiled entry is cached again under the new generation.
  auto p2_again = plans->Get(q, vars, xkg, /*generation=*/1);
  EXPECT_EQ(p2.get(), p2_again.get());

  // A reader still on generation 0 never gets the newer plan, and its
  // own compile is not cached over it.
  auto p_old = plans->Get(q, vars, xkg, /*generation=*/0);
  EXPECT_NE(p_old.get(), p2.get());
  EXPECT_EQ(plans->Get(q, vars, xkg, /*generation=*/1).get(), p2.get());
  EXPECT_EQ(cache.counters().plan_entries, 1u);
}

TEST(ServingCacheTest, ConcurrentStoresAndLookupsStayCoherent) {
  ServingCacheOptions options;
  options.answer_capacity = 16;
  options.num_shards = 4;
  ServingCache cache(options);

  constexpr int kThreads = 8;
  constexpr int kRounds = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t]() {
      for (int i = 0; i < kRounds; ++i) {
        std::string key = "q" + std::to_string((t + i) % 6);
        auto hit = cache.LookupAnswer(key);
        if (hit != nullptr) {
          // Values are keyed deterministically; a hit must carry the
          // key's value, never a torn or foreign one.
          ASSERT_EQ(hit->answers[0].binding.Get(0),
                    static_cast<rdf::TermId>((t + i) % 6 + 1));
        } else {
          cache.StoreAnswer(key, 0, FakeResult((t + i) % 6 + 1, 0));
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  ServingCache::Counters c = cache.counters();
  EXPECT_EQ(c.answer_hits + c.answer_misses,
            static_cast<size_t>(kThreads * kRounds));
  EXPECT_LE(c.answer_entries, 16u);
}

}  // namespace
}  // namespace trinit::serve
