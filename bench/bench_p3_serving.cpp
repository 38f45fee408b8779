// Exhibit P3 — the engine-level serving cache (PR 4).
//
// TriniT's serving story assumes a long-lived endpoint answering many
// exploratory queries over one XKG. The serving cache amortizes two
// things across requests: compiled join plans (keyed by structural
// signature + XKG generation) and complete top-k results (a bounded
// LRU keyed by canonical query + config + generation). This bench runs
// a repeated-structure request mix — a handful of query shapes, each
// instantiated with several constants — through three engines over the
// same world:
//
//   serving  — full serving cache (plans + answers; production)
//   planonly — plan cache only (answer reuse off: every request still
//              joins, but planning is amortized across the workload)
//   uncached — serving cache disabled (the pre-PR-4 behavior: every
//              request plans and joins from scratch)
//
// and replays the mix for several passes. Pass 0 is cold; later passes
// are the warm serving path. Reported: per-pass pull/plan/answer
// counters and cold-vs-warm latency. Gates (exit non-zero):
//
//   * ranked answers byte-identical across engines and passes,
//   * every warm-pass request on `serving` is an answer-cache hit with
//     ZERO rank-join pulls,
//   * plan-cache hit rate on the repeated-structure mix (planonly
//     engine, all passes) >= 90%.
//
// Two observability exhibits, both gated here: the hot-path cost of
// the always-on metrics registry (the same mix on two plan-cache-only
// engines, `obs.metrics` on vs off, min-of-reps; reported as
// `metrics_overhead_pct`, must stay < 3%) and the slow-query log's ring
// invariant (a tiny threshold makes every request "slow"; after
// `requests > capacity` the ring must hold exactly the newest
// `capacity` records in order).
//
//   ./build/bench/bench_p3_serving [--counters-only] [out.json]
//                                  (default: JSON to stdout)
//
// --counters-only omits machine-local wall-times from the JSON —
// `metrics_overhead_pct` included — so the file holds only
// deterministic work counters and a rerun on an unchanged tree
// rewrites it byte for byte.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "query/parser.h"
#include "util/string_util.h"
#include "util/table.h"
#include "util/timer.h"

namespace {

using trinit::bench::AnswerBytes;
using trinit::bench::Percentile;

struct PassCounters {
  size_t items_pulled = 0;
  size_t combinations_tried = 0;
  size_t plan_hits = 0;    // per-request attribution, summed
  size_t plan_misses = 0;
  size_t answer_hits = 0;  // requests served from the answer cache
  std::vector<double> ms;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace trinit;
  bench::BenchArgs args = bench::ParseBenchArgs(argc, argv);
  constexpr int kPasses = 3;
  constexpr int kK = 5;

  std::printf("[P3] engine-level serving cache: cross-request plan + "
              "answer reuse\n\n");

  synth::World world = bench::EvalWorld(2016);

  core::TrinitOptions serving_options;  // defaults: full cache
  core::TrinitOptions planonly_options;
  planonly_options.serving.cache_answers = false;
  core::TrinitOptions uncached_options;
  uncached_options.serving.enabled = false;

  struct EngineUnderTest {
    const char* name;
    Result<core::Trinit> engine;
  };
  EngineUnderTest engines[] = {
      {"serving", core::Trinit::FromWorld(world, serving_options)},
      {"planonly", core::Trinit::FromWorld(world, planonly_options)},
      {"uncached", core::Trinit::FromWorld(world, uncached_options)},
  };
  constexpr size_t kNumEngines = 3;
  for (const auto& e : engines) {
    if (!e.engine.ok()) {
      std::fprintf(stderr, "engine build failed: %s\n",
                   e.engine.status().ToString().c_str());
      return 1;
    }
  }
  const xkg::Xkg& xkg = engines[0].engine->xkg();

  // Repeated-structure mix: few shapes, many constants. Exactly the
  // exploratory-session workload — same question about different
  // entities — where structural plan reuse pays on every request and
  // answer reuse pays on every repeat.
  const auto& unis = world.OfClass(synth::EntityClass::kUniversity);
  const auto& cities = world.OfClass(synth::EntityClass::kCity);
  constexpr size_t kConstantsPerShape = 6;
  std::vector<std::string> requests_text;
  for (size_t i = 0; i < kConstantsPerShape; ++i) {
    requests_text.push_back("SELECT ?x WHERE ?x affiliation ?u ; ?u campusIn " +
                            world.entities[cities[i]].name);
    requests_text.push_back("SELECT ?x WHERE ?x wonPrize ?p ; ?x affiliation " +
                            world.entities[unis[i]].name);
    requests_text.push_back("SELECT ?a ?b WHERE ?a hasAdvisor ?b ; "
                            "?b affiliation " +
                            world.entities[unis[i + 1]].name);
    requests_text.push_back("?x bornIn " + world.entities[cities[i + 1]].name);
  }
  std::printf("world: %zu triples; mix: %zu requests (4 shapes x %zu "
              "constants), %d passes, k=%d\n\n",
              xkg.store().size(), requests_text.size(), kConstantsPerShape,
              kPasses, kK);

  // [engine][pass] counters; [engine][request] answer bytes of pass 0.
  std::vector<std::vector<PassCounters>> passes(
      kNumEngines, std::vector<PassCounters>(kPasses));
  std::vector<std::vector<std::string>> cold_bytes(kNumEngines);
  bool answers_match = true;
  bool warm_zero_pulls = true;
  bool warm_all_hits = true;

  for (size_t e = 0; e < kNumEngines; ++e) {
    const core::Trinit& engine = *engines[e].engine;
    for (int pass = 0; pass < kPasses; ++pass) {
      PassCounters& pc = passes[e][pass];
      for (size_t qi = 0; qi < requests_text.size(); ++qi) {
        core::QueryRequest request =
            core::QueryRequest::Text(requests_text[qi], kK);
        WallTimer timer;
        auto response = engine.Execute(request);
        pc.ms.push_back(timer.ElapsedMillis());
        if (!response.ok()) {
          std::fprintf(stderr, "execute failed: %s\n",
                       response.status().ToString().c_str());
          return 1;
        }
        const auto& stats = response->stats;
        pc.items_pulled += stats.items_pulled;
        pc.combinations_tried += stats.combinations_tried;
        pc.plan_hits += stats.plan_cache_hits;
        pc.plan_misses += stats.plan_cache_misses;
        if (response->serving.answer_hit) ++pc.answer_hits;

        std::string bytes = AnswerBytes(response->result());
        if (pass == 0) {
          cold_bytes[e].push_back(bytes);
          if (e > 0 && bytes != cold_bytes[0][qi]) answers_match = false;
        } else {
          // Warm passes must reproduce the cold answers byte for byte —
          // cached or recomputed.
          if (bytes != cold_bytes[e][qi]) answers_match = false;
          if (e == 0) {
            if (!response->serving.answer_hit) warm_all_hits = false;
            if (stats.items_pulled != 0) warm_zero_pulls = false;
          }
        }
      }
    }
  }

  // Plan-cache hit rate over the whole mix, per engine (per-request
  // attributed counters, so `uncached` shows its private per-request
  // caches and `serving` only counts passes that actually planned).
  auto hit_rate = [&](size_t e) {
    size_t hits = 0, misses = 0;
    for (const PassCounters& pc : passes[e]) {
      hits += pc.plan_hits;
      misses += pc.plan_misses;
    }
    return hits + misses == 0
               ? 0.0
               : static_cast<double>(hits) /
                     static_cast<double>(hits + misses);
  };
  const double planonly_rate = hit_rate(1);
  const double uncached_rate = hit_rate(2);

  // ------------------------------------------------------------------
  // Metrics-registry overhead (PR 10). Two fresh engines with answer
  // caching off — every request pays full planning + join work, the
  // worst case for per-request instrumentation — one with the registry
  // live, one with `obs.metrics = false` (every handle unbound, the
  // compiled-out cost model at runtime). Reps interleave the engines
  // and keep the per-engine minimum, which sheds scheduler noise much
  // better than means on a shared box.
  constexpr int kOverheadReps = 8;
  core::TrinitOptions obs_on_options;
  obs_on_options.serving.cache_answers = false;
  core::TrinitOptions obs_off_options;
  obs_off_options.serving.cache_answers = false;
  obs_off_options.obs.metrics = false;
  Result<core::Trinit> obs_on = core::Trinit::FromWorld(world, obs_on_options);
  Result<core::Trinit> obs_off =
      core::Trinit::FromWorld(world, obs_off_options);
  if (!obs_on.ok() || !obs_off.ok()) {
    std::fprintf(stderr, "overhead engine build failed\n");
    return 1;
  }
  bool overhead_requests_ok = true;
  auto run_mix_ms = [&](const core::Trinit& engine) {
    WallTimer timer;
    for (const std::string& text : requests_text) {
      auto response = engine.Execute(core::QueryRequest::Text(text, kK));
      if (!response.ok()) overhead_requests_ok = false;
    }
    return timer.ElapsedMillis();
  };
  // One untimed pass each: plan caches and lazy score shapes warm up
  // outside the measurement.
  (void)run_mix_ms(*obs_on);
  (void)run_mix_ms(*obs_off);
  double best_on_ms = std::numeric_limits<double>::infinity();
  double best_off_ms = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < kOverheadReps; ++rep) {
    best_on_ms = std::min(best_on_ms, run_mix_ms(*obs_on));
    best_off_ms = std::min(best_off_ms, run_mix_ms(*obs_off));
  }
  const double metrics_overhead_pct =
      best_off_ms <= 0.0 ? 0.0
                         : 100.0 * (best_on_ms - best_off_ms) / best_off_ms;
  std::printf("metrics overhead: mix best-of-%d %.3f ms with registry vs "
              "%.3f ms without (%+.2f%%)\n",
              kOverheadReps, best_on_ms, best_off_ms, metrics_overhead_pct);

  // ------------------------------------------------------------------
  // Slow-query-log ring invariant (PR 10): a microsecond threshold
  // records every request; after a full mix (more requests than
  // capacity) the ring must hold exactly the newest `capacity` records
  // with contiguous ascending sequence numbers.
  constexpr size_t kSlowLogCapacity = 8;
  core::TrinitOptions slowlog_options;
  slowlog_options.obs.slow_query_ms = 1e-6;
  slowlog_options.obs.slow_log_capacity = kSlowLogCapacity;
  Result<core::Trinit> slowlog_engine =
      core::Trinit::FromWorld(world, slowlog_options);
  if (!slowlog_engine.ok()) {
    std::fprintf(stderr, "slowlog engine build failed\n");
    return 1;
  }
  for (const std::string& text : requests_text) {
    auto response =
        slowlog_engine->Execute(core::QueryRequest::Text(text, kK));
    if (!response.ok()) overhead_requests_ok = false;
  }
  const obs::SlowQueryLog& slow_log = slowlog_engine->slow_query_log();
  const std::vector<obs::SlowQueryRecord> slow_entries = slow_log.Entries();
  bool slowlog_capacity_ok =
      slow_entries.size() == kSlowLogCapacity &&
      slow_log.total_recorded() == requests_text.size();
  for (size_t i = 0; slowlog_capacity_ok && i < slow_entries.size(); ++i) {
    const uint64_t want =
        slow_log.total_recorded() - kSlowLogCapacity + 1 + i;
    if (slow_entries[i].sequence != want) slowlog_capacity_ok = false;
  }
  std::printf("slow-query log: %zu of %llu kept at capacity %zu — %s\n\n",
              slow_entries.size(),
              static_cast<unsigned long long>(slow_log.total_recorded()),
              kSlowLogCapacity, slowlog_capacity_ok ? "ok" : "VIOLATION");

  AsciiTable table({"engine", "pass", "p50 ms", "pulls", "probes",
                    "plan hit/miss", "answer hits"});
  for (size_t e = 0; e < kNumEngines; ++e) {
    for (int pass = 0; pass < kPasses; ++pass) {
      const PassCounters& pc = passes[e][pass];
      table.AddRow({engines[e].name, std::to_string(pass),
                    FormatDouble(Percentile(pc.ms, 0.5), 3),
                    std::to_string(pc.items_pulled),
                    std::to_string(pc.combinations_tried),
                    std::to_string(pc.plan_hits) + "/" +
                        std::to_string(pc.plan_misses),
                    std::to_string(pc.answer_hits)});
    }
  }
  std::printf("%s\n", table.ToString().c_str());

  const serve::ServingCache::Counters sc =
      engines[0].engine->serving_cache().counters();
  std::printf(
      "serving cache: %zu answer entries, %zu evictions; %zu plan "
      "entries\nplan hit rate over the mix: planonly %.3f, uncached "
      "(per-request caches) %.3f\n",
      sc.answer_entries, sc.answer_evictions, sc.plan_entries,
      planonly_rate, uncached_rate);

  FILE* json = args.OpenJson();
  if (json == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", args.out_path);
    return 1;
  }
  std::fprintf(json,
               "{\n  \"bench\": \"p3_serving\",\n  \"k\": %d,\n"
               "  \"passes\": %d,\n  \"requests\": %zu,\n"
               "  \"world_triples\": %zu,\n  \"counters_only\": %s,\n"
               "  \"engines\": [\n",
               kK, kPasses, requests_text.size(), xkg.store().size(),
               args.counters_only ? "true" : "false");
  for (size_t e = 0; e < kNumEngines; ++e) {
    std::fprintf(json, "    {\"engine\": \"%s\", \"passes\": [\n",
                 engines[e].name);
    for (int pass = 0; pass < kPasses; ++pass) {
      const PassCounters& pc = passes[e][pass];
      std::fprintf(json, "      {\"pass\": %d, ", pass);
      if (!args.counters_only) {
        std::fprintf(json, "\"p50_ms\": %.4f, ", Percentile(pc.ms, 0.5));
      }
      std::fprintf(json,
                   "\"items_pulled\": %zu, \"combinations_tried\": %zu, "
                   "\"plan_hits\": %zu, \"plan_misses\": %zu, "
                   "\"answer_hits\": %zu}%s\n",
                   pc.items_pulled, pc.combinations_tried, pc.plan_hits,
                   pc.plan_misses, pc.answer_hits,
                   pass + 1 < kPasses ? "," : "");
    }
    std::fprintf(json, "    ]}%s\n", e + 1 < kNumEngines ? "," : "");
  }
  std::fprintf(json,
               "  ],\n  \"totals\": {\"planonly_plan_hit_rate\": %.4f, "
               "\"answer_cache_entries\": %zu, "
               "\"answer_cache_evictions\": %zu, "
               "\"warm_all_answer_hits\": %s, "
               "\"warm_zero_pulls\": %s, \"answers_match\": %s, ",
               planonly_rate, sc.answer_entries, sc.answer_evictions,
               warm_all_hits ? "true" : "false",
               warm_zero_pulls ? "true" : "false",
               answers_match ? "true" : "false");
  if (!args.counters_only) {
    std::fprintf(json, "\"metrics_overhead_pct\": %.2f, ",
                 metrics_overhead_pct);
  }
  std::fprintf(json,
               "\"slowlog_capacity\": %zu, "
               "\"slowlog_capacity_ok\": %s}\n}\n",
               kSlowLogCapacity, slowlog_capacity_ok ? "true" : "false");
  args.CloseJson(json);

  if (!answers_match) {
    std::fprintf(stderr, "P3 REGRESSION: cached answers diverged from "
                         "uncached execution\n");
    return 1;
  }
  if (!warm_all_hits || !warm_zero_pulls) {
    std::fprintf(stderr, "P3 REGRESSION: warm-pass requests were not all "
                         "zero-pull answer-cache hits\n");
    return 1;
  }
  if (planonly_rate < 0.90) {
    std::fprintf(stderr,
                 "P3 REGRESSION: plan-cache hit rate %.3f < 0.90 on the "
                 "repeated-structure mix\n",
                 planonly_rate);
    return 1;
  }
  // A same-machine, same-binary ratio of min-of-reps wall times: the
  // docs/OBSERVABILITY.md contract for the always-on registry.
  if (metrics_overhead_pct >= 3.0) {
    std::fprintf(stderr,
                 "P3 REGRESSION: the metrics registry costs the hot path "
                 "%.2f%% (>= 3%% contract)\n",
                 metrics_overhead_pct);
    return 1;
  }
  if (!slowlog_capacity_ok || !overhead_requests_ok) {
    std::fprintf(stderr,
                 "P3 REGRESSION: slow-query log broke its bounded-ring "
                 "contract (or an observability-pass request failed)\n");
    return 1;
  }
  return 0;
}
