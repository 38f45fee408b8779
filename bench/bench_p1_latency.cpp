// Exhibit P1 — lazy score-ordered streaming vs eager materialization.
//
// The per-pattern index lists are now genuinely lazy: a LeafStream
// iterates the score-ordered posting lists incrementally and decodes
// only what the rank-join's threshold forces it to. This bench runs the
// same query mix through the lazy TopKProcessor and the eager
// ExhaustiveProcessor (identical rewrite space, identical answers —
// property-tested), reports p50/p95 latency per query, and emits the
// JSON that CI tracks as BENCH_P1.json.
//
//   ./build/bench/bench_p1_latency [--counters-only] [out.json]
//                                  (default: JSON to stdout)
//
// --counters-only omits the machine-local p50/p95 wall-times from the
// JSON so cross-machine comparisons see only deterministic work
// counters (the stdout table still shows latencies).
//
// Exit code is non-zero if the lazy processor fails to pull fewer items
// than the eager one in aggregate or their answers diverge.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "query/parser.h"
#include "topk/exhaustive_processor.h"
#include "util/string_util.h"
#include "util/table.h"
#include "util/timer.h"

namespace {

using trinit::bench::JsonEscape;
using trinit::bench::Percentile;

struct Side {
  std::vector<double> ms;
  trinit::topk::TopKResult result;  // last run (stats are deterministic)
};

}  // namespace

int main(int argc, char** argv) {
  using namespace trinit;
  bench::BenchArgs args = bench::ParseBenchArgs(argc, argv);
  const bool counters_only = args.counters_only;
  constexpr int kReps = 9;
  constexpr int kK = 5;

  std::printf("[P1] lazy score-ordered streaming vs eager materialization\n\n");

  synth::World world = bench::EvalWorld(2016);
  auto engine = core::Trinit::FromWorld(world);
  if (!engine.ok()) return 1;
  const xkg::Xkg& xkg = engine->xkg();
  const relax::RuleSet& rules = engine->rules();
  std::printf("world: %zu triples, %zu relaxation rules, k=%d, %d reps\n\n",
              xkg.store().size(), rules.size(), kK, kReps);

  const auto& unis = world.OfClass(synth::EntityClass::kUniversity);
  const auto& cities = world.OfClass(synth::EntityClass::kCity);
  const auto& persons = world.OfClass(synth::EntityClass::kPerson);
  std::vector<std::string> queries = {
      "?x 'works at' " + world.entities[unis[0]].name,
      world.entities[persons[0]].name + " hasAdvisor ?x",
      "SELECT ?x WHERE ?x affiliation ?u ; ?u campusIn " +
          world.entities[cities[0]].name,
      "?x wonPrize ?p",
      "?x bornIn " + world.entities[cities[1]].name,
      "?s ?p " + world.entities[unis[1]].name,
  };

  topk::ProcessorOptions opts;
  opts.k = kK;
  topk::TopKProcessor lazy(xkg, rules, {}, opts);
  topk::ExhaustiveProcessor eager(xkg, rules, {}, opts);

  AsciiTable table({"query", "lazy p50", "lazy p95", "eager p50",
                    "eager p95", "lazy pulls", "eager pulls",
                    "lazy decoded", "eager decoded", "skipped"});
  size_t lazy_pulls = 0, eager_pulls = 0;
  size_t lazy_decoded = 0, eager_decoded = 0, lazy_skipped = 0;
  bool answers_match = true;

  FILE* json = args.OpenJson();
  if (json == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", args.out_path);
    return 1;
  }
  std::fprintf(json,
               "{\n  \"bench\": \"p1_latency\",\n  \"k\": %d,\n"
               "  \"reps\": %d,\n  \"world_triples\": %zu,\n"
               "  \"counters_only\": %s,\n"
               "  \"queries\": [\n",
               kK, kReps, xkg.store().size(),
               counters_only ? "true" : "false");

  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const std::string& text = queries[qi];
    auto q = query::Parser::Parse(text, &xkg.dict());
    if (!q.ok()) return 1;

    Side lz, eg;
    for (int rep = 0; rep < kReps; ++rep) {
      WallTimer t1;
      auto r1 = lazy.Answer(*q);
      lz.ms.push_back(t1.ElapsedMillis());
      WallTimer t2;
      auto r2 = eager.Answer(*q);
      eg.ms.push_back(t2.ElapsedMillis());
      if (!r1.ok() || !r2.ok()) return 1;
      lz.result = std::move(r1).value();
      eg.result = std::move(r2).value();
    }

    // Identical top-k score sequences (the property tests prove this at
    // scale; the bench refuses to report numbers for diverging runs).
    if (lz.result.answers.size() != eg.result.answers.size()) {
      answers_match = false;
    } else {
      for (size_t i = 0; i < lz.result.answers.size(); ++i) {
        if (std::abs(lz.result.answers[i].score -
                     eg.result.answers[i].score) > 1e-9) {
          answers_match = false;
        }
      }
    }

    const auto& ls = lz.result.stats;
    const auto& es = eg.result.stats;
    lazy_pulls += ls.items_pulled;
    eager_pulls += es.items_pulled;
    lazy_decoded += ls.items_decoded;
    eager_decoded += es.items_decoded;
    lazy_skipped += ls.items_skipped;

    std::string label =
        text.size() > 34 ? text.substr(0, 31) + "..." : text;
    table.AddRow({label, FormatDouble(Percentile(lz.ms, 0.5), 2),
                  FormatDouble(Percentile(lz.ms, 0.95), 2),
                  FormatDouble(Percentile(eg.ms, 0.5), 2),
                  FormatDouble(Percentile(eg.ms, 0.95), 2),
                  std::to_string(ls.items_pulled),
                  std::to_string(es.items_pulled),
                  std::to_string(ls.items_decoded),
                  std::to_string(es.items_decoded),
                  std::to_string(ls.items_skipped)});

    std::fprintf(json, "    {\"query\": \"%s\",\n     \"lazy\": {",
                 JsonEscape(text).c_str());
    if (!counters_only) {
      std::fprintf(json, "\"p50_ms\": %.4f, \"p95_ms\": %.4f, ",
                   Percentile(lz.ms, 0.5), Percentile(lz.ms, 0.95));
    }
    std::fprintf(json,
                 "\"items_pulled\": %zu, \"items_decoded\": %zu, "
                 "\"items_skipped\": %zu, \"alternatives_opened\": %zu},\n"
                 "     \"eager\": {",
                 ls.items_pulled, ls.items_decoded, ls.items_skipped,
                 ls.alternatives_opened);
    if (!counters_only) {
      std::fprintf(json, "\"p50_ms\": %.4f, \"p95_ms\": %.4f, ",
                   Percentile(eg.ms, 0.5), Percentile(eg.ms, 0.95));
    }
    std::fprintf(json,
                 "\"items_pulled\": %zu, \"items_decoded\": %zu, "
                 "\"alternatives_opened\": %zu}}%s\n",
                 es.items_pulled, es.items_decoded, es.alternatives_opened,
                 qi + 1 < queries.size() ? "," : "");
  }

  std::fprintf(json,
               "  ],\n  \"totals\": {\"lazy_items_pulled\": %zu, "
               "\"eager_items_pulled\": %zu, \"lazy_items_decoded\": %zu, "
               "\"eager_items_decoded\": %zu, \"lazy_items_skipped\": %zu, "
               "\"answers_match\": %s}\n}\n",
               lazy_pulls, eager_pulls, lazy_decoded, eager_decoded,
               lazy_skipped, answers_match ? "true" : "false");
  args.CloseJson(json);

  std::printf("%s\n", table.ToString().c_str());
  std::printf("totals: lazy pulled %zu / decoded %zu (skipped %zu); "
              "eager pulled %zu / decoded %zu; answers %s\n",
              lazy_pulls, lazy_decoded, lazy_skipped, eager_pulls,
              eager_decoded, answers_match ? "identical" : "DIVERGED");

  if (!answers_match || lazy_pulls >= eager_pulls ||
      lazy_decoded >= eager_decoded) {
    std::fprintf(stderr, "P1 REGRESSION: laziness did not save work\n");
    return 1;
  }
  return 0;
}
