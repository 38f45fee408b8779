// Exhibit P2 — cost-ordered plans + hash-partitioned rank-join state.
//
// The planning layer compiles each query into a cost-based pattern
// order with precomputed pair join-key signatures; the join engine
// partitions its seen items by those signatures so a Combine probe
// touches only join-compatible candidates. This bench runs a
// multi-pattern query mix through three configurations of the same
// processor:
//
//   planned  — cost order + hash-partitioned probing (production)
//   parser   — parser pattern order + hash-partitioned probing
//   seed     — parser pattern order + linear seen-scans (the seed
//              implementation this PR replaces)
//
// and reports p50/p95 latency plus the deterministic probe counters
// (`combinations_tried` = candidates examined). Answer sets must be
// byte-identical across all three; the property tests prove it at
// scale, the bench refuses to report numbers for diverging runs.
//
//   ./build/bench/bench_p2_join [--counters-only] [out.json]
//                               (default: JSON to stdout)
//
// --counters-only omits the machine-local p50/p95 wall-times from the
// JSON so cross-machine comparisons see only deterministic counters.
//
// Exit code is non-zero if answers diverge or hash-partitioned probing
// fails to reduce probe work per pulled item vs. the seed linear scan.

#include <algorithm>
#include <cmath>
#include <cstdio>
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
using trinit::bench::JsonEscape;
using trinit::bench::Percentile;

struct Config {
  const char* name;
  bool cost_order;
  trinit::topk::JoinEngine::ProbeMode probe;
};

struct Side {
  std::vector<double> ms;
  trinit::topk::TopKResult result;  // last run (stats deterministic)
};

}  // namespace

int main(int argc, char** argv) {
  using namespace trinit;
  bench::BenchArgs args = bench::ParseBenchArgs(argc, argv);
  const bool counters_only = args.counters_only;
  constexpr int kReps = 9;
  constexpr int kK = 5;

  std::printf(
      "[P2] cost-ordered plans + hash-partitioned rank-join state\n\n");

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
  // Multi-pattern mix: every query joins 2-3 streams, several with the
  // wide pattern written *first* so parser order starts badly.
  std::vector<std::string> queries = {
      "SELECT ?x WHERE ?x affiliation ?u ; ?u campusIn " +
          world.entities[cities[0]].name,
      "SELECT ?x WHERE ?x wonPrize ?p ; ?x affiliation " +
          world.entities[unis[0]].name,
      "SELECT ?x ?c WHERE ?x wonPrize ?p ; ?x bornIn ?c ; ?c locatedIn "
      "?country",
      "SELECT ?x WHERE ?x ?r ?y ; ?x hasAdvisor " +
          world.entities[persons[1]].name,
      "SELECT ?x ?u WHERE ?x affiliation ?u ; ?u campusIn " +
          world.entities[cities[1]].name + " ; ?x bornIn ?b",
      "SELECT ?a ?b WHERE ?a hasAdvisor ?b ; ?b affiliation " +
          world.entities[unis[1]].name,
  };

  const Config configs[] = {
      {"planned", true, topk::JoinEngine::ProbeMode::kHashPartition},
      {"parser", false, topk::JoinEngine::ProbeMode::kHashPartition},
      {"seed", false, topk::JoinEngine::ProbeMode::kLinear},
  };
  constexpr size_t kNumConfigs = 3;

  std::vector<topk::TopKProcessor> processors;
  processors.reserve(kNumConfigs);
  for (const Config& config : configs) {
    topk::ProcessorOptions opts;
    opts.k = kK;
    opts.use_cost_order = config.cost_order;
    opts.join.probe_mode = config.probe;
    processors.emplace_back(xkg, rules, scoring::ScorerOptions{}, opts);
  }

  AsciiTable table({"query", "planned p50", "seed p50", "planned tried",
                    "parser tried", "seed tried", "pulls", "probe/pull",
                    "seed probe/pull"});
  size_t total_tried[kNumConfigs] = {0, 0, 0};
  size_t total_pulled[kNumConfigs] = {0, 0, 0};
  bool answers_match = true;

  FILE* json = args.OpenJson();
  if (json == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", args.out_path);
    return 1;
  }
  std::fprintf(json,
               "{\n  \"bench\": \"p2_join\",\n  \"k\": %d,\n"
               "  \"reps\": %d,\n  \"world_triples\": %zu,\n"
               "  \"counters_only\": %s,\n  \"queries\": [\n",
               kK, kReps, xkg.store().size(),
               counters_only ? "true" : "false");

  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const std::string& text = queries[qi];
    auto q = query::Parser::Parse(text, &xkg.dict());
    if (!q.ok()) {
      std::fprintf(stderr, "parse failed: %s\n",
                   q.status().ToString().c_str());
      return 1;
    }

    Side sides[kNumConfigs];
    for (int rep = 0; rep < kReps; ++rep) {
      for (size_t c = 0; c < kNumConfigs; ++c) {
        WallTimer timer;
        auto r = processors[c].Answer(*q);
        sides[c].ms.push_back(timer.ElapsedMillis());
        if (!r.ok()) return 1;
        sides[c].result = std::move(r).value();
      }
    }

    std::string baseline = AnswerBytes(sides[0].result);
    for (size_t c = 1; c < kNumConfigs; ++c) {
      if (AnswerBytes(sides[c].result) != baseline) answers_match = false;
    }

    std::fprintf(json, "    {\"query\": \"%s\",\n",
                 JsonEscape(text).c_str());
    for (size_t c = 0; c < kNumConfigs; ++c) {
      const auto& stats = sides[c].result.stats;
      total_tried[c] += stats.combinations_tried;
      total_pulled[c] += stats.items_pulled;
      std::fprintf(json, "     \"%s\": {", configs[c].name);
      if (!counters_only) {
        std::fprintf(json, "\"p50_ms\": %.4f, \"p95_ms\": %.4f, ",
                     Percentile(sides[c].ms, 0.5),
                     Percentile(sides[c].ms, 0.95));
      }
      std::fprintf(json,
                   "\"items_pulled\": %zu, \"combinations_tried\": %zu, "
                   "\"combinations_emitted\": %zu, "
                   "\"partition_probes\": %zu, "
                   "\"partition_fallbacks\": %zu}%s\n",
                   stats.items_pulled, stats.combinations_tried,
                   stats.combinations_emitted, stats.partition_probes,
                   stats.partition_fallbacks,
                   c + 1 < kNumConfigs ? "," : "}");
    }
    std::fprintf(json, "%s\n", qi + 1 < queries.size() ? "    ," : "");

    const auto& planned = sides[0].result.stats;
    const auto& seed = sides[2].result.stats;
    auto per_pull = [](size_t tried, size_t pulled) {
      return pulled == 0 ? 0.0
                         : static_cast<double>(tried) /
                               static_cast<double>(pulled);
    };
    std::string label =
        text.size() > 34 ? text.substr(0, 31) + "..." : text;
    table.AddRow({label, FormatDouble(Percentile(sides[0].ms, 0.5), 2),
                  FormatDouble(Percentile(sides[2].ms, 0.5), 2),
                  std::to_string(planned.combinations_tried),
                  std::to_string(sides[1].result.stats.combinations_tried),
                  std::to_string(seed.combinations_tried),
                  std::to_string(planned.items_pulled),
                  FormatDouble(
                      per_pull(planned.combinations_tried,
                               planned.items_pulled), 2),
                  FormatDouble(per_pull(seed.combinations_tried,
                                        seed.items_pulled), 2)});
  }

  double planned_per_pull =
      total_pulled[0] == 0 ? 0.0
                           : static_cast<double>(total_tried[0]) /
                                 static_cast<double>(total_pulled[0]);
  double seed_per_pull =
      total_pulled[2] == 0 ? 0.0
                           : static_cast<double>(total_tried[2]) /
                                 static_cast<double>(total_pulled[2]);
  std::fprintf(json,
               "  ],\n  \"totals\": {\"planned_combinations_tried\": %zu, "
               "\"parser_combinations_tried\": %zu, "
               "\"seed_combinations_tried\": %zu, "
               "\"planned_items_pulled\": %zu, "
               "\"seed_items_pulled\": %zu, "
               "\"planned_tried_per_pull\": %.4f, "
               "\"seed_tried_per_pull\": %.4f, "
               "\"answers_match\": %s}\n}\n",
               total_tried[0], total_tried[1], total_tried[2],
               total_pulled[0], total_pulled[2], planned_per_pull,
               seed_per_pull, answers_match ? "true" : "false");
  args.CloseJson(json);

  std::printf("%s\n", table.ToString().c_str());
  std::printf(
      "totals: planned tried %zu (%.2f/pull), parser tried %zu, seed "
      "tried %zu (%.2f/pull); answers %s\n",
      total_tried[0], planned_per_pull, total_tried[1], total_tried[2],
      seed_per_pull, answers_match ? "identical" : "DIVERGED");

  if (!answers_match || planned_per_pull >= seed_per_pull) {
    std::fprintf(stderr,
                 "P2 REGRESSION: hash-partitioned probing did not reduce "
                 "probe work per pull\n");
    return 1;
  }
  // Cost ordering must not quietly make probing worse than not planning
  // at all; a 2x margin keeps the gate robust to mix jitter.
  if (static_cast<double>(total_tried[0]) >
      2.0 * static_cast<double>(total_tried[1])) {
    std::fprintf(stderr,
                 "P2 REGRESSION: cost ordering more than doubled probe "
                 "work vs parser order\n");
    return 1;
  }
  return 0;
}
