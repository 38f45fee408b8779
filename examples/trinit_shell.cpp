// Interactive exploratory-querying shell — the closest analogue of the
// demo's browser UI (paper §5): pose extended triple-pattern queries,
// inspect ranked answers with explanations, add relaxation rules, get
// reformulation suggestions.
//
//   ./build/examples/trinit_shell          # synthetic world
//   ./build/examples/trinit_shell file.tsv # load an XKG dump
//
// Commands:
//   <query>            e.g.  ?x bornIn Germania  or
//                            SELECT ?x WHERE ?x affiliation ?u ; ?u campusIn Ulmhof_0
//   .rule <rule>       add a relaxation rule, e.g.
//                      .rule ?x hasAdvisor ?y => ?y hasStudent ?x @ 1.0
//   .rules             list loaded rules
//   .explain <rank>    explain answer <rank> of the last query
//   .k <n>             set the number of answers
//   .timeout <ms>      per-query wall-clock budget (0 = unlimited)
//   .stats             XKG statistics
//   .metrics [prom|json]
//                      scrape the engine's metrics registry (Prometheus
//                      text by default, see docs/OBSERVABILITY.md)
//   .slowlog           dump the slow-query log (requests slower than
//                      ObsOptions::slow_query_ms, with plan + span tree)
//   .save <path>       write a binary snapshot of the serving state
//   .load <path> [mmap|copy] [trusted]
//                      replace the engine from a snapshot (instant
//                      cold start: no rebuild, no re-mining); `mmap`
//                      serves fixed-width sections zero-copy, `trusted`
//                      additionally skips checksums and defers
//                      provenance decode (see storage/snapshot.h)
//   .quit

#include <cstdio>
#include <iostream>
#include <optional>
#include <string>

#include "core/trinit.h"
#include "obs/exposition.h"
#include "query/parser.h"
#include "synth/kg_generator.h"
#include "util/string_util.h"
#include "xkg/tsv_io.h"

namespace {

using trinit::core::Trinit;

void PrintStats(const Trinit& engine) {
  const auto& xkg = engine.xkg();
  std::printf("XKG: %zu triples (%zu KG + %zu extraction), %zu terms, "
              "%zu relaxation rules\n",
              xkg.store().size(), xkg.kg_triple_count(),
              xkg.extraction_triple_count(), xkg.dict().size(),
              engine.rules().size());
}

void PrintCache(const Trinit& engine) {
  const auto c = engine.serving_cache().counters();
  std::printf(
      "serving cache: generation %llu\n"
      "  answers: %zu hits / %zu misses, %zu entries, %zu evictions\n"
      "  plans:   %zu hits / %zu misses, %zu entries, %zu invalidated\n",
      static_cast<unsigned long long>(engine.generation()), c.answer_hits,
      c.answer_misses, c.answer_entries, c.answer_evictions, c.plan_hits,
      c.plan_misses, c.plan_entries, c.plan_invalidated);
}

void PrintSlowLog(const Trinit& engine) {
  const auto& log = engine.slow_query_log();
  if (!log.enabled()) {
    std::printf("  slow-query log disabled (slow_query_ms <= 0)\n");
    return;
  }
  const auto entries = log.Entries();
  std::printf("  slow-query log: %zu of %llu kept (threshold %.1f ms, "
              "capacity %zu)\n",
              entries.size(),
              static_cast<unsigned long long>(log.total_recorded()),
              log.threshold_ms(), log.capacity());
  for (const auto& entry : entries) {
    std::printf("  #%llu  %.2f ms  gen %llu%s%s\n      %s\n",
                static_cast<unsigned long long>(entry.sequence),
                entry.wall_ms,
                static_cast<unsigned long long>(entry.generation),
                entry.answer_hit ? "  [cache hit]" : "",
                entry.deadline_hit ? "  [deadline]" : "",
                entry.query.c_str());
    if (!entry.plan.empty()) {
      std::printf("      plan: %s\n", entry.plan.c_str());
    }
    std::printf("%s", entry.span.ToPretty().c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  trinit::Result<Trinit> engine = [&]() -> trinit::Result<Trinit> {
    if (argc > 1) {
      auto xkg = trinit::xkg::XkgTsv::Load(argv[1]);
      if (!xkg.ok()) return xkg.status();
      return Trinit::Open(std::move(xkg).value());
    }
    trinit::synth::WorldSpec spec = trinit::synth::WorldSpec::Scaled(3000);
    trinit::synth::World world =
        trinit::synth::KgGenerator::Generate(spec);
    return Trinit::FromWorld(world);
  }();
  if (!engine.ok()) {
    std::fprintf(stderr, "startup failed: %s\n",
                 engine.status().ToString().c_str());
    return 1;
  }

  std::printf("TriniT shell — exploratory querying of extended knowledge "
              "graphs\n");
  PrintStats(*engine);
  std::printf("Type a query, or .help for commands.\n");

  int k = 10;
  double timeout_ms = 0.0;
  std::optional<trinit::topk::TopKResult> last_result;
  std::optional<trinit::query::Query> last_query;

  std::string line;
  while (std::printf("trinit> "), std::fflush(stdout),
         std::getline(std::cin, line)) {
    std::string_view input = trinit::Trim(line);
    if (input.empty()) continue;

    if (input == ".quit" || input == ".exit") break;
    if (input == ".help") {
      std::printf("  <query> | .rule <rule> | .add <fact> | .rules | "
                  ".explain <rank> | .complete <prefix> | .k <n> | "
                  ".timeout <ms> | .stats | .cache | .metrics [prom|json] | "
                  ".slowlog | .save <path> | "
                  ".load <path> [mmap|copy] [trusted] | .quit\n");
      continue;
    }
    if (input == ".stats") {
      PrintStats(*engine);
      continue;
    }
    if (input == ".cache") {
      PrintCache(*engine);
      continue;
    }
    if (input == ".metrics" || input.rfind(".metrics ", 0) == 0) {
      std::string_view format =
          input == ".metrics" ? "prom" : trinit::Trim(input.substr(9));
      const trinit::obs::MetricsSnapshot snapshot = engine->MetricsSnapshot();
      if (format == "prom" || format.empty()) {
        std::printf("%s", trinit::obs::RenderPrometheus(snapshot).c_str());
      } else if (format == "json") {
        std::printf("%s\n", trinit::obs::RenderJson(snapshot).c_str());
      } else {
        std::printf("  unknown .metrics format '%s' (want prom|json)\n",
                    std::string(format).c_str());
      }
      continue;
    }
    if (input == ".slowlog") {
      PrintSlowLog(*engine);
      continue;
    }
    if (input.rfind(".complete ", 0) == 0) {
      auto completions =
          engine->autocomplete().Complete(input.substr(10), 8);
      if (completions.empty()) std::printf("  (no completions)\n");
      for (const auto& c : completions) {
        std::printf("  %-40s (%s, %d occurrences)\n", c.text.c_str(),
                    trinit::rdf::TermKindName(c.kind),
                    static_cast<int>(c.score));
      }
      continue;
    }
    if (input == ".rules") {
      for (const auto& rule : engine->rules().rules()) {
        std::printf("  [%s] %s\n", trinit::relax::RuleKindName(rule.kind),
                    rule.ToString().c_str());
      }
      continue;
    }
    if (input.rfind(".k ", 0) == 0) {
      k = std::atoi(std::string(input.substr(3)).c_str());
      if (k <= 0) k = 10;
      std::printf("  k = %d\n", k);
      continue;
    }
    if (input.rfind(".timeout ", 0) == 0) {
      timeout_ms = std::atof(std::string(input.substr(9)).c_str());
      if (timeout_ms < 0) timeout_ms = 0.0;
      std::printf("  timeout = %s\n",
                  timeout_ms > 0 ? (std::to_string(timeout_ms) + " ms").c_str()
                                 : "unlimited");
      continue;
    }
    if (input.rfind(".rule ", 0) == 0) {
      trinit::Status s =
          engine->AddManualRules(std::string(input.substr(6)));
      std::printf("  %s\n", s.ok() ? "rule added" : s.ToString().c_str());
      continue;
    }
    if (input.rfind(".add ", 0) == 0) {
      // Extend the KG with a ground fact (paper §1: "allows users to
      // extend the KG to make up for missing knowledge").
      trinit::Status s = engine->ExtendKg(std::string(input.substr(5)));
      std::printf("  %s\n",
                  s.ok() ? "fact added (XKG rebuilt)" : s.ToString().c_str());
      continue;
    }
    if (input.rfind(".save ", 0) == 0) {
      std::string path(trinit::Trim(input.substr(6)));
      trinit::Status s = engine->Save(path);
      if (s.ok()) {
        std::printf("  snapshot written to %s\n", path.c_str());
      } else {
        std::printf("  %s\n", s.ToString().c_str());
      }
      continue;
    }
    if (input.rfind(".load ", 0) == 0) {
      // `.load <path> [mmap|copy] [trusted]` — trailing keywords pick
      // the snapshot load mode and verification level.
      std::string_view rest = trinit::Trim(input.substr(6));
      trinit::core::TrinitOptions options;
      std::string path;
      {
        size_t space = rest.find(' ');
        path = std::string(rest.substr(0, space));
        std::string_view flags =
            space == std::string_view::npos ? "" : rest.substr(space);
        bool bad_flag = false;
        while (!(flags = trinit::Trim(flags)).empty()) {
          size_t end = flags.find(' ');
          std::string_view flag = flags.substr(0, end);
          flags = end == std::string_view::npos ? "" : flags.substr(end);
          if (flag == "mmap") {
            options.snapshot_read.mode = trinit::storage::LoadMode::kMapped;
          } else if (flag == "copy") {
            options.snapshot_read.mode = trinit::storage::LoadMode::kCopy;
          } else if (flag == "trusted") {
            options.snapshot_read.verify =
                trinit::rdf::SnapshotValidation::kTrusted;
          } else {
            std::printf("  unknown .load flag '%s' (want mmap|copy|trusted)\n",
                        std::string(flag).c_str());
            bad_flag = true;
            break;
          }
        }
        if (bad_flag) continue;
      }
      trinit::storage::LoadReport report;
      auto loaded = Trinit::Open(path, options, &report);
      if (!loaded.ok()) {
        std::printf("  %s\n", loaded.status().ToString().c_str());
        continue;
      }
      engine = std::move(loaded);
      last_result.reset();
      last_query.reset();
      std::printf("  snapshot loaded: %zu terms, %zu triples, %zu rules, "
                  "%zu score shapes pre-built, %zu index rebuilds\n",
                  report.terms, report.triples, report.rules,
                  report.score_shapes_restored, report.index_rebuilds);
      std::printf("  load mode: %s%s, sections %zu mapped / %zu decoded\n",
                  report.mapped ? "mmap" : "copy",
                  report.provenance_deferred ? " (provenance deferred)" : "",
                  report.sections_mapped, report.sections_decoded);
      std::printf("  bytes: %zu file, %zu touched at open (%.1f%%), "
                  "~%zu resident\n",
                  report.bytes, report.bytes_touched,
                  report.bytes == 0
                      ? 0.0
                      : 100.0 * static_cast<double>(report.bytes_touched) /
                            static_cast<double>(report.bytes),
                  report.resident_bytes);
      PrintStats(*engine);
      continue;
    }
    if (input.rfind(".explain ", 0) == 0) {
      if (!last_result.has_value()) {
        std::printf("  no previous query\n");
        continue;
      }
      size_t rank =
          static_cast<size_t>(std::atoi(std::string(input.substr(9)).c_str()));
      if (rank < 1 || rank > last_result->answers.size()) {
        std::printf("  rank out of range\n");
        continue;
      }
      std::printf("%s",
                  engine->Explain(*last_result, rank - 1).ToString().c_str());
      continue;
    }

    // Anything else is a query.
    auto parsed =
        trinit::query::Parser::Parse(input, &engine->xkg().dict());
    if (!parsed.ok()) {
      std::printf("  %s\n", parsed.status().ToString().c_str());
      continue;
    }
    trinit::core::QueryRequest request =
        trinit::core::QueryRequest::Parsed(*parsed, k);
    request.timeout_ms = timeout_ms;
    request.trace = true;
    auto response = engine->Execute(request);
    if (!response.ok()) {
      std::printf("  %s\n", response.status().ToString().c_str());
      continue;
    }
    // The body may be shared with the engine's answer cache; copy it
    // for `.explain` and adopt the per-request stats (zero on a hit).
    trinit::topk::TopKResult result = response->result();
    result.stats = response->stats;
    if (result.answers.empty()) {
      std::printf("  no answers\n");
    }
    for (size_t i = 0; i < result.answers.size(); ++i) {
      std::printf("  #%zu  %-50s score %.3f%s\n", i + 1,
                  engine->RenderAnswer(result, i).c_str(),
                  result.answers[i].score,
                  result.answers[i].used_relaxation() ? "  [relaxed]"
                                                      : "");
    }
    std::printf("  (%.2f ms, %zu/%zu relaxations opened, %zu items "
                "pulled%s%s; .explain <rank> for provenance)\n",
                response->wall_ms, result.stats.alternatives_opened,
                result.stats.alternatives_total, result.stats.items_pulled,
                response->serving.answer_hit ? "; ANSWER CACHE HIT" : "",
                response->deadline_hit ? "; TIMEOUT — partial answers"
                                       : "");
    // Span tree of the request: stage times plus the laziness counters
    // (how much of the score-ordered index lists the run decoded vs
    // left untouched). The machine-readable form is
    // response->trace_json().
    if (response->span.has_value()) {
      std::printf("%s", response->span->ToPretty().c_str());
    }
    // Query plan: the cost-based pattern order with estimated vs actual
    // per-pattern cardinalities.
    if (!result.plan.empty()) {
      std::printf("  plan:");
      for (const auto& step : result.plan) {
        std::printf(" p%zu(est=%.0f pulled=%zu)", step.pattern,
                    step.estimated, step.pulled);
      }
      std::printf("\n");
    }
    for (const auto& suggestion : engine->Suggest(*parsed, result)) {
      std::printf("  suggestion: %s\n", suggestion.message.c_str());
    }
    last_query = std::move(*parsed);
    last_result = std::move(result);
  }
  return 0;
}
