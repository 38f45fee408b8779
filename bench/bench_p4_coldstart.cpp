// Exhibit P4 — binary snapshot cold start (PR 5).
//
// A serving replica must come up fast: the TSV path re-parses the dump,
// re-interns every term, re-sorts the canonical triple array plus five
// permutation indexes, lazily re-sorts every score-ordered shape the
// workload touches, and re-mines the relaxation rules — on every start.
// The snapshot path (`storage::SnapshotWriter/Reader`) loads the same
// serving state verbatim: no sort, no mining, no TSV parse, lazy-shape
// laziness state preserved.
//
// This bench builds one producer engine over the synthetic eval world,
// warms the lazy index shapes with a query mix, then cold-starts two
// fresh engines — one from the TSV dump, one from the snapshot — and
// replays the mix on both. Gates (exit non-zero):
//
//   * ranked answers byte-identical between the two cold-start paths,
//   * per-query work counters (pulls/decodes/probes) identical,
//   * the snapshot path performs ZERO index rebuilds (and its restored
//     shape count equals the producer's at save time, before and after
//     the replay),
//   * TSV cold-start work >= 5x snapshot cold-start work, measured in
//     deterministic rebuild counters (index rows sorted + rules mined +
//     TSV rows parsed vs. snapshot index rebuilds).
//   * every load mode (copy, mmap, mmap-trusted) answers the mix
//     byte-identically with identical work counters, and a trusted mmap
//     open touches under 10% of the file's bytes.
//
//   ./build/bench/bench_p4_coldstart [--counters-only] [out.json]
//                                    (default: JSON to stdout)
//
// --counters-only omits machine-local wall-times from the JSON so
// cross-machine comparisons see only deterministic work counters.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.h"
#include "storage/mapped_file.h"
#include "storage/snapshot.h"
#include "util/timer.h"
#include "xkg/tsv_io.h"

namespace {

using trinit::bench::AnswerBytes;

struct MixCounters {
  size_t items_pulled = 0;
  size_t items_decoded = 0;
  size_t combinations_tried = 0;
  size_t partition_probes = 0;
};

struct MixRun {
  MixCounters counters;
  std::vector<std::string> bytes;  // per-query AnswerBytes
  bool ok = true;
};

MixRun RunMix(const trinit::core::Trinit& engine,
              const std::vector<std::string>& queries, int k) {
  MixRun run;
  for (const std::string& text : queries) {
    auto response =
        engine.Execute(trinit::core::QueryRequest::Text(text, k));
    if (!response.ok()) {
      std::fprintf(stderr, "execute failed: %s\n",
                   response.status().ToString().c_str());
      run.ok = false;
      return run;
    }
    run.counters.items_pulled += response->stats.items_pulled;
    run.counters.items_decoded += response->stats.items_decoded;
    run.counters.combinations_tried += response->stats.combinations_tried;
    run.counters.partition_probes += response->stats.partition_probes;
    run.bytes.push_back(AnswerBytes(response->result()));
  }
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace trinit;
  bench::BenchArgs args = bench::ParseBenchArgs(argc, argv);
  constexpr int kK = 5;

  std::printf("[P4] binary snapshot cold start: TSV rebuild vs verbatim "
              "index load\n\n");

  synth::World world = bench::EvalWorld(2016);
  auto producer = core::Trinit::FromWorld(world);
  if (!producer.ok()) {
    std::fprintf(stderr, "producer build failed: %s\n",
                 producer.status().ToString().c_str());
    return 1;
  }

  // The exploratory mix (same shapes as P3): it touches several lazy
  // score-ordered shapes, which the snapshot must preserve pre-built.
  const auto& unis = world.OfClass(synth::EntityClass::kUniversity);
  const auto& cities = world.OfClass(synth::EntityClass::kCity);
  std::vector<std::string> queries;
  for (size_t i = 0; i < 4; ++i) {
    queries.push_back("SELECT ?x WHERE ?x affiliation ?u ; ?u campusIn " +
                      world.entities[cities[i]].name);
    queries.push_back("SELECT ?x WHERE ?x wonPrize ?p ; ?x affiliation " +
                      world.entities[unis[i]].name);
    queries.push_back("?x bornIn " + world.entities[cities[i + 1]].name);
  }
  // PID-unique scratch paths so concurrent runs (two ci.sh invocations
  // on one machine) cannot clobber or delete each other's files; the
  // guard removes them on every exit path, not just success.
  const std::string scratch =
      "/tmp/trinit_bench_p4." + std::to_string(::getpid());
  const std::string tsv_path = scratch + ".tsv";
  const std::string snap_path = scratch + ".trinit";
  struct ScratchGuard {
    const std::string& tsv;
    const std::string& snap;
    ~ScratchGuard() {
      std::remove(tsv.c_str());
      std::remove(snap.c_str());
    }
  } scratch_guard{tsv_path, snap_path};
  if (!xkg::XkgTsv::Save(producer->xkg(), tsv_path).ok()) {
    std::fprintf(stderr, "tsv dump failed\n");
    return 1;
  }

  // ------------------------------------------------ TSV cold start
  WallTimer tsv_timer;
  auto tsv_xkg = xkg::XkgTsv::Load(tsv_path);
  if (!tsv_xkg.ok()) {
    std::fprintf(stderr, "tsv load failed: %s\n",
                 tsv_xkg.status().ToString().c_str());
    return 1;
  }
  auto tsv_engine = core::Trinit::Open(std::move(tsv_xkg).value());
  if (!tsv_engine.ok()) return 1;
  const double tsv_ms = tsv_timer.ElapsedMillis();

  MixRun tsv_run = RunMix(*tsv_engine, queries, kK);
  if (!tsv_run.ok) return 1;
  const size_t n = tsv_engine->xkg().store().size();
  // Deterministic rebuild work the TSV path paid: every row through a
  // cold-start sort (canonical SPO + 5 permutations + every lazy shape
  // the mix forced), the rules it re-mined, the TSV rows it re-parsed.
  const size_t tsv_shape_builds =
      tsv_engine->xkg().store().score_shapes_built();
  const size_t tsv_index_rows_sorted = n * (1 + 5) + tsv_shape_builds * n;
  const size_t tsv_rules_mined = tsv_engine->rules().size();
  const size_t tsv_rows_parsed = n;  // one T row per triple (plus P rows)
  const size_t tsv_work =
      tsv_index_rows_sorted + tsv_rules_mined + tsv_rows_parsed;

  // The snapshot is taken of the warmed TSV-built engine itself (same
  // dictionary ids), so the loaded engine must be byte-identical to it
  // and must inherit its materialized shapes.
  if (!tsv_engine->Save(snap_path).ok()) {
    std::fprintf(stderr, "snapshot save failed\n");
    return 1;
  }
  const size_t shapes_at_save = tsv_shape_builds;

  // ------------------------------------------- snapshot cold start
  WallTimer snap_timer;
  storage::LoadReport report;
  auto snap_engine = core::Trinit::Open(snap_path, {}, &report);
  if (!snap_engine.ok()) {
    std::fprintf(stderr, "snapshot open failed: %s\n",
                 snap_engine.status().ToString().c_str());
    return 1;
  }
  const double snap_ms = snap_timer.ElapsedMillis();
  const size_t snap_shapes_at_load =
      snap_engine->xkg().store().score_shapes_built();

  MixRun snap_run = RunMix(*snap_engine, queries, kK);
  if (!snap_run.ok) return 1;
  const size_t snap_shapes_after_mix =
      snap_engine->xkg().store().score_shapes_built();
  const size_t snap_work = report.index_rebuilds;  // nothing re-sorted

  // ------------------------------------------------ load-mode matrix
  // Every load mode / verification combination replays the mix. Gates:
  // a trusted mmap open must touch under 10% of the file's bytes
  // before the first query, and every combination must answer
  // byte-identically with identical work counters.
  struct Combo {
    const char* label;
    storage::ReadOptions options;
  };
  const storage::ReadOptions copy_full{storage::LoadMode::kCopy,
                                       rdf::SnapshotValidation::kFull};
  const storage::ReadOptions mmap_full{storage::LoadMode::kMapped,
                                       rdf::SnapshotValidation::kFull};
  const storage::ReadOptions mmap_trusted{storage::LoadMode::kMapped,
                                          rdf::SnapshotValidation::kTrusted};
  const Combo combos[] = {
      {"copy", copy_full},
      {"mmap", mmap_full},
      {"mmap-trusted", mmap_trusted},
  };
  bool matrix_match = true;
  storage::LoadReport trusted_report;  // mmap-trusted open
  double trusted_ms = 0.0;
  for (const Combo& combo : combos) {
    core::TrinitOptions options;
    options.snapshot_read = combo.options;
    WallTimer combo_timer;
    storage::LoadReport combo_report;
    auto combo_engine = core::Trinit::Open(snap_path, options,
                                           &combo_report);
    const double combo_ms = combo_timer.ElapsedMillis();
    if (!combo_engine.ok()) {
      std::fprintf(stderr, "%s open failed: %s\n", combo.label,
                   combo_engine.status().ToString().c_str());
      return 1;
    }
    MixRun combo_run = RunMix(*combo_engine, queries, kK);
    if (!combo_run.ok) return 1;
    const bool match =
        combo_run.bytes == tsv_run.bytes &&
        combo_run.counters.items_pulled == tsv_run.counters.items_pulled &&
        combo_run.counters.items_decoded ==
            tsv_run.counters.items_decoded &&
        combo_run.counters.combinations_tried ==
            tsv_run.counters.combinations_tried &&
        combo_run.counters.partition_probes ==
            tsv_run.counters.partition_probes;
    if (!match) {
      std::fprintf(stderr, "P4 REGRESSION: %s diverged from the "
                           "TSV-built engine\n",
                   combo.label);
      matrix_match = false;
    }
    std::printf("%-18s open %6.2f ms, touched %zu/%zu bytes, "
                "sections %zu mapped / %zu decoded%s\n",
                combo.label, combo_ms, combo_report.bytes_touched,
                combo_report.bytes, combo_report.sections_mapped,
                combo_report.sections_decoded,
                combo_report.provenance_deferred
                    ? ", provenance deferred"
                    : "");
    if (combo.options.verify == rdf::SnapshotValidation::kTrusted) {
      trusted_report = combo_report;
      trusted_ms = combo_ms;
    }
  }
  const bool mmap_supported = storage::MappedFile::Supported();
  // bytes_touched is meaningful only when the trusted open actually
  // mapped (platforms without mmap fall back to the fully-read path).
  const bool mmap_touch_10pct =
      !mmap_supported ||
      10 * trusted_report.bytes_touched < trusted_report.bytes;

  // ------------------------------------------------------- verdicts
  bool answers_match = tsv_run.bytes == snap_run.bytes;
  bool counters_match =
      tsv_run.counters.items_pulled == snap_run.counters.items_pulled &&
      tsv_run.counters.items_decoded == snap_run.counters.items_decoded &&
      tsv_run.counters.combinations_tried ==
          snap_run.counters.combinations_tried &&
      tsv_run.counters.partition_probes ==
          snap_run.counters.partition_probes;
  bool no_rebuild = report.index_rebuilds == 0 &&
                    snap_shapes_at_load == shapes_at_save &&
                    snap_shapes_after_mix == shapes_at_save;
  bool work_saved = tsv_work >= 5 * std::max<size_t>(snap_work, 1);

  std::printf("world: %zu triples, %zu terms, %zu rules\n", n,
              tsv_engine->xkg().dict().size(), tsv_rules_mined);
  std::printf("cold start: TSV %.2f ms, snapshot %.2f ms (%.1fx)\n",
              tsv_ms, snap_ms, snap_ms > 0 ? tsv_ms / snap_ms : 0.0);
  std::printf("rebuild work: TSV %zu (index rows sorted %zu + rules %zu "
              "+ rows parsed %zu), snapshot %zu; shapes %zu saved -> %zu "
              "restored\n",
              tsv_work, tsv_index_rows_sorted, tsv_rules_mined,
              tsv_rows_parsed, snap_work, shapes_at_save,
              snap_shapes_at_load);
  std::printf("snapshot: %zu B; trusted mmap open %.2f ms touched %.1f%% "
              "of file\n",
              report.bytes, trusted_ms,
              trusted_report.bytes > 0
                  ? 100.0 * static_cast<double>(trusted_report.bytes_touched) /
                        static_cast<double>(trusted_report.bytes)
                  : 0.0);
  std::printf("mix: pulls %zu/%zu decodes %zu/%zu probes %zu/%zu "
              "(tsv/snapshot)\n\n",
              tsv_run.counters.items_pulled, snap_run.counters.items_pulled,
              tsv_run.counters.items_decoded,
              snap_run.counters.items_decoded,
              tsv_run.counters.combinations_tried,
              snap_run.counters.combinations_tried);

  FILE* json = args.OpenJson();
  if (json == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", args.out_path);
    return 1;
  }
  std::fprintf(json,
               "{\n  \"bench\": \"p4_coldstart\",\n  \"k\": %d,\n"
               "  \"queries\": %zu,\n  \"world_triples\": %zu,\n"
               "  \"counters_only\": %s,\n  \"paths\": [\n",
               kK, queries.size(), n, args.counters_only ? "true" : "false");
  const struct {
    const char* name;
    const MixCounters& counters;
    double cold_ms;
    size_t work;
  } paths[] = {
      {"tsv", tsv_run.counters, tsv_ms, tsv_work},
      {"snapshot", snap_run.counters, snap_ms, snap_work},
  };
  for (size_t i = 0; i < 2; ++i) {
    std::fprintf(json, "    {\"path\": \"%s\", ", paths[i].name);
    if (!args.counters_only) {
      std::fprintf(json, "\"cold_start_ms\": %.3f, ", paths[i].cold_ms);
    }
    std::fprintf(json,
                 "\"coldstart_work\": %zu, \"items_pulled\": %zu, "
                 "\"items_decoded\": %zu, \"combinations_tried\": %zu, "
                 "\"partition_probes\": %zu}%s\n",
                 paths[i].work, paths[i].counters.items_pulled,
                 paths[i].counters.items_decoded,
                 paths[i].counters.combinations_tried,
                 paths[i].counters.partition_probes, i == 0 ? "," : "");
  }
  std::fprintf(json,
               "  ],\n  \"totals\": {\"tsv_index_rows_sorted\": %zu, "
               "\"tsv_rules_mined\": %zu, \"snapshot_index_rebuilds\": "
               "%zu, \"shapes_at_save\": %zu, \"shapes_restored\": %zu, "
               "\"snapshot_bytes\": %zu, "
               "\"mmap_supported\": %s, \"mmap_bytes_touched\": %zu, "
               "\"mmap_resident_bytes\": %zu, \"answers_match\": %s, "
               "\"counters_match\": %s, \"no_rebuild\": %s, "
               "\"work_saved_5x\": %s, "
               "\"mmap_touch_10pct\": %s, \"matrix_match\": %s}\n}\n",
               tsv_index_rows_sorted, tsv_rules_mined,
               report.index_rebuilds, shapes_at_save, snap_shapes_at_load,
               report.bytes,
               mmap_supported ? "true" : "false",
               trusted_report.bytes_touched, trusted_report.resident_bytes,
               answers_match ? "true" : "false",
               counters_match ? "true" : "false",
               no_rebuild ? "true" : "false",
               work_saved ? "true" : "false",
               mmap_touch_10pct ? "true" : "false",
               matrix_match ? "true" : "false");
  args.CloseJson(json);

  if (!answers_match) {
    std::fprintf(stderr, "P4 REGRESSION: snapshot-loaded answers diverged "
                         "from the TSV-built engine\n");
    return 1;
  }
  if (!counters_match) {
    std::fprintf(stderr, "P4 REGRESSION: pull/probe/decode counters "
                         "diverged between cold-start paths\n");
    return 1;
  }
  if (!no_rebuild) {
    std::fprintf(stderr, "P4 REGRESSION: snapshot load rebuilt index "
                         "state (%zu rebuilds; shapes %zu saved, %zu "
                         "loaded, %zu after mix)\n",
                 report.index_rebuilds, shapes_at_save, snap_shapes_at_load,
                 snap_shapes_after_mix);
    return 1;
  }
  if (!work_saved) {
    std::fprintf(stderr, "P4 REGRESSION: TSV rebuild work %zu is not "
                         ">= 5x snapshot work %zu\n",
                 tsv_work, snap_work);
    return 1;
  }
  if (!mmap_touch_10pct) {
    std::fprintf(stderr, "P4 REGRESSION: trusted mmap open touched %zu "
                         "of %zu file bytes (>= 10%%)\n",
                 trusted_report.bytes_touched, trusted_report.bytes);
    return 1;
  }
  if (!matrix_match) return 1;
  return 0;
}
