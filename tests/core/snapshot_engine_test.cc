// Engine-level snapshot behavior: Trinit::Save -> Trinit::Open(path)
// yields an engine whose answers are byte-identical to the source
// engine AND to a TSV-rebuilt engine, with identical pull/probe/decode
// work counters, across randomized synthetic worlds; the restored
// serving cache continues the saved generation; and error paths stay
// typed.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/trinit.h"
#include "synth/kg_generator.h"
#include "testing/answer_bytes.h"
#include "testing/paper_world.h"
#include "xkg/tsv_io.h"

namespace trinit::core {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

/// The work counters that must be identical between a snapshot-loaded
/// and a TSV-built engine for the same request.
std::string WorkCounters(const topk::TopKResult::RunStats& s) {
  std::ostringstream os;
  os << s.items_pulled << '/' << s.items_decoded << '/' << s.items_skipped
     << '/' << s.combinations_tried << '/' << s.partition_probes << '/'
     << s.query_variants_evaluated << '/' << s.alternatives_opened;
  return os.str();
}

/// Runs `text` uncached-style (fresh request each time; answer cache is
/// on but the comparison reads per-request stats of the *first* run).
std::pair<std::string, std::string> RunOnce(const Trinit& engine,
                                            const std::string& text) {
  auto response = engine.Execute(QueryRequest::Text(text, 5));
  EXPECT_TRUE(response.ok()) << response.status() << " for " << text;
  if (!response.ok()) return {};
  return {testing::AnswerBytes(response->result()),
          WorkCounters(response->stats)};
}

TEST(SnapshotEngineTest, SaveOpenIsByteIdenticalOnPaperWorld) {
  auto source = Trinit::Open(testing::BuildPaperXkg());
  ASSERT_TRUE(source.ok());
  ASSERT_TRUE(source->AddManualRules(testing::kPaperRulesText).ok());

  const std::vector<std::string> queries = {
      "?x bornIn Germany",
      "AlbertEinstein hasAdvisor ?x",
      "SELECT ?x WHERE ?x affiliation ?u ; ?u 'housed in' ?p",
      "?x 'won nobel for' ?y",
  };
  // Warm some lazy shapes so the snapshot carries index state.
  for (const std::string& q : queries) (void)RunOnce(*source, q);

  const std::string path = TempPath("engine_paper.trinit");
  ASSERT_TRUE(source->Save(path).ok());
  storage::LoadReport report;
  auto loaded = Trinit::Open(path, {}, &report);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(report.index_rebuilds, 0u);
  EXPECT_EQ(loaded->rules().size(), source->rules().size());
  EXPECT_GT(report.score_shapes_restored, 0u);
  const size_t shapes_at_save = source->xkg().store().score_shapes_built();
  EXPECT_EQ(loaded->xkg().store().score_shapes_built(), shapes_at_save);

  for (const std::string& q : queries) {
    // `source` serves the warmed mix from its answer cache while the
    // freshly loaded engine runs it for real — the bytes must match
    // regardless (work-counter identity between two *fresh* engines is
    // the property test below).
    auto [src_bytes, src_work] = RunOnce(*source, q);
    auto [snap_bytes, snap_work] = RunOnce(*loaded, q);
    EXPECT_EQ(snap_bytes, src_bytes) << q;
    (void)src_work;
    (void)snap_work;
  }
  // No shape was rebuilt to answer the warmed mix.
  EXPECT_EQ(loaded->xkg().store().score_shapes_built(), shapes_at_save);
}

TEST(SnapshotEngineTest, PropertySnapshotEqualsTsvBuiltAcrossWorlds) {
  for (uint64_t seed : {11u, 23u, 47u}) {
    synth::WorldSpec spec;
    spec.seed = seed;
    spec.num_persons = 40 + seed % 13;
    spec.num_universities = 6;
    spec.num_institutes = 4;
    spec.num_cities = 8;
    spec.num_countries = 3;
    spec.num_prizes = 3;
    spec.num_fields = 4;
    spec.predicates = synth::WorldSpec::DefaultPredicates();
    synth::World world = synth::KgGenerator::Generate(spec);

    auto source = Trinit::FromWorld(world);
    ASSERT_TRUE(source.ok()) << source.status();

    // TSV cold-start path: dump + reload + re-mine. (A TSV reload
    // re-interns terms in dump order, so its ids differ from the
    // producer's — the snapshot must therefore be taken of the
    // TSV-built engine itself for an id-level byte comparison.)
    const std::string tsv = TempPath("world_" + std::to_string(seed) +
                                     ".tsv");
    ASSERT_TRUE(xkg::XkgTsv::Save(source->xkg(), tsv).ok());
    auto tsv_xkg = xkg::XkgTsv::Load(tsv);
    ASSERT_TRUE(tsv_xkg.ok()) << tsv_xkg.status();
    auto tsv_engine = Trinit::Open(std::move(tsv_xkg).value());
    ASSERT_TRUE(tsv_engine.ok());

    // A mix of shapes over this world's entities: single patterns,
    // joins, soft matches, relax-rescued constants.
    const auto& unis = world.OfClass(synth::EntityClass::kUniversity);
    const auto& cities = world.OfClass(synth::EntityClass::kCity);
    ASSERT_GE(unis.size(), 2u);
    ASSERT_GE(cities.size(), 2u);
    const std::vector<std::string> queries = {
        "?x bornIn " + world.entities[cities[0]].name,
        "?x affiliation " + world.entities[unis[0]].name,
        "SELECT ?x WHERE ?x affiliation ?u ; ?u campusIn " +
            world.entities[cities[1]].name,
        "SELECT ?a ?b WHERE ?a hasAdvisor ?b ; ?b affiliation " +
            world.entities[unis[1]].name,
        "?x wonPrize ?p",
    };
    // Ground truth: the TSV-built engine's answers and work counters
    // (first, uncached run of each query).
    std::vector<std::pair<std::string, std::string>> expected;
    expected.reserve(queries.size());
    for (const std::string& q : queries) {
      expected.push_back(RunOnce(*tsv_engine, q));
    }

    // Snapshot cold-start paths: save the TSV-built engine once, open
    // the file through every load mode / verification combination —
    // answers AND pull/probe/decode work counters must be byte-identical
    // to the TSV build in all of them.
    const std::string snap =
        TempPath("world_" + std::to_string(seed) + ".trinit");
    ASSERT_TRUE(tsv_engine->Save(snap).ok());
    struct Combo {
      const char* label;
      storage::LoadMode mode;
      rdf::SnapshotValidation verify;
    };
    const Combo combos[] = {
        {"copy", storage::LoadMode::kCopy, rdf::SnapshotValidation::kFull},
        {"mmap", storage::LoadMode::kMapped, rdf::SnapshotValidation::kFull},
        {"mmap-trusted", storage::LoadMode::kMapped,
         rdf::SnapshotValidation::kTrusted},
    };
    for (const Combo& combo : combos) {
      SCOPED_TRACE(std::string("seed ") + std::to_string(seed) + " " +
                   combo.label);
      TrinitOptions options;
      options.snapshot_read = {combo.mode, combo.verify};
      storage::LoadReport report;
      auto snap_engine = Trinit::Open(snap, options, &report);
      ASSERT_TRUE(snap_engine.ok()) << snap_engine.status();
      EXPECT_EQ(report.index_rebuilds, 0u);
      EXPECT_EQ(snap_engine->rules().size(), tsv_engine->rules().size());

      for (size_t i = 0; i < queries.size(); ++i) {
        auto [snap_bytes, snap_work] = RunOnce(*snap_engine, queries[i]);
        EXPECT_EQ(snap_bytes, expected[i].first) << queries[i];
        EXPECT_EQ(snap_work, expected[i].second) << queries[i];
      }
      // A mutation after a mapped load copies the views into owned
      // memory (copy-on-write) and keeps serving correct answers.
      ASSERT_TRUE(snap_engine
                      ->ExtendKg("ZZTestPerson bornIn " +
                                 world.entities[cities[0]].name)
                      .ok());
      auto after = snap_engine->Execute(
          QueryRequest::Text(queries[0], 50));
      ASSERT_TRUE(after.ok()) << after.status();
    }
  }
}

TEST(SnapshotEngineTest, GenerationContinuesAcrossSaveLoad) {
  auto engine = Trinit::Open(testing::BuildPaperXkg());
  ASSERT_TRUE(engine.ok());
  const uint64_t gen0 = engine->generation();
  ASSERT_TRUE(engine->ExtendKg("ElsaEinstein bornIn Ulm").ok());
  ASSERT_TRUE(
      engine->AddManualRules("r: ?x hasAdvisor ?y => ?y hasStudent ?x @ 1")
          .ok());
  const uint64_t gen = engine->generation();
  EXPECT_GT(gen, gen0);

  const std::string path = TempPath("generation.trinit");
  ASSERT_TRUE(engine->Save(path).ok());
  auto loaded = Trinit::Open(path);
  ASSERT_TRUE(loaded.ok());
  // The loaded engine continues the saved coherent sequence instead of
  // restarting at 0 — and keeps moving on further mutations.
  EXPECT_EQ(loaded->generation(), gen);
  ASSERT_TRUE(loaded->ExtendKg("MaxBorn bornIn Ulm").ok());
  EXPECT_GT(loaded->generation(), gen);
}

TEST(SnapshotEngineTest, MutationsKeepWorkingAfterLoad) {
  auto engine = Trinit::Open(testing::BuildPaperXkg());
  ASSERT_TRUE(engine.ok());
  const std::string path = TempPath("mutate.trinit");
  ASSERT_TRUE(engine->Save(path).ok());
  auto loaded = Trinit::Open(path);
  ASSERT_TRUE(loaded.ok());

  auto before = loaded->Query("?x bornIn Ulm", 5);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(loaded->ExtendKg("ElsaEinstein bornIn Ulm").ok());
  auto after = loaded->Query("?x bornIn Ulm", 5);
  ASSERT_TRUE(after.ok());
  EXPECT_GT(after->answers.size(), before->answers.size());
}

TEST(SnapshotEngineTest, OpenPathErrorsAreTyped) {
  auto missing = Trinit::Open(TempPath("missing_engine.trinit"));
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace trinit::core
