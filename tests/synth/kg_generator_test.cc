#include "synth/kg_generator.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>

#include "util/hash.h"

namespace trinit::synth {
namespace {

WorldSpec SmallSpec(uint64_t seed = 7) {
  WorldSpec spec;
  spec.seed = seed;
  spec.num_persons = 60;
  spec.num_universities = 8;
  spec.num_institutes = 5;
  spec.num_cities = 12;
  spec.num_countries = 4;
  spec.num_prizes = 4;
  spec.num_fields = 6;
  spec.predicates = WorldSpec::DefaultPredicates();
  return spec;
}

TEST(KgGeneratorTest, DeterministicFromSeed) {
  World a = KgGenerator::Generate(SmallSpec(7));
  World b = KgGenerator::Generate(SmallSpec(7));
  ASSERT_EQ(a.entities.size(), b.entities.size());
  ASSERT_EQ(a.facts.size(), b.facts.size());
  for (size_t i = 0; i < a.entities.size(); ++i) {
    EXPECT_EQ(a.entities[i].name, b.entities[i].name);
  }
  for (size_t i = 0; i < a.facts.size(); ++i) {
    EXPECT_EQ(a.facts[i].subject, b.facts[i].subject);
    EXPECT_EQ(a.facts[i].object, b.facts[i].object);
    EXPECT_EQ(a.facts[i].in_kg, b.facts[i].in_kg);
  }
}

TEST(KgGeneratorTest, DifferentSeedsDiffer) {
  World a = KgGenerator::Generate(SmallSpec(7));
  World b = KgGenerator::Generate(SmallSpec(8));
  bool differs = a.facts.size() != b.facts.size();
  for (size_t i = 0; !differs && i < a.facts.size(); ++i) {
    differs = a.facts[i].object != b.facts[i].object;
  }
  EXPECT_TRUE(differs);
}

TEST(KgGeneratorTest, ClassPopulationsMatchSpec) {
  WorldSpec spec = SmallSpec();
  World world = KgGenerator::Generate(spec);
  EXPECT_EQ(world.OfClass(EntityClass::kPerson).size(), spec.num_persons);
  EXPECT_EQ(world.OfClass(EntityClass::kCity).size(), spec.num_cities);
  EXPECT_EQ(world.OfClass(EntityClass::kCountry).size(),
            spec.num_countries);
  EXPECT_EQ(world.OfClass(EntityClass::kUniversity).size(),
            spec.num_universities);
}

TEST(KgGeneratorTest, EntityNamesUniqueAndAliased) {
  World world = KgGenerator::Generate(SmallSpec());
  std::set<std::string> names;
  for (const Entity& e : world.entities) {
    EXPECT_TRUE(names.insert(e.name).second) << "duplicate " << e.name;
    EXPECT_FALSE(e.aliases.empty());
  }
}

TEST(KgGeneratorTest, EveryCityHasACountry) {
  World world = KgGenerator::Generate(SmallSpec());
  for (uint32_t city : world.OfClass(EntityClass::kCity)) {
    uint32_t country = world.CountryOf(city);
    EXPECT_EQ(world.entities[country].cls, EntityClass::kCountry);
  }
}

TEST(KgGeneratorTest, FactsRespectSignatures) {
  World world = KgGenerator::Generate(SmallSpec());
  for (const Fact& f : world.facts) {
    const PredicateSpec& pred = world.spec.predicates[f.predicate];
    EXPECT_EQ(world.entities[f.subject].cls, pred.subject_class);
    EXPECT_EQ(world.entities[f.object].cls, pred.object_class);
    EXPECT_NE(f.subject, f.object);
  }
}

TEST(KgGeneratorTest, HoldoutRateRoughlyHonored) {
  World world = KgGenerator::Generate(SmallSpec());
  size_t held_out = 0;
  for (const Fact& f : world.facts) held_out += !f.in_kg;
  double rate =
      static_cast<double>(held_out) / static_cast<double>(world.facts.size());
  EXPECT_GT(rate, 0.1);  // specs range from 0.05 to 0.7
  EXPECT_LT(rate, 0.6);
}

TEST(KgGeneratorTest, InverseFactsUseInversePredicateName) {
  World world = KgGenerator::Generate(SmallSpec());
  xkg::XkgBuilder builder;
  KgGenerator::PopulateKg(world, &builder);
  auto xkg = builder.Build();
  ASSERT_TRUE(xkg.ok());
  const rdf::Dictionary& dict = xkg->dict();
  // hasStudent must exist in the KG (inverse_rate 0.75 of advisor facts).
  rdf::TermId has_student =
      dict.Find(rdf::TermKind::kResource, "hasStudent");
  EXPECT_NE(has_student, rdf::kNullTerm);
  EXPECT_GT(xkg->store()
                .Match(rdf::kNullTerm, has_student, rdf::kNullTerm)
                .size(),
            0u);
}

TEST(KgGeneratorTest, PopulateMatchesCount) {
  World world = KgGenerator::Generate(SmallSpec());
  xkg::XkgBuilder builder;
  KgGenerator::PopulateKg(world, &builder);
  EXPECT_EQ(builder.pending_kg(), KgGenerator::CountKgFacts(world));
}

TEST(KgGeneratorTest, TypeTriplesForEveryEntity) {
  World world = KgGenerator::Generate(SmallSpec());
  xkg::XkgBuilder builder;
  KgGenerator::PopulateKg(world, &builder);
  auto xkg = builder.Build();
  ASSERT_TRUE(xkg.ok());
  rdf::TermId type =
      xkg->dict().Find(rdf::TermKind::kResource, "type");
  ASSERT_NE(type, rdf::kNullTerm);
  EXPECT_EQ(xkg->store().Match(rdf::kNullTerm, type, rdf::kNullTerm).size(),
            world.entities.size());
}

TEST(WorldSpecTest, ScaledPreservesMinimums) {
  WorldSpec tiny = WorldSpec::Scaled(100);
  EXPECT_GE(tiny.num_persons, 20u);
  EXPECT_GE(tiny.num_countries, 4u);
  WorldSpec big = WorldSpec::Scaled(50000);
  EXPECT_GT(big.num_persons, tiny.num_persons);
}

TEST(WorldSpecTest, DefaultPredicatesCoverPaperPhenomena) {
  auto preds = WorldSpec::DefaultPredicates();
  bool has_inverse = false, has_coarse = false, has_heavy_holdout = false;
  for (const PredicateSpec& p : preds) {
    if (!p.inverse_name.empty()) has_inverse = true;
    if (p.coarse_object_rate > 0) has_coarse = true;
    if (p.holdout_rate >= 0.5) has_heavy_holdout = true;
    EXPECT_FALSE(p.paraphrases.empty()) << p.name;
  }
  EXPECT_TRUE(has_inverse);        // user B
  EXPECT_TRUE(has_coarse);         // user A
  EXPECT_TRUE(has_heavy_holdout);  // users C, D
}

/// FNV-1a over the generated world: every entity's name, class and
/// aliases, then every fact with all its KG flags.
uint64_t WorldHash(const World& world) {
  std::string bytes;
  for (const Entity& e : world.entities) {
    bytes += e.name;
    bytes += '|';
    bytes += std::to_string(static_cast<int>(e.cls));
    for (const std::string& alias : e.aliases) {
      bytes += '|';
      bytes += alias;
    }
    bytes += '\n';
  }
  for (const Fact& f : world.facts) {
    bytes += std::to_string(f.subject) + ' ' + std::to_string(f.predicate) +
             ' ' + std::to_string(f.object) + ' ' +
             std::to_string(f.in_kg) + std::to_string(f.coarse_in_kg) +
             std::to_string(f.coarse_both_in_kg) +
             std::to_string(f.inverse_in_kg) + std::to_string(f.both_in_kg) +
             '\n';
  }
  return Fnv1a64(bytes);
}

// Pins the generated worlds at two scales. Generation speed-ups (such
// as drawing entities from one Zipf table per class) must keep the RNG
// sequence, hence the world, exactly as it was.
TEST(KgGeneratorTest, ScaledWorldsArePinned) {
  const World small = KgGenerator::Generate(WorldSpec::Scaled(10000, 2016));
  EXPECT_EQ(small.entities.size(), 1098u);
  EXPECT_EQ(small.facts.size(), 3212u);
  EXPECT_EQ(WorldHash(small), 0xfa10d479c4cd80bfULL);

  const World large = KgGenerator::Generate(WorldSpec::Scaled(100000, 2016));
  EXPECT_EQ(large.entities.size(), 11010u);
  EXPECT_EQ(large.facts.size(), 32041u);
  EXPECT_EQ(WorldHash(large), 0xc7bf07f4b78f016eULL);
}

}  // namespace
}  // namespace trinit::synth
