#ifndef TRINIT_SYNTH_KG_GENERATOR_H_
#define TRINIT_SYNTH_KG_GENERATOR_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "synth/world_schema.h"
#include "util/random.h"
#include "xkg/xkg_builder.h"

namespace trinit::synth {

/// An entity of the synthetic world.
struct Entity {
  std::string name;  ///< canonical KG resource label, e.g. Anna_Keller_17
  EntityClass cls = EntityClass::kPerson;
  std::vector<std::string> aliases;  ///< surface forms ("Anna Keller",
                                     ///< "Keller", "A. Keller")
  double popularity = 0.0;  ///< [0,1]; popular entities occur more often
};

/// One ground-truth fact. `subject`/`object` index `World::entities`,
/// `predicate` indexes `WorldSpec::predicates`.
struct Fact {
  uint32_t subject = 0;
  uint32_t predicate = 0;
  uint32_t object = 0;
  /// In the curated KG (false => held out: text-only, the engineered
  /// incompleteness).
  bool in_kg = true;
  /// KG states the *coarse* object (the city's country) instead of the
  /// fine one — user A's granularity mismatch.
  bool coarse_in_kg = false;
  /// KG states *both* granularities (sources disagree); these redundant
  /// pairs are the expansion miner's |args(p) ∩ compose(p,q)| evidence.
  bool coarse_both_in_kg = false;
  /// KG states the inverse predicate instead of this direction — user
  /// B's argument-order mismatch.
  bool inverse_in_kg = false;
  /// KG redundantly states both directions (inversion-miner evidence).
  bool both_in_kg = false;
};

/// The complete generated world: entities, ground-truth facts, and the
/// derived lookups the corpus generator / linker / evaluator need. This
/// is the synthetic stand-in for "Yago2s + the true state of the world"
/// (DESIGN.md §4): the KG sees only part of it, the corpus verbalizes
/// more of it, and the evaluator grades answers against all of it.
class World {
 public:
  WorldSpec spec;
  std::vector<Entity> entities;
  std::vector<Fact> facts;

  /// Entity indices per class.
  const std::vector<uint32_t>& OfClass(EntityClass c) const {
    return by_class_[static_cast<size_t>(c)];
  }

  /// Country of a city (entity indices). Cities map to exactly one
  /// country.
  uint32_t CountryOf(uint32_t city) const;

  /// Popularity-weighted sample of an entity of class `c`.
  uint32_t SampleEntity(EntityClass c, Rng& rng) const;

  /// All ground-truth facts with the given predicate name.
  std::vector<const Fact*> FactsOf(const std::string& predicate_name) const;

  /// Index of the predicate spec with `name` (SIZE_MAX if absent).
  size_t PredicateIndex(const std::string& name) const;

 private:
  friend class KgGenerator;
  std::vector<std::vector<uint32_t>> by_class_;
  /// Popularity (Zipf rank) table per class, built with the pools.
  std::vector<Rng::ZipfTable> zipf_by_class_;
  std::unordered_map<uint32_t, uint32_t> city_country_;
};

/// Generates the ground-truth world and pours its KG layer into an
/// `XkgBuilder`.
class KgGenerator {
 public:
  /// Deterministic from `spec.seed`.
  static World Generate(const WorldSpec& spec);

  /// Adds the KG layer (facts with in_kg, applying coarse/inverse
  /// substitutions) plus `type` triples for every entity.
  static void PopulateKg(const World& world, xkg::XkgBuilder* builder);

  /// Number of facts that would enter the KG (for sizing tests).
  static size_t CountKgFacts(const World& world);
};

}  // namespace trinit::synth

#endif  // TRINIT_SYNTH_KG_GENERATOR_H_
