#include "synth/kg_generator.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <cmath>

#include "util/logging.h"

namespace trinit::synth {
namespace {

constexpr std::array<const char*, 20> kFirstNames = {
    "Anna",  "Boris", "Clara",  "David", "Elena", "Felix", "Greta",
    "Henri", "Ida",   "Jonas",  "Karla", "Lukas", "Mira",  "Nils",
    "Olga",  "Paul",  "Quirin", "Rosa",  "Stefan", "Tilda"};

constexpr std::array<const char*, 18> kSurnames = {
    "Keller",  "Brandt",  "Curie",   "Dietrich", "Euler",   "Fischer",
    "Gauss",   "Hilbert", "Ising",   "Jordan",   "Klein",   "Lorentz",
    "Mach",    "Noether", "Ostwald", "Planck",   "Riemann", "Sommer"};

constexpr std::array<const char*, 12> kCitySyllables = {
    "Ulm",  "Gra",  "Hei", "Nor",  "Stad", "Berg",
    "Feld", "Brun", "Lin", "Wald", "Hof",  "See"};

constexpr std::array<const char*, 12> kCountryNames = {
    "Germania", "Helvetia", "Lusitania", "Polonia",  "Austrasia",
    "Bohemia",  "Dacia",    "Etruria",   "Frisia",   "Galicia",
    "Hibernia", "Illyria"};

constexpr std::array<const char*, 12> kFieldNames = {
    "physics",     "chemistry",  "mathematics", "biology",
    "astronomy",   "geology",    "logic",       "economics",
    "linguistics", "philosophy", "medicine",    "statistics"};

std::string Cap(std::string s) {
  if (!s.empty()) s[0] = static_cast<char>(std::toupper(s[0]));
  return s;
}

// Resource labels use underscores; aliases are human-readable surface
// forms the corpus embeds and the linker resolves.
Entity MakePerson(size_t idx, Rng& rng) {
  Entity e;
  e.cls = EntityClass::kPerson;
  std::string first = kFirstNames[rng.Uniform(kFirstNames.size())];
  std::string last = kSurnames[rng.Uniform(kSurnames.size())];
  e.name = first + "_" + last + "_" + std::to_string(idx);
  e.aliases = {first + " " + last,                     // full name
               last,                                   // ambiguous surname
               first.substr(0, 1) + ". " + last};      // initial form
  return e;
}

Entity MakeCity(size_t idx, Rng& rng) {
  Entity e;
  e.cls = EntityClass::kCity;
  std::string base = std::string(kCitySyllables[rng.Uniform(6)]) +
                     std::string(kCitySyllables[6 + rng.Uniform(6)]);
  e.name = Cap(base) + "_" + std::to_string(idx);
  e.aliases = {Cap(base) + std::to_string(idx)};
  return e;
}

Entity MakeCountry(size_t idx) {
  Entity e;
  e.cls = EntityClass::kCountry;
  std::string base = kCountryNames[idx % kCountryNames.size()];
  std::string suffix = idx >= kCountryNames.size()
                           ? std::to_string(idx / kCountryNames.size() + 1)
                           : "";
  e.name = base + suffix;
  e.aliases = {base + suffix};
  return e;
}

Entity MakeUniversity(size_t idx, const Entity& city) {
  Entity e;
  e.cls = EntityClass::kUniversity;
  const std::string& city_alias = city.aliases[0];
  e.name = "University_of_" + city_alias + "_" + std::to_string(idx);
  e.aliases = {"University of " + city_alias, city_alias + " University"};
  return e;
}

Entity MakeInstitute(size_t idx, const std::string& field) {
  Entity e;
  e.cls = EntityClass::kInstitute;
  e.name = "Institute_for_" + Cap(field) + "_" + std::to_string(idx);
  e.aliases = {"Institute for " + Cap(field),
               Cap(field) + " Institute " + std::to_string(idx)};
  return e;
}

Entity MakePrize(size_t idx) {
  Entity e;
  e.cls = EntityClass::kPrize;
  std::string base = kSurnames[idx % kSurnames.size()];
  e.name = base + "_Prize_" + std::to_string(idx);
  e.aliases = {"the " + base + " Prize", base + " Prize"};
  return e;
}

Entity MakeField(size_t idx) {
  Entity e;
  e.cls = EntityClass::kField;
  std::string base = kFieldNames[idx % kFieldNames.size()];
  std::string suffix =
      idx >= kFieldNames.size()
          ? " " + std::to_string(idx / kFieldNames.size() + 1)
          : "";
  e.name = Cap(base) + suffix;
  e.aliases = {Cap(base) + suffix};
  return e;
}

}  // namespace

uint32_t World::CountryOf(uint32_t city) const {
  auto it = city_country_.find(city);
  TRINIT_CHECK(it != city_country_.end());
  return it->second;
}

uint32_t World::SampleEntity(EntityClass c, Rng& rng) const {
  const std::vector<uint32_t>& pool = OfClass(c);
  TRINIT_CHECK(!pool.empty());
  // Popularity-weighted: entities are stored popularity-descending per
  // class, so a Zipf rank draw suffices.
  return pool[zipf_by_class_[static_cast<size_t>(c)].Sample(rng)];
}

std::vector<const Fact*> World::FactsOf(
    const std::string& predicate_name) const {
  std::vector<const Fact*> out;
  size_t idx = PredicateIndex(predicate_name);
  if (idx == SIZE_MAX) return out;
  for (const Fact& f : facts) {
    if (f.predicate == idx) out.push_back(&f);
  }
  return out;
}

size_t World::PredicateIndex(const std::string& name) const {
  for (size_t i = 0; i < spec.predicates.size(); ++i) {
    if (spec.predicates[i].name == name) return i;
  }
  return SIZE_MAX;
}

World KgGenerator::Generate(const WorldSpec& spec_in) {
  World world;
  world.spec = spec_in;
  if (world.spec.predicates.empty()) {
    world.spec.predicates = WorldSpec::DefaultPredicates();
  }
  const WorldSpec& spec = world.spec;
  Rng rng(spec.seed);

  world.by_class_.resize(static_cast<size_t>(EntityClass::kNumClasses));
  auto add_entity = [&world](Entity e) {
    uint32_t idx = static_cast<uint32_t>(world.entities.size());
    world.by_class_[static_cast<size_t>(e.cls)].push_back(idx);
    world.entities.push_back(std::move(e));
    return idx;
  };

  // Countries, cities (each assigned a country), fields, prizes.
  for (size_t i = 0; i < spec.num_countries; ++i) add_entity(MakeCountry(i));
  for (size_t i = 0; i < spec.num_cities; ++i) {
    uint32_t city = add_entity(MakeCity(i, rng));
    const auto& countries = world.OfClass(EntityClass::kCountry);
    world.city_country_[city] =
        countries[rng.Uniform(countries.size())];
  }
  for (size_t i = 0; i < spec.num_fields; ++i) add_entity(MakeField(i));
  for (size_t i = 0; i < spec.num_prizes; ++i) add_entity(MakePrize(i));
  for (size_t i = 0; i < spec.num_universities; ++i) {
    const auto& cities = world.OfClass(EntityClass::kCity);
    uint32_t city = cities[rng.Uniform(cities.size())];
    add_entity(MakeUniversity(i, world.entities[city]));
  }
  for (size_t i = 0; i < spec.num_institutes; ++i) {
    add_entity(MakeInstitute(i, kFieldNames[rng.Uniform(kFieldNames.size())]));
  }
  for (size_t i = 0; i < spec.num_persons; ++i) {
    add_entity(MakePerson(i, rng));
  }

  // Popularity: rank within class, descending. The pools are final
  // here, so each class's Zipf table is built once and every
  // SampleEntity draw below is one binary search instead of O(pool)
  // `pow` calls. Building a table draws no random numbers, so the RNG
  // sequence does not depend on when tables are built.
  for (auto& pool : world.by_class_) {
    for (size_t rank = 0; rank < pool.size(); ++rank) {
      world.entities[pool[rank]].popularity =
          1.0 / std::pow(static_cast<double>(rank + 1),
                         spec.popularity_skew);
    }
    world.zipf_by_class_.emplace_back(pool.size(), spec.popularity_skew);
  }

  // Facts per predicate spec.
  for (uint32_t pi = 0; pi < spec.predicates.size(); ++pi) {
    const PredicateSpec& pred = spec.predicates[pi];
    for (uint32_t subject : world.OfClass(pred.subject_class)) {
      if (!rng.Bernoulli(pred.coverage)) continue;
      int count = static_cast<int>(pred.facts_per_subject);
      if (rng.Bernoulli(pred.facts_per_subject - count)) ++count;
      if (count == 0) count = 1;
      for (int c = 0; c < count; ++c) {
        Fact f;
        f.subject = subject;
        f.predicate = pi;
        if (pred.name == "locatedIn") {
          // Structural: a city's country is fixed.
          f.object = world.CountryOf(subject);
        } else {
          f.object = world.SampleEntity(pred.object_class, rng);
          if (f.object == subject) continue;  // no self-loops
        }
        f.in_kg = !rng.Bernoulli(pred.holdout_rate);
        if (f.in_kg && pred.coarse_object_rate > 0.0 &&
            world.entities[f.object].cls == EntityClass::kCity) {
          f.coarse_in_kg = rng.Bernoulli(pred.coarse_object_rate);
          // A third of coarse statements coexist with the fine fact
          // (different sources): expansion-miner evidence.
          if (f.coarse_in_kg) f.coarse_both_in_kg = rng.Bernoulli(0.35);
        }
        if (f.in_kg && !pred.inverse_name.empty()) {
          if (rng.Bernoulli(pred.both_directions_rate)) {
            f.both_in_kg = true;
          } else {
            f.inverse_in_kg = rng.Bernoulli(pred.inverse_rate);
          }
        }
        world.facts.push_back(f);
      }
    }
  }
  return world;
}

void KgGenerator::PopulateKg(const World& world, xkg::XkgBuilder* builder) {
  // type triples for every entity.
  for (const Entity& e : world.entities) {
    builder->AddKgFact(e.name, "type", EntityClassName(e.cls));
  }
  for (const Fact& f : world.facts) {
    if (!f.in_kg) continue;
    const PredicateSpec& pred = world.spec.predicates[f.predicate];
    const std::string& s = world.entities[f.subject].name;
    if (f.both_in_kg) {
      builder->AddKgFact(s, pred.name, world.entities[f.object].name);
      builder->AddKgFact(world.entities[f.object].name, pred.inverse_name,
                         s);
    } else if (f.inverse_in_kg) {
      // The KG models the inverse direction only (user B's mismatch).
      builder->AddKgFact(world.entities[f.object].name, pred.inverse_name,
                         s);
    } else if (f.coarse_in_kg) {
      builder->AddKgFact(
          s, pred.name,
          world.entities[world.CountryOf(f.object)].name);
      if (f.coarse_both_in_kg) {
        builder->AddKgFact(s, pred.name, world.entities[f.object].name);
      }
    } else {
      builder->AddKgFact(s, pred.name, world.entities[f.object].name);
    }
  }
}

size_t KgGenerator::CountKgFacts(const World& world) {
  size_t n = world.entities.size();  // type triples
  for (const Fact& f : world.facts) {
    if (f.in_kg) n += (f.both_in_kg || f.coarse_both_in_kg) ? 2 : 1;
  }
  return n;
}

}  // namespace trinit::synth
