#ifndef TRINIT_BENCH_BENCH_UTIL_H_
#define TRINIT_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "core/trinit.h"
#include "synth/kg_generator.h"
#include "xkg/xkg_builder.h"

namespace trinit::bench {

/// Byte-comparable rendering of a ranked answer list: projection values
/// and nano-rounded scores, rank order preserved. The equality
/// definition behind every "byte-identical answers" bench gate (P2,
/// P3) — single-sourced so the exhibits cannot drift apart.
inline std::string AnswerBytes(const topk::TopKResult& result) {
  std::ostringstream os;
  for (const auto& ans : result.answers) {
    for (size_t i = 0; i < result.projection.size(); ++i) {
      os << ans.binding.Get(static_cast<query::VarId>(i)) << ',';
    }
    os << std::llround(ans.score * 1e9) << ';';
  }
  return os.str();
}

/// Backslash-escapes quotes/backslashes for a JSON string value.
inline std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

/// Nearest-rank percentile (`pct` in [0,1]) over a copy of `samples`.
inline double Percentile(std::vector<double> samples, double pct) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  size_t idx = static_cast<size_t>(pct * (samples.size() - 1) + 0.5);
  return samples[std::min(idx, samples.size() - 1)];
}

/// The shared CLI surface of the JSON-writing benches:
/// `[--counters-only] [out.json]`. `--counters-only` strips the
/// machine-local p50/p95 wall-times from the JSON so cross-machine
/// comparisons see only deterministic work counters. The JSON goes to
/// `out.json` only when a path is given, and to stdout otherwise, so a
/// bench run from the repo root never overwrites a committed baseline.
struct BenchArgs {
  bool counters_only = false;
  const char* out_path = nullptr;  ///< null: JSON goes to stdout

  /// The JSON sink: the named file, or stdout. Null when the file
  /// cannot be opened.
  FILE* OpenJson() const {
    return out_path == nullptr ? stdout : std::fopen(out_path, "w");
  }
  void CloseJson(FILE* json) const {
    if (json == stdout) {
      std::fflush(json);
      return;
    }
    std::fclose(json);
    std::printf("wrote %s\n", out_path);
  }
};
inline BenchArgs ParseBenchArgs(int argc, char** argv) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--counters-only") {
      args.counters_only = true;
    } else {
      args.out_path = argv[i];
    }
  }
  return args;
}

/// The paper's Figure 1 KG + Figure 3 extension + rule-1 type facts
/// (same data as tests/testing/paper_world.h; duplicated here so bench
/// binaries only depend on src/).
inline xkg::Xkg BuildPaperXkg() {
  xkg::XkgBuilder b;
  b.AddKgFact("AlbertEinstein", "bornIn", "Ulm");
  b.AddKgFact("Ulm", "locatedIn", "Germany");
  b.AddKgFact("AlbertEinstein", "bornOn", "1879-03-14", true);
  b.AddKgFact("AlfredKleiner", "hasStudent", "AlbertEinstein");
  b.AddKgFact("AlbertEinstein", "affiliation", "IAS");
  b.AddKgFact("PrincetonUniversity", "member", "IvyLeague");
  b.AddKgFact("Germany", "type", "country");
  b.AddKgFact("Ulm", "type", "city");
  b.AddExtraction("AlbertEinstein", true, "won Nobel for",
                  "discovery of the photoelectric effect", false, 0.8f,
                  {1, 0,
                   "Einstein won a Nobel for his discovery of the "
                   "photoelectric effect.",
                   0.8});
  b.AddExtraction("IAS", true, "housed in", "PrincetonUniversity", true,
                  0.9f, {2, 3, "The IAS is housed in Princeton.", 0.9});
  b.AddExtraction("AlbertEinstein", true, "lectured at",
                  "PrincetonUniversity", true, 0.7f,
                  {3, 1, "Einstein lectured at Princeton University.", 0.7});
  b.AddExtraction("AlbertEinstein", true, "met his teacher", "Prof. Kleiner",
                  false, 0.5f,
                  {4, 2, "Einstein met his teacher Prof. Kleiner.", 0.5});
  auto r = b.Build();
  if (!r.ok()) {
    std::fprintf(stderr, "paper world build failed: %s\n",
                 r.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(r).value();
}

/// The Figure 4 rules plus the type-free geographic expansion.
inline constexpr const char* kPaperRulesText =
    "rule1: ?x bornIn ?y ; ?y type country => ?x bornIn ?z ; ?z type city "
    "; ?z locatedIn ?y @ 1.0\n"
    "rule2: ?x hasAdvisor ?y => ?y hasStudent ?x @ 1.0\n"
    "rule3: ?x affiliation ?y => ?x affiliation ?z ; ?z 'housed in' ?y "
    "@ 0.8\n"
    "rule4: ?x affiliation ?y => ?x 'lectured at' ?y @ 0.7\n"
    "geo: ?x bornIn ?y => ?x bornIn ?z ; ?z locatedIn ?y @ 0.9\n";

/// A paper-world TriniT engine with the Figure 4 rules loaded.
inline core::Trinit OpenPaperEngine() {
  auto engine = core::Trinit::Open(BuildPaperXkg());
  if (!engine.ok()) std::exit(1);
  if (!engine->AddManualRules(kPaperRulesText).ok()) std::exit(1);
  return std::move(engine).value();
}

/// A synthetic world sized for evaluation benches: large enough for 70
/// distinct queries, small enough that a 4-system sweep stays fast.
inline synth::World EvalWorld(uint64_t seed = 2016) {
  synth::WorldSpec spec;
  spec.seed = seed;
  spec.num_persons = 220;
  spec.num_universities = 22;
  spec.num_institutes = 12;
  spec.num_cities = 30;
  spec.num_countries = 8;
  spec.num_prizes = 8;
  spec.num_fields = 10;
  spec.predicates = synth::WorldSpec::DefaultPredicates();
  return synth::KgGenerator::Generate(spec);
}

}  // namespace trinit::bench

#endif  // TRINIT_BENCH_BENCH_UTIL_H_
