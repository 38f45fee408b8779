// trinit_bench — the repository's wall-time benchmark.
//
// Drives one of four seeded workloads through the public API of
// core::Trinit, checks the answers, and prints each metric by name and
// unit, then one JSON result line:
//
//   trinit_bench --workload <explore|cold-scan|join-heavy|mixed-rw>
//                --seed <n> --seconds <s> --trace <0|1>
//                [--scratch <dir>] [--out <result.json>]
//
// --trace 0 reports the end-to-end metrics. --trace 1 runs the same
// workload with spans around every public call of every other request
// (traced and untraced requests interleave, so their latency difference
// is the tracing overhead), then replays each distinct query once
// through parse -> rewrite -> compile -> cache-free answer -> Execute,
// and reports the per-layer metrics read from those spans. The spans
// are written to <scratch>/spans-<workload>-<seed>.json at exit.
// Snapshots written by the run also go to <scratch> (default ".").
//
// The world is fixed per workload (WorldSpec::Scaled(1e5), ~74k
// triples; join-heavy Scaled(5e4), ~37k; world seed 2016); the seed
// drives everything the workload sends: query pools, Zipf draws, pass
// orders and written facts. Generating the world and the queries is
// input synthesis and is timed by no metric. See README.md for the
// workloads, the metric glossary and how to compare two commits.
//
// Exits non-zero when an answer check fails, when a reported p99 rests
// on fewer than 1,000 samples, or on bad arguments.

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/trinit.h"
#include "eval/metrics.h"
#include "eval/runner.h"
#include "eval/workload.h"
#include "openie/pipeline.h"
#include "plan/planner.h"
#include "query/binding.h"
#include "query/parser.h"
#include "relax/rewriter.h"
#include "synth/corpus_generator.h"
#include "synth/kg_generator.h"
#include "topk/exhaustive_processor.h"
#include "topk/relaxed_stream.h"
#include "util/random.h"

namespace {

using namespace trinit;
using Clock = std::chrono::steady_clock;

// --------------------------------------------------------------- sizes
// A run, set-up and checks included, must stay near 25 s, which bounds
// the worlds at ~74k triples and join-heavy's, whose passes are the
// slowest, at ~37k.
constexpr size_t kWorldTriples = 100000;
constexpr size_t kJoinWorldTriples = 50000;  // three passes fit the run
constexpr uint64_t kWorldSeed = 2016;
constexpr int kK = 10;
constexpr int kSetupReps = 3;
constexpr size_t kExplorePool = 500;  // fits the 1,024-entry answer LRU
constexpr size_t kScanPool = 1000;
constexpr size_t kJoinPerTemplate = 175;  // 1,050 distinct
constexpr size_t kWarmQueries = 200;
constexpr size_t kEvalQueries = 300;
constexpr uint64_t kEvalSeed = 99;
constexpr size_t kCheckQueries = 100;
constexpr size_t kMinP99Samples = 1000;
constexpr int kReaders = 2;
constexpr double kReaderRate = 100.0;  // requests per second per reader
constexpr double kWriteIntervalS = 2.0;
constexpr size_t kFactsPerWrite = 20;
constexpr size_t kPostRounds = 12;  // mapped opens and probe writes
constexpr size_t kMaxTimedSpans = 200000;

uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t x = seed * 0x9e3779b97f4a7c15ULL + salt * 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 31;
  return x == 0 ? 1 : x;
}

double Millis(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

// ----------------------------------------------------------- statistics

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// The lower of the two middle values for an even count: of two
/// samples, the faster, which a burst of interference on the host
/// cannot inflate.
double LowerMedian(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[(v.size() - 1) / 2];
}

/// Nearest-rank quantile: the p99 of 1,000 samples leaves 10 above it.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

/// Quantile `q` of values each standing for `count` samples: the
/// smallest value whose cumulative count reaches q of the total.
double WeightedQuantile(std::vector<std::pair<double, size_t>> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  double total = 0.0;
  for (const auto& [value, count] : v) total += static_cast<double>(count);
  double cumulative = 0.0;
  for (const auto& [value, count] : v) {
    cumulative += static_cast<double>(count);
    if (cumulative >= q * total) return value;
  }
  return v.back().first;
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// p99s resting on too few samples; any entry fails the run.
std::vector<std::string> g_thin_p99;

double P99(const std::vector<double>& v, const std::string& name) {
  if (!v.empty() && v.size() < kMinP99Samples) {
    g_thin_p99.push_back(name + " has " + std::to_string(v.size()) +
                         " samples");
  }
  return Quantile(v, 0.99);
}

// --------------------------------------------------------------- spans

struct SpanRecord {
  const char* name;
  uint64_t id;
  uint64_t parent;  // 0 for a request's root span
  uint64_t request;
  double start_us;  // since the benchmark started
  double end_us;
};

/// Per-thread span buffers, merged and written when the run ends.
class SpanLog {
 public:
  std::vector<SpanRecord>* ThreadBuffer() {
    thread_local std::vector<SpanRecord>* buffer = nullptr;
    if (buffer == nullptr) {
      std::lock_guard<std::mutex> lock(mu_);
      buffers_.push_back(std::make_unique<std::vector<SpanRecord>>());
      buffer = buffers_.back().get();
    }
    return buffer;
  }

  /// Every recorded span; call only once the recording threads joined.
  std::vector<SpanRecord> All() {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<SpanRecord> all;
    for (const auto& buffer : buffers_) {
      all.insert(all.end(), buffer->begin(), buffer->end());
    }
    return all;
  }

 private:
  std::mutex mu_;
  std::vector<std::unique_ptr<std::vector<SpanRecord>>> buffers_;
};

SpanLog g_spans;
std::atomic<uint64_t> g_next_span{1};
std::atomic<uint64_t> g_next_request{1};
std::atomic<size_t> g_span_count{0};
const Clock::time_point g_epoch = Clock::now();

thread_local bool t_traced = false;
thread_local uint64_t t_parent = 0;
thread_local uint64_t t_request = 0;

/// Times one call. When the enclosing request is traced it is also
/// recorded as a span, parented to the innermost open span. Spans on
/// one thread must end in reverse order of creation.
class Span {
 public:
  explicit Span(const char* name) : name_(name), start_(Clock::now()) {
    if (t_traced) {
      id_ = g_next_span.fetch_add(1, std::memory_order_relaxed);
      parent_ = t_parent;
      t_parent = id_;
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { End(); }

  void Rename(const char* name) { name_ = name; }

  /// Ends the span (idempotent); returns its duration in microseconds.
  double End() {
    if (!ended_) {
      end_ = Clock::now();
      ended_ = true;
      if (id_ != 0) {
        t_parent = parent_;
        g_span_count.fetch_add(1, std::memory_order_relaxed);
        auto us = [](Clock::time_point t) {
          return std::chrono::duration<double, std::micro>(t - g_epoch)
              .count();
        };
        g_spans.ThreadBuffer()->push_back(
            {name_, id_, parent_, t_request, us(start_), us(end_)});
      }
    }
    return std::chrono::duration<double, std::micro>(end_ - start_).count();
  }

 private:
  const char* name_;
  Clock::time_point start_;
  Clock::time_point end_;
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
  bool ended_ = false;
};

/// Scopes one request on the current thread: a fresh request id, and
/// whether its spans are recorded.
class RequestScope {
 public:
  explicit RequestScope(bool traced) {
    t_traced = traced;
    t_request = g_next_request.fetch_add(1, std::memory_order_relaxed);
  }
  RequestScope(const RequestScope&) = delete;
  RequestScope& operator=(const RequestScope&) = delete;
  ~RequestScope() { t_traced = false; }
};

// ---------------------------------------------------------- arguments

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string scratch = ".";
  std::string out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--scratch") {
      args->scratch = value;
    } else if (flag == "--out") {
      args->out = value;
    } else {
      return false;
    }
  }
  static const std::set<std::string> kWorkloads = {"explore", "cold-scan",
                                                   "join-heavy", "mixed-rw"};
  return have_workload && kWorkloads.count(args->workload) > 0;
}

/// Whether request `n` of a timed phase is traced: every other one, so
/// traced and untraced requests interleave, until the run has used its
/// span budget. Set-up, replay and post-run calls are always traced in
/// a trace run.
bool TraceRequest(const Args& args, uint64_t n) {
  return args.trace && n % 2 == 1 &&
         g_span_count.load(std::memory_order_relaxed) < kMaxTimedSpans;
}

// ------------------------------------------------------------- report

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Report {
  std::vector<Metric> metrics;
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<std::string> failures;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void Fail(const std::string& why) {
    ++failed;
    if (failures.size() < 20) failures.push_back(why);
  }
};

[[noreturn]] void Die(const std::string& why) {
  std::fprintf(stderr, "trinit_bench: %s\n", why.c_str());
  std::exit(1);
}

double RssMb() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmRSS:", 6) == 0) kb = std::atof(line + 6);
  }
  std::fclose(f);
  return kb / 1024.0;
}

// -------------------------------------------------------------- inputs

struct PoolEntry {
  std::string text;
  query::Query parsed;  // for Suggest; parsed before timing
};

std::vector<std::string> GeneratedQueries(const synth::World& world,
                                          uint64_t seed, size_t n) {
  eval::WorkloadGenerator::Options options;
  options.num_queries = n;
  options.seed = seed;
  // Kept in generator order: archetypes come round-robin, so each Zipf
  // rank holds the same archetype under every seed and the popular head
  // of the mix does not change with it.
  std::vector<std::string> texts;
  for (eval::EvalQuery& q : eval::WorkloadGenerator::Generate(world, options)
                                .queries) {
    texts.push_back(std::move(q.text));
  }
  return texts;
}

/// The six join templates of bench_p2_join, each completed by one
/// constant: a city, university, country or person. The fourth is the
/// wildcard `?x ?r ?y ; ?x hasAdvisor P`.
struct JoinTemplate {
  synth::EntityClass cls;
  const char* prefix;
  const char* suffix;
};
constexpr JoinTemplate kJoinTemplates[] = {
    {synth::EntityClass::kCity,
     "SELECT ?x WHERE ?x affiliation ?u ; ?u campusIn ", ""},
    {synth::EntityClass::kUniversity,
     "SELECT ?x WHERE ?x wonPrize ?p ; ?x affiliation ", ""},
    {synth::EntityClass::kCountry,
     "SELECT ?x ?c WHERE ?x wonPrize ?p ; ?x bornIn ?c ; ?c locatedIn ", ""},
    {synth::EntityClass::kPerson, "SELECT ?x WHERE ?x ?r ?y ; ?x hasAdvisor ",
     ""},
    {synth::EntityClass::kCity,
     "SELECT ?x ?u WHERE ?x affiliation ?u ; ?u campusIn ", " ; ?x bornIn ?b"},
    {synth::EntityClass::kUniversity,
     "SELECT ?a ?b WHERE ?a hasAdvisor ?b ; ?b affiliation ", ""},
};

/// At least `n` distinct entities of class `cls` drawn by popularity
/// (the Zipf law World::SampleEntity uses), stratified: the i-th of S
/// draws falls in the i-th of S equal slices of the popularity
/// distribution, with S the smallest step that yields `n` distinct. The
/// popular head, which sets the slowest joins, is then the same under
/// every seed, and the seed varies the tail.
std::vector<uint32_t> StratifiedByPopularity(const synth::World& world,
                                             synth::EntityClass cls, size_t n,
                                             Rng& rng) {
  const std::vector<uint32_t>& members = world.OfClass(cls);  // by rank
  std::vector<double> cdf(members.size());
  double total = 0.0;
  for (size_t r = 0; r < members.size(); ++r) {
    total += std::pow(static_cast<double>(r + 1), -world.spec.popularity_skew);
    cdf[r] = total;
  }
  std::set<size_t> ranks;
  for (size_t slices = n; ranks.size() < std::min(n, members.size());
       slices += std::max<size_t>(1, n / 8)) {
    ranks.clear();
    for (size_t i = 0; i < slices; ++i) {
      const double u = (static_cast<double>(i) + rng.UniformDouble()) /
                       static_cast<double>(slices) * total;
      ranks.insert(std::min<size_t>(
          std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin(),
          members.size() - 1));
    }
  }
  std::vector<uint32_t> out;
  for (size_t rank : ranks) out.push_back(members[rank]);
  return out;
}

/// At least `per_template` distinct instances of each join template.
std::vector<std::string> JoinQueries(const synth::World& world, uint64_t seed,
                                     size_t per_template) {
  Rng rng(Mix(seed, 5));
  std::vector<std::string> texts;
  for (const JoinTemplate& t : kJoinTemplates) {
    for (uint32_t entity :
         StratifiedByPopularity(world, t.cls, per_template, rng)) {
      texts.push_back(t.prefix + world.entities[entity].name + t.suffix);
    }
  }
  return texts;
}

/// cold-scan's pool: a fixed number of distinct queries per archetype,
/// so the latency mix is the same under every seed. The join and
/// paraphrase archetypes hold 600 of the 1,000, which puts the median on
/// the narrow join-advisor path, in milliseconds, and the p99 in the
/// paraphrase-decode tail. (Lookups take tens of microseconds, where
/// interference on a shared host moves a run's median by a quarter.)
/// The world yields only ~175 distinct join-advisor queries.
std::vector<std::string> ScanQueries(const synth::World& world,
                                     uint64_t seed) {
  static const std::map<std::string, size_t> kQuota = {
      {"granularity", 130},  {"inversion", 135},   {"text-only", 135},
      {"join-advisor", 150}, {"join-campus", 300}, {"paraphrase", 150}};
  eval::WorkloadGenerator::Options options;
  options.num_queries = 3000;  // enough of every archetype for its quota
  options.seed = seed;
  std::map<std::string, size_t> taken;
  std::vector<std::string> texts;
  for (eval::EvalQuery& q :
       eval::WorkloadGenerator::Generate(world, options).queries) {
    auto quota = kQuota.find(q.archetype);
    if (quota != kQuota.end() && taken[q.archetype]++ < quota->second) {
      texts.push_back(std::move(q.text));
    }
  }
  if (texts.size() != kScanPool) {
    Die("cold-scan pool short of its archetype quotas: " +
        std::to_string(texts.size()));
  }
  return texts;
}

struct Inputs {
  std::vector<std::string> pool;  // the workload's distinct queries
  std::vector<std::string> warm;  // set-up warm-up queries
  eval::Workload eval;            // fixed NDCG@5 set
  std::vector<std::string> cities;
};

Inputs MakeInputs(const synth::World& world, const Args& args) {
  Inputs in;
  const uint64_t warm_seed = Mix(args.seed, 1000003);
  if (args.workload == "explore" || args.workload == "mixed-rw") {
    in.pool = GeneratedQueries(world, args.seed, kExplorePool);
    in.warm = in.pool;
  } else if (args.workload == "cold-scan") {
    in.pool = ScanQueries(world, args.seed);
    in.warm = GeneratedQueries(world, warm_seed, kWarmQueries);
  } else {
    in.pool = JoinQueries(world, args.seed, kJoinPerTemplate);
    in.warm = JoinQueries(world, warm_seed, kWarmQueries / 6);
  }
  eval::WorkloadGenerator::Options eval_options;
  eval_options.num_queries = kEvalQueries;
  eval_options.seed = kEvalSeed;
  in.eval = eval::WorkloadGenerator::Generate(world, eval_options);
  for (uint32_t city : world.OfClass(synth::EntityClass::kCity)) {
    in.cities.push_back(world.entities[city].name);
  }
  return in;
}

// ------------------------------------------------------------- set-up

Result<core::Trinit> BuildEngine(const synth::World& world,
                                 const core::TrinitOptions& options) {
  // Trinit::FromWorld's public steps, called one by one so each is a
  // span (build.xkg covers populating and building the XKG).
  xkg::XkgBuilder builder;
  Span populate("build.xkg");
  synth::KgGenerator::PopulateKg(world, &builder);
  populate.End();
  Span corpus_span("build.corpus");
  std::vector<synth::Document> docs = synth::CorpusGenerator::Generate(world);
  corpus_span.End();
  Span openie_span("build.openie");
  openie::Pipeline pipeline(openie::Extractor(),
                            openie::Pipeline::LinkerForWorld(world));
  pipeline.Run(docs, &builder);
  openie_span.End();
  Span build_span("build.xkg");
  Result<xkg::Xkg> xkg = builder.Build();
  build_span.End();
  if (!xkg.ok()) return xkg.status();
  Span mine_span("build.mine");
  return core::Trinit::Open(std::move(xkg).value(), options);
}

core::TrinitOptions EngineOptions(const Args& args) {
  core::TrinitOptions options;
  if (args.workload == "cold-scan" || args.workload == "join-heavy") {
    options.serving.cache_answers = false;
  }
  return options;
}

std::string SnapshotPath(const Args& args, const char* tag) {
  return args.scratch + "/trinit_bench-" + args.workload + "-" +
         std::to_string(args.seed) + "-" + tag + ".snap";
}

/// Sets the engine up kSetupReps times from the same world and keeps
/// the last one: build, warm-up, and for cold-scan a save and a mapped
/// reopen (the restarted server).
core::Trinit SetUp(const Args& args, const synth::World& world,
                   const Inputs& in, std::vector<double>* setup_s) {
  std::optional<core::Trinit> engine;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    engine.reset();
    RequestScope scope(args.trace);
    Span setup("setup");
    Result<core::Trinit> built = BuildEngine(world, EngineOptions(args));
    if (!built.ok()) Die("engine build failed: " + built.status().ToString());
    engine.emplace(std::move(built).value());
    {
      Span warm("warm");
      for (const std::string& text : in.warm) {
        if (!engine->Execute(core::QueryRequest::Text(text, kK)).ok()) {
          Die("warm-up query failed: " + text);
        }
      }
    }
    if (args.workload == "cold-scan") {
      const std::string path = SnapshotPath(args, "setup");
      Span save("Save");
      Status saved = engine->Save(path);
      save.End();
      if (!saved.ok()) Die("save failed: " + saved.ToString());
      engine.reset();
      core::TrinitOptions options = EngineOptions(args);
      options.snapshot_read.mode = storage::LoadMode::kMapped;
      Span open("Open");
      Result<core::Trinit> reopened = core::Trinit::Open(path, options);
      open.End();
      if (!reopened.ok()) Die("open failed: " + reopened.status().ToString());
      engine.emplace(std::move(reopened).value());
    }
    setup_s->push_back(setup.End() / 1e6);
  }
  return std::move(*engine);
}

double Ndcg5(const core::Trinit& engine, const eval::Workload& workload,
             Report* report) {
  double sum = 0.0;
  for (const eval::EvalQuery& q : workload.queries) {
    ++report->attempted;
    Result<core::QueryResponse> response =
        engine.Execute(core::QueryRequest::Text(q.text, kK));
    if (!response.ok()) {
      report->Fail("eval query failed: " + q.text);
      continue;
    }
    std::vector<int> grades;
    for (const std::string& key :
         eval::KeysFromResult(engine.xkg(), response->result())) {
      grades.push_back(workload.qrels.Grade(q.id, key));
    }
    sum += eval::NdcgAtK(grades, workload.qrels.IdealGrades(q.id), 5);
  }
  return Ratio(sum, static_cast<double>(workload.queries.size()));
}

// ------------------------------------------------------------ requests

Result<core::QueryResponse> Execute(const core::Trinit& engine,
                                    const std::string& text) {
  Span span("Execute");
  Result<core::QueryResponse> response =
      engine.Execute(core::QueryRequest::Text(text, kK));
  if (response.ok()) {
    span.Rename(response->serving.answer_hit ? "Execute.hit"
                                             : "Execute.miss");
  }
  return response;
}

/// The reformulation of the highest-ranked suggestion that carries one:
/// the query's quoted token replaced by the suggested resource. Empty
/// when no suggestion reformulates.
std::string Reformulate(const std::string& text,
                        const std::vector<suggest::Suggestion>& suggestions) {
  for (const suggest::Suggestion& s : suggestions) {
    if (s.kind == suggest::Suggestion::Kind::kRuleFeedback ||
        s.replacement.empty()) {
      continue;
    }
    const size_t open = text.find('\'');
    const size_t close =
        open == std::string::npos ? open : text.find('\'', open + 1);
    if (close == std::string::npos) return "";
    return text.substr(0, open) + s.replacement + text.substr(close + 1);
  }
  return "";
}

/// One exploration session (paper §5): query, explain the top answer,
/// render the answers, ask for suggestions, follow the reformulation.
/// Returns false when a call failed.
bool Session(const core::Trinit& engine, const PoolEntry& q) {
  Result<core::QueryResponse> response = Execute(engine, q.text);
  if (!response.ok()) return false;
  const topk::TopKResult& result = response->result();
  if (!result.answers.empty()) {
    Span span("Explain");
    explain::Explanation explanation = engine.Explain(result, 0);
  }
  for (size_t rank = 0; rank < result.answers.size(); ++rank) {
    Span span("RenderAnswer");
    std::string rendered = engine.RenderAnswer(result, rank);
  }
  std::vector<suggest::Suggestion> suggestions;
  {
    Span span("Suggest");
    suggestions = engine.Suggest(q.parsed, result);
  }
  const std::string reformulated = Reformulate(q.text, suggestions);
  return reformulated.empty() || Execute(engine, reformulated).ok();
}

// -------------------------------------------------------------- writes

struct WriteLog {
  std::vector<std::pair<std::string, std::string>> persons;  // acked
  std::vector<double> ms;                                    // acked writes
  std::vector<std::pair<Clock::time_point, Clock::time_point>> windows;
  size_t attempted = 0;
  std::vector<std::string> failures;
};

/// Write number `w` of a phase: every 4th adds a manual rule, the others
/// extend the KG with kFactsPerWrite new people born in seeded cities.
void Write(core::Trinit& engine, const char* phase, size_t w, uint64_t seed,
           const std::vector<std::string>& cities, Rng& rng, WriteLog* log) {
  ++log->attempted;
  const std::string tag =
      phase + std::to_string(seed) + "_" + std::to_string(w);
  std::vector<std::pair<std::string, std::string>> added;
  Status status = Status::Ok();
  const Clock::time_point began = Clock::now();
  double us = 0.0;
  if (w % 4 == 3) {
    const std::string rule = "bench_rule_" + tag + ": ?x bornAt" + tag +
                             " ?y => ?x bornIn ?y @ 0.9";
    Span span("AddManualRules");
    status = engine.AddManualRules(rule);
    us = span.End();
  } else {
    std::string facts;
    for (size_t j = 0; j < kFactsPerWrite; ++j) {
      std::string person = "NewPerson_" + tag + "_" + std::to_string(j);
      const std::string& city = cities[rng.Uniform(cities.size())];
      facts += person + " bornIn " + city + "\n";
      added.emplace_back(std::move(person), city);
    }
    Span span("ExtendKg");
    status = engine.ExtendKg(facts);
    us = span.End();
  }
  log->windows.emplace_back(began, Clock::now());
  if (!status.ok()) {
    log->failures.push_back("write " + tag + ": " + status.ToString());
    return;
  }
  log->ms.push_back(us / 1e3);
  log->persons.insert(log->persons.end(), added.begin(), added.end());
}

// ------------------------------------------------------ timed workloads

struct Timed {
  std::vector<double> latency_ms;  // one per unit of work
  // explore only, instead of latency_ms: each query's median session
  // time with its session count
  std::vector<std::pair<double, size_t>> weighted_ms;
  double throughput = 0.0;         // units per second
  double elapsed_s = 0.0;
  std::vector<double> traced_ms;   // request latencies by trace state
  std::vector<double> untraced_ms;
  std::vector<double> late_ms;     // open-loop generator lateness
  double stalled_ratio = 0.0;      // reads due while a write held the engine
};

/// What the report needs of a timed phase.
struct Summary {
  size_t samples = 0;
  double latency_p50_ms = 0.0;
  double latency_p99_ms = 0.0;
  double throughput = 0.0;
  double elapsed_s = 0.0;
  double late_p99_ms = 0.0;
  double stalled_ratio = 0.0;
  double trace_overhead_pct = 0.0;
};

Summary Summarize(const Timed& t) {
  Summary s;
  if (t.weighted_ms.empty()) {
    s.samples = t.latency_ms.size();
    s.latency_p50_ms = Median(t.latency_ms);
    s.latency_p99_ms = P99(t.latency_ms, "latency_p99_ms");
  } else {
    for (const auto& [ms, count] : t.weighted_ms) s.samples += count;
    if (s.samples < kMinP99Samples) {
      g_thin_p99.push_back("latency_p99_ms has " + std::to_string(s.samples) +
                           " samples");
    }
    s.latency_p50_ms = WeightedQuantile(t.weighted_ms, 0.5);
    s.latency_p99_ms = WeightedQuantile(t.weighted_ms, 0.99);
  }
  s.throughput = t.throughput;
  s.elapsed_s = t.elapsed_s;
  s.late_p99_ms = P99(t.late_ms, "bench.gen_late_ms_p99");
  s.stalled_ratio = t.stalled_ratio;
  s.trace_overhead_pct =
      (Ratio(Mean(t.traced_ms), Mean(t.untraced_ms)) - 1.0) * 100.0;
  return s;
}

/// explore: one closed-loop client running sessions over the pool by
/// Zipf(1.0); the unit of work is the session. Sessions take a few
/// microseconds, so a burst of interference on the host would reach
/// their tail: each session counts at its query's median session time,
/// as a query counts at its median over passes in RunPasses.
/// Throughput is the median over the run's whole seconds of the
/// sessions completed in each.
Timed RunExplore(const core::Trinit& engine,
                 const std::vector<PoolEntry>& pool, const Args& args,
                 Report* report) {
  Rng rng(Mix(args.seed, 1));
  Rng::ZipfTable zipf(pool.size(), 1.0);
  std::vector<std::vector<double>> per_query(pool.size());
  std::vector<double> per_second;
  Timed t;
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(args.seconds));
  for (uint64_t n = 0;; ++n) {
    const Clock::time_point now = Clock::now();
    if (now >= deadline) break;
    const size_t second = static_cast<size_t>(Millis(now - start) / 1e3);
    if (second >= per_second.size()) per_second.resize(second + 1, 0.0);
    per_second[second] += 1.0;
    const size_t i = zipf.Sample(rng);
    const bool traced = TraceRequest(args, n);
    RequestScope scope(traced);
    Span session("session");
    ++report->attempted;
    const bool ok = Session(engine, pool[i]);
    const double ms = session.End() / 1e3;
    if (!ok) {
      report->Fail("session failed: " + pool[i].text);
      continue;
    }
    per_query[i].push_back(ms);
    (traced ? t.traced_ms : t.untraced_ms).push_back(ms);
  }
  t.elapsed_s = Millis(Clock::now() - start) / 1e3;
  for (const std::vector<double>& samples : per_query) {
    if (!samples.empty()) {
      t.weighted_ms.emplace_back(LowerMedian(samples), samples.size());
    }
  }
  if (per_second.size() > 1) per_second.pop_back();  // partial second
  t.throughput = Median(per_second);
  return t;
}

/// cold-scan and join-heavy: one closed-loop client running passes over
/// the distinct pool in seeded order until the time is up (the first
/// pass always completes). A query's latency is the (lower) median of
/// its passes; percentiles are taken across queries, and throughput is the
/// rate of a pass at those medians (one client: pool size over their
/// sum).
Timed RunPasses(const core::Trinit& engine,
                const std::vector<std::string>& pool, const Args& args,
                Report* report) {
  Rng rng(Mix(args.seed, 2));
  std::vector<std::vector<double>> per_query(pool.size());
  std::vector<size_t> order(pool.size());
  std::iota(order.begin(), order.end(), size_t{0});
  Timed t;
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(args.seconds));
  uint64_t n = 0;
  for (size_t pass = 0; !pool.empty(); ++pass) {
    rng.Shuffle(order);
    bool done = false;
    for (size_t i : order) {
      if (pass > 0 && Clock::now() >= deadline) {
        done = true;
        break;
      }
      const bool traced = TraceRequest(args, n++);
      RequestScope scope(traced);
      Span span("query");
      ++report->attempted;
      const bool ok = Execute(engine, pool[i]).ok();
      const double ms = span.End() / 1e3;
      if (!ok) {
        report->Fail("query failed: " + pool[i]);
        continue;
      }
      per_query[i].push_back(ms);
      (traced ? t.traced_ms : t.untraced_ms).push_back(ms);
    }
    if (done) break;
  }
  t.elapsed_s = Millis(Clock::now() - start) / 1e3;
  for (const std::vector<double>& samples : per_query) {
    if (!samples.empty()) t.latency_ms.push_back(LowerMedian(samples));
  }
  t.throughput = Ratio(1e3, Mean(t.latency_ms));
  return t;
}

/// mixed-rw: kReaders open-loop readers at kReaderRate each over the
/// Zipf pool, latency timed from each request's due time, beside one
/// writer issuing a write every kWriteIntervalS.
Timed RunMixed(core::Trinit& engine, const std::vector<PoolEntry>& pool,
               const Inputs& in, const Args& args, Report* report,
               WriteLog* writes) {
  struct ReaderOut {
    std::vector<double> latency_ms, late_ms, traced_ms, untraced_ms;
    std::vector<Clock::time_point> due;
    std::vector<std::string> failures;
  };
  std::vector<ReaderOut> outs(kReaders);
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  const auto at = [start](double seconds) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(seconds));
  };
  const Clock::time_point end = at(args.seconds);

  auto reader = [&](int r) {
    Rng rng(Mix(args.seed, 10 + static_cast<uint64_t>(r)));
    Rng::ZipfTable zipf(pool.size(), 1.0);
    ReaderOut& out = outs[static_cast<size_t>(r)];
    for (uint64_t i = 0;; ++i) {
      const Clock::time_point due =
          at((static_cast<double>(i) + static_cast<double>(r) / kReaders) /
             kReaderRate);
      if (due >= end) break;
      std::this_thread::sleep_until(due);
      out.late_ms.push_back(Millis(Clock::now() - due));
      const PoolEntry& q = pool[zipf.Sample(rng)];
      const bool traced = TraceRequest(args, i);
      RequestScope scope(traced);
      Span span("read");
      const bool ok = Execute(engine, q.text).ok();
      span.End();
      const double ms = Millis(Clock::now() - due);
      if (!ok) {
        out.failures.push_back("read failed: " + q.text);
        continue;
      }
      out.latency_ms.push_back(ms);
      out.due.push_back(due);
      (traced ? out.traced_ms : out.untraced_ms).push_back(ms);
    }
  };
  auto writer = [&]() {
    Rng rng(Mix(args.seed, 20));
    for (size_t w = 0;; ++w) {
      const Clock::time_point due =
          at((static_cast<double>(w) + 0.5) * kWriteIntervalS);
      if (due >= end) break;
      std::this_thread::sleep_until(due);
      RequestScope scope(args.trace);
      Write(engine, "run", w, args.seed, in.cities, rng, writes);
    }
  };

  std::vector<std::thread> threads;
  for (int r = 0; r < kReaders; ++r) threads.emplace_back(reader, r);
  threads.emplace_back(writer);
  for (std::thread& thread : threads) thread.join();

  Timed t;
  t.elapsed_s = Millis(Clock::now() - start) / 1e3;
  size_t stalled = 0;
  for (ReaderOut& out : outs) {
    report->attempted += out.latency_ms.size() + out.failures.size();
    for (const std::string& failure : out.failures) report->Fail(failure);
    for (const Clock::time_point& due : out.due) {
      for (const auto& [began, ended] : writes->windows) {
        if (due >= began && due <= ended) {
          ++stalled;
          break;
        }
      }
    }
    t.latency_ms.insert(t.latency_ms.end(), out.latency_ms.begin(),
                        out.latency_ms.end());
    t.late_ms.insert(t.late_ms.end(), out.late_ms.begin(), out.late_ms.end());
    t.traced_ms.insert(t.traced_ms.end(), out.traced_ms.begin(),
                       out.traced_ms.end());
    t.untraced_ms.insert(t.untraced_ms.end(), out.untraced_ms.begin(),
                         out.untraced_ms.end());
  }
  t.throughput =
      Ratio(static_cast<double>(t.latency_ms.size()), t.elapsed_s);
  t.stalled_ratio = Ratio(static_cast<double>(stalled),
                          static_cast<double>(t.latency_ms.size()));
  return t;
}

// -------------------------------------------------------------- replay

struct ReplayTotals {
  double queries = 0, alternatives_total = 0, alternatives_opened = 0;
  double decoded = 0, pulled = 0, tried = 0, probes = 0, fallbacks = 0;
  double card_err_sum = 0, card_steps = 0;
};

/// Sends every distinct pool query through the layers one public call at
/// a time, enough passes for 1,000 samples per layer. Engines with an
/// answer cache get a rule added before each pass, so Execute misses.
ReplayTotals Replay(core::Trinit& engine, const std::vector<std::string>& pool,
                    const Args& args, Report* report) {
  ReplayTotals totals;
  const bool cache_answers = engine.options().serving.cache_answers;
  topk::ProcessorOptions processor = engine.options().processor;
  processor.k = kK;
  const size_t passes = (kMinP99Samples + pool.size() - 1) / pool.size();
  for (size_t pass = 0; pass < passes; ++pass) {
    if (cache_answers) {
      RequestScope scope(true);
      Span span("AddManualRules");
      const std::string rule = "replay_" + std::to_string(args.seed) + "_" +
                               std::to_string(pass) + ": ?x replayPred" +
                               std::to_string(pass) +
                               " ?y => ?x bornIn ?y @ 0.9";
      if (!engine.AddManualRules(rule).ok()) report->Fail("replay rule");
    }
    relax::RuleSet structural;
    for (const relax::Rule& rule : engine.rules().rules()) {
      if (rule.lhs.size() > 1 && !structural.Add(rule).ok()) {
        report->Fail("structural rule copy");
      }
    }
    relax::Rewriter::Options structural_options = processor.rewrite;
    structural_options.max_rewrites = processor.max_query_variants;
    for (const std::string& text : pool) {
      RequestScope scope(true);
      Span root("replay");
      ++report->attempted;
      Span parse("replay.parse");
      Result<query::Query> parsed =
          query::Parser::Parse(text, &engine.xkg().dict());
      parse.End();
      if (!parsed.ok()) {
        report->Fail("replay parse: " + text);
        continue;
      }
      query::Query canonical(parsed->patterns(),
                             parsed->EffectiveProjection());
      canonical.ResolveAgainst(engine.xkg().dict());

      Span rewrite("replay.rewrite");
      if (processor.enable_relaxation && structural.size() > 0) {
        relax::Rewriter rewriter(structural, structural_options);
        std::vector<relax::RewriteResult> variants =
            rewriter.EnumerateRewrites(canonical);
      }
      if (processor.enable_relaxation) {
        relax::Rewriter rewriter(engine.rules(), processor.rewrite);
        for (const query::TriplePattern& pattern : canonical.patterns()) {
          std::vector<topk::Alternative> alternatives =
              topk::AlternativesForPattern(rewriter, pattern);
        }
      }
      rewrite.End();

      Span compile("replay.compile");
      {
        query::VarTable vars(canonical);
        std::shared_ptr<const plan::JoinPlan> plan = plan::Planner::Compile(
            canonical, vars, engine.xkg(), processor.use_cost_order);
      }
      compile.End();

      // A fresh processor owns a fresh plan cache: nothing is cached.
      topk::TopKProcessor fresh(engine.xkg(), engine.rules(),
                                engine.options().scorer, processor);
      Span answer_span("replay.answer");
      Result<topk::TopKResult> answer = fresh.Answer(*parsed);
      answer_span.End();
      if (!answer.ok()) {
        report->Fail("replay answer: " + text);
        continue;
      }
      const topk::TopKResult::RunStats& stats = answer->stats;
      totals.queries += 1;
      totals.alternatives_total += static_cast<double>(stats.alternatives_total);
      totals.alternatives_opened +=
          static_cast<double>(stats.alternatives_opened);
      totals.decoded += static_cast<double>(stats.items_decoded);
      totals.pulled += static_cast<double>(stats.items_pulled);
      totals.tried += static_cast<double>(stats.combinations_tried);
      totals.probes += static_cast<double>(stats.partition_probes);
      totals.fallbacks += static_cast<double>(stats.partition_fallbacks);
      for (const topk::TopKResult::PlanStep& step : answer->plan) {
        totals.card_err_sum += std::fabs(std::log2(
            (static_cast<double>(step.pulled) + 1.0) / (step.estimated + 1.0)));
        totals.card_steps += 1;
      }

      Span execute("replay.execute");
      Result<core::QueryResponse> response =
          engine.Execute(core::QueryRequest::Text(text, kK));
      execute.End();
      if (!response.ok()) {
        report->Fail("replay execute: " + text);
        continue;
      }
      const topk::TopKResult& result = response->result();
      if (!result.answers.empty()) {
        Span span("replay.explain");
        explain::Explanation explanation = engine.Explain(result, 0);
      }
      for (size_t rank = 0; rank < result.answers.size(); ++rank) {
        Span span("replay.render");
        std::string rendered = engine.RenderAnswer(result, rank);
      }
      Span suggest("replay.suggest");
      std::vector<suggest::Suggestion> suggestions =
          engine.Suggest(*parsed, result);
    }
  }
  return totals;
}

// --------------------------------------------------------------- checks

/// Samples up to `n` distinct pool queries, seeded.
std::vector<std::string> Sample(const std::vector<std::string>& pool,
                                uint64_t seed, size_t n) {
  std::vector<std::string> sample = pool;
  Rng rng(seed);
  rng.Shuffle(sample);
  if (sample.size() > n) sample.resize(n);
  return sample;
}

/// Byte-identical answers, or identical up to the order of tied scores:
/// the same score sequence, and the same bindings within every tie group
/// that the k cut-off does not split (which tied answers make the cut is
/// unspecified, as in the repository's processor property tests).
bool SameRanking(const topk::TopKResult& a, const topk::TopKResult& b) {
  if (bench::AnswerBytes(a) == bench::AnswerBytes(b)) return true;
  const size_t n = a.answers.size();
  if (b.answers.size() != n || a.projection.size() != b.projection.size()) {
    return false;
  }
  auto score = [](const topk::TopKResult& r, size_t i) {
    return std::llround(r.answers[i].score * 1e9);
  };
  auto binding = [](const topk::TopKResult& r, size_t i) {
    std::vector<rdf::TermId> values;
    for (size_t v = 0; v < r.projection.size(); ++v) {
      values.push_back(r.ValueAt(i, v));
    }
    return values;
  };
  for (size_t i = 0; i < n;) {
    size_t j = i;
    while (j < n && score(a, j) == score(a, i)) ++j;
    std::multiset<std::vector<rdf::TermId>> left, right;
    for (size_t x = i; x < j; ++x) {
      if (score(b, x) != score(a, i)) return false;
      left.insert(binding(a, x));
      right.insert(binding(b, x));
    }
    const bool cut = j == n && n == static_cast<size_t>(kK);
    if (!cut && left != right) return false;
    i = j;
  }
  return true;
}

/// Answers served by Execute must match the exhaustive reference
/// processor's over the same engine state.
void CheckAgainstExhaustive(const core::Trinit& engine,
                            const std::vector<std::string>& pool,
                            uint64_t seed, Report* report) {
  topk::ProcessorOptions processor = engine.options().processor;
  processor.k = kK;
  topk::ExhaustiveProcessor oracle(engine.xkg(), engine.rules(),
                                   engine.options().scorer, processor);
  for (const std::string& text : Sample(pool, Mix(seed, 30), kCheckQueries)) {
    ++report->attempted;
    Result<core::QueryResponse> response =
        engine.Execute(core::QueryRequest::Text(text, kK));
    Result<query::Query> parsed =
        query::Parser::Parse(text, &engine.xkg().dict());
    if (!response.ok() || !parsed.ok()) {
      report->Fail("check query failed: " + text);
      continue;
    }
    Result<topk::TopKResult> reference = oracle.Answer(*parsed);
    if (!reference.ok() || !SameRanking(response->result(), *reference)) {
      report->Fail("answers differ from ExhaustiveProcessor: " + text);
    }
  }
}

/// explore: a body served from the answer cache must equal what a
/// cache-free run computes now.
void CheckHitBodies(const core::Trinit& engine,
                    const std::vector<std::string>& pool, uint64_t seed,
                    Report* report) {
  topk::ProcessorOptions processor = engine.options().processor;
  processor.k = kK;
  size_t hits = 0;
  for (const std::string& text : Sample(pool, Mix(seed, 31), kCheckQueries)) {
    ++report->attempted;
    Result<core::QueryResponse> response =
        engine.Execute(core::QueryRequest::Text(text, kK));
    Result<query::Query> parsed =
        query::Parser::Parse(text, &engine.xkg().dict());
    if (!response.ok() || !parsed.ok()) {
      report->Fail("hit check query failed: " + text);
      continue;
    }
    if (!response->serving.answer_hit) continue;
    ++hits;
    topk::TopKProcessor fresh(engine.xkg(), engine.rules(),
                              engine.options().scorer, processor);
    Result<topk::TopKResult> miss = fresh.Answer(*parsed);
    if (!miss.ok() || bench::AnswerBytes(response->result()) !=
                          bench::AnswerBytes(*miss)) {
      report->Fail("cached body differs from a fresh run: " + text);
    }
  }
  if (hits == 0) report->Fail("no answer-cache hit after warm-up");
}

/// Every acknowledged ExtendKg must be readable: each new person's
/// top answer to `P bornIn ?x` is the city it was written with.
void CheckWritesReadBack(const core::Trinit& engine, const WriteLog& log,
                         Report* report) {
  report->attempted += log.attempted;
  for (const std::string& failure : log.failures) report->Fail(failure);
  for (const auto& [person, city] : log.persons) {
    ++report->attempted;
    Result<core::QueryResponse> response =
        engine.Execute(core::QueryRequest::Text(person + " bornIn ?x", kK));
    if (!response.ok() || response->result().answers.empty() ||
        engine.xkg().dict().label(response->result().ValueAt(0, 0)) !=
            city) {
      report->Fail("acknowledged write not read back: " + person);
    }
  }
}

// ----------------------------------------------------- per-layer metrics

double Us(const SpanRecord& s) { return s.end_us - s.start_us; }

void AddLayerMetrics(const std::vector<SpanRecord>& spans,
                     uint64_t timed_first, uint64_t timed_last,
                     const Summary& t, const ReplayTotals& replay,
                     const obs::MetricsSnapshot& registry,
                     const storage::LoadReport& load, Report* report) {
  std::map<std::string, std::vector<double>> by_name;  // per call, us
  std::vector<double> hit_us, miss_us;                 // timed phase only
  // Per request: the summed time of each span name.
  std::map<uint64_t, std::map<std::string, double>> by_request;
  for (const SpanRecord& s : spans) {
    const std::string name = s.name;
    by_name[name].push_back(Us(s));
    by_request[s.request][name] += Us(s);
    const bool timed = s.request >= timed_first && s.request < timed_last;
    if (timed && name == "Execute.hit") hit_us.push_back(Us(s));
    if (timed && name == "Execute.miss") miss_us.push_back(Us(s));
  }
  std::vector<double> overhead_us, self_us;
  for (const auto& [request, layers] : by_request) {
    auto get = [&layers](const char* layer) {
      auto it = layers.find(layer);
      return it == layers.end() ? -1.0 : it->second;
    };
    const double answer = get("replay.answer");
    if (answer < 0) continue;
    self_us.push_back(answer - get("replay.rewrite") - get("replay.compile"));
    // Execute reuses cached plans, the fresh processor compiles them:
    // take the compile out of the answer before subtracting.
    if (get("replay.execute") >= 0) {
      overhead_us.push_back(get("replay.execute") - answer +
                            get("replay.compile"));
    }
  }
  auto layer = [&by_name](const char* name) { return by_name[name]; };
  // Set-up steps: one sum per set-up (build.xkg is recorded twice per
  // build, populating and building).
  auto per_setup = [&by_request](const char* name) {
    std::vector<double> sums;
    for (const auto& [request, layers] : by_request) {
      auto it = layers.find(name);
      if (it != layers.end()) sums.push_back(it->second);
    }
    return sums;
  };
  auto counter = [&registry](const char* name) {
    const obs::MetricsSnapshot::Metric* m = registry.Find(name);
    return m == nullptr ? 0.0 : m->value;
  };
  const obs::MetricsSnapshot::Metric* sort =
      registry.Find("trinit_rdf_score_shape_sort_ms");

  report->Add("query.parse_us_p50", Median(layer("replay.parse")), "us");
  report->Add("serve.answer_hit_ratio",
              Ratio(static_cast<double>(hit_us.size()),
                    static_cast<double>(hit_us.size() + miss_us.size())),
              "ratio");
  report->Add("serve.hit_us_p50", Median(hit_us), "us");
  report->Add("serve.miss_us_p50", Median(miss_us), "us");
  report->Add("serve.evictions",
              counter("trinit_serve_answer_evictions_total"), "count");
  report->Add("serve.invalidations",
              counter("trinit_serve_invalidations_total"), "count");
  report->Add("core.overhead_us_p50", Median(overhead_us), "us");
  report->Add("relax.rewrite_us_p50", Median(layer("replay.rewrite")), "us");
  report->Add("relax.rewrite_us_p99",
              P99(layer("replay.rewrite"), "relax.rewrite_us_p99"), "us");
  report->Add("relax.alternatives_per_query",
              Ratio(replay.alternatives_total, replay.queries), "count");
  report->Add("relax.opened_ratio",
              Ratio(replay.alternatives_opened, replay.alternatives_total),
              "ratio");
  report->Add("plan.compile_us_p50", Median(layer("replay.compile")), "us");
  report->Add("plan.card_log2_err_mean",
              Ratio(replay.card_err_sum, replay.card_steps), "log2");
  report->Add("topk.answer_us_p50", Median(layer("replay.answer")), "us");
  report->Add("topk.answer_us_p99",
              P99(layer("replay.answer"), "topk.answer_us_p99"), "us");
  report->Add("topk.self_us_p50", Median(self_us), "us");
  report->Add("topk.self_us_p99", P99(self_us, "topk.self_us_p99"), "us");
  report->Add("topk.decoded_per_query", Ratio(replay.decoded, replay.queries),
              "count");
  report->Add("topk.pulled_per_query", Ratio(replay.pulled, replay.queries),
              "count");
  report->Add("topk.pull_per_decode", Ratio(replay.pulled, replay.decoded),
              "ratio");
  report->Add("topk.probes_per_pull", Ratio(replay.tried, replay.pulled),
              "ratio");
  report->Add("topk.fallback_ratio",
              Ratio(replay.fallbacks, replay.probes + replay.fallbacks),
              "ratio");
  report->Add("rdf.shape_builds", counter("trinit_rdf_score_shape_builds_total"),
              "count");
  report->Add("rdf.shape_sort_ms", sort == nullptr ? 0.0 : sort->sum, "ms");
  report->Add("explain.us_p50", Median(layer("replay.explain")), "us");
  report->Add("suggest.us_p50", Median(layer("replay.suggest")), "us");
  report->Add("suggest.us_p99",
              P99(layer("replay.suggest"), "suggest.us_p99"), "us");
  report->Add("core.render_us_p50", Median(layer("replay.render")), "us");
  report->Add("xkg.extend_ms_p50", Median(layer("ExtendKg")) / 1e3, "ms");
  report->Add("relax.add_rules_ms_p50", Median(layer("AddManualRules")) / 1e3,
              "ms");
  report->Add("core.stalled_read_ratio", t.stalled_ratio, "ratio");
  report->Add("build.corpus_s", Median(per_setup("build.corpus")) / 1e6, "s");
  report->Add("build.openie_s", Median(per_setup("build.openie")) / 1e6, "s");
  report->Add("build.xkg_s", Median(per_setup("build.xkg")) / 1e6, "s");
  report->Add("build.mine_s", Median(per_setup("build.mine")) / 1e6, "s");
  report->Add("storage.save_ms", Median(layer("Save")) / 1e3, "ms");
  report->Add("storage.bytes_touched", static_cast<double>(load.bytes_touched),
              "bytes");
  report->Add("bench.gen_late_ms_p99", t.late_p99_ms, "ms");
  report->Add("bench.trace_overhead_pct", t.trace_overhead_pct, "%");
}

void WriteSpans(const std::vector<SpanRecord>& spans,
                const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) Die("cannot write spans to " + path);
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,"
                 "\"request\":%llu,\"start_us\":%.3f,\"end_us\":%.3f}%s\n",
                 s.name, static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.start_us,
                 s.end_us, i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
}

std::string ResultJson(const Report& report, bool correct) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  return json;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: trinit_bench --workload "
                 "<explore|cold-scan|join-heavy|mixed-rw> --seed <n> "
                 "--seconds <s> --trace <0|1> [--scratch <dir>] "
                 "[--out <json>]\n");
    return 2;
  }
  Report report;

  // ---- input synthesis (timed by no metric)
  std::optional<synth::World> world(synth::KgGenerator::Generate(
      synth::WorldSpec::Scaled(args.workload == "join-heavy" ? kJoinWorldTriples
                                                             : kWorldTriples,
                               kWorldSeed)));
  Inputs in = MakeInputs(*world, args);

  // ---- set-up
  std::vector<double> setup_s;
  core::Trinit engine = SetUp(args, *world, in, &setup_s);
  world.reset();
  std::vector<PoolEntry> pool;
  for (const std::string& text : in.pool) {
    Result<query::Query> parsed =
        query::Parser::Parse(text, &engine.xkg().dict());
    if (!parsed.ok()) Die("pool query does not parse: " + text);
    pool.push_back({text, std::move(parsed).value()});
  }
  const double ndcg5 = Ndcg5(engine, in.eval, &report);
  in.eval = eval::Workload();
  // Memory of the set-up engine, warm caches included, with the input
  // synthesis freed; single-threaded so far, so it repeats run to run.
  malloc_trim(0);
  const double rss_mb = RssMb();

  // ---- timed phase
  WriteLog writes;
  const uint64_t timed_first = g_next_request.load();
  Timed t;
  if (args.workload == "explore") {
    t = RunExplore(engine, pool, args, &report);
  } else if (args.workload == "mixed-rw") {
    t = RunMixed(engine, pool, in, args, &report, &writes);
  } else {
    t = RunPasses(engine, in.pool, args, &report);
  }
  const uint64_t timed_last = g_next_request.load();
  const Summary summary = Summarize(t);
  const obs::MetricsSnapshot registry = engine.MetricsSnapshot();

  // ---- after timing: checks that need the warm cache, the traced
  // replay, a write probe on the quiesced engine, and a save with
  // mapped reopens
  if (args.workload == "explore") {
    CheckHitBodies(engine, in.pool, args.seed, &report);
  }
  ReplayTotals replay;
  if (args.trace) replay = Replay(engine, in.pool, args, &report);
  // Opens and writes alternate, so each metric's samples spread over a
  // few seconds instead of sharing one burst of interference.
  WriteLog probe;
  std::vector<double> open_ms;
  storage::LoadReport load;
  {
    const std::string path = SnapshotPath(args, "post");
    RequestScope scope(args.trace);
    Span save("Save");
    Status saved = engine.Save(path);
    save.End();
    if (!saved.ok()) Die("save failed: " + saved.ToString());
    core::TrinitOptions options = engine.options();
    options.snapshot_read.mode = storage::LoadMode::kMapped;
    Rng rng(Mix(args.seed, 3));
    for (size_t i = 0; i < kPostRounds; ++i) {
      {
        Span open("Open");
        Result<core::Trinit> reopened =
            core::Trinit::Open(path, options, &load);
        open_ms.push_back(open.End() / 1e3);
        if (!reopened.ok()) Die("open failed: " + reopened.status().ToString());
      }
      Write(engine, "probe", i, args.seed, in.cities, rng, &probe);
    }
    std::remove(path.c_str());
    std::remove(SnapshotPath(args, "setup").c_str());
  }

  CheckAgainstExhaustive(engine, in.pool, args.seed, &report);
  CheckWritesReadBack(engine, writes, &report);
  CheckWritesReadBack(engine, probe, &report);

  // ---- report
  if (!args.trace) {
    report.Add("setup_s", Median(setup_s), "s");
    report.Add("latency_p50_ms", summary.latency_p50_ms, "ms");
    report.Add("latency_p99_ms", summary.latency_p99_ms, "ms");
    report.Add("throughput_per_s", summary.throughput, "1/s");
    report.Add("rss_mb", rss_mb, "MB");
    report.Add("mutation_p50_ms", Median(probe.ms), "ms");
    report.Add("open_ms", Median(open_ms), "ms");
    report.Add("ndcg5", ndcg5, "ndcg");
  } else {
    const std::vector<SpanRecord> spans = g_spans.All();
    AddLayerMetrics(spans, timed_first, timed_last, summary, replay, registry,
                    load, &report);
    const std::string path = args.scratch + "/spans-" + args.workload + "-" +
                             std::to_string(args.seed) + ".json";
    WriteSpans(spans, path);
    std::printf("spans: %zu written to %s\n", spans.size(), path.c_str());
  }

  std::printf("workload %s, seed %llu: %.1f s timed, %zu latency samples\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              summary.elapsed_s, summary.samples);
  for (const Metric& m : report.metrics) {
    std::printf("  %-30s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& failure : report.failures) {
    std::fprintf(stderr, "FAILED: %s\n", failure.c_str());
  }
  for (const std::string& thin : g_thin_p99) {
    std::fprintf(stderr, "p99 below %zu samples: %s\n", kMinP99Samples,
                 thin.c_str());
  }
  const bool correct = report.failed == 0;
  const std::string json = ResultJson(report, correct);
  if (!args.out.empty()) {
    FILE* f = std::fopen(args.out.c_str(), "w");
    if (f == nullptr) Die("cannot write " + args.out);
    std::fprintf(f, "%s\n", json.c_str());
    std::fclose(f);
  }
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct && g_thin_p99.empty() ? 0 : 1;
}
