#include "storage/snapshot.h"

#include <cerrno>
#include <chrono>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <span>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "rdf/graph_stats.h"
#include "rdf/triple_store.h"
#include "storage/mapped_file.h"
#include "util/hash.h"
#include "util/owned_span.h"

namespace trinit::storage {
namespace {

// ------------------------------------------------------------- layout

// Section ids. Every section is present exactly once; the reader
// rejects files missing any of them.
enum SectionId : uint32_t {
  kMeta = 1,
  kDictionary = 2,
  kTriples = 3,
  kPermutations = 4,
  kScoreShapes = 5,
  kGraphStats = 6,
  kProvenance = 7,
  kRules = 8,
};
constexpr uint32_t kNumSections = 8;

// Written after the magic; a big-endian reader sees it byte-swapped and
// rejects the file instead of mis-decoding every integer. It also
// guards the mmap view path: raw section records are only aliased in
// place on a machine whose byte order matches the writer's.
constexpr uint32_t kEndianTag = 0x01020304u;

constexpr size_t kHeaderBytes = 8 + 4 + 4 + 8 + 4 + 4;  // 32
constexpr size_t kTableEntryBytes = 4 + 4 + 8 + 8 + 8;  // 32

// The raw TRIPLES section is viewed in place as `rdf::Triple` records
// in mapped mode; these assert the in-memory layout matches the wire
// layout (s, p, o, confidence-bits, count, source — 24 bytes).
static_assert(sizeof(rdf::Triple) == 24);
static_assert(std::is_trivially_copyable_v<rdf::Triple>);
static_assert(offsetof(rdf::Triple, s) == 0);
static_assert(offsetof(rdf::Triple, p) == 4);
static_assert(offsetof(rdf::Triple, o) == 8);
static_assert(offsetof(rdf::Triple, confidence) == 12);
static_assert(offsetof(rdf::Triple, count) == 16);
static_assert(offsetof(rdf::Triple, source) == 20);

// Likewise for the STATS (s, o) pair arrays.
using ArgPair = std::pair<rdf::TermId, rdf::TermId>;
static_assert(sizeof(ArgPair) == 8);
static_assert(std::is_standard_layout_v<ArgPair>);
static_assert(offsetof(ArgPair, first) == 0);
static_assert(offsetof(ArgPair, second) == 4);

// --------------------------------------------------------- encoding

void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}
void PutU32(std::string* out, uint32_t v) {
  char b[4];
  std::memcpy(b, &v, 4);
  out->append(b, 4);
}
void PutU64(std::string* out, uint64_t v) {
  char b[8];
  std::memcpy(b, &v, 8);
  out->append(b, 8);
}
void PutF32(std::string* out, float v) {
  uint32_t bits;
  std::memcpy(&bits, &v, 4);
  PutU32(out, bits);
}
void PutF64(std::string* out, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, 8);
  PutU64(out, bits);
}
void PutStr(std::string* out, std::string_view s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}
// Zero-pads a section payload to the next 8-byte boundary, keeping
// every u64 field of the *next* record 8-aligned relative to the
// (8-aligned) section start — the precondition for viewing arrays in
// place.
void PadTo8(std::string* out) {
  while (out->size() % 8 != 0) out->push_back('\0');
}

// Little-endian loads at absolute positions, for the mapped-view
// walkers (the copying decoders go through Cursor). Callers bounds-check.
uint32_t LoadU32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}
uint64_t LoadU64(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

/// Bounds-checked forward reader over one section payload. Every
/// accessor fails (returns false) instead of reading past the end, so
/// hostile bytes can at worst produce a typed error, never UB.
class Cursor {
 public:
  Cursor(const char* data, size_t size) : data_(data), size_(size) {}

  size_t remaining() const { return size_ - pos_; }
  bool AtEnd() const { return pos_ == size_; }

  bool ReadU8(uint8_t* v) {
    if (remaining() < 1) return false;
    *v = static_cast<uint8_t>(data_[pos_++]);
    return true;
  }
  bool ReadU32(uint32_t* v) {
    if (remaining() < 4) return false;
    std::memcpy(v, data_ + pos_, 4);
    pos_ += 4;
    return true;
  }
  bool ReadU64(uint64_t* v) {
    if (remaining() < 8) return false;
    std::memcpy(v, data_ + pos_, 8);
    pos_ += 8;
    return true;
  }
  bool ReadF32(float* v) {
    uint32_t bits;
    if (!ReadU32(&bits)) return false;
    std::memcpy(v, &bits, 4);
    return true;
  }
  bool ReadF64(double* v) {
    uint64_t bits;
    if (!ReadU64(&bits)) return false;
    std::memcpy(v, &bits, 8);
    return true;
  }
  bool ReadStr(std::string* v) {
    uint32_t len;
    if (!ReadU32(&len) || remaining() < len) return false;
    v->assign(data_ + pos_, len);
    pos_ += len;
    return true;
  }

 private:
  const char* data_;
  size_t size_;
  size_t pos_ = 0;
};

Status Corrupt(const std::string& what) {
  return Status::ParseError("snapshot corrupt: " + what);
}

/// One parsed section-table entry.
struct SectionRef {
  uint64_t offset = 0;
  uint64_t length = 0;
  uint64_t checksum = 0;
};

std::span<const char> SectionSpan(std::span<const char> file,
                                  const SectionRef& s) {
  return file.subspan(static_cast<size_t>(s.offset),
                      static_cast<size_t>(s.length));
}

/// Aliases `count` records of T starting at file offset `offset`.
/// Bounds are the caller's job (walkers check before advancing); the
/// runtime alignment check is the last line of defense for a hostile
/// offset table — misalignment is corruption, never UB.
template <typename T>
bool MakeView(std::span<const char> file, uint64_t offset, uint64_t count,
              std::span<const T>* out) {
  const char* p = file.data() + offset;
  if (reinterpret_cast<uintptr_t>(p) % alignof(T) != 0) return false;
  *out = std::span<const T>(reinterpret_cast<const T*>(p),
                            static_cast<size_t>(count));
  return true;
}

// ----------------------------------------------------- section writers

std::string EncodeMeta(const xkg::Xkg& xkg, const relax::RuleSet& rules,
                       uint64_t prov_records) {
  std::string out;
  PutU64(&out, xkg.kg_triple_count());
  PutU64(&out, xkg.dict().size());
  PutU64(&out, xkg.store().size());
  PutU64(&out, rules.size());
  // The PROV record count lives in META so a trusted mapped load can
  // report it without touching the (deferred) PROV section.
  PutU64(&out, prov_records);
  return out;
}

std::string EncodeDictionary(const rdf::Dictionary& dict) {
  std::string out;
  PutU64(&out, dict.size());
  dict.ForEach([&](rdf::TermId id) {
    PutU8(&out, static_cast<uint8_t>(dict.kind(id)));
    PutStr(&out, dict.label(id));
  });
  return out;
}

std::string EncodeTriples(const rdf::TripleStore& store) {
  std::string out;
  PutU64(&out, store.size());
  for (const rdf::Triple& t : store.triples()) {
    PutU32(&out, t.s);
    PutU32(&out, t.p);
    PutU32(&out, t.o);
    PutF32(&out, t.confidence);
    PutU32(&out, t.count);
    PutU32(&out, t.source);
  }
  return out;
}

// u32 num + u32 reserved, per perm u64 n + ids, zero-padded to 8 so
// every array is viewable in place.
std::string EncodePermutations(const rdf::TripleStore& store) {
  std::string out;
  PutU32(&out,
         static_cast<uint32_t>(rdf::TripleStore::kNumIndexPermutations));
  PutU32(&out, 0);
  for (size_t i = 0; i < rdf::TripleStore::kNumIndexPermutations; ++i) {
    // Zero-copy: the span aliases the store's own array.
    std::span<const rdf::TripleId> perm = store.IndexPermutation(i);
    PutU64(&out, perm.size());
    for (rdf::TripleId id : perm) PutU32(&out, id);
    PadTo8(&out);
  }
  return out;
}

// u32 num + u32 reserved, per shape u32 shape + u32 reserved + u64 n +
// ids + pad + (n+1) u64 masses, viewable.
std::string EncodeScoreShapes(const rdf::TripleStore& store) {
  std::string out;
  std::vector<rdf::ScoreOrderIndex::ShapeView> shapes =
      store.BuiltScoreShapes();
  PutU32(&out, static_cast<uint32_t>(shapes.size()));
  PutU32(&out, 0);
  for (const rdf::ScoreOrderIndex::ShapeView& shape : shapes) {
    PutU32(&out, shape.shape);
    PutU32(&out, 0);
    PutU64(&out, shape.ids.size());
    for (rdf::TripleId id : shape.ids) PutU32(&out, id);
    PadTo8(&out);
    for (uint64_t mass : shape.prefix_mass) PutU64(&out, mass);
  }
  return out;
}

std::string EncodeGraphStats(const rdf::GraphStats& stats) {
  std::string out;
  PutU64(&out, stats.predicates().size());
  for (rdf::TermId p : stats.predicates()) {
    const rdf::GraphStats::PredicateStats* ps = stats.ForPredicate(p);
    PutU32(&out, p);
    PutU32(&out, ps->triple_count);
    PutU64(&out, ps->evidence_count);
    PutU32(&out, ps->distinct_subjects);
    PutU32(&out, ps->distinct_objects);
    const auto& args = stats.Args(p);
    PutU64(&out, args.size());
    for (const auto& [s, o] : args) {
      PutU32(&out, s);
      PutU32(&out, o);
    }
  }
  return out;
}

std::string EncodeProvenance(const xkg::Xkg& xkg, uint64_t* records_out) {
  std::string out;
  std::string body;
  uint64_t entries = 0;
  for (rdf::TripleId id = 0; id < xkg.store().size(); ++id) {
    const std::vector<xkg::Provenance>& records = xkg.ProvenanceFor(id);
    if (records.empty()) continue;
    ++entries;
    PutU32(&body, id);
    PutU32(&body, static_cast<uint32_t>(records.size()));
    for (const xkg::Provenance& prov : records) {
      PutU32(&body, prov.doc_id);
      PutU32(&body, prov.sentence_idx);
      PutF64(&body, prov.extraction_confidence);
      PutStr(&body, prov.sentence);
      ++*records_out;
    }
  }
  PutU64(&out, entries);
  out += body;
  return out;
}

void EncodeTerm(std::string* out, const query::Term& term) {
  PutU8(out, static_cast<uint8_t>(term.kind));
  PutStr(out, term.text);  // ids are cache; re-resolved after load
}

std::string EncodeRules(const relax::RuleSet& rules) {
  std::string out;
  PutU64(&out, rules.size());
  for (const relax::Rule& rule : rules.rules()) {
    PutStr(&out, rule.name);
    PutU8(&out, static_cast<uint8_t>(rule.kind));
    PutF64(&out, rule.weight);
    for (const std::vector<query::TriplePattern>* side :
         {&rule.lhs, &rule.rhs}) {
      PutU32(&out, static_cast<uint32_t>(side->size()));
      for (const query::TriplePattern& pattern : *side) {
        EncodeTerm(&out, pattern.s);
        EncodeTerm(&out, pattern.p);
        EncodeTerm(&out, pattern.o);
      }
    }
  }
  return out;
}

// ----------------------------------------------------- section readers

Status DecodeDictionary(Cursor* c, rdf::Dictionary* dict) {
  uint64_t count;
  if (!c->ReadU64(&count)) return Corrupt("dictionary count");
  for (uint64_t i = 0; i < count; ++i) {
    uint8_t kind;
    std::string label;
    if (!c->ReadU8(&kind) || !c->ReadStr(&label)) {
      return Corrupt("dictionary entry " + std::to_string(i));
    }
    if (kind > static_cast<uint8_t>(rdf::TermKind::kLiteral)) {
      return Corrupt("dictionary term kind " + std::to_string(kind));
    }
    // Interning in id order reproduces the original ids; a duplicate
    // (kind, label) pair collapses and breaks the sequence — corrupt.
    rdf::TermId id = dict->Intern(static_cast<rdf::TermKind>(kind), label);
    if (id != static_cast<rdf::TermId>(i + 1)) {
      return Corrupt("duplicate dictionary entry '" + label + "'");
    }
  }
  if (!c->AtEnd()) return Corrupt("trailing bytes after dictionary");
  return Status::Ok();
}

Status DecodeTriples(Cursor* c, std::vector<rdf::Triple>* triples) {
  uint64_t count;
  if (!c->ReadU64(&count)) return Corrupt("triple count");
  if (c->remaining() / 24 < count) return Corrupt("triple section short");
  triples->resize(count);
  for (uint64_t i = 0; i < count; ++i) {
    rdf::Triple& t = (*triples)[i];
    if (!c->ReadU32(&t.s) || !c->ReadU32(&t.p) || !c->ReadU32(&t.o) ||
        !c->ReadF32(&t.confidence) || !c->ReadU32(&t.count) ||
        !c->ReadU32(&t.source)) {
      return Corrupt("triple " + std::to_string(i));
    }
  }
  if (!c->AtEnd()) return Corrupt("trailing bytes after triples");
  return Status::Ok();
}

/// TRIPLES: decode, or view the 24-byte records in place when `view`.
Status LoadTriples(std::span<const char> file, const SectionRef& s,
                   bool view, util::OwnedSpan<rdf::Triple>* out,
                   size_t* framing) {
  if (view) {
    if (s.length < 8) return Corrupt("triple count");
    const uint64_t count = LoadU64(file.data() + s.offset);
    if ((s.length - 8) / 24 != count || (s.length - 8) % 24 != 0) {
      return Corrupt("triple section size");
    }
    std::span<const rdf::Triple> t;
    if (!MakeView(file, s.offset + 8, count, &t)) {
      return Corrupt("misaligned triple records");
    }
    *out = util::OwnedSpan<rdf::Triple>::View(t);
    if (framing != nullptr) *framing += 8;
    return Status::Ok();
  }
  Cursor c(file.data() + s.offset, static_cast<size_t>(s.length));
  std::vector<rdf::Triple> triples;
  TRINIT_RETURN_IF_ERROR(DecodeTriples(&c, &triples));
  *out = std::move(triples);
  return Status::Ok();
}

/// PERMS: walk the aligned layout, viewing each array in place
/// (`view`) or copying it out.
Status LoadPermutations(std::span<const char> file, const SectionRef& s,
                        bool view, rdf::TripleStore::IndexSnapshot* indexes,
                        size_t* framing) {
  const char* base = file.data();
  uint64_t pos = s.offset;
  const uint64_t end = s.offset + s.length;
  if (end - pos < 8) return Corrupt("permutation header");
  const uint32_t num = LoadU32(base + pos);
  const uint32_t reserved = LoadU32(base + pos + 4);
  pos += 8;
  if (reserved != 0) return Corrupt("permutation reserved word");
  if ((end - pos) / 8 < num) return Corrupt("permutation section short");
  indexes->perms.clear();
  indexes->perms.reserve(num);
  for (uint32_t p = 0; p < num; ++p) {
    if (end - pos < 8) return Corrupt("permutation size");
    const uint64_t n = LoadU64(base + pos);
    pos += 8;
    if ((end - pos) / 4 < n) return Corrupt("permutation " + std::to_string(p));
    if (view) {
      std::span<const rdf::TripleId> ids;
      if (!MakeView(file, pos, n, &ids)) {
        return Corrupt("misaligned permutation array");
      }
      indexes->perms.push_back(util::OwnedSpan<rdf::TripleId>::View(ids));
    } else {
      std::vector<rdf::TripleId> ids(n);
      if (n > 0) std::memcpy(ids.data(), base + pos, n * 4);
      indexes->perms.emplace_back(std::move(ids));
    }
    pos += n * 4;
    const uint64_t pad = (8 - ((pos - s.offset) % 8)) % 8;
    if (end - pos < pad) return Corrupt("permutation padding");
    pos += pad;
  }
  if (pos != end) return Corrupt("trailing bytes after permutations");
  if (view && framing != nullptr) *framing += 8 + 8 * size_t{num};
  return Status::Ok();
}

Status LoadScoreShapes(std::span<const char> file, const SectionRef& s,
                       bool view, rdf::TripleStore::IndexSnapshot* indexes,
                       size_t* framing) {
  const char* base = file.data();
  uint64_t pos = s.offset;
  const uint64_t end = s.offset + s.length;
  if (end - pos < 8) return Corrupt("score shape header");
  const uint32_t num = LoadU32(base + pos);
  const uint32_t reserved = LoadU32(base + pos + 4);
  pos += 8;
  if (reserved != 0) return Corrupt("score shape reserved word");
  // Each shape carries at least a 16-byte header plus the zeroth
  // prefix mass.
  if ((end - pos) / 24 < num) return Corrupt("score shape section short");
  indexes->score_shapes.clear();
  indexes->score_shapes.resize(num);
  uint32_t seen_shapes = 0;
  for (uint32_t i = 0; i < num; ++i) {
    rdf::ScoreOrderIndex::ShapeSnapshot& shape = indexes->score_shapes[i];
    if (end - pos < 16) return Corrupt("score shape " + std::to_string(i));
    shape.shape = LoadU32(base + pos);
    const uint32_t rsvd = LoadU32(base + pos + 4);
    const uint64_t n = LoadU64(base + pos + 8);
    pos += 16;
    if (rsvd != 0) return Corrupt("score shape reserved word");
    if (shape.shape >= 32 || (seen_shapes & (1u << shape.shape)) != 0) {
      return Corrupt("duplicate or out-of-range score shape id " +
                     std::to_string(shape.shape));
    }
    seen_shapes |= 1u << shape.shape;
    if ((end - pos) / 4 < n) return Corrupt("score shape ids");
    if (view) {
      std::span<const rdf::TripleId> ids;
      if (!MakeView(file, pos, n, &ids)) {
        return Corrupt("misaligned score shape ids");
      }
      shape.ids = util::OwnedSpan<rdf::TripleId>::View(ids);
    } else {
      std::vector<rdf::TripleId> ids(n);
      if (n > 0) std::memcpy(ids.data(), base + pos, n * 4);
      shape.ids = std::move(ids);
    }
    pos += n * 4;
    const uint64_t pad = (8 - ((pos - s.offset) % 8)) % 8;
    if (end - pos < pad) return Corrupt("score shape padding");
    pos += pad;
    if ((end - pos) / 8 < n + 1) return Corrupt("score shape mass");
    if (view) {
      std::span<const uint64_t> mass;
      if (!MakeView(file, pos, n + 1, &mass)) {
        return Corrupt("misaligned score shape mass");
      }
      shape.prefix_mass = util::OwnedSpan<uint64_t>::View(mass);
    } else {
      std::vector<uint64_t> mass(n + 1);
      std::memcpy(mass.data(), base + pos, (n + 1) * 8);
      shape.prefix_mass = std::move(mass);
    }
    pos += (n + 1) * 8;
  }
  if (pos != end) return Corrupt("trailing bytes after score shapes");
  if (view && framing != nullptr) *framing += 8 + 16 * size_t{num};
  return Status::Ok();
}

/// STATS: only the 32-byte per-predicate headers are walked
/// (counted as framing when viewed); each predicate's (s,o) pair array
/// becomes a view when `view`, an owned copy otherwise. The layout is
/// fully 8-aligned.
Status LoadGraphStats(std::span<const char> file, const SectionRef& s,
                      bool view, rdf::SnapshotValidation validation,
                      Result<rdf::GraphStats>* out, size_t* framing) {
  const char* base = file.data();
  uint64_t pos = s.offset;
  const uint64_t end = s.offset + s.length;
  if (end - pos < 8) return Corrupt("graph-stats count");
  const uint64_t count = LoadU64(base + pos);
  pos += 8;
  if ((end - pos) / 32 < count) return Corrupt("graph-stats short");
  std::vector<rdf::TermId> predicates;
  predicates.reserve(count);
  std::unordered_map<rdf::TermId, rdf::GraphStats::PredicateStats> stats;
  std::unordered_map<rdf::TermId, rdf::GraphStats::ArgPairs> args;
  for (uint64_t i = 0; i < count; ++i) {
    if (end - pos < 32) return Corrupt("graph-stats predicate");
    const rdf::TermId p = LoadU32(base + pos);
    rdf::GraphStats::PredicateStats ps;
    ps.triple_count = LoadU32(base + pos + 4);
    ps.evidence_count = LoadU64(base + pos + 8);
    ps.distinct_subjects = LoadU32(base + pos + 16);
    ps.distinct_objects = LoadU32(base + pos + 20);
    const uint64_t argn = LoadU64(base + pos + 24);
    pos += 32;
    if ((end - pos) / 8 < argn) return Corrupt("graph-stats args short");
    rdf::GraphStats::ArgPairs pairs;
    if (view) {
      std::span<const ArgPair> viewed;
      if (!MakeView(file, pos, argn, &viewed)) {
        return Corrupt("misaligned graph-stats args");
      }
      pairs = rdf::GraphStats::ArgPairs::View(viewed);
    } else {
      std::vector<ArgPair> owned(static_cast<size_t>(argn));
      for (uint64_t j = 0; j < argn; ++j) {
        owned[j] = {LoadU32(base + pos + j * 8),
                    LoadU32(base + pos + j * 8 + 4)};
      }
      pairs = std::move(owned);
    }
    pos += argn * 8;
    if (stats.count(p) != 0) return Corrupt("duplicate graph-stats predicate");
    predicates.push_back(p);
    stats.emplace(p, ps);
    args.emplace(p, std::move(pairs));
  }
  if (pos != end) return Corrupt("trailing bytes after graph stats");
  if (view && framing != nullptr) {
    *framing += 8 + 32 * static_cast<size_t>(count);
  }
  *out = rdf::GraphStats::FromSnapshot(std::move(predicates),
                                       std::move(stats), std::move(args),
                                       validation);
  return out->ok() ? Status::Ok() : out->status();
}

Status DecodeProvenance(Cursor* c, xkg::Xkg::ProvenanceMap* prov,
                        size_t* records_out) {
  uint64_t entries;
  if (!c->ReadU64(&entries)) return Corrupt("provenance count");
  for (uint64_t i = 0; i < entries; ++i) {
    uint32_t triple_id, nrec;
    if (!c->ReadU32(&triple_id) || !c->ReadU32(&nrec) || nrec == 0) {
      return Corrupt("provenance entry " + std::to_string(i));
    }
    if (c->remaining() / 20 < nrec) return Corrupt("provenance short");
    if (prov->count(triple_id) != 0) {
      return Corrupt("duplicate provenance entry");
    }
    std::vector<xkg::Provenance>& records = (*prov)[triple_id];
    records.resize(nrec);
    for (uint32_t j = 0; j < nrec; ++j) {
      xkg::Provenance& p = records[j];
      if (!c->ReadU32(&p.doc_id) || !c->ReadU32(&p.sentence_idx) ||
          !c->ReadF64(&p.extraction_confidence) ||
          !c->ReadStr(&p.sentence)) {
        return Corrupt("provenance record");
      }
    }
    *records_out += nrec;
  }
  if (!c->AtEnd()) return Corrupt("trailing bytes after provenance");
  return Status::Ok();
}

Status DecodeTerm(Cursor* c, query::Term* term) {
  uint8_t kind;
  if (!c->ReadU8(&kind) || !c->ReadStr(&term->text)) {
    return Corrupt("rule term");
  }
  if (kind > static_cast<uint8_t>(query::Term::Kind::kLiteral)) {
    return Corrupt("rule term kind " + std::to_string(kind));
  }
  term->kind = static_cast<query::Term::Kind>(kind);
  term->id = rdf::kNullTerm;  // re-resolved against the loaded dictionary
  return Status::Ok();
}

Status DecodeRules(Cursor* c, relax::RuleSet* rules) {
  uint64_t count;
  if (!c->ReadU64(&count)) return Corrupt("rule count");
  for (uint64_t i = 0; i < count; ++i) {
    relax::Rule rule;
    uint8_t kind;
    if (!c->ReadStr(&rule.name) || !c->ReadU8(&kind) ||
        !c->ReadF64(&rule.weight)) {
      return Corrupt("rule " + std::to_string(i));
    }
    if (kind > static_cast<uint8_t>(relax::RuleKind::kOperator)) {
      return Corrupt("rule kind " + std::to_string(kind));
    }
    rule.kind = static_cast<relax::RuleKind>(kind);
    for (std::vector<query::TriplePattern>* side : {&rule.lhs, &rule.rhs}) {
      uint32_t n;
      if (!c->ReadU32(&n)) return Corrupt("rule pattern count");
      if (c->remaining() / 15 < n) return Corrupt("rule patterns short");
      side->resize(n);
      for (query::TriplePattern& pattern : *side) {
        TRINIT_RETURN_IF_ERROR(DecodeTerm(c, &pattern.s));
        TRINIT_RETURN_IF_ERROR(DecodeTerm(c, &pattern.p));
        TRINIT_RETURN_IF_ERROR(DecodeTerm(c, &pattern.o));
      }
    }
    // Add() re-validates structure; a corrupt rule that decodes into an
    // invalid shape is rejected here with its own message.
    TRINIT_RETURN_IF_ERROR(rules->Add(std::move(rule)));
  }
  if (!c->AtEnd()) return Corrupt("trailing bytes after rules");
  return Status::Ok();
}

/// Creates `<path>.tmp.<16 hex digits>` exclusively (fopen's "x": the
/// open fails when the name exists), so concurrent writers to one path
/// never share a temp file — with a shared name, a second writer's
/// truncating open would clobber a file the first one is about to
/// publish. Names mix the calling thread, the clock and the attempt
/// number; a taken name (another writer's, or one a crashed writer left
/// behind) moves on to the next. Returns null when no file can be
/// created.
std::FILE* CreateTempFile(const std::string& path, std::string* tmp_path) {
  const uint64_t seed = HashCombine(
      std::hash<std::thread::id>{}(std::this_thread::get_id()),
      static_cast<uint64_t>(
          std::chrono::steady_clock::now().time_since_epoch().count()));
  for (uint64_t attempt = 0; attempt < 64; ++attempt) {
    char suffix[32];
    std::snprintf(suffix, sizeof(suffix), ".tmp.%016llx",
                  static_cast<unsigned long long>(Mix64(seed + attempt)));
    *tmp_path = path + suffix;
    errno = 0;
    if (std::FILE* f = std::fopen(tmp_path->c_str(), "wbx")) return f;
    if (errno != EEXIST) return nullptr;
  }
  return nullptr;
}

}  // namespace

// --------------------------------------------------------------- write

Status SnapshotWriter::Write(const xkg::Xkg& xkg, const relax::RuleSet& rules,
                             uint64_t generation, const std::string& path) {
  // A trusted-mapped engine defers provenance decode; saving forces it
  // now and must not silently persist an empty map because that decode
  // failed.
  TRINIT_RETURN_IF_ERROR(xkg.provenance_status());

  const rdf::TripleStore& store = xkg.store();
  uint64_t prov_records = 0;
  std::string prov = EncodeProvenance(xkg, &prov_records);

  // Index arrays are encoded straight from the store's own memory
  // (span views), so the transient cost of a save is one encoded copy
  // of the state, not an intermediate export on top of it.
  struct Section {
    uint32_t id;
    std::string payload;
  };
  std::vector<Section> sections;
  sections.reserve(kNumSections);
  sections.push_back({kMeta, EncodeMeta(xkg, rules, prov_records)});
  sections.push_back({kDictionary, EncodeDictionary(xkg.dict())});
  sections.push_back({kTriples, EncodeTriples(store)});
  sections.push_back({kPermutations, EncodePermutations(store)});
  sections.push_back({kScoreShapes, EncodeScoreShapes(store)});
  sections.push_back({kGraphStats, EncodeGraphStats(xkg.stats())});
  sections.push_back({kProvenance, std::move(prov)});
  sections.push_back({kRules, EncodeRules(rules)});

  // Header + table, then 8-aligned payloads — streamed section by
  // section so peak memory stays one copy of the encoded state, not
  // two.
  std::string head;
  head.append(kSnapshotMagic, sizeof(kSnapshotMagic));
  PutU32(&head, kSnapshotVersion);
  PutU32(&head, kEndianTag);
  PutU64(&head, generation);
  PutU32(&head, kNumSections);
  // Header checksum (low 32 bits of FNV-1a over the 28 bytes above):
  // the generation field has no section covering it, and it must not
  // load silently wrong.
  PutU32(&head, static_cast<uint32_t>(Fnv1a64(head)));

  size_t offset = kHeaderBytes + kNumSections * kTableEntryBytes;
  for (const Section& sec : sections) {
    offset = (offset + 7) & ~size_t{7};
    PutU32(&head, sec.id);
    PutU32(&head, 0);  // flag word: no codec byte, no reserved bits
    PutU64(&head, offset);
    PutU64(&head, sec.payload.size());
    PutU64(&head, Fnv1a64(sec.payload));
    offset += sec.payload.size();
  }

  // Write to a sibling temp file and rename into place: a mid-write
  // failure (disk full, crash) must not destroy a previously good
  // snapshot at `path` — replicas rely on "serialize once, load many
  // times". The rename also means a *mapped* reader of the old file
  // keeps its pages; the file is never truncated in place under a
  // live mapping. The temp file belongs to this call alone, so
  // concurrent saves to one path each publish a whole file.
  std::string tmp_path;
  std::FILE* out = CreateTempFile(path, &tmp_path);
  if (out == nullptr) {
    return Status::IoError("cannot create a temp file for " + path);
  }
  bool ok = std::fwrite(head.data(), 1, head.size(), out) == head.size();
  size_t written = head.size();
  for (const Section& sec : sections) {
    static constexpr char kPad[8] = {};
    const size_t pad = ((written + 7) & ~size_t{7}) - written;
    ok = ok && std::fwrite(kPad, 1, pad, out) == pad &&
         std::fwrite(sec.payload.data(), 1, sec.payload.size(), out) ==
             sec.payload.size();
    written += pad + sec.payload.size();
  }
  // fclose flushes the buffered tail; a failure there fails the save.
  ok = std::fclose(out) == 0 && ok;
  if (!ok) {
    std::remove(tmp_path.c_str());
    return Status::IoError("write failed: " + tmp_path);
  }
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    std::remove(tmp_path.c_str());
    return Status::IoError("cannot rename " + tmp_path + " to " + path);
  }
  return Status::Ok();
}

// ---------------------------------------------------------------- read

Result<LoadedSnapshot> SnapshotReader::Read(const std::string& path,
                                            const ReadOptions& options) {
  // Acquire the bytes: mmap when asked for and available, else one
  // copying read. A failed Map falls through to the copying open so
  // the caller sees the same typed error (or a successful copy load)
  // it would on a platform without mmap at all.
  std::shared_ptr<MappedFile> mapping;
  std::string owned;
  std::span<const char> file;
  bool mapped = false;
  if (options.mode == LoadMode::kMapped && MappedFile::Supported()) {
    auto m = MappedFile::Map(path);
    if (m.ok()) {
      mapping = std::make_shared<MappedFile>(std::move(m).value());
      file = mapping->bytes();
      mapped = true;
    }
  }
  if (!mapped) {
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in) return Status::IoError("cannot open: " + path);
    const std::streamsize size = in.tellg();
    in.seekg(0);
    owned.assign(static_cast<size_t>(size), '\0');
    if (!in.read(owned.data(), size)) {
      return Status::IoError("read failed: " + path);
    }
    file = std::span<const char>(owned.data(), owned.size());
  }

  // Header. Foreign files fail on the magic (InvalidArgument), any
  // other format version on the version (FailedPrecondition) — distinct
  // codes so callers can tell "not ours" from "ours, re-save it".
  if (file.size() < kHeaderBytes ||
      std::memcmp(file.data(), kSnapshotMagic, sizeof(kSnapshotMagic)) !=
          0) {
    return Status::InvalidArgument("not a TriniT snapshot: " + path);
  }
  // Cursor starts past the just-compared magic.
  Cursor header(file.data() + sizeof(kSnapshotMagic),
                file.size() - sizeof(kSnapshotMagic));
  uint32_t version, endian, section_count, header_crc;
  uint64_t generation;
  header.ReadU32(&version);
  header.ReadU32(&endian);
  header.ReadU64(&generation);
  header.ReadU32(&section_count);
  header.ReadU32(&header_crc);
  if (endian != kEndianTag) {
    return Status::InvalidArgument(
        "snapshot byte order does not match this machine");
  }
  if (version != kSnapshotVersion) {
    return Status::FailedPrecondition(
        "snapshot format version " + std::to_string(version) +
        "; this build reads only version " +
        std::to_string(kSnapshotVersion) + " (re-save from source)");
  }
  // The generation lives only in the header (no section checksum covers
  // it); verify the header's own checksum before trusting it.
  if (header_crc !=
      static_cast<uint32_t>(Fnv1a64({file.data(), kHeaderBytes - 4}))) {
    return Corrupt("header checksum mismatch");
  }
  if (section_count != kNumSections) {
    return Corrupt("expected " + std::to_string(kNumSections) +
                   " sections, header says " +
                   std::to_string(section_count));
  }
  if (file.size() < kHeaderBytes + kNumSections * kTableEntryBytes) {
    return Corrupt("truncated section table");
  }

  // Section table: bounds and flag sanity before any payload access.
  std::unordered_map<uint32_t, SectionRef> table;
  for (uint32_t i = 0; i < kNumSections; ++i) {
    uint32_t id = 0, flags = 0;
    SectionRef s;
    header.ReadU32(&id);
    header.ReadU32(&flags);
    header.ReadU64(&s.offset);
    header.ReadU64(&s.length);
    header.ReadU64(&s.checksum);
    if (s.offset > file.size() || s.length > file.size() - s.offset) {
      return Corrupt("section " + std::to_string(id) +
                     " out of bounds (truncated file?)");
    }
    if (flags > 0xff) return Corrupt("reserved section flag bits set");
    // The low byte once named a per-section codec. This build reads
    // only raw sections, so a codec byte marks a file from an older
    // writer, not corruption.
    if (flags != 0) {
      return Status::FailedPrecondition(
          "section " + std::to_string(id) + " has codec " +
          std::to_string(flags) +
          ", which this build does not read (re-save from source)");
    }
    if (!table.emplace(id, s).second) {
      return Corrupt("duplicate section " + std::to_string(id));
    }
  }
  for (uint32_t id = kMeta; id <= kRules; ++id) {
    if (table.count(id) == 0) {
      return Corrupt("missing section " + std::to_string(id));
    }
  }
  auto cursor_for = [&](uint32_t id) {
    const SectionRef& s = table.at(id);
    return Cursor(file.data() + s.offset, static_cast<size_t>(s.length));
  };

  // Mode resolution. A mapped load views the fixed-width sections in
  // place. Trusted verification is only meaningful on the view path —
  // every other combination keeps the full-verification guarantees.
  const bool trusted =
      mapped && options.verify == rdf::SnapshotValidation::kTrusted;
  const rdf::SnapshotValidation validation =
      trusted ? rdf::SnapshotValidation::kTrusted
              : rdf::SnapshotValidation::kFull;

  LoadReport report;
  report.bytes = file.size();
  report.mapped = mapped;
  size_t touched = kHeaderBytes + kNumSections * kTableEntryBytes;

  // Checksum pass. Full verification checksums everything (mapped or
  // not — identical guarantees). Trusted checksums only what it will
  // decode into memory anyway: META/DICT/RULES. The viewed sections
  // and the deferred PROV section are skipped — that is where the
  // touched-bytes savings come from; PROV is checksummed at
  // deferred-decode time instead.
  for (const auto& [id, s] : table) {
    if (trusted && id != kMeta && id != kDictionary && id != kRules) {
      continue;
    }
    if (Fnv1a64({file.data() + s.offset, static_cast<size_t>(s.length)}) !=
        s.checksum) {
      return Corrupt("checksum mismatch in section " + std::to_string(id));
    }
    touched += static_cast<size_t>(s.length);
  }

  // Meta cross-checks let a truncation that happens to preserve section
  // framing still fail loudly.
  Cursor meta = cursor_for(kMeta);
  uint64_t kg_triples, dict_terms, triple_count, rule_count;
  uint64_t prov_records_meta = 0;
  if (!meta.ReadU64(&kg_triples) || !meta.ReadU64(&dict_terms) ||
      !meta.ReadU64(&triple_count) || !meta.ReadU64(&rule_count) ||
      !meta.ReadU64(&prov_records_meta) || !meta.AtEnd()) {
    return Corrupt("meta section");
  }
  ++report.sections_decoded;  // META

  auto dict = std::make_unique<rdf::Dictionary>();
  Cursor dict_cursor = cursor_for(kDictionary);
  TRINIT_RETURN_IF_ERROR(DecodeDictionary(&dict_cursor, dict.get()));
  if (dict->size() != dict_terms) return Corrupt("dictionary count vs meta");
  report.terms = dict->size();
  ++report.sections_decoded;  // DICT (hash index rebuilt by Intern)

  // TRIPLES, PERMS, SCORE and STATS: views of the mapping, or owned
  // copies.
  util::OwnedSpan<rdf::Triple> triples;
  TRINIT_RETURN_IF_ERROR(
      LoadTriples(file, table.at(kTriples), mapped, &triples, &touched));
  if (triples.size() != triple_count) return Corrupt("triple count vs meta");
  report.triples = triples.size();

  rdf::TripleStore::IndexSnapshot indexes;
  TRINIT_RETURN_IF_ERROR(LoadPermutations(file, table.at(kPermutations),
                                          mapped, &indexes, &touched));
  TRINIT_RETURN_IF_ERROR(LoadScoreShapes(file, table.at(kScoreShapes), mapped,
                                         &indexes, &touched));
  report.permutations_restored = indexes.perms.size();
  report.score_shapes_restored = indexes.score_shapes.size();

  Result<rdf::GraphStats> stats = Status::Internal("unset");
  TRINIT_RETURN_IF_ERROR(LoadGraphStats(file, table.at(kGraphStats), mapped,
                                        validation, &stats, &touched));
  (mapped ? report.sections_mapped : report.sections_decoded) += 4;

  xkg::Xkg::ProvenanceMap provenance;
  if (trusted) {
    report.provenance_records = prov_records_meta;
    report.provenance_deferred = true;
    ++report.sections_mapped;
  } else {
    Cursor prov_cursor = cursor_for(kProvenance);
    TRINIT_RETURN_IF_ERROR(DecodeProvenance(&prov_cursor, &provenance,
                                            &report.provenance_records));
    if (report.provenance_records != prov_records_meta) {
      return Corrupt("provenance record count vs meta");
    }
    ++report.sections_decoded;
  }

  TRINIT_ASSIGN_OR_RETURN(
      rdf::TripleStore store,
      rdf::TripleStore::FromSnapshot(std::move(triples), std::move(indexes),
                                     validation));

  // Resident estimate: owned index bytes plus the decoded side
  // structures (section lengths stand in for the dictionary and rules;
  // provenance is measured from the decoded map). Mapped views
  // contribute nothing — their pages are shared and evictable.
  size_t prov_resident = 0;
  for (const auto& [id, records] : provenance) {
    prov_resident += sizeof(id) + records.size() * sizeof(xkg::Provenance);
    for (const xkg::Provenance& p : records) prov_resident += p.sentence.size();
  }
  report.resident_bytes =
      store.resident_bytes() + stats.value().resident_bytes() +
      static_cast<size_t>(table.at(kDictionary).length) + prov_resident +
      static_cast<size_t>(table.at(kRules).length);

  Result<xkg::Xkg> loaded = Status::Internal("unset");
  if (trusted) {
    const SectionRef prov_ref = table.at(kProvenance);
    std::shared_ptr<MappedFile> keepalive = mapping;
    loaded = xkg::Xkg::FromPartsLazyProvenance(
        std::move(dict), std::move(store), std::move(stats).value(),
        static_cast<size_t>(kg_triples),
        [keepalive, prov_ref]() -> Result<xkg::Xkg::ProvenanceMap> {
          std::span<const char> data =
              SectionSpan(keepalive->bytes(), prov_ref);
          // The open skipped this section entirely; give the deferred
          // decode the same checksum guarantee the eager path had.
          if (Fnv1a64({data.data(), data.size()}) != prov_ref.checksum) {
            return Corrupt("provenance checksum (deferred decode)");
          }
          xkg::Xkg::ProvenanceMap map;
          size_t records = 0;
          Cursor c(data.data(), data.size());
          TRINIT_RETURN_IF_ERROR(DecodeProvenance(&c, &map, &records));
          return map;
        });
  } else {
    loaded = xkg::Xkg::FromParts(std::move(dict), std::move(store),
                                 std::move(stats).value(),
                                 static_cast<size_t>(kg_triples),
                                 std::move(provenance));
  }
  if (!loaded.ok()) return loaded.status();
  xkg::Xkg xkg = std::move(loaded).value();
  if (mapped) {
    // Index views (and the deferred PROV decode) alias the mapping; it
    // must live exactly as long as this XKG. ExtendKg rebuilds into
    // owned vectors and drops the old XKG — copy-on-write for free.
    xkg.AttachBacking(std::shared_ptr<const void>(mapping));
  }

  relax::RuleSet rules;
  Cursor rule_cursor = cursor_for(kRules);
  TRINIT_RETURN_IF_ERROR(DecodeRules(&rule_cursor, &rules));
  if (rules.size() != rule_count) return Corrupt("rule count vs meta");
  rules.ResolveAgainst(xkg.dict());
  report.rules = rules.size();
  ++report.sections_decoded;  // RULES

  report.bytes_touched = trusted ? touched : file.size();

  return LoadedSnapshot{std::move(xkg), std::move(rules), generation,
                        report};
}

}  // namespace trinit::storage
