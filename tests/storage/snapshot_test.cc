// Binary snapshot format: round-trip fidelity (dictionary, triples,
// provenance, graph stats, score-ordered shapes in their exact laziness
// state, rules, generation) across the {copy, mmap, mmap-trusted} load
// modes, and rejection of foreign, truncated, version-mismatched,
// codec-flagged, and bit-flipped files with typed errors — never a
// crash, never UB, in any load mode. snapshot_fuzz_test.cc drives
// seeded mutants through the same readers.

#include "storage/snapshot.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "storage/mapped_file.h"
#include "testing/paper_world.h"
#include "util/hash.h"

namespace trinit::storage {
namespace {

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good());
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void Spit(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

// Wire-format constants the tampering helpers below rely on (see
// snapshot.cc): a 32-byte header, then 8 table entries of 32 bytes
// each — u32 id, u32 flags (0; the low byte once named a codec), u64
// offset, u64 length, u64 FNV-1a checksum.
constexpr size_t kHeaderBytes = 32;
constexpr size_t kTableEntryBytes = 32;
constexpr uint32_t kMetaId = 1;
constexpr uint32_t kTriplesId = 3;
constexpr uint32_t kPermutationsId = 4;
constexpr uint32_t kScoreShapesId = 5;
constexpr uint32_t kGraphStatsId = 6;
constexpr uint32_t kProvenanceId = 7;
constexpr uint32_t kRulesId = 8;

size_t TableEntryPos(const std::string& bytes, uint32_t id) {
  for (uint32_t i = 0; i < 8; ++i) {
    size_t pos = kHeaderBytes + i * kTableEntryBytes;
    uint32_t got = 0;
    std::memcpy(&got, bytes.data() + pos, sizeof(got));
    if (got == id) return pos;
  }
  ADD_FAILURE() << "section " << id << " not in table";
  return 0;
}

void SetSectionFlags(std::string* bytes, uint32_t id, uint32_t flags) {
  size_t pos = TableEntryPos(*bytes, id);
  std::memcpy(bytes->data() + pos + 4, &flags, sizeof(flags));
}

void SetSectionLength(std::string* bytes, uint32_t id, uint64_t length) {
  size_t pos = TableEntryPos(*bytes, id);
  std::memcpy(bytes->data() + pos + 16, &length, sizeof(length));
}

std::pair<uint64_t, uint64_t> SectionExtent(const std::string& bytes,
                                            uint32_t id) {
  size_t pos = TableEntryPos(bytes, id);
  uint64_t offset = 0, length = 0;
  std::memcpy(&offset, bytes.data() + pos + 8, sizeof(offset));
  std::memcpy(&length, bytes.data() + pos + 16, sizeof(length));
  return {offset, length};
}

constexpr ReadOptions kCopyRead{LoadMode::kCopy,
                                rdf::SnapshotValidation::kFull};
constexpr ReadOptions kMappedRead{LoadMode::kMapped,
                                  rdf::SnapshotValidation::kFull};
constexpr ReadOptions kTrustedRead{LoadMode::kMapped,
                                   rdf::SnapshotValidation::kTrusted};

/// Paper world + rules, with two score-ordered shapes forced built so
/// the snapshot has a nontrivial laziness state to preserve.
struct Fixture {
  xkg::Xkg xkg = trinit::testing::BuildPaperXkg();
  relax::RuleSet rules = trinit::testing::BuildPaperRules();

  Fixture() {
    rules.ResolveAgainst(xkg.dict());
    // Touch the P and PO shapes (predicate-bound lookups).
    rdf::TermId born = xkg.dict().Find(rdf::TermKind::kResource, "bornIn");
    rdf::TermId ulm = xkg.dict().Find(rdf::TermKind::kResource, "Ulm");
    (void)xkg.store().ScoreOrdered(rdf::kNullTerm, born, rdf::kNullTerm);
    (void)xkg.store().ScoreOrdered(rdf::kNullTerm, born, ulm);
    EXPECT_EQ(xkg.store().score_shapes_built(), 2u);
  }
};

/// Full state equality between the fixture and a loaded snapshot —
/// shared by the plain round-trip test and the load-mode matrix.
void ExpectSameState(const Fixture& f, const LoadedSnapshot& loaded,
                     const char* label) {
  SCOPED_TRACE(label);
  const xkg::Xkg& out = loaded.xkg;
  ASSERT_EQ(out.dict().size(), f.xkg.dict().size());
  f.xkg.dict().ForEach([&](rdf::TermId id) {
    EXPECT_EQ(out.dict().label(id), f.xkg.dict().label(id));
    EXPECT_EQ(out.dict().kind(id), f.xkg.dict().kind(id));
  });
  ASSERT_EQ(out.store().size(), f.xkg.store().size());
  for (rdf::TripleId id = 0; id < f.xkg.store().size(); ++id) {
    const rdf::Triple& a = f.xkg.store().triple(id);
    const rdf::Triple& b = out.store().triple(id);
    EXPECT_EQ(a.s, b.s);
    EXPECT_EQ(a.p, b.p);
    EXPECT_EQ(a.o, b.o);
    EXPECT_EQ(a.confidence, b.confidence);
    EXPECT_EQ(a.count, b.count);
    EXPECT_EQ(a.source, b.source);
  }
  EXPECT_EQ(out.kg_triple_count(), f.xkg.kg_triple_count());
  EXPECT_EQ(out.store().score_shapes_built(),
            f.xkg.store().score_shapes_built());
  for (rdf::TermId p : f.xkg.stats().predicates()) {
    EXPECT_TRUE(std::ranges::equal(f.xkg.stats().Args(p),
                                   out.stats().Args(p)));
  }
  for (rdf::TripleId id = 0; id < f.xkg.store().size(); ++id) {
    const auto& pa = f.xkg.ProvenanceFor(id);
    const auto& pb = out.ProvenanceFor(id);
    ASSERT_EQ(pa.size(), pb.size()) << "triple " << id;
    for (size_t i = 0; i < pa.size(); ++i) {
      EXPECT_EQ(pa[i].doc_id, pb[i].doc_id);
      EXPECT_EQ(pa[i].sentence_idx, pb[i].sentence_idx);
      EXPECT_EQ(pa[i].sentence, pb[i].sentence);
      EXPECT_EQ(pa[i].extraction_confidence, pb[i].extraction_confidence);
    }
  }
  EXPECT_TRUE(out.provenance_status().ok());
  ASSERT_EQ(loaded.rules.size(), f.rules.size());
  for (size_t i = 0; i < f.rules.size(); ++i) {
    EXPECT_EQ(loaded.rules.rules()[i].ToString(),
              f.rules.rules()[i].ToString());
  }
}

TEST(SnapshotTest, RoundTripPreservesEverything) {
  Fixture f;
  const std::string path = TempPath("roundtrip.trinit");
  ASSERT_TRUE(SnapshotWriter::Write(f.xkg, f.rules, /*generation=*/7, path)
                  .ok());

  auto loaded = SnapshotReader::Read(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  const xkg::Xkg& out = loaded->xkg;

  // Dictionary: same size, same (id -> kind, label) mapping.
  ASSERT_EQ(out.dict().size(), f.xkg.dict().size());
  f.xkg.dict().ForEach([&](rdf::TermId id) {
    EXPECT_EQ(out.dict().label(id), f.xkg.dict().label(id));
    EXPECT_EQ(out.dict().kind(id), f.xkg.dict().kind(id));
  });

  // Triples with full payloads, in identical id order.
  ASSERT_EQ(out.store().size(), f.xkg.store().size());
  for (rdf::TripleId id = 0; id < f.xkg.store().size(); ++id) {
    const rdf::Triple& a = f.xkg.store().triple(id);
    const rdf::Triple& b = out.store().triple(id);
    EXPECT_EQ(a.s, b.s);
    EXPECT_EQ(a.p, b.p);
    EXPECT_EQ(a.o, b.o);
    EXPECT_EQ(a.confidence, b.confidence);
    EXPECT_EQ(a.count, b.count);
    EXPECT_EQ(a.source, b.source);
  }
  EXPECT_EQ(out.kg_triple_count(), f.xkg.kg_triple_count());
  EXPECT_EQ(out.store().total_count(), f.xkg.store().total_count());
  EXPECT_EQ(out.store().max_count(), f.xkg.store().max_count());

  // The laziness state travels: exactly the two pre-built shapes are
  // built after load — no rebuild, no eager extra work.
  EXPECT_EQ(out.store().score_shapes_built(), 2u);
  rdf::TermId born = out.dict().Find(rdf::TermKind::kResource, "bornIn");
  rdf::ScoreOrderIndex::List a =
      f.xkg.store().ScoreOrdered(rdf::kNullTerm, born, rdf::kNullTerm);
  rdf::ScoreOrderIndex::List b =
      out.store().ScoreOrdered(rdf::kNullTerm, born, rdf::kNullTerm);
  ASSERT_EQ(a.ids.size(), b.ids.size());
  EXPECT_EQ(a.mass, b.mass);
  for (size_t i = 0; i < a.ids.size(); ++i) EXPECT_EQ(a.ids[i], b.ids[i]);
  EXPECT_EQ(out.store().score_shapes_built(), 2u);  // lookup built nothing

  // Graph statistics, args included.
  ASSERT_EQ(out.stats().predicates(), f.xkg.stats().predicates());
  for (rdf::TermId p : f.xkg.stats().predicates()) {
    const auto* sa = f.xkg.stats().ForPredicate(p);
    const auto* sb = out.stats().ForPredicate(p);
    ASSERT_NE(sb, nullptr);
    EXPECT_EQ(sa->triple_count, sb->triple_count);
    EXPECT_EQ(sa->evidence_count, sb->evidence_count);
    EXPECT_EQ(sa->distinct_subjects, sb->distinct_subjects);
    EXPECT_EQ(sa->distinct_objects, sb->distinct_objects);
    EXPECT_TRUE(std::ranges::equal(f.xkg.stats().Args(p),
                                   out.stats().Args(p)));
  }

  // Provenance, sentence text included.
  for (rdf::TripleId id = 0; id < f.xkg.store().size(); ++id) {
    const auto& pa = f.xkg.ProvenanceFor(id);
    const auto& pb = out.ProvenanceFor(id);
    ASSERT_EQ(pa.size(), pb.size()) << "triple " << id;
    for (size_t i = 0; i < pa.size(); ++i) {
      EXPECT_EQ(pa[i].doc_id, pb[i].doc_id);
      EXPECT_EQ(pa[i].sentence_idx, pb[i].sentence_idx);
      EXPECT_EQ(pa[i].sentence, pb[i].sentence);
      EXPECT_EQ(pa[i].extraction_confidence, pb[i].extraction_confidence);
    }
  }

  // Rules: same renderings, kinds, and weights (no re-mining needed).
  ASSERT_EQ(loaded->rules.size(), f.rules.size());
  for (size_t i = 0; i < f.rules.size(); ++i) {
    EXPECT_EQ(loaded->rules.rules()[i].ToString(),
              f.rules.rules()[i].ToString());
    EXPECT_EQ(loaded->rules.rules()[i].kind, f.rules.rules()[i].kind);
  }

  EXPECT_EQ(loaded->generation, 7u);
  EXPECT_EQ(loaded->report.terms, f.xkg.dict().size());
  EXPECT_EQ(loaded->report.triples, f.xkg.store().size());
  EXPECT_EQ(loaded->report.permutations_restored, 5u);
  EXPECT_EQ(loaded->report.score_shapes_restored, 2u);
  EXPECT_EQ(loaded->report.rules, f.rules.size());
  EXPECT_EQ(loaded->report.index_rebuilds, 0u);
}

TEST(SnapshotTest, MissingFileIsIoError) {
  auto r = SnapshotReader::Read(TempPath("does_not_exist.trinit"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

TEST(SnapshotTest, ForeignFileIsRejectedByMagic) {
  const std::string path = TempPath("foreign.trinit");
  Spit(path, "T\tR:AlbertEinstein\tR:bornIn\tR:Ulm\t1\t1\n");  // a TSV dump
  auto r = SnapshotReader::Read(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);

  Spit(path, "");  // empty file
  r = SnapshotReader::Read(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(SnapshotTest, WrongVersionIsFailedPrecondition) {
  Fixture f;
  const std::string path = TempPath("version.trinit");
  ASSERT_TRUE(SnapshotWriter::Write(f.xkg, f.rules, 0, path).ok());
  const std::string pristine = Slurp(path);
  // This build reads exactly one format version: every older layout
  // and any newer one must fail before a single section is decoded.
  for (const uint32_t version : {1u, 2u, 3u, kSnapshotVersion + 1}) {
    std::string bytes = pristine;
    // The version field sits right after the 8-byte magic.
    std::memcpy(bytes.data() + 8, &version, sizeof(version));
    Spit(path, bytes);
    for (const ReadOptions& options : {kCopyRead, kMappedRead}) {
      auto r = SnapshotReader::Read(path, options);
      ASSERT_FALSE(r.ok()) << "version " << version;
      EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition)
          << "version " << version;
      EXPECT_NE(r.status().message().find("re-save from source"),
                std::string::npos)
          << r.status();
    }
  }
}

TEST(SnapshotTest, TruncationsAreRejectedCleanly) {
  Fixture f;
  const std::string path = TempPath("truncated.trinit");
  ASSERT_TRUE(SnapshotWriter::Write(f.xkg, f.rules, 0, path).ok());
  const std::string bytes = Slurp(path);
  ASSERT_GT(bytes.size(), 64u);

  // Cut the file at a spread of lengths, including mid-header,
  // mid-table, and one byte short: every cut must produce a typed
  // error, never a crash (asan/ubsan runs this too).
  const size_t cuts[] = {0,  4,  8,  12, 16,  31,  32,  63,
                         64, 100, bytes.size() / 2, bytes.size() - 1};
  for (size_t cut : cuts) {
    Spit(path, bytes.substr(0, cut));
    auto r = SnapshotReader::Read(path);
    ASSERT_FALSE(r.ok()) << "cut at " << cut;
    EXPECT_TRUE(r.status().code() == StatusCode::kInvalidArgument ||
                r.status().code() == StatusCode::kParseError)
        << "cut at " << cut << ": " << r.status();
  }
}

TEST(SnapshotTest, FlippedBytesNeverLoadSilentlyWrong) {
  Fixture f;
  const std::string path = TempPath("flipped.trinit");
  ASSERT_TRUE(SnapshotWriter::Write(f.xkg, f.rules, /*generation=*/3, path)
                  .ok());
  const std::string bytes = Slurp(path);

  // Flip one byte at a stride across the whole file. Every payload byte
  // is under a section checksum and must fail; a flip in the header or
  // table must fail too (magic/version/bounds/checksum). Padding bytes
  // between sections are outside any checksum, so the load may succeed
  // there — but then it must equal the pristine state (generation 3).
  size_t failures = 0;
  for (size_t pos = 0; pos < bytes.size(); pos += 37) {
    std::string mutated = bytes;
    mutated[pos] = static_cast<char>(mutated[pos] ^ 0x5a);
    Spit(path, mutated);
    auto r = SnapshotReader::Read(path);
    if (!r.ok()) {
      ++failures;
      EXPECT_TRUE(r.status().code() == StatusCode::kInvalidArgument ||
                  r.status().code() == StatusCode::kParseError ||
                  r.status().code() == StatusCode::kFailedPrecondition)
          << "flip at " << pos << ": " << r.status();
    } else {
      EXPECT_EQ(r->xkg.store().size(), f.xkg.store().size())
          << "flip at " << pos;
      EXPECT_EQ(r->generation, 3u) << "flip at " << pos;
    }
  }
  // The vast majority of positions are covered payload/header bytes.
  EXPECT_GT(failures, bytes.size() / 37 / 2);

  // The generation field (header bytes 16-23) is covered by no section
  // checksum; the header's own checksum must reject every flip there —
  // a wrong generation must never load silently.
  for (size_t pos = 16; pos < 24; ++pos) {
    std::string mutated = bytes;
    mutated[pos] = static_cast<char>(mutated[pos] ^ 0x01);
    Spit(path, mutated);
    auto r = SnapshotReader::Read(path);
    ASSERT_FALSE(r.ok()) << "generation flip at " << pos;
    EXPECT_EQ(r.status().code(), StatusCode::kParseError);
  }
}

TEST(SnapshotTest, UnbuiltIndexStaysLazyAfterLoad) {
  xkg::Xkg xkg = trinit::testing::BuildPaperXkg();  // nothing touched
  relax::RuleSet rules;
  const std::string path = TempPath("lazy.trinit");
  ASSERT_TRUE(SnapshotWriter::Write(xkg, rules, 0, path).ok());
  auto loaded = SnapshotReader::Read(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->report.score_shapes_restored, 0u);
  EXPECT_EQ(loaded->xkg.store().score_shapes_built(), 0u);
  // First-touch builds still work on the loaded store.
  rdf::TermId born =
      loaded->xkg.dict().Find(rdf::TermKind::kResource, "bornIn");
  rdf::ScoreOrderIndex::List list =
      loaded->xkg.store().ScoreOrdered(rdf::kNullTerm, born, rdf::kNullTerm);
  EXPECT_FALSE(list.ids.empty());
  EXPECT_EQ(loaded->xkg.store().score_shapes_built(), 1u);
}

// ------------------------------------------------- load-mode matrix

TEST(SnapshotTest, MatrixRoundTripsByteIdenticallyAcrossModes) {
  Fixture f;
  const std::string path = TempPath("matrix.trinit");
  ASSERT_TRUE(SnapshotWriter::Write(f.xkg, f.rules, 9, path).ok());

  struct Case {
    const char* label;
    ReadOptions options;
  };
  const Case cases[] = {
      {"copy", kCopyRead},
      {"mmap", kMappedRead},
      {"mmap-trusted", kTrustedRead},
  };
  for (const Case& c : cases) {
    auto loaded = SnapshotReader::Read(path, c.options);
    ASSERT_TRUE(loaded.ok()) << c.label << ": " << loaded.status();
    ExpectSameState(f, *loaded, c.label);
    EXPECT_EQ(loaded->generation, 9u) << c.label;

    const LoadReport& r = loaded->report;
    EXPECT_EQ(r.sections_mapped + r.sections_decoded, 8u) << c.label;
    const bool mapped_mode = c.options.mode == LoadMode::kMapped &&
                             MappedFile::Supported();
    EXPECT_EQ(r.mapped, mapped_mode) << c.label;
    if (!mapped_mode) {
      // Copying loads decode everything and read every byte.
      EXPECT_EQ(r.sections_mapped, 0u) << c.label;
      EXPECT_EQ(r.bytes_touched, r.bytes) << c.label;
    } else if (c.options.verify == rdf::SnapshotValidation::kTrusted) {
      // The headline path: viewed sections stay on disk, untouched.
      EXPECT_GT(r.sections_mapped, 0u) << c.label;
      EXPECT_TRUE(r.provenance_deferred) << c.label;
      EXPECT_LT(r.bytes_touched, r.bytes) << c.label;
    } else {
      // Full verification checksums everything even when mapped.
      EXPECT_EQ(r.bytes_touched, r.bytes) << c.label;
      EXPECT_FALSE(r.provenance_deferred) << c.label;
    }
  }
}

// --------------------------------------------- hostile mapped files

TEST(SnapshotTest, UnknownCodecByteIsFailedPrecondition) {
  Fixture f;
  const std::string path = TempPath("unknown_codec.trinit");
  ASSERT_TRUE(SnapshotWriter::Write(f.xkg, f.rules, 0, path).ok());
  const std::string pristine = Slurp(path);
  // Every section is raw. A nonzero codec byte — 1 on the five bulk
  // sections is how older writers marked their varint codec — means
  // "written by another build": the upgrade error, in every load mode,
  // before any section is decoded.
  struct Case {
    std::vector<uint32_t> sections;
    uint32_t codec;
  };
  const Case cases[] = {
      {{kTriplesId, kPermutationsId, kScoreShapesId, kGraphStatsId,
        kProvenanceId},
       1},
      {{kTriplesId}, 2},
      {{kRulesId}, 0xff},
  };
  for (const Case& c : cases) {
    std::string bytes = pristine;
    for (uint32_t id : c.sections) SetSectionFlags(&bytes, id, c.codec);
    Spit(path, bytes);
    for (const ReadOptions& options :
         {kCopyRead, kMappedRead, kTrustedRead}) {
      auto r = SnapshotReader::Read(path, options);
      ASSERT_FALSE(r.ok()) << "codec " << c.codec;
      EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition)
          << "codec " << c.codec << ": " << r.status();
      EXPECT_NE(r.status().message().find("re-save from source"),
                std::string::npos)
          << r.status();
    }
  }
}

TEST(SnapshotTest, CodecOnUncompressibleSectionIsRejected) {
  Fixture f;
  const std::string path = TempPath("codec_on_meta.trinit");
  ASSERT_TRUE(SnapshotWriter::Write(f.xkg, f.rules, 0, path).ok());
  std::string bytes = Slurp(path);
  SetSectionFlags(&bytes, kMetaId, 1);  // no writer ever encoded META
  Spit(path, bytes);
  for (const ReadOptions& options : {kCopyRead, kMappedRead, kTrustedRead}) {
    auto r = SnapshotReader::Read(path, options);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition)
        << r.status();
    EXPECT_NE(r.status().message().find("re-save from source"),
              std::string::npos)
        << r.status();
  }
}

TEST(SnapshotTest, ReservedFlagBitsAreRejected) {
  Fixture f;
  const std::string path = TempPath("reserved_flags.trinit");
  ASSERT_TRUE(SnapshotWriter::Write(f.xkg, f.rules, 0, path).ok());
  std::string bytes = Slurp(path);
  SetSectionFlags(&bytes, kTriplesId, 0x100);  // above the codec byte
  Spit(path, bytes);
  for (const ReadOptions& options : {kCopyRead, kTrustedRead}) {
    auto r = SnapshotReader::Read(path, options);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kParseError);
  }
}

TEST(SnapshotTest, SectionLengthOverflowingMappingIsRejected) {
  Fixture f;
  const std::string path = TempPath("overflow_len.trinit");
  ASSERT_TRUE(SnapshotWriter::Write(f.xkg, f.rules, 0, path).ok());
  const std::string pristine = Slurp(path);
  // A length that runs past the mapping, one that wraps offset+length
  // past 2^64, and one just one byte too long.
  auto [offset, length] = SectionExtent(pristine, kTriplesId);
  const uint64_t hostile[] = {pristine.size(), ~uint64_t{0} - offset + 2,
                              pristine.size() - offset + 1};
  for (uint64_t len : hostile) {
    std::string bytes = pristine;
    SetSectionLength(&bytes, kTriplesId, len);
    Spit(path, bytes);
    for (const ReadOptions& options : {kCopyRead, kTrustedRead}) {
      auto r = SnapshotReader::Read(path, options);
      ASSERT_FALSE(r.ok()) << "length " << len;
      EXPECT_EQ(r.status().code(), StatusCode::kParseError) << len;
    }
  }
}

TEST(SnapshotTest, TruncationsAreRejectedCleanlyInMappedMode) {
  Fixture f;
  const std::string path = TempPath("truncated_mmap.trinit");
  ASSERT_TRUE(SnapshotWriter::Write(f.xkg, f.rules, 0, path).ok());
  const std::string bytes = Slurp(path);
  // Same cut schedule as the copying-path test, including mid-header
  // and mid-section-table cuts, through the mmap reader — and through
  // mmap+trusted, which must *still* catch every frame violation.
  const size_t cuts[] = {0,  4,  8,  12, 16,  31,  32,  63,
                         64, 100, bytes.size() / 2, bytes.size() - 1};
  for (size_t cut : cuts) {
    Spit(path, bytes.substr(0, cut));
    for (const ReadOptions& options : {kMappedRead, kTrustedRead}) {
      auto r = SnapshotReader::Read(path, options);
      ASSERT_FALSE(r.ok()) << "cut at " << cut;
      EXPECT_TRUE(r.status().code() == StatusCode::kInvalidArgument ||
                  r.status().code() == StatusCode::kParseError)
          << "cut at " << cut << ": " << r.status();
    }
  }
}

TEST(SnapshotTest, FlippedBytesNeverLoadSilentlyWrongInMappedMode) {
  Fixture f;
  const std::string path = TempPath("flipped_mmap.trinit");
  ASSERT_TRUE(SnapshotWriter::Write(f.xkg, f.rules, /*generation=*/3, path)
                  .ok());
  const std::string bytes = Slurp(path);
  for (size_t pos = 0; pos < bytes.size(); pos += 37) {
    std::string mutated = bytes;
    mutated[pos] = static_cast<char>(mutated[pos] ^ 0x5a);
    Spit(path, mutated);
    // Fully-verifying mapped loads give the copying path's guarantee.
    auto r = SnapshotReader::Read(path, kMappedRead);
    if (!r.ok()) {
      EXPECT_TRUE(r.status().code() == StatusCode::kInvalidArgument ||
                  r.status().code() == StatusCode::kParseError ||
                  r.status().code() == StatusCode::kFailedPrecondition)
          << "flip at " << pos << ": " << r.status();
    } else {
      EXPECT_EQ(r->generation, 3u) << "flip at " << pos;
    }
    // Trusted mapped loads may *accept* a flip inside a viewed payload
    // (the documented contract) but must never crash or corrupt memory
    // — the sanitizer jobs run this loop too. Walking the store and
    // provenance exercises every deferred path against the flip.
    auto t = SnapshotReader::Read(path, kTrustedRead);
    if (t.ok()) {
      for (rdf::TripleId id = 0; id < t->xkg.store().size(); ++id) {
        (void)t->xkg.ProvenanceFor(id);
      }
      (void)t->xkg.provenance_status();
    }
  }
}

TEST(SnapshotTest, DeferredProvenanceCorruptionSurfacesAsStatus) {
  Fixture f;
  const std::string path = TempPath("deferred_prov.trinit");
  ASSERT_TRUE(SnapshotWriter::Write(f.xkg, f.rules, 0, path).ok());
  std::string bytes = Slurp(path);
  auto [offset, length] = SectionExtent(bytes, kProvenanceId);
  ASSERT_GT(length, 8u);
  bytes[offset + length / 2] =
      static_cast<char>(bytes[offset + length / 2] ^ 0x5a);
  Spit(path, bytes);

  // Full verification catches the flip at open, both modes.
  for (const ReadOptions& options : {kCopyRead, kMappedRead}) {
    auto r = SnapshotReader::Read(path, options);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kParseError);
  }

  // Trusted defers the provenance decode — the open succeeds, and the
  // damage surfaces as a typed status (plus empty provenance, never
  // garbage) on first touch.
  auto t = SnapshotReader::Read(path, kTrustedRead);
  if (!MappedFile::Supported()) return;
  ASSERT_TRUE(t.ok()) << t.status();
  EXPECT_TRUE(t->report.provenance_deferred);
  for (rdf::TripleId id = 0; id < t->xkg.store().size(); ++id) {
    EXPECT_TRUE(t->xkg.ProvenanceFor(id).empty());
  }
  Status s = t->xkg.provenance_status();
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kParseError);
}

TEST(SnapshotTest, FailedWritesLeaveNoTempFile) {
  Fixture f;
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "snapshot_failed_writes";
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(std::filesystem::create_directories(dir / "taken"));
  // No temp file can be created in a missing directory; and the rename
  // onto an existing directory fails after the temp file was written.
  const std::filesystem::path targets[] = {dir / "missing" / "x.trinit",
                                           dir / "taken"};
  for (const std::filesystem::path& target : targets) {
    Status s = SnapshotWriter::Write(f.xkg, f.rules, 0, target.string());
    ASSERT_FALSE(s.ok()) << target;
    EXPECT_EQ(s.code(), StatusCode::kIoError) << target;
  }
  // Only the directory the test made is left: no temp file survived.
  std::vector<std::string> entries;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    entries.push_back(entry.path().filename().string());
  }
  EXPECT_EQ(entries, std::vector<std::string>{"taken"});
}

TEST(SnapshotTest, TrustedCopyModeStillFullyVerifies) {
  Fixture f;
  const std::string path = TempPath("trusted_copy.trinit");
  ASSERT_TRUE(SnapshotWriter::Write(f.xkg, f.rules, 0, path).ok());
  std::string bytes = Slurp(path);
  auto [offset, length] = SectionExtent(bytes, kTriplesId);
  bytes[offset] = static_cast<char>(bytes[offset] ^ 0x5a);
  Spit(path, bytes);
  // kTrusted is only honored on the mapped view path; asking for it
  // with a copying load keeps every checksum.
  auto r = SnapshotReader::Read(
      path, {LoadMode::kCopy, rdf::SnapshotValidation::kTrusted});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
}

}  // namespace
}  // namespace trinit::storage
