// Seeded mutation fuzzer over the snapshot read paths. Each test takes
// one mutation family — bit flips, byte overwrites, range insert,
// delete and duplicate, truncation, boundary values in the header and
// section table — applies it to a raw snapshot of the paper engine
// under fixed seeds, and opens every mutant in all three load modes.
// Every other mutant is repaired: a range edit stays inside one section
// and the table follows it (that section's length, the later sections'
// offsets, zero padding to keep them 8-aligned), and the section and
// header checksums are recomputed — so the damage gets past the frame
// and checksum gates and into the decoders.
//
// Invariants:
//   * copy and mmap with full verification: `Trinit::Open` returns a
//     typed error (kInvalidArgument, kParseError, kFailedPrecondition)
//     or an engine that answers, explains and renders the paper
//     queries;
//   * mmap trusted: `SnapshotReader::Read` returns a typed error or a
//     load whose store, stats and provenance can be walked. No queries
//     run on it: trusted mode serves corrupt array contents as they
//     are, by contract.
// The sanitizer builds (`ci.sh --sanitize`) run this file too, where a
// crash or an out-of-bounds read fails the run.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>

#include "core/trinit.h"
#include "storage/snapshot.h"
#include "testing/paper_world.h"
#include "util/hash.h"
#include "util/random.h"

namespace trinit::storage {
namespace {

// Wire layout (see snapshot.cc): a 32-byte header whose last u32 is a
// checksum of the 28 bytes before it, then 8 table entries of 32 bytes
// — u32 id, u32 flags, u64 offset, u64 length, u64 checksum.
constexpr size_t kHeaderBytes = 32;
constexpr size_t kTableEntryBytes = 32;
constexpr size_t kNumSections = 8;
constexpr size_t kTableEnd = kHeaderBytes + kNumSections * kTableEntryBytes;

constexpr int kMutantsPerFamily = 256;

const char* const kPaperQueries[] = {
    "?x bornIn Germany",
    "AlbertEinstein hasAdvisor ?x",
    "AlbertEinstein 'won nobel for' ?x",
    "SELECT ?x WHERE AlbertEinstein affiliation ?x ; ?x member IvyLeague",
};

/// A raw snapshot of the paper engine (world, manual rules, the shapes
/// the paper queries build), written once.
const std::string& PristineSnapshot() {
  static const std::string bytes = [] {
    auto engine = core::Trinit::Open(trinit::testing::BuildPaperXkg());
    EXPECT_TRUE(engine.ok()) << engine.status();
    EXPECT_TRUE(engine->AddManualRules(trinit::testing::kPaperRulesText).ok());
    for (const char* text : kPaperQueries) {
      EXPECT_TRUE(engine->Execute(core::QueryRequest::Text(text, 5)).ok());
    }
    const std::string path = ::testing::TempDir() + "/fuzz_pristine.trinit";
    EXPECT_TRUE(engine->Save(path).ok());
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  }();
  return bytes;
}

uint64_t Load64(const std::string& bytes, size_t pos) {
  uint64_t v = 0;
  std::memcpy(&v, bytes.data() + pos, sizeof(v));
  return v;
}

template <typename T>
void Store(std::string* bytes, size_t pos, T value) {
  if (pos + sizeof(T) <= bytes->size()) {
    std::memcpy(bytes->data() + pos, &value, sizeof(T));
  }
}

/// Recomputes every in-bounds section checksum and the header checksum,
/// so a mutant's damage reaches the decoders instead of the checksum
/// gate.
void RepairChecksums(std::string* bytes) {
  if (bytes->size() < kHeaderBytes) return;
  for (size_t i = 0; i < kNumSections; ++i) {
    const size_t entry = kHeaderBytes + i * kTableEntryBytes;
    if (entry + kTableEntryBytes > bytes->size()) break;
    const uint64_t offset = Load64(*bytes, entry + 8);
    const uint64_t length = Load64(*bytes, entry + 16);
    if (offset > bytes->size() || length > bytes->size() - offset) continue;
    Store(bytes, entry + 24,
          Fnv1a64({bytes->data() + offset, static_cast<size_t>(length)}));
  }
  Store(bytes, kHeaderBytes - 4,
        static_cast<uint32_t>(Fnv1a64({bytes->data(), kHeaderBytes - 4})));
}

size_t Pos(Rng& rng, const std::string& bytes) {
  return static_cast<size_t>(rng.Uniform(bytes.size()));
}

std::string RandomBytes(Rng& rng, size_t n) {
  std::string out(n, '\0');
  for (char& c : out) c = static_cast<char>(rng.Uniform(256));
  return out;
}

/// Range lengths mostly small, sometimes a whole section's worth.
size_t RangeLength(Rng& rng) {
  return static_cast<size_t>(rng.Bernoulli(0.8) ? 1 + rng.Uniform(16)
                                                : 1 + rng.Uniform(4096));
}

/// Replaces `erase` bytes at `pos` with `insert`. With `keep_frame`,
/// the edit is clipped to the section holding `pos`; the table then
/// grows or shrinks that section and moves the later sections by the
/// size change, padded with zeros to a multiple of 8 so they stay
/// aligned. An edit outside every section (header, table, padding) is
/// applied as is.
void Splice(std::string* bytes, size_t pos, size_t erase,
            const std::string& insert, bool keep_frame) {
  size_t edited_entry = 0;
  bool in_section = false;
  if (keep_frame && bytes->size() >= kTableEnd) {
    for (size_t i = 0; i < kNumSections; ++i) {
      const size_t entry = kHeaderBytes + i * kTableEntryBytes;
      const uint64_t offset = Load64(*bytes, entry + 8);
      const uint64_t length = Load64(*bytes, entry + 16);
      if (offset <= pos && pos - offset <= length &&
          offset + length <= bytes->size()) {
        edited_entry = entry;
        in_section = true;
        erase = std::min<size_t>(erase, offset + length - pos);
        break;
      }
    }
  }
  bytes->replace(pos, erase, insert);
  if (!in_section) return;
  const int64_t change =
      static_cast<int64_t>(insert.size()) - static_cast<int64_t>(erase);
  const uint64_t edited_offset = Load64(*bytes, edited_entry + 8);
  Store(bytes, edited_entry + 16,
        Load64(*bytes, edited_entry + 16) + static_cast<uint64_t>(change));
  // The next section starts at the first offset past the edited one;
  // zero padding in front of it restores 8-byte alignment.
  uint64_t next = UINT64_MAX;
  for (size_t i = 0; i < kNumSections; ++i) {
    const size_t entry = kHeaderBytes + i * kTableEntryBytes;
    const uint64_t offset = Load64(*bytes, entry + 8);
    if (offset > edited_offset) next = std::min(next, offset);
  }
  if (next == UINT64_MAX) return;
  const uint64_t moved = next + static_cast<uint64_t>(change);
  const uint64_t pad = (8 - moved % 8) % 8;
  bytes->insert(moved, pad, '\0');
  const uint64_t shift = static_cast<uint64_t>(change) + pad;
  for (size_t i = 0; i < kNumSections; ++i) {
    const size_t entry = kHeaderBytes + i * kTableEntryBytes;
    const uint64_t offset = Load64(*bytes, entry + 8);
    if (offset > edited_offset) Store(bytes, entry + 8, offset + shift);
  }
}

using Mutation = std::function<void(Rng&, std::string*, bool keep_frame)>;

void FlipBits(Rng& rng, std::string* bytes, bool) {
  const uint64_t flips = 1 + rng.Uniform(4);
  for (uint64_t i = 0; i < flips; ++i) {
    (*bytes)[Pos(rng, *bytes)] ^= static_cast<char>(1u << rng.Uniform(8));
  }
}

void OverwriteBytes(Rng& rng, std::string* bytes, bool) {
  const size_t pos = Pos(rng, *bytes);
  const std::string patch =
      RandomBytes(rng, std::min(RangeLength(rng), bytes->size() - pos));
  bytes->replace(pos, patch.size(), patch);
}

void InsertRange(Rng& rng, std::string* bytes, bool keep_frame) {
  const size_t pos = Pos(rng, *bytes);
  Splice(bytes, pos, 0, RandomBytes(rng, RangeLength(rng)), keep_frame);
}

void DeleteRange(Rng& rng, std::string* bytes, bool keep_frame) {
  const size_t pos = Pos(rng, *bytes);
  Splice(bytes, pos, RangeLength(rng), "", keep_frame);
}

void DuplicateRange(Rng& rng, std::string* bytes, bool keep_frame) {
  const size_t pos = Pos(rng, *bytes);
  const size_t length = std::min(RangeLength(rng), bytes->size() - pos);
  // Repeat the range right after itself (record-sized repeats of a
  // section's own bytes, e.g. a duplicated id or record).
  Splice(bytes, pos + length, 0, bytes->substr(pos, length), keep_frame);
}

void Truncate(Rng& rng, std::string* bytes, bool) {
  // Half the cuts land in the header or the table, where every field
  // is a frame check.
  const size_t limit = rng.Bernoulli(0.5) ? kTableEnd + 1 : bytes->size();
  bytes->resize(rng.Uniform(limit));
}

/// Writes an edge value into one header or table field: the version,
/// the section count, or a table entry's id, flags, offset, length or
/// checksum.
void TableBoundaryValue(Rng& rng, std::string* bytes, bool) {
  const uint64_t size = bytes->size();
  const uint64_t edges[] = {0,
                            1,
                            7,
                            8,
                            0xff,
                            0x100,
                            UINT32_MAX,
                            uint64_t{UINT32_MAX} + 1,
                            INT64_MAX,
                            UINT64_MAX,
                            size - 1,
                            size,
                            size + 1,
                            size / 2,
                            kTableEnd,
                            kTableEnd - 1};
  const uint64_t value = edges[rng.Uniform(std::size(edges))];
  const uint64_t field = rng.Uniform(2 + kNumSections * 5);
  if (field == 0) {
    Store(bytes, 8, static_cast<uint32_t>(value));  // version
    return;
  }
  if (field == 1) {
    Store(bytes, 24, static_cast<uint32_t>(value));  // section count
    return;
  }
  const size_t entry = kHeaderBytes + (field - 2) / 5 * kTableEntryBytes;
  switch ((field - 2) % 5) {
    case 0:
      Store(bytes, entry, static_cast<uint32_t>(value));  // id
      break;
    case 1:
      Store(bytes, entry + 4, static_cast<uint32_t>(value));  // flags
      break;
    case 2:
      Store(bytes, entry + 8, value);  // offset
      break;
    case 3:
      Store(bytes, entry + 16, value);  // length
      break;
    default:
      Store(bytes, entry + 24, value);  // checksum
      break;
  }
}

bool IsTypedRejection(const Status& status) {
  return status.code() == StatusCode::kInvalidArgument ||
         status.code() == StatusCode::kParseError ||
         status.code() == StatusCode::kFailedPrecondition;
}

/// A fully verified load must serve: every paper query executes, and
/// its answers explain and render.
void ExpectServes(const core::Trinit& engine, const std::string& label) {
  for (const char* text : kPaperQueries) {
    auto response = engine.Execute(core::QueryRequest::Text(text, 5));
    ASSERT_TRUE(response.ok()) << label << " " << text << ": "
                               << response.status();
    const topk::TopKResult& result = response->result();
    for (size_t rank = 0; rank < result.answers.size(); ++rank) {
      (void)engine.Explain(result, rank);
      (void)engine.RenderAnswer(result, rank);
    }
  }
}

/// A trusted load must be walkable without a crash, whatever its
/// contents: every triple, permutation entry, stats pair and
/// provenance record is read (the sanitizer builds check each access).
void WalkTrustedLoad(const LoadedSnapshot& loaded) {
  const xkg::Xkg& xkg = loaded.xkg;
  const rdf::TripleStore& store = xkg.store();
  uint64_t sum = 0;
  for (rdf::TripleId id = 0; id < store.size(); ++id) {
    const rdf::Triple& t = store.triple(id);
    sum += t.s + t.p + t.o;
  }
  for (size_t i = 0; i < rdf::TripleStore::kNumIndexPermutations; ++i) {
    // Sizes are frame checks, which trusted loads still make.
    EXPECT_EQ(store.IndexPermutation(i).size(), store.size());
    for (rdf::TripleId id : store.IndexPermutation(i)) sum += id;
  }
  for (rdf::TermId p : xkg.stats().predicates()) {
    for (const auto& [s, o] : xkg.stats().Args(p)) sum += s + o;
  }
  for (rdf::TripleId id = 0; id < store.size(); ++id) {
    for (const xkg::Provenance& prov : xkg.ProvenanceFor(id)) {
      sum += prov.sentence.size();
    }
  }
  (void)xkg.provenance_status();
  (void)sum;
}

struct Outcome {
  int accepted = 0;
  int rejected = 0;
};

/// Opens one mutant in all three load modes and checks the invariants.
void CheckMutant(const std::string& path, const std::string& label,
                 Outcome* outcome) {
  const ReadOptions full_modes[] = {
      {LoadMode::kCopy, rdf::SnapshotValidation::kFull},
      {LoadMode::kMapped, rdf::SnapshotValidation::kFull},
  };
  for (const ReadOptions& read : full_modes) {
    core::TrinitOptions options;
    options.snapshot_read = read;
    auto engine = core::Trinit::Open(path, options);
    if (!engine.ok()) {
      ++outcome->rejected;
      EXPECT_TRUE(IsTypedRejection(engine.status()))
          << label << ": " << engine.status();
      continue;
    }
    ++outcome->accepted;
    ExpectServes(*engine, label);
  }
  auto trusted = SnapshotReader::Read(
      path, {LoadMode::kMapped, rdf::SnapshotValidation::kTrusted});
  if (!trusted.ok()) {
    ++outcome->rejected;
    EXPECT_TRUE(IsTypedRejection(trusted.status()))
        << label << " trusted: " << trusted.status();
    return;
  }
  ++outcome->accepted;
  WalkTrustedLoad(*trusted);
}

/// Runs `kMutantsPerFamily` mutants of one family, seeds `seed`,
/// `seed + 1`, ...; odd seeds are repaired (frame and checksums).
Outcome FuzzFamily(const char* family, uint64_t seed, const Mutation& mutate) {
  const std::string& pristine = PristineSnapshot();
  EXPECT_GT(pristine.size(), kTableEnd);
  const std::string path =
      ::testing::TempDir() + "/fuzz_" + std::string(family) + ".trinit";
  Outcome outcome;
  for (int i = 0; i < kMutantsPerFamily; ++i) {
    const uint64_t mutant_seed = seed + static_cast<uint64_t>(i);
    Rng rng(mutant_seed);
    std::string bytes = pristine;
    const bool repaired = mutant_seed % 2 == 1;
    mutate(rng, &bytes, repaired);
    if (repaired) RepairChecksums(&bytes);
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    CheckMutant(path,
                std::string(family) + " seed " + std::to_string(mutant_seed) +
                    (repaired ? " (repaired)" : ""),
                &outcome);
  }
  return outcome;
}

TEST(SnapshotFuzzTest, BitFlips) {
  const Outcome o = FuzzFamily("bit_flips", 1000, FlipBits);
  EXPECT_GT(o.rejected, 0);
}

TEST(SnapshotFuzzTest, ByteOverwrites) {
  const Outcome o = FuzzFamily("byte_overwrites", 2000, OverwriteBytes);
  EXPECT_GT(o.rejected, 0);
}

TEST(SnapshotFuzzTest, RangeInserts) {
  const Outcome o = FuzzFamily("range_inserts", 3000, InsertRange);
  EXPECT_GT(o.rejected, 0);
}

TEST(SnapshotFuzzTest, RangeDeletes) {
  const Outcome o = FuzzFamily("range_deletes", 4000, DeleteRange);
  EXPECT_GT(o.rejected, 0);
}

TEST(SnapshotFuzzTest, RangeDuplicates) {
  const Outcome o = FuzzFamily("range_duplicates", 5000, DuplicateRange);
  EXPECT_GT(o.rejected, 0);
}

TEST(SnapshotFuzzTest, Truncations) {
  const Outcome o = FuzzFamily("truncations", 6000, Truncate);
  // Every cut loses bytes some frame check covers.
  EXPECT_EQ(o.accepted, 0);
}

TEST(SnapshotFuzzTest, TableBoundaryValues) {
  const Outcome o = FuzzFamily("table_boundaries", 7000, TableBoundaryValue);
  EXPECT_GT(o.rejected, 0);
}

// The unmutated snapshot loads and serves in every mode: the harness
// itself rejects nothing it should accept.
TEST(SnapshotFuzzTest, PristineSnapshotLoadsInEveryMode) {
  const std::string path = ::testing::TempDir() + "/fuzz_unmutated.trinit";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(PristineSnapshot().data(),
              static_cast<std::streamsize>(PristineSnapshot().size()));
  }
  Outcome outcome;
  CheckMutant(path, "pristine", &outcome);
  EXPECT_EQ(outcome.accepted, 3);
  EXPECT_EQ(outcome.rejected, 0);
}

}  // namespace
}  // namespace trinit::storage
