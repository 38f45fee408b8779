#ifndef TRINIT_STORAGE_SNAPSHOT_H_
#define TRINIT_STORAGE_SNAPSHOT_H_

#include <cstdint>
#include <string>

#include "relax/rule_set.h"
#include "util/result.h"
#include "util/status.h"
#include "xkg/xkg.h"

namespace trinit::storage {

/// Binary snapshot persistence of the complete TriniT serving state —
/// the engine-side answer to "real engines serialize their inverted
/// structures once and load them many times" (cf. the demo's
/// ElasticSearch backend, which persisted its postings natively, while
/// this reproduction rebuilt everything from TSV on every start).
///
/// One snapshot file holds, in this order:
///
///   header    magic "TRNTSNAP", format version, endianness tag, the
///             XKG generation at save time, section count
///   table     one entry per section: id, flags (must be 0; see
///             below), byte offset, byte length, FNV-1a 64 checksum of
///             the payload
///   sections  8-byte-aligned little-endian payloads of fixed-width
///             records: META, DICT, TRIPLES, PERMS, SCORE, STATS,
///             PROV, RULES
///
/// *Load mode* (`ReadOptions::mode`). `LoadMode::kCopy` reads the file
/// into memory and decodes every section into owning structures.
/// `LoadMode::kMapped` mmaps the file read-only and serves the
/// fixed-width sections — TRIPLES records, the five PERMS arrays,
/// SCORE ids/prefix-mass arrays, STATS (s,o) pair arrays — as zero-copy
/// span views over the mapping (the page cache shares the physical
/// bytes across replicas); only the structures that need hashing or
/// pointers (DICT, STATS headers, RULES, META) are materialized. The
/// mapping is parked behind a shared_ptr inside the loaded `xkg::Xkg`,
/// so views cannot outlive their pages, and the first `ExtendKg`
/// rebuild copies into owned vectors (copy-on-write; see
/// docs/CONCURRENCY.md, "Mapping lifetime"). Mapped mode falls back to
/// the copying path when mmap is unavailable.
///
/// *Section flags.* Every section has one encoding, the raw records
/// above, and the writer writes a flag word of 0. The word's low byte
/// once named a per-section codec, so a nonzero low byte fails with
/// FailedPrecondition ("re-save from source"); a set reserved upper
/// bit is corruption.
///
/// Verification (`ReadOptions::verify`). `kFull` (default) checksums
/// every section and re-validates every decoded invariant in O(n) —
/// identical guarantees in both load modes. `kTrusted` is the
/// explicit opt-in for mapped serving of files this process (or a
/// trusted pipeline) wrote: only O(1) structural checks run on the
/// viewed sections, provenance decode is deferred until the first
/// `Explain`, and a cold open touches a small fraction of the file's
/// bytes (`LoadReport::bytes_touched`). Trusted mode still never
/// exhibits UB on a malformed *frame* (every offset/length/count is
/// bounds-checked before use), but corrupt array *contents* inside an
/// intact frame are served as-is — that is the contract.
///
/// Versioning policy: one version. `kSnapshotVersion` is bumped on ANY
/// layout change, and this build reads and writes exactly that version;
/// any other fails with FailedPrecondition. Snapshots are derived data:
/// callers re-save from the TSV/world source to upgrade.
/// Error taxonomy, all typed `util::Status` (never a crash, no UB on
/// hostile bytes):
///
///   kIoError            file cannot be opened/read/written
///   kInvalidArgument    not a TriniT snapshot (bad magic/endianness),
///                       or a decoded structure violates an invariant
///   kFailedPrecondition snapshot written by a different format
///                       version, or with a nonzero section codec byte
///   kParseError         corrupt bytes: truncation, out-of-bounds
///                       section, checksum mismatch, malformed payload
///
/// Dictionary note: the term hash index is deliberately *not*
/// persisted — terms are a small fraction of the state (measured ~3%
/// of file bytes, ~480 terms vs ~2409 triples on the P4 world) and the
/// id-order Intern replay that rebuilds the hash doubles as the
/// section's integrity check; persisting a hash table would grow every
/// snapshot to save microseconds.

/// The one format version this build writes and reads.
inline constexpr uint32_t kSnapshotVersion = 4;

/// Leading 8 bytes of every TriniT snapshot file.
inline constexpr char kSnapshotMagic[8] = {'T', 'R', 'N', 'T',
                                           'S', 'N', 'A', 'P'};

enum class LoadMode : uint8_t {
  kCopy = 0,    ///< read + decode everything into owned memory
  kMapped = 1,  ///< mmap; view fixed-width sections zero-copy
};

struct ReadOptions {
  LoadMode mode = LoadMode::kCopy;
  /// kTrusted only changes behavior in mapped mode; the copying path
  /// always fully verifies.
  rdf::SnapshotValidation verify = rdf::SnapshotValidation::kFull;
};

class SnapshotWriter {
 public:
  /// Writes `xkg` + `rules` (and the serving `generation`) to `path`,
  /// overwriting. The XKG is not mutated; lazily-built index shapes are
  /// persisted exactly as currently materialized. Each call writes its
  /// own exclusively created temp file next to `path` and renames it
  /// into place, so concurrent writers to one path never interleave
  /// bytes: the last rename wins and every rename publishes a whole
  /// file.
  static Status Write(const xkg::Xkg& xkg, const relax::RuleSet& rules,
                      uint64_t generation, const std::string& path);
};

/// What a snapshot load actually did — the cold-start work counters
/// `bench_p4_coldstart` contrasts with a TSV rebuild.
struct LoadReport {
  size_t terms = 0;                   ///< dictionary entries restored
  size_t triples = 0;                 ///< store triples restored
  size_t permutations_restored = 0;   ///< SPO-permutation arrays, verbatim
  size_t score_shapes_restored = 0;   ///< lazy shapes restored pre-built
  size_t provenance_records = 0;
  size_t rules = 0;                   ///< rule set entries (no re-mining)
  size_t bytes = 0;                   ///< snapshot file size
  /// Index structures that had to be rebuilt (sorted) during load —
  /// always 0 on the snapshot path; the TSV cold start's contrast.
  size_t index_rebuilds = 0;

  /// True when the file was served through an mmap (LoadMode::kMapped
  /// and the platform supports it).
  bool mapped = false;
  /// True when provenance decode was deferred to first use (trusted
  /// mapped mode).
  bool provenance_deferred = false;
  /// Estimate of distinct file bytes this load actually read (header,
  /// table, checksummed/decoded sections, and the framing words of
  /// viewed sections). Equals `bytes` on every fully-verifying path;
  /// a small fraction of it on the trusted mapped path.
  size_t bytes_touched = 0;
  /// Estimate of private (per-process) bytes held by the loaded state:
  /// owned index arrays + decoded dictionary/provenance/rules. Mapped
  /// views contribute 0 — their pages are shared and evictable.
  size_t resident_bytes = 0;
  size_t sections_mapped = 0;   ///< sections served as views (+ deferred)
  size_t sections_decoded = 0;  ///< sections materialized into memory
};

/// A successfully loaded snapshot: the serving state plus the XKG
/// generation stamped at save time (seed for a coherent serving cache).
struct LoadedSnapshot {
  xkg::Xkg xkg;
  relax::RuleSet rules;
  uint64_t generation = 0;
  LoadReport report;
};

class SnapshotReader {
 public:
  /// Reads a snapshot previously written by `SnapshotWriter::Write`.
  /// Rejects foreign, truncated, corrupt, and version-mismatched files
  /// with the typed errors documented above.
  static Result<LoadedSnapshot> Read(const std::string& path,
                                     const ReadOptions& options);
  static Result<LoadedSnapshot> Read(const std::string& path) {
    return Read(path, ReadOptions{});
  }
};

}  // namespace trinit::storage

#endif  // TRINIT_STORAGE_SNAPSHOT_H_
