#ifndef TRINIT_STORAGE_MAPPED_FILE_H_
#define TRINIT_STORAGE_MAPPED_FILE_H_

#include <cstddef>
#include <span>
#include <string>

#include "util/result.h"
#include "util/status.h"

namespace trinit::storage {

/// RAII read-only memory mapping of one file — the zero-copy substrate
/// of `SnapshotReader`'s mmap load mode. The mapping is private and
/// read-only, so N replica processes opening the same snapshot share
/// one physical copy of its clean pages through the page cache.
///
/// Platform story: POSIX `mmap` where available; `Map` returns
/// Unimplemented elsewhere and callers fall back to the copying read
/// path (`Supported()` lets them ask first). The mapping's base
/// address is page-aligned, so the 8-aligned TRNTSNAP section offsets
/// stay 8-aligned in memory.
///
/// Lifetime: spans returned by `bytes()` alias the mapping and die
/// with it. The storage layer parks the MappedFile behind a
/// `shared_ptr` inside the loaded `xkg::Xkg`, so index views cannot
/// outlive their pages (see docs/CONCURRENCY.md, "Mapping lifetime").
/// Truncating the snapshot file on disk while it is mapped is outside
/// the contract (SIGBUS on access, as with any mmap consumer);
/// `SnapshotWriter`'s write-temp-then-rename discipline never
/// truncates a live file in place.
class MappedFile {
 public:
  /// Maps `path` read-only. IoError when the file cannot be opened or
  /// mapped; Unimplemented on platforms without mmap. An empty file
  /// maps successfully to an empty span.
  static Result<MappedFile> Map(const std::string& path);

  /// True when this build has an mmap implementation.
  static bool Supported();

  MappedFile() = default;
  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  ~MappedFile();

  /// The mapped bytes; valid until destruction.
  std::span<const char> bytes() const { return {data_, size_}; }
  size_t size() const { return size_; }

 private:
  const char* data_ = nullptr;
  size_t size_ = 0;
};

}  // namespace trinit::storage

#endif  // TRINIT_STORAGE_MAPPED_FILE_H_
