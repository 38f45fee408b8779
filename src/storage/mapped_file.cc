#include "storage/mapped_file.h"

#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#define TRINIT_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define TRINIT_HAVE_MMAP 0
#endif

namespace trinit::storage {

bool MappedFile::Supported() { return TRINIT_HAVE_MMAP != 0; }

#if TRINIT_HAVE_MMAP

Result<MappedFile> MappedFile::Map(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::IoError("cannot open for mmap: " + path);
  struct stat st;
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    return Status::IoError("cannot stat: " + path);
  }
  MappedFile out;
  out.size_ = static_cast<size_t>(st.st_size);
  if (out.size_ > 0) {
    void* addr = ::mmap(nullptr, out.size_, PROT_READ, MAP_PRIVATE, fd, 0);
    if (addr == MAP_FAILED) {
      ::close(fd);
      return Status::IoError("mmap failed: " + path);
    }
    out.data_ = static_cast<const char*>(addr);
  }
  // The mapping holds its own reference to the file; the descriptor is
  // no longer needed (and keeping it would leak fds across N replicas).
  ::close(fd);
  return out;
}

MappedFile::~MappedFile() {
  if (data_ != nullptr) {
    ::munmap(const_cast<char*>(data_), size_);
  }
}

#else  // !TRINIT_HAVE_MMAP

Result<MappedFile> MappedFile::Map(const std::string& path) {
  return Status::Unimplemented("mmap is not available on this platform: " +
                               path);
}

MappedFile::~MappedFile() = default;

#endif  // TRINIT_HAVE_MMAP

MappedFile::MappedFile(MappedFile&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)) {}

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
    MappedFile tmp(std::move(other));
    std::swap(data_, tmp.data_);
    std::swap(size_, tmp.size_);
  }
  return *this;
}

}  // namespace trinit::storage
