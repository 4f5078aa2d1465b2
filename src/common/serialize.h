// Crash-consistent sectioned binary serialization for checkpoint files.
//
// File layout (all integers little-endian native; the format is
// single-machine durable state, not an interchange format):
//
//   [head magic u64]
//   [section 0 bytes][section 1 bytes]...        <- raw payload, contiguous
//   [footer: magic u64, version u32, nsections u32,
//            per section {name, offset u64, bytes u64, crc32c u32},
//            footer crc32c u32]
//   [trailer: footer offset u64, tail magic u64]
//
// The footer + trailer are the *commit record*: they are written and
// fsynced only after every section byte is on disk, so a crash mid-write
// leaves a file with no valid trailer -- always detectable, never
// misread as a shorter-but-valid checkpoint. The Reader verifies the
// trailer, footer CRC, format version, and every section's CRC32C
// before any typed read is allowed; a failure surfaces as a
// ClassifiedError/IoError at one of the ckpt.* sites (see DESIGN.md
// section 9 and section 14).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <type_traits>
#include <vector>

namespace cs::serialize {

/// CRC32C (Castagnoli), software table implementation. Chain calls by
/// feeding the previous return value as `crc` (start from 0).
std::uint32_t crc32c(std::uint32_t crc, const void* data, std::size_t n);

/// Bumped whenever a section's layout changes; the Reader rejects any
/// other version at ckpt.version (see DESIGN.md §14).
inline constexpr std::uint32_t kFormatVersion = 2;

/// Streaming checkpoint writer. Usage: begin_section / typed writes /
/// end_section, repeated, then commit(). Until commit() returns, the
/// on-disk file is torn by construction (no trailer) and will be
/// rejected by the Reader. All failures throw IoError at a ckpt.* site;
/// ENOSPC short writes carry the same actionable "device is full"
/// phrasing as the OOC spill path.
class Writer {
 public:
  explicit Writer(const std::string& path);
  ~Writer();

  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  void begin_section(const std::string& name);
  void end_section();

  void write_bytes(const void* data, std::size_t n);
  void write_u8(std::uint8_t v) { write_pod(v); }
  void write_u32(std::uint32_t v) { write_pod(v); }
  void write_u64(std::uint64_t v) { write_pod(v); }
  void write_i32(std::int32_t v) { write_pod(v); }
  void write_i64(std::int64_t v) { write_pod(v); }
  void write_f64(double v) { write_pod(v); }
  void write_string(const std::string& s);

  template <class P>
  void write_pod(const P& v) {
    static_assert(std::is_trivially_copyable_v<P>);
    write_bytes(&v, sizeof v);
  }

  /// Write the manifest footer + trailer, fsync, and close: the commit
  /// record. Returns the total file size in bytes. A Writer destroyed
  /// without commit() leaves a detectably-torn file behind.
  std::size_t commit();

 private:
  struct Section {
    std::string name;
    std::uint64_t offset = 0;
    std::uint64_t bytes = 0;
    std::uint32_t crc = 0;
  };

  void raw_write(const void* data, std::size_t n);

  std::FILE* f_ = nullptr;
  std::string path_;
  std::vector<Section> sections_;
  bool in_section_ = false;
  bool committed_ = false;
  std::uint32_t crc_ = 0;            // running CRC of the open section
  std::uint64_t section_start_ = 0;  // offset of the open section
  std::uint64_t total_ = 0;          // bytes written so far
};

/// Verifying checkpoint reader. The constructor validates the trailer,
/// footer, format version, and the CRC32C of *every* section before
/// returning -- no payload byte is trusted until the whole file has been
/// checked. Integrity failures throw ClassifiedError(kIo) at ckpt.torn /
/// ckpt.version / ckpt.corrupt; I/O failures throw IoError.
class Reader {
 public:
  explicit Reader(const std::string& path);
  ~Reader();

  Reader(const Reader&) = delete;
  Reader& operator=(const Reader&) = delete;

  bool has_section(const std::string& name) const;

  /// Position the read cursor at the start of a section. Throws
  /// ClassifiedError at ckpt.corrupt if the section is absent.
  void open_section(const std::string& name);

  /// Bytes left unread in the open section.
  std::uint64_t remaining() const;

  /// Throw ClassifiedError(ckpt.corrupt) unless `n` bytes remain in the
  /// open section. Call before sizing an allocation from file data.
  void require(std::uint64_t n) const;

  void read_bytes(void* data, std::size_t n);
  std::uint8_t read_u8() { return read_pod<std::uint8_t>(); }
  std::uint32_t read_u32() { return read_pod<std::uint32_t>(); }
  std::uint64_t read_u64() { return read_pod<std::uint64_t>(); }
  std::int32_t read_i32() { return read_pod<std::int32_t>(); }
  std::int64_t read_i64() { return read_pod<std::int64_t>(); }
  double read_f64() { return read_pod<double>(); }
  std::string read_string();

  template <class P>
  P read_pod() {
    static_assert(std::is_trivially_copyable_v<P>);
    P v;
    read_bytes(&v, sizeof v);
    return v;
  }

  std::size_t file_bytes() const { return file_bytes_; }

 private:
  struct Section {
    std::string name;
    std::uint64_t offset = 0;
    std::uint64_t bytes = 0;
    std::uint32_t crc = 0;
  };

  const Section* find(const std::string& name) const;

  std::FILE* f_ = nullptr;
  std::string path_;
  std::vector<Section> sections_;
  std::size_t file_bytes_ = 0;
  int current_ = -1;
  std::uint64_t consumed_ = 0;  // bytes read from the open section
};

/// Length-prefixed vector of trivially-copyable elements.
template <class T>
void write_vec(Writer& w, const std::vector<T>& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  w.write_u64(v.size());
  if (!v.empty()) w.write_bytes(v.data(), v.size() * sizeof(T));
}

template <class T>
std::vector<T> read_vec(Reader& in) {
  static_assert(std::is_trivially_copyable_v<T>);
  const std::uint64_t n = in.read_u64();
  in.require(n * sizeof(T));
  std::vector<T> v(static_cast<std::size_t>(n));
  if (n > 0) in.read_bytes(v.data(), v.size() * sizeof(T));
  return v;
}

}  // namespace cs::serialize
