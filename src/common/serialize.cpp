#include "common/serialize.h"

#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstring>

#include "common/error.h"
#include "common/failpoint.h"

namespace cs::serialize {

namespace {

// "CSCKPT1\0" / "CSFOOT1\0" / "CSTAIL1\0" as little-endian u64 constants.
constexpr std::uint64_t kHeadMagic = 0x0031'5450'4B43'5343ULL;
constexpr std::uint64_t kFooterMagic = 0x0031'544F'4F46'5343ULL;
constexpr std::uint64_t kTailMagic = 0x0031'4C49'4154'5343ULL;

constexpr std::size_t kTrailerBytes = 16;  // footer offset u64 + tail magic

const std::array<std::uint32_t, 256>& crc_table() {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k)
        c = (c & 1u) != 0 ? 0x82F63B78u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  return table;
}

[[noreturn]] void throw_corrupt(const std::string& detail) {
  throw ClassifiedError(ErrorCode::kIo, "ckpt.corrupt", detail);
}

[[noreturn]] void throw_torn(const std::string& detail) {
  throw ClassifiedError(ErrorCode::kIo, "ckpt.torn", detail);
}

void append_pod(std::string& buf, const void* data, std::size_t n) {
  buf.append(static_cast<const char*>(data), n);
}

template <class P>
void append_pod(std::string& buf, const P& v) {
  append_pod(buf, &v, sizeof v);
}

}  // namespace

std::uint32_t crc32c(std::uint32_t crc, const void* data, std::size_t n) {
  const auto& table = crc_table();
  const auto* p = static_cast<const unsigned char*>(data);
  crc = ~crc;
  while (n-- > 0) crc = table[(crc ^ *p++) & 0xFFu] ^ (crc >> 8);
  return ~crc;
}

Writer::Writer(const std::string& path) : path_(path) {
  f_ = std::fopen(path.c_str(), "wb");
  if (f_ == nullptr)
    throw IoError("ckpt.open", "cannot create checkpoint file " + path,
                  errno);
  raw_write(&kHeadMagic, sizeof kHeadMagic);
}

Writer::~Writer() {
  // An uncommitted Writer leaves a torn file (no trailer) -- the Reader
  // rejects it, which is exactly the crash-consistency contract.
  if (f_ != nullptr) std::fclose(f_);
}

void Writer::raw_write(const void* data, std::size_t n) {
  if (failpoint("ckpt.write"))
    throw IoError("ckpt.write", "injected checkpoint write failure", EIO);
  if (n == 0) return;  // an empty vector's data() may be null
  errno = 0;
  const std::size_t wrote = std::fwrite(data, 1, n, f_);
  if (wrote != n) {
    const int err = errno != 0 ? errno : EIO;
    const std::string amount =
        std::to_string(wrote) + "/" + std::to_string(n) + " bytes";
    if (err == ENOSPC || err == EDQUOT)
      throw IoError("ckpt.write",
                    "checkpoint device is full (short write of " + amount +
                        ")",
                    err);
    throw IoError("ckpt.write", "checkpoint short write (" + amount + ")",
                  err);
  }
  total_ += n;
}

void Writer::begin_section(const std::string& name) {
  if (in_section_)
    throw ClassifiedError(ErrorCode::kInternal, "ckpt.write",
                          "begin_section('" + name +
                              "') with a section already open");
  in_section_ = true;
  crc_ = 0;
  section_start_ = total_;
  sections_.push_back(Section{name, total_, 0, 0});
}

void Writer::end_section() {
  if (!in_section_)
    throw ClassifiedError(ErrorCode::kInternal, "ckpt.write",
                          "end_section() with no section open");
  in_section_ = false;
  Section& s = sections_.back();
  s.bytes = total_ - section_start_;
  s.crc = crc_;
}

void Writer::write_bytes(const void* data, std::size_t n) {
  if (!in_section_)
    throw ClassifiedError(ErrorCode::kInternal, "ckpt.write",
                          "write outside a section");
  raw_write(data, n);
  crc_ = crc32c(crc_, data, n);
}

void Writer::write_string(const std::string& s) {
  write_u64(s.size());
  write_bytes(s.data(), s.size());
}

std::size_t Writer::commit() {
  if (in_section_)
    throw ClassifiedError(ErrorCode::kInternal, "ckpt.write",
                          "commit() with a section still open");
  if (committed_)
    throw ClassifiedError(ErrorCode::kInternal, "ckpt.write",
                          "commit() called twice");

  // Injected crash between the payload and the commit record: the file
  // stays on disk with every section byte present but no trailer -- the
  // canonical torn write the Reader must reject.
  if (failpoint("ckpt.torn")) {
    std::fflush(f_);
    std::fclose(f_);
    f_ = nullptr;
    throw IoError("ckpt.torn",
                  "injected crash before the checkpoint commit record", EIO);
  }

  std::string footer;
  append_pod(footer, kFooterMagic);
  append_pod(footer, kFormatVersion);
  append_pod(footer, static_cast<std::uint32_t>(sections_.size()));
  for (const Section& s : sections_) {
    append_pod(footer, static_cast<std::uint64_t>(s.name.size()));
    footer.append(s.name);
    append_pod(footer, s.offset);
    append_pod(footer, s.bytes);
    append_pod(footer, s.crc);
  }
  const std::uint32_t footer_crc = crc32c(0, footer.data(), footer.size());
  append_pod(footer, footer_crc);

  const std::uint64_t footer_offset = total_;
  raw_write(footer.data(), footer.size());
  raw_write(&footer_offset, sizeof footer_offset);
  raw_write(&kTailMagic, sizeof kTailMagic);

  if (std::fflush(f_) != 0)
    throw IoError("ckpt.write", "checkpoint flush failed",
                  errno != 0 ? errno : EIO);
  if (failpoint("ckpt.fsync"))
    throw IoError("ckpt.fsync", "injected checkpoint fsync failure", EIO);
  if (::fsync(fileno(f_)) != 0)
    throw IoError("ckpt.fsync", "checkpoint fsync failed",
                  errno != 0 ? errno : EIO);
  std::fclose(f_);
  f_ = nullptr;
  committed_ = true;
  return static_cast<std::size_t>(total_);
}

Reader::Reader(const std::string& path) : path_(path) {
  f_ = std::fopen(path.c_str(), "rb");
  if (f_ == nullptr)
    throw IoError("ckpt.open", "cannot open checkpoint file " + path, errno);

  std::fseek(f_, 0, SEEK_END);
  const long end = std::ftell(f_);
  file_bytes_ = end > 0 ? static_cast<std::size_t>(end) : 0;

  // Smallest committed file: head magic + empty footer + trailer.
  const std::size_t min_bytes =
      sizeof kHeadMagic + (8 + 4 + 4 + 4) + kTrailerBytes;
  if (file_bytes_ < min_bytes)
    throw_torn("checkpoint file is " + std::to_string(file_bytes_) +
               " bytes -- truncated before the commit record");

  std::uint64_t head = 0;
  std::fseek(f_, 0, SEEK_SET);
  if (std::fread(&head, sizeof head, 1, f_) != 1)
    throw IoError("ckpt.read", "cannot read checkpoint head", errno);
  if (head != kHeadMagic)
    throw ClassifiedError(ErrorCode::kIo, "ckpt.open",
                          path + " is not a checkpoint file (bad magic)");

  std::uint64_t footer_offset = 0;
  std::uint64_t tail = 0;
  std::fseek(f_, -static_cast<long>(kTrailerBytes), SEEK_END);
  if (std::fread(&footer_offset, sizeof footer_offset, 1, f_) != 1 ||
      std::fread(&tail, sizeof tail, 1, f_) != 1)
    throw IoError("ckpt.read", "cannot read checkpoint trailer", errno);
  if (tail != kTailMagic)
    throw_torn("checkpoint has no commit record (torn or interrupted "
               "write)");
  if (footer_offset < sizeof kHeadMagic ||
      footer_offset + kTrailerBytes >= file_bytes_)
    throw_torn("checkpoint commit record points outside the file");

  const std::size_t footer_bytes =
      file_bytes_ - kTrailerBytes - static_cast<std::size_t>(footer_offset);
  std::string footer(footer_bytes, '\0');
  std::fseek(f_, static_cast<long>(footer_offset), SEEK_SET);
  if (std::fread(footer.data(), 1, footer_bytes, f_) != footer_bytes)
    throw IoError("ckpt.read", "cannot read checkpoint manifest", errno);
  if (footer_bytes < 4 + (8 + 4 + 4))
    throw_torn("checkpoint manifest is too small");
  std::uint32_t stored_footer_crc = 0;
  std::memcpy(&stored_footer_crc, footer.data() + footer_bytes - 4, 4);
  if (crc32c(0, footer.data(), footer_bytes - 4) != stored_footer_crc)
    throw_corrupt("checkpoint manifest failed CRC32C verification");

  std::size_t pos = 0;
  auto take = [&](void* out, std::size_t n) {
    if (pos + n > footer_bytes - 4)
      throw_corrupt("checkpoint manifest is malformed");
    std::memcpy(out, footer.data() + pos, n);
    pos += n;
  };
  std::uint64_t footer_magic = 0;
  take(&footer_magic, sizeof footer_magic);
  if (footer_magic != kFooterMagic)
    throw_torn("checkpoint commit record is not a manifest");
  std::uint32_t version = 0;
  take(&version, sizeof version);
  if (version != kFormatVersion)
    throw ClassifiedError(
        ErrorCode::kIo, "ckpt.version",
        "checkpoint format version " + std::to_string(version) +
            ", this build reads version " + std::to_string(kFormatVersion));
  std::uint32_t nsections = 0;
  take(&nsections, sizeof nsections);
  sections_.reserve(nsections);
  for (std::uint32_t i = 0; i < nsections; ++i) {
    Section s;
    std::uint64_t name_len = 0;
    take(&name_len, sizeof name_len);
    if (name_len > footer_bytes)
      throw_corrupt("checkpoint manifest is malformed");
    s.name.resize(static_cast<std::size_t>(name_len));
    take(s.name.data(), s.name.size());
    take(&s.offset, sizeof s.offset);
    take(&s.bytes, sizeof s.bytes);
    take(&s.crc, sizeof s.crc);
    if (s.offset < sizeof kHeadMagic || s.offset + s.bytes > footer_offset)
      throw_corrupt("checkpoint section '" + s.name +
                    "' lies outside the payload region");
    sections_.push_back(std::move(s));
  }

  // Verify every section's CRC before any typed read is allowed: a
  // flipped byte anywhere is caught here, not deep inside deserialization.
  const bool inject_corrupt = failpoint("ckpt.corrupt");
  std::vector<char> buf(1 << 16);
  for (const Section& s : sections_) {
    std::uint32_t crc = 0;
    std::fseek(f_, static_cast<long>(s.offset), SEEK_SET);
    std::uint64_t left = s.bytes;
    while (left > 0) {
      const std::size_t chunk = static_cast<std::size_t>(
          left < buf.size() ? left : buf.size());
      if (std::fread(buf.data(), 1, chunk, f_) != chunk)
        throw IoError("ckpt.read",
                      "cannot read checkpoint section '" + s.name + "'",
                      errno);
      crc = crc32c(crc, buf.data(), chunk);
      left -= chunk;
    }
    if (crc != s.crc || (inject_corrupt && &s == &sections_.front()))
      throw_corrupt("checkpoint section '" + s.name +
                    "' failed CRC32C verification");
  }
}

Reader::~Reader() {
  if (f_ != nullptr) std::fclose(f_);
}

const Reader::Section* Reader::find(const std::string& name) const {
  for (const Section& s : sections_)
    if (s.name == name) return &s;
  return nullptr;
}

bool Reader::has_section(const std::string& name) const {
  return find(name) != nullptr;
}

void Reader::open_section(const std::string& name) {
  const Section* s = find(name);
  if (s == nullptr)
    throw_corrupt("checkpoint lacks required section '" + name + "'");
  current_ = static_cast<int>(s - sections_.data());
  consumed_ = 0;
  std::fseek(f_, static_cast<long>(s->offset), SEEK_SET);
}

std::uint64_t Reader::remaining() const {
  if (current_ < 0) return 0;
  return sections_[static_cast<std::size_t>(current_)].bytes - consumed_;
}

void Reader::require(std::uint64_t n) const {
  if (n > remaining())
    throw_corrupt(
        "checkpoint section '" +
        (current_ >= 0 ? sections_[static_cast<std::size_t>(current_)].name
                       : std::string("?")) +
        "' is shorter than its contents claim");
}

void Reader::read_bytes(void* data, std::size_t n) {
  require(n);
  if (n == 0) return;
  if (std::fread(data, 1, n, f_) != n)
    throw IoError("ckpt.read", "cannot read checkpoint payload", errno);
  consumed_ += n;
}

std::string Reader::read_string() {
  const std::uint64_t n = read_u64();
  require(n);
  std::string s(static_cast<std::size_t>(n), '\0');
  if (n > 0) read_bytes(s.data(), s.size());
  return s;
}

}  // namespace cs::serialize
