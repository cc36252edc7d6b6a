// Little-endian byte codec shared by every binary surface of the project:
// session checkpoints (fpras/checkpoint.cpp), the serve-mode wire protocol
// (serve/protocol.cpp) and the serve MANIFEST journal (serve/manifest.cpp).
// One codec, one byte order, one failure model — a truncated or corrupt
// buffer surfaces as Status::DataLoss from the bounds-checked reader before
// any semantic check runs. The two on-disk formats also share the file
// reader and the FNV-1a integrity hash defined below.

#ifndef NFACOUNT_UTIL_WIRE_HPP_
#define NFACOUNT_UTIL_WIRE_HPP_

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include "util/status.hpp"

namespace nfacount {

/// Appends fixed-width little-endian primitives to a byte string. The
/// encoding is canonical little-endian regardless of host order, so buffers
/// are portable across machines (and across the checkpoint/wire formats that
/// embed them).
class ByteWriter {
 public:
  /// Appends one byte.
  void U8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  /// Appends a 16-bit value, least-significant byte first.
  void U16(uint16_t v) {
    buf_.push_back(static_cast<char>(v & 0xff));
    buf_.push_back(static_cast<char>((v >> 8) & 0xff));
  }
  /// Appends a 32-bit value, least-significant byte first.
  void U32(uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  }
  /// Appends a 64-bit value, least-significant byte first.
  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  }
  /// Appends a signed 32-bit value (two's-complement bits of U32).
  void I32(int32_t v) { U32(static_cast<uint32_t>(v)); }
  /// Appends a signed 64-bit value (two's-complement bits of U64).
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  /// Appends a double as its IEEE-754 bit pattern (8 bytes, little-endian).
  void F64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }
  /// Appends `size` raw bytes verbatim.
  void Bytes(const void* data, size_t size) {
    buf_.append(static_cast<const char*>(data), size);
  }
  /// Appends a length-prefixed string: u64 byte count, then the bytes.
  void String(const std::string& s) {
    U64(s.size());
    buf_.append(s);
  }

  /// The accumulated buffer (callers typically std::move it out).
  std::string& buffer() { return buf_; }

 private:
  std::string buf_;
};

/// Bounds-checked little-endian reader over a byte span; every overrun is a
/// DataLoss status (a truncated buffer fails here, before any semantic
/// check). The span is borrowed — it must outlive the reader.
class ByteReader {
 public:
  /// Wraps the span [data, data + size); reads advance an internal cursor.
  ByteReader(const char* data, size_t size) : data_(data), size_(size) {}

  /// Reads one byte into *out.
  Status U8(uint8_t* out) {
    NFA_RETURN_NOT_OK(Need(1));
    *out = static_cast<uint8_t>(data_[pos_++]);
    return Status::Ok();
  }
  /// Reads a little-endian 16-bit value into *out.
  Status U16(uint16_t* out) {
    NFA_RETURN_NOT_OK(Need(2));
    const uint16_t lo = static_cast<unsigned char>(data_[pos_]);
    const uint16_t hi = static_cast<unsigned char>(data_[pos_ + 1]);
    pos_ += 2;
    *out = static_cast<uint16_t>(lo | (hi << 8));
    return Status::Ok();
  }
  /// Reads a little-endian 32-bit value into *out.
  Status U32(uint32_t* out) {
    NFA_RETURN_NOT_OK(Need(4));
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(static_cast<unsigned char>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 4;
    *out = v;
    return Status::Ok();
  }
  /// Reads a little-endian 64-bit value into *out.
  Status U64(uint64_t* out) {
    NFA_RETURN_NOT_OK(Need(8));
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(static_cast<unsigned char>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 8;
    *out = v;
    return Status::Ok();
  }
  /// Reads a signed 32-bit value (two's-complement bits of U32).
  Status I32(int32_t* out) {
    uint32_t v = 0;
    NFA_RETURN_NOT_OK(U32(&v));
    *out = static_cast<int32_t>(v);
    return Status::Ok();
  }
  /// Reads a signed 64-bit value (two's-complement bits of U64).
  Status I64(int64_t* out) {
    uint64_t v = 0;
    NFA_RETURN_NOT_OK(U64(&v));
    *out = static_cast<int64_t>(v);
    return Status::Ok();
  }
  /// Reads an IEEE-754 double from its 8-byte little-endian bit pattern.
  Status F64(double* out) {
    uint64_t bits = 0;
    NFA_RETURN_NOT_OK(U64(&bits));
    std::memcpy(out, &bits, sizeof(*out));
    return Status::Ok();
  }
  /// Copies `size` raw bytes into out.
  Status Bytes(void* out, size_t size) {
    NFA_RETURN_NOT_OK(Need(size));
    std::memcpy(out, data_ + pos_, size);
    pos_ += size;
    return Status::Ok();
  }
  /// Reads a length-prefixed string (u64 byte count, then the bytes),
  /// rejecting declared lengths above `max_size` as DataLoss — a corrupt
  /// length field must fail before sizing any allocation by it.
  Status String(std::string* out, size_t max_size) {
    uint64_t size = 0;
    NFA_RETURN_NOT_OK(U64(&size));
    if (size > max_size) {
      return Status::DataLoss("wire: embedded string length corrupt");
    }
    NFA_RETURN_NOT_OK(Need(static_cast<size_t>(size)));
    out->assign(data_ + pos_, static_cast<size_t>(size));
    pos_ += static_cast<size_t>(size);
    return Status::Ok();
  }

  /// Bytes left between the cursor and the end of the span.
  size_t remaining() const { return size_ - pos_; }

 private:
  Status Need(size_t bytes) {
    if (size_ - pos_ < bytes) {
      return Status::DataLoss("wire: field overruns buffer");
    }
    return Status::Ok();
  }

  const char* data_;
  size_t size_;
  size_t pos_ = 0;
};

/// 64-bit FNV-1a over [data, data + size): the integrity trailer of every
/// on-disk format (checkpoint files, MANIFEST entries).
inline uint64_t Fnv1a64(const char* data, size_t size) {
  uint64_t h = 14695981039346656037ULL;
  for (size_t i = 0; i < size; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 1099511628211ULL;
  }
  return h;
}

/// How ReadFileBytes ended; each caller maps it onto its own Status.
enum class FileRead { kOk, kCannotOpen, kReadError };

/// Reads the whole file at `path` into *bytes (replacing its contents).
inline FileRead ReadFileBytes(const std::string& path, std::string* bytes) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return FileRead::kCannotOpen;
  bytes->clear();
  char buf[1 << 16];
  size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes->append(buf, got);
  }
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  return read_error ? FileRead::kReadError : FileRead::kOk;
}

}  // namespace nfacount

#endif  // NFACOUNT_UTIL_WIRE_HPP_
