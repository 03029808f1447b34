// Fixed-width little-endian wire encoding for snapshot payloads.
//
// ByteWriter appends primitives to a growable buffer; ByteReader consumes
// them with every read bounds-checked, returning Status instead of reading
// past the end. A hostile length prefix can never force an allocation larger
// than the bytes actually present (vector readers cap the element count by
// the remaining payload before reserving).
//
// Values are encoded byte-by-byte in little-endian order, so snapshots are
// portable across hosts regardless of native endianness. Doubles travel as
// their IEEE-754 bit pattern (std::bit_cast), preserving bit-identity of
// resumed runs — including NaN payloads.

#ifndef VQE_SNAPSHOT_WIRE_H_
#define VQE_SNAPSHOT_WIRE_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/status.h"

namespace vqe {

/// Exact bit equality for doubles. Configuration fingerprints compare
/// with it: a snapshot must match the saved run exactly, and a tolerance
/// would admit drifting results.
inline bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

/// Append-only encoder. Never fails; the buffer grows as needed.
class ByteWriter {
 public:
  void U8(uint8_t v) { buf_.push_back(v); }

  void U32(uint32_t v) {
    for (int i = 0; i < 4; ++i) buf_.push_back(uint8_t(v >> (8 * i)));
  }

  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) buf_.push_back(uint8_t(v >> (8 * i)));
  }

  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }

  void F64(double v) { U64(std::bit_cast<uint64_t>(v)); }

  void Bool(bool v) { U8(v ? 1 : 0); }

  /// u32 byte-length prefix followed by raw bytes.
  void Str(const std::string& s) {
    U32(static_cast<uint32_t>(s.size()));
    Bytes(s.data(), s.size());
  }

  void Bytes(const void* data, size_t size) {
    const auto* p = static_cast<const uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + size);
  }

  const std::vector<uint8_t>& bytes() const { return buf_; }
  size_t size() const { return buf_.size(); }

 private:
  std::vector<uint8_t> buf_;
};

/// Bounds-checked decoder over a non-owned byte range.
class ByteReader {
 public:
  ByteReader() : data_(nullptr), size_(0), pos_(0) {}
  ByteReader(const void* data, size_t size)
      : data_(static_cast<const uint8_t*>(data)), size_(size), pos_(0) {}

  size_t remaining() const { return size_ - pos_; }
  size_t pos() const { return pos_; }

  /// Advances past `n` bytes without decoding them.
  Status Skip(size_t n) {
    VQE_RETURN_NOT_OK(Need(n));
    pos_ += n;
    return Status::OK();
  }

  Status U8(uint8_t* out) {
    VQE_RETURN_NOT_OK(Need(1));
    *out = data_[pos_++];
    return Status::OK();
  }

  Status U32(uint32_t* out) {
    VQE_RETURN_NOT_OK(Need(4));
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= uint32_t(data_[pos_ + i]) << (8 * i);
    pos_ += 4;
    *out = v;
    return Status::OK();
  }

  Status U64(uint64_t* out) {
    VQE_RETURN_NOT_OK(Need(8));
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= uint64_t(data_[pos_ + i]) << (8 * i);
    pos_ += 8;
    *out = v;
    return Status::OK();
  }

  Status I64(int64_t* out) {
    uint64_t v = 0;
    VQE_RETURN_NOT_OK(U64(&v));
    *out = static_cast<int64_t>(v);
    return Status::OK();
  }

  Status F64(double* out) {
    uint64_t v = 0;
    VQE_RETURN_NOT_OK(U64(&v));
    *out = std::bit_cast<double>(v);
    return Status::OK();
  }

  /// A bool must be exactly 0 or 1 on the wire; anything else is corruption.
  Status Bool(bool* out) {
    uint8_t v = 0;
    VQE_RETURN_NOT_OK(U8(&v));
    if (v > 1) return Status::DataLoss("bool byte out of range");
    *out = (v == 1);
    return Status::OK();
  }

  Status Str(std::string* out) {
    uint32_t len = 0;
    VQE_RETURN_NOT_OK(U32(&len));
    VQE_RETURN_NOT_OK(Need(len));
    out->assign(reinterpret_cast<const char*>(data_ + pos_), len);
    pos_ += len;
    return Status::OK();
  }

  /// Fails unless every byte has been consumed — catches payloads with
  /// trailing garbage (e.g. a stale section format).
  Status ExpectEnd() const {
    if (pos_ != size_) {
      return Status::DataLoss("payload has " + std::to_string(size_ - pos_) +
                              " unconsumed trailing byte(s)");
    }
    return Status::OK();
  }

 private:
  Status Need(size_t n) const {
    if (size_ - pos_ < n) {
      return Status::DataLoss("truncated payload: need " + std::to_string(n) +
                              " byte(s), have " +
                              std::to_string(size_ - pos_));
    }
    return Status::OK();
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_;
};

// -- Vector helpers -----------------------------------------------------
// u64 element-count prefix, then packed elements. Readers verify the count
// against the remaining payload BEFORE allocating, so a forged count cannot
// trigger an outsized allocation.

inline void WriteVecU64(ByteWriter& w, const std::vector<uint64_t>& v) {
  w.U64(v.size());
  for (uint64_t x : v) w.U64(x);
}

inline Status ReadVecU64(ByteReader& r, std::vector<uint64_t>* out) {
  uint64_t n = 0;
  VQE_RETURN_NOT_OK(r.U64(&n));
  if (n > r.remaining() / 8) return Status::DataLoss("vector count exceeds payload");
  out->clear();
  out->reserve(static_cast<size_t>(n));
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t x = 0;
    VQE_RETURN_NOT_OK(r.U64(&x));
    out->push_back(x);
  }
  return Status::OK();
}

inline void WriteVecF64(ByteWriter& w, const std::vector<double>& v) {
  w.U64(v.size());
  for (double x : v) w.F64(x);
}

inline Status ReadVecF64(ByteReader& r, std::vector<double>* out) {
  uint64_t n = 0;
  VQE_RETURN_NOT_OK(r.U64(&n));
  if (n > r.remaining() / 8) return Status::DataLoss("vector count exceeds payload");
  out->clear();
  out->reserve(static_cast<size_t>(n));
  for (uint64_t i = 0; i < n; ++i) {
    double x = 0;
    VQE_RETURN_NOT_OK(r.F64(&x));
    out->push_back(x);
  }
  return Status::OK();
}

inline void WriteVecU32(ByteWriter& w, const std::vector<uint32_t>& v) {
  w.U64(v.size());
  for (uint32_t x : v) w.U32(x);
}

inline Status ReadVecU32(ByteReader& r, std::vector<uint32_t>* out) {
  uint64_t n = 0;
  VQE_RETURN_NOT_OK(r.U64(&n));
  if (n > r.remaining() / 4) return Status::DataLoss("vector count exceeds payload");
  out->clear();
  out->reserve(static_cast<size_t>(n));
  for (uint64_t i = 0; i < n; ++i) {
    uint32_t x = 0;
    VQE_RETURN_NOT_OK(r.U32(&x));
    out->push_back(x);
  }
  return Status::OK();
}

}  // namespace vqe

#endif  // VQE_SNAPSHOT_WIRE_H_
