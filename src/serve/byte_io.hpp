// Shared little-endian byte serialization for the serve layer.
//
// ByteWriter/ByteReader are the single encode/decode idiom behind both the
// oracle snapshot image (oracle_snapshot.cpp) and the OracleWire framing
// protocol (wire.cpp): append-only little-endian writing, and bounds-checked
// reading where every overrun throws CheckError before any allocation. The
// reader is constructed with a `context` string ("oracle snapshot", "wire")
// so error messages name the format that failed to parse.
//
// Little-endian hosts only, like the rest of irp: multi-byte integers are
// memcpy'd, never byte-swapped. fnv1a64 is the checksum both formats store.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "net/ipv4.hpp"
#include "topo/types.hpp"
#include "util/check.hpp"

namespace irp {

inline constexpr std::uint64_t kFnv1a64Offset = 14695981039346656037ULL;
inline constexpr std::uint64_t kFnv1a64Prime = 1099511628211ULL;

/// FNV-1a 64-bit hash; the payload checksum of snapshot images and wire
/// frames (fast, allocation-free, good avalanche for corruption detection —
/// not cryptographic).
inline std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t hash = kFnv1a64Offset;
  for (unsigned char c : bytes) hash = (hash ^ c) * kFnv1a64Prime;
  return hash;
}

/// fnv1a64(bytes.substr(from)) and fnv1a64(bytes), from one walk over the
/// bytes: the two multiply chains are independent, so the pair costs about
/// what one hash does.
struct Fnv1a64Pair {
  std::uint64_t suffix = 0;
  std::uint64_t whole = 0;
};
inline Fnv1a64Pair fnv1a64_pair(std::string_view bytes, std::size_t from) {
  Fnv1a64Pair h{kFnv1a64Offset, fnv1a64(bytes.substr(0, from))};
  for (unsigned char c : bytes.substr(from)) {
    h.suffix = (h.suffix ^ c) * kFnv1a64Prime;
    h.whole = (h.whole ^ c) * kFnv1a64Prime;
  }
  return h;
}

/// Little-endian append-only buffer.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void u16(std::uint16_t v) { raw(&v, sizeof v); }
  void u32(std::uint32_t v) { raw(&v, sizeof v); }
  void u64(std::uint64_t v) { raw(&v, sizeof v); }
  void prefix(const Ipv4Prefix& p) {
    u32(p.network().value());
    u8(static_cast<std::uint8_t>(p.length()));
  }
  void asns(const std::vector<Asn>& v) {
    u32(static_cast<std::uint32_t>(v.size()));
    for (Asn a : v) u32(a);
  }
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    buf_.append(s.data(), s.size());
  }
  void reserve(std::size_t n) { buf_.reserve(n); }
  std::string take() { return std::move(buf_); }

 private:
  void raw(const void* p, std::size_t n) {
    const char* c = static_cast<const char*>(p);
    buf_.append(c, n);  // Little-endian hosts only, like the rest of irp.
  }
  std::string buf_;
};

/// The part of ByteWriter's interface the snapshot encoder uses, counting
/// bytes instead of storing them. Running an encoder templated on its output
/// once through a ByteCounter sizes the real ByteWriter exactly, without a
/// second hand-kept size formula.
class ByteCounter {
 public:
  void u8(std::uint8_t) { size_ += 1; }
  void u32(std::uint32_t) { size_ += 4; }
  void prefix(const Ipv4Prefix&) { size_ += 5; }
  void asns(const std::vector<Asn>& v) { size_ += 4 + v.size() * sizeof(Asn); }
  std::size_t size() const { return size_; }

 private:
  std::size_t size_ = 0;
};

/// Bounds-checked little-endian cursor; every overrun throws CheckError.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data, std::string context)
      : data_(data), context_(std::move(context)) {}

  std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(data_[pos_++]);
  }
  std::uint16_t u16() {
    std::uint16_t v;
    fixed(&v, 2);
    return v;
  }
  std::uint32_t u32() {
    std::uint32_t v;
    fixed(&v, 4);
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v;
    fixed(&v, 8);
    return v;
  }
  Ipv4Prefix prefix() {
    const std::uint32_t network = u32();
    const int length = u8();
    IRP_CHECK(length <= 32, context_ + ": prefix length out of range");
    return Ipv4Prefix{Ipv4Addr{network}, length};
  }
  std::vector<Asn> asns() {
    const std::uint32_t n = count(sizeof(Asn));
    std::vector<Asn> out;
    out.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) out.push_back(u32());
    return out;
  }
  std::string str() {
    const std::uint32_t n = count(1);
    std::string out(data_.substr(pos_, n));
    pos_ += n;
    return out;
  }
  /// Reads an element count and verifies the remaining bytes can hold it
  /// (`min_elem_bytes` per element) before the caller allocates.
  std::uint32_t count(std::size_t min_elem_bytes) {
    const std::uint32_t n = u32();
    IRP_CHECK(std::uint64_t{n} * min_elem_bytes <= remaining(),
              context_ + ": truncated payload (count exceeds bytes)");
    return n;
  }
  std::size_t remaining() const { return data_.size() - pos_; }

 private:
  void need(std::size_t n) {
    IRP_CHECK(n <= remaining(), context_ + ": truncated payload");
  }
  void fixed(void* out, std::size_t n) {
    need(n);
    std::memcpy(out, data_.data() + pos_, n);
    pos_ += n;
  }
  std::string_view data_;
  std::string context_;
  std::size_t pos_ = 0;
};

}  // namespace irp
