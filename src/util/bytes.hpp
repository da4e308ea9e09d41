// Byte-buffer primitives and a bounds-checked binary codec.
//
// Every protocol module in this repository talks to its peers through real
// serialized packets (even on the in-process engines), so the codec is the
// lowest layer of the wire format.  Encoding is explicit big-endian for fixed
// width integers plus LEB128-style varints for counts; there is no implicit
// padding, which keeps packets identical across engines and platforms.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <new>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace dpu {

/// Raw wire bytes.  A plain vector keeps ownership semantics obvious and
/// copy/move behaviour standard (Core Guidelines: prefer simple, regular
/// types at interfaces).
using Bytes = std::vector<std::uint8_t>;

namespace detail {

/// Intrusively ref-counted flat buffer: header and bytes live in one
/// allocation, and the count is atomic so buffers may cross threads on the
/// rt engine.  Payload and BufWriter are the only users.  (A custom
/// free-list was measured here and removed: glibc's per-thread tcache
/// already makes the single-allocation round trip cheap.)
struct PayloadBuf {
  std::atomic<std::uint32_t> refs{1};
  std::uint32_t capacity = 0;

  [[nodiscard]] std::uint8_t* data() {
    return reinterpret_cast<std::uint8_t*>(this + 1);
  }
  [[nodiscard]] const std::uint8_t* data() const {
    return reinterpret_cast<const std::uint8_t*>(this + 1);
  }

  [[nodiscard]] static PayloadBuf* make(std::size_t capacity) {
    if (capacity > UINT32_MAX) {
      throw std::length_error("PayloadBuf: capacity exceeds 4 GiB");
    }
    auto* b = static_cast<PayloadBuf*>(
        ::operator new(sizeof(PayloadBuf) + capacity));
    new (b) PayloadBuf;
    b->capacity = static_cast<std::uint32_t>(capacity);
    return b;
  }

  void retain() { refs.fetch_add(1, std::memory_order_relaxed); }

  void release() {
    if (refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      this->~PayloadBuf();
      ::operator delete(this);
    }
  }
};

}  // namespace detail

/// Ref-counted immutable byte buffer with cheap slicing — the zero-copy
/// message type of the packet hot path.
///
/// A Payload is a (shared buffer, offset, length) view: copying or slicing
/// one never copies bytes, only bumps an atomic refcount, so a broadcast to
/// N destinations can serialize once and share one buffer across every
/// link, retransmission queue and reorder buffer.  The backing store is a
/// single flat allocation (header + bytes), normally produced without any
/// copy by BufWriter::take_payload().  The buffer is immutable for the
/// Payload's whole lifetime; the refcount is atomic, so Payloads may be
/// handed across threads on the rt engine freely as long as each individual
/// Payload object stays single-threaded — the same rule that already
/// governs every other value in a stack.
///
/// COW escape hatch: to_bytes()/detach() copy the viewed bytes out into a
/// plain mutable vector.
class Payload {
 public:
  Payload() = default;

  /// Copies `bytes` into a flat buffer.  Implicit so call sites may hand a
  /// Bytes value anywhere a Payload is expected; zero-copy producers should
  /// prefer BufWriter::take_payload().
  Payload(const Bytes& bytes)  // NOLINT(google-explicit-constructor)
      : Payload(std::span<const std::uint8_t>(bytes.data(), bytes.size())) {}

  explicit Payload(std::span<const std::uint8_t> data) {
    if (data.empty()) return;
    buf_ = detail::PayloadBuf::make(data.size());
    std::memcpy(buf_->data(), data.data(), data.size());
    len_ = data.size();
  }

  explicit Payload(std::string_view s)
      : Payload(std::span<const std::uint8_t>(
            reinterpret_cast<const std::uint8_t*>(s.data()), s.size())) {}

  /// Copies `data` into a fresh buffer (for callers that only have a view).
  [[nodiscard]] static Payload copy_of(std::span<const std::uint8_t> data) {
    return Payload(data);
  }

  Payload(const Payload& other)
      : buf_(other.buf_), offset_(other.offset_), len_(other.len_) {
    if (buf_ != nullptr) buf_->retain();
  }

  Payload(Payload&& other) noexcept
      : buf_(other.buf_), offset_(other.offset_), len_(other.len_) {
    other.buf_ = nullptr;
    other.offset_ = other.len_ = 0;
  }

  Payload& operator=(const Payload& other) {
    Payload copy(other);
    swap(copy);
    return *this;
  }

  Payload& operator=(Payload&& other) noexcept {
    swap(other);
    return *this;
  }

  ~Payload() {
    if (buf_ != nullptr) buf_->release();
  }

  void swap(Payload& other) noexcept {
    std::swap(buf_, other.buf_);
    std::swap(offset_, other.offset_);
    std::swap(len_, other.len_);
  }

  [[nodiscard]] const std::uint8_t* data() const {
    return buf_ != nullptr ? buf_->data() + offset_ : nullptr;
  }
  [[nodiscard]] std::size_t size() const { return len_; }
  [[nodiscard]] bool empty() const { return len_ == 0; }

  [[nodiscard]] std::span<const std::uint8_t> span() const {
    return {data(), len_};
  }

  /// Sub-view sharing the same buffer (no copy).  `length` is clamped to
  /// the view; `offset` past the end yields an empty payload.
  [[nodiscard]] Payload slice(std::size_t offset,
                              std::size_t length = SIZE_MAX) const {
    Payload out;
    if (offset >= len_) return out;
    out.buf_ = buf_;
    if (out.buf_ != nullptr) out.buf_->retain();
    out.offset_ = offset_ + offset;
    out.len_ = std::min(length, len_ - offset);
    return out;
  }

  /// Mutable copy of the viewed bytes (always copies).
  [[nodiscard]] Bytes to_bytes() const {
    return Bytes(data(), data() + len_);
  }

  /// COW escape hatch: copies the viewed bytes out and drops this view.
  [[nodiscard]] Bytes detach() {
    Bytes out = to_bytes();
    *this = Payload();
    return out;
  }

  /// True when both views alias the same underlying buffer (tests use this
  /// to assert the zero-copy property).
  [[nodiscard]] bool shares_buffer_with(const Payload& other) const {
    return buf_ != nullptr && buf_ == other.buf_;
  }

  /// Number of Payload views holding the underlying buffer alive (0 for an
  /// empty payload).  Test/diagnostic aid only.
  [[nodiscard]] long ref_count() const {
    return buf_ != nullptr
               ? static_cast<long>(buf_->refs.load(std::memory_order_relaxed))
               : 0;
  }

  friend bool operator==(const Payload& a, const Payload& b) {
    return a.len_ == b.len_ &&
           (a.len_ == 0 || std::memcmp(a.data(), b.data(), a.len_) == 0);
  }

 private:
  friend class BufWriter;

  /// Adopts an already-retained buffer (BufWriter::take_payload).
  Payload(detail::PayloadBuf* adopted, std::size_t len)
      : buf_(adopted), len_(len) {}

  detail::PayloadBuf* buf_ = nullptr;  // shared storage; logically immutable
  std::size_t offset_ = 0;
  std::size_t len_ = 0;
};

/// Thrown by BufReader when a packet is truncated or malformed.  Protocol
/// modules catch this at their ingress boundary and drop the packet; it must
/// never escape a stack's event handler.
class CodecError : public std::runtime_error {
 public:
  explicit CodecError(const std::string& what) : std::runtime_error(what) {}
};

/// Append-only encoder.  All integers are written big-endian; varints use
/// little-endian base-128 groups (LEB128).  The writer builds directly into
/// a flat ref-counted buffer, so take_payload() hands the finished wire
/// bytes to the packet path with zero copies and a single allocation.
class BufWriter {
 public:
  BufWriter() = default;
  explicit BufWriter(std::size_t reserve) {
    if (reserve > 0) buf_ = detail::PayloadBuf::make(reserve);
  }

  BufWriter(const BufWriter&) = delete;
  BufWriter& operator=(const BufWriter&) = delete;

  BufWriter(BufWriter&& other) noexcept
      : buf_(other.buf_), size_(other.size_) {
    other.buf_ = nullptr;
    other.size_ = 0;
  }

  BufWriter& operator=(BufWriter&& other) noexcept {
    std::swap(buf_, other.buf_);
    std::swap(size_, other.size_);
    return *this;
  }

  ~BufWriter() {
    if (buf_ != nullptr) buf_->release();
  }

  void put_u8(std::uint8_t v) { *ensure(1) = v; }

  void put_u16(std::uint16_t v) {
    std::uint8_t* p = ensure(2);
    p[0] = static_cast<std::uint8_t>(v >> 8);
    p[1] = static_cast<std::uint8_t>(v);
  }

  void put_u32(std::uint32_t v) {
    std::uint8_t* p = ensure(4);
    for (int shift = 24; shift >= 0; shift -= 8) {
      *p++ = static_cast<std::uint8_t>(v >> shift);
    }
  }

  void put_u64(std::uint64_t v) {
    std::uint8_t* p = ensure(8);
    for (int shift = 56; shift >= 0; shift -= 8) {
      *p++ = static_cast<std::uint8_t>(v >> shift);
    }
  }

  void put_i64(std::int64_t v) { put_u64(static_cast<std::uint64_t>(v)); }

  /// LEB128 unsigned varint (1 byte for values < 128).
  void put_varint(std::uint64_t v) {
    while (v >= 0x80) {
      put_u8(static_cast<std::uint8_t>(v) | 0x80);
      v >>= 7;
    }
    put_u8(static_cast<std::uint8_t>(v));
  }

  void put_bool(bool v) { put_u8(v ? 1 : 0); }

  /// Raw bytes, no length prefix (caller knows the length from context).
  void put_raw(std::span<const std::uint8_t> data) {
    if (data.empty()) return;
    std::memcpy(ensure(data.size()), data.data(), data.size());
  }

  /// Length-prefixed byte string (varint length + bytes).
  void put_blob(std::span<const std::uint8_t> data) {
    put_varint(data.size());
    put_raw(data);
  }

  void put_blob(const Bytes& data) {
    put_blob(std::span<const std::uint8_t>(data.data(), data.size()));
  }

  void put_blob(const Payload& data) { put_blob(data.span()); }

  /// Length-prefixed UTF-8 string.
  void put_string(std::string_view s) {
    put_varint(s.size());
    put_raw(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  /// The bytes written so far (valid until the next write/take).
  [[nodiscard]] std::span<const std::uint8_t> span() const {
    return {buf_ != nullptr ? buf_->data() : nullptr, size_};
  }

  /// Copies the encoded bytes out into a plain vector; the writer is empty
  /// afterwards.  Use take_payload() on packet paths — it does not copy.
  [[nodiscard]] Bytes take() {
    Bytes out(span().begin(), span().end());
    clear_storage();
    return out;
  }

  /// Transfers ownership of the flat buffer into a shared immutable
  /// Payload (no byte copy); the writer is empty afterwards.
  [[nodiscard]] Payload take_payload() {
    Payload out(buf_, size_);
    buf_ = nullptr;
    size_ = 0;
    return out;
  }

  /// Drops the contents but keeps the allocation, so a long-lived writer
  /// can serve as a reusable scratch buffer on hot paths.
  void clear() { size_ = 0; }

 private:
  std::uint8_t* ensure(std::size_t n) {
    const std::size_t needed = size_ + n;
    if (buf_ == nullptr || needed > buf_->capacity) grow(needed);
    std::uint8_t* p = buf_->data() + size_;
    size_ += n;
    return p;
  }

  void grow(std::size_t needed) {
    std::size_t capacity = buf_ != nullptr ? buf_->capacity : 0;
    capacity = std::max<std::size_t>(capacity * 2, 64);
    capacity = std::max(capacity, needed);
    detail::PayloadBuf* bigger = detail::PayloadBuf::make(capacity);
    if (buf_ != nullptr) {
      std::memcpy(bigger->data(), buf_->data(), size_);
      buf_->release();
    }
    buf_ = bigger;
  }

  void clear_storage() {
    if (buf_ != nullptr) {
      buf_->release();
      buf_ = nullptr;
    }
    size_ = 0;
  }

  detail::PayloadBuf* buf_ = nullptr;  // sole reference until take_payload()
  std::size_t size_ = 0;
};

/// Bounds-checked decoder over a borrowed byte span.  Throws CodecError on
/// any overrun or malformed varint; never reads past the span.
class BufReader {
 public:
  explicit BufReader(std::span<const std::uint8_t> data) : data_(data) {}
  explicit BufReader(const Bytes& data)
      : data_(std::span<const std::uint8_t>(data.data(), data.size())) {}
  /// Payload-backed reader: get_blob_payload() can hand out zero-copy
  /// slices of the underlying buffer.  `data` must outlive the reader.
  explicit BufReader(const Payload& data)
      : data_(data.span()), backing_(&data) {}

  [[nodiscard]] std::uint8_t get_u8() {
    need(1);
    return data_[pos_++];
  }

  [[nodiscard]] std::uint16_t get_u16() {
    need(2);
    std::uint16_t v = static_cast<std::uint16_t>(
        (static_cast<std::uint16_t>(data_[pos_]) << 8) | data_[pos_ + 1]);
    pos_ += 2;
    return v;
  }

  [[nodiscard]] std::uint32_t get_u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v = (v << 8) | data_[pos_ + i];
    pos_ += 4;
    return v;
  }

  [[nodiscard]] std::uint64_t get_u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v = (v << 8) | data_[pos_ + i];
    pos_ += 8;
    return v;
  }

  [[nodiscard]] std::int64_t get_i64() {
    return static_cast<std::int64_t>(get_u64());
  }

  [[nodiscard]] std::uint64_t get_varint() {
    std::uint64_t v = 0;
    int shift = 0;
    for (;;) {
      need(1);
      const std::uint8_t b = data_[pos_++];
      if (shift == 63 && (b & 0x7E) != 0) {
        throw CodecError("varint overflows 64 bits");
      }
      v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
      if ((b & 0x80) == 0) return v;
      shift += 7;
      if (shift > 63) throw CodecError("varint too long");
    }
  }

  [[nodiscard]] bool get_bool() { return get_u8() != 0; }

  /// Borrow `n` raw bytes (no copy); valid while the underlying span lives.
  [[nodiscard]] std::span<const std::uint8_t> get_raw(std::size_t n) {
    need(n);
    auto out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  /// Length-prefixed byte string, copied out.
  [[nodiscard]] Bytes get_blob() {
    const std::uint64_t n = get_varint();
    if (n > remaining()) throw CodecError("blob length exceeds packet");
    auto raw = get_raw(static_cast<std::size_t>(n));
    return Bytes(raw.begin(), raw.end());
  }

  /// Length-prefixed byte string as a Payload.  Zero-copy (a slice of the
  /// backing buffer) when the reader was constructed from a Payload; falls
  /// back to a copy for span/Bytes-backed readers.
  [[nodiscard]] Payload get_blob_payload() {
    const std::uint64_t n = get_varint();
    if (n > remaining()) throw CodecError("blob length exceeds packet");
    const std::size_t start = pos_;
    auto raw = get_raw(static_cast<std::size_t>(n));
    if (backing_ != nullptr) {
      return backing_->slice(start, static_cast<std::size_t>(n));
    }
    return Payload::copy_of(raw);
  }

  [[nodiscard]] std::string get_string() {
    const std::uint64_t n = get_varint();
    if (n > remaining()) throw CodecError("string length exceeds packet");
    auto raw = get_raw(static_cast<std::size_t>(n));
    return std::string(raw.begin(), raw.end());
  }

  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] bool done() const { return pos_ == data_.size(); }

  /// Asserts the whole packet was consumed; protocols call this after
  /// decoding to reject trailing garbage.
  void expect_done() const {
    if (!done()) throw CodecError("trailing bytes after message");
  }

 private:
  void need(std::size_t n) const {
    if (data_.size() - pos_ < n) throw CodecError("packet truncated");
  }

  std::span<const std::uint8_t> data_;
  const Payload* backing_ = nullptr;
  std::size_t pos_ = 0;
};

/// Builds a Bytes value from a string literal / string payload (examples and
/// tests use this to make application payloads).
[[nodiscard]] inline Bytes to_bytes(std::string_view s) {
  return Bytes(s.begin(), s.end());
}

/// Inverse of to_bytes for displaying payloads.
[[nodiscard]] inline std::string to_string(const Bytes& b) {
  return std::string(b.begin(), b.end());
}

[[nodiscard]] inline std::string to_string(const Payload& p) {
  return std::string(p.span().begin(), p.span().end());
}

/// Hex dump used by log messages and test diagnostics ("de:ad:be:ef").
[[nodiscard]] std::string hex_dump(std::span<const std::uint8_t> data,
                                   std::size_t max_bytes = 32);

/// Plain lowercase hex (no separators, no truncation): "deadbeef".
[[nodiscard]] std::string encode_hex(std::span<const std::uint8_t> data);

/// FNV-1a 64-bit hash; used to derive stable channel ids from instance names.
[[nodiscard]] constexpr std::uint64_t fnv1a64(std::string_view s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace dpu
