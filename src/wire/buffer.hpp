// Bounds-checked wire-format serialization.
//
// All protocol codecs (VIPER, IP, CVC signaling, VMTP) are built on these
// two types.  Network byte order (big-endian) throughout.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace srp::wire {

using Bytes = std::vector<std::uint8_t>;

/// Thrown when a decoder runs off the end of a packet or meets a value
/// that cannot be represented (e.g. a length field overflow on encode).
class CodecError : public std::runtime_error {
 public:
  explicit CodecError(const std::string& what) : std::runtime_error(what) {}
};

/// Append-only big-endian writer over an owned byte vector.
class Writer {
 public:
  Writer() = default;
  explicit Writer(std::size_t reserve) { out_.reserve(reserve); }
  /// Writes into @p reuse's storage: cleared, its capacity kept, then
  /// grown to @p reserve if smaller — a recycled buffer costs no
  /// allocation once warm.
  Writer(Bytes reuse, std::size_t reserve) : out_(std::move(reuse)) {
    out_.clear();
    out_.reserve(reserve);
  }

  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void bytes(std::span<const std::uint8_t> data);
  /// @p count zero bytes (padding).
  void zeros(std::size_t count);

  [[nodiscard]] std::size_t size() const { return out_.size(); }

  /// Overwrites previously written bytes (for back-patched length fields).
  void patch_u16(std::size_t offset, std::uint16_t v);

  /// Consumes the writer, returning the accumulated buffer.
  Bytes take() && { return std::move(out_); }
  [[nodiscard]] const Bytes& view() const { return out_; }

 private:
  Bytes out_;
};

/// Non-owning big-endian reader with hard bounds checks.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  /// Reads @p count bytes into a fresh vector.
  Bytes bytes(std::size_t count);
  /// Returns a view of the next @p count bytes and advances.
  std::span<const std::uint8_t> view(std::size_t count);
  void skip(std::size_t count);

  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  /// The bytes not yet read, without advancing.
  [[nodiscard]] std::span<const std::uint8_t> rest() const {
    return data_.subspan(pos_);
  }
  [[nodiscard]] std::size_t position() const { return pos_; }
  [[nodiscard]] bool done() const { return pos_ == data_.size(); }

 private:
  void require(std::size_t count) const;

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace srp::wire
