// Little-endian byte (de)serialization used by the model/coreset/sample wire
// formats, the bench result cache and fleet checkpoints.
//
// Serialized state is written as one field list per type (DESIGN.md §10):
//
//     template <class Io, FieldsOf<T> S> void fields(Io& io, S& t);
//
// calls io(field) for each field in wire order. Under Save S deduces to
// const T and io() writes; under Load S is T and io() reads, so the save and
// load of a type cannot drift apart. Load-only validation sits in
// `if constexpr (Io::kLoad)` blocks. Save/Load own the one mapping from C++
// types to wire types and the two count primitives that bound what a corrupt
// count can allocate.
#pragma once

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/geometry.h"

namespace lbchat {

/// Append-only byte buffer writer.
class ByteWriter {
 public:
  void write_u8(std::uint8_t v) { buf_.push_back(v); }
  void write_u32(std::uint32_t v) { write_raw(&v, sizeof v); }
  void write_u64(std::uint64_t v) { write_raw(&v, sizeof v); }
  void write_i32(std::int32_t v) { write_raw(&v, sizeof v); }
  void write_f32(float v) { write_raw(&v, sizeof v); }
  void write_f64(double v) { write_raw(&v, sizeof v); }

  void write_string(std::string_view s) {
    write_u32(static_cast<std::uint32_t>(s.size()));
    write_raw(s.data(), s.size());
  }

  void write_f32_vec(std::span<const float> v) {
    write_u32(static_cast<std::uint32_t>(v.size()));
    write_raw(v.data(), v.size() * sizeof(float));
  }

  void write_f64_vec(std::span<const double> v) {
    write_u32(static_cast<std::uint32_t>(v.size()));
    write_raw(v.data(), v.size() * sizeof(double));
  }

  void write_bytes(std::span<const std::uint8_t> v) {
    write_u32(static_cast<std::uint32_t>(v.size()));
    write_raw(v.data(), v.size());
  }

  /// Append raw bytes with no length prefix (pre-framed blobs).
  void append_raw(std::span<const std::uint8_t> v) { write_raw(v.data(), v.size()); }

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const { return buf_; }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }

 private:
  void write_raw(const void* p, std::size_t n) {
    // Reserve (doubling), size, then memcpy: a range insert, or a resize
    // that may reallocate, draws false -Wrestrict, -Wstringop-overflow and
    // -Warray-bounds warnings from GCC 12 once inlined. memcpy from a null
    // source (an empty span's data()) is UB even for zero bytes.
    if (n == 0) return;
    const std::size_t at = buf_.size();
    if (buf_.capacity() - at < n) buf_.reserve(std::max(2 * buf_.capacity(), at + n));
    buf_.resize(at + n);
    std::memcpy(buf_.data() + at, p, n);
  }

  std::vector<std::uint8_t> buf_;
};

/// Sequential reader over a byte span; throws std::out_of_range on underflow.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t read_u8() { return read_pod<std::uint8_t>(); }
  std::uint32_t read_u32() { return read_pod<std::uint32_t>(); }
  std::uint64_t read_u64() { return read_pod<std::uint64_t>(); }
  std::int32_t read_i32() { return read_pod<std::int32_t>(); }
  float read_f32() { return read_pod<float>(); }
  double read_f64() { return read_pod<double>(); }

  std::string read_string() {
    const auto v = read_view();
    return {reinterpret_cast<const char*>(v.data()), v.size()};
  }

  std::vector<float> read_f32_vec() { return read_pod_vec<float>(); }
  std::vector<double> read_f64_vec() { return read_pod_vec<double>(); }

  std::vector<std::uint8_t> read_bytes() {
    const auto v = read_view();
    return {v.begin(), v.end()};
  }

  /// A u32-counted run of T read into `out` (no copy through a temporary);
  /// throws std::runtime_error when the count is not out.size().
  template <typename T>
  void read_exact(std::span<T> out) {
    const auto n = read_count<T>();
    if (n != out.size()) throw std::runtime_error{"Load: vector length mismatch"};
    read_raw(out.data(), n);
  }

  /// A u32-length-prefixed byte run as a view into the input (no copy).
  std::span<const std::uint8_t> read_view() {
    const auto n = read_u32();
    check(n);
    const auto v = data_.subspan(pos_, n);
    pos_ += n;
    return v;
  }

  [[nodiscard]] bool exhausted() const { return pos_ == data_.size(); }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  /// View of the unread remainder; does not consume.
  [[nodiscard]] std::span<const std::uint8_t> rest() const { return data_.subspan(pos_); }

 private:
  template <typename T>
  T read_pod() {
    check(sizeof(T));
    T v;
    std::memcpy(&v, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  template <typename T>
  std::vector<T> read_pod_vec() {
    std::vector<T> v(read_count<T>());
    read_raw(v.data(), v.size());
    return v;
  }

  /// A u32 element count whose elements fit in the unread bytes.
  template <typename T>
  std::uint32_t read_count() {
    const auto n = read_u32();
    // Divide instead of multiplying so `n * sizeof(T)` cannot overflow
    // std::size_t before the bound check (32-bit size_t would wrap).
    if (n > (data_.size() - pos_) / sizeof(T)) {
      throw std::out_of_range{"ByteReader: underflow"};
    }
    return n;
  }

  /// Copies `n` elements the caller has bound-checked.
  template <typename T>
  void read_raw(T* out, std::size_t n) {
    // Guard: memcpy with a null destination is UB even for zero bytes, and
    // an empty vector's data() may be null.
    if (n != 0) std::memcpy(out, data_.data() + pos_, n * sizeof(T));
    pos_ += n * sizeof(T);
  }

  void check(std::size_t n) const {
    // Phrased as a subtraction (pos_ <= size always holds) so a huge `n` —
    // e.g. a corrupt u32 length prefix scaled by sizeof(T) — cannot wrap
    // `pos_ + n` past SIZE_MAX and sneak under the bound.
    if (n > data_.size() - pos_) throw std::out_of_range{"ByteReader: underflow"};
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

/// `S` is `T` or `const T`: constrains a field list to the type it lists.
template <class S, class T>
concept FieldsOf = std::same_as<std::remove_const_t<S>, T>;

/// Vec2 on the wire: x then y, as f64.
template <class Io, FieldsOf<Vec2> S>
void fields(Io& io, S& v) {
  io(v.x);
  io(v.y);
}

/// An int vector on the wire: a bounded u32 count, then i32 elements.
template <class Io, FieldsOf<std::vector<int>> S>
void fields(Io& io, S& v) {
  io.resize(v, sizeof(std::int32_t));
  for (auto& x : v) io(x);
}

/// Save side of a field list. The overloads are the type-to-wire mapping:
/// int -> i32, std::uint32_t -> u32, std::uint64_t and long -> u64, float
/// -> f32, double -> f64, bool and std::uint8_t -> u8; strings and float,
/// double and byte vectors carry a u32 length prefix, as do float and double
/// spans, which Load fills only at their exact length. A class type goes
/// through its save() member if it has one, else through its fields() (Vec2
/// and int vectors above, any other by argument-dependent lookup).
class Save {
 public:
  static constexpr bool kLoad = false;
  explicit Save(ByteWriter& w) : w_(w) {}

  void operator()(const int& v) { w_.write_i32(v); }
  void operator()(const std::uint32_t& v) { w_.write_u32(v); }
  void operator()(const std::uint64_t& v) { w_.write_u64(v); }
  void operator()(const long& v) { w_.write_u64(static_cast<std::uint64_t>(v)); }
  void operator()(const float& v) { w_.write_f32(v); }
  void operator()(const double& v) { w_.write_f64(v); }
  void operator()(const bool& v) { w_.write_u8(v ? 1 : 0); }
  void operator()(const std::uint8_t& v) { w_.write_u8(v); }
  void operator()(const std::string& v) { w_.write_string(v); }
  void operator()(std::span<const float> v) { w_.write_f32_vec(v); }
  void operator()(std::span<const double> v) { w_.write_f64_vec(v); }
  void operator()(const std::vector<float>& v) { w_.write_f32_vec(v); }
  void operator()(const std::vector<double>& v) { w_.write_f64_vec(v); }
  void operator()(const std::vector<std::uint8_t>& v) { w_.write_bytes(v); }
  template <class T>
    requires std::is_class_v<T>
  void operator()(const T& v) {
    if constexpr (requires { v.save(w_); }) {
      v.save(w_);
    } else {
      fields(*this, v);
    }
  }
  /// A scalar type without a wire mapping is an error, not a conversion.
  template <class T>
    requires std::is_scalar_v<T>
  void operator()(const T&) = delete;

  /// A value the loader must find unchanged (an echoed option, a kind).
  template <class T>
  void exact(const T& v, const char*) { (*this)(v); }
  /// Exact count: the u32 size of a container the loader already sized.
  void exact_count(std::size_t n, const char* what) { exact(static_cast<std::uint32_t>(n), what); }
  /// Bounded resize: the u32 size of a container the loader resizes.
  template <class C>
  void resize(const C& c, std::size_t) { w_.write_u32(static_cast<std::uint32_t>(c.size())); }
  /// An enum stored as u8; the loader rejects values above `max`.
  template <class E>
  void enum_u8(const E& e, E, const char*) { w_.write_u8(static_cast<std::uint8_t>(e)); }
  /// A u32-length-prefixed nested blob, filled by `f(Save&)`.
  template <class F>
  void blob(const char*, F&& f) {
    ByteWriter inner;
    Save io{inner};
    f(io);
    w_.write_bytes(inner.bytes());
  }
  /// The underlying writer, for hooks that take a ByteWriter (optimizer and
  /// strategy state).
  [[nodiscard]] ByteWriter& writer() { return w_; }

 private:
  ByteWriter& w_;
};

/// Load side of a field list: the same overloads as Save, reading into
/// non-const fields. Every failure throws (std::out_of_range on underflow,
/// std::runtime_error on a value the field list rejects).
class Load {
 public:
  static constexpr bool kLoad = true;
  explicit Load(ByteReader& r) : r_(r) {}

  void operator()(int& v) { v = r_.read_i32(); }
  void operator()(std::uint32_t& v) { v = r_.read_u32(); }
  void operator()(std::uint64_t& v) { v = r_.read_u64(); }
  void operator()(long& v) { v = static_cast<long>(r_.read_u64()); }
  void operator()(float& v) { v = r_.read_f32(); }
  void operator()(double& v) { v = r_.read_f64(); }
  void operator()(bool& v) { v = r_.read_u8() != 0; }
  void operator()(std::uint8_t& v) { v = r_.read_u8(); }
  void operator()(std::string& v) { v = r_.read_string(); }
  /// Reads into a fixed-size span; the stored length must match.
  void operator()(std::span<float> v) { r_.read_exact(v); }
  void operator()(std::span<double> v) { r_.read_exact(v); }
  void operator()(std::vector<float>& v) { v = r_.read_f32_vec(); }
  void operator()(std::vector<double>& v) { v = r_.read_f64_vec(); }
  void operator()(std::vector<std::uint8_t>& v) { v = r_.read_bytes(); }
  template <class T>
    requires std::is_class_v<T>
  void operator()(T& v) {
    if constexpr (requires { v.load(r_); }) {
      v.load(r_);
    } else {
      fields(*this, v);
    }
  }

  template <class T>
  void exact(const T& expected, const char* what) {
    T v{};
    (*this)(v);
    if (!(v == expected)) throw std::runtime_error{std::string{what} + " mismatch"};
  }
  void exact_count(std::size_t n, const char* what) { exact(static_cast<std::uint32_t>(n), what); }
  /// Resizes `c` to the stored count after rejecting a count larger than
  /// remaining() / element_bytes (each element's least wire size), so a
  /// corrupt count fails before anything is allocated.
  template <class C>
  void resize(C& c, std::size_t element_bytes) {
    const std::uint32_t n = r_.read_u32();
    if (n > r_.remaining() / element_bytes) {
      throw std::out_of_range{"ByteReader: count exceeds the remaining bytes"};
    }
    c.clear();
    c.resize(n);
  }
  template <class E>
  void enum_u8(E& e, E max, const char* what) {
    const std::uint8_t v = r_.read_u8();
    if (v > static_cast<std::uint8_t>(max)) {
      throw std::runtime_error{std::string{what} + " out of range"};
    }
    e = static_cast<E>(v);
  }
  /// Reads a nested blob through `f(Load&)`, which must consume all of it.
  template <class F>
  void blob(const char* what, F&& f) {
    ByteReader inner{r_.read_view()};
    Load io{inner};
    f(io);
    if (!inner.exhausted()) throw std::runtime_error{std::string{"trailing bytes in "} + what};
  }
  [[nodiscard]] ByteReader& reader() { return r_; }

 private:
  ByteReader& r_;
};

}  // namespace lbchat
