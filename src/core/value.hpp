// The runtime's universal word: what futures hold, what messages carry.
//
// The Concert runtime passes word-sized values between activations (larger
// data travels as message payload). Value is a small tagged union with
// checked accessors; the tag catches generated-code bugs (e.g. a reply
// landing in the wrong future slot) that raw words would silently absorb.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "core/global_ref.hpp"
#include "support/panic.hpp"

namespace concert {

class Value {
 public:
  enum class Tag : std::uint8_t { Nil, I64, F64, Ref, U64 };

  constexpr Value() : tag_(Tag::Nil), u_{} {}
  constexpr Value(std::int64_t v) : tag_(Tag::I64) { u_.i = v; }    // NOLINT(google-explicit-constructor)
  constexpr Value(int v) : tag_(Tag::I64) { u_.i = v; }             // NOLINT(google-explicit-constructor)
  constexpr Value(double v) : tag_(Tag::F64) { u_.d = v; }          // NOLINT(google-explicit-constructor)
  constexpr Value(GlobalRef r) : tag_(Tag::Ref) { u_.u = r.pack(); }  // NOLINT(google-explicit-constructor)
  static constexpr Value u64(std::uint64_t v) {
    Value x;
    x.tag_ = Tag::U64;
    x.u_.u = v;
    return x;
  }
  static constexpr Value nil() { return Value{}; }

  Tag tag() const { return tag_; }
  bool is_nil() const { return tag_ == Tag::Nil; }

  std::int64_t as_i64() const {
    CONCERT_CHECK(tag_ == Tag::I64, "Value tag is " << tag_name() << ", wanted i64");
    return u_.i;
  }
  double as_f64() const {
    CONCERT_CHECK(tag_ == Tag::F64, "Value tag is " << tag_name() << ", wanted f64");
    return u_.d;
  }
  GlobalRef as_ref() const {
    CONCERT_CHECK(tag_ == Tag::Ref, "Value tag is " << tag_name() << ", wanted ref");
    return GlobalRef::unpack(u_.u);
  }
  std::uint64_t as_u64() const {
    CONCERT_CHECK(tag_ == Tag::U64, "Value tag is " << tag_name() << ", wanted u64");
    return u_.u;
  }

  /// Wire size in bytes (tag byte + payload word), used by the network cost
  /// model to count packets.
  static constexpr std::uint32_t wire_size() { return 9; }

  const char* tag_name() const;
  std::string to_string() const;

  friend bool operator==(const Value& a, const Value& b);
  friend bool operator!=(const Value& a, const Value& b) { return !(a == b); }

 private:
  // A future slot stores a Value's tag and word apart, with its full bit in
  // the padding beside the tag (core/context.hpp).
  friend struct FutureSlot;

  Tag tag_;
  // Refs are stored packed so the union stays trivial (GlobalRef's default
  // member initializers would delete the union's default constructor).
  union U {
    std::int64_t i;
    double d;
    std::uint64_t u;
  } u_;
};

std::ostream& operator<<(std::ostream& os, const Value& v);

}  // namespace concert
