// message.hpp — wire-level message representation for the parc runtime.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

namespace hotlib::parc {

using Bytes = std::vector<std::uint8_t>;

// Wildcards for receive matching (mirrors MPI_ANY_SOURCE / MPI_ANY_TAG).
inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;

// User tags must stay below kUserTagLimit; higher tag values are reserved for
// the runtime's own collective and active-message traffic.
inline constexpr int kUserTagLimit = 1 << 24;

// Reserved tags of the ABM active-message layer: data batches and the
// acknowledgements of the reliable (retry/timeout) mode. Collective tags set
// bit 30 (see Rank::next_collective_tag) and stay disjoint from both.
inline constexpr int kAmTag = 1 << 29;
inline constexpr int kAmAckTag = (1 << 29) | 1;

struct Message {
  int source = -1;
  int tag = 0;
  // Virtual time at which the message left the sender (seconds); used by the
  // LogP-style performance model. Zero when modelling is disabled.
  double depart_time = 0.0;
  Bytes payload;

  template <class T>
  T as() const {
    static_assert(std::is_trivially_copyable_v<T>);
    T value{};
    std::memcpy(&value, payload.data(), sizeof(T));
    return value;
  }

  template <class T>
  std::vector<T> as_vector() const {
    static_assert(std::is_trivially_copyable_v<T>);
    std::vector<T> out(payload.size() / sizeof(T));
    if (!out.empty())  // an empty vector's data() may be null
      std::memcpy(out.data(), payload.data(), out.size() * sizeof(T));
    return out;
  }
};

template <class T>
Bytes to_bytes(const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  Bytes b(sizeof(T));
  std::memcpy(b.data(), &value, sizeof(T));
  return b;
}

template <class T>
Bytes to_bytes(std::span<const T> values) {
  static_assert(std::is_trivially_copyable_v<T>);
  Bytes b(values.size_bytes());
  if (!values.empty())  // an empty span's data() may be null
    std::memcpy(b.data(), values.data(), values.size_bytes());
  return b;
}

}  // namespace hotlib::parc
