// snapshot.hpp — striped binary snapshot I/O.
//
// The paper's simulations wrote data files exceeding 2^31 bytes ("several I/O
// routines in our code had to be extended to support 64-bit integers") and on
// Loki the files "were written striped over the 16 disks in the system".
// This module reproduces that I/O path: a snapshot is a 64-bit-clean header
// plus a payload striped round-robin across K stripe files, each stripe
// carrying a checksum so corruption is detected on read.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace hotlib {

struct SnapshotHeader {
  std::uint64_t magic = 0x484F544C49423031ULL;  // "HOTLIB01"
  std::uint64_t particle_count = 0;
  std::uint64_t step = 0;
  double time = 0.0;
  std::uint64_t payload_bytes = 0;
  std::uint32_t stripe_count = 1;
  std::uint32_t stripe_block = 1 << 20;  // bytes per striping unit
};

// Fletcher-64 style checksum over a byte stream (simple, fast, good enough to
// catch truncation and bit rot in tests).
std::uint64_t checksum64(std::span<const std::uint8_t> data);

class SnapshotWriter {
 public:
  // base_path gets ".manifest" plus ".s<k>" stripe files.
  SnapshotWriter(std::string base_path, std::uint32_t stripe_count,
                 std::uint32_t stripe_block = 1 << 20);

  // Write header+payload; returns false on any I/O failure.
  bool write(const SnapshotHeader& header, std::span<const std::uint8_t> payload) const;

 private:
  std::string base_;
  std::uint32_t stripes_;
  std::uint32_t block_;
};

class SnapshotReader {
 public:
  explicit SnapshotReader(std::string base_path);

  // Read and validate; returns false on missing files, stripes whose sizes
  // do not add up to the manifest's payload_bytes, or a checksum mismatch.
  bool read(SnapshotHeader& header, std::vector<std::uint8_t>& payload) const;

 private:
  std::string base_;
};

// Helpers to serialize particle arrays (positions/velocities/masses) into a
// flat little-endian payload and back.
std::vector<std::uint8_t> pack_doubles(std::span<const double> values);
std::vector<double> unpack_doubles(std::span<const std::uint8_t> bytes);

}  // namespace hotlib
