#include "util/snapshot.hpp"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>

namespace hotlib {
namespace {

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

std::string stripe_path(const std::string& base, std::uint32_t k) {
  return base + ".s" + std::to_string(k);
}

bool write_all(std::FILE* f, const void* data, std::size_t n) {
  return std::fwrite(data, 1, n, f) == n;
}

bool read_all(std::FILE* f, void* data, std::size_t n) {
  return std::fread(data, 1, n, f) == n;
}

}  // namespace

std::uint64_t checksum64(std::span<const std::uint8_t> data) {
  // Fletcher-style with 32-bit accumulators folded into 64 bits.
  std::uint64_t a = 1, b = 0;
  for (std::uint8_t byte : data) {
    a = (a + byte) % 0xFFFFFFFBULL;  // largest 32-bit prime
    b = (b + a) % 0xFFFFFFFBULL;
  }
  return (b << 32) | a;
}

SnapshotWriter::SnapshotWriter(std::string base_path, std::uint32_t stripe_count,
                               std::uint32_t stripe_block)
    : base_(std::move(base_path)),
      stripes_(stripe_count == 0 ? 1 : stripe_count),
      block_(stripe_block == 0 ? 1 : stripe_block) {}

bool SnapshotWriter::write(const SnapshotHeader& header,
                           std::span<const std::uint8_t> payload) const {
  SnapshotHeader h = header;
  h.payload_bytes = payload.size();
  h.stripe_count = stripes_;
  h.stripe_block = block_;

  // Manifest: header + whole-payload checksum.
  {
    FilePtr mf(std::fopen((base_ + ".manifest").c_str(), "wb"));
    if (!mf) return false;
    const std::uint64_t csum = checksum64(payload);
    if (!write_all(mf.get(), &h, sizeof h)) return false;
    if (!write_all(mf.get(), &csum, sizeof csum)) return false;
  }

  // Round-robin striping in block_ sized units.
  std::vector<FilePtr> files;
  files.reserve(stripes_);
  for (std::uint32_t k = 0; k < stripes_; ++k) {
    files.emplace_back(std::fopen(stripe_path(base_, k).c_str(), "wb"));
    if (!files.back()) return false;
  }
  std::uint64_t offset = 0, blockno = 0;
  while (offset < payload.size()) {
    const std::uint64_t n = std::min<std::uint64_t>(block_, payload.size() - offset);
    std::FILE* f = files[blockno % stripes_].get();
    if (!write_all(f, payload.data() + offset, n)) return false;
    offset += n;
    ++blockno;
  }
  return true;
}

SnapshotReader::SnapshotReader(std::string base_path) : base_(std::move(base_path)) {}

bool SnapshotReader::read(SnapshotHeader& header, std::vector<std::uint8_t>& payload) const {
  std::uint64_t expect_csum = 0;
  {
    FilePtr mf(std::fopen((base_ + ".manifest").c_str(), "rb"));
    if (!mf) return false;
    if (!read_all(mf.get(), &header, sizeof header)) return false;
    if (!read_all(mf.get(), &expect_csum, sizeof expect_csum)) return false;
  }
  if (header.magic != SnapshotHeader{}.magic) return false;
  if (header.stripe_count == 0 || header.stripe_block == 0) return false;

  // The stripes hold exactly payload_bytes between them; checking that
  // first keeps a damaged manifest from sizing the allocation.
  std::vector<FilePtr> files;
  std::uint64_t stored = 0;
  for (std::uint32_t k = 0; k < header.stripe_count; ++k) {
    const std::string path = stripe_path(base_, k);
    files.emplace_back(std::fopen(path.c_str(), "rb"));
    if (!files.back()) return false;
    std::error_code ec;
    stored += std::filesystem::file_size(path, ec);
    if (ec) return false;
  }
  if (stored != header.payload_bytes) return false;
  payload.assign(header.payload_bytes, 0);
  std::uint64_t offset = 0, blockno = 0;
  while (offset < header.payload_bytes) {
    const std::uint64_t n =
        std::min<std::uint64_t>(header.stripe_block, header.payload_bytes - offset);
    std::FILE* f = files[blockno % header.stripe_count].get();
    if (!read_all(f, payload.data() + offset, n)) return false;
    offset += n;
    ++blockno;
  }
  return checksum64(payload) == expect_csum;
}

std::vector<std::uint8_t> pack_doubles(std::span<const double> values) {
  std::vector<std::uint8_t> out(values.size() * sizeof(double));
  if (!out.empty()) std::memcpy(out.data(), values.data(), out.size());
  return out;
}

std::vector<double> unpack_doubles(std::span<const std::uint8_t> bytes) {
  std::vector<double> out(bytes.size() / sizeof(double));
  if (!out.empty()) std::memcpy(out.data(), bytes.data(), out.size() * sizeof(double));
  return out;
}

}  // namespace hotlib
