// is.hpp — the NPB "Integer Sort" kernel (bucketed key ranking).
//
// Keys follow the NPB recipe (average of four LCG uniforms scaled to the key
// range, giving a binomial-like distribution); ranks histogram their local
// keys into P range buckets, exchange bucket contents with an all-to-all
// (the bandwidth-hungry step that makes IS the one benchmark where Loki's
// fast ethernet clearly loses to ASCI Red in Table 3), then counting-sort
// locally. Verification checks global sortedness across rank boundaries and
// conservation of the key multiset (count and sum).
#pragma once

#include <cstdint>

#include "parc/rank.hpp"

namespace hotlib::npb {

struct IsResult {
  std::uint64_t total_keys = 0;
  bool verified = false;
  double ops = 0.0;         // keys ranked (the NPB "Mop" unit for IS)
  double comm_bytes = 0.0;  // bytes through the all-to-all
};

// Sort 2^total_log2 keys in [0, 2^max_key_log2) distributed over ranks.
IsResult run_is(parc::Rank& rank, int total_log2, int max_key_log2);

}  // namespace hotlib::npb
