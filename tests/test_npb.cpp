// Tests for the mini-NPB suite: EP against the published NPB reference sums
// (bit-exact), IS/MG/FT/CG/BT/SP/LU verification and serial-vs-parallel
// agreement.
#include <gtest/gtest.h>

#include "npb/adi.hpp"
#include "npb/cg.hpp"
#include "npb/ep.hpp"
#include "npb/ft.hpp"
#include "npb/is.hpp"
#include "npb/mg.hpp"
#include "parc/parc.hpp"

namespace hotlib::npb {
namespace {

TEST(Ep, ClassSMatchesPublishedSums) {
  const EpResult r = run_ep_serial(24);
  EXPECT_TRUE(r.verified);
  EXPECT_NEAR(r.sx, -3.247834652034740e+3, 1e-8);
  EXPECT_NEAR(r.sy, -6.958407078382297e+3, 1e-8);
}

class EpParallel : public ::testing::TestWithParam<int> {};

TEST_P(EpParallel, MatchesSerialSums) {
  const int p = GetParam();
  const EpResult serial = run_ep_serial(20);
  parc::Runtime::run(p, [&](parc::Rank& r) {
    const EpResult par = run_ep(r, 20);
    // Same gaussians, summed in a different (rank-blocked) order: equal to
    // within FP associativity noise; counts are exactly equal.
    EXPECT_NEAR(par.sx, serial.sx, 1e-10 * std::abs(serial.sx));
    EXPECT_NEAR(par.sy, serial.sy, 1e-10 * std::abs(serial.sy));
    EXPECT_EQ(par.pairs, serial.pairs);
    EXPECT_EQ(par.counts, serial.counts);
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, EpParallel, ::testing::Values(1, 2, 3, 4, 8));

TEST(Ep, AnnulusCountsArePlausible) {
  const EpResult r = run_ep_serial(18);
  // ~pi/4 of pairs accepted.
  EXPECT_NEAR(static_cast<double>(r.pairs) / (1 << 18), 3.14159 / 4.0, 0.01);
  // Counts decrease with annulus index (gaussian tails).
  EXPECT_GT(r.counts[0], r.counts[2]);
  EXPECT_GT(r.counts[2], r.counts[4]);
}

class IsParallel : public ::testing::TestWithParam<int> {};

TEST_P(IsParallel, SortsAndVerifies) {
  const int p = GetParam();
  parc::Runtime::run(p, [&](parc::Rank& r) {
    const IsResult res = run_is(r, 14, 10);
    EXPECT_TRUE(res.verified);
    EXPECT_EQ(res.total_keys, 1u << 14);
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, IsParallel, ::testing::Values(1, 2, 4, 8));

TEST(Is, CommVolumeGrowsWithRanks) {
  double bytes1 = 0, bytes8 = 0;
  parc::Runtime::run(1, [&](parc::Rank& r) { bytes1 = run_is(r, 12, 10).comm_bytes; });
  parc::Runtime::run(8, [&](parc::Rank& r) {
    const auto res = run_is(r, 12, 10);
    if (r.rank() == 0) bytes8 = res.comm_bytes;
  });
  EXPECT_EQ(bytes1, 0.0);       // nothing leaves a single rank
  EXPECT_GT(bytes8, 10000.0);   // all-to-all dominated
}

class MgParallel : public ::testing::TestWithParam<int> {};

TEST_P(MgParallel, VCyclesReduceResidual) {
  const int p = GetParam();
  parc::Runtime::run(p, [&](parc::Rank& r) {
    const MgResult res = run_mg(r, 5, 8);  // 32^3
    EXPECT_TRUE(res.verified);
    EXPECT_LT(res.final_residual, 0.1 * res.initial_residual);
    EXPECT_GT(res.ops, 0.0);
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, MgParallel, ::testing::Values(1, 2, 4, 8));

TEST(Mg, ConvergenceComparableAcrossRankCounts) {
  // More ranks truncate the level hierarchy earlier (each rank must keep
  // >= 2 planes), so exact equality is not expected — but the convergence
  // quality must stay in the same ballpark.
  double serial_final = 0;
  parc::Runtime::run(1, [&](parc::Rank& r) { serial_final = run_mg(r, 4, 4).final_residual; });
  parc::Runtime::run(4, [&](parc::Rank& r) {
    const MgResult res = run_mg(r, 4, 4);
    EXPECT_LT(res.final_residual, 10 * serial_final);
    EXPECT_GT(res.final_residual, 0.0);
  });
}

class FtParallel : public ::testing::TestWithParam<int> {};

TEST_P(FtParallel, ChecksumsMatchSerial) {
  const int p = GetParam();
  FtResult serial;
  parc::Runtime::run(1, [&](parc::Rank& r) { serial = run_ft(r, 4, 4); });
  ASSERT_TRUE(serial.verified);
  parc::Runtime::run(p, [&](parc::Rank& r) {
    const FtResult res = run_ft(r, 4, 4);
    EXPECT_TRUE(res.verified);
    ASSERT_EQ(res.checksums.size(), serial.checksums.size());
    for (std::size_t i = 0; i < res.checksums.size(); ++i)
      EXPECT_NEAR(std::abs(res.checksums[i] - serial.checksums[i]), 0.0, 1e-6)
          << "step " << i;
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, FtParallel, ::testing::Values(1, 2, 4, 8));

class CgParallel : public ::testing::TestWithParam<int> {};

TEST_P(CgParallel, ConvergesToSameZeta) {
  const int p = GetParam();
  CgResult serial;
  parc::Runtime::run(1, [&](parc::Rank& r) { serial = run_cg(r, 512); });
  EXPECT_TRUE(serial.verified);
  parc::Runtime::run(p, [&](parc::Rank& r) {
    const CgResult res = run_cg(r, 512);
    EXPECT_TRUE(res.verified);
    EXPECT_NEAR(res.zeta, serial.zeta, 1e-10);
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, CgParallel, ::testing::Values(1, 2, 4, 8));

class AdiAll : public ::testing::TestWithParam<std::tuple<AdiVariant, int>> {};

TEST_P(AdiAll, SolvesVerifyAndDissipate) {
  const auto [variant, p] = GetParam();
  parc::Runtime::run(p, [&](parc::Rank& r) {
    const AdiResult res = run_adi(r, variant, 16, 2);
    EXPECT_TRUE(res.verified) << variant_name(variant)
                              << " residual=" << res.max_solve_residual
                              << " norms " << res.initial_norm << " -> "
                              << res.final_norm;
    EXPECT_LT(res.final_norm, res.initial_norm);
  });
}

INSTANTIATE_TEST_SUITE_P(
    VariantsAndRanks, AdiAll,
    ::testing::Combine(::testing::Values(AdiVariant::BT, AdiVariant::SP,
                                         AdiVariant::LU),
                       ::testing::Values(1, 2, 4)),
    [](const auto& param_info) {
      return std::string(variant_name(std::get<0>(param_info.param))) + "_p" +
             std::to_string(std::get<1>(param_info.param));
    });

TEST(Adi, ResultIndependentOfRankCount) {
  for (AdiVariant v : {AdiVariant::BT, AdiVariant::SP}) {
    double serial_norm = 0;
    parc::Runtime::run(1, [&](parc::Rank& r) {
      serial_norm = run_adi(r, v, 16, 2).final_norm;
    });
    parc::Runtime::run(4, [&](parc::Rank& r) {
      const AdiResult res = run_adi(r, v, 16, 2);
      EXPECT_NEAR(res.final_norm, serial_norm, 1e-10 * (1 + serial_norm))
          << variant_name(v);
    });
  }
}

TEST(Adi, LuWavefrontConvergesToSameSolutionAcrossRanks) {
  // The SSOR inner solve iterates to the unique solution of the implicit
  // system, so the result is rank-count independent up to the solve
  // tolerance (1e-4 relative residual).
  double n1 = 0, n4 = 0;
  parc::Runtime::run(1, [&](parc::Rank& r) { n1 = run_adi(r, AdiVariant::LU, 16, 2).final_norm; });
  parc::Runtime::run(4, [&](parc::Rank& r) {
    const auto res = run_adi(r, AdiVariant::LU, 16, 2);
    EXPECT_TRUE(res.verified);
    if (r.rank() == 0) n4 = res.final_norm;
  });
  EXPECT_NEAR(n4, n1, 1e-3 * n1);
}

}  // namespace
}  // namespace hotlib::npb
