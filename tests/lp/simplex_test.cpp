#include "lp/simplex.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace chc::lp {
namespace {

using Rows = std::vector<std::vector<double>>;

TEST(Simplex, SimpleBoundedMaximum) {
  // max x + y s.t. x <= 2, y <= 3, x + y <= 4  -> optimum 4.
  const auto sol = maximize({1, 1}, Rows{{1, 0}, {0, 1}, {1, 1}}, {2, 3, 4});
  ASSERT_EQ(sol.status, Status::kOptimal);
  EXPECT_NEAR(sol.objective, 4.0, 1e-9);
  EXPECT_NEAR(sol.x[0] + sol.x[1], 4.0, 1e-9);
}

TEST(Simplex, MinimizationWithNegativeRegion) {
  // min x s.t. -x <= 5 (x >= -5), x <= 10 -> optimum -5.
  const auto sol = minimize({1}, Rows{{-1}, {1}}, {5, 10});
  ASSERT_EQ(sol.status, Status::kOptimal);
  EXPECT_NEAR(sol.objective, -5.0, 1e-9);
  EXPECT_NEAR(sol.x[0], -5.0, 1e-9);
}

TEST(Simplex, DetectsInfeasible) {
  // x <= -1 and -x <= -1 (x >= 1) is empty.
  const auto sol = minimize({1}, Rows{{1}, {-1}}, {-1, -1});
  EXPECT_EQ(sol.status, Status::kInfeasible);
}

TEST(Simplex, DetectsUnbounded) {
  // min x with only x <= 5: unbounded below.
  const auto sol = minimize({1}, Rows{{1}}, {5});
  EXPECT_EQ(sol.status, Status::kUnbounded);
}

TEST(Simplex, EqualityViaInequalityPair) {
  // min x + y s.t. x + y = 2 (as <= and >=), x >= 0, y >= 0.
  const auto sol = minimize(
      {1, 1}, Rows{{1, 1}, {-1, -1}, {-1, 0}, {0, -1}}, {2, -2, 0, 0});
  ASSERT_EQ(sol.status, Status::kOptimal);
  EXPECT_NEAR(sol.objective, 2.0, 1e-9);
}

TEST(Simplex, NegativeRhsRequiresArtificials) {
  // x >= 3 (as -x <= -3), x <= 7; min x -> 3.
  const auto sol = minimize({1}, Rows{{-1}, {1}}, {-3, 7});
  ASSERT_EQ(sol.status, Status::kOptimal);
  EXPECT_NEAR(sol.x[0], 3.0, 1e-9);
}

TEST(Simplex, DegenerateVertexStillSolves) {
  // Three constraints meeting at one point (degenerate): x <= 1, y <= 1,
  // x + y <= 2; max x + y -> 2.
  const auto sol = maximize({1, 1}, Rows{{1, 0}, {0, 1}, {1, 1}}, {1, 1, 2});
  ASSERT_EQ(sol.status, Status::kOptimal);
  EXPECT_NEAR(sol.objective, 2.0, 1e-9);
}

TEST(Simplex, RedundantConstraintsHarmless) {
  const auto sol =
      maximize({1, 0}, Rows{{1, 0}, {1, 0}, {1, 0}, {0, 1}, {0, -1}},
               {4, 5, 6, 1, 0});
  ASSERT_EQ(sol.status, Status::kOptimal);
  EXPECT_NEAR(sol.x[0], 4.0, 1e-9);
}

TEST(Simplex, ThreeDimensionalLp) {
  // max x+2y+3z over the simplex x,y,z >= 0, x+y+z <= 1 -> 3 at (0,0,1).
  const auto sol = maximize(
      {1, 2, 3},
      Rows{{-1, 0, 0}, {0, -1, 0}, {0, 0, -1}, {1, 1, 1}}, {0, 0, 0, 1});
  ASSERT_EQ(sol.status, Status::kOptimal);
  EXPECT_NEAR(sol.objective, 3.0, 1e-9);
  EXPECT_NEAR(sol.x[2], 1.0, 1e-9);
}

TEST(Feasible, TrueForBoxFalseForEmpty) {
  EXPECT_TRUE(feasible(Rows{{1}, {-1}}, {1, 1}));           // [-1, 1]
  EXPECT_FALSE(feasible(Rows{{1}, {-1}}, {-2, 1}));         // x<=-2 & x>=-1
}

TEST(Chebyshev, UnitSquareCenter) {
  // 0 <= x,y <= 2: center (1,1), radius 1.
  const Rows A{{1, 0}, {-1, 0}, {0, 1}, {0, -1}};
  const auto c = chebyshev_center(A, {2, 0, 2, 0});
  ASSERT_TRUE(c.feasible);
  EXPECT_NEAR(c.center[0], 1.0, 1e-7);
  EXPECT_NEAR(c.center[1], 1.0, 1e-7);
  EXPECT_NEAR(c.radius, 1.0, 1e-7);
}

TEST(Chebyshev, TriangleInradius) {
  // Right triangle (0,0),(4,0),(0,3): inradius r = (a+b-c)/2 = (4+3-5)/2 = 1.
  const Rows A{{0, -1}, {-1, 0}, {3.0 / 5.0, 4.0 / 5.0}};
  const auto c = chebyshev_center(A, {0, 0, 12.0 / 5.0});
  ASSERT_TRUE(c.feasible);
  EXPECT_NEAR(c.radius, 1.0, 1e-7);
  EXPECT_NEAR(c.center[0], 1.0, 1e-6);
  EXPECT_NEAR(c.center[1], 1.0, 1e-6);
}

TEST(Chebyshev, FlatSystemHasZeroRadius) {
  // x = 1 exactly (pair), 0 <= y <= 2: radius 0 (flat in x).
  const Rows A{{1, 0}, {-1, 0}, {0, 1}, {0, -1}};
  const auto c = chebyshev_center(A, {1, -1, 2, 0});
  ASSERT_TRUE(c.feasible);
  EXPECT_NEAR(c.radius, 0.0, 1e-7);
  EXPECT_NEAR(c.center[0], 1.0, 1e-7);
}

TEST(Chebyshev, InfeasibleReported) {
  const Rows A{{1}, {-1}};
  const auto c = chebyshev_center(A, {-2, 1});
  EXPECT_FALSE(c.feasible);
}

TEST(Chebyshev, ZeroRowsHandled) {
  // A zero row with negative rhs is an immediate contradiction.
  const Rows bad{{0, 0}, {1, 0}, {-1, 0}, {0, 1}, {0, -1}};
  const auto c = chebyshev_center(bad, {-1, 1, 1, 1, 1});
  EXPECT_FALSE(c.feasible);
  // A zero row with non-negative rhs is ignored.
  const auto ok = chebyshev_center(bad, {0, 1, 1, 1, 1});
  EXPECT_TRUE(ok.feasible);
}

TEST(Chebyshev, UnboundedInteriorCapped) {
  // Halfplane x <= 0 in 2-D: unbounded; must still return something finite.
  const auto c = chebyshev_center(Rows{{1, 0}}, {0});
  ASSERT_TRUE(c.feasible);
  EXPECT_TRUE(std::isfinite(c.radius));
  EXPECT_LE(c.center[0], 0.0 + 1e-7);
}

TEST(Chebyshev, CentreStaysInsideThinSlab) {
  // Rows 0, 3 and 4 are nearly parallel and bound a slab about 2e-5 wide.
  // The simplex used to pivot on a basic value that roundoff had left
  // slightly negative; the small pivot turned that into a "centre" 1e-5
  // outside row 1 (a d=3 consensus round threw on this system).
  const Rows A{
      {-0x1.5417773b29125p-1, -0x1.7e61e2b8ccd43p-1, -0x1.04a6ba58d2c9p-5},
      {-0x1.a8494ced5a0c9p-1, -0x1.086b6e1310c1cp-1, 0x1.b9f29b62d034dp-3},
      {0x1.92f0496b85ee9p-1, 0x1.05e18579ae1c9p-2, 0x1.1f7858cb3cfcep-1},
      {0x1.541522f2d92fp-1, 0x1.7e6410b9c61f9p-1, 0x1.047e1addcce08p-5},
      {0x1.54177887d7f07p-1, 0x1.7e621ac364fcdp-1, 0x1.0452c3e325f53p-5}};
  const std::vector<double> b{-0x1.08822aad62d06p-2, -0x1.c1fba42c9469fp-3,
                              0x1.e3400ae5773p-4, 0x1.0888b1450466ap-2,
                              0x1.08883e3f8a437p-2};
  const auto c = chebyshev_center(A, b);
  ASSERT_TRUE(c.feasible);
  ASSERT_GT(c.radius, 1e-6);
  for (std::size_t i = 0; i < A.size(); ++i) {
    double ax = 0.0, norm = 0.0;
    for (std::size_t j = 0; j < 3; ++j) {
      ax += A[i][j] * c.center[j];
      norm += A[i][j] * A[i][j];
    }
    EXPECT_GT((b[i] - ax) / std::sqrt(norm), 0.5 * c.radius) << "row " << i;
  }
}

TEST(Simplex, RandomLpsAgreeWithVertexEnumeration) {
  // min c·x over the box [-1,1]^2 intersected with x+y <= 1: optimum is at
  // one of the 5 polygon vertices. Compare against direct enumeration.
  const Rows A{{1, 0}, {-1, 0}, {0, 1}, {0, -1}, {1, 1}};
  const std::vector<double> b{1, 1, 1, 1, 1};
  const std::vector<std::vector<double>> verts = {
      {-1, -1}, {1, -1}, {-1, 1}, {1, 0}, {0, 1}};
  const std::vector<std::vector<double>> costs = {
      {1, 0}, {0, 1}, {1, 1}, {-1, 2}, {0.3, -0.7}, {-2, -1}};
  for (const auto& c : costs) {
    const auto sol = minimize(c, A, b);
    ASSERT_EQ(sol.status, Status::kOptimal);
    double best = 1e100;
    for (const auto& v : verts) {
      best = std::min(best, c[0] * v[0] + c[1] * v[1]);
    }
    EXPECT_NEAR(sol.objective, best, 1e-8);
  }
}

}  // namespace
}  // namespace chc::lp
