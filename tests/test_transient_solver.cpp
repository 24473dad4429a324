// Incremental uniformization solver: checkpointed stepping must agree
// with fresh single-shot solves, conserve probability, and police its
// domain (monotone time, valid epsilon, dimension match).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "markov/ctmc.hpp"
#include "markov/stages.hpp"
#include "markov/transient.hpp"
#include "markov/transient_solver.hpp"
#include "util/error.hpp"

namespace wsn::markov {
namespace {

// The paper's CPU chain (Erlang-6 stage expansion) — a realistic sparse
// generator with rates spanning two orders of magnitude.
Ctmc PaperChain(std::size_t* standby_state) {
  const StagesCpuModel model(1.0, 10.0, 0.2, 0.1, 6, 6, 0);
  *standby_state = model.StandbyState();
  return model.BuildChain();
}

std::vector<double> PointMass(const Ctmc& chain, std::size_t state) {
  std::vector<double> p0(chain.StateCount(), 0.0);
  p0[state] = 1.0;
  return p0;
}

TEST(TransientSolver, IncrementalMatchesSingleShotAtEveryCheckpoint) {
  std::size_t standby = 0;
  const Ctmc chain = PaperChain(&standby);
  const std::vector<double> p0 = PointMass(chain, standby);
  const double eps = 1e-13;

  TransientSolver solver(chain, p0, eps);
  for (double t : {0.05, 0.2, 0.7, 1.5, 3.0, 6.0, 12.0, 20.0}) {
    const std::vector<double>& incremental = solver.AdvanceTo(t);
    const std::vector<double> single_shot =
        chain.TransientDistribution(p0, t, eps);
    ASSERT_EQ(incremental.size(), single_shot.size());
    for (std::size_t i = 0; i < incremental.size(); ++i) {
      EXPECT_NEAR(incremental[i], single_shot[i], 1e-12)
          << "state " << i << " at t=" << t;
    }
  }
}

TEST(TransientSolver, ConservesProbabilityAtEveryCheckpoint) {
  std::size_t standby = 0;
  const Ctmc chain = PaperChain(&standby);
  TransientSolver solver(chain, PointMass(chain, standby));
  for (double t : {0.1, 0.5, 2.0, 10.0}) {
    const std::vector<double>& dist = solver.AdvanceTo(t);
    double sum = 0.0;
    for (double x : dist) {
      EXPECT_GE(x, -1e-12);
      sum += x;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9) << "t=" << t;
  }
}

TEST(TransientSolver, AdvanceToCurrentTimeIsIdentity) {
  std::size_t standby = 0;
  const Ctmc chain = PaperChain(&standby);
  TransientSolver solver(chain, PointMass(chain, standby));
  const std::vector<double> at_one = solver.AdvanceTo(1.0);
  const std::vector<double>& again = solver.AdvanceTo(1.0);
  EXPECT_EQ(at_one, again);
  EXPECT_DOUBLE_EQ(solver.CurrentTime(), 1.0);
}

TEST(TransientSolver, ChainWithoutTransitionsIsConstant) {
  Ctmc chain(3);
  TransientSolver solver(chain, {0.25, 0.5, 0.25});
  EXPECT_DOUBLE_EQ(solver.UniformizationRate(), 0.0);
  const std::vector<double>& dist = solver.AdvanceTo(100.0);
  EXPECT_DOUBLE_EQ(dist[1], 0.5);
}

TEST(TransientSolver, DomainChecks) {
  std::size_t standby = 0;
  const Ctmc chain = PaperChain(&standby);
  const std::vector<double> p0 = PointMass(chain, standby);
  EXPECT_THROW(TransientSolver(chain, {0.5, 0.5}), util::InvalidArgument);
  EXPECT_THROW(TransientSolver(chain, p0, 0.0), util::InvalidArgument);
  EXPECT_THROW(TransientSolver(chain, p0, 1.0), util::InvalidArgument);

  TransientSolver solver(chain, p0);
  solver.AdvanceTo(2.0);
  EXPECT_THROW(solver.AdvanceTo(1.0), util::InvalidArgument);
  EXPECT_THROW(solver.AdvanceTo(-1.0), util::InvalidArgument);
}

TEST(TransientTrajectory, RejectsNegativeTimes) {
  const TransientCpuAnalysis a(1.0, 10.0, 0.2, 0.1, 4);
  EXPECT_THROW(a.Trajectory({0.5, -0.1, 1.0}), util::InvalidArgument);
}

TEST(TransientTrajectory, UnsortedInputEvaluatedCorrectlyInInputOrder) {
  const TransientCpuAnalysis a(1.0, 10.0, 0.2, 0.1, 4);
  const std::vector<double> unsorted = {5.0, 0.2, 1.0};
  const auto traj = a.Trajectory(unsorted);
  ASSERT_EQ(traj.size(), 3u);
  for (std::size_t i = 0; i < unsorted.size(); ++i) {
    EXPECT_DOUBLE_EQ(traj[i].time, unsorted[i]);
    const TransientPoint point = a.At(unsorted[i]);
    EXPECT_NEAR(traj[i].p_idle, point.p_idle, 1e-10) << "i=" << i;
    EXPECT_NEAR(traj[i].p_standby, point.p_standby, 1e-10) << "i=" << i;
  }
}

}  // namespace
}  // namespace wsn::markov
