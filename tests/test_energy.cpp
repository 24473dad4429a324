// Energy module: Eq. 25 arithmetic, preset tables, batteries and the
// radio model.
#include <gtest/gtest.h>

#include "energy/battery.hpp"
#include "energy/energy_model.hpp"
#include "energy/power_state.hpp"
#include "energy/radio.hpp"
#include "util/error.hpp"

namespace wsn::energy {
namespace {

TEST(PowerStateTable, PaperTable3Values) {
  const PowerStateTable t = Pxa271();
  EXPECT_DOUBLE_EQ(t.standby_mw, 17.0);
  EXPECT_DOUBLE_EQ(t.idle_mw, 88.0);
  EXPECT_DOUBLE_EQ(t.powerup_mw, 192.442);
  EXPECT_DOUBLE_EQ(t.active_mw, 193.0);
  EXPECT_NO_THROW(t.Validate());
}

TEST(PowerStateTable, PresetsAreOrdered) {
  EXPECT_NO_THROW(Msp430().Validate());
  EXPECT_NO_THROW(Atmega128L().Validate());
}

TEST(PowerStateTable, ValidationCatchesBadOrdering) {
  PowerStateTable bad{"bad", 100.0, 1.0, 1.0, 1.0};  // standby > idle
  EXPECT_THROW(bad.Validate(), util::InvalidArgument);
  PowerStateTable neg{"neg", -1.0, 1.0, 1.0, 1.0};
  EXPECT_THROW(neg.Validate(), util::InvalidArgument);
}

TEST(StateShares, ValidationRules) {
  StateShares ok{0.5, 0.1, 0.2, 0.2};
  EXPECT_NO_THROW(ok.Validate());
  StateShares bad_sum{0.5, 0.5, 0.5, 0.5};
  EXPECT_THROW(bad_sum.Validate(), util::InvalidArgument);
  StateShares negative{-0.2, 0.4, 0.4, 0.4};
  EXPECT_THROW(negative.Validate(), util::InvalidArgument);
}

TEST(EnergyModel, Equation25HandComputed) {
  // Paper Eq. 25 with PXA271 draws, all-standby: 17 mW for 1000 s = 17 J.
  const StateShares standby_only{1.0, 0.0, 0.0, 0.0};
  EXPECT_NEAR(TotalEnergyJoules(standby_only, Pxa271(), 1000.0), 17.0,
              1e-12);
  // Mixed case.
  const StateShares mixed{0.5, 0.0, 0.4, 0.1};
  const double avg = 0.5 * 17.0 + 0.4 * 88.0 + 0.1 * 193.0;
  EXPECT_NEAR(AveragePowerMilliwatts(mixed, Pxa271()), avg, 1e-12);
  EXPECT_NEAR(TotalEnergyJoules(mixed, Pxa271(), 500.0), avg * 0.5, 1e-12);
}

TEST(EnergyModel, FromExplicitTimes) {
  EXPECT_NEAR(
      EnergyFromTimesJoules(100.0, 0.0, 0.0, 0.0, Pxa271()), 1.7, 1e-12);
  EXPECT_THROW(EnergyFromTimesJoules(-1.0, 0.0, 0.0, 0.0, Pxa271()),
               util::InvalidArgument);
}

TEST(EnergyModel, MoreActiveTimeCostsMore) {
  const StateShares lazy{0.9, 0.0, 0.0, 0.1};
  const StateShares busy{0.1, 0.0, 0.0, 0.9};
  EXPECT_LT(TotalEnergyJoules(lazy, Pxa271(), 100.0),
            TotalEnergyJoules(busy, Pxa271(), 100.0));
}

TEST(Battery, CapacityConversion) {
  // 1000 mAh at 3 V = 3 Wh = 10800 J.
  const Battery b(1000.0, 3.0);
  EXPECT_NEAR(b.CapacityJoules(), 10800.0, 1e-9);
}

TEST(Battery, DrainAndDepletion) {
  Battery b(1.0, 1.0);  // 3.6 J
  EXPECT_TRUE(b.Drain(1.6));
  EXPECT_NEAR(b.Remaining(), 2.0, 1e-12);
  EXPECT_FALSE(b.Drain(5.0));
  EXPECT_TRUE(b.Depleted());
  EXPECT_DOUBLE_EQ(b.Remaining(), 0.0);
}

TEST(Battery, LifetimeAtConstantDraw) {
  const Battery b(1000.0, 3.0);  // 10800 J
  EXPECT_NEAR(b.LifetimeSeconds(10.0), 10800.0 / 0.01, 1e-6);
  EXPECT_THROW(b.LifetimeSeconds(0.0), util::InvalidArgument);
}

TEST(Radio, TransmitEnergyGrowsWithDistance) {
  const RadioModel r;
  const double near = r.TransmitEnergy(1000, 10.0);
  const double far = r.TransmitEnergy(1000, 80.0);
  const double very_far = r.TransmitEnergy(1000, 200.0);
  EXPECT_LT(near, far);
  EXPECT_LT(far, very_far);
}

TEST(Radio, FreeSpaceFormulaAtShortRange) {
  const RadioModel r;
  // 1 bit at 10 m: 50 nJ + 10 pJ * 100 = 50e-9 + 1e-9.
  EXPECT_NEAR(r.TransmitEnergy(1, 10.0), 51e-9, 1e-15);
}

TEST(Radio, ReceiveIndependentOfDistance) {
  const RadioModel r;
  EXPECT_NEAR(r.ReceiveEnergy(1000), 1000 * 50e-9, 1e-15);
}

}  // namespace
}  // namespace wsn::energy
