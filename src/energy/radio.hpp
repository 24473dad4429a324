// First-order radio energy model (Heinzelman-style): electronics cost per
// bit plus distance-dependent amplifier cost.  Used by the WSN examples —
// the paper notes communication dominates node energy, so the node model
// in src/wsn pairs the CPU model with this radio.
#pragma once

#include <cmath>
#include <cstddef>

namespace wsn::energy {

struct RadioParameters {
  double elec_nj_per_bit = 50.0;      ///< TX/RX electronics, nJ/bit
  double amp_friis_pj_per_bit_m2 = 10.0;   ///< free-space amp, pJ/bit/m^2
  double amp_multipath_pj_per_bit_m4 = 0.0013;  ///< two-ray, pJ/bit/m^4
  double crossover_m = 87.0;          ///< free-space/two-ray switch distance
  double sleep_mw = 0.0001;           ///< radio asleep draw
  double listen_mw = 60.0;            ///< idle listening draw
};

/// Electronics energy (joules) to send or receive `bits`: the whole RX
/// cost, and the distance-independent term of the TX cost.
inline double ElectronicsEnergy(std::size_t bits,
                                double elec_nj_per_bit) noexcept {
  return static_cast<double>(bits) * elec_nj_per_bit * 1e-9;
}

/// Amplifier energy (joules) to send `bits` over `distance_m` meters:
/// free space below `crossover_m`, two-ray from there on.
inline double AmplifierEnergy(std::size_t bits, double distance_m,
                              double friis_pj_per_bit_m2,
                              double multipath_pj_per_bit_m4,
                              double crossover_m) noexcept {
  const double b = static_cast<double>(bits);
  if (distance_m < crossover_m) {
    return b * friis_pj_per_bit_m2 * 1e-12 * distance_m * distance_m;
  }
  return b * multipath_pj_per_bit_m4 * 1e-12 * std::pow(distance_m, 4.0);
}

class RadioModel {
 public:
  explicit RadioModel(RadioParameters params = {});

  /// Energy (joules) to transmit `bits` over `distance_m` meters.
  double TransmitEnergy(std::size_t bits, double distance_m) const;

  /// Energy (joules) to receive `bits`.
  double ReceiveEnergy(std::size_t bits) const;

  const RadioParameters& Parameters() const noexcept { return params_; }

 private:
  RadioParameters params_;
};

}  // namespace wsn::energy
