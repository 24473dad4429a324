#include "energy/radio.hpp"

#include "util/error.hpp"

namespace wsn::energy {

using util::Require;

RadioModel::RadioModel(RadioParameters params) : params_(params) {
  Require(params_.elec_nj_per_bit >= 0.0 &&
              params_.amp_friis_pj_per_bit_m2 >= 0.0 &&
              params_.amp_multipath_pj_per_bit_m4 >= 0.0 &&
              params_.crossover_m > 0.0 && params_.sleep_mw >= 0.0 &&
              params_.listen_mw >= 0.0,
          "radio parameters must be non-negative");
}

double RadioModel::TransmitEnergy(std::size_t bits, double distance_m) const {
  Require(distance_m >= 0.0, "distance must be >= 0");
  return ElectronicsEnergy(bits, params_.elec_nj_per_bit) +
         AmplifierEnergy(bits, distance_m, params_.amp_friis_pj_per_bit_m2,
                         params_.amp_multipath_pj_per_bit_m4,
                         params_.crossover_m);
}

double RadioModel::ReceiveEnergy(std::size_t bits) const {
  return ElectronicsEnergy(bits, params_.elec_nj_per_bit);
}

}  // namespace wsn::energy
