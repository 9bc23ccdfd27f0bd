#include "ensemble/perturb.hpp"

#include <algorithm>
#include <bit>

#include "core/util/error.hpp"
#include "core/util/rng.hpp"
#include "fv3/init/baroclinic.hpp"
#include "swe/init.hpp"

namespace cyclone::ensemble {

namespace {

/// FNV-1a over the field name so "u" and "v" draw decorrelated streams.
uint64_t hash_name(std::string_view name) {
  uint64_t h = 0xCBF29CE484222325ull;
  for (unsigned char c : name) {
    h ^= c;
    h *= 0x100000001B3ull;
  }
  return h;
}

}  // namespace

double perturbation_factor(const MemberSpec& spec, std::string_view field, int tile, int gi,
                           int gj, int k, double amplitude) {
  if (spec.index == 0) return 1.0;
  uint64_t h = Rng::mix(spec.seed, static_cast<uint64_t>(spec.index));
  h = Rng::mix(h, hash_name(field));
  h = Rng::mix(h, static_cast<uint64_t>(tile));
  h = Rng::mix(h, static_cast<uint64_t>(static_cast<uint32_t>(gi)) |
                      (static_cast<uint64_t>(static_cast<uint32_t>(gj)) << 32));
  h = Rng::mix(h, static_cast<uint64_t>(k));
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;  // [0, 1)
  return 1.0 + amplitude * (2.0 * u - 1.0);
}

void perturb_field(FieldD& field, const MemberSpec& spec, int tile, int gi0, int gj0,
                   double amplitude) {
  if (spec.index == 0) return;
  const FieldShape& s = field.shape();
  for (int k = 0; k < s.nk(); ++k) {
    for (int j = 0; j < s.nj(); ++j) {
      for (int i = 0; i < s.ni(); ++i) {
        field(i, j, k) *= perturbation_factor(spec, field.name(), tile, gi0 + i, gj0 + j, k,
                                              amplitude);
      }
    }
  }
}

namespace {

template <class Model>
void perturb_prognostics(Model& model, const std::vector<std::string>& prognostics,
                         const MemberSpec& spec, double amplitude) {
  if (spec.index != 0) {
    for (int r = 0; r < model.num_ranks(); ++r) {
      const grid::RankInfo info = model.partitioner().info(r);
      auto& catalog = model.state(r).catalog();
      for (const std::string& name : prognostics) {
        perturb_field(catalog.at(name), spec, info.tile, info.i0, info.j0, amplitude);
      }
    }
  }
  // Unconditional so control and perturbed members run the same exchange
  // sequence (the exchange is deterministic, but symmetry keeps the solo
  // replica's step count identical for any future stateful comm layer).
  model.exchange_prognostics();
}

}  // namespace

void perturb_model(fv3::DistributedModel& model, const MemberSpec& spec, double amplitude) {
  perturb_prognostics(model, fv3::ModelState::prognostic_names(model.state(0).config().ntracers),
                      spec, amplitude);
}

void perturb_model(swe::SweModel& model, const MemberSpec& spec, double amplitude) {
  perturb_prognostics(model, swe::SweState::prognostic_names(model.state(0).config().ntracers),
                      spec, amplitude);
}

void apply_initial_condition(fv3::DistributedModel& model, const std::string& ic) {
  if (ic == "baro") {
    fv3::init_baroclinic(model);
  } else if (ic == "solid") {
    for (int r = 0; r < model.num_ranks(); ++r) {
      fv3::init_solid_body(model.state(r), model.partitioner());
    }
    model.exchange_prognostics();
  } else {
    throw Error("unknown dycore initial condition '" + ic + "'");
  }
}

void apply_initial_condition(swe::SweModel& model, const std::string& ic) {
  if (ic == "hill") {
    swe::init_gaussian_hill(model);
  } else if (ic == "vortex") {
    swe::init_vortex(model);
  } else if (ic == "jet") {
    swe::init_zonal_flow(model);
  } else {
    throw Error("unknown SWE initial condition '" + ic + "'");
  }
}

InitialState InitialState::capture(fv3::ModelDriver& model) {
  InitialState snapshot;
  std::vector<comm::RankDomain>& ranks = model.rank_domains();
  for (size_t r = 0; r < ranks.size(); ++r) {
    FieldCatalog& catalog = *ranks[r].catalog;
    for (const std::string& name : catalog.names()) {
      const FieldD& field = catalog.at(name);
      const double* begin = field.data();
      const double* end = begin + field.shape().alloc_elems();
      // Compare bits, not values: a stored -0.0 must be kept.
      if (std::none_of(begin, end, [](double v) { return std::bit_cast<uint64_t>(v) != 0; })) {
        continue;
      }
      snapshot.fields_.push_back(Saved{static_cast<int>(r), name, std::vector<double>(begin, end)});
    }
  }
  return snapshot;
}

void InitialState::restore(fv3::ModelDriver& model) const {
  std::vector<comm::RankDomain>& ranks = model.rank_domains();
  for (const Saved& saved : fields_) {
    CY_REQUIRE_MSG(saved.rank < static_cast<int>(ranks.size()),
                   "initial state has more ranks than the model");
    FieldD& field = ranks[static_cast<size_t>(saved.rank)].catalog->at(saved.name);
    CY_REQUIRE_MSG(field.shape().alloc_elems() == saved.values.size(),
                   "initial state field '" << saved.name << "' shape mismatch");
    std::copy(saved.values.begin(), saved.values.end(), field.data());
  }
}

size_t InitialState::bytes() const {
  size_t total = 0;
  for (const Saved& saved : fields_) total += saved.values.size() * sizeof(double);
  return total;
}

}  // namespace cyclone::ensemble
