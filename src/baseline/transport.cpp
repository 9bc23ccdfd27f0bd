#include "baseline/kernels.hpp"

#include <cmath>
#include <vector>

#include "baseline/detail.hpp"
#include "core/util/strings.hpp"
#include "fv3/config.hpp"
#include "grid/geometry.hpp"

namespace cyclone::baseline {

using detail::Plane;
using detail::mono_slope;
using detail::upwind_face;

void fv_tp_2d(FieldCatalog& cat, const exec::LaunchDomain& dom, const std::string& q_name,
              const std::string& fx_name, const std::string& fy_name) {
  const FieldD& q = cat.at(q_name);
  const FieldD& crx = cat.at("crx");
  const FieldD& cry = cat.at("cry");
  FieldD& fx = cat.at(fx_name);
  FieldD& fy = cat.at(fy_name);

  const int ni = dom.ni, nj = dom.nj, nk = dom.nk;
  const int gni = dom.global_ni(), gnj = dom.global_nj();

  // k-blocking: the whole 2-D pipeline runs per level so every scratch
  // plane stays in cache (the production model's schedule, Sec. II).
  Plane dmx(ni, nj), dmy(ni, nj), fxv(ni, nj), fyv(ni, nj);
  Plane qx(ni, nj), qy(ni, nj), dmx2(ni, nj), dmy2(ni, nj);

  for (int k = 0; k < nk; ++k) {
    // Monotone slopes, with one-sided (zero) rows at the tile edges.
    for (int j = -2; j < nj + 2; ++j) {
      for (int i = -1; i < ni + 2; ++i) {
        const int gi = dom.gi0 + i;
        dmx(i, j) = (gi == 0 || gi == gni - 1)
                        ? 0.0
                        : mono_slope(q(i - 1, j, k), q(i, j, k), q(i + 1, j, k));
      }
    }
    for (int j = -1; j < nj + 2; ++j) {
      for (int i = -2; i < ni + 2; ++i) {
        const int gj = dom.gj0 + j;
        dmy(i, j) = (gj == 0 || gj == gnj - 1)
                        ? 0.0
                        : mono_slope(q(i, j - 1, k), q(i, j, k), q(i, j + 1, k));
      }
    }

    // First-sweep face values.
    for (int j = -2; j < nj + 2; ++j) {
      for (int i = 0; i < ni + 2; ++i) {
        fxv(i, j) = upwind_face(q(i - 1, j, k), q(i, j, k), dmx(i - 1, j), dmx(i, j),
                                crx(i, j, k));
      }
    }
    for (int j = 0; j < nj + 2; ++j) {
      for (int i = -2; i < ni + 2; ++i) {
        fyv(i, j) = upwind_face(q(i, j - 1, k), q(i, j, k), dmy(i, j - 1), dmy(i, j),
                                cry(i, j, k));
      }
    }

    // Transverse half-updates.
    for (int j = -2; j < nj + 2; ++j) {
      for (int i = 0; i < ni + 1; ++i) {
        qx(i, j) = q(i, j, k) +
                   (crx(i, j, k) * fxv(i, j) - crx(i + 1, j, k) * fxv(i + 1, j)) * 0.5;
      }
    }
    for (int j = 0; j < nj + 1; ++j) {
      for (int i = -2; i < ni + 2; ++i) {
        qy(i, j) = q(i, j, k) +
                   (cry(i, j, k) * fyv(i, j) - cry(i, j + 1, k) * fyv(i, j + 1)) * 0.5;
      }
    }

    // Second-sweep slopes on the cross-updated fields.
    for (int j = 0; j < nj + 1; ++j) {
      for (int i = -1; i < ni + 1; ++i) {
        const int gi = dom.gi0 + i;
        dmx2(i, j) = (gi == 0 || gi == gni - 1)
                         ? 0.0
                         : mono_slope(qy(i - 1, j), qy(i, j), qy(i + 1, j));
      }
    }
    for (int j = -1; j < nj + 1; ++j) {
      for (int i = 0; i < ni + 1; ++i) {
        const int gj = dom.gj0 + j;
        dmy2(i, j) = (gj == 0 || gj == gnj - 1)
                         ? 0.0
                         : mono_slope(qx(i, j - 1), qx(i, j), qx(i, j + 1));
      }
    }

    // Final mass fluxes.
    for (int j = 0; j < nj + 1; ++j) {
      for (int i = 0; i < ni + 1; ++i) {
        fx(i, j, k) = crx(i, j, k) * upwind_face(qy(i - 1, j), qy(i, j), dmx2(i - 1, j),
                                                 dmx2(i, j), crx(i, j, k));
        fy(i, j, k) = cry(i, j, k) * upwind_face(qx(i, j - 1), qx(i, j), dmy2(i, j - 1),
                                                 dmy2(i, j), cry(i, j, k));
      }
    }
  }
}

void flux_update(FieldCatalog& cat, const exec::LaunchDomain& dom, const std::string& q_name,
                 const std::string& fx_name, const std::string& fy_name) {
  FieldD& q = cat.at(q_name);
  const FieldD& fx = cat.at(fx_name);
  const FieldD& fy = cat.at(fy_name);
  for (int k = 0; k < dom.nk; ++k) {
    for (int j = 0; j < dom.nj; ++j) {
      for (int i = 0; i < dom.ni; ++i) {
        q(i, j, k) += (fx(i, j, k) - fx(i + 1, j, k)) + (fy(i, j, k) - fy(i, j + 1, k));
      }
    }
  }
}

void tracer_2d(FieldCatalog& cat, const exec::LaunchDomain& dom, const fv3::FvConfig& config) {
  // Air-mass advection for the consistency denominator.
  fv_tp_2d(cat, dom, "delp", "fx2", "fy2");
  {
    FieldD& dp2 = cat.at("dp2");
    const FieldD& delp = cat.at("delp");
    const FieldD& fx = cat.at("fx2");
    const FieldD& fy = cat.at("fy2");
    for (int k = 0; k < dom.nk; ++k) {
      for (int j = 0; j < dom.nj; ++j) {
        for (int i = 0; i < dom.ni; ++i) {
          dp2(i, j, k) = delp(i, j, k) + (fx(i, j, k) - fx(i + 1, j, k)) +
                         (fy(i, j, k) - fy(i, j + 1, k));
        }
      }
    }
  }
  for (int t = 0; t < config.ntracers; ++t) {
    const std::string name = str::numbered("q", t);
    FieldD& q = cat.at(name);
    FieldD& qm = cat.at("qm");
    const FieldD& delp = cat.at("delp");
    // Tracer mass on the transport operator's full reach.
    for (int k = 0; k < dom.nk; ++k) {
      for (int j = -3; j < dom.nj + 3; ++j) {
        for (int i = -3; i < dom.ni + 3; ++i) qm(i, j, k) = q(i, j, k) * delp(i, j, k);
      }
    }
    fv_tp_2d(cat, dom, "qm", "fx", "fy");
    flux_update(cat, dom, "qm", "fx", "fy");
    const FieldD& dp2 = cat.at("dp2");
    for (int k = 0; k < dom.nk; ++k) {
      for (int j = 0; j < dom.nj; ++j) {
        for (int i = 0; i < dom.ni; ++i) q(i, j, k) = qm(i, j, k) / dp2(i, j, k);
      }
    }
  }
}

}  // namespace cyclone::baseline
