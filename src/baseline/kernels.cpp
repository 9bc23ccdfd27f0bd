#include "baseline/kernels.hpp"

#include <cmath>
#include <vector>

#include "core/util/strings.hpp"
#include "grid/geometry.hpp"

namespace cyclone::baseline {

void c_sw(FieldCatalog& cat, const exec::LaunchDomain& dom, double dt_acoustic) {
  const FieldD& u = cat.at("u");
  const FieldD& v = cat.at("v");
  const FieldD& cosa = cat.at("cosa");
  const FieldD& sina = cat.at("sina");
  FieldD& ut = cat.at("ut");
  FieldD& vt = cat.at("vt");
  FieldD& uc = cat.at("uc");
  FieldD& vc = cat.at("vc");

  const int ni = dom.ni, nj = dom.nj, nk = dom.nk;
  const int gnj = dom.global_nj(), gni = dom.global_ni();
  const double dt2 = dt_acoustic * 0.5;

  for (int k = 0; k < nk; ++k) {
    // Covariant components with the tile-edge region override.
    for (int j = 0; j < nj + 1; ++j) {
      for (int i = -1; i < ni + 1; ++i) {
        const int gj = dom.gj0 + j;
        ut(i, j, k) = (gj == 0 || gj == gnj - 1)
                          ? u(i, j, k)
                          : (u(i, j, k) - v(i, j, k) * cosa(i, j, 0)) / sina(i, j, 0);
      }
    }
    for (int j = -1; j < nj + 1; ++j) {
      for (int i = 0; i < ni + 1; ++i) {
        const int gi = dom.gi0 + i;
        vt(i, j, k) = (gi == 0 || gi == gni - 1)
                          ? v(i, j, k)
                          : (v(i, j, k) - u(i, j, k) * cosa(i, j, 0)) / sina(i, j, 0);
      }
    }
    for (int j = 0; j < nj + 1; ++j) {
      for (int i = 0; i < ni + 1; ++i) {
        uc(i, j, k) = (ut(i - 1, j, k) + ut(i, j, k)) * 0.5;
        vc(i, j, k) = (vt(i, j - 1, k) + vt(i, j, k)) * 0.5;
      }
    }
  }

  FieldD& divg = cat.at("divg");
  const FieldD& rdx = cat.at("rdx");
  const FieldD& rdy = cat.at("rdy");
  const FieldD& delp = cat.at("delp");
  const FieldD& pt = cat.at("pt");
  const FieldD& w = cat.at("w");
  FieldD& delpc = cat.at("delpc");
  FieldD& ptc = cat.at("ptc");
  FieldD& wc = cat.at("wc");
  for (int k = 0; k < nk; ++k) {
    for (int j = 0; j < nj; ++j) {
      for (int i = 0; i < ni; ++i) {
        divg(i, j, k) = (uc(i + 1, j, k) - uc(i, j, k)) * rdx(i, j, 0) +
                        (vc(i, j + 1, k) - vc(i, j, k)) * rdy(i, j, 0);
        delpc(i, j, k) = delp(i, j, k) - dt2 * delp(i, j, k) * divg(i, j, k);
        ptc(i, j, k) = pt(i, j, k) - dt2 * pt(i, j, k) * divg(i, j, k);
        wc(i, j, k) = w(i, j, k) - dt2 * w(i, j, k) * divg(i, j, k);
      }
    }
  }
}

void pressure_update(FieldCatalog& cat, const exec::LaunchDomain& dom,
                     const fv3::FvConfig& config) {
  const FieldD& delp = cat.at("delp");
  FieldD& pe = cat.at("pe");
  FieldD& pk = cat.at("pk");
  FieldD& peln = cat.at("peln");
  FieldD& ps = cat.at("ps");
  FieldD& gz = cat.at("gz");
  const FieldD& delz = cat.at("delz");
  const int ni = dom.ni, nj = dom.nj, nk = dom.nk;

  for (int j = -1; j < nj + 1; ++j) {
    for (int i = -1; i < ni + 1; ++i) {
      pe(i, j, 0) = config.ptop;
      for (int k = 1; k <= nk; ++k) pe(i, j, k) = pe(i, j, k - 1) + delp(i, j, k - 1);
      for (int k = 0; k <= nk; ++k) {
        pk(i, j, k) = std::pow(pe(i, j, k), grid::kKappa);
        peln(i, j, k) = std::log(pe(i, j, k));
      }
      ps(i, j, 0) = pe(i, j, nk);
    }
  }
  for (int j = 0; j < nj; ++j) {
    for (int i = 0; i < ni; ++i) {
      gz(i, j, nk) = 0.0;
      for (int k = nk - 1; k >= 0; --k) {
        gz(i, j, k) = gz(i, j, k + 1) + delz(i, j, k) * grid::kGravity;
      }
    }
  }
}

void nh_p_grad(FieldCatalog& cat, const exec::LaunchDomain& dom, double dt_acoustic) {
  FieldD& u = cat.at("u");
  FieldD& v = cat.at("v");
  const FieldD& pp = cat.at("pp");
  const FieldD& pk = cat.at("pk");
  const FieldD& delp = cat.at("delp");
  const FieldD& rdx = cat.at("rdx");
  const FieldD& rdy = cat.at("rdy");
  for (int k = 0; k < dom.nk; ++k) {
    for (int j = 0; j < dom.nj; ++j) {
      for (int i = 0; i < dom.ni; ++i) {
        u(i, j, k) -= dt_acoustic * rdx(i, j, 0) *
                      ((pp(i + 1, j, k) - pp(i - 1, j, k)) * 0.5 +
                       (pk(i + 1, j, k) - pk(i - 1, j, k)) * 0.5) /
                      delp(i, j, k);
        v(i, j, k) -= dt_acoustic * rdy(i, j, 0) *
                      ((pp(i, j + 1, k) - pp(i, j - 1, k)) * 0.5 +
                       (pk(i, j + 1, k) - pk(i, j - 1, k)) * 0.5) /
                      delp(i, j, k);
      }
    }
  }
}

void d_sw(FieldCatalog& cat, const exec::LaunchDomain& dom, const fv3::FvConfig& config,
          double dt_acoustic) {
  const int ni = dom.ni, nj = dom.nj, nk = dom.nk;
  const double dt = dt_acoustic;

  {
    const FieldD& u = cat.at("u");
    const FieldD& v = cat.at("v");
    const FieldD& rdx = cat.at("rdx");
    const FieldD& rdy = cat.at("rdy");
    FieldD& vort = cat.at("vort");
    FieldD& ke = cat.at("ke");
    FieldD& divg = cat.at("divg");
    FieldD& crx = cat.at("crx");
    FieldD& cry = cat.at("cry");
    for (int k = 0; k < nk; ++k) {
      for (int j = -2; j < nj + 2; ++j) {
        for (int i = -2; i < ni + 2; ++i) {
          vort(i, j, k) = (v(i + 1, j, k) - v(i - 1, j, k)) * 0.5 * rdx(i, j, 0) -
                          (u(i, j + 1, k) - u(i, j - 1, k)) * 0.5 * rdy(i, j, 0);
          ke(i, j, k) = (u(i, j, k) * u(i, j, k) + v(i, j, k) * v(i, j, k)) * 0.5;
          divg(i, j, k) = (u(i + 1, j, k) - u(i - 1, j, k)) * 0.5 * rdx(i, j, 0) +
                          (v(i, j + 1, k) - v(i, j - 1, k)) * 0.5 * rdy(i, j, 0);
          // Face wind paired with the face-averaged metric (matches
          // d_sw_courant; a single-cell metric is not reflection-equivariant).
          crx(i, j, k) = dt * ((u(i - 1, j, k) + u(i, j, k)) * 0.5) *
                         ((rdx(i - 1, j, 0) + rdx(i, j, 0)) * 0.5);
          cry(i, j, k) = dt * ((v(i, j - 1, k) + v(i, j, k)) * 0.5) *
                         ((rdy(i, j - 1, 0) + rdy(i, j, 0)) * 0.5);
        }
      }
    }
  }

  fv_tp_2d(cat, dom, "delp", "fx", "fy");
  fv_tp_2d(cat, dom, "pt", "fx2", "fy2");
  fv_tp_2d(cat, dom, "w", "fxw", "fyw");
  flux_update(cat, dom, "delp", "fx", "fy");
  flux_update(cat, dom, "pt", "fx2", "fy2");
  flux_update(cat, dom, "w", "fxw", "fyw");

  {
    FieldD& u = cat.at("u");
    FieldD& v = cat.at("v");
    FieldD& ut = cat.at("ut");
    FieldD& vt = cat.at("vt");
    FieldD& vort = cat.at("vort");
    const FieldD& ke = cat.at("ke");
    const FieldD& divg = cat.at("divg");
    FieldD& divg2 = cat.at("divg2");
    FieldD& damp = cat.at("damp");
    const FieldD& fcor = cat.at("fcor");
    const FieldD& rdx = cat.at("rdx");
    const FieldD& rdy = cat.at("rdy");
    const double smag = config.do_smagorinsky ? config.smag_coeff : 0.0;
    const double dx_typ = 2.0 * M_PI * grid::kEarthRadius / (4.0 * config.npx);
    const double dd =
        config.nord >= 1 ? -config.divergence_damp * dx_typ * dx_typ : config.divergence_damp;
    const FieldD& damp_src = config.nord >= 1 ? divg2 : divg;

    for (int k = 0; k < nk; ++k) {
      for (int j = -1; j < nj + 1; ++j) {
        for (int i = -1; i < ni + 1; ++i) {
          ut(i, j, k) = u(i, j, k) + dt * ((fcor(i, j, 0) + vort(i, j, k)) * v(i, j, k) -
                                           (ke(i + 1, j, k) - ke(i - 1, j, k)) * 0.5 *
                                               rdx(i, j, 0));
          vt(i, j, k) = v(i, j, k) - dt * ((fcor(i, j, 0) + vort(i, j, k)) * u(i, j, k) +
                                           (ke(i, j + 1, k) - ke(i, j - 1, k)) * 0.5 *
                                               rdy(i, j, 0));
        }
      }
      // Smagorinsky coefficient — the pow-heavy stencil of Sec. VI-C1,
      // written with the same general-purpose pow calls as the DSL version.
      for (int j = 0; j < nj; ++j) {
        for (int i = 0; i < ni; ++i) {
          vort(i, j, k) =
              dt * std::pow(std::pow(divg(i, j, k), 2.0) + std::pow(vort(i, j, k), 2.0), 0.5);
        }
      }
      if (config.nord >= 1) {
        for (int j = -1; j < nj + 1; ++j) {
          for (int i = -1; i < ni + 1; ++i) {
            divg2(i, j, k) = (divg(i + 1, j, k) - 2.0 * divg(i, j, k) + divg(i - 1, j, k)) *
                                 rdx(i, j, 0) * rdx(i, j, 0) +
                             (divg(i, j + 1, k) - 2.0 * divg(i, j, k) + divg(i, j - 1, k)) *
                                 rdy(i, j, 0) * rdy(i, j, 0);
          }
        }
      }
      for (int j = -1; j < nj + 1; ++j) {
        for (int i = -1; i < ni + 1; ++i) damp(i, j, k) = dd * damp_src(i, j, k);
      }
      for (int j = 0; j < nj; ++j) {
        for (int i = 0; i < ni; ++i) {
          const double coeff = std::min(smag * vort(i, j, k), 0.2);
          u(i, j, k) = ut(i, j, k) +
                       coeff * (ut(i + 1, j, k) + ut(i - 1, j, k) + ut(i, j + 1, k) +
                                ut(i, j - 1, k) - 4.0 * ut(i, j, k)) +
                       (damp(i + 1, j, k) - damp(i - 1, j, k)) * 0.5;
          v(i, j, k) = vt(i, j, k) +
                       coeff * (vt(i + 1, j, k) + vt(i - 1, j, k) + vt(i, j + 1, k) +
                                vt(i, j - 1, k) - 4.0 * vt(i, j, k)) +
                       (damp(i, j + 1, k) - damp(i, j - 1, k)) * 0.5;
        }
      }
    }
  }
}

void update_dz(FieldCatalog& cat, const exec::LaunchDomain& dom, double dt_acoustic) {
  FieldD& delz = cat.at("delz");
  const FieldD& w = cat.at("w");
  const double dzmin = 2.0;
  for (int k = 0; k < dom.nk; ++k) {
    for (int j = 0; j < dom.nj; ++j) {
      for (int i = 0; i < dom.ni; ++i) {
        const double dz =
            k < dom.nk - 1 ? delz(i, j, k) + dt_acoustic * (w(i, j, k + 1) - w(i, j, k))
                           : delz(i, j, k) - dt_acoustic * w(i, j, k);
        delz(i, j, k) = std::max(dz, dzmin);
      }
    }
  }
}

void remap(FieldCatalog& cat, const exec::LaunchDomain& dom, const fv3::FvConfig& config) {
  const int ni = dom.ni, nj = dom.nj, nk = dom.nk;

  // Recompute Lagrangian interface pressures, reference coordinate and
  // thickness.
  {
    FieldD& pe = cat.at("pe");
    const FieldD& delp = cat.at("delp");
    FieldD& pe_ref = cat.at("pe_ref");
    const FieldD& ak = cat.at("ak");
    const FieldD& bk = cat.at("bk");
    const FieldD& ps = cat.at("ps");
    FieldD& dpr = cat.at("dpr");
    for (int j = 0; j < nj; ++j) {
      for (int i = 0; i < ni; ++i) {
        pe(i, j, 0) = config.ptop;
        for (int k = 1; k <= nk; ++k) pe(i, j, k) = pe(i, j, k - 1) + delp(i, j, k - 1);
        for (int k = 0; k <= nk; ++k) {
          pe_ref(i, j, k) = ak(i, j, k) + bk(i, j, k) * ps(i, j, 0);
        }
        for (int k = 0; k < nk; ++k) dpr(i, j, k) = pe_ref(i, j, k + 1) - pe_ref(i, j, k);
      }
    }
  }

  // One vertical sweep per remapped field.
  std::vector<std::string> fields = {"u", "v", "w", "pt"};
  for (int t = 0; t < config.ntracers; ++t) fields.push_back(str::numbered("q", t));
  const FieldD& pe = cat.at("pe");
  const FieldD& pe_ref = cat.at("pe_ref");
  const FieldD& dpr = cat.at("dpr");
  const FieldD& delp = cat.at("delp");
  std::vector<double> fz(static_cast<size_t>(nk) + 1);
  for (const auto& name : fields) {
    FieldD& q = cat.at(name);
    for (int j = 0; j < nj; ++j) {
      for (int i = 0; i < ni; ++i) {
        fz[0] = 0.0;
        for (int k = 1; k < nk; ++k) {
          const double disp = pe(i, j, k) - pe_ref(i, j, k);
          fz[k] = disp * (disp > 0.0 ? q(i, j, k - 1) : q(i, j, k));
        }
        for (int k = 0; k < nk - 1; ++k) {
          q(i, j, k) = (q(i, j, k) * delp(i, j, k) + fz[k] - fz[k + 1]) / dpr(i, j, k);
        }
        q(i, j, nk - 1) =
            (q(i, j, nk - 1) * delp(i, j, nk - 1) + fz[nk - 1]) / dpr(i, j, nk - 1);
      }
    }
  }

  FieldD& delp_f = cat.at("delp");
  FieldD& delz = cat.at("delz");
  for (int k = 0; k < nk; ++k) {
    for (int j = 0; j < nj; ++j) {
      for (int i = 0; i < ni; ++i) {
        delz(i, j, k) = delz(i, j, k) * dpr(i, j, k) / delp_f(i, j, k);
        delp_f(i, j, k) = dpr(i, j, k);
      }
    }
  }
}

void rayleigh_damping(FieldCatalog& cat, const exec::LaunchDomain& dom,
                      const fv3::FvConfig& config, double dt_remap) {
  FieldD& u = cat.at("u");
  FieldD& v = cat.at("v");
  FieldD& w = cat.at("w");
  const FieldD& pe = cat.at("pe");
  for (int k = 0; k < dom.nk; ++k) {
    for (int j = 0; j < dom.nj; ++j) {
      for (int i = 0; i < dom.ni; ++i) {
        const double pmid = (pe(i, j, k) + pe(i, j, k + 1)) * 0.5;
        if (pmid < config.rf_cutoff) {
          const double ramp =
              std::sin(1.5707963267948966 * (config.rf_cutoff - pmid) / config.rf_cutoff);
          const double factor = 1.0 / (1.0 + dt_remap * config.rf_coeff * ramp * ramp);
          u(i, j, k) *= factor;
          v(i, j, k) *= factor;
          w(i, j, k) *= factor;
        }
      }
    }
  }
}

void fillz(FieldCatalog& cat, const exec::LaunchDomain& dom, const std::string& q_name) {
  FieldD& q = cat.at(q_name);
  const FieldD& delp = cat.at("delp");
  for (int j = 0; j < dom.nj; ++j) {
    for (int i = 0; i < dom.ni; ++i) {
      double deficit = 0.0;  // borrowed mass from above [tracer * delp]
      for (int k = 0; k < dom.nk; ++k) {
        const double qa = k == 0 ? q(i, j, k) : q(i, j, k) - deficit / delp(i, j, k);
        deficit = std::max(-qa, 0.0) * delp(i, j, k);
        q(i, j, k) = std::max(qa, 0.0);
      }
    }
  }
}

void del2_cubed(FieldCatalog& cat, const exec::LaunchDomain& dom, const std::string& q_name,
                double coefficient) {
  FieldD& q = cat.at(q_name);
  const FieldD& rdx = cat.at("rdx");
  const FieldD& rdy = cat.at("rdy");
  // Value semantics: buffer the plane before committing (the DSL statement
  // does the same for its self-read at an offset).
  std::vector<double> buf(static_cast<size_t>(dom.ni) * dom.nj);
  for (int k = 0; k < dom.nk; ++k) {
    size_t idx = 0;
    for (int j = 0; j < dom.nj; ++j) {
      for (int i = 0; i < dom.ni; ++i) {
        buf[idx++] =
            q(i, j, k) + coefficient * ((q(i + 1, j, k) - 2.0 * q(i, j, k) + q(i - 1, j, k)) *
                                            rdx(i, j, 0) * rdx(i, j, 0) +
                                        (q(i, j + 1, k) - 2.0 * q(i, j, k) + q(i, j - 1, k)) *
                                            rdy(i, j, 0) * rdy(i, j, 0));
      }
    }
    idx = 0;
    for (int j = 0; j < dom.nj; ++j) {
      for (int i = 0; i < dom.ni; ++i) q(i, j, k) = buf[idx++];
    }
  }
}

}  // namespace cyclone::baseline
