// Machine-speed probe (see bench.hpp). Written without cyclone code so that
// its pass time measures only how fast the machine runs right now.
#include <algorithm>
#include <cstring>

#include "bench.hpp"

namespace perfbench {

namespace {

size_t padded(int n) { return static_cast<size_t>(n) + 2; }  // one halo point each side

}  // namespace

Probe::Probe(const ProbeShape& shape, int threads) : shape_(shape), threads_(threads) {
  const size_t block = padded(shape.n) * padded(shape.n) * static_cast<size_t>(shape.nk);
  fields_ = std::max(2, static_cast<int>(shape.mib * (1 << 20) /
                                         (sizeof(double) * static_cast<double>(block) *
                                          shape.ranks)));
  // All ones: the stencil's weights sum to 1, so every pass leaves them ones.
  data_.assign(static_cast<size_t>(fields_) * shape.ranks, std::vector<double>(block, 1.0));
  pass();
}

double Probe::pass() {
  const int n = shape_.n, nk = shape_.nk, ranks = shape_.ranks;
  const size_t pi = padded(n);
  const size_t plane = pi * pi;
  auto at = [&](int f, int r) { return data_[static_cast<size_t>(f) * ranks + r].data(); };
  const Clock::time_point t0 = Clock::now();
  for (int f = 0; f < fields_; ++f) {
    const int g = (f + 1) % fields_;
    for (int r = 0; r < ranks; ++r) {
      const double* in = at(f, r);
      double* out = at(g, r);
#pragma omp parallel for num_threads(threads_) schedule(static)
      for (int k = 0; k < nk; ++k) {
        for (size_t j = 1; j <= static_cast<size_t>(n); ++j) {
          const double* c = in + k * plane + j * pi;
          double* o = out + k * plane + j * pi;
          for (size_t i = 1; i <= static_cast<size_t>(n); ++i) {
            o[i] = 0.5 * c[i] + 0.125 * (c[i - 1] + c[i + 1] + c[i - pi] + c[i + pi]);
          }
        }
      }
    }
    // Halo exchange of the new field: the west column and south row of
    // each block come from the next rank's interior.
    for (int r = 0; r < ranks; ++r) {
      double* dst = at(g, r);
      const double* src = at(g, (r + 1) % ranks);
      for (int k = 0; k < nk; ++k) {
        const size_t base = static_cast<size_t>(k) * plane;
        for (size_t j = 1; j <= static_cast<size_t>(n); ++j) {
          dst[base + j * pi] = src[base + j * pi + static_cast<size_t>(n)];
        }
        std::memcpy(dst + base + 1, src + base + static_cast<size_t>(n) * pi + 1,
                    static_cast<size_t>(n) * sizeof(double));
      }
    }
  }
  return seconds_since(t0);
}

}  // namespace perfbench
