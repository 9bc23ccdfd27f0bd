#include "comm/halo.hpp"

#include <algorithm>
#include <map>

namespace cyclone::comm {

namespace {
/// Message tags: one per exchange flavor so a scalar exchange can never
/// consume a vector message posted on the same neighbor pair.
constexpr int kTagScalar = 9;
constexpr int kTagVector = 7;
}  // namespace

void fill_corners(FieldD& f, int width, CornerFill dir) {
  const int ni = f.shape().ni();
  const int nj = f.shape().nj();
  const int nk = f.shape().nk();
  CY_REQUIRE(width <= f.shape().halo().i && width <= f.shape().halo().j);

  // Transpose convention (the analog of FV3's fill_corners): corner cell
  // values come from the adjacent *exchanged* edge halo by transposing the
  // (depth-in-i, depth-in-j) offsets. XDir sources the i-edge halos (used
  // before an i-direction sweep), YDir the j-edge halos.
  for (int k = 0; k < nk; ++k) {
    for (int q = 0; q < width; ++q) {     // depth in j
      for (int p = 0; p < width; ++p) {   // depth in i
        const int iw = -1 - p, ie = ni + p;
        const int js = -1 - q, jn = nj + q;
        if (dir == CornerFill::XDir) {
          f(iw, js, k) = f(-1 - q, p, k);
          f(ie, js, k) = f(ni + q, p, k);
          f(iw, jn, k) = f(-1 - q, nj - 1 - p, k);
          f(ie, jn, k) = f(ni + q, nj - 1 - p, k);
        } else {
          f(iw, js, k) = f(q, -1 - p, k);
          f(ie, js, k) = f(ni - 1 - q, -1 - p, k);
          f(iw, jn, k) = f(q, nj + p, k);
          f(ie, jn, k) = f(ni - 1 - q, nj + p, k);
        }
      }
    }
  }
}

HaloUpdater::HaloUpdater(const grid::Partitioner& part, int width)
    : part_(part), width_(width) {
  CY_REQUIRE_MSG(width > 0, "halo width must be positive");
  const int nranks = part.num_ranks();
  recv_plan_.resize(static_cast<size_t>(nranks));
  send_plan_.resize(static_cast<size_t>(nranks));
  corners_.resize(static_cast<size_t>(nranks));
  pools_.resize(static_cast<size_t>(nranks));

  for (int rank = 0; rank < nranks; ++rank) {
    const grid::RankInfo info = part.info(rank);
    infos_.push_back(info);
    // Halo cells dst receives from each source rank, row by row (+i within
    // a row): the order runs are cut from.
    std::map<int, std::vector<HaloRun>> cells;
    for (int lj = -width; lj < info.nj + width; ++lj) {
      for (int li = -width; li < info.ni + width; ++li) {
        const bool in_i = li >= 0 && li < info.ni;
        const bool in_j = lj >= 0 && lj < info.nj;
        if (in_i && in_j) continue;  // interior, not a halo cell
        const auto resolved = part.resolve(rank, li, lj);
        if (!resolved) {
          // Cube-corner diagonal: no owner; remember the transpose-fill
          // sources (the tile corner coincides with this rank's corner).
          const int ni = info.ni, nj = info.nj;
          const int p = li < 0 ? -1 - li : li - ni;  // depth in i
          const int q = lj < 0 ? -1 - lj : lj - nj;  // depth in j
          CornerCell c{li, lj, 0, 0, 0, 0};
          if (li < 0) {
            c.src_x_li = -1 - q;
            c.src_y_li = q;
          } else {
            c.src_x_li = ni + q;
            c.src_y_li = ni - 1 - q;
          }
          if (lj < 0) {
            c.src_x_lj = p;  // row p from the bottom
            c.src_y_lj = -1 - p;
          } else {
            c.src_x_lj = nj - 1 - p;
            c.src_y_lj = nj + p;
          }
          corners_[static_cast<size_t>(rank)].push_back(c);
          continue;
        }
        if (resolved->rank == rank) continue;  // periodic self-wrap impossible

        HaloRun cell{li, lj, resolved->li, resolved->lj, 1, 0, 1, {1, 0, 0, 1}};
        if (resolved->tile != info.tile) {
          const auto m = grid::halo_vector_transform(info.tile, info.i0 + li, info.j0 + lj,
                                                     part.n());
          std::copy(m.begin(), m.end(), cell.m);
        }
        cells[resolved->rank].push_back(cell);
      }
    }
    // Compile each cell list into runs: a cell extends the open run when it
    // is the next destination cell of the row, shares the run's transform,
    // and its source is one run step past the run's last source cell (the
    // second cell of a run fixes the step).
    for (const auto& [src, list] : cells) {
      Peer peer{src, list.size(), {}};
      for (const HaloRun& c : list) {
        if (!peer.runs.empty()) {
          HaloRun& run = peer.runs.back();
          const int di = c.src_li - (run.src_li + (run.len - 1) * run.src_di);
          const int dj = c.src_lj - (run.src_lj + (run.len - 1) * run.src_dj);
          const bool next = c.lj == run.lj && c.li == run.li + run.len &&
                            std::equal(c.m, c.m + 4, run.m) &&
                            (run.len == 1 || (di == run.src_di && dj == run.src_dj));
          if (next) {
            run.src_di = di;
            run.src_dj = dj;
            ++run.len;
            continue;
          }
        }
        peer.runs.push_back(c);
      }
      recv_plan_[static_cast<size_t>(rank)].push_back(std::move(peer));
    }
  }
  for (int dst = 0; dst < nranks; ++dst) {
    for (const Peer& peer : recv_plan_[static_cast<size_t>(dst)]) {
      send_plan_[static_cast<size_t>(peer.rank)].push_back(Peer{dst, peer.cells, peer.runs});
    }
  }
}

// --- Exchange stages ---------------------------------------------------------

void HaloUpdater::check_fields(int rank, Kind kind, std::span<const FieldD* const> fields) const {
  CY_REQUIRE_MSG(!fields.empty(), "empty field group");
  CY_REQUIRE_MSG(kind == Kind::Scalar || fields.size() == 2,
                 "vector halo exchange needs one (u, v) pair");
  const grid::RankInfo& info = infos_[static_cast<size_t>(rank)];
  for (const FieldD* f : fields) {
    const FieldShape& s = f->shape();
    CY_REQUIRE_MSG(s.ni() == info.ni && s.nj() == info.nj,
                   "halo exchange: field '" << f->name() << "' is " << s.ni() << "x" << s.nj()
                                            << ", rank " << rank << " owns " << info.ni << "x"
                                            << info.nj);
    CY_REQUIRE_MSG(s.halo().i >= width_ && s.halo().j >= width_,
                   "halo exchange: field '" << f->name() << "' has halo (" << s.halo().i << ","
                                            << s.halo().j << "), exchange width is " << width_);
  }
  CY_REQUIRE_MSG(kind == Kind::Scalar || fields[0]->shape() == fields[1]->shape(),
                 "vector halo exchange: u and v must share one shape");
}

HaloUpdater::Messages HaloUpdater::stage(int rank, Kind kind,
                                         std::span<const FieldD* const> fields) const {
  check_fields(rank, kind, fields);
  size_t levels = 0;  // values per halo cell
  for (const FieldD* f : fields) levels += static_cast<size_t>(f->shape().nk());
  const auto& peers = send_plan_[static_cast<size_t>(rank)];
  Messages out{kind, 0, {}};
  out.bufs.reserve(peers.size());
  for (const Peer& peer : peers) {
    const size_t n = peer.cells * levels;
    out.bufs.push_back(pools_[static_cast<size_t>(rank)].acquire());
    out.bufs.back().reserve(n);
    out.values += n;
  }
  return out;
}

void HaloUpdater::pack(int rank, std::span<const FieldD* const> fields, Messages& out) const {
  const auto& peers = send_plan_[static_cast<size_t>(rank)];
  for (size_t p = 0; p < peers.size(); ++p) {
    std::vector<double>& buf = out.bufs[p];
    size_t size = 0;
    for (const FieldD* f : fields) size += peers[p].cells * static_cast<size_t>(f->shape().nk());
    buf.resize(size);  // within the staged capacity: no allocation
    double* dst = buf.data();
    for (const FieldD* f : fields) {
      const FieldShape& s = f->shape();
      const double* data = f->data();
      for (int k = 0; k < s.nk(); ++k) {
        for (const HaloRun& run : peers[p].runs) {
          const double* src = data + s.index(run.src_li, run.src_lj, k);
          const ptrdiff_t step = run.src_di * s.stride_i() + run.src_dj * s.stride_j();
          for (int c = 0; c < run.len; ++c) dst[c] = src[c * step];
          dst += run.len;
        }
      }
    }
  }
}

void HaloUpdater::post(int rank, Messages& out, Comm& comm) const {
  const int tag = out.kind == Kind::Vector ? kTagVector : kTagScalar;
  const auto& peers = send_plan_[static_cast<size_t>(rank)];
  for (size_t p = 0; p < peers.size(); ++p) {
    comm.isend(rank, peers[p].rank, tag, std::move(out.bufs[p]));
  }
  out.bufs.clear();
}

HaloUpdater::Messages HaloUpdater::receive(int rank, Kind kind,
                                           std::span<const FieldD* const> fields,
                                           Comm& comm) const {
  check_fields(rank, kind, fields);
  size_t levels = 0;
  for (const FieldD* f : fields) levels += static_cast<size_t>(f->shape().nk());
  const int tag = kind == Kind::Vector ? kTagVector : kTagScalar;
  const auto& peers = recv_plan_[static_cast<size_t>(rank)];
  Messages in{kind, 0, {}};
  in.bufs.reserve(peers.size());
  for (const Peer& peer : peers) {
    in.bufs.push_back(comm.recv(rank, peer.rank, tag));
    CY_ENSURE_MSG(in.bufs.back().size() == peer.cells * levels,
                  "halo message " << peer.rank << " -> " << rank << " carries "
                                  << in.bufs.back().size() << " values, expected "
                                  << peer.cells * levels);
    in.values += in.bufs.back().size();
  }
  return in;
}

void HaloUpdater::unpack(int rank, std::span<FieldD* const> fields, const Messages& in) const {
  const auto& peers = recv_plan_[static_cast<size_t>(rank)];
  for (size_t p = 0; p < peers.size(); ++p) {
    const double* src = in.bufs[p].data();
    if (in.kind == Kind::Scalar) {
      for (FieldD* f : fields) {
        const FieldShape& s = f->shape();
        double* data = f->data();
        for (int k = 0; k < s.nk(); ++k) {
          for (const HaloRun& run : peers[p].runs) {
            double* dst = data + s.index(run.li, run.lj, k);
            for (int c = 0; c < run.len; ++c) dst[c * s.stride_i()] = src[c];
            src += run.len;
          }
        }
      }
      continue;
    }
    // Vector: all of u, then all of v. Every cell goes through the exact
    // rotation arithmetic, the identity included: 1*(-0.0) + 0*v is +0.0,
    // and a NaN in v reaches u, where a plain copy would keep other bits.
    FieldD& u = *fields[0];
    FieldD& v = *fields[1];
    const FieldShape& s = u.shape();
    const double* src_v = src + peers[p].cells * static_cast<size_t>(s.nk());
    for (int k = 0; k < s.nk(); ++k) {
      for (const HaloRun& run : peers[p].runs) {
        const size_t at = s.index(run.li, run.lj, k);
        double* du = u.data() + at;
        double* dv = v.data() + at;
        for (int c = 0; c < run.len; ++c) {
          const double us = src[c];
          const double vs = src_v[c];
          du[c * s.stride_i()] = run.m[0] * us + run.m[1] * vs;
          dv[c * s.stride_i()] = run.m[2] * us + run.m[3] * vs;
        }
        src += run.len;
        src_v += run.len;
      }
    }
  }
}

void HaloUpdater::release(int rank, Messages& in) const {
  for (auto& buf : in.bufs) pools_[static_cast<size_t>(rank)].release(std::move(buf));
  in.bufs.clear();
}

// --- Per-rank split-phase primitives ---------------------------------------

void HaloUpdater::start_rank(int rank, Kind kind, std::span<const FieldD* const> fields,
                             Comm& comm) const {
  Messages out = stage(rank, kind, fields);
  pack(rank, fields, out);
  post(rank, out, comm);
}

void HaloUpdater::finish_rank(int rank, Kind kind, std::span<FieldD* const> fields,
                              Comm& comm) const {
  Messages in = receive(rank, kind, fields, comm);
  unpack(rank, fields, in);
  release(rank, in);
}

void HaloUpdater::fill_cube_corners_rank(int rank, FieldD& f, CornerFill dir) const {
  const FieldShape& s = f.shape();
  double* data = f.data();
  for (const auto& c : corners_[static_cast<size_t>(rank)]) {
    const int si = dir == CornerFill::XDir ? c.src_x_li : c.src_y_li;
    const int sj = dir == CornerFill::XDir ? c.src_x_lj : c.src_y_lj;
    double* dst = data + s.index(c.li, c.lj, 0);
    const double* src = data + s.index(si, sj, 0);
    for (int k = 0; k < s.nk(); ++k) dst[k * s.stride_k()] = src[k * s.stride_k()];
  }
}

// --- All-rank collectives (lockstep wrappers) -------------------------------

void HaloUpdater::exchange_scalar(const std::vector<FieldD*>& fields, Comm& comm) const {
  start_exchange(fields, comm);
  finish_exchange(fields, comm);
}

void HaloUpdater::exchange_vector(const std::vector<FieldD*>& u, const std::vector<FieldD*>& v,
                                  Comm& comm) const {
  const int nranks = part_.num_ranks();
  CY_REQUIRE_MSG(static_cast<int>(u.size()) == nranks && static_cast<int>(v.size()) == nranks,
                 "need one (u, v) pair per rank (" << nranks << ")");
  for (size_t src = 0; src < u.size(); ++src) {
    const FieldD* pair[2] = {u[src], v[src]};
    start_rank(static_cast<int>(src), Kind::Vector, pair, comm);
  }
  for (size_t dst = 0; dst < u.size(); ++dst) {
    FieldD* pair[2] = {u[dst], v[dst]};
    finish_rank(static_cast<int>(dst), Kind::Vector, pair, comm);
  }
}

void HaloUpdater::exchange_group(const std::vector<std::vector<FieldD*>>& groups,
                                 Comm& comm) const {
  CY_REQUIRE_MSG(!groups.empty(), "empty field group");
  const int nranks = part_.num_ranks();
  std::vector<FieldD*> fields(groups.size());
  const auto rank_fields = [&](int r) {
    for (size_t g = 0; g < groups.size(); ++g) fields[g] = groups[g][static_cast<size_t>(r)];
    return std::span<FieldD* const>(fields);
  };
  for (int src = 0; src < nranks; ++src) start_rank(src, Kind::Scalar, rank_fields(src), comm);
  for (int dst = 0; dst < nranks; ++dst) finish_rank(dst, Kind::Scalar, rank_fields(dst), comm);
}

void HaloUpdater::start_exchange(const std::vector<FieldD*>& fields, Comm& comm) const {
  const int nranks = part_.num_ranks();
  CY_REQUIRE_MSG(static_cast<int>(fields.size()) == nranks,
                 "need one field per rank (" << nranks << ")");
  for (int src = 0; src < nranks; ++src) {
    start_rank(src, Kind::Scalar, std::span(fields).subspan(static_cast<size_t>(src), 1), comm);
  }
}

void HaloUpdater::finish_exchange(const std::vector<FieldD*>& fields, Comm& comm) const {
  const int nranks = part_.num_ranks();
  CY_REQUIRE_MSG(static_cast<int>(fields.size()) == nranks,
                 "need one field per rank (" << nranks << ")");
  for (int dst = 0; dst < nranks; ++dst) {
    finish_rank(dst, Kind::Scalar, std::span(fields).subspan(static_cast<size_t>(dst), 1), comm);
  }
}

void HaloUpdater::fill_cube_corners(const std::vector<FieldD*>& fields, CornerFill dir) const {
  CY_REQUIRE(fields.size() == corners_.size());
  for (size_t rank = 0; rank < fields.size(); ++rank) {
    fill_cube_corners_rank(static_cast<int>(rank), *fields[rank], dir);
  }
}

long HaloUpdater::messages_per_rank(int rank) const {
  return static_cast<long>(send_plan_[static_cast<size_t>(rank)].size());
}

long HaloUpdater::cells_sent_per_rank(int rank) const {
  long cells = 0;
  for (const Peer& peer : send_plan_[static_cast<size_t>(rank)]) {
    cells += static_cast<long>(peer.cells);
  }
  return cells;
}

}  // namespace cyclone::comm
