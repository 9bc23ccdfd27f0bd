#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <memory>
#include <thread>

#include "comm/channel.hpp"
#include "comm/halo.hpp"
#include "comm/runtime.hpp"
#include "core/util/rng.hpp"
#include "grid/geometry.hpp"

namespace cyclone::comm {
namespace {

TEST(SimComm, SendRecvRoundTrip) {
  SimComm comm(4);
  comm.isend(0, 1, 7, {1.0, 2.0, 3.0});
  EXPECT_TRUE(comm.probe(1, 0, 7));
  const auto data = comm.recv(1, 0, 7);
  ASSERT_EQ(data.size(), 3u);
  EXPECT_EQ(data[1], 2.0);
  EXPECT_TRUE(comm.all_drained());
}

TEST(SimComm, FifoOrderPerChannel) {
  SimComm comm(2);
  comm.isend(0, 1, 1, {1.0});
  comm.isend(0, 1, 1, {2.0});
  EXPECT_EQ(comm.recv(1, 0, 1)[0], 1.0);
  EXPECT_EQ(comm.recv(1, 0, 1)[0], 2.0);
}

TEST(SimComm, TagsSeparateChannels) {
  SimComm comm(2);
  comm.isend(0, 1, 1, {1.0});
  comm.isend(0, 1, 2, {2.0});
  EXPECT_EQ(comm.recv(1, 0, 2)[0], 2.0);
  EXPECT_EQ(comm.recv(1, 0, 1)[0], 1.0);
}

TEST(SimComm, RecvWithoutMessageThrows) {
  SimComm comm(2);
  EXPECT_THROW(comm.recv(1, 0, 7), Error);
}

TEST(SimComm, CountersTrackTraffic) {
  SimComm comm(3);
  comm.isend(0, 1, 1, std::vector<double>(10, 0.0));
  comm.isend(2, 1, 1, std::vector<double>(5, 0.0));
  EXPECT_EQ(comm.total_messages(), 2);
  EXPECT_EQ(comm.total_bytes(), 15 * 8);
  EXPECT_EQ(comm.messages_from(0), 1);
  EXPECT_EQ(comm.bytes_from(2), 40);
  comm.reset_counters();
  EXPECT_EQ(comm.total_messages(), 0);
}

TEST(SimComm, RankBoundsChecked) {
  SimComm comm(2);
  EXPECT_THROW(comm.isend(0, 5, 1, {1.0}), Error);
}

TEST(NetworkModel, AlphaBetaCost) {
  NetworkModel net;
  net.latency = 1e-6;
  net.bandwidth = 1e9;
  EXPECT_NEAR(net.time(10, 1000000), 10e-6 + 1e-3, 1e-12);
}

// ---- Halo exchange --------------------------------------------------------

struct DistField {
  std::vector<std::unique_ptr<FieldD>> storage;
  std::vector<FieldD*> ptrs;

  DistField(const grid::Partitioner& part, int nk, int halo, const std::string& name) {
    for (int r = 0; r < part.num_ranks(); ++r) {
      const auto info = part.info(r);
      storage.push_back(std::make_unique<FieldD>(
          name, FieldShape(info.ni, info.nj, nk, HaloSpec{halo, halo})));
      ptrs.push_back(storage.back().get());
    }
  }
};

/// Fill each rank's interior with a unique global signature value.
void fill_signature(const grid::Partitioner& part, DistField& f) {
  for (int r = 0; r < part.num_ranks(); ++r) {
    const auto info = part.info(r);
    for (int k = 0; k < f.ptrs[r]->shape().nk(); ++k) {
      for (int j = 0; j < info.nj; ++j) {
        for (int i = 0; i < info.ni; ++i) {
          (*f.ptrs[r])(i, j, k) =
              info.tile * 1e6 + (info.i0 + i) * 1e3 + (info.j0 + j) + k * 1e-3;
        }
      }
    }
  }
}

double signature(const grid::Partitioner& part, int tile, int gi, int gj, int k) {
  (void)part;
  return tile * 1e6 + gi * 1e3 + gj + k * 1e-3;
}

class HaloExchangeTest : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(HaloExchangeTest, ScalarHaloMatchesOwners) {
  const auto [n, ranks_per_tile] = GetParam();
  const grid::Partitioner part = grid::Partitioner::for_ranks(n, 6 * ranks_per_tile);
  const int width = 3, nk = 2;
  HaloUpdater updater(part, width);
  SimComm comm(part.num_ranks());

  DistField q(part, nk, width, "q");
  fill_signature(part, q);
  updater.exchange_scalar(q.ptrs, comm);
  EXPECT_TRUE(comm.all_drained());

  // Every resolvable halo cell must now hold its owner's signature.
  for (int r = 0; r < part.num_ranks(); ++r) {
    const auto info = part.info(r);
    for (int k = 0; k < nk; ++k) {
      for (int lj = -width; lj < info.nj + width; ++lj) {
        for (int li = -width; li < info.ni + width; ++li) {
          const bool interior = li >= 0 && li < info.ni && lj >= 0 && lj < info.nj;
          if (interior) continue;
          const auto res = part.resolve(r, li, lj);
          if (!res) continue;  // corner diagonal
          if (res->rank == r) continue;
          EXPECT_DOUBLE_EQ((*q.ptrs[r])(li, lj, k),
                           signature(part, res->tile, res->gi, res->gj, k))
              << "rank " << r << " cell (" << li << "," << lj << "," << k << ")";
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Layouts, HaloExchangeTest,
                         ::testing::Values(std::pair{12, 1}, std::pair{12, 4},
                                           std::pair{24, 4}, std::pair{24, 9}));

TEST(HaloUpdater, VectorExchangeRotatesComponents) {
  // Build a globally smooth tangent vector field (projection of a constant
  // 3-D vector onto the sphere, expressed in each tile's local basis).
  // After exchange, halo values must match the local evaluation of the same
  // analytic field in *my* basis — which is exactly what the component
  // rotation guarantees.
  const int n = 16, width = 2;
  const grid::Partitioner part(n, 1, 1);
  HaloUpdater updater(part, width);
  SimComm comm(part.num_ranks());

  const std::array<double, 3> w = {0.3, -0.7, 0.5};  // arbitrary direction

  auto local_uv = [&](int tile, double ic, double jc) {
    constexpr double kH = 1e-5;
    auto norm3 = [](std::array<double, 3> v) {
      const double m = std::sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2]);
      return std::array<double, 3>{v[0] / m, v[1] / m, v[2] / m};
    };
    const double a = (ic + 0.5) * 2.0 / n - 1.0;
    const double b = (jc + 0.5) * 2.0 / n - 1.0;
    const auto p0 = norm3(grid::face_to_xyz(tile, a, b));
    const auto pa = norm3(grid::face_to_xyz(tile, a + kH, b));
    const auto pb = norm3(grid::face_to_xyz(tile, a, b + kH));
    auto unit = [&](std::array<double, 3> d) { return norm3(d); };
    const auto eu = unit({pa[0] - p0[0], pa[1] - p0[1], pa[2] - p0[2]});
    const auto ev = unit({pb[0] - p0[0], pb[1] - p0[1], pb[2] - p0[2]});
    const double u = w[0] * eu[0] + w[1] * eu[1] + w[2] * eu[2];
    const double v = w[0] * ev[0] + w[1] * ev[1] + w[2] * ev[2];
    return std::pair{u, v};
  };

  DistField u(part, 1, width, "u"), v(part, 1, width, "v");
  for (int r = 0; r < part.num_ranks(); ++r) {
    for (int j = 0; j < n; ++j) {
      for (int i = 0; i < n; ++i) {
        const auto [uu, vv] = local_uv(r, i, j);
        (*u.ptrs[r])(i, j, 0) = uu;
        (*v.ptrs[r])(i, j, 0) = vv;
      }
    }
  }
  updater.exchange_vector(u.ptrs, v.ptrs, comm);

  // Check a mid-edge band of halo cells on every tile edge:
  // exchanged-and-rotated values vs. direct evaluation in my extended frame.
  // The index-level permutation matches the physical rotation only up to the
  // gnomonic bases' non-orthogonality (which grows toward cube corners), so
  // test the band around edge midpoints with a loose tolerance.
  // A wrong sign or a swapped permutation produces errors of ~2x the
  // component magnitude; gnomonic distortion stays well under 0.45 in the
  // mid-edge band. (Exact permutation correctness is asserted separately in
  // HaloVectorTransformExactCases.)
  for (int r = 0; r < part.num_ranks(); ++r) {
    for (int t = 5 * n / 16; t < 11 * n / 16; ++t) {
      for (auto [i, j] : {std::pair{-1, t}, {n, t}, {t, -1}, {t, n}}) {
        const auto [ue, ve] = local_uv(r, i, j);
        EXPECT_NEAR((*u.ptrs[r])(i, j, 0), ue, 0.45) << "rank " << r << " (" << i << "," << j;
        EXPECT_NEAR((*v.ptrs[r])(i, j, 0), ve, 0.45) << "rank " << r << " (" << i << "," << j;
      }
    }
  }
}

TEST(HaloUpdater, HaloVectorTransformExactCases) {
  // Hand-derived from the face frames in cube_topology.cpp:
  //  * the equatorial ring (faces 0-3) is orientation-aligned: crossing an
  //    east/west edge keeps (u, v) unchanged;
  //  * face 4's west edge meets face 3's north edge with the tangential
  //    index reversed: u_dest = v_src, v_dest = -u_src.
  const int n = 16;
  for (int t : {2, 8, 13}) {
    const auto ring = grid::halo_vector_transform(0, n, t, n);  // face 0 -> 1
    EXPECT_EQ(ring[0], 1.0);
    EXPECT_EQ(ring[1], 0.0);
    EXPECT_EQ(ring[2], 0.0);
    EXPECT_EQ(ring[3], 1.0);

    const auto polar = grid::halo_vector_transform(4, -1, t, n);  // face 4 -> 3
    EXPECT_EQ(polar[0], 0.0);
    EXPECT_EQ(polar[1], 1.0);
    EXPECT_EQ(polar[2], -1.0);
    EXPECT_EQ(polar[3], 0.0);

    const auto cell = grid::resolve_cell(4, -1, t, n);
    ASSERT_TRUE(cell.has_value());
    EXPECT_EQ(cell->tile, 3);
    EXPECT_EQ(cell->i, n - 1 - t);
    EXPECT_EQ(cell->j, n - 1);
  }
}

TEST(HaloUpdater, MessageCountsReasonable) {
  const grid::Partitioner part(16, 2, 2);
  HaloUpdater updater(part, 3);
  for (int r = 0; r < part.num_ranks(); ++r) {
    // Each rank talks to at least 2 and at most 8 neighbors.
    EXPECT_GE(updater.messages_per_rank(r), 2);
    EXPECT_LE(updater.messages_per_rank(r), 8);
    EXPECT_GT(updater.cells_sent_per_rank(r), 0);
  }
}

TEST(HaloUpdater, FillCornersUsesEdgeHalos) {
  FieldD f("q", 6, 6, 1, HaloSpec{2, 2});
  f.fill(-1.0);
  // Mark edge halos with recognizable values.
  for (int d = 0; d < 2; ++d) {
    for (int t = 0; t < 6; ++t) {
      f(-1 - d, t, 0) = 100 + d;  // west
      f(6 + d, t, 0) = 200 + d;   // east
      f(t, -1 - d, 0) = 300 + d;  // south
      f(t, 6 + d, 0) = 400 + d;   // north
    }
  }
  FieldD fx("qx", 6, 6, 1, HaloSpec{2, 2});
  fx.copy_from(f);
  fill_corners(fx, 2, CornerFill::XDir);
  // XDir corners come from the west/east halos.
  EXPECT_EQ(fx(-1, -1, 0), 100.0);
  EXPECT_EQ(fx(7, 7, 0), 201.0);

  FieldD fy("qy", 6, 6, 1, HaloSpec{2, 2});
  fy.copy_from(f);
  fill_corners(fy, 2, CornerFill::YDir);
  // YDir corners come from the south/north halos.
  EXPECT_EQ(fy(-1, -1, 0), 300.0);
  EXPECT_EQ(fy(7, 7, 0), 401.0);
}

TEST(HaloUpdater, ExchangePreservesInterior) {
  const grid::Partitioner part(12, 1, 1);
  HaloUpdater updater(part, 3);
  SimComm comm(part.num_ranks());
  DistField q(part, 3, 3, "q");
  fill_signature(part, q);
  DistField before(part, 3, 3, "before");
  for (int r = 0; r < 6; ++r) before.ptrs[r]->copy_from(*q.ptrs[r]);
  updater.exchange_scalar(q.ptrs, comm);
  for (int r = 0; r < 6; ++r) {
    EXPECT_EQ(FieldD::max_abs_diff(*q.ptrs[r], *before.ptrs[r]), 0.0);  // interior unchanged
  }
}

// ---- Run-compiled plans against a per-cell reference ----------------------

/// Seeded values over every stored cell, halos included, with signed zeros
/// and NaNs of distinct payloads mixed in: a copy that normalizes either
/// (or a transform that skips the arithmetic) changes bits.
void fill_tricky(FieldD& f, uint64_t seed) {
  Rng rng(seed);
  const FieldShape& s = f.shape();
  for (int k = 0; k < s.nk(); ++k) {
    for (int j = -s.halo().j; j < s.nj() + s.halo().j; ++j) {
      for (int i = -s.halo().i; i < s.ni() + s.halo().i; ++i) {
        const uint64_t pick = rng.next_below(16);
        double v = rng.uniform(-2.0, 2.0);
        if (pick == 0) v = -0.0;
        if (pick == 1) v = 0.0;
        if (pick == 2) v = std::bit_cast<double>(0x7FF8000000000000ull | rng.next_below(1u << 20));
        f(i, j, k) = v;
      }
    }
  }
}

/// Bit-for-bit equality of two same-shaped fields over every stored cell.
::testing::AssertionResult same_bits(const FieldD& a, const FieldD& b) {
  const FieldShape& s = a.shape();
  for (int k = 0; k < s.nk(); ++k) {
    for (int j = -s.halo().j; j < s.nj() + s.halo().j; ++j) {
      for (int i = -s.halo().i; i < s.ni() + s.halo().i; ++i) {
        if (std::bit_cast<uint64_t>(a(i, j, k)) != std::bit_cast<uint64_t>(b(i, j, k))) {
          return ::testing::AssertionFailure()
                 << a.name() << " differs at (" << i << "," << j << "," << k << "): " << a(i, j, k)
                 << " vs " << b(i, j, k);
        }
      }
    }
  }
  return ::testing::AssertionSuccess();
}

/// Per-rank fields of one shape, allocated per layout.
std::vector<std::unique_ptr<FieldD>> rank_fields(const grid::Partitioner& part, int nk, int halo,
                                                 Layout layout, const std::string& name,
                                                 uint64_t seed) {
  std::vector<std::unique_ptr<FieldD>> out;
  for (int r = 0; r < part.num_ranks(); ++r) {
    const auto info = part.info(r);
    out.push_back(std::make_unique<FieldD>(
        name, FieldShape(info.ni, info.nj, nk, HaloSpec{halo, halo}, layout)));
    fill_tricky(*out.back(), Rng::mix(seed, static_cast<uint64_t>(r)));
  }
  return out;
}

std::vector<FieldD*> ptrs_of(const std::vector<std::unique_ptr<FieldD>>& fields) {
  std::vector<FieldD*> out;
  for (const auto& f : fields) out.push_back(f.get());
  return out;
}

TEST(HaloUpdater, RunPlanMatchesPerCellReference) {
  // The exchange through run-compiled plans must write exactly what a
  // naive per-cell walk derives from Partitioner::resolve and
  // halo_vector_transform, bit for bit, and touch nothing else: every
  // layout, widths 1-3, 6/24/54 ranks, 2-D and 17-level fields.
  const Layout layouts[] = {Layout::KJI, Layout::IJK, Layout::KIJ,
                            Layout::JIK, Layout::IKJ, Layout::JKI};
  uint64_t seed = 0x4A10;
  for (const int nranks : {6, 24, 54}) {
    const grid::Partitioner part = grid::Partitioner::for_ranks(12, nranks);
    for (const int width : {1, 2, 3}) {
      const HaloUpdater updater(part, width);
      for (const Layout layout : layouts) {
        for (const int nk : {1, 17}) {
          SCOPED_TRACE(::testing::Message() << nranks << " ranks, width " << width << ", layout "
                                            << static_cast<int>(layout) << ", nk " << nk);
          ++seed;
          auto q = rank_fields(part, nk, width, layout, "q", Rng::mix(seed, 0));
          auto u = rank_fields(part, nk, width, layout, "u", Rng::mix(seed, 1));
          auto v = rank_fields(part, nk, width, layout, "v", Rng::mix(seed, 2));
          // The expected state starts as a copy: cells the exchange must not
          // touch keep their values.
          std::vector<FieldD> want_q, want_u, want_v;
          for (int r = 0; r < nranks; ++r) {
            want_q.push_back(*q[static_cast<size_t>(r)]);
            want_u.push_back(*u[static_cast<size_t>(r)]);
            want_v.push_back(*v[static_cast<size_t>(r)]);
          }
          for (int r = 0; r < nranks; ++r) {
            const auto info = part.info(r);
            for (int lj = -width; lj < info.nj + width; ++lj) {
              for (int li = -width; li < info.ni + width; ++li) {
                if (li >= 0 && li < info.ni && lj >= 0 && lj < info.nj) continue;
                const auto res = part.resolve(r, li, lj);
                if (!res || res->rank == r) continue;
                std::array<double, 4> m = {1, 0, 0, 1};
                if (res->tile != info.tile) {
                  m = grid::halo_vector_transform(info.tile, info.i0 + li, info.j0 + lj, part.n());
                }
                const auto src = static_cast<size_t>(res->rank);
                for (int k = 0; k < nk; ++k) {
                  want_q[static_cast<size_t>(r)](li, lj, k) = (*q[src])(res->li, res->lj, k);
                  const double us = (*u[src])(res->li, res->lj, k);
                  const double vs = (*v[src])(res->li, res->lj, k);
                  want_u[static_cast<size_t>(r)](li, lj, k) = m[0] * us + m[1] * vs;
                  want_v[static_cast<size_t>(r)](li, lj, k) = m[2] * us + m[3] * vs;
                }
              }
            }
          }
          SimComm comm(nranks);
          updater.exchange_scalar(ptrs_of(q), comm);
          updater.exchange_vector(ptrs_of(u), ptrs_of(v), comm);
          EXPECT_TRUE(comm.all_drained());
          EXPECT_EQ(updater.pool_outstanding(), 0);
          for (int r = 0; r < nranks; ++r) {
            const auto i = static_cast<size_t>(r);
            ASSERT_TRUE(same_bits(*q[i], want_q[i])) << "rank " << r;
            ASSERT_TRUE(same_bits(*u[i], want_u[i])) << "rank " << r;
            ASSERT_TRUE(same_bits(*v[i], want_v[i])) << "rank " << r;
          }
        }
      }
    }
  }
}

TEST(HaloUpdater, MismatchedFieldShapeThrows) {
  // Pack and unpack walk raw strides; a field that does not fit the rank's
  // plan must be refused with a structured error before any memory moves.
  const grid::Partitioner part = grid::Partitioner::for_ranks(12, 24);  // 6x6 per rank
  const HaloUpdater updater(part, 3);
  SimComm comm(part.num_ranks());
  const auto expect_refused = [&](const FieldD& f, const char* what) {
    try {
      const FieldD* fields[] = {&f};
      updater.start_rank(0, HaloUpdater::Kind::Scalar, fields, comm);
      ADD_FAILURE() << "accepted a field with " << what;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("'bad'"), std::string::npos) << e.what();
    }
  };
  expect_refused(FieldD("bad", 6, 5, 2, HaloSpec{3, 3}), "the wrong nj");
  expect_refused(FieldD("bad", 7, 6, 2, HaloSpec{3, 3}), "the wrong ni");
  expect_refused(FieldD("bad", 6, 6, 2, HaloSpec{3, 2}), "a halo narrower than the width");
  EXPECT_TRUE(comm.all_drained());
  EXPECT_EQ(updater.pool_outstanding(), 0);

  FieldD u("u", 6, 6, 2, HaloSpec{3, 3});
  FieldD bad("bad", 6, 6, 3, HaloSpec{3, 3});
  const FieldD* pair[] = {&u, &bad};  // u, v shapes differ
  EXPECT_THROW(updater.start_rank(0, HaloUpdater::Kind::Vector, pair, comm), Error);
  FieldD* fields[] = {&bad};
  EXPECT_THROW(updater.finish_rank(0, HaloUpdater::Kind::Scalar, fields, comm), Error);
  EXPECT_TRUE(comm.all_drained());
}

// ---- Parallel lockstep halo node -------------------------------------------

/// A program of halo-only states: a coalesced scalar node and a vector node
/// in one state, then a vector node with two (u, v) pairs.
ir::Program halo_program() {
  ir::Program p("halos");
  p.append_state(ir::State{"mixed",
                           {ir::SNode::make_halo_exchange("ab", {"a", "b"}, 3),
                            ir::SNode::make_halo_exchange("uv", {"u", "v"}, 3, true)}});
  p.append_state(
      ir::State{"pairs", {ir::SNode::make_halo_exchange("xy", {"u", "v", "x", "y"}, 3, true)}});
  return p;
}

/// One model instance: rank catalogs, halo updater and comm.
struct HaloModel {
  HaloModel(const grid::Partitioner& part, int nk, uint64_t seed, const FaultPlan& faults)
      : halo(part, 3), comm(part.num_ranks()), cats(static_cast<size_t>(part.num_ranks())) {
    for (int r = 0; r < part.num_ranks(); ++r) {
      const auto info = part.info(r);
      for (const char* name : {"a", "b", "u", "v", "x", "y"}) {
        FieldD& f = cats[static_cast<size_t>(r)].create(name, info.ni, info.nj, nk);
        fill_tricky(f, Rng::mix(seed, static_cast<uint64_t>(r) * 8 + name[0]));
      }
    }
    ranks = bind_ranks(cats, launch_domains(part, nk));
    comm.set_fault_plan(faults);
  }
  HaloUpdater halo;
  SimComm comm;
  std::vector<FieldCatalog> cats;
  std::vector<RankDomain> ranks;
};

TEST(HaloUpdater, ParallelLockstepMatchesSerial) {
  // Packing and unpacking ranks on a team must not change a bit, a message
  // or a byte: each rank writes only its own fields, and sends and receives
  // stay serial in rank order (so fault decisions keyed on message identity
  // fall on the same messages). 24 ranks of 12x12x8 move 6.6e4 values per
  // node, enough for the team to fork.
  const grid::Partitioner part = grid::Partitioner::for_ranks(24, 24);
  const ir::Program program = halo_program();
  const int nk = 8, steps = 2, members = 3;
  FaultPlan lossy;
  lossy.seed = 0xFA17;
  lossy.drop_rate = 0.05;
  lossy.duplicate_rate = 0.05;
  lossy.reorder_rate = 0.05;
  lossy.corrupt_rate = 0.05;

  for (const FaultPlan& faults : {FaultPlan{}, lossy}) {
    SCOPED_TRACE(faults.active() ? "with a fault plan" : "fault-free");
    // The serial reference: every member alone at a team of one.
    std::vector<std::unique_ptr<HaloModel>> ref;
    for (int m = 0; m < members; ++m) {
      ref.push_back(std::make_unique<HaloModel>(part, nk, Rng::mix(0x5E, m), faults));
      for (int s = 0; s < steps; ++s) {
        run_lockstep_step(program, ref.back()->halo, ref.back()->ranks, ref.back()->comm);
      }
      ref.back()->comm.purge_acknowledged();
    }
    if (faults.active()) {
      EXPECT_GT(ref[0]->comm.reliability().faults_injected(), 0);
    }

    const auto expect_same = [&](HaloModel& got, const HaloModel& want) {
      got.comm.purge_acknowledged();  // stale duplicates of consumed messages
      EXPECT_TRUE(got.comm.all_drained());
      EXPECT_EQ(got.comm.total_messages(), want.comm.total_messages());
      EXPECT_EQ(got.comm.total_bytes(), want.comm.total_bytes());
      const ReliabilityCounters a = got.comm.reliability(), b = want.comm.reliability();
      EXPECT_EQ(a.faults_injected(), b.faults_injected());
      EXPECT_EQ(a.retransmits, b.retransmits);
      EXPECT_EQ(a.corrupt_detected, b.corrupt_detected);
      EXPECT_EQ(a.reorders_healed, b.reorders_healed);
      EXPECT_EQ(got.halo.pool_outstanding(), 0);
      for (size_t r = 0; r < got.cats.size(); ++r) {
        for (const char* name : {"a", "b", "u", "v", "x", "y"}) {
          ASSERT_TRUE(same_bits(got.cats[r].at(name), want.cats[r].at(name))) << "rank " << r;
        }
      }
    };

    for (const int team : {1, 2, 3, 7}) {
      SCOPED_TRACE(::testing::Message() << "team " << team);
      // One model through the 4-argument run_halo_node path.
      HaloModel solo(part, nk, Rng::mix(0x5E, 0), faults);
      solo.halo.set_num_threads(team);
      for (int s = 0; s < steps; ++s) run_lockstep_step(program, solo.halo, solo.ranks, solo.comm);
      expect_same(solo, *ref[0]);

      // A batch: every (member, rank) side of a node in one exchange.
      std::vector<std::unique_ptr<HaloModel>> batch;
      std::vector<const ir::Program*> programs;
      std::vector<const HaloUpdater*> halos;
      std::vector<std::vector<RankDomain>*> ranks;
      std::vector<Comm*> comms;
      for (int m = 0; m < members; ++m) {
        batch.push_back(std::make_unique<HaloModel>(part, nk, Rng::mix(0x5E, m), faults));
        batch.back()->halo.set_num_threads(team);
        programs.push_back(&program);
        halos.push_back(&batch.back()->halo);
        ranks.push_back(&batch.back()->ranks);
        comms.push_back(&batch.back()->comm);
      }
      for (int s = 0; s < steps; ++s) run_lockstep_step(programs, halos, ranks, comms);
      for (int m = 0; m < members; ++m) {
        SCOPED_TRACE(::testing::Message() << "member " << m);
        expect_same(*batch[static_cast<size_t>(m)], *ref[static_cast<size_t>(m)]);
      }
    }
  }
}

}  // namespace
}  // namespace cyclone::comm

namespace cyclone::comm {
namespace {

TEST(HaloUpdater, GroupedExchangeMatchesPerField) {
  const grid::Partitioner part(12, 1, 1);
  HaloUpdater updater(part, 3);

  DistField a1(part, 2, 3, "a"), a2(part, 2, 3, "a2");
  DistField b1(part, 2, 3, "b"), b2(part, 2, 3, "b2");
  fill_signature(part, a1);
  fill_signature(part, b1);
  for (int r = 0; r < 6; ++r) {
    // Distinguish the two fields so a pack-order bug shows up.
    for (int k = 0; k < 2; ++k)
      for (int j = 0; j < 12; ++j)
        for (int i = 0; i < 12; ++i) (*b1.ptrs[r])(i, j, k) += 0.5;
    a2.ptrs[r]->copy_from(*a1.ptrs[r]);
    b2.ptrs[r]->copy_from(*b1.ptrs[r]);
  }

  SimComm c_sep(6), c_grp(6);
  updater.exchange_scalar(a1.ptrs, c_sep);
  updater.exchange_scalar(b1.ptrs, c_sep);
  updater.exchange_group({a2.ptrs, b2.ptrs}, c_grp);

  for (int r = 0; r < 6; ++r) {
    EXPECT_EQ(FieldD::max_abs_diff(*a1.ptrs[r], *a2.ptrs[r], true), 0.0);
    EXPECT_EQ(FieldD::max_abs_diff(*b1.ptrs[r], *b2.ptrs[r], true), 0.0);
  }
  // Coalescing: same bytes, half the messages.
  EXPECT_EQ(c_grp.total_bytes(), c_sep.total_bytes());
  EXPECT_EQ(c_grp.total_messages() * 2, c_sep.total_messages());
}

TEST(CommCounters, AssertDrainedListsNonEmptyMailboxes) {
  SimComm comm(4);
  comm.isend(0, 1, 7, {1.0, 2.0});
  comm.isend(2, 3, 9, {3.0});
  try {
    comm.assert_drained();
    FAIL() << "expected assert_drained to throw";
  } catch (const Error& e) {
    const std::string msg = e.what();
    // The error names every (src, dst, tag) channel left non-empty.
    EXPECT_NE(msg.find("0->1 tag 7"), std::string::npos) << msg;
    EXPECT_NE(msg.find("2->3 tag 9"), std::string::npos) << msg;
  }
}

TEST(CommCounters, RecvDeadlockErrorListsPendingMessages) {
  SimComm comm(4);
  comm.isend(0, 1, 7, {1.0, 2.0});
  try {
    (void)comm.recv(3, 2, 5);  // nothing was ever sent on this channel
    FAIL() << "expected recv to throw";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("no message from 2 to 3 tag 5"), std::string::npos) << msg;
    // The pending-message snapshot shows which sends are still in flight.
    EXPECT_NE(msg.find("0->1 tag 7"), std::string::npos) << msg;
  }
}

TEST(HaloUpdater, BufferPoolReusesStagingBuffers) {
  const grid::Partitioner part(12, 1, 1);
  HaloUpdater updater(part, 3);
  SimComm comm(6);
  DistField q(part, 2, 3, "q");
  fill_signature(part, q);

  const auto totals = [&] {
    long alloc = 0, reuse = 0;
    for (int r = 0; r < 6; ++r) {
      alloc += updater.pool_allocations(r);
      reuse += updater.pool_reuses(r);
    }
    return std::pair{alloc, reuse};
  };

  updater.exchange_scalar(q.ptrs, comm);
  const auto [alloc1, reuse1] = totals();
  EXPECT_GT(alloc1, 0);
  EXPECT_EQ(reuse1, 0);

  // Steady state: every message's staging buffer comes from the pool.
  updater.exchange_scalar(q.ptrs, comm);
  const auto [alloc2, reuse2] = totals();
  EXPECT_EQ(alloc2, alloc1);
  EXPECT_EQ(reuse2, alloc1);
}

TEST(HaloUpdater, SplitExchangeOverlapsCompute) {
  const grid::Partitioner part(12, 1, 1);
  HaloUpdater updater(part, 3);
  SimComm comm(6);

  DistField q(part, 2, 3, "q"), ref(part, 2, 3, "ref");
  fill_signature(part, q);
  fill_signature(part, ref);

  updater.start_exchange(q.ptrs, comm);
  // "Compute" on the interior while messages are in flight.
  for (int r = 0; r < 6; ++r) (*q.ptrs[r])(5, 5, 0) += 1.0;
  updater.finish_exchange(q.ptrs, comm);
  EXPECT_TRUE(comm.all_drained());

  updater.exchange_scalar(ref.ptrs, comm);
  for (int r = 0; r < 6; ++r) {
    // Halos identical to the blocking exchange...
    for (int d = 1; d <= 3; ++d) {
      EXPECT_EQ((*q.ptrs[r])(-d, 4, 1), (*ref.ptrs[r])(-d, 4, 1));
      EXPECT_EQ((*q.ptrs[r])(4, 11 + d, 1), (*ref.ptrs[r])(4, 11 + d, 1));
    }
    // ...and the interior update survived the overlap.
    EXPECT_EQ((*q.ptrs[r])(5, 5, 0), (*ref.ptrs[r])(5, 5, 0) + 1.0);
  }
}

// ---- Concurrent-channel stress --------------------------------------------

/// Fill a vector pair with per-component signatures so a sign flip or a
/// swapped (u, v) rotation at a cube face shows up as a value mismatch.
void fill_vector_signature(const grid::Partitioner& part, DistField& u, DistField& v) {
  fill_signature(part, u);
  fill_signature(part, v);
  for (int r = 0; r < part.num_ranks(); ++r) {
    const auto info = part.info(r);
    for (int k = 0; k < v.ptrs[r]->shape().nk(); ++k) {
      for (int j = 0; j < info.nj; ++j) {
        for (int i = 0; i < info.ni; ++i) (*v.ptrs[r])(i, j, k) += 0.25;
      }
    }
  }
}

TEST(CommStress, RandomizedArrivalMatchesLockstepReference) {
  // Drive the per-rank exchange primitives from real threads through the
  // concurrent channel, with seeded arrival jitter randomizing the
  // cross-channel message order, and require the result to be bitwise
  // identical to the sequential SimComm reference — including the
  // sign-flipping vector rotation at cube faces.
  const grid::Partitioner part = grid::Partitioner::for_ranks(12, 6);
  const int width = 3, nk = 2, nranks = part.num_ranks();
  HaloUpdater updater(part, width);

  DistField ref_q(part, nk, width, "q"), ref_u(part, nk, width, "u"), ref_v(part, nk, width, "v");
  fill_signature(part, ref_q);
  fill_vector_signature(part, ref_u, ref_v);
  SimComm sim(nranks);
  updater.exchange_scalar(ref_q.ptrs, sim);
  updater.exchange_vector(ref_u.ptrs, ref_v.ptrs, sim);
  EXPECT_TRUE(sim.all_drained());

  for (int rep = 0; rep < 20; ++rep) {
    ConcurrentComm::Options opt;
    opt.arrival_jitter_seed = Rng::mix(0xC0117E57ull, static_cast<uint64_t>(rep));
    opt.arrival_jitter_max_us = 150;
    ConcurrentComm comm(nranks, opt);

    DistField q(part, nk, width, "q"), u(part, nk, width, "u"), v(part, nk, width, "v");
    fill_signature(part, q);
    fill_vector_signature(part, u, v);

    std::vector<std::thread> threads;
    for (int r = 0; r < nranks; ++r) {
      threads.emplace_back([&, r] {
        FieldD* scalars[] = {q.ptrs[r]};
        FieldD* pair[] = {u.ptrs[r], v.ptrs[r]};
        updater.start_rank(r, HaloUpdater::Kind::Scalar, scalars, comm);
        updater.start_rank(r, HaloUpdater::Kind::Vector, pair, comm);
        updater.finish_rank(r, HaloUpdater::Kind::Scalar, scalars, comm);
        updater.finish_rank(r, HaloUpdater::Kind::Vector, pair, comm);
      });
    }
    for (auto& t : threads) t.join();
    EXPECT_TRUE(comm.all_drained());
    EXPECT_EQ(comm.total_messages(), sim.total_messages());
    EXPECT_EQ(comm.total_bytes(), sim.total_bytes());

    for (int r = 0; r < nranks; ++r) {
      EXPECT_EQ(FieldD::max_abs_diff(*q.ptrs[r], *ref_q.ptrs[r], true), 0.0)
          << "q rank " << r << " rep " << rep;
      EXPECT_EQ(FieldD::max_abs_diff(*u.ptrs[r], *ref_u.ptrs[r], true), 0.0)
          << "u rank " << r << " rep " << rep;
      EXPECT_EQ(FieldD::max_abs_diff(*v.ptrs[r], *ref_v.ptrs[r], true), 0.0)
          << "v rank " << r << " rep " << rep;
    }
  }
}

TEST(CommStress, GroupedExchangeUnderThreads) {
  // Coalesced multi-field messages through the concurrent channel: one
  // message per neighbor carries both fields, in the same pack order as the
  // lockstep grouped exchange.
  const grid::Partitioner part = grid::Partitioner::for_ranks(12, 6);
  const int nranks = part.num_ranks();
  HaloUpdater updater(part, 3);

  DistField ra(part, 2, 3, "a"), rb(part, 2, 3, "b");
  fill_signature(part, ra);
  fill_vector_signature(part, ra, rb);  // rb = signature + 0.25
  SimComm sim(nranks);
  updater.exchange_group({ra.ptrs, rb.ptrs}, sim);

  ConcurrentComm::Options opt;
  opt.arrival_jitter_seed = 0x6E0;
  ConcurrentComm comm(nranks, opt);
  DistField a(part, 2, 3, "a"), b(part, 2, 3, "b");
  fill_signature(part, a);
  fill_vector_signature(part, a, b);

  std::vector<std::thread> threads;
  for (int r = 0; r < nranks; ++r) {
    threads.emplace_back([&, r] {
      FieldD* fields[] = {a.ptrs[r], b.ptrs[r]};
      updater.start_rank(r, HaloUpdater::Kind::Scalar, fields, comm);
      updater.finish_rank(r, HaloUpdater::Kind::Scalar, fields, comm);
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(comm.total_messages(), sim.total_messages());
  for (int r = 0; r < nranks; ++r) {
    EXPECT_EQ(FieldD::max_abs_diff(*a.ptrs[r], *ra.ptrs[r], true), 0.0) << "a rank " << r;
    EXPECT_EQ(FieldD::max_abs_diff(*b.ptrs[r], *rb.ptrs[r], true), 0.0) << "b rank " << r;
  }
}

}  // namespace
}  // namespace cyclone::comm
