#pragma once

#include <span>
#include <vector>

#include "comm/simcomm.hpp"
#include "core/field/field.hpp"
#include "grid/partitioner.hpp"

namespace cyclone::comm {

/// Direction hint for cube-corner fills, matching FV3's fill_corners: before
/// an i-direction sweep corners are filled from the j-halo (XDir) and vice
/// versa.
enum class CornerFill { XDir, YDir };

/// Fill the diagonal corner halo cells of a field from its (already
/// exchanged) edge halos with the transpose convention (see halo.cpp).
void fill_corners(FieldD& f, int width, CornerFill dir);

/// Recycles pack/unpack staging buffers so steady-state exchanges allocate
/// nothing: a rank's sends draw from its pool, and every received buffer is
/// returned to it after unpacking. A pool is only ever touched by one thread
/// at a time: rank r's own thread in the thread-per-rank runtime, the
/// calling thread in the lockstep scheduler (which stages and releases
/// serially and only packs and unpacks in parallel). No locking is needed;
/// buffer handoff between ranks synchronizes through the channel.
class BufferPool {
 public:
  /// An empty buffer with whatever capacity a previous exchange left behind.
  std::vector<double> acquire() {
    ++outstanding_;
    if (free_.empty()) {
      ++allocations_;
      return {};
    }
    ++reuses_;
    std::vector<double> buf = std::move(free_.back());
    free_.pop_back();
    buf.clear();
    return buf;
  }
  void release(std::vector<double>&& buf) {
    --outstanding_;
    free_.push_back(std::move(buf));
  }

  [[nodiscard]] long allocations() const { return allocations_; }
  [[nodiscard]] long reuses() const { return reuses_; }
  /// Buffers acquired but not yet released. Every logical message costs one
  /// acquire (sender) and one release (receiver of the delivered buffer), so
  /// this returns to zero whenever the channel is drained — the invariant
  /// the recovery tests assert.
  [[nodiscard]] long outstanding() const { return outstanding_; }
  /// Forget in-flight buffers after a crash tore rank threads down mid-step
  /// (their wire copies were destroyed with the channel, so the matching
  /// releases will never happen).
  void reset_outstanding() { outstanding_ = 0; }

 private:
  std::vector<std::vector<double>> free_;
  long allocations_ = 0;
  long reuses_ = 0;
  long outstanding_ = 0;
};

/// Cubed-sphere halo updater: precomputes, per destination rank, the source
/// rank/cell of every halo cell (with cross-edge index rotation) and the
/// vector component transform, compiled into runs (see HaloRun). Exchanges
/// run through a Comm as nonblocking sends followed by receives, exactly
/// like the paper's halo updater object (Sec. IV-C).
///
/// Every exchange is built from one per-rank pipeline: stage → pack → post
/// on the sending side, receive → unpack → release on the receiving side.
/// `start_rank` / `finish_rank` run that pipeline end to end on one thread:
/// the collectives below loop them over all ranks, and the concurrent
/// runtime calls them from each rank's own thread. The lockstep halo node
/// (runtime.cpp) runs the same stages phase by phase over all ranks,
/// packing and unpacking ranks in parallel. One packing code path means the
/// schedulers are bitwise identical by construction.
class HaloUpdater {
 public:
  HaloUpdater(const grid::Partitioner& part, int width);

  [[nodiscard]] int width() const { return width_; }
  [[nodiscard]] const grid::Partitioner& partitioner() const { return part_; }

  /// Exchange a scalar field; `fields[r]` is rank r's local field. All
  /// fields must share (ni, nj, nk) with halos >= width.
  void exchange_scalar(const std::vector<FieldD*>& fields, Comm& comm) const;

  /// Exchange a vector pair with component rotation across tile edges.
  void exchange_vector(const std::vector<FieldD*>& u, const std::vector<FieldD*>& v,
                       Comm& comm) const;

  /// Coalesced exchange: all fields of a group travel in one message per
  /// neighbor pair (FV3's grouped halo updates — pays the latency alpha
  /// once instead of once per field). `groups[g][r]` is rank r's field g.
  void exchange_group(const std::vector<std::vector<FieldD*>>& groups, Comm& comm) const;

  /// Nonblocking split: `start` posts all sends (packing included), `finish`
  /// receives and unpacks; compute may overlap between the two calls (the
  /// paper's nonblocking halo exchanges, Sec. II).
  void start_exchange(const std::vector<FieldD*>& fields, Comm& comm) const;
  void finish_exchange(const std::vector<FieldD*>& fields, Comm& comm) const;

  /// Fill only the *cube-corner* diagonal halo cells (the ones with no
  /// owning rank) with the transpose convention; halo cells that were
  /// exchanged stay untouched, so results are decomposition-independent.
  void fill_cube_corners(const std::vector<FieldD*>& fields, CornerFill dir) const;

  /// fill_cube_corners for rank `rank`'s field alone. Does not throw for a
  /// field that passed stage() or receive().
  void fill_cube_corners_rank(int rank, FieldD& f, CornerFill dir) const;

  // --- One rank's side of one exchange. A scalar exchange copies every
  // field of its list (one coalesced message per neighbor); a vector
  // exchange carries one (u, v) pair and rotates it across tile edges. The
  // wire order is field, k, run, cell (a vector exchange sends all of u,
  // then all of v).
  enum class Kind { Scalar, Vector };

  /// Split-phase primitives: stage, pack and post (`start_rank`), then
  /// receive, unpack and release (`finish_rank`), on the calling thread.
  /// Must only be called from the thread that owns rank `rank`'s pool.
  void start_rank(int rank, Kind kind, std::span<const FieldD* const> fields, Comm& comm) const;
  void finish_rank(int rank, Kind kind, std::span<FieldD* const> fields, Comm& comm) const;

  /// One rank's messages of one exchange: a buffer per neighbor, in plan
  /// order (ascending neighbor rank).
  struct Messages {
    Kind kind = Kind::Scalar;
    size_t values = 0;  ///< total payload of all buffers
    std::vector<std::vector<double>> bufs;
  };

  /// Check the fields (see check_fields) and acquire rank's outgoing
  /// buffers from its pool, each with room for its whole payload. Runs on
  /// the thread that owns rank's pool.
  [[nodiscard]] Messages stage(int rank, Kind kind, std::span<const FieldD* const> fields) const;
  /// Write the payload of the staged fields. Neither allocates nor throws,
  /// so different ranks may pack in parallel.
  void pack(int rank, std::span<const FieldD* const> fields, Messages& out) const;
  /// Send the packed buffers (ownership passes to the comm).
  void post(int rank, Messages& out, Comm& comm) const;
  /// Check the fields and receive rank's incoming messages of one exchange,
  /// in plan order, each checked to hold exactly the fields' payload.
  [[nodiscard]] Messages receive(int rank, Kind kind, std::span<const FieldD* const> fields,
                                 Comm& comm) const;
  /// Write received payloads into the halos of the fields they were
  /// received for. Neither allocates nor throws, so different ranks may
  /// unpack in parallel.
  void unpack(int rank, std::span<FieldD* const> fields, const Messages& in) const;
  /// Return received buffers to rank's pool.
  void release(int rank, Messages& in) const;

  /// OpenMP team the lockstep halo node packs and unpacks ranks with (1 =
  /// serial, the default). Models set it from their run options.
  void set_num_threads(int n) { num_threads_ = n > 0 ? n : 1; }
  [[nodiscard]] int num_threads() const { return num_threads_; }

  [[nodiscard]] long pool_allocations(int rank) const {
    return pools_[static_cast<size_t>(rank)].allocations();
  }
  [[nodiscard]] long pool_reuses(int rank) const {
    return pools_[static_cast<size_t>(rank)].reuses();
  }
  /// Sum of acquired-but-unreleased staging buffers across all rank pools.
  /// Zero whenever no exchange is mid-flight; recovery resets it.
  [[nodiscard]] long pool_outstanding() const {
    long n = 0;
    for (const auto& pool : pools_) n += pool.outstanding();
    return n;
  }
  /// Drop in-flight accounting after a rollback-restart (see
  /// BufferPool::reset_outstanding). Retained free buffers stay reusable.
  void reset_pools() const {
    for (auto& pool : pools_) pool.reset_outstanding();
  }

  /// Messages a single rank sends per scalar exchange (for the network
  /// model; the same count is received).
  [[nodiscard]] long messages_per_rank(int rank) const;
  /// Halo cells rank `rank` sends per scalar exchange and per k level.
  [[nodiscard]] long cells_sent_per_rank(int rank) const;

 private:
  /// A row of destination halo cells (li + c, lj), c in [0, len), fed by
  /// source cells (src_li + c * src_di, src_lj + c * src_dj) on one
  /// neighbor, all under one vector transform. The face orientation is
  /// resolved once per run instead of once per cell.
  struct HaloRun {
    int li, lj;
    int src_li, src_lj;
    int src_di, src_dj;
    int len;
    double m[4];  ///< vector transform (identity for same-tile)
  };
  /// The runs exchanged with one neighbor, in wire order.
  struct Peer {
    int rank;
    size_t cells = 0;  ///< sum of run lengths
    std::vector<HaloRun> runs;
  };
  struct CornerCell {
    int li, lj;
    int src_x_li, src_x_lj;  ///< XDir transpose source
    int src_y_li, src_y_lj;  ///< YDir transpose source
  };
  /// Per-rank cube-corner diagonal cells (no owner; filled by convention).
  std::vector<std::vector<CornerCell>> corners_;

  /// recv_plan_[dst] = the neighbors dst receives from, ascending.
  std::vector<std::vector<Peer>> recv_plan_;
  /// send_plan_[src] = the same runs, indexed from the sender side.
  std::vector<std::vector<Peer>> send_plan_;

  /// Structured error unless every field has rank `rank`'s (ni, nj), a
  /// halo of at least width(), and (vector) u and v share one shape. Pack
  /// and unpack address memory through raw strides, so this guard stands
  /// in for per-element bounds checks.
  void check_fields(int rank, Kind kind, std::span<const FieldD* const> fields) const;

  grid::Partitioner part_;
  std::vector<grid::RankInfo> infos_;
  int width_;
  int num_threads_ = 1;
  /// pools_[r] is touched by one thread at a time (see BufferPool).
  mutable std::vector<BufferPool> pools_;
};

}  // namespace cyclone::comm
