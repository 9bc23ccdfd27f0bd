#pragma once

#include <deque>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "comm/faults.hpp"
#include "core/util/error.hpp"

namespace cyclone::comm {

/// Snapshot of one non-empty (src, dst, tag) mailbox: how many messages and
/// payload bytes sit unconsumed on that channel. Surfaced in drain checks and
/// deadlock errors so a distributed failure names the channels involved
/// instead of just "a message was left over".
struct PendingMessage {
  int src = 0;
  int dst = 0;
  int tag = 0;
  long count = 0;  ///< queued messages on this channel
  long bytes = 0;  ///< total queued payload bytes
};

/// Render a pending-message set for error text: "(src->dst tag t: n msgs,
/// b bytes), ...". Caps the listing so a pathological state stays readable.
inline std::string describe_pending(const std::vector<PendingMessage>& pending) {
  if (pending.empty()) return "none";
  std::ostringstream os;
  constexpr size_t kMaxListed = 16;
  for (size_t i = 0; i < pending.size() && i < kMaxListed; ++i) {
    const PendingMessage& p = pending[i];
    if (i) os << ", ";
    os << "(" << p.src << "->" << p.dst << " tag " << p.tag << ": " << p.count << " msg, "
       << p.bytes << " B)";
  }
  if (pending.size() > kMaxListed) os << ", ... " << pending.size() - kMaxListed << " more";
  return os.str();
}

/// Point-to-point message layer the halo updater and the distributed runtime
/// talk to. Two implementations exist: SimComm (below), the sequential
/// phase-based mailbox used by the lockstep scheduler, and ConcurrentComm
/// (channel.hpp), a mutex/condvar channel for thread-per-rank execution.
///
/// Both promise per-(src, dst, tag) FIFO delivery — MPI's non-overtaking
/// rule. Senders post in program order, so message *matching* is a pure
/// function of the program, independent of delivery timing; that is the
/// property that makes every received value (and hence the whole concurrent
/// runtime) bitwise deterministic.
class Comm {
 public:
  virtual ~Comm() = default;

  [[nodiscard]] virtual int nranks() const = 0;

  /// Nonblocking send: the payload is handed to the channel immediately.
  virtual void isend(int src, int dst, int tag, std::vector<double> data) = 0;

  /// Receive the next message matched by (src, dst, tag). SimComm throws if
  /// none is pending (a deadlock under the phase-based scheduler);
  /// ConcurrentComm blocks until one arrives or a timeout expires.
  virtual std::vector<double> recv(int dst, int src, int tag) = 0;

  /// True if a matching message is pending. Inherently racy under
  /// concurrency; useful for tests and polling loops only.
  [[nodiscard]] virtual bool probe(int dst, int src, int tag) const = 0;

  /// Snapshot of every non-empty mailbox.
  [[nodiscard]] virtual std::vector<PendingMessage> pending() const = 0;

  [[nodiscard]] virtual long total_messages() const = 0;
  [[nodiscard]] virtual long total_bytes() const = 0;
  [[nodiscard]] virtual long messages_from(int rank) const = 0;
  [[nodiscard]] virtual long bytes_from(int rank) const = 0;
  virtual void reset_counters() = 0;

  /// Reliable-delivery / fault-absorption counters. All zero on a channel
  /// without an attached fault plan (the default).
  [[nodiscard]] virtual ReliabilityCounters reliability() const { return {}; }

  /// No message may be left unconsumed at the end of a phase.
  [[nodiscard]] bool all_drained() const { return pending().empty(); }

  /// Throws if any mailbox is non-empty, listing exactly which (src, dst,
  /// tag) channels were left with messages.
  void assert_drained() const {
    const auto left = pending();
    CY_REQUIRE_MSG(left.empty(),
                   "comm not drained: " << left.size()
                                        << " mailbox(es) left non-empty: " << describe_pending(left));
  }

 protected:
  void check_rank(int r) const {
    CY_REQUIRE_MSG(r >= 0 && r < nranks(), "rank " << r << " out of range");
  }
};

/// In-process stand-in for the MPI point-to-point layer: ranks exchange
/// messages through per-(src, dst, tag) FIFO mailboxes. Because the rank
/// scheduler is phase-based (all ranks post their sends before any rank
/// waits), nonblocking semantics are preserved deterministically. Message
/// and byte counters feed the network cost model for distributed timing.
///
/// Not thread-safe by design — it is the sequential reference the concurrent
/// channel is verified against.
///
/// With a fault plan attached (set_fault_plan), sends pass through the
/// injector and carry a sequence number + checksum envelope; recv suppresses
/// duplicates, heals reordering, discards corrupt payloads and serves lost
/// messages from the retained send log (the sequential scheduler's idealized
/// synchronous retransmit — one retry always succeeds). The values recv
/// returns are therefore identical to the fault-free run. Without a plan the
/// original zero-copy path runs unchanged, and a mailbox, once made, lives
/// as long as the communicator: tags are fixed, so the (src, dst, tag) key
/// space is bounded and steady-state messages allocate no mailbox.
class SimComm : public Comm {
 public:
  explicit SimComm(int nranks) : nranks_(nranks) {
    CY_REQUIRE_MSG(nranks > 0, "need at least one rank");
    sent_bytes_per_rank_.assign(static_cast<size_t>(nranks), 0);
    sent_msgs_per_rank_.assign(static_cast<size_t>(nranks), 0);
  }

  [[nodiscard]] int nranks() const override { return nranks_; }

  /// Attach a fault plan; message faults start applying to subsequent sends.
  void set_fault_plan(const FaultPlan& plan) {
    injector_ = plan.active() ? std::make_unique<FaultInjector>(plan) : nullptr;
    reliable_.clear();
  }

  /// Nonblocking send: the payload is moved into the mailbox immediately.
  void isend(int src, int dst, int tag, std::vector<double> data) override {
    check_rank(src);
    check_rank(dst);
    total_messages_ += 1;
    total_bytes_ += static_cast<long>(data.size() * sizeof(double));
    sent_msgs_per_rank_[static_cast<size_t>(src)] += 1;
    sent_bytes_per_rank_[static_cast<size_t>(src)] +=
        static_cast<long>(data.size() * sizeof(double));
    const Key key{src, dst, tag};
    if (!injector_) {
      mailboxes_[key].push_back(Msg{std::move(data), -1, 0});
      return;
    }
    ChannelState& cs = reliable_[key];
    const long seq = cs.next_send++;
    const uint64_t sum = payload_checksum(data);
    ++counters_.reliable_sends;
    cs.log.emplace_back(seq, data);  // pristine retained copy ("send buffer")
    while (!cs.log.empty() && cs.log.front().first < cs.next_recv) cs.log.pop_front();
    const auto fate = injector_->fate(src, dst, tag, seq, 0, data.size());
    if (fate.drop) {
      ++counters_.drops_injected;
      return;  // the wire copy vanishes; recv will serve from the log
    }
    if (fate.corrupt) {
      flip_payload_bit(data, fate.corrupt_word, fate.corrupt_bit);
      ++counters_.corrupts_injected;
    }
    auto& q = mailboxes_[key];
    std::vector<double> dup;
    if (fate.duplicate) dup = data;
    q.push_back(Msg{std::move(data), seq, sum});
    if (fate.duplicate) {
      ++counters_.dups_injected;
      q.push_back(Msg{std::move(dup), seq, sum});
    }
    if (fate.reorder && q.size() >= 2) {
      std::swap(q[q.size() - 1], q[q.size() - 2]);
      ++counters_.reorders_injected;
    }
  }

  /// Blocking receive matched by (src, dst, tag); throws if no message is
  /// pending (a deadlock under the phase-based scheduler — always a bug).
  /// The error lists what *is* pending, so a mismatched tag or a send posted
  /// to the wrong destination is visible directly in the message.
  std::vector<double> recv(int dst, int src, int tag) override {
    check_rank(src);
    check_rank(dst);
    const Key key{src, dst, tag};
    auto it = mailboxes_.find(key);
    if (!injector_) {
      CY_REQUIRE_MSG(it != mailboxes_.end() && !it->second.empty(),
                     "recv would deadlock: no message from " << src << " to " << dst << " tag "
                                                             << tag << "; pending: "
                                                             << describe_pending(pending()));
      std::vector<double> data = std::move(it->second.front().data);
      it->second.pop_front();
      return data;
    }
    ChannelState& cs = reliable_[key];
    const long want = cs.next_recv;
    if (it != mailboxes_.end()) {
      auto& q = it->second;
      for (auto qi = q.begin(); qi != q.end();) {
        if (qi->seq < want) {
          ++counters_.dups_dropped;
          qi = q.erase(qi);
          continue;
        }
        if (qi->seq == want) {
          if (payload_checksum(qi->data) == qi->checksum) {
            if (qi != q.begin()) ++counters_.reorders_healed;
            std::vector<double> data = std::move(qi->data);
            q.erase(qi);
            if (q.empty()) mailboxes_.erase(it);
            ++cs.next_recv;
            return data;
          }
          ++counters_.corrupt_detected;
          qi = q.erase(qi);
          continue;
        }
        ++qi;
      }
      if (q.empty()) mailboxes_.erase(it);
    }
    if (cs.next_send > want) {
      // The message was posted but its wire copies are gone (dropped or
      // corrupt-discarded): serve the pristine payload from the send log.
      ++counters_.retransmits;
      for (const auto& [seq, data] : cs.log) {
        if (seq == want) {
          ++cs.next_recv;
          return data;
        }
      }
      std::ostringstream os;
      os << "retransmit of " << src << "->" << dst << " tag " << tag << " seq " << want
         << " not in the send log (window overrun)";
      detail::fail("invariant", "reliable recv", __FILE__, __LINE__, os.str());
    }
    std::ostringstream os;
    os << "recv would deadlock: no message from " << src << " to " << dst << " tag " << tag
       << "; pending: " << describe_pending(pending());
    detail::fail("precondition", "message available", __FILE__, __LINE__, os.str());
  }

  /// True if a matching message is pending.
  [[nodiscard]] bool probe(int dst, int src, int tag) const override {
    auto it = mailboxes_.find({src, dst, tag});
    return it != mailboxes_.end() && !it->second.empty();
  }

  [[nodiscard]] std::vector<PendingMessage> pending() const override {
    std::vector<PendingMessage> out;
    for (const auto& [key, queue] : mailboxes_) {
      if (queue.empty()) continue;
      PendingMessage p;
      std::tie(p.src, p.dst, p.tag) = key;
      p.count = static_cast<long>(queue.size());
      for (const auto& msg : queue) {
        p.bytes += static_cast<long>(msg.data.size() * sizeof(double));
      }
      out.push_back(p);
    }
    return out;
  }

  /// Destroy messages whose sequence number the receiver already consumed
  /// (stale duplicates / late originals healed by a retransmit). Call at a
  /// phase boundary before assert_drained when faults are active.
  void purge_acknowledged() {
    if (!injector_) return;
    for (auto it = mailboxes_.begin(); it != mailboxes_.end();) {
      const auto rs = reliable_.find(it->first);
      const long cursor = rs == reliable_.end() ? 0 : rs->second.next_recv;
      auto& q = it->second;
      for (auto qi = q.begin(); qi != q.end();) {
        if (qi->seq >= 0 && qi->seq < cursor) {
          ++counters_.dups_dropped;
          qi = q.erase(qi);
        } else {
          ++qi;
        }
      }
      it = q.empty() ? mailboxes_.erase(it) : std::next(it);
    }
  }

  /// Mailboxes that exist, empty ones included. Exposed for tests.
  [[nodiscard]] size_t mailbox_count() const { return mailboxes_.size(); }

  [[nodiscard]] long total_messages() const override { return total_messages_; }
  [[nodiscard]] long total_bytes() const override { return total_bytes_; }
  [[nodiscard]] long messages_from(int rank) const override {
    return sent_msgs_per_rank_[static_cast<size_t>(rank)];
  }
  [[nodiscard]] long bytes_from(int rank) const override {
    return sent_bytes_per_rank_[static_cast<size_t>(rank)];
  }
  [[nodiscard]] ReliabilityCounters reliability() const override { return counters_; }

  void reset_counters() override {
    total_messages_ = 0;
    total_bytes_ = 0;
    sent_bytes_per_rank_.assign(sent_bytes_per_rank_.size(), 0);
    sent_msgs_per_rank_.assign(sent_msgs_per_rank_.size(), 0);
    counters_ = {};
  }

 private:
  using Key = std::tuple<int, int, int>;
  struct Msg {
    std::vector<double> data;
    long seq = -1;          ///< -1: raw message (no fault plan attached)
    uint64_t checksum = 0;  ///< of the pristine payload
  };
  /// Reliable-delivery bookkeeping of one (src, dst, tag) channel. The recv
  /// cursor doubles as the ack stream: the sender prunes its log up to it.
  struct ChannelState {
    long next_send = 0;
    long next_recv = 0;
    std::deque<std::pair<long, std::vector<double>>> log;
  };

  int nranks_;
  std::map<Key, std::deque<Msg>> mailboxes_;
  std::map<Key, ChannelState> reliable_;
  std::unique_ptr<FaultInjector> injector_;
  ReliabilityCounters counters_;
  long total_messages_ = 0;
  long total_bytes_ = 0;
  std::vector<long> sent_msgs_per_rank_;
  std::vector<long> sent_bytes_per_rank_;
};

/// Alpha-beta cost model of the interconnect (Aries-like defaults), used to
/// convert exchange statistics into simulated communication time.
struct NetworkModel {
  double latency = 1.8e-6;      ///< per message [s]
  double bandwidth = 9.5e9;     ///< per link [B/s]

  [[nodiscard]] double time(long messages, long bytes) const {
    return latency * static_cast<double>(messages) +
           static_cast<double>(bytes) / bandwidth;
  }
};

}  // namespace cyclone::comm
