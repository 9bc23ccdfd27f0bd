#pragma once

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "comm/faults.hpp"
#include "comm/simcomm.hpp"
#include "core/util/rng.hpp"

namespace cyclone::comm {

/// Concurrent point-to-point channel for the thread-per-rank runtime: the
/// same per-(src, dst, tag) FIFO mailboxes as SimComm, but guarded by a
/// mutex/condvar pair so `isend` is a true nonblocking post from any thread
/// and `recv` genuinely blocks until a matching message arrives.
///
/// Determinism: per-channel FIFO plus program-order sends means the n-th
/// recv on a channel always matches the n-th send on that channel, no matter
/// when either thread gets scheduled — the received *values* are a pure
/// function of the program. The optional arrival jitter exploits exactly
/// this: it perturbs *when* messages become visible (stress-testing every
/// interleaving the runtime can observe) without being able to change what
/// any recv returns.
class ConcurrentComm : public Comm {
 public:
  struct Options {
    /// How long a recv blocks before declaring a deadlock. Generous default:
    /// TSan and loaded CI machines run slowly, and a genuine deadlock is a
    /// program bug where an extra minute of latency is irrelevant.
    double recv_timeout_seconds = 120.0;
    /// Nonzero: each message becomes visible to recv only after a seeded
    /// pseudo-random delay in [0, arrival_jitter_max_us]. Randomizes the
    /// cross-channel arrival order while preserving per-channel FIFO.
    uint64_t arrival_jitter_seed = 0;
    int arrival_jitter_max_us = 200;
    /// Simulate interconnect cost: each message is additionally held back by
    /// the alpha-beta time of the network model (scaled by time_scale). Lets
    /// the weak-scaling bench put interconnect latency into a measured step
    /// without real hardware.
    bool simulate_network = false;
    NetworkModel network{};
    double network_time_scale = 1.0;
  };

  // Options is nested, so its default member initializers are only usable
  // once ConcurrentComm is complete — a `= Options()` default argument is
  // ill-formed here; delegate instead (inline bodies parse at end-of-class).
  explicit ConcurrentComm(int nranks) : ConcurrentComm(nranks, Options()) {}

  ConcurrentComm(int nranks, Options options)
      : nranks_(nranks), options_(options), jitter_rng_(options.arrival_jitter_seed) {
    CY_REQUIRE_MSG(nranks > 0, "need at least one rank");
    sent_bytes_per_rank_.assign(static_cast<size_t>(nranks), 0);
    sent_msgs_per_rank_.assign(static_cast<size_t>(nranks), 0);
  }

  [[nodiscard]] int nranks() const override { return nranks_; }

  /// Attach (or, with an inactive plan, detach) a fault plan. Subsequent
  /// sends carry a sequence number + checksum envelope and pass through the
  /// injector; recv runs the ack/retransmit protocol. Call only between
  /// steps — the channel must be drained.
  void set_fault_plan(const FaultPlan& plan) {
    std::lock_guard<std::mutex> lock(mutex_);
    injector_ = plan.active() ? std::make_unique<FaultInjector>(plan) : nullptr;
    reliable_.clear();
  }

  /// Nonblocking: posts the message (with its visibility time) and wakes any
  /// blocked receiver. Never waits, so a sender can stream its whole halo
  /// ring while the receivers are still computing.
  void isend(int src, int dst, int tag, std::vector<double> data) override {
    check_rank(src);
    check_rank(dst);
    const long bytes = static_cast<long>(data.size() * sizeof(double));
    auto ready = Clock::now();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (options_.arrival_jitter_seed != 0 && options_.arrival_jitter_max_us > 0) {
        const auto delay_us = static_cast<long>(
            jitter_rng_.next_below(static_cast<uint64_t>(options_.arrival_jitter_max_us) + 1));
        ready += std::chrono::microseconds(delay_us);
      }
      if (options_.simulate_network) {
        const double t = options_.network.time(1, bytes) * options_.network_time_scale;
        ready += std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(t));
      }
      total_messages_ += 1;
      total_bytes_ += bytes;
      sent_msgs_per_rank_[static_cast<size_t>(src)] += 1;
      sent_bytes_per_rank_[static_cast<size_t>(src)] += bytes;
      const Key key{src, dst, tag};
      if (!injector_) {
        mailboxes_[key].push_back(Message{std::move(data), ready, -1, 0});
      } else {
        isend_reliable(key, std::move(data), ready);
      }
    }
    cv_.notify_all();
  }

  /// Blocks until the FIFO head of (src, dst, tag) is visible, the channel
  /// is aborted, or the timeout expires. The timeout error carries the full
  /// pending-message snapshot — the concurrent analog of SimComm's deadlock
  /// error, with enough state to see which rank stopped sending.
  std::vector<double> recv(int dst, int src, int tag) override {
    check_rank(src);
    check_rank(dst);
    std::unique_lock<std::mutex> lock(mutex_);
    const auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(options_.recv_timeout_seconds));
    const Key key{src, dst, tag};
    if (injector_) return recv_reliable(lock, key, deadline);
    for (;;) {
      CY_REQUIRE_MSG(abort_reason_.empty(),
                     "recv(" << src << "->" << dst << " tag " << tag
                             << ") aborted: " << abort_reason_);
      auto it = mailboxes_.find(key);
      if (it != mailboxes_.end() && !it->second.empty()) {
        Message& head = it->second.front();
        if (head.ready <= Clock::now()) {
          std::vector<double> data = std::move(head.data);
          it->second.pop_front();
          if (it->second.empty()) mailboxes_.erase(it);
          return data;
        }
        // Head posted but still "in flight" (jitter / simulated network):
        // wait for its visibility time. No deadlock is possible here — the
        // message exists and will become visible.
        cv_.wait_until(lock, head.ready);
        continue;
      }
      // Channel empty: the timeout-bounded wait. Timing out with the channel
      // still empty is the concurrent analog of SimComm's deadlock.
      if (cv_.wait_until(lock, deadline) == std::cv_status::timeout) {
        it = mailboxes_.find(key);
        const bool arrived = it != mailboxes_.end() && !it->second.empty();
        CY_REQUIRE_MSG(arrived, "recv deadlock: no message from "
                                    << src << " to " << dst << " tag " << tag << " within "
                                    << options_.recv_timeout_seconds
                                    << "s; pending: " << describe_pending(pending_locked()));
      }
    }
  }

  [[nodiscard]] bool probe(int dst, int src, int tag) const override {
    std::lock_guard<std::mutex> lock(mutex_);
    return probe_locked({src, dst, tag});
  }

  [[nodiscard]] std::vector<PendingMessage> pending() const override {
    std::lock_guard<std::mutex> lock(mutex_);
    return pending_locked();
  }

  /// Wake every blocked recv with an error. Called by the runtime when one
  /// rank thread fails, so the remaining ranks do not block on messages that
  /// will never be sent. Concurrent aborts compose deterministically: the
  /// first reason wins the headline, later ones are appended — no report is
  /// ever dropped on the floor.
  void abort(const std::string& reason) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      const std::string& r = reason.empty() ? std::string("aborted") : reason;
      if (abort_reason_.empty()) {
        abort_reason_ = r;
      } else {
        abort_reason_ += "; also: " + r;
      }
    }
    cv_.notify_all();
  }

  /// True once abort() has been called (and not yet cleared by recovery).
  [[nodiscard]] bool aborted() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return !abort_reason_.empty();
  }

  /// Block until the channel is aborted (the hang fault: the rank goes
  /// silent and only "dies" when the health monitor tears the job down).
  /// Bounded by the recv timeout so a missing monitor cannot hang a test.
  void wait_aborted() {
    std::unique_lock<std::mutex> lock(mutex_);
    const auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(options_.recv_timeout_seconds));
    cv_.wait_until(lock, deadline, [&] { return !abort_reason_.empty(); });
  }

  /// Destroy wire copies whose sequence number the receiver already consumed
  /// (stale duplicates, or originals that arrived after a retransmit already
  /// served them). The runtime calls this at a step boundary before checking
  /// that the channel drained; without faults it is a no-op.
  void purge_acknowledged() {
    std::lock_guard<std::mutex> lock(mutex_);
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

  /// Reset transport state after a failed step so a rollback-restart begins
  /// from a clean channel: in-flight messages, sequence cursors and the
  /// abort flag are cleared. Reliability counters survive — they are part of
  /// the run's story, not of any one attempt.
  void reset_for_recovery() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      mailboxes_.clear();
      reliable_.clear();
      abort_reason_.clear();
    }
    cv_.notify_all();
  }

  [[nodiscard]] long total_messages() const override {
    std::lock_guard<std::mutex> lock(mutex_);
    return total_messages_;
  }
  [[nodiscard]] long total_bytes() const override {
    std::lock_guard<std::mutex> lock(mutex_);
    return total_bytes_;
  }
  [[nodiscard]] long messages_from(int rank) const override {
    check_rank(rank);
    std::lock_guard<std::mutex> lock(mutex_);
    return sent_msgs_per_rank_[static_cast<size_t>(rank)];
  }
  [[nodiscard]] long bytes_from(int rank) const override {
    check_rank(rank);
    std::lock_guard<std::mutex> lock(mutex_);
    return sent_bytes_per_rank_[static_cast<size_t>(rank)];
  }

  [[nodiscard]] ReliabilityCounters reliability() const override {
    std::lock_guard<std::mutex> lock(mutex_);
    return counters_;
  }

  void reset_counters() override {
    std::lock_guard<std::mutex> lock(mutex_);
    total_messages_ = 0;
    total_bytes_ = 0;
    sent_bytes_per_rank_.assign(sent_bytes_per_rank_.size(), 0);
    sent_msgs_per_rank_.assign(sent_msgs_per_rank_.size(), 0);
    counters_ = {};
  }

 private:
  using Clock = std::chrono::steady_clock;
  using Key = std::tuple<int, int, int>;
  struct Message {
    std::vector<double> data;
    Clock::time_point ready;  ///< when recv may observe it
    long seq = -1;            ///< -1: raw message (no fault plan attached)
    uint64_t checksum = 0;    ///< of the pristine payload
  };
  /// Reliable-delivery bookkeeping of one (src, dst, tag) channel. The recv
  /// cursor doubles as the ack stream: the sender prunes its retained log up
  /// to it on the next send.
  struct ChannelState {
    long next_send = 0;
    long next_recv = 0;
    std::deque<std::pair<long, std::vector<double>>> log;  ///< pristine copies
  };

  /// Sender half of the reliable protocol (mutex held): retain a pristine
  /// copy, prune acknowledged log entries, then let the injector decide the
  /// wire copy's fate.
  void isend_reliable(const Key& key, std::vector<double> data, Clock::time_point ready) {
    const auto [src, dst, tag] = key;
    ChannelState& cs = reliable_[key];
    const long seq = cs.next_send++;
    const uint64_t sum = payload_checksum(data);
    ++counters_.reliable_sends;
    cs.log.emplace_back(seq, data);  // retained for retransmission
    while (!cs.log.empty() && cs.log.front().first < cs.next_recv) cs.log.pop_front();
    const auto fate = injector_->fate(src, dst, tag, seq, 0, data.size());
    if (fate.drop) {
      ++counters_.drops_injected;
      return;  // the wire copy vanishes; recv will request a retransmit
    }
    if (fate.corrupt) {
      flip_payload_bit(data, fate.corrupt_word, fate.corrupt_bit);
      ++counters_.corrupts_injected;
    }
    if (fate.delay_us > 0) {
      ready += std::chrono::microseconds(fate.delay_us);
      ++counters_.delays_injected;
    }
    auto& q = mailboxes_[key];
    std::vector<double> dup;
    if (fate.duplicate) dup = data;  // duplicates the wire copy, corruption and all
    q.push_back(Message{std::move(data), ready, seq, sum});
    if (fate.duplicate) {
      ++counters_.dups_injected;
      q.push_back(Message{std::move(dup), ready, seq, sum});
    }
    if (fate.reorder && q.size() >= 2) {
      std::swap(q[q.size() - 1], q[q.size() - 2]);
      ++counters_.reorders_injected;
    }
  }

  /// One scan of the mailbox for the wanted sequence number (mutex held).
  /// Erases visible stale duplicates and corrupt copies as it goes; reports
  /// the earliest visibility time of any still-in-flight message so the
  /// caller can sleep precisely.
  std::optional<std::vector<double>> scan_reliable(const Key& key, ChannelState& cs,
                                                   Clock::time_point* earliest,
                                                   bool* has_in_flight) {
    auto it = mailboxes_.find(key);
    if (it == mailboxes_.end()) return std::nullopt;
    auto& q = it->second;
    const auto now = Clock::now();
    bool behind_younger = false;
    for (auto qi = q.begin(); qi != q.end();) {
      if (qi->ready > now) {  // still in flight; invisible to this scan
        if (!*has_in_flight || qi->ready < *earliest) *earliest = qi->ready;
        *has_in_flight = true;
        ++qi;
        continue;
      }
      if (qi->seq < cs.next_recv) {
        ++counters_.dups_dropped;
        qi = q.erase(qi);
        continue;
      }
      if (qi->seq == cs.next_recv) {
        if (payload_checksum(qi->data) == qi->checksum) {
          if (behind_younger) ++counters_.reorders_healed;
          std::vector<double> data = std::move(qi->data);
          q.erase(qi);
          if (q.empty()) mailboxes_.erase(it);
          return data;
        }
        ++counters_.corrupt_detected;
        qi = q.erase(qi);
        continue;
      }
      behind_younger = true;  // a younger message sits ahead of the wanted one
      ++qi;
    }
    if (q.empty()) mailboxes_.erase(it);
    return std::nullopt;
  }

  [[nodiscard]] const std::vector<double>* find_log_entry(const ChannelState& cs,
                                                          long seq) const {
    for (const auto& [s, data] : cs.log) {
      if (s == seq) return &data;
    }
    return nullptr;
  }

  /// Receiver half of the reliable protocol: deliver sequence numbers in
  /// order, suppressing duplicates, discarding corrupt copies, and — when
  /// the wanted message was sent but every wire copy is gone — requesting
  /// retransmits with exponential backoff and deterministic jitter. The
  /// delivered payload is always the pristine sent data, so recv's return
  /// sequence is identical to the fault-free run.
  std::vector<double> recv_reliable(std::unique_lock<std::mutex>& lock, const Key& key,
                                    Clock::time_point deadline) {
    const auto [src, dst, tag] = key;
    ChannelState& cs = reliable_[key];
    int attempt = 0;
    long backoff_us = injector_->plan().retry_base_us;
    for (;;) {
      CY_REQUIRE_MSG(abort_reason_.empty(),
                     "recv(" << src << "->" << dst << " tag " << tag
                             << ") aborted: " << abort_reason_);
      const long want = cs.next_recv;
      Clock::time_point in_flight{};
      bool has_in_flight = false;
      if (auto taken = scan_reliable(key, cs, &in_flight, &has_in_flight)) {
        ++cs.next_recv;
        return std::move(*taken);
      }
      if (has_in_flight) {  // a delayed/jittered copy exists: sleep until visible
        cv_.wait_until(lock, in_flight);
        continue;
      }
      if (cs.next_send > want) {
        // The message was posted but no wire copy survives: it was dropped or
        // corrupt-discarded. Back off, re-scan (it may have merely been slow),
        // then pull the pristine payload from the sender's retained log —
        // the retransmission — and roll the injector for *its* fate too.
        CY_REQUIRE_MSG(attempt < injector_->plan().max_retransmits,
                       "message " << src << "->" << dst << " tag " << tag << " seq " << want
                                  << " lost after " << attempt << " retransmits; pending: "
                                  << describe_pending(pending_locked()));
        cv_.wait_for(lock, std::chrono::microseconds(
                               backoff_us + injector_->backoff_jitter_us(want, attempt)));
        if (!abort_reason_.empty()) continue;  // top of loop raises the abort
        Clock::time_point t{};
        bool f = false;
        if (auto taken = scan_reliable(key, cs, &t, &f)) {
          ++cs.next_recv;
          return std::move(*taken);
        }
        ++attempt;
        ++counters_.retransmits;
        backoff_us = std::min<long>(backoff_us * 2, injector_->plan().retry_cap_us);
        const std::vector<double>* entry = find_log_entry(cs, want);
        CY_REQUIRE_MSG(entry != nullptr, "retransmit of " << src << "->" << dst << " tag " << tag
                                                          << " seq " << want
                                                          << " not in the send log");
        const auto fate = injector_->fate(src, dst, tag, want, attempt, entry->size());
        if (fate.drop) {
          ++counters_.drops_injected;
          continue;
        }
        if (fate.corrupt) {
          // The retransmitted copy is damaged in flight; the receiver's
          // checksum rejects it immediately and the loop backs off again.
          ++counters_.corrupts_injected;
          ++counters_.corrupt_detected;
          continue;
        }
        std::vector<double> data = *entry;  // retransmission delivered intact
        ++cs.next_recv;
        return data;
      }
      // Nothing sent yet on this channel: the ordinary timeout-bounded wait.
      if (cv_.wait_until(lock, deadline) == std::cv_status::timeout) {
        CY_REQUIRE_MSG(false, "recv deadlock: no message from "
                                  << src << " to " << dst << " tag " << tag << " within "
                                  << options_.recv_timeout_seconds
                                  << "s; pending: " << describe_pending(pending_locked()));
      }
    }
  }

  [[nodiscard]] bool probe_locked(const Key& key) const {
    auto it = mailboxes_.find(key);
    return it != mailboxes_.end() && !it->second.empty() &&
           it->second.front().ready <= Clock::now();
  }

  [[nodiscard]] std::vector<PendingMessage> pending_locked() const {
    std::vector<PendingMessage> out;
    for (const auto& [key, queue] : mailboxes_) {
      if (queue.empty()) continue;
      PendingMessage p;
      std::tie(p.src, p.dst, p.tag) = key;
      p.count = static_cast<long>(queue.size());
      for (const auto& msg : queue) p.bytes += static_cast<long>(msg.data.size() * sizeof(double));
      out.push_back(p);
    }
    return out;
  }

  int nranks_;
  Options options_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::map<Key, std::deque<Message>> mailboxes_;
  std::map<Key, ChannelState> reliable_;     ///< guarded by mutex_
  std::unique_ptr<FaultInjector> injector_;  ///< null = fault-free fast path
  ReliabilityCounters counters_;             ///< guarded by mutex_
  std::string abort_reason_;
  Rng jitter_rng_;  ///< guarded by mutex_
  long total_messages_ = 0;
  long total_bytes_ = 0;
  std::vector<long> sent_msgs_per_rank_;
  std::vector<long> sent_bytes_per_rank_;
};

}  // namespace cyclone::comm
