#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "core/util/error.hpp"
#include "core/util/rng.hpp"

namespace cyclone::comm {

/// Deterministic fault-injection plan. Every decision — whether a given wire
/// message is dropped, duplicated, reordered, delayed or bit-flipped, and
/// whether a given rank crashes or hangs at a given step — is a pure function
/// of (seed, message identity) or (seed, rank, step), so any chaos run
/// replays bit-exactly from its logged seed: the same discipline the
/// verification harness applies to data seeds (DESIGN.md §6) applied to
/// failure.
///
/// Message faults act on the *wire copy* only; the reliable-delivery layer in
/// the channels (sequence numbers + checksums + ack/retransmit) absorbs them,
/// so every `recv` still returns the fault-free payload sequence and results
/// stay bitwise identical to an uninjected run. Crash/hang faults tear a rank
/// thread down mid-step; the runtime's checkpoint/rollback-restart recovers.
struct FaultPlan {
  uint64_t seed = 0;

  // --- Message faults (probabilities in [0, 1], evaluated per wire message).
  double drop_rate = 0.0;       ///< wire copy silently discarded
  double duplicate_rate = 0.0;  ///< a second wire copy is posted
  double reorder_rate = 0.0;    ///< message swapped behind the channel tail
  double corrupt_rate = 0.0;    ///< one random payload bit is flipped
  double delay_rate = 0.0;      ///< visibility delayed by a bounded time
  int delay_max_us = 500;

  // --- Retry/ack protocol knobs (receiver-driven retransmit).
  int retry_base_us = 200;    ///< first backoff before a retransmit request
  int retry_cap_us = 20000;   ///< exponential backoff ceiling
  int max_retransmits = 200;  ///< per message; beyond this the loss is fatal

  // --- Targeted rank failure (one-shot: a restarted rank is healthy).
  enum class Failure { None, Crash, Hang };
  Failure failure = Failure::None;
  int fail_rank = -1;     ///< rank to kill
  long fail_step = 0;     ///< step() index at which it dies
  int fail_at_state = 1;  ///< position in the flattened state order

  // --- Scope filters for message faults (negative = match anything).
  int only_src = -1;
  int only_tag = -1;

  [[nodiscard]] bool message_faults() const {
    return drop_rate > 0 || duplicate_rate > 0 || reorder_rate > 0 || corrupt_rate > 0 ||
           delay_rate > 0;
  }
  [[nodiscard]] bool active() const { return message_faults() || failure != Failure::None; }
};

/// Counters of the reliable-delivery layer and of the faults it absorbed.
/// `*_injected` count what the plan did to the wire; `retransmits`,
/// `corrupt_detected`, `dups_dropped` and `reorders_healed` count what the
/// protocol had to repair. All zero on a clean channel.
struct ReliabilityCounters {
  long reliable_sends = 0;    ///< logical messages sent with an envelope
  long retransmits = 0;       ///< retransmit requests served from the send log
  long corrupt_detected = 0;  ///< checksum mismatches discarded
  long dups_dropped = 0;      ///< stale sequence numbers suppressed
  long reorders_healed = 0;   ///< deliveries matched behind younger messages
  long drops_injected = 0;
  long dups_injected = 0;
  long reorders_injected = 0;
  long corrupts_injected = 0;
  long delays_injected = 0;

  [[nodiscard]] long faults_injected() const {
    return drops_injected + dups_injected + reorders_injected + corrupts_injected +
           delays_injected;
  }

  ReliabilityCounters& operator+=(const ReliabilityCounters& c) {
    reliable_sends += c.reliable_sends;
    retransmits += c.retransmits;
    corrupt_detected += c.corrupt_detected;
    dups_dropped += c.dups_dropped;
    reorders_healed += c.reorders_healed;
    drops_injected += c.drops_injected;
    dups_injected += c.dups_injected;
    reorders_injected += c.reorders_injected;
    corrupts_injected += c.corrupts_injected;
    delays_injected += c.delays_injected;
    return *this;
  }
};

/// FNV-1a over the payload's 64-bit patterns. Bitwise, not arithmetic: any
/// single flipped mantissa/exponent/sign bit changes the digest, which is
/// exactly what the corruption fault injects.
inline uint64_t payload_checksum(const std::vector<double>& data) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const double v : data) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    h ^= bits;
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Stateless-per-message fault oracle plus the one-shot rank-failure latch.
/// Wire decisions are derived by hashing the full message identity through
/// the plan seed, so they are independent of thread scheduling and of how
/// many times other channels were exercised.
class FaultInjector {
 public:
  explicit FaultInjector(const FaultPlan& plan) : plan_(plan) {}

  [[nodiscard]] const FaultPlan& plan() const { return plan_; }

  /// What happens to send attempt `attempt` (0 = the original transmission)
  /// of message `seq` on channel (src, dst, tag) with `words` payload words.
  struct WireFate {
    bool drop = false;
    bool duplicate = false;
    bool reorder = false;
    bool corrupt = false;
    size_t corrupt_word = 0;
    int corrupt_bit = 0;
    long delay_us = 0;
  };

  [[nodiscard]] WireFate fate(int src, int dst, int tag, long seq, int attempt,
                              size_t words) const {
    WireFate f;
    if (plan_.only_src >= 0 && src != plan_.only_src) return f;
    if (plan_.only_tag >= 0 && tag != plan_.only_tag) return f;
    const uint64_t channel = Rng::mix(plan_.seed, (static_cast<uint64_t>(src) << 40) ^
                                                      (static_cast<uint64_t>(dst) << 20) ^
                                                      static_cast<uint64_t>(tag));
    Rng rng = Rng::derive(Rng::mix(channel, static_cast<uint64_t>(seq)),
                          static_cast<uint64_t>(attempt));
    f.drop = rng.next_double() < plan_.drop_rate;
    f.duplicate = rng.next_double() < plan_.duplicate_rate;
    f.reorder = rng.next_double() < plan_.reorder_rate;
    f.corrupt = rng.next_double() < plan_.corrupt_rate;
    if (rng.next_double() < plan_.delay_rate) {
      f.delay_us = static_cast<long>(rng.next_below(static_cast<uint64_t>(plan_.delay_max_us) + 1));
    }
    if (f.corrupt && words > 0) {
      f.corrupt_word = static_cast<size_t>(rng.next_below(words));
      f.corrupt_bit = static_cast<int>(rng.next_below(64));
    }
    return f;
  }

  /// Deterministic backoff jitter for retransmit attempt `attempt` of `seq`.
  [[nodiscard]] long backoff_jitter_us(long seq, int attempt) const {
    Rng rng = Rng::derive(Rng::mix(plan_.seed ^ 0xBACC0FFull, static_cast<uint64_t>(seq)),
                          static_cast<uint64_t>(attempt));
    return static_cast<long>(rng.next_below(static_cast<uint64_t>(plan_.retry_base_us) + 1));
  }

  /// One-shot: true exactly once, for the planned rank/step/state position.
  /// A restarted rank re-reaches the same step without re-dying — the model
  /// of a job scheduler replacing a failed node with a healthy one.
  [[nodiscard]] bool should_fail(int rank, long step, int state_pos) {
    if (plan_.failure == FaultPlan::Failure::None) return false;
    // Filter on the (immutable) plan before touching the latch: only the
    // failing rank's thread ever reads or writes fired_, so rank threads
    // polling this concurrently stay race-free.
    if (rank != plan_.fail_rank || step != plan_.fail_step) return false;
    if (state_pos != plan_.fail_at_state) return false;
    if (fired_) return false;
    fired_ = true;
    return true;
  }

  /// Reset the one-shot latch (a fresh chaos run on a reused runtime).
  void rearm() { fired_ = false; }

 private:
  FaultPlan plan_;
  bool fired_ = false;  ///< touched only by the failing rank's thread
};

/// Flip one bit of one payload word in place (the corruption fault).
inline void flip_payload_bit(std::vector<double>& data, size_t word, int bit) {
  if (data.empty()) return;
  word %= data.size();
  uint64_t bits;
  std::memcpy(&bits, &data[word], sizeof bits);
  bits ^= (1ull << (bit & 63));
  std::memcpy(&data[word], &bits, sizeof bits);
}

/// Human-readable one-liner of a plan ("drop=0.25 crash(r1@s2) seed=0x2a").
std::string describe_plan(const FaultPlan& plan);

/// Re-key a fault plan for a new roster size after an elastic resize
/// (DESIGN.md §14). Message-fault rates and the seed carry over unchanged —
/// chaos stays armed across membership changes — but rank-scoped fields are
/// remapped: `fail_rank` and `only_src` wrap modulo the new roster so a
/// targeted fault keeps naming a live rank. When `clear_failure` is set the
/// one-shot crash/hang is dropped entirely; the elastic layer passes true
/// once the latch has fired, mirroring FaultInjector's "a restarted rank is
/// healthy" rule for rosters rebuilt after the death was honored.
FaultPlan rekey_plan(FaultPlan plan, int new_nranks, bool clear_failure);

}  // namespace cyclone::comm
