// Epoch-verified CAS and load for nonblocking Montage structures (paper
// §3.2/§3.3). cas_verify updates a 64-bit location only if the epoch clock
// still equals the operation's epoch, atomically — a variant of Harris et
// al.'s double-compare-single-swap built from in-word descriptors. The
// matching load helps any in-progress DCSS but performs no stores otherwise,
// so read-mostly workloads induce no extra cache evictions (paper
// load_verify2).
//
// A successful cas_verify linearizes at a moment when the clock held the
// operation's epoch, which gives the structure property 3 of §3.2: the
// operation linearizes in the epoch whose label its payloads carry.
//
// Descriptors are per-thread and reused; a use is identified by an even
// sequence number, and the decision word carries that sequence so a slow
// helper can never decide or complete a *later* use of the same descriptor.
// The word itself holds only the descriptor's address, which every use
// shares, so a helper's final CAS could also land on a later use; helpers
// therefore announce themselves, and the owner starts no new use while one
// that may have seen the finished use is still running.
#pragma once

#include <atomic>
#include <cstdint>
#include <thread>
#include <type_traits>

#include "montage/epoch_sys.hpp"
#include "util/padded.hpp"
#include "util/threadid.hpp"

namespace montage {

namespace dcss_detail {

enum : uint64_t { kUndecided = 0, kSucceeded = 1, kFailed = 2 };

struct alignas(util::kCacheLineSize) Descriptor {
  std::atomic<uint64_t> seq{0};      ///< odd while the owner (re)fills fields
  std::atomic<uint64_t> decision{0};  ///< (use_seq << 2) | outcome
  std::atomic<uint32_t> helpers{0};   ///< threads inside help() on this
  uint64_t expected_epoch = 0;
  uint64_t old_val = 0;
  uint64_t new_val = 0;
  const std::atomic<uint64_t>* clock = nullptr;
};

inline Descriptor& my_descriptor() {
  static Descriptor descs[util::ThreadIdPool::kMaxThreads];
  return descs[util::thread_id()];
}

constexpr uint64_t kMark = 1;
inline bool is_marked(uint64_t w) { return (w & kMark) != 0; }
inline uint64_t mark(Descriptor* d) {
  return reinterpret_cast<uint64_t>(d) | kMark;
}
inline Descriptor* unmark(uint64_t w) {
  return reinterpret_cast<Descriptor*>(w & ~kMark);
}

}  // namespace dcss_detail

/// A 64-bit atomic whose updates can be conditioned on the epoch clock.
/// T must fit in 63 bits of payload: pointers to 2-byte-or-more aligned
/// objects are stored as-is; integers are shifted left one bit.
template <typename T>
class AtomicVerifiable {
  static_assert(sizeof(T) <= 8);

 public:
  AtomicVerifiable() : word_(encode(T{})) {}
  explicit AtomicVerifiable(T v) : word_(encode(v)) {}

  /// Load that helps any in-progress DCSS first; no stores otherwise.
  T load() const {
    while (true) {
      const uint64_t w = word_.load(std::memory_order_acquire);
      if (!dcss_detail::is_marked(w)) return decode(w);
      help(w);
    }
  }

  /// Unconditional store (initialization / single-threaded paths only).
  void store(T v) { word_.store(encode(v), std::memory_order_release); }

  /// Plain CAS that helps descriptors (transient-mode structures).
  bool cas(T expected, T desired) {
    const uint64_t e = encode(expected);
    while (true) {
      uint64_t w = word_.load(std::memory_order_acquire);
      if (dcss_detail::is_marked(w)) {
        help(w);
        continue;
      }
      if (w != e) return false;
      if (word_.compare_exchange_weak(w, encode(desired),
                                      std::memory_order_acq_rel)) {
        return true;
      }
    }
  }

  /// CAS `expected` -> `desired` only if `esys`'s clock still equals the
  /// calling operation's epoch. Returns false on value mismatch; throws
  /// EpochVerifyException when the epoch moved (the caller rolls back and
  /// restarts in the new epoch, paper §3.3).
  bool cas_verify(EpochSys* esys, T expected, T desired) {
    using namespace dcss_detail;
    telemetry::count(telemetry::Ctr::kCasVerifyCalls);
    Descriptor& d = my_descriptor();
    const uint64_t expected_w = encode(expected);

    // Prepare under an odd sequence number so helpers never act on a
    // half-written snapshot, then go live with a fresh even number.
    d.seq.fetch_add(1, std::memory_order_acq_rel);  // -> odd
    d.old_val = expected_w;
    d.new_val = encode(desired);
    d.clock = &esys->epoch_clock();
    d.expected_epoch = esys->active_op_epoch();
    const uint64_t use = d.seq.load(std::memory_order_relaxed) + 1;  // even
    d.decision.store((use << 2) | kUndecided, std::memory_order_relaxed);
    d.seq.fetch_add(1, std::memory_order_acq_rel);  // -> even: live

    while (true) {
      uint64_t w = word_.load(std::memory_order_acquire);
      if (is_marked(w)) {
        telemetry::count(telemetry::Ctr::kCasVerifyRetries);
        help(w);
        continue;
      }
      if (w != expected_w) return false;
      if (word_.compare_exchange_weak(w, mark(&d),
                                      std::memory_order_acq_rel)) {
        break;
      }
      telemetry::count(telemetry::Ctr::kCasVerifyRetries);
    }
    complete(&d, use);
    // The word no longer holds this use's mark. A helper that read the mark
    // before that may still be about to CAS it; wait it out (a few atomic
    // steps unless it is descheduled), or its CAS could undo the next use
    // of this descriptor.
    while (d.helpers.load(std::memory_order_seq_cst) != 0) {
      std::this_thread::yield();
    }
    const uint64_t dec = d.decision.load(std::memory_order_acquire);
    // Only this thread advances the descriptor to its next use, so the
    // decision still belongs to `use` here.
    if ((dec & 3) == kFailed) {
      telemetry::count(telemetry::Ctr::kCasVerifyEpochFails);
      throw EpochVerifyException{};
    }
    return true;
  }

 private:
  static uint64_t encode(T v) {
    if constexpr (std::is_pointer_v<T>) {
      return reinterpret_cast<uint64_t>(v);
    } else {
      return static_cast<uint64_t>(v) << 1;  // keep the mark bit clear
    }
  }
  static T decode(uint64_t w) {
    if constexpr (std::is_pointer_v<T>) {
      return reinterpret_cast<T>(w);
    } else {
      return static_cast<T>(w >> 1);
    }
  }

  /// Finish the DCSS use `use` of `d` (ours or a peer's): decide the outcome
  /// from the epoch clock exactly once, then swing the word accordingly.
  void complete(dcss_detail::Descriptor* d, uint64_t use) const {
    using namespace dcss_detail;
    if (use % 2 != 0) return;  // owner mid-prepare; caller retries
    // Snapshot the fields, then confirm they belong to `use`.
    const uint64_t old_v = d->old_val;
    const uint64_t new_v = d->new_val;
    const std::atomic<uint64_t>* clock = d->clock;
    const uint64_t expected_epoch = d->expected_epoch;
    if (d->seq.load(std::memory_order_acquire) != use) return;

    uint64_t dec = d->decision.load(std::memory_order_acquire);
    if ((dec >> 2) != use) return;  // decision already moved to a later use
    if ((dec & 3) == kUndecided) {
      const bool ok =
          clock->load(std::memory_order_seq_cst) == expected_epoch;
      const uint64_t want = (use << 2) | (ok ? kSucceeded : kFailed);
      d->decision.compare_exchange_strong(dec, want,
                                          std::memory_order_acq_rel);
      dec = d->decision.load(std::memory_order_acquire);
      if ((dec >> 2) != use) return;
    }
    uint64_t expect = mark(d);
    word_.compare_exchange_strong(
        expect, (dec & 3) == kSucceeded ? new_v : old_v,
        std::memory_order_seq_cst);
  }

  void help(uint64_t w) const {
    using namespace dcss_detail;
    Descriptor* d = unmark(w);
    d->helpers.fetch_add(1, std::memory_order_seq_cst);
    // Still the mark after announcing: the owner has not yet finished the
    // use it belongs to, so it will wait for this helper before reusing d.
    if (word_.load(std::memory_order_seq_cst) == w) {
      complete(d, d->seq.load(std::memory_order_acquire));
    }
    d->helpers.fetch_sub(1, std::memory_order_seq_cst);
  }

  mutable std::atomic<uint64_t> word_;
};

}  // namespace montage
