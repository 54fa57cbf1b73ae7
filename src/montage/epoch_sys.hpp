// EpochSys: Montage's epoch-based buffered-persistence engine (paper §3, §5).
//
// Execution is divided into epochs by a global clock. All payloads created or
// modified by an operation are labeled with the operation's epoch; payloads
// of epoch e become durable, together, when the clock ticks from e+1 to e+2.
// A crash in epoch e therefore loses epochs e and e-1 but recovers everything
// older — buffered durable linearizability.
//
// Per thread, EpochSys keeps four to_persist write-back buffers and four
// to_free reclamation lists, indexed by epoch mod 4 (only the most recent
// 2-3 epochs are ever populated). The write-back buffers are bounded rings:
// on overflow the oldest entry is written back incrementally, which the
// paper found essential for keeping a single background advancer thread
// viable (§5.2).
//
// The epoch-advancing step at the end of epoch e:
//   1. waits until no operation is active in epoch e-1;
//   2. writes back every payload created/modified in e-1 and fences;
//   3. reclaims to_free[e-2]: invalidates block headers persistently and
//      returns the blocks to Ralloc;
//   4. increments the (persistent) epoch clock and writes it back.
//
// The advance itself is cooperative and advancer-free (DESIGN.md §12): any
// thread may perform steps 1-4, and the clock tick in step 4 is a CAS, so
// concurrent advancers serialize on the clock word rather than on a lock.
// The background advancer thread is only a pacing hint — when it dies,
// workers notice the lagging clock on their next begin_op and tick it
// themselves, and sync() drives its own advances, so killing the advancer
// never degrades liveness.
//
// A liveness layer (DESIGN.md §8) keeps this pipeline making progress under
// execution faults: operations stalled past Options::op_deadline_ns are
// adopted (rolled back and their buffers persisted) by whoever is advancing
// the clock, a staleness watchdog raises a telemetry alarm, transient
// device errors (nvm::IoError) are retried with exponential backoff before
// surfacing as PersistError, and allocation failure triggers an emergency
// advance-and-reclaim pass before giving up with std::bad_alloc.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "montage/pblk.hpp"
#include "ralloc/ralloc.hpp"
#include "util/padded.hpp"
#include "util/telemetry.hpp"
#include "util/threadid.hpp"

namespace montage {

/// Raised when an operation in epoch e reads a payload created in a later
/// epoch (paper §3.2): the reader must restart in the newer epoch (or use
/// get_unsafe_* when the value is only a performance hint).
struct OldSeeNewException : public std::exception {
  /// Human-readable reason (std::exception interface).
  const char* what() const noexcept override {
    return "montage: operation observed a payload from a newer epoch";
  }
};

/// Raised by CHECK_EPOCH / CAS_verify when the epoch advanced mid-operation.
struct EpochVerifyException : public std::exception {
  /// Human-readable reason (std::exception interface).
  const char* what() const noexcept override {
    return "montage: epoch advanced during the operation";
  }
};

/// Raised on a resurrected thread: while it was stalled past
/// Options::op_deadline_ns, the epoch advancer adopted (aborted and rolled
/// back) its in-flight operation. Derives from EpochVerifyException because
/// the correct reaction is the same — the operation did not happen; restart
/// it in the current epoch.
struct OrphanedOperationException : public EpochVerifyException {
  /// Human-readable reason (std::exception interface).
  const char* what() const noexcept override {
    return "montage: operation was adopted by the advancer while stalled";
  }
};

/// A write-back kept failing (injected EIO, device error) past the retry
/// budget (Options::wb_max_retries). The epoch system remains usable; the
/// failing payloads stay queued and are retried at the next epoch boundary.
struct PersistError : public std::runtime_error {
  /// `attempts_` = persist attempts made before the budget ran out.
  explicit PersistError(uint64_t attempts_)
      : std::runtime_error(
            "montage: write-back failed after retries (transient I/O error "
            "did not clear)"),
        attempts(attempts_) {}
  uint64_t attempts;  ///< persist attempts made before giving up
};

/// What recovery found and what it had to discard, quarantine, or salvage,
/// returned alongside the survivor list by EpochSys::recover(). A recovery
/// that quarantines blocks still succeeds — corruption degrades capacity,
/// never availability.
struct RecoveryReport {
  std::size_t recovered = 0;             ///< surviving payloads handed back
  std::size_t discarded_late_epoch = 0;  ///< rolled back: epoch in {e, e-1}
  std::size_t quarantined_corrupt = 0;   ///< torn size or failed checksum
  std::size_t salvaged_superblocks = 0;  ///< allocator slots salvaged around
  uint64_t crash_epoch = 0;   ///< epoch clock found in the crash image
  uint64_t cutoff_epoch = 0;  ///< greatest epoch recovery keeps (crash - 2)
};

/// Write-back policies (paper Fig. 4/5/9 design space).
enum class WriteBack {
  kBuffered,   ///< per-thread circular buffer, background write-back ("cb")
  kPerOp,      ///< flush every written payload at END_OP ("dw", Fig. 9)
  kImmediate,  ///< flush right at each set/PNEW ("DirWB", Fig. 4/5)
};

class EpochSys {
 public:
  struct Options {
    int max_threads = util::ThreadIdPool::kMaxThreads;
    std::size_t buffer_capacity = 64;  ///< to_persist ring size; 0 = unbounded
    uint64_t epoch_length_ns = 10'000'000;  ///< 10 ms, the paper's default
    /// Run the background epoch advancer. It is a pacing hint only: workers
    /// that observe the clock lagging a full epoch_length_ns while no
    /// advancer thread is alive tick it cooperatively from begin_op
    /// (DESIGN.md §12). Without it (false) the clock is driven manually
    /// (advance_epoch / sync), which is what deterministic tests rely on.
    bool start_advancer = true;
    WriteBack write_back = WriteBack::kBuffered;
    bool local_free = false;   ///< workers reclaim their own to_free lists
    bool direct_free = false;  ///< UNSAFE, bench-only: reclaim immediately
    bool transient = false;    ///< Montage(T): payloads in NVM, no persistence

    // ---- liveness layer (DESIGN.md §8) ----
    /// Adopt (abort + help-persist) an operation stalled longer than this;
    /// 0 = never adopt. Env MONTAGE_STALL_DEADLINE_MS overrides.
    uint64_t op_deadline_ns = 0;
    /// Workers treat the clock as stale — raising a telemetry alarm
    /// (epoch.watchdog_alarms) and driving a cooperative advance — after
    /// this long without a tick; 0 = derive 10x epoch_length_ns. Env
    /// MONTAGE_STALL_WATCHDOG_MS overrides. Only active when start_advancer
    /// is set (manual-clock configurations drive the epoch themselves).
    uint64_t watchdog_ns = 0;
    /// Transient write-back failures (nvm::IoError) are retried this many
    /// times, with exponential backoff starting at wb_backoff_ns, before a
    /// PersistError is raised.
    uint64_t wb_max_retries = 8;
    uint64_t wb_backoff_ns = 1'000;
  };

  /// Sentinel for the deadline-taking entry points: wait forever.
  static constexpr uint64_t kNoDeadline = ~0ull;

  /// Builds on `ral` (which manages the NVM region). `recover` selects
  /// whether the persistent epoch clock is formatted or resumed.
  EpochSys(ralloc::Ralloc* ral, const Options& opts, bool recover = false);
  /// Stops the advancer and releases the process-default slot if held.
  ~EpochSys();
  EpochSys(const EpochSys&) = delete;
  EpochSys& operator=(const EpochSys&) = delete;

  // ---- operation lifecycle -------------------------------------------------

  /// Register the calling thread as active in the current epoch. Returns the
  /// operation's epoch. Lock-free: retries only when the epoch advances.
  uint64_t begin_op();
  /// Commit the calling thread's active operation: perform any per-op
  /// write-back policy work and release the operation-tracker slot.
  void end_op();
  /// Roll back the calling thread's active operation after it threw: every
  /// payload the operation allocated is dead-marked (DRAM only — an aborted
  /// epoch-e block can never survive a crash, since e > cutoff whenever the
  /// crash happens) and withdrawn from the write-back ring, and pdelete
  /// requests queued by the operation are cancelled. Issues no persist or
  /// fence events and never throws, so it is safe during stack unwinding —
  /// including unwinding a CrashPointException. No-op when no operation is
  /// active.
  void abort_op() noexcept;
  /// True while the calling thread has an operation open.
  bool in_op() const;
  /// True iff the clock still equals the active operation's epoch.
  bool check_epoch() const;
  /// Throwing form of check_epoch (paper's CHECK_EPOCH).
  void check_epoch_or_throw() const {
    if (!check_epoch()) throw EpochVerifyException{};
  }

  // ---- payload management --------------------------------------------------

  /// Allocate and construct a payload. May be called before begin_op; such
  /// payloads are labeled when the operation begins (paper §3.1).
  template <typename T, typename... Args>
  T* pnew(Args&&... args) {
    static_assert(std::is_base_of_v<PBlk, T>);
    static_assert(std::is_trivially_copyable_v<T>,
                  "Montage payloads must be trivially copyable");
    void* mem = allocate_payload(sizeof(T));
    T* obj = new (mem) T(std::forward<Args>(args)...);
    try {
      init_new_block(obj, sizeof(T));
    } catch (...) {
      // Never registered anywhere: return the raw block (header was never
      // sealed or persisted, so recovery cannot see it either).
      ral_->deallocate(mem);
      throw;
    }
    return obj;
  }

  /// Delete a payload (creates an anti-payload when needed). Must be called
  /// within an operation.
  void pdelete(PBlk* p);

  /// Called by set_* field methods: returns `p` if it may be modified in
  /// place (created in this epoch), else a clone labeled with the current
  /// epoch; the old version is queued for deferred reclamation. The caller
  /// must swing every pointer to the old payload to the returned one.
  PBlk* ensure_writable(PBlk* p);

  /// Called by set_* after the field write: queues (or directly performs)
  /// the write-back of `p`.
  void register_write(PBlk* p);

  /// Throw OldSeeNewException if `p` was created in a later epoch than the
  /// running operation.
  void osn_check(const PBlk* p) const {
    const ThreadData& td = my_td();
    if (td.in_op && p->epoch_ > td.op_epoch) {
      telemetry::count(telemetry::Ctr::kOsnExceptions);
      throw OldSeeNewException{};
    }
  }

  // ---- persistence control --------------------------------------------------

  /// Block until everything the calling thread has done is durable. A
  /// bounded helping protocol (DESIGN.md §12): vacuum the caller's own
  /// pending payloads, help write back peers' buffers, and drive at most
  /// two cooperative epoch advances — never waits on the background
  /// advancer, so its latency is bounded by the advance pipeline itself
  /// (plus the adoption deadline when a peer is wedged mid-operation).
  /// Must not be called inside an operation.
  void sync();

  /// Bounded sync: as sync(), but gives up after `deadline_ns` (relative)
  /// and returns false if durability was not reached — e.g. a peer is
  /// wedged mid-operation and adoption is disabled or has not fired yet.
  /// kNoDeadline waits forever (equivalent to sync()).
  bool sync_for(uint64_t deadline_ns);

  /// Advance the epoch once. Safe to call from any thread at any time: the
  /// tick commits with a CAS on the clock word, so concurrent advances
  /// collapse into one (a lost CAS means someone else's tick served us).
  void advance_epoch();

  /// Current value of the global epoch clock.
  uint64_t current_epoch() const {
    return clock_->load(std::memory_order_acquire);
  }
  /// Direct reference to the (persistent) epoch clock word, for DCSS.
  const std::atomic<uint64_t>& epoch_clock() const { return *clock_; }
  /// Epoch of the calling thread's active operation (kNoEpoch if none).
  uint64_t active_op_epoch() const { return my_td().op_epoch; }
  /// Epochs <= this value are durable. Computed from the *durable* clock —
  /// the highest clock value known persisted AND fenced — not the DRAM
  /// clock: with cooperative advance, a peer may publish a tick in DRAM and
  /// stall (e.g. get preempted) before persisting it, and acting on that
  /// tick as if it were durable would ACK writes a crash can still lose.
  uint64_t persisted_frontier() const {
    return durable_clock_.load(std::memory_order_acquire) - 2;
  }

  // ---- advancer lifecycle ----------------------------------------------------

  /// Stop the background advancer and join its thread. Idempotent and
  /// thread-safe: double stops, stop-before-start, and stops racing a
  /// start are all harmless.
  void stop_advancer();

  /// (Re)start the background advancer. Reaps a dead advancer body first;
  /// a no-op when one is already running or the EpochSys is shutting down.
  void start_advancer();

  /// True while the advancer loop is live (its thread has not exited).
  bool advancer_alive() const {
    return advancer_running_.load(std::memory_order_acquire);
  }

  /// TEST ONLY: make the advancer thread exit abruptly at its next wake-up,
  /// as if it had been killed — no cleanup, stop flag untouched. Used to
  /// exercise cooperative advance deterministically.
  void inject_advancer_kill();

  /// Operations adopted from stalled threads since construction.
  uint64_t adopted_op_count() const {
    return adopted_ops_.load(std::memory_order_relaxed);
  }
  /// True iff the calling thread's most recent operation was adopted (its
  /// effects were rolled back) rather than committed.
  bool last_op_adopted() const { return my_td().last_op_adopted; }

  // ---- recovery --------------------------------------------------------------

  /// Rebuild from the region after a crash: peruse all blocks via Ralloc,
  /// keep payloads labeled <= crash_epoch - 2, resolve uid conflicts (keep
  /// the newest version; a DELETE nullifies), reclaim the rest, and return
  /// the surviving payloads. The structure's own recovery routine consumes
  /// the result (filtered by blk_tag for multi-structure regions).
  std::vector<PBlk*> recover(int nthreads = 1);

  /// Counters from the most recent recover() call on this instance.
  const RecoveryReport& last_recovery_report() const {
    return last_recovery_report_;
  }

  /// The allocator this EpochSys was built on.
  ralloc::Ralloc* ralloc() const { return ral_; }
  /// Effective options (env overrides applied).
  const Options& options() const { return opts_; }

  // ---- thread-local access for the field macros ------------------------------

  /// The EpochSys of the calling thread's innermost active operation.
  static EpochSys* tls_current();
  /// osn_check against the calling thread's active EpochSys (no-op outside
  /// an operation).
  static void tls_osn_check(const PBlk* p);
  /// ensure_writable against the calling thread's active EpochSys.
  static PBlk* tls_ensure_writable(PBlk* p);
  /// register_write against the calling thread's active EpochSys.
  static void tls_register_write(PBlk* p);

  /// Process-default instance, used by PNEW/PDELETE outside an operation.
  /// The first EpochSys constructed becomes the default; destroying it
  /// clears the slot. Multi-instance programs should set this explicitly.
  static EpochSys* default_esys();
  /// Override the process-default instance (nullptr clears it).
  static void set_default_esys(EpochSys* esys);

 private:
  struct alignas(util::kCacheLineSize) ThreadData {
    std::mutex m;  ///< guards rings and free lists (owner vs advancer/sync)
    std::deque<PBlk*> to_persist[4];
    uint64_t ring_epoch[4] = {0, 0, 0, 0};  ///< epoch of each ring's contents
    std::vector<PBlk*> to_free[4];
    /// Newest epoch ever queued into each to_free slot. reclaim_list(e)
    /// refuses to sweep a slot holding anything newer than e, which makes
    /// reclamation safe against a stale cooperative advancer whose epoch
    /// read lost a full lap to concurrent ticks.
    uint64_t free_epoch[4] = {0, 0, 0, 0};
    std::vector<PBlk*> pre_allocs;      ///< PNEW-before-BEGIN_OP payloads
    std::vector<PBlk*> per_op_writes;   ///< WriteBack::kPerOp staging
    std::vector<PBlk*> op_new_blocks;   ///< blocks allocated by the active op
    std::size_t free_mark[2] = {0, 0};  ///< to_free sizes at begin_op, for
                                        ///< slots e%4 and (e+1)%4 (abort_op)
    uint64_t op_epoch = kNoEpoch;
    uint64_t last_epoch = 0;
    bool in_op = false;
    bool wrote = false;  ///< kImmediate: a fence is owed at END_OP
    bool last_op_adopted = false;  ///< previous op was adopted, not committed
    uint64_t wd_rng = 0;           ///< watchdog jitter state (lazy-seeded)
    std::atomic<uint64_t> active{kNoEpoch};  ///< operation tracker slot
    /// Heartbeat: now_ns() at begin_op, 0 outside an op. wait_all compares
    /// it against op_deadline_ns to detect stalled/dead owners.
    std::atomic<uint64_t> op_start_ns{0};
    /// Set by an adopter that rolled this thread's op back; every owner-side
    /// entry point checks it and raises OrphanedOperationException.
    std::atomic<bool> adopted{false};
    uint64_t uid_next = 0;  ///< per-thread uid block cursor
    uint64_t uid_limit = 0;
  };

  ThreadData& my_td() { return tds_[util::thread_id()]; }
  const ThreadData& my_td() const { return tds_[util::thread_id()]; }

  void init_new_block(PBlk* p, std::size_t size);
  uint64_t next_uid(ThreadData& td);

  /// register_write's body, for callers already holding td.m (which is also
  /// where the adopted-check lives — see init_new_block/pdelete).
  void register_write_locked(ThreadData& td, PBlk* p);

  /// Push onto the to_persist ring for epoch `e`, skipping a payload that is
  /// already the newest entry; on overflow write back the oldest entry.
  /// Caller holds td.m.
  void ring_push(ThreadData& td, uint64_t e, PBlk* p);

  /// Queue `p` for deferred reclamation under epoch `e`, maintaining the
  /// slot's free_epoch high-water mark. Caller holds td.m.
  void queue_free(ThreadData& td, uint64_t e, PBlk* p);

  /// Seal the header checksum and write back a single payload (header +
  /// body).
  void persist_block(PBlk* p);

  /// Drain and write back one thread's ring for epoch `e`. Caller must NOT
  /// hold td.m. Returns number of blocks written back.
  std::size_t drain_ring(ThreadData& td, uint64_t e);

  /// Invalidate and reclaim every block on `td.to_free[e % 4]`; returns the
  /// number of blocks reclaimed.
  std::size_t reclaim_list(ThreadData& td, uint64_t e);
  void reclaim_now(PBlk* p);

  /// Wait until no operation is active in epoch <= e, adopting operations
  /// stalled past op_deadline_ns. Returns false if `abs_deadline_ns`
  /// (absolute now_ns() value; kNoDeadline = none) passed first.
  bool wait_all(uint64_t e, uint64_t abs_deadline_ns);

  /// advance_epoch with a deadline: gives up (returning false) only if a
  /// wedged peer (or a recovery in progress) cannot be gotten past in time.
  /// Returns true as soon as the clock has moved past the value observed at
  /// entry — whether this thread's CAS won or a concurrent advancer's did.
  bool try_advance_epoch(uint64_t abs_deadline_ns);

  /// Drain the calling thread's own to_persist rings (sync vacuuming);
  /// returns the number of payloads written back.
  std::size_t vacuum_own_payloads(ThreadData& td);

  /// Raise durable_clock_ to at least `v` (monotonic CAS-max). Call only
  /// after the clock line holding a value >= v has been written back and
  /// fenced.
  void bump_durable_clock(uint64_t v);

  /// Make a clock value >= `v` durable: unless durable_clock_ already
  /// covers `v`, write back and fence the clock line, then raise
  /// durable_clock_ to `v`. Call only once the DRAM clock holds >= v.
  void persist_clock(uint64_t v);

  /// Roll back `td`'s open operation in epoch `e` and release its tracker
  /// slot, issuing no persistence event. Caller holds td.m; abort_op runs
  /// it for the owner, adopt_thread for a stalled one.
  void roll_back_locked(ThreadData& td, uint64_t e);

  /// Cross-thread abort of thread `tid`'s stalled operation (epoch <= upto):
  /// roll it back exactly as abort_op() would and release its tracker slot.
  void adopt_thread(int tid, uint64_t upto);

  /// Owner-side cleanup after the calling thread discovers its op was
  /// adopted: discard local op state (the adopter already rolled back the
  /// shared state) and record last_op_adopted.
  void finish_adopted_op(ThreadData& td);

  /// Write back / fence with retry on transient nvm::IoError; PersistError
  /// after Options::wb_max_retries. Both run the same backoff loop.
  void persist_retry(const void* addr, std::size_t len);
  void fence_retry();

  /// Allocate payload memory, applying emergency advance-and-reclaim
  /// backpressure before letting std::bad_alloc escape.
  void* allocate_payload(std::size_t sz);

  /// Cooperative pacing + staleness watchdog, run from begin_op: tick the
  /// clock when no advancer is pacing it, and raise the telemetry alarm
  /// when the clock has gone watchdog_ns_ stale.
  void watchdog_poke(ThreadData& td);

  void advancer_loop();
  void start_advancer_locked();

  ralloc::Ralloc* ral_;
  Options opts_;
  uint64_t crash_epoch_ = 0;  ///< clock value found at recover-construction
  std::atomic<uint64_t>* clock_;  ///< persistent epoch clock (a region root)
  std::unique_ptr<ThreadData[]> tds_;
  std::atomic<uint64_t>* uid_root_;  ///< persistent uid high-water mark
  /// Contention shield for concurrent advancers: held via try_lock only,
  /// never waited on unboundedly — a thread that cannot get it within a
  /// short spin proceeds lock-free (the clock CAS arbitrates). Purely a
  /// throughput optimization; correctness never depends on holding it.
  std::mutex advance_mutex_;
  /// Recovery gate: while set, try_advance_epoch parks before touching any
  /// shared state, and recover() waits for in-flight advances to drain.
  std::atomic<bool> advance_blocked_{false};
  std::atomic<int> advancers_active_{0};  ///< advances past the gate
  /// Highest clock value known written back AND fenced (DRAM mirror).
  /// Raised only after the persist+fence that makes a tick durable, so it
  /// may trail the DRAM clock while a cooperative advancer is between its
  /// CAS and its clock persist — persisted_frontier() reads this, never
  /// the DRAM clock (see bump_durable_clock).
  std::atomic<uint64_t> durable_clock_{0};
  std::atomic<int> syncs_pending_{0};
  /// One past the highest thread id that ever ran an operation; bounds the
  /// tracker/buffer scans in advance_epoch and sync.
  std::atomic<int> tid_hwm_{0};
  std::thread advancer_;
  /// The advancer waits out each epoch of >= 1 ms on pace_cv_. stop_ and
  /// advancer_kill_ are set under pace_mutex_ and notified, so a stop or a
  /// kill wakes it at once instead of after the epoch.
  std::mutex pace_mutex_;
  std::condition_variable pace_cv_;
  std::atomic<bool> stop_{false};
  std::mutex advancer_mutex_;  ///< guards advancer_ start/stop
  std::atomic<bool> advancer_running_{false};
  std::atomic<bool> advancer_kill_{false};  ///< test hook: simulate a kill
  std::atomic<bool> shutdown_{false};       ///< destructor: no more starts
  std::atomic<uint64_t> last_tick_ns_{0};
  std::atomic<uint64_t> adopted_ops_{0};
  uint64_t watchdog_ns_ = 0;  ///< resolved staleness threshold
  RecoveryReport last_recovery_report_;
};

/// RAII: begin_op on construction, end_op on destruction (the paper's
/// BEGIN_OP_AUTOEND). When the scope is being unwound by an exception the
/// destructor calls abort_op() instead, rolling back the half-applied
/// operation rather than committing it.
class MontageOpHolder {
 public:
  /// begin_op on `esys` immediately.
  explicit MontageOpHolder(EpochSys* esys)
      : esys_(esys), uncaught_(std::uncaught_exceptions()) {
    esys_->begin_op();
  }
  /// end_op on normal exit, abort_op when unwinding an exception.
  ~MontageOpHolder() {
    if (std::uncaught_exceptions() > uncaught_) {
      esys_->abort_op();
    } else {
      esys_->end_op();
    }
  }
  MontageOpHolder(const MontageOpHolder&) = delete;
  MontageOpHolder& operator=(const MontageOpHolder&) = delete;

 private:
  EpochSys* esys_;
  int uncaught_;
};

}  // namespace montage
