#include "montage/epoch_sys.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstring>
#include <thread>
#include <unordered_map>

#include "nvm/region.hpp"
#include "util/env.hpp"
#include "util/telemetry.hpp"
#include "util/timing.hpp"

namespace montage {

namespace {
// Region root slots (slot 0 belongs to Ralloc).
constexpr int kClockRoot = 1;
constexpr int kUidRoot = 2;
// First epoch; starting at 4 keeps (e-2)-style arithmetic trivially in range.
constexpr uint64_t kFirstEpoch = 4;
constexpr uint64_t kUidBatch = 1 << 16;
// How long an emergency (allocation-backpressure) advance may block on a
// wedged peer before the original bad_alloc is allowed to surface.
constexpr uint64_t kEmergencyAdvanceBudgetNs = 100'000'000;
// Cap on the exponential write-back retry backoff.
constexpr uint64_t kMaxBackoffNs = 1'000'000;
// How long a cooperative advancer spins for the contention shield before
// proceeding lock-free. Bounds the damage of a slow (or wedged) shield
// holder without ever blocking on it.
constexpr uint64_t kShieldSpinNs = 20'000;

uint64_t xorshift64(uint64_t& s) {
  s ^= s << 13;
  s ^= s >> 7;
  s ^= s << 17;
  return s;
}

thread_local EpochSys* tls_esys = nullptr;
// True on the background advancer thread: separates epoch.advances driven by
// the pacer from epoch.cooperative_advances driven by workers and sync().
thread_local bool tls_is_advancer = false;
std::atomic<EpochSys*> g_default_esys{nullptr};

// Run one write-back or fence, retrying transient device errors (full write
// queue, injected EIO) with exponential backoff. Anything else — notably an
// armed CrashPointException — propagates untouched.
template <typename Io>
void retry_transient(const EpochSys::Options& opts, Io&& io) {
  uint64_t backoff = std::max<uint64_t>(opts.wb_backoff_ns, 1);
  for (uint64_t attempt = 1;; ++attempt) {
    try {
      io();
      return;
    } catch (const nvm::IoError&) {
      if (attempt > opts.wb_max_retries) {
        telemetry::count(telemetry::Ctr::kPersistErrors);
        telemetry::trace(telemetry::Ev::kPersistError, attempt);
        throw PersistError(attempt);
      }
      telemetry::count(telemetry::Ctr::kEioRetries);
      telemetry::trace(telemetry::Ev::kEioRetry, attempt);
      util::spin_for_ns(backoff);
      backoff = std::min(backoff * 2, kMaxBackoffNs);
    }
  }
}
}  // namespace

EpochSys::EpochSys(ralloc::Ralloc* ral, const Options& opts, bool recover)
    : ral_(ral),
      opts_(opts),
      clock_(&ral->region()->root(kClockRoot)),
      tds_(std::make_unique<ThreadData[]>(opts.max_threads)),
      uid_root_(&ral->region()->root(kUidRoot)) {
  if (opts.buffer_capacity == 0) {
    throw std::invalid_argument("EpochSys: buffer_capacity must be > 0");
  }
  nvm::Region* region = ral_->region();
  if (recover) {
    crash_epoch_ = clock_->load(std::memory_order_relaxed);
    assert(crash_epoch_ >= kFirstEpoch);
    // Resume two epochs later so every new label exceeds every survivor's.
    // Deliberately NOT persisted here: recover() publishes the clock as its
    // last step, so a crash anywhere during recovery re-reads the old
    // durable clock and re-derives the same cutoff — recovery is idempotent
    // under re-crash.
    clock_->store(crash_epoch_ + 2, std::memory_order_relaxed);
    // The durable clock is still the pre-crash value until recover()'s
    // final publish; persisted_frontier() must not run ahead of it.
    durable_clock_.store(crash_epoch_, std::memory_order_relaxed);
  } else {
    crash_epoch_ = 0;
    clock_->store(kFirstEpoch, std::memory_order_relaxed);
    uid_root_->store(1, std::memory_order_relaxed);
    region->persist(uid_root_, sizeof(*uid_root_));
    region->persist_fence(clock_, sizeof(*clock_));
    durable_clock_.store(kFirstEpoch, std::memory_order_relaxed);
  }

  EpochSys* expected = nullptr;
  g_default_esys.compare_exchange_strong(expected, this,
                                         std::memory_order_acq_rel);

  // Liveness knobs: env overrides (strictly validated — garbage must not
  // silently disable a deadline a test believes is armed).
  if (const uint64_t ms = util::env_u64_checked("MONTAGE_STALL_DEADLINE_MS", 0);
      ms != 0) {
    opts_.op_deadline_ns = ms * 1'000'000;
  }
  if (const uint64_t ms = util::env_u64_checked("MONTAGE_STALL_WATCHDOG_MS", 0);
      ms != 0) {
    opts_.watchdog_ns = ms * 1'000'000;
  }
  watchdog_ns_ = opts_.watchdog_ns != 0
                     ? opts_.watchdog_ns
                     : std::max<uint64_t>(10 * opts_.epoch_length_ns,
                                          1'000'000);
  last_tick_ns_.store(util::now_ns(), std::memory_order_relaxed);

  if (opts_.start_advancer && !opts_.transient) {
    std::lock_guard lk(advancer_mutex_);
    start_advancer_locked();
  }
}

EpochSys::~EpochSys() {
  shutdown_.store(true, std::memory_order_release);
  stop_advancer();
  EpochSys* self = this;
  g_default_esys.compare_exchange_strong(self, nullptr,
                                         std::memory_order_acq_rel);
}

EpochSys* EpochSys::default_esys() {
  return g_default_esys.load(std::memory_order_acquire);
}

void EpochSys::set_default_esys(EpochSys* esys) {
  g_default_esys.store(esys, std::memory_order_release);
}

void EpochSys::stop_advancer() {
  // Serialized against start: a stop that races a start either joins the
  // fresh thread or prevents it from starting at all, and
  // double stops (destructor after an explicit stop, stop before any start)
  // find nothing joinable and return.
  std::lock_guard lk(advancer_mutex_);
  {
    std::lock_guard pace(pace_mutex_);
    stop_.store(true, std::memory_order_release);
  }
  pace_cv_.notify_all();
  if (advancer_.joinable()) advancer_.join();
  advancer_running_.store(false, std::memory_order_release);
}

void EpochSys::start_advancer() {
  if (opts_.transient) return;
  std::lock_guard lk(advancer_mutex_);
  start_advancer_locked();
}

void EpochSys::inject_advancer_kill() {
  {
    std::lock_guard pace(pace_mutex_);
    advancer_kill_.store(true, std::memory_order_release);
  }
  pace_cv_.notify_all();
}

void EpochSys::start_advancer_locked() {
  if (shutdown_.load(std::memory_order_acquire)) return;
  if (advancer_running_.load(std::memory_order_acquire)) return;
  if (advancer_.joinable()) advancer_.join();  // reap a dead advancer body
  {
    std::lock_guard pace(pace_mutex_);
    stop_.store(false, std::memory_order_release);
    advancer_kill_.store(false, std::memory_order_release);
  }
  // Reset the staleness clock so a restart is not immediately re-flagged.
  last_tick_ns_.store(util::now_ns(), std::memory_order_relaxed);
  advancer_running_.store(true, std::memory_order_release);
  advancer_ = std::thread([this] { advancer_loop(); });
}

void EpochSys::advancer_loop() {
  tls_is_advancer = true;
  const uint64_t len = opts_.epoch_length_ns;
  while (!stop_.load(std::memory_order_acquire)) {
    if (len >= 1'000'000) {
      std::unique_lock pace(pace_mutex_);
      pace_cv_.wait_for(pace, std::chrono::nanoseconds(len), [this] {
        return stop_.load(std::memory_order_acquire) ||
               advancer_kill_.load(std::memory_order_acquire);
      });
    } else {
      util::spin_for_ns(len);
    }
    if (stop_.load(std::memory_order_acquire)) break;
    if (advancer_kill_.exchange(false, std::memory_order_acq_rel)) {
      break;  // simulated kill: die abruptly, stop flag untouched
    }
    try {
      advance_epoch();
    } catch (...) {
      // A persist failure (or an injected crash point) reached the
      // advancer. Dying silently is exactly what a real advancer thread
      // would do; workers notice the stale clock and keep ticking it
      // cooperatively.
      break;
    }
  }
  advancer_running_.store(false, std::memory_order_release);
}

// ---- operation lifecycle ----------------------------------------------------

uint64_t EpochSys::begin_op() {
  telemetry::count(telemetry::Ctr::kOpsBegun);
  ThreadData& td = my_td();
  if (td.in_op) {
    // Tolerated only when the previous op was adopted while this thread
    // stalled and it never acknowledged: clean the leftover state and rejoin.
    assert(td.adopted.load(std::memory_order_acquire) &&
           "nested operations are not supported");
    finish_adopted_op(td);
  }
  const int tid = util::thread_id();
  int hwm = tid_hwm_.load(std::memory_order_relaxed);
  while (tid >= hwm &&
         !tid_hwm_.compare_exchange_weak(hwm, tid + 1,
                                         std::memory_order_acq_rel)) {
  }
  if (opts_.transient) {
    td.in_op = true;
    td.op_epoch = 0;
    tls_esys = this;
    return 0;
  }
  if (opts_.start_advancer) watchdog_poke(td);
  td.last_op_adopted = false;
  td.adopted.store(false, std::memory_order_relaxed);
  // Heartbeat before announcing: wait_all must never see an announced epoch
  // paired with a stale start time, or it would adopt a newborn op.
  td.op_start_ns.store(util::now_ns(), std::memory_order_release);
  uint64_t e;
  // Announce atomically with reading the clock: register, then confirm the
  // clock did not move (paper Fig. 3, BEGIN_OP). Each retry implies the epoch
  // advanced, so some other operation completed — Montage stays lock-free.
  while (true) {
    e = clock_->load(std::memory_order_acquire);
    td.active.store(e, std::memory_order_seq_cst);
    if (clock_->load(std::memory_order_seq_cst) == e) break;
    td.active.store(kNoEpoch, std::memory_order_seq_cst);
  }
  td.in_op = true;
  td.op_epoch = e;
  tls_esys = this;

  // Help any waiting sync(): write back our own stale buffers early.
  if (syncs_pending_.load(std::memory_order_relaxed) > 0) {
    const std::size_t helped = drain_ring(td, e - 1);
    telemetry::count(telemetry::Ctr::kWbHelp, helped);
    if (helped > 0) fence_retry();
  }

  // Label payloads allocated before the operation began (paper §3.1).
  if (!td.pre_allocs.empty()) {
    std::vector<PBlk*> pre;
    pre.swap(td.pre_allocs);
    std::size_t i = 0;
    bool registered = false;
    try {
      for (; i < pre.size(); ++i) {
        PBlk* p = pre[i];
        registered = false;
        p->epoch_ = e;
        p->blktype_ = static_cast<uint32_t>(BlkType::kAlloc);
        std::lock_guard lk(td.m);
        if (td.adopted.load(std::memory_order_acquire)) {
          throw OrphanedOperationException{};
        }
        td.op_new_blocks.push_back(p);
        registered = true;
        register_write_locked(td, p);
      }
    } catch (...) {
      // Whatever entered op_new_blocks is the rollback's problem; the rest
      // stays pre-allocated and rides into the caller's retry.
      for (std::size_t j = i + (registered ? 1 : 0); j < pre.size(); ++j) {
        pre[j]->epoch_ = kNoEpoch;
        td.pre_allocs.push_back(pre[j]);
      }
      throw;
    }
  }

  // LocalFree configuration: workers reclaim their own lists on epoch change
  // (paper Fig. 3 lines 8-12 / Fig. 4 "Buf=64+LocalFree").
  if (opts_.local_free && e > td.last_epoch && td.last_epoch >= kFirstEpoch) {
    const uint64_t lo = td.last_epoch - 1;
    const uint64_t hi = std::min(td.last_epoch + 1, e - 2);
    for (uint64_t x = lo; x <= hi; ++x) reclaim_list(td, x);
  }
  td.last_epoch = e;

  // Snapshot the free-list high-water marks so abort_op can cancel exactly
  // the pdelete/clone requests this operation queues. Taken after the
  // local_free reclamation above, which may have swapped lists out.
  {
    std::lock_guard lk(td.m);
    td.free_mark[0] = td.to_free[e % 4].size();
    td.free_mark[1] = td.to_free[(e + 1) % 4].size();
  }
  return e;
}

void EpochSys::end_op() {
  ThreadData& td = my_td();
  if (!td.in_op) {
    // Tolerated after adoption: a resurrected thread whose op-body call
    // already performed the owner-side cleanup (and threw) may still run
    // its END_OP. Anything else is a caller bug.
    assert(td.last_op_adopted && "end_op without an active operation");
    return;
  }
  if (!opts_.transient) {
    std::unique_lock lk(td.m);
    if (td.adopted.load(std::memory_order_acquire)) {
      // The op was rolled back by an adopter while we stalled: commit
      // nothing. end_op must stay non-throwing (MontageOpHolder calls it
      // from a destructor), so the adoption is reported via
      // last_op_adopted() instead of an exception.
      lk.unlock();
      finish_adopted_op(td);
      return;
    }
    // Commit path. Flushes happen under td.m: once active is released an
    // adopter can no longer interfere, but the flush itself must not race
    // an adoption decision taken between the check above and the store.
    //
    // By the time end_op runs the operation has already linearized, so a
    // write-back that exhausts its retries must NOT unwind with the op half
    // open (the caller's abort path would roll back payloads the structure
    // already links to). Instead: re-queue the unflushed blocks on the
    // buffered ring — the next epoch boundary retries them — close the op
    // as committed-with-deferred-durability, and only then rethrow.
    std::exception_ptr persist_failure;
    try {
      if (opts_.write_back == WriteBack::kPerOp && !td.per_op_writes.empty()) {
        telemetry::count(telemetry::Ctr::kWbDirect, td.per_op_writes.size());
        for (PBlk* p : td.per_op_writes) persist_block(p);
        fence_retry();
      } else if (opts_.write_back == WriteBack::kImmediate && td.wrote) {
        fence_retry();
      }
    } catch (...) {
      persist_failure = std::current_exception();
      try {
        for (PBlk* p : td.per_op_writes) ring_push(td, td.op_epoch, p);
      } catch (...) {
        // Ring overflow write-back hit the same fault; whatever was queued
        // before it stays queued. The rethrow below already reports the
        // durability loss.
      }
    }
    td.per_op_writes.clear();
    td.wrote = false;
    td.op_new_blocks.clear();
    td.op_start_ns.store(0, std::memory_order_release);
    td.active.store(kNoEpoch, std::memory_order_release);
    lk.unlock();
    td.in_op = false;
    td.op_epoch = kNoEpoch;
    tls_esys = nullptr;
    if (persist_failure) std::rethrow_exception(persist_failure);
    return;
  }
  td.op_new_blocks.clear();
  td.in_op = false;
  td.op_epoch = kNoEpoch;
  tls_esys = nullptr;
}

void EpochSys::finish_adopted_op(ThreadData& td) {
  {
    std::lock_guard lk(td.m);
    // The adopter already dead-marked and re-queued these blocks; only the
    // owner-local bookkeeping remains.
    td.op_new_blocks.clear();
    td.adopted.store(false, std::memory_order_release);
  }
  td.per_op_writes.clear();
  td.wrote = false;
  td.in_op = false;
  td.op_epoch = kNoEpoch;
  td.last_op_adopted = true;
  // active and op_start_ns were already released by the adopter.
  tls_esys = nullptr;
}

void EpochSys::abort_op() noexcept {
  ThreadData& td = my_td();
  if (!td.in_op) return;
  telemetry::count(telemetry::Ctr::kOpsAborted);
  if (!opts_.transient) {
    std::unique_lock lk(td.m);
    if (td.adopted.load(std::memory_order_acquire)) {
      // An adopter already performed this rollback cross-thread.
      lk.unlock();
      finish_adopted_op(td);
      return;
    }
    // The slot is released before td.m drops, so an adopter whose deadline
    // has passed can never roll this operation back a second time.
    roll_back_locked(td, td.op_epoch);
  }
  td.per_op_writes.clear();
  td.wrote = false;
  td.in_op = false;
  td.op_epoch = kNoEpoch;
  tls_esys = nullptr;
}

void EpochSys::roll_back_locked(ThreadData& td, uint64_t e) {
  // Cancel the pdelete / ensure_writable requests this operation queued:
  // their victims stay live in the structure. The size guard tolerates a
  // list that was swapped out from under the mark (cannot happen while
  // the op is still announced, but cheap to be safe about).
  auto cancel = [](std::vector<PBlk*>& v, std::size_t mark) {
    if (v.size() > mark) v.resize(mark);
  };
  cancel(td.to_free[e % 4], td.free_mark[0]);
  cancel(td.to_free[(e + 1) % 4], td.free_mark[1]);
  // Neutralize every block the operation allocated (payloads, clones,
  // anti-payloads). The dead-mark is DRAM-only here — no persist or
  // fence is issued, so abort_op cannot throw even while unwinding a
  // CrashPointException. That is sufficient: if one of these headers
  // already reached NVM (ring overflow, eviction), the ring entry
  // ensured below rewrites it dead at the next epoch boundary, and a
  // crash before that boundary has cutoff < e, which discards epoch-e
  // blocks anyway.
  auto& ring = td.to_persist[e % 4];
  for (PBlk* p : td.op_new_blocks) {
    p->magic_ = kPBlkDead;
    if (std::find(ring.begin(), ring.end(), p) == ring.end()) {
      // Re-enter the write-back ring, past its capacity bound if need
      // be: bounded overflow would write back (an event that could
      // throw), and the excess drains at the next epoch boundary.
      if (ring.empty()) td.ring_epoch[e % 4] = e;
      ring.push_back(p);
    }
    // Queue for the normal two-epoch-deferred reclamation, which
    // persists the dead header before the memory is reused.
    queue_free(td, e, p);
  }
  td.op_new_blocks.clear();
  td.op_start_ns.store(0, std::memory_order_release);
  td.active.store(kNoEpoch, std::memory_order_release);
}

bool EpochSys::in_op() const { return my_td().in_op; }

bool EpochSys::check_epoch() const {
  const ThreadData& td = my_td();
  if (opts_.transient) return true;
  assert(td.in_op);
  return clock_->load(std::memory_order_acquire) == td.op_epoch;
}

// ---- payload management -----------------------------------------------------

uint64_t EpochSys::next_uid(ThreadData& td) {
  if (td.uid_next == td.uid_limit) {
    td.uid_next =
        uid_root_->fetch_add(kUidBatch, std::memory_order_acq_rel);
    td.uid_limit = td.uid_next + kUidBatch;
    // Persist the high-water mark so uids never repeat across a crash.
    if (!opts_.transient) {
      persist_retry(uid_root_, sizeof(*uid_root_));
      fence_retry();
    }
  }
  return td.uid_next++;
}

void EpochSys::init_new_block(PBlk* p, std::size_t size) {
  ThreadData& td = my_td();
  p->magic_ = kPBlkMagic;
  p->uid_ = next_uid(td);
  p->size_ = size;
  if (opts_.transient) {
    p->epoch_ = 0;
    p->blktype_ = static_cast<uint32_t>(BlkType::kAlloc);
    return;
  }
  if (td.in_op) {
    p->epoch_ = td.op_epoch;
    p->blktype_ = static_cast<uint32_t>(BlkType::kAlloc);
    // Registration happens in one td.m critical section with the adoption
    // check: a block that entered op_new_blocks is guaranteed visible to an
    // adopter's rollback, and after an adoption nothing new may enter.
    std::lock_guard lk(td.m);
    if (td.adopted.load(std::memory_order_acquire)) {
      throw OrphanedOperationException{};
    }
    td.op_new_blocks.push_back(p);
    register_write_locked(td, p);
  } else {
    // Early allocation: labeled when BEGIN_OP runs (paper §3.1).
    p->epoch_ = kNoEpoch;
    p->blktype_ = static_cast<uint32_t>(BlkType::kAlloc);
    td.pre_allocs.push_back(p);
  }
}

PBlk* EpochSys::ensure_writable(PBlk* p) {
  if (opts_.transient) return p;
  ThreadData& td = my_td();
  assert(td.in_op && "set_* requires an active operation");
  osn_check(p);
  if (p->epoch_ == td.op_epoch) return p;
  // Created in an earlier epoch: clone into the current one. The old version
  // must stay durable until the clone is (crash in this epoch or the next
  // rolls back to it), so it is reclaimed two epochs from now.
  void* mem = allocate_payload(p->size_);
  std::memcpy(mem, p, p->size_);
  auto* clone = static_cast<PBlk*>(static_cast<void*>(mem));
  clone->epoch_ = td.op_epoch;
  clone->blktype_ = static_cast<uint32_t>(BlkType::kUpdate);
  {
    std::lock_guard lk(td.m);
    if (td.adopted.load(std::memory_order_acquire)) {
      // Rolled back while we stalled: the clone was never registered, so it
      // can be returned to the allocator raw.
      ral_->deallocate(mem);
      throw OrphanedOperationException{};
    }
    td.op_new_blocks.push_back(clone);
    queue_free(td, td.op_epoch, p);
  }
  return clone;
}

void EpochSys::register_write(PBlk* p) {
  if (opts_.transient) return;
  ThreadData& td = my_td();
  assert(td.in_op);
  std::lock_guard lk(td.m);
  if (td.adopted.load(std::memory_order_acquire)) {
    throw OrphanedOperationException{};
  }
  register_write_locked(td, p);
}

void EpochSys::register_write_locked(ThreadData& td, PBlk* p) {
  switch (opts_.write_back) {
    case WriteBack::kImmediate:
      // Under td.m deliberately: once an adopter has rolled the op back, a
      // late owner write-back could reseal a dead-marked header. Montage's
      // buffered mode never persists on this path, so the lock is off the
      // paper's fast path.
      telemetry::count(telemetry::Ctr::kWbDirect);
      persist_block(p);
      td.wrote = true;
      break;
    case WriteBack::kPerOp:
      if (td.per_op_writes.empty() || td.per_op_writes.back() != p) {
        td.per_op_writes.push_back(p);
      }
      break;
    case WriteBack::kBuffered:
      ring_push(td, td.op_epoch, p);
      break;
  }
}

void EpochSys::pdelete(PBlk* p) {
  if (opts_.transient) {
    p->magic_ = kPBlkDead;
    ral_->deallocate(p);
    return;
  }
  ThreadData& td = my_td();
  assert(td.in_op && "PDELETE requires an active operation");
  osn_check(p);
  const uint64_t e = td.op_epoch;

  if (opts_.direct_free) {
    // Bench-only reference configuration (Fig. 4 "Buf=64+DirFree"): not
    // crash-consistent, but shows the cost of deferred reclamation.
    p->magic_ = kPBlkDead;
    ral_->deallocate(p);
    return;
  }

  if (p->epoch_ == e) {
    // This version was created in the current epoch: it can nullify itself.
    // (The paper frees brand-new ALLOC payloads immediately; we route them
    // through the same DELETE-mark path so that a block whose header was
    // already written back by ring overflow can never be resurrected.)
    std::lock_guard lk(td.m);
    if (td.adopted.load(std::memory_order_acquire)) {
      // Rolled back while we stalled: p is epoch-e, so the adopter already
      // dead-marked and queued it — touching it again would double-free.
      throw OrphanedOperationException{};
    }
    p->blktype_ = static_cast<uint32_t>(BlkType::kDelete);
    register_write_locked(td, p);
    queue_free(td, e, p);
  } else {
    // Anti-payload: same uid, current epoch. It outlives its victim by one
    // epoch so that recovery always sees it while the victim might survive.
    auto* anti = static_cast<PBlk*>(allocate_payload(sizeof(PBlk)));
    new (anti) PBlk();
    anti->magic_ = kPBlkMagic;
    anti->uid_ = p->uid_;
    anti->size_ = sizeof(PBlk);
    anti->epoch_ = e;
    anti->blktype_ = static_cast<uint32_t>(BlkType::kDelete);
    std::lock_guard lk(td.m);
    if (td.adopted.load(std::memory_order_acquire)) {
      ral_->deallocate(anti);  // never registered; victim stays live
      throw OrphanedOperationException{};
    }
    td.op_new_blocks.push_back(anti);
    register_write_locked(td, anti);
    queue_free(td, e + 1, anti);
    queue_free(td, e, p);
  }
}

// ---- write-back machinery ---------------------------------------------------

void EpochSys::persist_block(PBlk* p) {
  // Seal the header immediately before write-back: recovery recomputes this
  // checksum and quarantines any header that reached NVM some other way
  // (torn across a line boundary, or evicted before it was ever sealed).
  p->blk_seal();
  persist_retry(p, p->size_);
}

void EpochSys::persist_retry(const void* addr, std::size_t len) {
  retry_transient(opts_, [&] { ral_->region()->persist(addr, len); });
}

void EpochSys::fence_retry() {
  retry_transient(opts_, [&] { ral_->region()->fence(); });
}

void EpochSys::ring_push(ThreadData& td, uint64_t e, PBlk* p) {
  auto& ring = td.to_persist[e % 4];
  if (!ring.empty() && ring.back() == p) return;  // hot payload, in place
  if (ring.empty()) td.ring_epoch[e % 4] = e;
  if (ring.size() >= opts_.buffer_capacity) {
    // Incremental write-back of the oldest entry (paper §5.2: essential so
    // the background thread never faces unbounded buffers).
    telemetry::count(telemetry::Ctr::kWbOverflow);
    persist_block(ring.front());
    ring.pop_front();
  }
  ring.push_back(p);
}

std::size_t EpochSys::drain_ring(ThreadData& td, uint64_t e) {
  std::lock_guard lk(td.m);
  auto& ring = td.to_persist[e % 4];
  if (ring.empty() || td.ring_epoch[e % 4] != e) return 0;
  // A throw (crash point, PersistError) leaves the ring intact, so the
  // payloads stay queued and are retried at the next boundary.
  for (PBlk* p : ring) persist_block(p);
  const std::size_t n = ring.size();
  ring.clear();
  return n;
}

void EpochSys::reclaim_now(PBlk* p) {
  p->magic_ = kPBlkDead;
  persist_retry(p, sizeof(PBlk));
}

void EpochSys::queue_free(ThreadData& td, uint64_t e, PBlk* p) {
  if (td.free_epoch[e % 4] < e) td.free_epoch[e % 4] = e;
  td.to_free[e % 4].push_back(p);
}

std::size_t EpochSys::reclaim_list(ThreadData& td, uint64_t e) {
  std::vector<PBlk*> victims;
  {
    std::lock_guard lk(td.m);
    // A slot holding anything newer than e is not ours to sweep: a stale
    // cooperative advancer whose clock read lost a full lap to concurrent
    // ticks would otherwise reclaim epoch e+4 blocks three epochs early.
    // (Blocks older than their due epoch in a newer slot are reclaimed when
    // the newer epoch matures — late, never early.)
    if (td.free_epoch[e % 4] > e) return 0;
    victims.swap(td.to_free[e % 4]);
  }
  if (victims.empty()) return 0;
  // Persistently invalidate headers before reuse so a later crash can never
  // resurrect a reclaimed payload, then fence once for the whole batch.
  for (PBlk* p : victims) reclaim_now(p);
  fence_retry();
  for (PBlk* p : victims) ral_->deallocate(p);
  telemetry::count(telemetry::Ctr::kBlocksReclaimed, victims.size());
  return victims.size();
}

bool EpochSys::wait_all(uint64_t e, uint64_t abs_deadline_ns) {
  const int hwm = tid_hwm_.load(std::memory_order_acquire);
  for (int t = 0; t < hwm; ++t) {
    ThreadData& td = tds_[t];
    while (td.active.load(std::memory_order_acquire) <= e) {
      if (abs_deadline_ns != kNoDeadline && util::now_ns() > abs_deadline_ns) {
        return false;
      }
      if (opts_.op_deadline_ns != 0) {
        const uint64_t started = td.op_start_ns.load(std::memory_order_acquire);
        const uint64_t now = util::now_ns();
        if (started != 0 && now > started &&
            now - started > opts_.op_deadline_ns) {
          // The owner has been inside this operation past the deadline:
          // presume it failed and take the operation from it. A false
          // positive (merely slow, not dead) is safe — the owner observes
          // td.adopted and restarts — but not free: its linearized-yet-
          // unacknowledged effects are rolled back (DESIGN.md §8).
          adopt_thread(t, e);
          continue;  // re-check active; adoption released the slot
        }
      }
      std::this_thread::yield();
    }
  }
  return true;
}

void EpochSys::adopt_thread(int tid, uint64_t upto) {
  ThreadData& td = tds_[tid];
  if (&td == &my_td()) return;  // never self-adopt (we cannot be stalled)
  // try_lock: if the owner is wedged while holding td.m we must not inherit
  // the wedge — back out and retry from wait_all's loop.
  std::unique_lock lk(td.m, std::try_to_lock);
  if (!lk.owns_lock()) return;
  const uint64_t e = td.active.load(std::memory_order_acquire);
  if (e == kNoEpoch || e > upto) return;  // finished or moved on meanwhile
  if (td.adopted.load(std::memory_order_acquire)) return;
  // Re-check the heartbeat under the lock: a fresh operation by a
  // resurrected owner must never be adopted at birth.
  const uint64_t started = td.op_start_ns.load(std::memory_order_acquire);
  const uint64_t now = util::now_ns();
  if (started == 0 || now <= started ||
      now - started <= opts_.op_deadline_ns) {
    return;
  }
  td.adopted.store(true, std::memory_order_release);
  roll_back_locked(td, e);
  adopted_ops_.fetch_add(1, std::memory_order_relaxed);
  telemetry::count(telemetry::Ctr::kAdoptions);
  telemetry::trace(telemetry::Ev::kAdoption, static_cast<uint64_t>(tid), e);
}

void EpochSys::advance_epoch() {
  (void)try_advance_epoch(kNoDeadline);
}

void EpochSys::bump_durable_clock(uint64_t v) {
  uint64_t d = durable_clock_.load(std::memory_order_relaxed);
  while (d < v && !durable_clock_.compare_exchange_weak(
                      d, v, std::memory_order_release,
                      std::memory_order_relaxed)) {
  }
}

void EpochSys::persist_clock(uint64_t v) {
  // Clock-line dedup: durable_clock_ only moves after a persist+fence of a
  // clock value at least that large, so when it already covers v the flush
  // would rewrite an identical-or-older line.
  if (durable_clock_.load(std::memory_order_acquire) >= v) return;
  persist_retry(clock_, sizeof(*clock_));
  fence_retry();
  bump_durable_clock(v);
}

bool EpochSys::try_advance_epoch(uint64_t abs_deadline_ns) {
  if (opts_.transient) return true;
  // Advance latency is measured from entry (gate and shield waits included —
  // contention IS part of what a slow clock feels like).
  const uint64_t t0 = util::now_ns();
  const uint64_t e_entry = clock_->load(std::memory_order_acquire);

  // Recovery gate: recover() freezes the durable clock by blocking new
  // advances and draining in-flight ones; nothing else ever sets it.
  while (true) {
    while (advance_blocked_.load(std::memory_order_acquire)) {
      if (abs_deadline_ns != kNoDeadline && util::now_ns() > abs_deadline_ns) {
        return false;
      }
      std::this_thread::yield();
    }
    advancers_active_.fetch_add(1, std::memory_order_acq_rel);
    if (!advance_blocked_.load(std::memory_order_acquire)) break;
    advancers_active_.fetch_sub(1, std::memory_order_release);
  }
  struct GateGuard {  // exception-safe: CrashPointException must drain too
    std::atomic<int>* c;
    ~GateGuard() { c->fetch_sub(1, std::memory_order_release); }
  } gate_guard{&advancers_active_};

  // Contention shield: serialize the common case so concurrent advancers do
  // not all re-scan every peer's buffers. Strictly bounded — the shield is
  // only ever try_locked, and a thread that cannot get it within
  // kShieldSpinNs proceeds without it; the clock CAS below arbitrates, so
  // correctness never depends on holding the mutex.
  std::unique_lock lk(advance_mutex_, std::try_to_lock);
  if (!lk.owns_lock()) {
    telemetry::count(telemetry::Ctr::kEpochAdvanceLockWaits);
    const uint64_t spin_end = util::now_ns() + kShieldSpinNs;
    while (!lk.try_lock()) {
      if (clock_->load(std::memory_order_acquire) != e_entry) {
        // Someone else ticked past our entry value: that tick is exactly
        // the advance this caller asked for.
        last_tick_ns_.store(util::now_ns(), std::memory_order_relaxed);
        return true;
      }
      const uint64_t now = util::now_ns();
      if (abs_deadline_ns != kNoDeadline && now > abs_deadline_ns) {
        return false;
      }
      if (now > spin_end) break;  // wedged holder: go lock-free
      std::this_thread::yield();
    }
  }

  const uint64_t e = clock_->load(std::memory_order_acquire);
  if (e != e_entry) {
    last_tick_ns_.store(util::now_ns(), std::memory_order_relaxed);
    return true;
  }
  // 1. No operation may still be active in the epoch being persisted.
  if (!wait_all(e - 1, abs_deadline_ns)) return false;
  const int hwm = tid_hwm_.load(std::memory_order_acquire);
  // 2. Write back everything created/modified in e-1 and order it. (If all
  // buffers already drained — incremental write-back, sync helping — the
  // data fence can be skipped; the clock fence below still orders us.)
  std::size_t drained = 0;
  for (int t = 0; t < hwm; ++t) drained += drain_ring(tds_[t], e - 1);
  if (drained > 0) fence_retry();
  // 3. Reclaim payloads whose grace period expired (unless workers do it).
  // Safe without exclusive ownership: reclaim_list swaps each list out
  // under td.m (a block is reclaimed once) and skips slots holding epochs
  // newer than e-2 (a stale advancer that lost a lap sweeps nothing early).
  std::size_t reclaimed = 0;
  if (!opts_.local_free) {
    for (int t = 0; t < hwm; ++t) reclaimed += reclaim_list(tds_[t], e - 2);
  }
  // 4. Commit the tick with a CAS; epochs <= e-1 are now durable. A lost
  // CAS means a concurrent advancer ticked e -> e+1 first; it ran the same
  // wait_all/drain/reclaim pipeline against the same epoch (all idempotent),
  // so the advance this caller wanted has happened either way. The clock is
  // persisted on both paths — a true return promises the tick is durable.
  uint64_t expected = e;
  const bool won = clock_->compare_exchange_strong(
      expected, e + 1, std::memory_order_acq_rel, std::memory_order_acquire);
  // The clock now holds at least e+1 (our CAS or the winner's larger
  // value). When durable_clock_ already covers e+1 a concurrent advancer
  // made this tick durable (never the case on the CAS-won path: the clock
  // was e until our CAS). Otherwise the frontier moves only after our own
  // flush, so a concurrent advancer still between its CAS and its persist
  // cannot make anything downstream (e.g. the server's ACK release) treat
  // its DRAM-only tick as durable.
  persist_clock(e + 1);
  last_tick_ns_.store(util::now_ns(), std::memory_order_relaxed);
  if (won) {
    telemetry::count(telemetry::Ctr::kEpochAdvances);
    if (!tls_is_advancer) {
      telemetry::count(telemetry::Ctr::kCooperativeAdvances);
    }
    telemetry::count(telemetry::Ctr::kWbBoundary, drained);
    telemetry::observe(telemetry::Hist::kAdvanceLatency, util::now_ns() - t0);
    telemetry::observe(telemetry::Hist::kDrainBatch, drained);
    telemetry::observe(telemetry::Hist::kReclaimBatch, reclaimed);
    telemetry::trace(telemetry::Ev::kEpochAdvance, e + 1, drained);
  }
  return true;
}

void EpochSys::sync() { (void)sync_for(kNoDeadline); }

std::size_t EpochSys::vacuum_own_payloads(ThreadData& td) {
  // Only the three most recent slots can hold data; older rings were drained
  // at their epoch boundary (the clock cannot pass e+1 while to_persist[e]
  // is still populated).
  const uint64_t e = clock_->load(std::memory_order_acquire);
  const uint64_t lo = e > kFirstEpoch + 2 ? e - 2 : kFirstEpoch;
  std::size_t n = 0;
  for (uint64_t x = lo; x <= e; ++x) n += drain_ring(td, x);
  return n;
}

bool EpochSys::sync_for(uint64_t deadline_ns) {
  if (opts_.transient) return true;
  assert(!my_td().in_op && "sync() may not be called inside an operation");
  telemetry::count(telemetry::Ctr::kSyncCalls);
  const uint64_t t0 = util::now_ns();
  const uint64_t abs_deadline =
      deadline_ns == kNoDeadline ? kNoDeadline : t0 + deadline_ns;
  syncs_pending_.fetch_add(1, std::memory_order_relaxed);
  struct PendingGuard {  // exception-safe: PersistError must not leak a count
    std::atomic<int>* c;
    ~PendingGuard() { c->fetch_sub(1, std::memory_order_relaxed); }
  } guard{&syncs_pending_};
  // Vacuum: the caller's own pending payloads go to NVM first (nbMontage's
  // per-thread vacuuming), so the caller's durability never waits on a
  // helping scan that could stall against a wedged peer's buffers.
  const std::size_t vacuumed = vacuum_own_payloads(my_td());
  if (vacuumed > 0) {
    telemetry::count(telemetry::Ctr::kSyncHelpedPayloads, vacuumed);
    fence_retry();
  }
  const uint64_t target = clock_->load(std::memory_order_acquire);
  // Everything up to `target` is durable once the clock reaches target+2.
  // The caller drives the advances itself — each one writes back its peers'
  // buffers after wait_all has closed their epoch — so sync latency is
  // bounded by the advance pipeline, not by the epoch length or the
  // advancer's health. Every true return of try_advance_epoch implies the
  // clock moved at least one tick past the value it read at entry, so this
  // loop runs at most twice (DESIGN.md §12). With a deadline, a wedged peer
  // that adoption cannot (or may not) clear makes this return false instead
  // of hanging.
  uint64_t advances = 0;
  while (clock_->load(std::memory_order_acquire) < target + 2) {
    if (!try_advance_epoch(abs_deadline)) {
      telemetry::count(telemetry::Ctr::kSyncTimeouts);
      telemetry::observe(telemetry::Hist::kSyncLatency, util::now_ns() - t0);
      return false;
    }
    ++advances;
  }
  // Fast path: a concurrent advancer had already moved the clock past
  // target+2 — this caller drove no advance of its own. Either way, the
  // final tick may have been published (in DRAM) by a peer whose clock
  // persist is still in flight; persist it here before promising the
  // caller durability. Idempotent and a single line. Reading the clock
  // before the persist gives a conservative durable value: the flushed
  // line content can only be >= what we read.
  persist_clock(clock_->load(std::memory_order_acquire));
  if (advances == 0) {
    telemetry::count(telemetry::Ctr::kSyncFast);
  } else {
    telemetry::trace(telemetry::Ev::kSyncSlow, advances);
  }
  telemetry::observe(telemetry::Hist::kSyncLatency, util::now_ns() - t0);
  return true;
}

// ---- execution-fault backpressure -------------------------------------------

void* EpochSys::allocate_payload(std::size_t sz) {
  try {
    return ral_->allocate(sz);
  } catch (const std::bad_alloc&) {
    if (opts_.transient) throw;
  }
  // The arena is exhausted, but up to three epochs of dead payloads may be
  // waiting out their grace period. Drive the clock forward to mature them,
  // reclaim, and retry; only if that frees nothing does bad_alloc surface.
  ThreadData& td = my_td();
  const uint64_t budget_end = util::now_ns() + kEmergencyAdvanceBudgetNs;
  for (int pass = 0; pass < 4; ++pass) {
    if (td.in_op && td.active.load(std::memory_order_acquire) <
                        clock_->load(std::memory_order_acquire)) {
      // One more advance would wait on our own announced epoch: an in-op
      // thread gets exactly one emergency tick, pre-op allocation gets the
      // full sweep.
      break;
    }
    try {
      if (!try_advance_epoch(budget_end)) break;
    } catch (...) {
      break;  // persist trouble during the emergency path: report the OOM
    }
    if (opts_.local_free) {
      // Workers own their reclamation lists; take the just-matured one now
      // instead of waiting for this thread's next begin_op.
      const uint64_t c = clock_->load(std::memory_order_acquire);
      reclaim_list(td, c - 2);
    }
    try {
      return ral_->allocate(sz);
    } catch (const std::bad_alloc&) {
    }
  }
  throw std::bad_alloc{};
}

void EpochSys::watchdog_poke(ThreadData& td) {
  const uint64_t last = last_tick_ns_.load(std::memory_order_relaxed);
  const uint64_t now = util::now_ns();
  if (now <= last) return;
  const uint64_t stale = now - last;
  const uint64_t pace = std::max<uint64_t>(opts_.epoch_length_ns, 1);
  if (stale < std::min(pace, watchdog_ns_)) return;  // clock is fresh
  // Per-thread jitter on top of each threshold so a stampede of workers
  // does not pile onto the clock the instant it lags.
  if (td.wd_rng == 0) {
    td.wd_rng =
        ((now << 1) ^ (static_cast<uint64_t>(util::thread_id() + 1) << 32)) |
        1;
  }
  const bool advancer_dead = !advancer_alive();

  // Cooperative pacing (DESIGN.md §12): with no advancer thread ticking,
  // any worker that sees the clock a full epoch behind drives one advance
  // itself — the killed pacer costs nothing but the pacing hint. Every
  // successful advance refreshes last_tick_ns_, so a healthy cooperative-
  // only configuration never crosses the watchdog_ns_ alarm threshold
  // below.
  if (advancer_dead && stale >= pace && stale < watchdog_ns_) {
    const uint64_t jitter = xorshift64(td.wd_rng) % (pace / 2 + 1);
    if (stale >= pace + jitter) {
      try {
        (void)try_advance_epoch(now + watchdog_ns_);
      } catch (...) {
        // PersistError here is the advance's problem, not this operation's;
        // the caller's own write-backs surface their own errors.
      }
    }
    return;
  }

  if (stale < watchdog_ns_) return;
  const uint64_t jitter = xorshift64(td.wd_rng) % (watchdog_ns_ / 2 + 1);
  if (stale < watchdog_ns_ + jitter) return;
  if (advancer_dead) {
    // Telemetry-only alarm: the clock is genuinely stale — neither the
    // advancer nor cooperative ticking is moving it (e.g. a wedged peer is
    // blocking wait_all and adoption has not fired). Liveness recovery is
    // the cooperative advance below, not a replacement thread.
    telemetry::count(telemetry::Ctr::kWatchdogAlarms);
    telemetry::trace(telemetry::Ev::kWatchdogRestart, stale);
  }
  // Drive the clock cooperatively: this IS the recovery path.
  try {
    (void)try_advance_epoch(now + watchdog_ns_);
  } catch (...) {
    // PersistError here is the advance's problem, not this operation's; the
    // caller's own write-backs will surface their own errors.
  }
}

// ---- recovery -----------------------------------------------------------------

std::vector<PBlk*> EpochSys::recover(int nthreads) {
  assert(crash_epoch_ >= kFirstEpoch && "recover() requires recover=true");
  // Keep every advancer — background or cooperative — from publishing the
  // clock before the final persist below: idempotence under re-crash
  // depends on the durable clock staying at its pre-crash value until
  // classification is complete. Advances are lock-free, so the freeze is a
  // gate: block new advances, then drain the in-flight ones.
  advance_blocked_.store(true, std::memory_order_release);
  while (advancers_active_.load(std::memory_order_acquire) != 0) {
    std::this_thread::yield();
  }
  struct GateRelease {  // re-open on every exit path
    std::atomic<bool>* b;
    ~GateRelease() { b->store(false, std::memory_order_release); }
  } gate_release{&advance_blocked_};
  const uint64_t cutoff = crash_epoch_ - 2;
  nvm::Region* region = ral_->region();

  // Restore the pre-crash trace from the region's annex (if an armed crash
  // dumped one) so post-crash diagnosis sees the history leading up to the
  // failure, then narrate recovery itself. The merged trace is re-dumped at
  // the end, so the annex survives recovery instead of being clobbered.
  if (telemetry::trace_enabled()) {
    telemetry::trace_restore(region->crash_trace());
  }
  telemetry::trace(telemetry::Ev::kRecoveryPhase, 0, crash_epoch_);

  std::atomic<std::size_t> discarded_late{0};
  std::atomic<std::size_t> quarantined{0};
  std::vector<std::vector<PBlk*>> shard_survivors(nthreads);
  auto scan_shard = [&](int shard) {
    auto& out = shard_survivors[shard];
    try {
      ral_->recover_blocks(shard, nthreads, [&](void* blk, std::size_t bsz) {
        auto* p = static_cast<PBlk*>(blk);
        if (p->magic_ != kPBlkMagic) return false;  // never allocated, or dead
        if (p->size_ < sizeof(PBlk) || p->size_ > bsz) {
          // Torn header (crashed mid-write without a flush): quarantine.
          quarantined.fetch_add(1, std::memory_order_relaxed);
          p->magic_ = kPBlkDead;
          region->persist(p, sizeof(PBlk));
          return false;
        }
        if (!p->blk_checksum_ok()) {
          // Header bits disagree with the sealed checksum: a line evicted
          // before write-back sealed it, a header torn across a cache-line
          // boundary, or media corruption. Quarantine, never trust.
          quarantined.fetch_add(1, std::memory_order_relaxed);
          p->magic_ = kPBlkDead;
          region->persist(p, sizeof(PBlk));
          return false;
        }
        if (p->epoch_ > cutoff) {
          // Work from the crash epoch or the one before: rolled back.
          discarded_late.fetch_add(1, std::memory_order_relaxed);
          p->magic_ = kPBlkDead;
          region->persist(p, sizeof(PBlk));
          return false;
        }
        out.push_back(p);
        return true;
      });
    } catch (const ralloc::RecoveryError&) {
      // Corrupt allocator metadata surfacing this late (strict-mode Ralloc
      // underneath): treat the rest of the shard as unrecoverable rather
      // than aborting the whole recovery. Whatever the shard yielded before
      // the corruption stays in `out`.
    }
  };
  if (nthreads <= 1) {
    scan_shard(0);
  } else {
    std::vector<std::thread> workers;
    for (int t = 0; t < nthreads; ++t) workers.emplace_back(scan_shard, t);
    for (auto& w : workers) w.join();
  }

  // Resolve uid conflicts: keep the newest version; DELETE nullifies.
  std::unordered_map<uint64_t, PBlk*> best;
  std::size_t total = 0;
  for (auto& v : shard_survivors) total += v.size();
  telemetry::trace(telemetry::Ev::kRecoveryPhase, 1, total);
  best.reserve(total);
  std::vector<PBlk*> losers;
  for (auto& v : shard_survivors) {
    for (PBlk* p : v) {
      auto [it, inserted] = best.try_emplace(p->uid_, p);
      if (!inserted) {
        PBlk*& cur = it->second;
        if (p->epoch_ > cur->epoch_) std::swap(cur, p);
        losers.push_back(p);
      }
    }
  }
  std::vector<PBlk*> result;
  result.reserve(best.size());
  for (auto& [uid, p] : best) {
    if (p->blk_type() == BlkType::kDelete) {
      losers.push_back(p);
    } else {
      result.push_back(p);
    }
  }
  for (PBlk* p : losers) reclaim_now(p);
  region->fence();
  for (PBlk* p : losers) ral_->deallocate(p);
  telemetry::trace(telemetry::Ev::kRecoveryPhase, 2, result.size());

  last_recovery_report_.recovered = result.size();
  last_recovery_report_.discarded_late_epoch =
      discarded_late.load(std::memory_order_relaxed);
  last_recovery_report_.quarantined_corrupt =
      quarantined.load(std::memory_order_relaxed);
  last_recovery_report_.salvaged_superblocks =
      ral_->recovery_summary().salvaged_superblocks;
  last_recovery_report_.crash_epoch = crash_epoch_;
  last_recovery_report_.cutoff_epoch = cutoff;

  // Only now publish the resumed clock. Everything above re-runs to the
  // same result if a crash lands anywhere inside recovery, because the
  // durable clock — and hence the cutoff — has not moved yet.
  region->persist_fence(clock_, sizeof(*clock_));
  bump_durable_clock(clock_->load(std::memory_order_relaxed));
  telemetry::trace(telemetry::Ev::kRecoveryPhase, 3,
                   clock_->load(std::memory_order_relaxed));
  region->dump_trace_annex();
  return result;
}

// ---- thread-local plumbing for the field macros -------------------------------

EpochSys* EpochSys::tls_current() { return tls_esys; }

void EpochSys::tls_osn_check(const PBlk* p) {
  if (tls_esys != nullptr) tls_esys->osn_check(p);
}

PBlk* EpochSys::tls_ensure_writable(PBlk* p) {
  assert(tls_esys != nullptr && "set_* requires an active operation");
  return tls_esys->ensure_writable(p);
}

void EpochSys::tls_register_write(PBlk* p) {
  assert(tls_esys != nullptr);
  tls_esys->register_write(p);
}

}  // namespace montage
