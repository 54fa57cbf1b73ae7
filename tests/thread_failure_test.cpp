// Liveness under execution faults (DESIGN.md §8, §12): a thread parked
// mid-op is adopted and the epoch clock keeps moving; an abort racing an
// adoption rolls the op back exactly once; a killed advancer
// costs nothing — workers tick the clock cooperatively and sync() drives
// its own bounded advances; sync(deadline) returns instead of
// hanging on a wedged peer; transient EIO is retried and, when it will not
// clear, surfaces as a typed PersistError; allocation failure triggers an
// emergency advance-and-reclaim pass before giving up.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <thread>
#include <vector>

#include "ds/montage_stack.hpp"
#include "tests/test_env.hpp"
#include "util/timing.hpp"

namespace montage {
namespace {

using testing::PersistentEnv;
using Payload = ds::MontageStack<uint64_t>::Payload;
constexpr uint32_t kTag = ds::MontageStack<uint64_t>::kPayloadTag;

void sleep_ms(uint64_t ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

/// Spin until `pred` holds or `ms` elapse; returns pred's final value.
template <typename Pred>
bool eventually(Pred pred, uint64_t ms = 10'000) {
  const auto end = std::chrono::steady_clock::now() +
                   std::chrono::milliseconds(ms);
  while (!pred()) {
    if (std::chrono::steady_clock::now() > end) return false;
    sleep_ms(1);
  }
  return true;
}

TEST(ThreadFailure, OrphanAdoptionKeepsClockMoving) {
  EpochSys::Options o;
  o.epoch_length_ns = 2'000'000;   // 2 ms epochs
  o.op_deadline_ns = 20'000'000;   // adopt after 20 ms in one op
  PersistentEnv env(64 << 20, o);
  EpochSys* es = env.esys();

  std::atomic<bool> release{false};
  std::atomic<bool> wedged{false};
  std::atomic<uint64_t> orphan_epoch{0};
  std::atomic<bool> orphan_saw_adoption{false};
  std::thread orphan([&] {
    const uint64_t e = es->begin_op();
    Payload* p = es->pnew<Payload>(1000, 1);  // must NOT survive adoption
    p->set_blk_tag(kTag);
    orphan_epoch.store(e);
    wedged.store(true);
    while (!release.load()) sleep_ms(1);  // "failed" mid-operation
    es->end_op();                         // silently cleans the adopted op
    orphan_saw_adoption.store(es->last_op_adopted());
  });
  ASSERT_TRUE(eventually([&] { return wedged.load(); }));
  const uint64_t e0 = orphan_epoch.load();

  // The advancer must get past the wedged thread: the clock advancing three
  // epochs beyond the orphan's proves the adoption released its slot.
  EXPECT_TRUE(eventually([&] { return es->current_epoch() >= e0 + 3; }));
  EXPECT_GE(es->adopted_op_count(), 1u);

  // Durability is reachable again while the orphan is still wedged.
  for (uint64_t v = 0; v < 8; ++v) {
    es->begin_op();
    Payload* p = es->pnew<Payload>(v, v + 1);
    p->set_blk_tag(kTag);
    es->end_op();
  }
  EXPECT_TRUE(es->sync_for(5'000'000'000ull));

  release.store(true);
  orphan.join();
  EXPECT_TRUE(orphan_saw_adoption.load());

  // Post-crash state is prefix-consistent: the synced payloads survive, the
  // orphan's rolled-back payload does not.
  auto survivors = env.crash_and_recover();
  std::set<uint64_t> vals;
  for (PBlk* b : survivors) {
    auto* p = static_cast<Payload*>(b);
    if (p->blk_tag() == kTag) vals.insert(p->get_unsafe_val());
  }
  EXPECT_EQ(vals.count(1000), 0u) << "adopted op's payload was resurrected";
  for (uint64_t v = 0; v < 8; ++v) {
    EXPECT_EQ(vals.count(v), 1u) << "synced payload " << v << " lost";
  }
}

TEST(ThreadFailure, AbortRacingAdoptionRollsBackOnce) {
  // Every op outlives the adoption deadline and then aborts, so the owner's
  // abort_op and an advancer's adoption race for the same rollback. Exactly
  // one of them may run it: a second rollback would count an adoption the
  // owner never sees and drop the first one's reclamation entries.
  EpochSys::Options o;
  o.start_advancer = false;
  o.op_deadline_ns = 100'000;  // 100 us
  PersistentEnv env(64 << 20, o);
  EpochSys* es = env.esys();
  constexpr uint32_t kAbortedTag = kTag + 1;
  constexpr int kOps = 2'000;

  std::atomic<bool> done{false};
  std::thread advancer([&] {
    while (!done.load()) es->advance_epoch();
  });
  uint64_t seen_adopted = 0;
  for (int i = 0; i < kOps; ++i) {
    // Abort 0-15 us past the deadline (counted from just before begin_op),
    // yielding so that an adopter sharing this CPU gets to run: either side
    // may win each op.
    const uint64_t abort_at =
        util::now_ns() + o.op_deadline_ns + (i % 16) * 1'000;
    es->begin_op();
    try {
      Payload* p = es->pnew<Payload>(i, 1);
      p->set_blk_tag(kAbortedTag);
    } catch (const OrphanedOperationException&) {
      // Adoption won before the payload was registered.
    }
    while (util::now_ns() < abort_at) std::this_thread::yield();
    es->abort_op();
    if (es->last_op_adopted()) ++seen_adopted;
  }
  done.store(true);
  advancer.join();
  EXPECT_GT(seen_adopted, 0u) << "no adoption raced an abort";
  EXPECT_EQ(es->adopted_op_count(), seen_adopted)
      << "an adoption was counted that its owner never saw";

  es->begin_op();
  es->pnew<Payload>(kOps, 1)->set_blk_tag(kTag);
  es->end_op();
  es->sync();
  std::size_t aborted = 0, committed = 0;
  for (PBlk* b : env.crash_and_recover()) {
    if (b->blk_tag() == kAbortedTag) ++aborted;
    if (b->blk_tag() == kTag) ++committed;
  }
  EXPECT_EQ(aborted, 0u) << "an aborted op's payload survived the crash";
  EXPECT_EQ(committed, 1u);
}

TEST(ThreadFailure, CooperativeTickAfterAdvancerKill) {
  // The advancer dies and is NEVER restarted: workers observing the lagging
  // clock from begin_op tick it themselves, so the killed pacer costs
  // nothing but the pacing hint.
  EpochSys::Options o;
  o.epoch_length_ns = 1'000'000;  // 1 ms epochs
  o.watchdog_ns = 100'000'000;    // alarm far away: pacing must not need it
  PersistentEnv env(64 << 20, o);
  EpochSys* es = env.esys();
  ASSERT_TRUE(es->advancer_alive());
  telemetry::reset_metrics();  // isolate this test's advance counts

  es->inject_advancer_kill();
  ASSERT_TRUE(eventually([&] { return !es->advancer_alive(); }));
  const uint64_t c0 = es->current_epoch();

  EXPECT_TRUE(eventually([&] {
    es->begin_op();
    es->end_op();
    return es->current_epoch() >= c0 + 3;
  }));
  // Cooperative advance, not a resurrected thread, moved the clock.
  EXPECT_FALSE(es->advancer_alive());
  if (telemetry::kEnabled) {
    uint64_t coop = 0;
    for (const auto& c : telemetry::counters_snapshot()) {
      if (std::string(c.name) == "epoch.cooperative_advances") coop = c.value;
    }
    EXPECT_GE(coop, 3u);
  }
}

TEST(ThreadFailure, RegistrationsRacingBoundaryDrainsLoseNothing) {
  // Write-back registration must interleave safely with concurrent
  // boundary drains: each worker registers in-place writes while the
  // advancer (plus cooperative helpers) seals and drains the same epochs.
  // Race them and prove a trailing sync loses nothing.
  EpochSys::Options o;
  o.epoch_length_ns = 500'000;  // fast boundaries: drains race registrations
  PersistentEnv env(64 << 20, o);
  EpochSys* es = env.esys();
  telemetry::reset_metrics();

  constexpr int kWriters = 4;
  constexpr uint64_t kRounds = 200;
  std::vector<std::thread> ws;
  for (int t = 0; t < kWriters; ++t) {
    ws.emplace_back([&, t] {
      for (uint64_t i = 0; i < kRounds; ++i) {
        const uint64_t v = static_cast<uint64_t>(t) * 10'000 + i;
        es->begin_op();
        Payload* p = es->pnew<Payload>(v, 1);
        p->set_blk_tag(kTag);
        // In-place same-epoch write: a second registration of p.
        p->set_val(v);
        es->end_op();
      }
    });
  }
  for (auto& w : ws) w.join();
  EXPECT_TRUE(es->sync_for(5'000'000'000ull));

  // Every synced payload survives: every registration reached its ring
  // before its epoch's boundary drain.
  auto survivors = env.crash_and_recover(1, o);
  std::set<uint64_t> vals;
  for (PBlk* b : survivors) {
    auto* p = static_cast<Payload*>(b);
    if (p->blk_tag() == kTag) vals.insert(p->get_unsafe_val());
  }
  for (int t = 0; t < kWriters; ++t) {
    for (uint64_t i = 0; i < kRounds; ++i) {
      const uint64_t v = static_cast<uint64_t>(t) * 10'000 + i;
      EXPECT_EQ(vals.count(v), 1u) << "payload " << v << " lost";
    }
  }
}

TEST(ThreadFailure, BoundedSyncWithDeadAdvancer) {
  // sync() is a helping protocol: with the advancer killed and nobody else
  // running operations, sync_for must still reach durability inside its
  // documented bound — at most two cooperative advances of its own.
  EpochSys::Options o;
  o.epoch_length_ns = 1'000'000;
  PersistentEnv env(64 << 20, o);
  EpochSys* es = env.esys();

  es->inject_advancer_kill();
  ASSERT_TRUE(eventually([&] { return !es->advancer_alive(); }));

  for (uint64_t v = 0; v < 4; ++v) {
    es->begin_op();
    Payload* p = es->pnew<Payload>(v, v + 1);
    p->set_blk_tag(kTag);
    es->end_op();
  }
  const uint64_t c0 = es->current_epoch();
  const uint64_t s0 = util::now_ns();
  EXPECT_TRUE(es->sync_for(2'000'000'000ull));
  const uint64_t sync_ns = util::now_ns() - s0;
  // Generous wall-clock ceiling (the protocol bound is two advance
  // pipelines; 500 ms only fails if sync actually waited on a pacer).
  EXPECT_LT(sync_ns, 500'000'000ull) << "sync waited on a dead advancer";
  EXPECT_GE(es->current_epoch(), c0 + 2) << "sync did not drive the clock";
  EXPECT_FALSE(es->advancer_alive());

  auto survivors = env.crash_and_recover();
  std::set<uint64_t> vals;
  for (PBlk* b : survivors) {
    auto* p = static_cast<Payload*>(b);
    if (p->blk_tag() == kTag) vals.insert(p->get_unsafe_val());
  }
  for (uint64_t v = 0; v < 4; ++v) {
    EXPECT_EQ(vals.count(v), 1u) << "synced payload " << v << " lost";
  }
}

TEST(ThreadFailure, BoundedSyncTimesOutOnWedgedPeer) {
  EpochSys::Options o;
  o.start_advancer = false;  // adoption off, manual clock: the peer wedges it
  PersistentEnv env(64 << 20, o);
  EpochSys* es = env.esys();

  std::atomic<bool> release{false};
  std::atomic<bool> wedged{false};
  std::thread peer([&] {
    es->begin_op();
    wedged.store(true);
    while (!release.load()) sleep_ms(1);
    es->end_op();
  });
  ASSERT_TRUE(eventually([&] { return wedged.load(); }));

  // With no deadline-based adoption, sync cannot pass the peer's epoch —
  // the bounded form reports that instead of hanging forever.
  EXPECT_FALSE(es->sync_for(50'000'000ull));  // 50 ms

  release.store(true);
  peer.join();
  EXPECT_TRUE(es->sync_for(5'000'000'000ull));
}

TEST(ThreadFailure, TransientEioRetriesThrough) {
  EpochSys::Options o;
  o.start_advancer = false;
  PersistentEnv env(64 << 20, o);
  EpochSys* es = env.esys();

  es->begin_op();
  Payload* p = es->pnew<Payload>(7, 1);
  p->set_blk_tag(kTag);
  es->end_op();

  // The next three persistence events fail with EIO; retries march through
  // the window (wb_max_retries defaults to 8) and sync still succeeds.
  nvm::Region* r = env.region();
  r->fail_events(r->persistence_events() + 1, 3);
  EXPECT_NO_THROW(es->sync());
  r->clear_eio_schedule();

  auto survivors = env.crash_and_recover();
  bool found = false;
  for (PBlk* b : survivors) {
    auto* q = static_cast<Payload*>(b);
    if (q->blk_tag() == kTag && q->get_unsafe_val() == 7) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(ThreadFailure, ExhaustedEioSurfacesAsPersistError) {
  EpochSys::Options o;
  o.start_advancer = false;
  o.wb_max_retries = 2;
  o.wb_backoff_ns = 100;
  PersistentEnv env(64 << 20, o);
  EpochSys* es = env.esys();

  es->begin_op();
  es->pnew<Payload>(9, 1)->set_blk_tag(kTag);
  es->end_op();

  nvm::Region* r = env.region();
  r->fail_events(r->persistence_events() + 1, 1'000'000);  // will not clear
  EXPECT_THROW(es->sync(), PersistError);

  // The failure is transient to the system: clearing the fault leaves the
  // epoch system fully usable and the payloads still queued for write-back.
  r->clear_eio_schedule();
  EXPECT_NO_THROW(es->sync());
  es->begin_op();
  EXPECT_TRUE(es->check_epoch());
  es->end_op();
}

TEST(ThreadFailure, AllocationBackpressureReclaimsAndRetries) {
  // 2 MiB arena, ~120 x 16 KB payloads of capacity, 300 allocate+delete
  // rounds: without the emergency advance-and-reclaim pass in
  // allocate_payload the arena fills with immature garbage and PNEW throws.
  EpochSys::Options o;
  o.start_advancer = false;
  PersistentEnv env(2 << 20, o);
  EpochSys* es = env.esys();
  struct Big : public PBlk {
    char data[16000];
  };
  EXPECT_NO_THROW({
    for (int i = 0; i < 300; ++i) {
      Big* b = es->pnew<Big>();  // pre-op allocation (paper §3.1)
      es->begin_op();
      es->pdelete(b);
      es->end_op();
    }
  });
  EXPECT_NO_THROW(es->sync());
}

TEST(ThreadFailure, StopAdvancerIsIdempotent) {
  EpochSys::Options o;
  PersistentEnv env(16 << 20, o);
  EpochSys* es = env.esys();
  ASSERT_TRUE(es->advancer_alive());

  es->stop_advancer();
  EXPECT_FALSE(es->advancer_alive());
  es->stop_advancer();  // double stop: no-op
  EXPECT_FALSE(es->advancer_alive());

  es->start_advancer();
  EXPECT_TRUE(es->advancer_alive());

  // Concurrent stops race each other and the advancer itself.
  std::vector<std::thread> stoppers;
  for (int i = 0; i < 4; ++i) {
    stoppers.emplace_back([&] { es->stop_advancer(); });
  }
  for (auto& t : stoppers) t.join();
  EXPECT_FALSE(es->advancer_alive());
  // Destructor stops again — covered by env teardown.
}

TEST(ThreadFailure, StopBeforeStartIsSafe) {
  EpochSys::Options o;
  o.start_advancer = false;
  PersistentEnv env(16 << 20, o);
  EpochSys* es = env.esys();
  EXPECT_FALSE(es->advancer_alive());
  es->stop_advancer();  // nothing was ever started
  EXPECT_FALSE(es->advancer_alive());
  EXPECT_NO_THROW(es->advance_epoch());
}

}  // namespace
}  // namespace montage
