// Core EpochSys behaviour: operation lifecycle, epoch labeling, in-place vs
// clone updates, PDELETE/anti-payloads, sync, and the write-back modes.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "montage/recoverable.hpp"
#include "tests/test_env.hpp"

namespace montage {
namespace {

using testing::PersistentEnv;

struct IntPayload : public PBlk {
  GENERATE_FIELD(uint64_t, val, IntPayload);
  GENERATE_FIELD(uint64_t, key, IntPayload);
};
static_assert(std::is_trivially_copyable_v<IntPayload>);

EpochSys::Options no_advancer() {
  EpochSys::Options o;
  o.start_advancer = false;  // tests drive the clock explicitly
  return o;
}

TEST(EpochSys, ClockStartsAndAdvances) {
  PersistentEnv env(64 << 20, no_advancer());
  const uint64_t e0 = env.esys()->current_epoch();
  env.esys()->advance_epoch();
  EXPECT_EQ(env.esys()->current_epoch(), e0 + 1);
}

TEST(EpochSys, BeginOpRegistersCurrentEpoch) {
  PersistentEnv env(64 << 20, no_advancer());
  EpochSys* es = env.esys();
  const uint64_t e = es->begin_op();
  EXPECT_EQ(e, es->current_epoch());
  EXPECT_TRUE(es->in_op());
  EXPECT_TRUE(es->check_epoch());
  es->end_op();
  EXPECT_FALSE(es->in_op());
}

TEST(EpochSys, CheckEpochFailsAfterAdvance) {
  PersistentEnv env(64 << 20, no_advancer());
  EpochSys* es = env.esys();
  es->begin_op();
  // The operation itself blocks wait_all for its epoch... advance from a
  // peer thread would spin; instead verify via a manual clock comparison.
  // advance waits only for epoch e-1, so one advance can complete even with
  // this op active in e.
  std::thread t([&] { es->advance_epoch(); });
  t.join();
  EXPECT_FALSE(es->check_epoch());
  EXPECT_THROW(es->check_epoch_or_throw(), EpochVerifyException);
  es->end_op();
}

TEST(EpochSys, PnewLabelsWithOpEpoch) {
  PersistentEnv env(64 << 20, no_advancer());
  EpochSys* es = env.esys();
  const uint64_t e = es->begin_op();
  IntPayload* p = es->pnew<IntPayload>();
  EXPECT_EQ(p->blk_epoch(), e);
  EXPECT_EQ(p->blk_type(), BlkType::kAlloc);
  EXPECT_TRUE(p->blk_live());
  es->end_op();
}

TEST(EpochSys, EarlyPnewIsAdoptedByBeginOp) {
  PersistentEnv env(64 << 20, no_advancer());
  EpochSys* es = env.esys();
  IntPayload* p = es->pnew<IntPayload>();  // before BEGIN_OP (paper §3.1)
  EXPECT_EQ(p->blk_epoch(), kNoEpoch);
  const uint64_t e = es->begin_op();
  EXPECT_EQ(p->blk_epoch(), e);
  EXPECT_EQ(p->blk_type(), BlkType::kAlloc);
  es->end_op();
}

TEST(EpochSys, UidsAreUnique) {
  PersistentEnv env(64 << 20, no_advancer());
  EpochSys* es = env.esys();
  es->begin_op();
  IntPayload* a = es->pnew<IntPayload>();
  IntPayload* b = es->pnew<IntPayload>();
  EXPECT_NE(a->blk_uid(), b->blk_uid());
  es->end_op();
}

TEST(EpochSys, SetInPlaceWithinCreatingEpoch) {
  PersistentEnv env(64 << 20, no_advancer());
  EpochSys* es = env.esys();
  es->begin_op();
  IntPayload* p = es->pnew<IntPayload>();
  IntPayload* q = p->set_val(7);
  EXPECT_EQ(q, p);  // same epoch: modified in place
  EXPECT_EQ(p->get_val(), 7u);
  es->end_op();
}

TEST(EpochSys, SetClonesAcrossEpochs) {
  PersistentEnv env(64 << 20, no_advancer());
  EpochSys* es = env.esys();
  es->begin_op();
  IntPayload* p = es->pnew<IntPayload>();
  p->set_val(1);
  p->set_key(99);
  es->end_op();
  es->advance_epoch();

  const uint64_t e2 = es->begin_op();
  IntPayload* q = p->set_val(2);
  EXPECT_NE(q, p);  // older epoch: cloned
  EXPECT_EQ(q->blk_epoch(), e2);
  EXPECT_EQ(q->blk_type(), BlkType::kUpdate);
  EXPECT_EQ(q->blk_uid(), p->blk_uid());  // same logical object
  EXPECT_EQ(q->get_val(), 2u);
  EXPECT_EQ(q->get_key(), 99u);  // untouched fields carried over
  // Further sets in the same epoch hit the clone in place.
  EXPECT_EQ(q->set_val(3), q);
  es->end_op();
}

TEST(EpochSys, OldSeeNewRaisedForFuturePayload) {
  PersistentEnv env(64 << 20, no_advancer());
  EpochSys* es = env.esys();
  es->begin_op();  // this operation is pinned to epoch e
  IntPayload* p = es->pnew<IntPayload>();
  // The epoch may tick while the operation is active (advance only waits
  // for e-1); a peer then creates a payload in e+1.
  es->advance_epoch();
  IntPayload* q = nullptr;
  std::thread peer([&] {
    es->begin_op();
    q = es->pnew<IntPayload>();
    q->set_val(1);
    es->end_op();
  });
  peer.join();
  (void)p->get_val();  // own-epoch payload: fine
  EXPECT_THROW((void)q->get_val(), OldSeeNewException);
  EXPECT_EQ(q->get_unsafe_val(), 1u);  // alert disabled (paper Fig. 1)
  EXPECT_THROW(es->pdelete(q), OldSeeNewException);
  es->end_op();
}

TEST(EpochSys, GetOutsideOperationSkipsAlert) {
  PersistentEnv env(64 << 20, no_advancer());
  EpochSys* es = env.esys();
  es->begin_op();
  IntPayload* p = es->pnew<IntPayload>();
  p->set_val(5);
  es->end_op();
  // Read-only access without BEGIN_OP (paper: gets are invisible to
  // recovery and may run outside operations).
  EXPECT_EQ(p->get_val(), 5u);
  EXPECT_EQ(p->get_unsafe_val(), 5u);
}

TEST(EpochSys, PdeleteCreatesAntiPayloadForOldPayload) {
  PersistentEnv env(64 << 20, no_advancer());
  EpochSys* es = env.esys();
  es->begin_op();
  IntPayload* p = es->pnew<IntPayload>();
  es->end_op();
  es->advance_epoch();
  es->begin_op();
  es->pdelete(p);
  es->end_op();
  // The victim itself is untouched until reclamation (still live in NVM).
  EXPECT_TRUE(p->blk_live());
  EXPECT_EQ(p->blk_type(), BlkType::kAlloc);
}

TEST(EpochSys, PdeleteSameEpochSelfNullifies) {
  PersistentEnv env(64 << 20, no_advancer());
  EpochSys* es = env.esys();
  es->begin_op();
  IntPayload* p = es->pnew<IntPayload>();
  es->pdelete(p);
  EXPECT_EQ(p->blk_type(), BlkType::kDelete);
  es->end_op();
}

TEST(EpochSys, ReclamationWaitsOutTheGracePeriod) {
  // A payload deleted in epoch e is reclaimed at the advance from e+2 to
  // e+3 (paper §3.2), i.e. the third advance after the delete.
  PersistentEnv env(64 << 20, no_advancer());
  EpochSys* es = env.esys();
  es->begin_op();
  IntPayload* p = es->pnew<IntPayload>();
  es->pdelete(p);
  es->end_op();
  es->advance_epoch();  // e   -> e+1
  EXPECT_TRUE(p->blk_live());
  es->advance_epoch();  // e+1 -> e+2
  EXPECT_TRUE(p->blk_live());
  es->advance_epoch();  // e+2 -> e+3: grace period over
  EXPECT_FALSE(p->blk_live());
}

TEST(EpochSys, SyncAdvancesTwoEpochs) {
  PersistentEnv env(64 << 20, no_advancer());
  EpochSys* es = env.esys();
  es->begin_op();
  es->pnew<IntPayload>()->set_val(1);
  es->end_op();
  const uint64_t e = es->current_epoch();
  es->sync();
  EXPECT_GE(es->current_epoch(), e + 2);
}

TEST(EpochSys, PersistedFrontierTracksClock) {
  PersistentEnv env(64 << 20, no_advancer());
  EpochSys* es = env.esys();
  const uint64_t e = es->current_epoch();
  EXPECT_EQ(es->persisted_frontier(), e - 2);
  es->advance_epoch();
  EXPECT_EQ(es->persisted_frontier(), e - 1);
}

TEST(EpochSys, BackgroundAdvancerTicks) {
  EpochSys::Options o;
  o.start_advancer = true;
  o.epoch_length_ns = 1'000'000;  // 1 ms
  PersistentEnv env(64 << 20, o);
  const uint64_t e0 = env.esys()->current_epoch();
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(5);
  while (env.esys()->current_epoch() < e0 + 3 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(env.esys()->current_epoch(), e0 + 3);
}

TEST(EpochSys, TransientModeElidesPersistence) {
  EpochSys::Options o;
  o.transient = true;
  o.start_advancer = false;
  PersistentEnv env(64 << 20, o, nvm::PersistMode::kPassthrough);
  EpochSys* es = env.esys();
  // Warm up: the first allocation of a size class flushes its superblock
  // descriptor — that is Ralloc's doing and happens in every configuration.
  es->begin_op();
  es->pdelete(es->pnew<IntPayload>());
  es->end_op();
  env.region()->reset_stats();
  es->begin_op();
  IntPayload* p = es->pnew<IntPayload>();
  p->set_val(3);
  EXPECT_EQ(p->set_val(4), p);  // always in place
  es->pdelete(p);
  es->end_op();
  es->sync();  // no-op
  auto s = env.region()->stats();
  EXPECT_EQ(s.lines_flushed, 0u);
  EXPECT_EQ(s.fences, 0u);
}

TEST(EpochSys, ConcurrentSyncsAndOpsWithAdvancer) {
  // Workers run ops and sync()s concurrently while the background advancer
  // ticks fast — no deadlock, and every synced payload is durable.
  EpochSys::Options o;
  o.epoch_length_ns = 200'000;  // 0.2 ms
  PersistentEnv env(128 << 20, o);
  EpochSys* es = env.esys();
  constexpr int kThreads = 4;
  constexpr uint64_t kOps = 150;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      for (uint64_t i = 0; i < kOps; ++i) {
        es->begin_op();
        auto* p = es->pnew<IntPayload>();
        p->set_key((static_cast<uint64_t>(t) << 32) | i);
        p->set_val(i);
        es->end_op();
        if (i % 10 == 9) es->sync();
      }
      es->sync();
    });
  }
  for (auto& th : ts) th.join();
  auto survivors = env.crash_and_recover(2);
  EXPECT_EQ(survivors.size(), kThreads * kOps);
}

TEST(EpochSys, TimedOutSyncNeverSealsAnOpenOperation) {
  // A sync that times out on a peer's open operation must not write back
  // that operation's payloads: the owner may still change their headers
  // (set_blk_tag is not a registered write), and a header flushed with its
  // old checksum would be quarantined by recovery after the owner's own
  // sync had acknowledged the payload.
  PersistentEnv env(64 << 20, no_advancer());
  EpochSys* es = env.esys();
  constexpr uint32_t kTag = 0x7a6;
  std::atomic<int> step{0};
  std::thread owner([&] {
    es->begin_op();
    IntPayload* p = es->pnew<IntPayload>()->set_val(42);
    step.store(1);
    while (step.load() != 2) std::this_thread::yield();
    p->set_blk_tag(kTag);  // still the op's epoch: the header changes in place
    es->end_op();
    es->sync();
  });
  while (step.load() != 1) std::this_thread::yield();
  es->advance_epoch();
  EXPECT_FALSE(es->sync_for(1'000'000)) << "the owner's op is still open";
  step.store(2);
  owner.join();

  auto survivors = env.crash_and_recover(1, no_advancer());
  EXPECT_EQ(env.esys()->last_recovery_report().quarantined_corrupt, 0u);
  std::size_t tagged = 0;
  for (PBlk* b : survivors) {
    if (b->blk_tag() == kTag) {
      ++tagged;
      EXPECT_EQ(static_cast<IntPayload*>(b)->get_unsafe_val(), 42u);
    }
  }
  EXPECT_EQ(tagged, 1u) << "the acknowledged, tagged payload was lost";
}

TEST(EpochSys, BufferOverflowWritesBackIncrementally) {
  EpochSys::Options o = no_advancer();
  o.buffer_capacity = 4;
  PersistentEnv env(64 << 20, o);
  EpochSys* es = env.esys();
  env.region()->reset_stats();
  es->begin_op();
  std::vector<IntPayload*> ps;
  for (int i = 0; i < 10; ++i) ps.push_back(es->pnew<IntPayload>());
  es->end_op();
  // 10 payloads into a 4-slot ring: at least 6 incremental writes-back.
  EXPECT_GT(env.region()->stats().lines_flushed, 0u);
}

TEST(EpochSys, ZeroBufferCapacityIsRejected) {
  // A ring of capacity 0 would have to write back its front entry before it
  // ever held one.
  PersistentEnv env(64 << 20, no_advancer());
  EpochSys::Options o = no_advancer();
  o.buffer_capacity = 0;
  EXPECT_THROW({ EpochSys es(env.ral(), o); }, std::invalid_argument);
}

TEST(EpochSys, PerOpWriteBackFlushesAtEndOp) {
  EpochSys::Options o = no_advancer();
  o.write_back = WriteBack::kPerOp;
  PersistentEnv env(64 << 20, o);
  EpochSys* es = env.esys();
  // Warm up the uid batch (its high-water mark persists with a fence).
  es->begin_op();
  es->pnew<IntPayload>();
  es->end_op();
  env.region()->reset_stats();
  es->begin_op();
  es->pnew<IntPayload>()->set_val(1);
  EXPECT_EQ(env.region()->stats().fences, 0u);
  es->end_op();
  auto s = env.region()->stats();
  EXPECT_GT(s.lines_flushed, 0u);
  EXPECT_EQ(s.fences, 1u);
}

TEST(EpochSys, ImmediateWriteBackFlushesAtSet) {
  EpochSys::Options o = no_advancer();
  o.write_back = WriteBack::kImmediate;
  PersistentEnv env(64 << 20, o);
  EpochSys* es = env.esys();
  es->begin_op();
  es->pnew<IntPayload>();  // uid-batch warm-up
  es->end_op();
  env.region()->reset_stats();
  es->begin_op();
  es->pnew<IntPayload>();
  EXPECT_GT(env.region()->stats().lines_flushed, 0u);
  es->end_op();
  EXPECT_EQ(env.region()->stats().fences, 1u);
}

}  // namespace
}  // namespace montage
