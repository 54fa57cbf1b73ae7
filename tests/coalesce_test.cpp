// Write-back of payloads re-written within one epoch: a back-to-back
// re-write of the same PBlk stays one to_persist entry (the ring's newest
// entry is updated in place), and a re-write with other writes in between
// recovers its last value under every write-back mode.
#include <gtest/gtest.h>

#include "montage/recoverable.hpp"
#include "tests/test_env.hpp"

namespace montage {
namespace {

using testing::PersistentEnv;

struct Pair : public PBlk {
  GENERATE_FIELD(uint64_t, a, Pair);
  GENERATE_FIELD(uint64_t, b, Pair);
};

EpochSys::Options manual() {
  EpochSys::Options o;
  o.start_advancer = false;
  return o;
}

/// The same PBlk written twice in one epoch: back to back, the re-write
/// flushes no extra line at the boundary; with another block's write in
/// between, both values still recover after a crash — the LAST one wins.
TEST(Coalesce, SameBlockTwiceOneEpochDedupsAndRecovers) {
  auto lines_for = [](bool rewrite) -> uint64_t {
    PersistentEnv env(8ull << 20, manual());
    EpochSys* es = env.esys();
    es->begin_op();
    Pair* p = es->pnew<Pair>();
    p = p->set_a(1);
    if (rewrite) p = p->set_b(3);  // newest ring entry: updated in place
    es->end_op();
    es->sync();
    return env.region()->stats().lines_flushed;
  };
  EXPECT_EQ(lines_for(true), lines_for(false))
      << "a back-to-back re-write of the same PBlk must not persist it twice";

  PersistentEnv env(8ull << 20, manual());
  EpochSys* es = env.esys();
  es->begin_op();
  Pair* p = es->pnew<Pair>();
  p = p->set_a(1);
  Pair* q = es->pnew<Pair>();
  q = q->set_a(2);
  p = p->set_b(3);  // re-write of p, with q registered in between
  es->end_op();
  es->sync();
  auto survivors = env.crash_and_recover(1, manual());
  ASSERT_EQ(survivors.size(), 2u);
  uint64_t sum_a = 0, sum_b = 0;
  for (PBlk* blk : survivors) {
    auto* r = static_cast<Pair*>(blk);
    sum_a += r->get_unsafe_a();
    sum_b += r->get_unsafe_b();
  }
  EXPECT_EQ(sum_a, 3u);  // 1 + 2: both payloads durable
  EXPECT_EQ(sum_b, 3u);  // the re-written field survived
}

/// Every write-back mode must keep the synced-state-survives guarantee for
/// payloads re-written within the epoch that created them.
TEST(Coalesce, AllWriteBackModesRecoverWithCoalescing) {
  for (WriteBack wb :
       {WriteBack::kBuffered, WriteBack::kPerOp, WriteBack::kImmediate}) {
    EpochSys::Options o = manual();
    o.write_back = wb;
    PersistentEnv env(8ull << 20, o);
    EpochSys* es = env.esys();
    for (int i = 0; i < 8; ++i) {
      es->begin_op();
      Pair* p = es->pnew<Pair>();
      p = p->set_a(static_cast<uint64_t>(i));
      p = p->set_b(static_cast<uint64_t>(i) * 2);  // same-epoch re-write
      es->end_op();
    }
    es->sync();
    auto survivors = env.crash_and_recover(1, o);
    ASSERT_EQ(survivors.size(), 8u)
        << "write-back mode " << static_cast<int>(wb);
    uint64_t sum_b = 0;
    for (PBlk* blk : survivors) sum_b += static_cast<Pair*>(blk)->get_unsafe_b();
    EXPECT_EQ(sum_b, 56u)  // 2 * (0 + 1 + ... + 7): every re-write survived
        << "write-back mode " << static_cast<int>(wb);
  }
}

}  // namespace
}  // namespace montage
