// Exact write-back cost of fixed runs: the cache lines flushed and the
// fences issued by a 1 KB MontageQueue at 1:1 enqueue:dequeue and a 1 KB
// MontageHashMap at 2:1:1 get:insert:remove, the persistence-cost axis of
// Figs. 8 and 9. One thread, a fixed op stream and a manual clock advanced
// every 500 ops make both counts deterministic, so any change to what the
// write-back path flushes or fences moves them. A change that moves them on
// purpose updates the constants and says why in CHANGES.md.
#include <gtest/gtest.h>

#include <string>

#include "ds/montage_hashmap.hpp"
#include "ds/montage_queue.hpp"
#include "tests/test_env.hpp"
#include "util/inline_str.hpp"
#include "util/rand.hpp"

namespace montage {
namespace {

using testing::PersistentEnv;
using Value = util::InlineStr<1024>;

constexpr int kOps = 20'000;
constexpr int kOpsPerEpoch = 500;

struct Cost {
  uint64_t lines;
  uint64_t fences;
};

EpochSys::Options manual_clock() {
  EpochSys::Options o;
  o.start_advancer = false;
  return o;
}

/// Region stats across `kOps` calls of `op`, with the clock advanced every
/// kOpsPerEpoch ops and a sync() before and after, so both ends sit on a
/// durable boundary.
template <typename Op>
Cost measure(PersistentEnv& env, Op&& op) {
  EpochSys* es = env.esys();
  es->sync();
  const nvm::RegionStatsSnapshot before = env.region()->stats();
  for (int i = 1; i <= kOps; ++i) {
    op();
    if (i % kOpsPerEpoch == 0) es->advance_epoch();
  }
  es->sync();
  const nvm::RegionStatsSnapshot after = env.region()->stats();
  return {after.lines_flushed - before.lines_flushed,
          after.fences - before.fences};
}

TEST(WriteBackCost, QueueFlushesExactLineAndFenceCounts) {
  PersistentEnv env(64 << 20, manual_clock());
  ds::MontageQueue<Value> q(env.esys());
  const Value v(std::string(1023, 'x'));
  for (int i = 0; i < 64; ++i) q.enqueue(v);
  bool enqueue = false;
  const Cost c = measure(env, [&] {
    enqueue = !enqueue;
    if (enqueue) {
      q.enqueue(v);
    } else {
      q.dequeue();
    }
  });
  EXPECT_EQ(c.lines, 314'116u);
  EXPECT_EQ(c.fences, 132u);
}

TEST(WriteBackCost, HashMapFlushesExactLineAndFenceCounts) {
  constexpr uint64_t kKeys = 4096;
  PersistentEnv env(64 << 20, manual_clock());
  ds::MontageHashMap<uint64_t, Value> map(env.esys(), kKeys);
  const Value v(std::string(1023, 'x'));
  util::Xorshift128Plus rng(1);
  for (uint64_t loaded = 0; loaded < kKeys / 2;) {
    if (map.insert(rng.next_bounded(kKeys), v)) ++loaded;
  }
  const Cost c = measure(env, [&] {
    const uint64_t k = rng.next_bounded(kKeys);
    switch (rng.next_bounded(4)) {
      case 0:
      case 1:
        map.get(k);
        break;
      case 2:
        map.insert(k, v);
        break;
      default:
        map.remove(k);
    }
  });
  EXPECT_EQ(c.lines, 99'062u);
  EXPECT_EQ(c.fences, 127u);
}

}  // namespace
}  // namespace montage
