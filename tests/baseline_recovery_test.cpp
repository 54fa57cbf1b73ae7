// Crash-recovery tests for the baseline systems that support it: the
// Friedman et al. durable queue (strict DL: every completed operation
// survives) and Dalí (buffered: the two-period rule).
#include <gtest/gtest.h>

#include "baselines/dali_hashmap.hpp"
#include "baselines/friedman_queue.hpp"
#include "baselines/soft_hashmap.hpp"
#include "tests/test_env.hpp"
#include "util/inline_str.hpp"

namespace montage {
namespace {

using namespace baselines;
using testing::PersistentEnv;
using Key = util::InlineStr<32>;
using Val = util::InlineStr<64>;

// The baselines never touch the EpochSys, and these tests call
// simulate_crash() directly: a live advancer would race the image restore.
EpochSys::Options no_advancer() {
  EpochSys::Options o;
  o.start_advancer = false;
  return o;
}

class BaselineRecoveryTest : public ::testing::Test {
 protected:
  BaselineRecoveryTest() : env_(128 << 20, no_advancer()) {}
  PersistentEnv env_;
};

TEST_F(BaselineRecoveryTest, FriedmanEveryCompletedOpSurvives) {
  {
    FriedmanQueue<Val> q(env_.ral());
    for (int i = 0; i < 10; ++i) q.enqueue(Val(std::to_string(i)));
    for (int i = 0; i < 4; ++i) q.dequeue();
    // Strict durable linearizability: no sync needed — completed
    // operations are already persistent.
  }
  env_.region()->simulate_crash();
  ralloc::Ralloc rec_ral(env_.region(), ralloc::Ralloc::Mode::kRecover);
  FriedmanQueue<Val> rec(&rec_ral, FriedmanQueue<Val>::RecoverTag{});
  for (int i = 4; i < 10; ++i) {
    auto v = rec.dequeue();
    ASSERT_TRUE(v.has_value()) << i;
    EXPECT_EQ(v->str(), std::to_string(i));
  }
  EXPECT_TRUE(rec.empty());
}

TEST_F(BaselineRecoveryTest, FriedmanRecoveredQueueIsOperational) {
  {
    FriedmanQueue<uint64_t> q(env_.ral());
    q.enqueue(1);
    q.enqueue(2);
  }
  env_.region()->simulate_crash();
  ralloc::Ralloc rec_ral(env_.region(), ralloc::Ralloc::Mode::kRecover);
  FriedmanQueue<uint64_t> rec(&rec_ral, FriedmanQueue<uint64_t>::RecoverTag{});
  rec.enqueue(3);
  EXPECT_EQ(*rec.dequeue(), 1u);
  EXPECT_EQ(*rec.dequeue(), 2u);
  EXPECT_EQ(*rec.dequeue(), 3u);
}

TEST_F(BaselineRecoveryTest, FriedmanCrashMidStreamKeepsPrefix) {
  // Without the final fence of an in-flight enqueue the linked suffix may
  // be cut short, but everything a completed op produced must be there.
  {
    FriedmanQueue<uint64_t> q(env_.ral());
    for (uint64_t i = 1; i <= 50; ++i) q.enqueue(i);
    for (int i = 0; i < 20; ++i) q.dequeue();
  }
  env_.region()->simulate_crash();
  ralloc::Ralloc rec_ral(env_.region(), ralloc::Ralloc::Mode::kRecover);
  FriedmanQueue<uint64_t> rec(&rec_ral, FriedmanQueue<uint64_t>::RecoverTag{});
  for (uint64_t i = 21; i <= 50; ++i) EXPECT_EQ(*rec.dequeue(), i);
  EXPECT_FALSE(rec.dequeue().has_value());
}

TEST_F(BaselineRecoveryTest, DaliTwoPeriodRule) {
  {
    DaliHashMap<Key, Val> m(env_.ral(), 64, 10'000'000, /*background=*/false);
    m.put("old", "durable");
    m.persist_pass();  // period p: flushes "old"
    m.persist_pass();  // period p+1: "old" is now 2 periods back
    m.put("recent", "maybe");   // current period: rolled back at crash
    m.remove("old");            // also rolled back
  }
  env_.region()->simulate_crash();
  ralloc::Ralloc rec_ral(env_.region(), ralloc::Ralloc::Mode::kRecover);
  DaliHashMap<Key, Val> rec(&rec_ral, 64, 10'000'000, false);
  rec.recover();
  EXPECT_EQ(rec.get("old")->str(), "durable");
  EXPECT_FALSE(rec.get("recent").has_value());
  EXPECT_EQ(rec.size(), 1u);
}

TEST_F(BaselineRecoveryTest, DaliNewestDurableVersionWins) {
  {
    DaliHashMap<Key, Val> m(env_.ral(), 64, 10'000'000, false);
    m.put("k", "v1");
    m.persist_pass();
    m.put("k", "v2");
    m.persist_pass();
    m.persist_pass();  // v2's period is now durable beyond the crash window
    m.put("k", "v3");  // lost
  }
  env_.region()->simulate_crash();
  ralloc::Ralloc rec_ral(env_.region(), ralloc::Ralloc::Mode::kRecover);
  DaliHashMap<Key, Val> rec(&rec_ral, 64, 10'000'000, false);
  rec.recover();
  EXPECT_EQ(rec.get("k")->str(), "v2");
}

TEST_F(BaselineRecoveryTest, DaliDurableTombstoneDeletes) {
  {
    DaliHashMap<Key, Val> m(env_.ral(), 64, 10'000'000, false);
    m.put("k", "v");
    m.persist_pass();
    m.remove("k");
    m.persist_pass();
    m.persist_pass();
  }
  env_.region()->simulate_crash();
  ralloc::Ralloc rec_ral(env_.region(), ralloc::Ralloc::Mode::kRecover);
  DaliHashMap<Key, Val> rec(&rec_ral, 64, 10'000'000, false);
  rec.recover();
  EXPECT_FALSE(rec.get("k").has_value());
  EXPECT_EQ(rec.size(), 0u);
}

TEST_F(BaselineRecoveryTest, DaliRecoveredMapIsOperational) {
  {
    DaliHashMap<Key, Val> m(env_.ral(), 64, 10'000'000, false);
    for (int i = 0; i < 30; ++i) m.put(Key(std::to_string(i)), Val("v"));
    m.persist_pass();
    m.persist_pass();
  }
  env_.region()->simulate_crash();
  ralloc::Ralloc rec_ral(env_.region(), ralloc::Ralloc::Mode::kRecover);
  DaliHashMap<Key, Val> rec(&rec_ral, 64, 10'000'000, false);
  rec.recover();
  EXPECT_EQ(rec.size(), 30u);
  rec.put("31", "new");
  rec.persist_pass();
  rec.persist_pass();
  EXPECT_EQ(rec.get("31")->str(), "new");
  EXPECT_EQ(rec.remove("0")->str(), "v");
}

TEST_F(BaselineRecoveryTest, SoftRecoveryAfterChurn) {
  {
    SoftHashMap<Key, Val> m(env_.ral(), 64);
    for (int i = 0; i < 50; ++i) m.insert(Key(std::to_string(i)), Val("v"));
    for (int i = 0; i < 50; i += 2) m.remove(Key(std::to_string(i)));
    env_.region()->fence();  // order the outstanding validity flushes
  }
  env_.region()->simulate_crash();
  ralloc::Ralloc rec_ral(env_.region(), ralloc::Ralloc::Mode::kRecover);
  SoftHashMap<Key, Val> rec(&rec_ral, 64);
  rec.recover();
  EXPECT_EQ(rec.size(), 25u);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(rec.get(Key(std::to_string(i))).has_value(), i % 2 == 1) << i;
  }
}

}  // namespace
}  // namespace montage
