// Nonblocking Montage MS queue: FIFO semantics under concurrency and epoch
// storms, and recovery ordering.
#include "ds/montage_msqueue.hpp"

#include <gtest/gtest.h>

#include <set>
#include <thread>

#include "tests/test_env.hpp"

namespace montage {
namespace {

using ds::MontageMSQueue;
using testing::PersistentEnv;

EpochSys::Options no_advancer() {
  EpochSys::Options o;
  o.start_advancer = false;
  return o;
}

class MsQueueTest : public ::testing::Test {
 protected:
  MsQueueTest() : env_(64 << 20, no_advancer()) {
    q_ = std::make_unique<MontageMSQueue<uint64_t>>(env_.esys());
  }
  PersistentEnv env_;
  std::unique_ptr<MontageMSQueue<uint64_t>> q_;
};

TEST_F(MsQueueTest, FifoOrder) {
  q_->enqueue(1);
  q_->enqueue(2);
  q_->enqueue(3);
  EXPECT_EQ(*q_->dequeue(), 1u);
  EXPECT_EQ(*q_->dequeue(), 2u);
  EXPECT_EQ(*q_->dequeue(), 3u);
  EXPECT_FALSE(q_->dequeue().has_value());
  EXPECT_TRUE(q_->empty());
}

TEST_F(MsQueueTest, InterleavedAcrossEpochs) {
  q_->enqueue(1);
  env_.esys()->advance_epoch();
  q_->enqueue(2);
  EXPECT_EQ(*q_->dequeue(), 1u);
  env_.esys()->advance_epoch();
  q_->enqueue(3);
  EXPECT_EQ(*q_->dequeue(), 2u);
  EXPECT_EQ(*q_->dequeue(), 3u);
}

TEST_F(MsQueueTest, ConcurrentConservationUnderEpochStorm) {
  std::atomic<bool> stop{false};
  std::thread storm([&] {
    while (!stop.load(std::memory_order_relaxed)) env_.esys()->advance_epoch();
  });
  constexpr int kThreads = 3, kPer = 400;
  std::atomic<uint64_t> sum{0};
  std::atomic<int> count{0};
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      for (int i = 1; i <= kPer; ++i) {
        q_->enqueue(static_cast<uint64_t>(t) * 100000 + i);
        if (i % 2 == 0) {
          if (auto v = q_->dequeue()) {
            sum.fetch_add(*v);
            count.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& th : ts) th.join();
  stop.store(true);
  storm.join();
  while (auto v = q_->dequeue()) {
    sum.fetch_add(*v);
    count.fetch_add(1);
  }
  uint64_t expect = 0;
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 1; i <= kPer; ++i) expect += static_cast<uint64_t>(t) * 100000 + i;
  }
  EXPECT_EQ(count.load(), kThreads * kPer);
  EXPECT_EQ(sum.load(), expect);
}

TEST_F(MsQueueTest, PerProducerOrderIsPreserved) {
  // FIFO per producer: a consumer never sees producer t's items reordered.
  constexpr int kProducers = 2, kPer = 500;
  std::vector<std::thread> ts;
  for (int t = 0; t < kProducers; ++t) {
    ts.emplace_back([&, t] {
      for (int i = 0; i < kPer; ++i) {
        q_->enqueue(static_cast<uint64_t>(t) * 100000 + i);
      }
    });
  }
  for (auto& th : ts) th.join();
  uint64_t last_seen[kProducers];
  bool seen_any[kProducers] = {};
  while (auto v = q_->dequeue()) {
    const int t = static_cast<int>(*v / 100000);
    const uint64_t i = *v % 100000;
    if (seen_any[t]) {
      EXPECT_GT(i, last_seen[t]);
    }
    last_seen[t] = i;
    seen_any[t] = true;
  }
}

TEST_F(MsQueueTest, RecoversFifoAfterCrash) {
  for (uint64_t i = 1; i <= 20; ++i) q_->enqueue(i);
  for (int i = 0; i < 5; ++i) q_->dequeue();
  env_.esys()->sync();
  q_->enqueue(999);  // lost
  q_->dequeue();     // rolled back
  auto survivors = env_.crash_and_recover();
  MontageMSQueue<uint64_t> rec(env_.esys());
  rec.recover(survivors);
  for (uint64_t i = 6; i <= 20; ++i) {
    auto v = rec.dequeue();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_TRUE(rec.empty());
  // Serial numbers continue: new elements sort after recovered ones.
  rec.enqueue(1000);
  rec.enqueue(1001);
  EXPECT_EQ(*rec.dequeue(), 1000u);
}

TEST_F(MsQueueTest, EmptyRecovery) {
  q_->enqueue(1);
  q_->dequeue();
  env_.esys()->sync();
  auto survivors = env_.crash_and_recover();
  MontageMSQueue<uint64_t> rec(env_.esys());
  rec.recover(survivors);
  EXPECT_TRUE(rec.empty());
  rec.enqueue(5);
  EXPECT_EQ(*rec.dequeue(), 5u);
}

}  // namespace
}  // namespace montage
