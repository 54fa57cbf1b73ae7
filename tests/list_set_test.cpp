// Nonblocking Montage sorted-list set: semantics, concurrency with epoch
// ticks, and recovery.
#include "ds/montage_list_set.hpp"

#include <gtest/gtest.h>

#include <set>
#include <thread>

#include "ds/montage_ordered_map.hpp"
#include "tests/test_env.hpp"
#include "util/rand.hpp"

namespace montage {
namespace {

using ds::MontageListSet;
using ds::MontageOrderedMap;
using testing::PersistentEnv;

EpochSys::Options no_advancer() {
  EpochSys::Options o;
  o.start_advancer = false;
  return o;
}

class ListSetTest : public ::testing::Test {
 protected:
  ListSetTest() : env_(64 << 20, no_advancer()) {
    s_ = std::make_unique<MontageListSet<uint64_t>>(env_.esys());
  }
  PersistentEnv env_;
  std::unique_ptr<MontageListSet<uint64_t>> s_;
};

TEST_F(ListSetTest, InsertContainsRemove) {
  EXPECT_TRUE(s_->insert(5));
  EXPECT_FALSE(s_->insert(5));
  EXPECT_TRUE(s_->contains(5));
  EXPECT_FALSE(s_->contains(6));
  EXPECT_TRUE(s_->remove(5));
  EXPECT_FALSE(s_->remove(5));
  EXPECT_FALSE(s_->contains(5));
}

TEST_F(ListSetTest, KeepsSortedOrderSemantics) {
  for (uint64_t k : {30, 10, 20, 40, 5}) EXPECT_TRUE(s_->insert(k));
  EXPECT_EQ(s_->size(), 5u);
  for (uint64_t k : {5, 10, 20, 30, 40}) EXPECT_TRUE(s_->contains(k));
  EXPECT_TRUE(s_->remove(20));
  EXPECT_EQ(s_->size(), 4u);
  EXPECT_FALSE(s_->contains(20));
  EXPECT_TRUE(s_->contains(30));
}

TEST_F(ListSetTest, OperationsAcrossEpochTicks) {
  s_->insert(1);
  env_.esys()->advance_epoch();
  s_->insert(2);
  env_.esys()->advance_epoch();
  EXPECT_TRUE(s_->remove(1));
  env_.esys()->advance_epoch();
  EXPECT_TRUE(s_->contains(2));
  EXPECT_FALSE(s_->contains(1));
}

TEST_F(ListSetTest, ConcurrentInsertersPartitionKeys) {
  constexpr int kThreads = 4;
  constexpr uint64_t kPer = 300;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      for (uint64_t i = 0; i < kPer; ++i) {
        EXPECT_TRUE(s_->insert(static_cast<uint64_t>(t) * 10000 + i));
      }
    });
  }
  for (auto& th : ts) th.join();
  EXPECT_EQ(s_->size(), kThreads * kPer);
}

TEST_F(ListSetTest, ConcurrentMixedChurnWithTicker) {
  std::atomic<bool> stop{false};
  std::thread ticker([&] {
    while (!stop.load()) {
      env_.esys()->advance_epoch();
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });
  constexpr int kThreads = 4;
  std::vector<std::thread> ts;
  std::atomic<int64_t> balance{0};  // inserts succeeded - removes succeeded
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      util::Xorshift128Plus rng(t + 3);
      for (int i = 0; i < 1500; ++i) {
        const uint64_t k = rng.next_bounded(64);
        if (rng.next_bounded(2) == 0) {
          if (s_->insert(k)) balance.fetch_add(1);
        } else {
          if (s_->remove(k)) balance.fetch_sub(1);
        }
      }
    });
  }
  for (auto& th : ts) th.join();
  stop.store(true);
  ticker.join();
  EXPECT_EQ(s_->size(), static_cast<std::size_t>(balance.load()));
}

TEST_F(ListSetTest, RecoveryRestoresMembership) {
  for (uint64_t k = 0; k < 40; ++k) s_->insert(k);
  for (uint64_t k = 0; k < 40; k += 4) s_->remove(k);
  env_.esys()->sync();
  s_->insert(999);  // lost in the crash
  auto survivors = env_.crash_and_recover();
  MontageListSet<uint64_t> rec(env_.esys());
  rec.recover(survivors);
  EXPECT_EQ(rec.size(), 30u);
  for (uint64_t k = 0; k < 40; ++k) {
    EXPECT_EQ(rec.contains(k), k % 4 != 0) << k;
  }
  EXPECT_FALSE(rec.contains(999));
  // Recovered set is operational.
  EXPECT_TRUE(rec.insert(0));
  EXPECT_TRUE(rec.contains(0));
}

class OrderedMapTest : public ::testing::Test {
 protected:
  OrderedMapTest() : env_(64 << 20, no_advancer()) {
    m_ = std::make_unique<MontageOrderedMap<uint64_t, uint64_t>>(env_.esys());
  }
  PersistentEnv env_;
  std::unique_ptr<MontageOrderedMap<uint64_t, uint64_t>> m_;
};

TEST_F(OrderedMapTest, PutGetRemove) {
  EXPECT_FALSE(m_->put(3, 30).has_value());
  EXPECT_EQ(*m_->get(3), 30u);
  EXPECT_EQ(*m_->put(3, 31), 30u);
  EXPECT_EQ(*m_->remove(3), 31u);
  EXPECT_FALSE(m_->get(3).has_value());
  EXPECT_TRUE(m_->insert(4, 40));
  EXPECT_FALSE(m_->insert(4, 41));
}

TEST_F(OrderedMapTest, RangeScanInKeyOrder) {
  for (uint64_t k : {50, 10, 30, 20, 40}) m_->put(k, k * 10);
  auto r = m_->range(15, 45);
  ASSERT_EQ(r.size(), 3u);
  EXPECT_EQ(r[0].first, 20u);
  EXPECT_EQ(r[1].first, 30u);
  EXPECT_EQ(r[2].first, 40u);
  EXPECT_EQ(r[2].second, 400u);
  EXPECT_TRUE(m_->range(100, 200).empty());
}

TEST_F(OrderedMapTest, MinMax) {
  EXPECT_FALSE(m_->min().has_value());
  m_->put(7, 70);
  m_->put(2, 20);
  m_->put(9, 90);
  EXPECT_EQ(m_->min()->first, 2u);
  EXPECT_EQ(m_->max()->first, 9u);
  m_->remove(2);
  EXPECT_EQ(m_->min()->first, 7u);
}

TEST_F(OrderedMapTest, UpdateClonesAcrossEpochsTransparently) {
  m_->put(1, 10);
  env_.esys()->advance_epoch();
  m_->put(1, 11);  // cross-epoch clone under the hood
  EXPECT_EQ(*m_->get(1), 11u);
  EXPECT_EQ(m_->size(), 1u);
}

TEST_F(OrderedMapTest, RecoveryRestoresOrderAndValues) {
  for (uint64_t k = 0; k < 30; ++k) m_->put(k, k + 100);
  m_->remove(5);
  m_->put(7, 777);
  env_.esys()->sync();
  m_->put(1000, 1);  // lost
  auto survivors = env_.crash_and_recover();
  MontageOrderedMap<uint64_t, uint64_t> rec(env_.esys());
  rec.recover(survivors);
  EXPECT_EQ(rec.size(), 29u);
  EXPECT_FALSE(rec.get(5).has_value());
  EXPECT_EQ(*rec.get(7), 777u);
  auto r = rec.range(0, 10);
  ASSERT_EQ(r.size(), 9u);  // 0..9 minus 5
  EXPECT_EQ(r[5].first, 6u);
  EXPECT_EQ(rec.max()->first, 29u);
}

TEST_F(OrderedMapTest, ConcurrentReadersAndWriters) {
  for (uint64_t k = 0; k < 100; ++k) m_->put(k, k);
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    util::Xorshift128Plus rng(5);
    for (int i = 0; i < 3000; ++i) {
      const uint64_t k = rng.next_bounded(100);
      if (rng.next_bounded(2) == 0) {
        m_->put(k, i);
      } else {
        m_->remove(k);
      }
    }
    stop.store(true);
  });
  std::thread reader([&] {
    while (!stop.load()) {
      auto r = m_->range(20, 60);
      // Range results are key-sorted and within bounds.
      for (std::size_t i = 0; i < r.size(); ++i) {
        EXPECT_GE(r[i].first, 20u);
        EXPECT_LT(r[i].first, 60u);
        if (i > 0) {
          EXPECT_LT(r[i - 1].first, r[i].first);
        }
      }
    }
  });
  writer.join();
  reader.join();
}

}  // namespace
}  // namespace montage
