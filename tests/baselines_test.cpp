// Functional tests for the reimplemented competitor systems: Friedman
// queue, MOD queue/hashmap, SOFT, NVTraverse, Dalí, Pronto, Mnemosyne.
// These are correctness checks; the figure benches compare performance.
#include <gtest/gtest.h>

#include <set>
#include <thread>

#include "baselines/dali_hashmap.hpp"
#include "baselines/friedman_queue.hpp"
#include "baselines/mnemosyne.hpp"
#include "baselines/mod.hpp"
#include "baselines/nvtraverse_hashmap.hpp"
#include "baselines/pronto.hpp"
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

class BaselinesTest : public ::testing::Test {
 protected:
  BaselinesTest() : env_(128 << 20, no_advancer()) {}
  PersistentEnv env_;
};

// ---- Friedman queue ---------------------------------------------------------

TEST_F(BaselinesTest, FriedmanFifoOrder) {
  FriedmanQueue<Val> q(env_.ral());
  q.enqueue("a");
  q.enqueue("b");
  q.enqueue("c");
  EXPECT_EQ(q.dequeue()->str(), "a");
  EXPECT_EQ(q.dequeue()->str(), "b");
  EXPECT_EQ(q.dequeue()->str(), "c");
  EXPECT_FALSE(q.dequeue().has_value());
  EXPECT_TRUE(q.empty());
}

TEST_F(BaselinesTest, FriedmanPersistsEveryOperation) {
  FriedmanQueue<Val> q(env_.ral());
  env_.region()->reset_stats();
  q.enqueue("x");
  auto s = env_.region()->stats();
  EXPECT_GT(s.lines_flushed, 0u);
  EXPECT_GE(s.fences, 1u);  // strict durable linearizability
  env_.region()->reset_stats();
  q.dequeue();
  s = env_.region()->stats();
  EXPECT_GE(s.fences, 1u);
}

TEST_F(BaselinesTest, FriedmanConcurrentConservation) {
  FriedmanQueue<uint64_t> q(env_.ral());
  constexpr int kThreads = 4, kPer = 800;
  std::atomic<uint64_t> sum{0};
  std::atomic<int> count{0};
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      for (int i = 1; i <= kPer; ++i) {
        q.enqueue(static_cast<uint64_t>(t) * 10000 + i);
        if (i % 2 == 0) {
          if (auto v = q.dequeue()) {
            sum.fetch_add(*v);
            count.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& th : ts) th.join();
  while (auto v = q.dequeue()) {
    sum.fetch_add(*v);
    count.fetch_add(1);
  }
  uint64_t expect = 0;
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 1; i <= kPer; ++i) expect += static_cast<uint64_t>(t) * 10000 + i;
  }
  EXPECT_EQ(count.load(), kThreads * kPer);
  EXPECT_EQ(sum.load(), expect);
}

// ---- MOD --------------------------------------------------------------------

TEST_F(BaselinesTest, ModQueueFifoWithReversal) {
  ModQueue<Val> q(env_.ral());
  for (int i = 0; i < 10; ++i) q.enqueue(Val(std::to_string(i)));
  for (int i = 0; i < 10; ++i) EXPECT_EQ(q.dequeue()->str(), std::to_string(i));
  EXPECT_FALSE(q.dequeue().has_value());
  // Interleaved: forces multiple reversals.
  q.enqueue("a");
  q.enqueue("b");
  EXPECT_EQ(q.dequeue()->str(), "a");
  q.enqueue("c");
  EXPECT_EQ(q.dequeue()->str(), "b");
  EXPECT_EQ(q.dequeue()->str(), "c");
  EXPECT_TRUE(q.empty());
}

TEST_F(BaselinesTest, ModHashMapBasics) {
  ModHashMap<Key, Val> m(env_.ral(), 256);
  EXPECT_FALSE(m.put("a", "1").has_value());
  EXPECT_EQ(m.get("a")->str(), "1");
  EXPECT_EQ(m.put("a", "2")->str(), "1");
  EXPECT_EQ(m.get("a")->str(), "2");
  EXPECT_TRUE(m.insert("b", "3"));
  EXPECT_FALSE(m.insert("b", "4"));
  EXPECT_EQ(m.remove("a")->str(), "2");
  EXPECT_FALSE(m.get("a").has_value());
  EXPECT_FALSE(m.remove("a").has_value());
}

TEST_F(BaselinesTest, ModHashMapChurnManyKeys) {
  ModHashMap<Key, Val> m(env_.ral(), 64);
  for (int i = 0; i < 500; ++i) m.put(Key(std::to_string(i)), Val("v"));
  for (int i = 0; i < 500; i += 2) m.remove(Key(std::to_string(i)));
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(m.get(Key(std::to_string(i))).has_value(), i % 2 == 1) << i;
  }
}

TEST_F(BaselinesTest, ModUpdateFlushesWholePathCopy) {
  ModHashMap<Key, uint64_t> m(env_.ral(), 1);  // single bucket: long chain
  for (int i = 0; i < 50; ++i) m.put(Key(std::to_string(i)), i);
  env_.region()->reset_stats();
  m.put(Key("0"), 99);  // key "0" is deep in the chain: long path copy
  const auto deep = env_.region()->stats().lines_flushed;
  env_.region()->reset_stats();
  m.put(Key("49"), 99);  // newest key is at the head: short path
  const auto shallow = env_.region()->stats().lines_flushed;
  EXPECT_GT(deep, shallow) << "MOD path-copy cost must grow with depth";
}

// ---- SOFT -------------------------------------------------------------------

TEST_F(BaselinesTest, SoftBasics) {
  SoftHashMap<Key, Val> m(env_.ral(), 256);
  EXPECT_TRUE(m.insert("a", "1"));
  EXPECT_FALSE(m.insert("a", "2"));  // no atomic update in SOFT
  EXPECT_EQ(m.get("a")->str(), "1");
  EXPECT_EQ(m.remove("a")->str(), "1");
  EXPECT_FALSE(m.get("a").has_value());
  EXPECT_TRUE(m.insert("a", "3"));
  EXPECT_EQ(m.size(), 1u);
}

TEST_F(BaselinesTest, SoftGetsNeverTouchNvm) {
  SoftHashMap<Key, Val> m(env_.ral(), 256);
  for (int i = 0; i < 100; ++i) m.insert(Key(std::to_string(i)), Val("v"));
  env_.region()->reset_stats();
  for (int i = 0; i < 100; ++i) m.get(Key(std::to_string(i)));
  auto s = env_.region()->stats();
  EXPECT_EQ(s.lines_flushed, 0u);
  EXPECT_EQ(s.fences, 0u);
}

TEST_F(BaselinesTest, SoftInsertFlushesWithoutFence) {
  SoftHashMap<Key, Val> m(env_.ral(), 256);
  m.insert("warm", "x");  // superblock descriptor warm-up
  env_.region()->reset_stats();
  m.insert("a", "1");
  auto s = env_.region()->stats();
  EXPECT_GT(s.lines_flushed, 0u);
  EXPECT_EQ(s.fences, 0u) << "SOFT's validity scheme avoids ordering fences";
}

TEST_F(BaselinesTest, SoftRecoversValidNodes) {
  {
    SoftHashMap<Key, Val> m(env_.ral(), 256);
    m.insert("keep", "yes");
    m.insert("gone", "no");
    m.remove("gone");
    env_.region()->fence();  // order all outstanding flushes
    env_.region()->simulate_crash();
  }
  // Rebuild allocator + map from the surviving image.
  ralloc::Ralloc recovered_ral(env_.region(), ralloc::Ralloc::Mode::kRecover);
  SoftHashMap<Key, Val> m(&recovered_ral, 256);
  m.recover();
  EXPECT_EQ(m.get("keep")->str(), "yes");
  EXPECT_FALSE(m.get("gone").has_value());
  EXPECT_EQ(m.size(), 1u);
}

// ---- NVTraverse -------------------------------------------------------------

TEST_F(BaselinesTest, NvTraverseBasics) {
  NvTraverseHashMap<Key, Val> m(env_.ral(), 256);
  EXPECT_TRUE(m.insert("a", "1"));
  EXPECT_FALSE(m.insert("a", "2"));
  EXPECT_EQ(m.get("a")->str(), "1");
  EXPECT_EQ(m.put("a", "3")->str(), "1");
  EXPECT_FALSE(m.put("b", "4").has_value());
  EXPECT_EQ(m.remove("a")->str(), "3");
  EXPECT_FALSE(m.get("a").has_value());
  EXPECT_EQ(m.size(), 1u);
}

TEST_F(BaselinesTest, NvTraverseReadsAlsoFence) {
  NvTraverseHashMap<Key, Val> m(env_.ral(), 256);
  m.insert("a", "1");
  env_.region()->reset_stats();
  m.get("a");
  auto s = env_.region()->stats();
  EXPECT_GT(s.lines_flushed, 0u);
  EXPECT_EQ(s.fences, 1u) << "NVTraverse reads write back what they observe";
}

// ---- Dalí -------------------------------------------------------------------

TEST_F(BaselinesTest, DaliBasics) {
  DaliHashMap<Key, Val> m(env_.ral(), 256, 10'000'000, /*background=*/false);
  EXPECT_FALSE(m.put("a", "1").has_value());
  EXPECT_EQ(m.get("a")->str(), "1");
  EXPECT_EQ(m.put("a", "2")->str(), "1");
  EXPECT_TRUE(m.insert("b", "3"));
  EXPECT_FALSE(m.insert("b", "4"));
  EXPECT_EQ(m.remove("a")->str(), "2");
  EXPECT_FALSE(m.get("a").has_value());
  EXPECT_FALSE(m.remove("a").has_value());
  EXPECT_TRUE(m.insert("a", "5"));  // reinsert over tombstone
  EXPECT_EQ(m.get("a")->str(), "5");
}

TEST_F(BaselinesTest, DaliUpdatesAreBufferedUntilPersistPass) {
  DaliHashMap<Key, Val> m(env_.ral(), 256, 10'000'000, false);
  m.put("warm", "x");  // allocator warm-up
  m.persist_pass();
  env_.region()->reset_stats();
  for (int i = 0; i < 50; ++i) m.put(Key(std::to_string(i)), Val("v"));
  EXPECT_EQ(env_.region()->stats().lines_flushed, 0u)
      << "Dalí must not flush on the update path";
  m.persist_pass();
  auto s = env_.region()->stats();
  EXPECT_GT(s.lines_flushed, 0u);
  EXPECT_GE(s.fences, 2u);  // data fence + period fence
}

TEST_F(BaselinesTest, DaliPeriodAdvances) {
  DaliHashMap<Key, Val> m(env_.ral(), 64, 10'000'000, false);
  const uint64_t p0 = m.period();
  m.persist_pass();
  m.persist_pass();
  EXPECT_EQ(m.period(), p0 + 2);
  // GC keeps answers correct across passes.
  m.put("k", "1");
  m.persist_pass();
  m.put("k", "2");
  m.persist_pass();
  m.persist_pass();
  m.persist_pass();
  EXPECT_EQ(m.get("k")->str(), "2");
}

// ---- Pronto -----------------------------------------------------------------

TEST_F(BaselinesTest, ProntoSyncMapBasics) {
  using Inner = ProntoMapInner<Key, Val>;
  ProntoStore<Inner> store(env_.ral(), Inner(256), ProntoMode::kSync, 1024);
  using E = Inner::Entry;
  store.update(E{1, "a", "1"}, [](Inner& m) { return m.put("a", "1"); });
  auto got = store.read([](Inner& m) { return m.get("a"); });
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->str(), "1");
  store.update(E{2, "a", ""}, [](Inner& m) { return m.remove("a"); });
  EXPECT_FALSE(store.read([](Inner& m) { return m.get("a"); }).has_value());
  EXPECT_EQ(store.log_length(), 2u);
}

TEST_F(BaselinesTest, ProntoLogsPersistBeforeReturn) {
  using Inner = ProntoMapInner<Key, Val>;
  ProntoStore<Inner> store(env_.ral(), Inner(256), ProntoMode::kSync, 1024);
  env_.region()->reset_stats();
  store.update(typename Inner::Entry{1, "a", "1"},
               [](Inner& m) { return m.put("a", "1"); });
  auto s = env_.region()->stats();
  EXPECT_GT(s.lines_flushed, 0u);
  EXPECT_GE(s.fences, 1u);
}

TEST_F(BaselinesTest, ProntoReplayRecoversState) {
  using Inner = ProntoMapInner<Key, Val>;
  using E = Inner::Entry;
  {
    ProntoStore<Inner> store(env_.ral(), Inner(256), ProntoMode::kSync, 1024);
    store.update(E{1, "a", "1"}, [](Inner& m) { return m.put("a", "1"); });
    store.update(E{1, "b", "2"}, [](Inner& m) { return m.put("b", "2"); });
    store.update(E{2, "a", ""}, [](Inner& m) { return m.remove("a"); });
  }
  // The log lives at a deterministic place only via the allocator; emulate
  // recovery by replaying into a fresh store sharing the same log memory.
  // (The bench never crashes Pronto; this checks replay logic itself.)
  ProntoStore<Inner> fresh(env_.ral(), Inner(256), ProntoMode::kSync, 1024);
  fresh.update(E{1, "a", "1"}, [](Inner& m) { return m.put("a", "1"); });
  fresh.update(E{1, "b", "2"}, [](Inner& m) { return m.put("b", "2"); });
  fresh.update(E{2, "a", ""}, [](Inner& m) { return m.remove("a"); });
  fresh.checkpoint();
  EXPECT_LE(fresh.log_length(), 1u);  // checkpoint = 1 reconstructing op
  EXPECT_EQ(fresh.read([](Inner& m) { return m.get("b"); })->str(), "2");
}

TEST_F(BaselinesTest, ProntoCheckpointTruncatesLog) {
  using Inner = ProntoQueueInner<uint64_t>;
  using E = Inner::Entry;
  ProntoStore<Inner> store(env_.ral(), Inner(), ProntoMode::kSync, 64);
  // 400 ops through a 64-entry log: automatic checkpoints must fire, and
  // they can, because the queue never holds more than 2 items.
  for (uint64_t i = 0; i < 200; ++i) {
    store.update(E{1, i}, [&](Inner& q) {
      q.enqueue(i);
      return 0;
    });
    auto v = store.update(E{2, 0}, [](Inner& q) { return q.dequeue(); });
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_LT(store.log_length(), 64u);
}

TEST_F(BaselinesTest, ProntoFullModeWorks) {
  using Inner = ProntoQueueInner<uint64_t>;
  using E = Inner::Entry;
  ProntoStore<Inner> store(env_.ral(), Inner(), ProntoMode::kFull, 1024);
  for (uint64_t i = 0; i < 50; ++i) {
    store.update(E{1, i}, [&](Inner& q) {
      q.enqueue(i);
      return 0;
    });
  }
  for (uint64_t i = 0; i < 50; ++i) {
    EXPECT_EQ(*store.update(E{2, 0}, [](Inner& q) { return q.dequeue(); }), i);
  }
}

// ---- Mnemosyne --------------------------------------------------------------

TEST_F(BaselinesTest, MnemosyneMapBasics) {
  MnemosyneHashMap<Key, Val> m(env_.ral(), 256);
  EXPECT_FALSE(m.put("a", "1").has_value());
  EXPECT_EQ(m.get("a")->str(), "1");
  EXPECT_EQ(m.put("a", "2")->str(), "1");
  EXPECT_EQ(m.remove("a")->str(), "2");
  EXPECT_FALSE(m.get("a").has_value());
  EXPECT_FALSE(m.remove("a").has_value());
}

TEST_F(BaselinesTest, MnemosyneQueueFifo) {
  MnemosyneQueue<uint64_t> q(env_.ral());
  for (uint64_t i = 0; i < 20; ++i) q.enqueue(i);
  for (uint64_t i = 0; i < 20; ++i) EXPECT_EQ(*q.dequeue(), i);
  EXPECT_FALSE(q.dequeue().has_value());
}

TEST_F(BaselinesTest, MnemosyneCommitWritesRedoLogAndData) {
  MnemosyneHashMap<Key, Val> m(env_.ral(), 256);
  m.put("warm", "x");
  env_.region()->reset_stats();
  m.put("a", "1");
  auto s = env_.region()->stats();
  // Log flush + commit marker + in-place writes: >= 3 fences.
  EXPECT_GE(s.fences, 3u);
  EXPECT_GT(s.lines_flushed, 2u);
}

TEST_F(BaselinesTest, MnemosyneConcurrentCountersSerialize) {
  Mnemosyne stm(env_.ral());
  auto* cell = static_cast<uint64_t*>(env_.ral()->allocate(8));
  *cell = 0;
  constexpr int kThreads = 4, kPer = 300;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&] {
      for (int i = 0; i < kPer; ++i) {
        stm.run([&](Mnemosyne::Tx& tx) {
          tx.write_word(cell, tx.read_word(cell) + 1);
        });
      }
    });
  }
  for (auto& th : ts) th.join();
  EXPECT_EQ(*cell, static_cast<uint64_t>(kThreads) * kPer);
}

TEST_F(BaselinesTest, MnemosyneConcurrentMapChurn) {
  MnemosyneHashMap<Key, uint64_t> m(env_.ral(), 64);
  std::vector<std::thread> ts;
  for (int t = 0; t < 3; ++t) {
    ts.emplace_back([&, t] {
      for (int i = 0; i < 200; ++i) {
        const Key k(std::to_string((t * 7 + i) % 40));
        if (i % 3 == 0) {
          m.remove(k);
        } else {
          m.put(k, i);
        }
      }
    });
  }
  for (auto& th : ts) th.join();
  // Consistency: gets succeed or fail, never crash/torn.
  for (int i = 0; i < 40; ++i) m.get(Key(std::to_string(i)));
  SUCCEED();
}

}  // namespace
}  // namespace montage
