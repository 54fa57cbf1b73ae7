// Deterministic model fuzzing: a single-threaded random workload runs
// against MontageHashMap while a shadow std::map model tracks the abstract
// state. A snapshot of the model is recorded at every epoch advance; after
// a crash in epoch e, the recovered structure must equal EXACTLY the model
// snapshot from the boundary that ended epoch e-2 — the paper's guarantee,
// with no slack.
#include <gtest/gtest.h>

#include <deque>
#include <map>

#include "ds/montage_hashmap.hpp"
#include "ds/montage_queue.hpp"
#include "tests/test_env.hpp"
#include "util/inline_str.hpp"
#include "util/rand.hpp"

namespace montage {
namespace {

using testing::PersistentEnv;
using Key = util::InlineStr<32>;
using Val = util::InlineStr<64>;

EpochSys::Options no_advancer() {
  EpochSys::Options o;
  o.start_advancer = false;
  o.buffer_capacity = 4;  // force incremental write-back traffic
  return o;
}

class MapModelFuzz : public ::testing::TestWithParam<int> {};

TEST_P(MapModelFuzz, RecoveredMapEqualsEpochBoundarySnapshot) {
  PersistentEnv env(64 << 20, no_advancer());
  EpochSys* es = env.esys();
  ds::MontageHashMap<Key, Val> map(es, 64);
  std::map<std::string, std::string> model;
  // snapshots[i] = model state when the clock ticked the i-th time.
  std::vector<std::map<std::string, std::string>> snapshots;
  util::Xorshift128Plus rng(GetParam() * 31337 + 7);

  const int ops = 200 + static_cast<int>(rng.next_bounded(300));
  for (int i = 0; i < ops; ++i) {
    const std::string k = std::to_string(rng.next_bounded(30));
    const std::string v = "v" + std::to_string(i);
    switch (rng.next_bounded(3)) {
      case 0:
        map.put(Key(k), Val(v));
        model[k] = v;
        break;
      case 1:
        map.remove(Key(k));
        model.erase(k);
        break;
      default: {
        auto got = map.get(Key(k));
        auto it = model.find(k);
        ASSERT_EQ(got.has_value(), it != model.end());
        if (got.has_value()) {
          ASSERT_EQ(got->str(), it->second);
        }
      }
    }
    if (rng.next_bounded(15) == 0) {
      snapshots.push_back(model);
      es->advance_epoch();
    }
  }

  // Crash. The crash epoch is `first + ticks`; recovery keeps epochs
  // <= crash-2, i.e. the state at the boundary 2 ticks before the end.
  auto survivors = env.crash_and_recover();
  std::map<std::string, std::string> recovered;
  for (PBlk* b : survivors) {
    auto* p = static_cast<ds::MontageHashMap<Key, Val>::Payload*>(b);
    ASSERT_TRUE(recovered
                    .emplace(p->get_unsafe_key().str(),
                             p->get_unsafe_val().str())
                    .second);
  }
  const std::size_t ticks = snapshots.size();
  std::map<std::string, std::string> expected;
  if (ticks >= 2) expected = snapshots[ticks - 2];
  EXPECT_EQ(recovered, expected)
      << "recovery must reproduce the epoch-(e-2) boundary exactly";
}

INSTANTIATE_TEST_SUITE_P(Seeds, MapModelFuzz, ::testing::Range(0, 10));

class QueueModelFuzz : public ::testing::TestWithParam<int> {};

TEST_P(QueueModelFuzz, RecoveredQueueEqualsEpochBoundarySnapshot) {
  PersistentEnv env(64 << 20, no_advancer());
  EpochSys* es = env.esys();
  ds::MontageQueue<Val> q(es);
  std::deque<std::string> model;
  std::vector<std::deque<std::string>> snapshots;
  util::Xorshift128Plus rng(GetParam() * 90001 + 3);

  const int ops = 200 + static_cast<int>(rng.next_bounded(200));
  for (int i = 0; i < ops; ++i) {
    if (rng.next_bounded(2) == 0) {
      const std::string v = "x" + std::to_string(i);
      q.enqueue(Val(v));
      model.push_back(v);
    } else {
      auto got = q.dequeue();
      if (model.empty()) {
        ASSERT_FALSE(got.has_value());
      } else {
        ASSERT_TRUE(got.has_value());
        ASSERT_EQ(got->str(), model.front());
        model.pop_front();
      }
    }
    if (rng.next_bounded(12) == 0) {
      snapshots.push_back(model);
      es->advance_epoch();
    }
  }

  auto survivors = env.crash_and_recover();
  ds::MontageQueue<Val> rec(es = env.esys());
  rec.recover(survivors);
  std::deque<std::string> expected;
  if (snapshots.size() >= 2) expected = snapshots[snapshots.size() - 2];
  ASSERT_EQ(rec.size(), expected.size());
  for (const std::string& want : expected) {
    auto got = rec.dequeue();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->str(), want);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueueModelFuzz, ::testing::Range(0, 10));

}  // namespace
}  // namespace montage
