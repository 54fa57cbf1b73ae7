// Several Montage structures sharing ONE region and ONE epoch system: the
// payload tag disambiguates them at recovery, and a crash is a consistent
// cut across ALL structures simultaneously (their operations share epochs).
#include <gtest/gtest.h>

#include "ds/montage_graph.hpp"
#include "ds/montage_hashmap.hpp"
#include "ds/montage_ordered_map.hpp"
#include "ds/montage_queue.hpp"
#include "ds/montage_stack.hpp"
#include "kvstore/memcache.hpp"
#include "tests/test_env.hpp"
#include "util/inline_str.hpp"

namespace montage {
namespace {

using testing::PersistentEnv;
using Key = util::InlineStr<32>;
using Val = util::InlineStr<64>;

EpochSys::Options no_advancer() {
  EpochSys::Options o;
  o.start_advancer = false;
  return o;
}

TEST(MultiStructure, FiveStructuresOneEpochSystem) {
  PersistentEnv env(256 << 20, no_advancer());
  EpochSys* es = env.esys();

  ds::MontageHashMap<Key, Val> map(es, 256);
  ds::MontageQueue<Val> queue(es);
  ds::MontageStack<uint64_t> stack(es);
  ds::MontageOrderedMap<uint64_t, uint64_t> omap(es);
  ds::MontageGraph<uint64_t, uint64_t> graph(es, 128);

  map.put("m1", "v1");
  map.put("m2", "v2");
  queue.enqueue("q1");
  queue.enqueue("q2");
  queue.enqueue("q3");
  queue.dequeue();
  stack.push(11);
  stack.push(22);
  omap.put(5, 50);
  omap.put(6, 60);
  graph.add_vertex(1);
  graph.add_vertex(2);
  graph.add_edge(1, 2, 12);
  es->sync();

  // Unsynced churn spanning all structures: all of it must vanish together.
  map.put("m3", "v3");
  queue.dequeue();
  stack.push(33);
  omap.remove(5);
  graph.add_vertex(3);

  auto survivors = env.crash_and_recover(2);
  es = env.esys();
  ds::MontageHashMap<Key, Val> rmap(es, 256);
  ds::MontageQueue<Val> rqueue(es);
  ds::MontageStack<uint64_t> rstack(es);
  ds::MontageOrderedMap<uint64_t, uint64_t> romap(es);
  ds::MontageGraph<uint64_t, uint64_t> rgraph(es, 128);
  rmap.recover(survivors);
  rqueue.recover(survivors);
  rstack.recover(survivors);
  romap.recover(survivors);
  rgraph.recover(survivors);

  EXPECT_EQ(rmap.size(), 2u);
  EXPECT_EQ(rmap.get("m1")->str(), "v1");
  EXPECT_FALSE(rmap.get("m3").has_value());

  EXPECT_EQ(rqueue.size(), 2u);
  EXPECT_EQ(rqueue.dequeue()->str(), "q2");  // q1 dequeued pre-sync
  EXPECT_EQ(rqueue.dequeue()->str(), "q3");

  EXPECT_EQ(*rstack.pop(), 22u);
  EXPECT_EQ(*rstack.pop(), 11u);
  EXPECT_FALSE(rstack.pop().has_value());

  EXPECT_EQ(romap.size(), 2u);
  EXPECT_EQ(*romap.get(5), 50u);  // unsynced remove rolled back

  EXPECT_EQ(rgraph.vertex_count(), 2u);
  EXPECT_TRUE(rgraph.has_edge(2, 1));
  EXPECT_EQ(*rgraph.edge_attr(1, 2), 12u);
  EXPECT_FALSE(rgraph.has_vertex(3));
}

TEST(MultiStructure, CrossStructureOperationsShareEpochCut) {
  // A "move" implemented as dequeue+push across two structures in separate
  // operations: after a crash, the element is never duplicated (it can be
  // in either place or — if the crash ate both ops' epoch — back where a
  // previous sync left it; duplication would require tearing one epoch).
  PersistentEnv env(128 << 20, no_advancer());
  EpochSys* es = env.esys();
  ds::MontageQueue<Val> queue(es);
  ds::MontageStack<uint64_t> stack(es);
  queue.enqueue("42");
  es->sync();
  // Move: both ops run in the same epoch (no advance between them).
  const auto v = queue.dequeue();
  ASSERT_TRUE(v.has_value());
  stack.push(42);
  auto survivors = env.crash_and_recover();
  es = env.esys();
  ds::MontageQueue<Val> rq(es);
  ds::MontageStack<uint64_t> rs(es);
  rq.recover(survivors);
  rs.recover(survivors);
  const int total = static_cast<int>(rq.size()) + static_cast<int>(rs.size());
  EXPECT_EQ(total, 1) << "element duplicated or lost across the crash cut";
}

TEST(MultiStructure, MemcacheAndMapCoexist) {
  PersistentEnv env(128 << 20, no_advancer());
  EpochSys* es = env.esys();
  kvstore::MontageMemCache cache(es, 4, 100);
  ds::MontageHashMap<Key, Val> map(es, 64);
  cache.set("c", "cache-val");
  map.put("m", "map-val");
  es->sync();
  auto survivors = env.crash_and_recover();
  es = env.esys();
  kvstore::MontageMemCache rcache(es, 4, 100);
  ds::MontageHashMap<Key, Val> rmap(es, 64);
  rcache.recover(survivors);
  rmap.recover(survivors);
  EXPECT_EQ(rcache.size(), 1u);
  EXPECT_EQ(rmap.size(), 1u);
  EXPECT_EQ(rcache.get("c")->str(), "cache-val");
  EXPECT_EQ(rmap.get("m")->str(), "map-val");
}

}  // namespace
}  // namespace montage
