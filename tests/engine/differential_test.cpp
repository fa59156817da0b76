// Differential testing of the reachability engine: random small
// timed-automata networks (binary and broadcast channels, urgent and
// committed locations, strict and weak guards, nonzero reset values,
// bounded integer-variable assignments), explored exhaustively under
// 18 engine configurations — sequential BFS/DFS variants, parallel
// BFS and work-stealing parallel DFS at 2 and 4 threads, crossed with
// both zone-abstraction operators (kGlobalM / kLocationLUPlus, with and
// without the active-clock reduction) and the optimizer levels.
// Config 0 — sequential BFS under kGlobalM — is the oracle: all
// configurations must agree with it on reachability, and every
// positive answer must concretize into a validated timed trace.
#include <gtest/gtest.h>

#include "engine/reachability.hpp"
#include "engine/trace.hpp"
#include "random_model.hpp"
#include "ta/system.hpp"

namespace engine {
namespace {

Options config(int kind) {
  Options o;
  o.maxSeconds = 20.0;
  switch (kind) {
    // Config 0 is the oracle every other configuration must agree
    // with: sequential BFS under the classic global-max abstraction,
    // exploring the model exactly as built (optimizer off). Every
    // other configuration inherits optLevel 2, so the whole matrix
    // doubles as an optimized-vs-unoptimized differential.
    case 0:
      o.order = SearchOrder::kBfs;
      o.extrapolation = Extrapolation::kGlobalM;
      o.optLevel = 0;
      break;
    case 1: o.order = SearchOrder::kDfs; break;
    case 2:
      o.order = SearchOrder::kDfs;
      o.dfsReverse = true;
      break;
    case 3:
      o.order = SearchOrder::kRandomDfs;
      o.seed = 99;
      break;
    case 4: o.activeClockReduction = false; break;
    case 5:  // parallel BFS, small shard count
      o.threads = 2;
      o.shardBits = 2;
      break;
    case 6:  // parallel BFS, single shard (maximal lock contention)
      o.threads = 4;
      o.shardBits = 0;
      break;
    case 7:
      o.order = SearchOrder::kDfs;
      o.activeClockReduction = false;
      break;
    case 8:  // work-stealing DFS, 2 threads
      o.order = SearchOrder::kDfs;
      o.threads = 2;
      o.shardBits = 2;
      break;
    case 9:  // work-stealing random DFS, 4 threads
      o.order = SearchOrder::kRandomDfs;
      o.seed = 7;
      o.threads = 4;
      break;
    // -- Extrapolation-mode matrix: global Extra_M under sequential
    //    DFS and both parallel engines, each checked against the
    //    kGlobalM oracle (config 0). Configs 1-9 inherit the
    //    kLocationLUPlus default, so the coarser operator is
    //    additionally exercised by every engine above.
    case 10:
      o.order = SearchOrder::kDfs;
      o.extrapolation = Extrapolation::kGlobalM;
      break;
    case 11:  // global-M under the parallel BFS explorer
      o.extrapolation = Extrapolation::kGlobalM;
      o.threads = 2;
      o.shardBits = 2;
      break;
    case 12:  // global-M under the work-stealing DFS explorer
      o.order = SearchOrder::kDfs;
      o.extrapolation = Extrapolation::kGlobalM;
      o.threads = 2;
      o.shardBits = 2;
      break;
    // -- Optimizer matrix: every engine family at optLevel 0 (model
    //    explored exactly as built) against the default optLevel 2 of
    //    configs 1-12, plus the intermediate level 1 pipeline.
    case 13:  // sequential BFS, LU+ default, optimizer off
      o.optLevel = 0;
      break;
    case 14:  // sequential DFS, optimizer off
      o.order = SearchOrder::kDfs;
      o.optLevel = 0;
      break;
    case 15:  // parallel BFS, optimizer off
      o.threads = 2;
      o.shardBits = 2;
      o.optLevel = 0;
      break;
    case 16:  // work-stealing DFS, optimizer off
      o.order = SearchOrder::kDfs;
      o.threads = 2;
      o.optLevel = 0;
      break;
    default:  // folding + dead-code elimination only
      o.optLevel = 1;
      break;
  }
  return o;
}

constexpr int kNumConfigs = 18;

class Differential : public ::testing::TestWithParam<uint64_t> {};

TEST_P(Differential, AllConfigurationsAgree) {
  const uint64_t seed = GetParam();
  int baseline = -1;
  for (int kind = 0; kind < kNumConfigs; ++kind) {
    RandomModel m(seed);
    Reachability checker(*m.sys, config(kind));
    const Result res = checker.run(m.goal);
    ASSERT_TRUE(res.reachable || res.exhausted)
        << "seed " << seed << " config " << kind << " hit a cutoff";
    const int answer = res.reachable ? 1 : 0;
    if (baseline < 0) {
      baseline = answer;
    } else {
      EXPECT_EQ(answer, baseline)
          << "seed " << seed << " config " << kind << " disagrees";
    }
    if (res.reachable) {
      std::string err;
      const auto ct = concretize(*m.sys, res.trace, &err);
      ASSERT_TRUE(ct.has_value())
          << "seed " << seed << " config " << kind << ": " << err;
      EXPECT_TRUE(validate(*m.sys, *ct, &err))
          << "seed " << seed << " config " << kind << ": " << err;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Differential,
                         ::testing::Range<uint64_t>(1, 41));

}  // namespace
}  // namespace engine
