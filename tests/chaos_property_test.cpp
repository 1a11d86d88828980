// Property-based chaos testing (DESIGN.md §13): generated fabrics and
// fault plans must satisfy the self-healing invariants; failing specs
// shrink to minimal replayable reproducers; the committed seed corpus
// replays as a regression suite; and a generated run is deterministic.
//
// GMMCS_CHAOS_SEED / GMMCS_CHAOS_PLANS override the generated batch (CI
// derives the seed from the commit SHA so every push explores new plans
// while any failure stays reproducible from the logged spec).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "broker/chaos.hpp"
#include "sim/chaos_gen.hpp"

using namespace gmmcs;

namespace {

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::strtoull(v, nullptr, 0) : fallback;
}

std::string describe(const broker::ChaosOutcome& outcome) {
  std::string out;
  for (const broker::ChaosViolation& v : outcome.violations) {
    out += v.invariant + ": " + v.detail + "\n";
  }
  return out;
}

}  // namespace

TEST(ChaosSpec, SerializationRoundTrips) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    const sim::ChaosSpec spec = sim::ChaosGen::generate(seed);
    const std::string text = spec.serialize();
    const auto back = sim::ChaosSpec::parse(text);
    ASSERT_TRUE(back.has_value()) << text;
    EXPECT_EQ(back->serialize(), text);
    EXPECT_EQ(back->hash(), spec.hash());
  }
}

TEST(ChaosSpec, GeneratorIsPureInSeed) {
  for (std::uint64_t seed : {1ull, 42ull, 0xDEADBEEFull}) {
    EXPECT_EQ(sim::ChaosGen::generate(seed).serialize(),
              sim::ChaosGen::generate(seed).serialize());
  }
  // next() records the derived per-spec seed, so any spec from a stream
  // is reproducible without replaying the stream.
  sim::ChaosGen gen(7);
  gen.next();
  const sim::ChaosSpec second = gen.next();
  EXPECT_EQ(sim::ChaosGen::generate(second.seed).serialize(), second.serialize());
}

TEST(ChaosProperty, GeneratedPlansSatisfyInvariants) {
  const std::uint64_t seed = env_u64("GMMCS_CHAOS_SEED", 20260809);
  const std::uint64_t plans = env_u64("GMMCS_CHAOS_PLANS", 25);
  sim::ChaosGen gen(seed);
  for (std::uint64_t i = 0; i < plans; ++i) {
    const sim::ChaosSpec spec = gen.next();
    const broker::ChaosOutcome outcome = broker::run_chaos(spec);
    if (!outcome.ok()) {
      // Shrink before reporting: the failure message is a minimal,
      // committable reproducer (drop it into tests/chaos_seeds/).
      const sim::ChaosSpec shrunk = broker::shrink_chaos(spec);
      FAIL() << "plan " << i << " (seed " << spec.seed << ") violated:\n"
             << describe(outcome) << "minimal reproducer:\n"
             << shrunk.serialize();
    }
  }
}

TEST(ChaosProperty, SeedCorpusReplays) {
  const std::filesystem::path dir(GMMCS_CHAOS_SEED_DIR);
  ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".spec") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  ASSERT_FALSE(files.empty()) << "no .spec files under " << dir;
  for (const auto& path : files) {
    const auto spec = sim::read_spec_file(path.string());
    ASSERT_TRUE(spec.has_value()) << path;
    const broker::ChaosOutcome outcome = broker::run_chaos(*spec);
    EXPECT_TRUE(outcome.ok()) << path << ":\n" << describe(outcome);
  }
}

TEST(ChaosProperty, GeneratedPlanDoubleRunIdentical) {
  const sim::ChaosSpec spec = sim::ChaosGen::generate(1234567);
  const broker::ChaosOutcome first = broker::run_chaos(spec);
  const broker::ChaosOutcome again = broker::run_chaos(spec);
  EXPECT_TRUE(first.ok()) << describe(first);
  EXPECT_TRUE(first.metrics == again.metrics) << "double-run diverged";
}

// The re-break demonstration: disable the brokers' client-stream detector
// (reverting the DESIGN.md §8 ghost-record fix) and the generator finds a
// violating plan, which shrinks to a <= 3-fault minimal reproducer that
// passes again with the fix on.
TEST(ChaosProperty, RevertedGhostReapIsCaughtAndShrinks) {
  const broker::ChaosOptions broken{.ghost_reap = false};
  bool found = false;
  for (std::uint64_t seed = 1; seed <= 200 && !found; ++seed) {
    const sim::ChaosSpec spec = sim::ChaosGen::generate(seed);
    // Pre-filter for the ghost shape (a stream-only client's host
    // crashing) before paying for a run.
    const bool shaped = std::any_of(
        spec.faults.begin(), spec.faults.end(), [&spec](const sim::ChaosFault& f) {
          return f.kind == sim::FaultPlan::FaultKind::kHostCrash &&
                 f.a.kind == sim::ChaosRefKind::kClient &&
                 spec.clients[static_cast<std::size_t>(f.a.index)].stream_only;
        });
    if (!shaped) continue;
    if (broker::run_chaos(spec, broken).ok()) continue;
    found = true;
    const sim::ChaosSpec shrunk = broker::shrink_chaos(spec, broken);
    EXPECT_LE(shrunk.faults.size(), 3u) << shrunk.serialize();
    EXPECT_FALSE(broker::run_chaos(shrunk, broken).ok())
        << "shrunk spec must still fail without the reaper";
    const broker::ChaosOutcome fixed = broker::run_chaos(shrunk);
    EXPECT_TRUE(fixed.ok()) << "the client-stream detector should heal the reproducer:\n"
                            << describe(fixed) << shrunk.serialize();
  }
  EXPECT_TRUE(found) << "no generated plan exposed the reverted ghost-record reap";
}
