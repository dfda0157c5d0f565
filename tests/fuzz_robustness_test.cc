// Robustness sweeps: every parser / deserializer in the library must turn
// arbitrary malformed input into a non-OK Status — never crash, never abort.

#include <gtest/gtest.h>

#include <vector>

#include "io/serialization.h"
#include "nn/gradient_engine.h"
#include "tests/test_helpers.h"
#include "util/arg_parser.h"
#include "util/random.h"

namespace dpaudit {
namespace {

using testing_helpers::BlobDataset;
using testing_helpers::TinyNetwork;

std::vector<uint8_t> RandomBytes(size_t size, Rng& rng) {
  std::vector<uint8_t> bytes(size);
  for (uint8_t& b : bytes) {
    b = static_cast<uint8_t>(rng.UniformInt(256));
  }
  return bytes;
}

TEST(FuzzTest, WeightDeserializerSurvivesRandomAndCorrupted) {
  Rng rng(3);
  Network net = TinyNetwork();
  Rng init(4);
  net.Initialize(init);
  std::vector<uint8_t> valid = *SerializeWeights(net);
  for (int trial = 0; trial < 300; ++trial) {
    Network target = TinyNetwork();
    (void)DeserializeWeights(RandomBytes(rng.UniformInt(200), rng), target);
    std::vector<uint8_t> corrupted = valid;
    corrupted[rng.UniformInt(corrupted.size())] ^= 0x40;
    (void)DeserializeWeights(corrupted, target);
    std::vector<uint8_t> truncated(valid.begin(),
                                   valid.begin() + rng.UniformInt(
                                       valid.size()));
    (void)DeserializeWeights(truncated, target);
  }
}

TEST(FuzzTest, DatasetDeserializerSurvivesRandomAndCorrupted) {
  Rng rng(5);
  Dataset d;
  d.Add(Tensor({2, 2}, {1, 2, 3, 4}), 1);
  std::vector<uint8_t> valid = *SerializeDataset(d);
  for (int trial = 0; trial < 300; ++trial) {
    (void)DeserializeDataset(RandomBytes(rng.UniformInt(200), rng));
    std::vector<uint8_t> corrupted = valid;
    corrupted[rng.UniformInt(corrupted.size())] ^= 0x11;
    (void)DeserializeDataset(corrupted);
  }
}

TEST(FuzzTest, CorruptionIsActuallyDetected) {
  // Beyond not crashing: payload corruption must not silently round-trip.
  Rng rng(6);
  Network net = TinyNetwork();
  Rng init(7);
  net.Initialize(init);
  std::vector<uint8_t> valid = *SerializeWeights(net);
  size_t silent_corruptions = 0;
  const size_t header = 20;  // corrupt only payload bytes
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<uint8_t> corrupted = valid;
    size_t pos = header + rng.UniformInt(corrupted.size() - header - 8);
    corrupted[pos] ^= static_cast<uint8_t>(1 + rng.UniformInt(255));
    Network target = TinyNetwork();
    if (DeserializeWeights(corrupted, target).ok()) ++silent_corruptions;
  }
  EXPECT_EQ(silent_corruptions, 0u);
}

TEST(FuzzTest, BatchLanesSurviveRaggedFinalPacks) {
  // Random (n, lanes, threads) combinations, biased so the final pack is
  // almost always ragged (n % lanes != 0). The lane engine must neither
  // crash nor drift from the sequential width-1 reference by a single bit.
  Rng rng(9);
  Network net = TinyNetwork();
  Rng init(10);
  net.Initialize(init);
  for (int trial = 0; trial < 20; ++trial) {
    Rng data_rng(100 + trial);
    const size_t n = 1 + rng.UniformInt(29);
    Dataset d = BlobDataset(n, data_rng);
    std::vector<float> ref = testing_helpers::ReferenceClippedGradientSum(
        net, d.inputs, d.labels, 1.0);

    GradientEngine::Options options;
    options.threads = 1 + rng.UniformInt(4);
    options.batch_lanes = 1 + rng.UniformInt(16);
    GradientEngine engine(net, options);
    engine.SyncParams(net);
    std::vector<float> sum = engine.ClippedGradientSum(d.inputs, d.labels, 1.0);

    ASSERT_EQ(ref.size(), sum.size());
    for (size_t i = 0; i < ref.size(); ++i) {
      ASSERT_EQ(ref[i], sum[i])
          << "trial=" << trial << " n=" << n << " lanes=" << options.batch_lanes
          << " threads=" << options.threads << " i=" << i;
    }
  }
}

TEST(FuzzTest, ArgParserSurvivesRandomTokens) {
  Rng rng(8);
  const char* fragments[] = {"--",     "--x",  "=",    "--=",   "a",
                             "--b=c",  "-9",   "--d",  "1e300", "--e=",
                             "--f==g", "\x01", "--\xff", "", "--x=1"};
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<const char*> argv = {"prog"};
    size_t count = 1 + rng.UniformInt(6);
    for (size_t i = 0; i < count; ++i) {
      argv.push_back(fragments[rng.UniformInt(std::size(fragments))]);
    }
    auto parsed = ArgParser::Parse(static_cast<int>(argv.size()),
                                   argv.data());
    if (parsed.ok()) {
      (void)parsed->GetDouble("x", 0.0);
      (void)parsed->GetBool("b", false);
      (void)parsed->CheckAllConsumed();
    }
  }
}

}  // namespace
}  // namespace dpaudit
