// Microbenchmarks (google-benchmark) for the library's hot paths: noise
// mechanisms, accountant queries, belief updates, per-example gradients,
// and the synthetic data generators.

#include <benchmark/benchmark.h>

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/adversary.h"
#include "core/belief.h"
#include "core/neighbor_sums.h"
#include "data/dataset.h"
#include "data/dissimilarity.h"
#include "data/synthetic_mnist.h"
#include "data/synthetic_purchase.h"
#include "dp/mechanism.h"
#include "dp/rdp_accountant.h"
#include "nn/gradient_engine.h"
#include "nn/layer.h"
#include "nn/network.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/telemetry.h"
#include "stats/normal.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace dpaudit {
namespace {

void BM_GaussianPerturbVector(benchmark::State& state) {
  GaussianMechanism mechanism(1.0);
  Rng rng(1);
  std::vector<float> values(static_cast<size_t>(state.range(0)), 0.0f);
  for (auto _ : state) {
    mechanism.Perturb(values, rng);
    benchmark::DoNotOptimize(values.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GaussianPerturbVector)->Arg(1024)->Arg(65536);

void BM_GaussianLogDensity(benchmark::State& state) {
  GaussianMechanism mechanism(1.0);
  size_t n = static_cast<size_t>(state.range(0));
  std::vector<float> observed(n, 0.5f);
  std::vector<float> center(n, 0.0f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mechanism.LogDensity(observed, center));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GaussianLogDensity)->Arg(1024)->Arg(65536);

// The two gradient dimensionalities the paper's experiments release at:
// the MNIST CNN-ish network and the Purchase-100 MLP. Applied to the
// mechanism/adversary hot-path benchmarks below so their numbers speak
// directly to fig06-fig10 wall-clock, where BENCH_scaling.json reports
// their share as the mechanism_perturb and adversary span rows.
void GradientDims(benchmark::internal::Benchmark* bench) {
  static const size_t kMnistParams = BuildMnistNetwork().NumParams();
  static const size_t kPurchaseParams = BuildPurchaseNetwork().NumParams();
  bench->Arg(static_cast<int64_t>(kMnistParams))
      ->Arg(static_cast<int64_t>(kPurchaseParams));
}

// Gaussian noise application at paper gradient dimensionality (batched
// FillGaussian + runtime-dispatched noise kernel).
void BM_GaussianPerturb(benchmark::State& state) {
  GaussianMechanism mechanism(1.0);
  Rng rng(11);
  std::vector<float> values(static_cast<size_t>(state.range(0)), 0.25f);
  for (auto _ : state) {
    mechanism.Perturb(values, rng);
    benchmark::DoNotOptimize(values.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GaussianPerturb)->Apply(GradientDims);

// The sampler alone, without the apply loop: the block-batched polar method
// over MT19937-64 at the MNIST net's size and at the 30,318 parameters of
// the auditbench purchase-audit dense net.
void BM_FillGaussian(benchmark::State& state) {
  Rng rng(11);
  std::vector<double> noise(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    rng.FillGaussian(noise.data(), noise.size());
    benchmark::DoNotOptimize(noise.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FillGaussian)->Arg(2370)->Arg(30318);

// One engine draw mapped to [0, 1): the scalar path behind Bernoulli,
// Laplace and the Gaussian() fallback.
void BM_RngUniform(benchmark::State& state) {
  Rng rng(13);
  for (auto _ : state) benchmark::DoNotOptimize(rng.Uniform());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngUniform);

// The adversary's fused per-step likelihood scoring: one pass over the
// released vector producing both hypotheses' log-densities.
void BM_LogLikelihoodRatio(benchmark::State& state) {
  GaussianMechanism mechanism(1.0);
  size_t n = static_cast<size_t>(state.range(0));
  std::vector<float> released(n);
  std::vector<float> sum_d(n);
  std::vector<float> sum_dprime(n);
  Rng rng(12);
  for (size_t i = 0; i < n; ++i) {
    released[i] = static_cast<float>(rng.Gaussian());
    sum_d[i] = static_cast<float>(0.1 * rng.Gaussian());
    sum_dprime[i] = static_cast<float>(0.1 * rng.Gaussian());
  }
  double log_d = 0.0;
  double log_dprime = 0.0;
  for (auto _ : state) {
    mechanism.LogDensityPair(released, sum_d, sum_dprime, &log_d,
                             &log_dprime);
    benchmark::DoNotOptimize(log_d);
    benchmark::DoNotOptimize(log_dprime);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_LogLikelihoodRatio)->Apply(GradientDims);

// A full adversary step: likelihood pair + posterior update + bookkeeping —
// the exact per-release cost inside RunDpSgd's observer hook.
void BM_DiAdversaryOnStep(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  std::vector<float> released(n);
  std::vector<float> sum_d(n);
  std::vector<float> sum_dprime(n);
  Rng rng(13);
  for (size_t i = 0; i < n; ++i) {
    released[i] = static_cast<float>(rng.Gaussian());
    sum_d[i] = static_cast<float>(0.1 * rng.Gaussian());
    sum_dprime[i] = static_cast<float>(0.1 * rng.Gaussian());
  }
  size_t step = 0;
  DiAdversary adversary;
  for (auto _ : state) {
    adversary.OnStep(step++, sum_d, sum_dprime, released, 1.0);
    benchmark::DoNotOptimize(adversary.FinalBeliefD());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DiAdversaryOnStep)->Apply(GradientDims);

void BM_NormalQuantile(benchmark::State& state) {
  double p = 0.1234;
  for (auto _ : state) {
    benchmark::DoNotOptimize(NormalQuantile(p));
    p = p < 0.9 ? p + 1e-6 : 0.1;
  }
}
BENCHMARK(BM_NormalQuantile);

void BM_RdpAccountantEpsilon(benchmark::State& state) {
  RdpAccountant accountant;
  accountant.AddGaussianSteps(1.3, static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(accountant.GetEpsilon(1e-5));
  }
}
BENCHMARK(BM_RdpAccountantEpsilon)->Arg(30)->Arg(10000);

void BM_NoiseCalibrationBisection(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        NoiseMultiplierForTargetEpsilon(2.2, 0.001, 30));
  }
}
BENCHMARK(BM_NoiseCalibrationBisection);

void BM_BeliefUpdate(benchmark::State& state) {
  PosteriorBeliefTracker tracker;
  double a = -1.0;
  double b = -1.1;
  for (auto _ : state) {
    tracker.Observe(a, b);
    benchmark::DoNotOptimize(tracker.belief_d());
  }
}
BENCHMARK(BM_BeliefUpdate);

void BM_MnistPerExampleGradient(benchmark::State& state) {
  Network net = BuildMnistNetwork();
  Rng rng(2);
  net.Initialize(rng);
  SyntheticMnistConfig config;
  Tensor image = RenderSyntheticDigit(3, config, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.PerExampleGradient(image, 3));
  }
}
BENCHMARK(BM_MnistPerExampleGradient);

void BM_PurchasePerExampleGradient(benchmark::State& state) {
  Network net = BuildPurchaseNetwork();
  Rng rng(3);
  net.Initialize(rng);
  SyntheticPurchaseGenerator generator(SyntheticPurchaseConfig{}, 4);
  Tensor record = generator.Sample(7, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.PerExampleGradient(record, 7));
  }
}
BENCHMARK(BM_PurchasePerExampleGradient);

// Clipped-gradient-sum throughput through the gradient engine. Args are
// {batch size, engine worker threads}. items_processed counts examples, so
// per-example cost is directly comparable across batch sizes and thread
// counts.
void BM_ClippedGradientSumMnist(benchmark::State& state) {
  const size_t batch = static_cast<size_t>(state.range(0));
  Network net = BuildMnistNetwork();
  Rng rng(9);
  net.Initialize(rng);
  SyntheticMnistConfig config;
  std::vector<Tensor> inputs;
  std::vector<size_t> labels;
  for (size_t i = 0; i < batch; ++i) {
    inputs.push_back(RenderSyntheticDigit(i % 10, config, rng));
    labels.push_back(i % 10);
  }
  GradientEngine::Options options;
  options.threads = static_cast<size_t>(state.range(1));
  GradientEngine engine(net, options);
  engine.SyncParams(net);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.ClippedGradientSum(inputs, labels, 1.0));
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_ClippedGradientSumMnist)
    ->ArgsProduct({{16, 64, 256}, {1, 4, 8}})
    ->Unit(benchmark::kMillisecond);

// Lane width 8 vs the width-1 reference on the same workload. Args are
// {batch size, engine worker threads, batch lanes}; results are
// bit-identical, only throughput differs.
void BM_ClippedGradientSumMnistLanes(benchmark::State& state) {
  const size_t batch = static_cast<size_t>(state.range(0));
  Network net = BuildMnistNetwork();
  Rng rng(9);
  net.Initialize(rng);
  SyntheticMnistConfig config;
  std::vector<Tensor> inputs;
  std::vector<size_t> labels;
  for (size_t i = 0; i < batch; ++i) {
    inputs.push_back(RenderSyntheticDigit(i % 10, config, rng));
    labels.push_back(i % 10);
  }
  GradientEngine::Options options;
  options.threads = static_cast<size_t>(state.range(1));
  options.batch_lanes = static_cast<size_t>(state.range(2));
  GradientEngine engine(net, options);
  engine.SyncParams(net);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.ClippedGradientSum(inputs, labels, 1.0));
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_ClippedGradientSumMnistLanes)
    ->ArgsProduct({{64}, {1}, {1, 8}})
    ->Unit(benchmark::kMillisecond);

void BM_ClippedGradientSumPurchase(benchmark::State& state) {
  const size_t batch = static_cast<size_t>(state.range(0));
  Network net = BuildPurchaseNetwork();
  Rng rng(10);
  net.Initialize(rng);
  SyntheticPurchaseGenerator generator(SyntheticPurchaseConfig{}, 4);
  std::vector<Tensor> inputs;
  std::vector<size_t> labels;
  for (size_t i = 0; i < batch; ++i) {
    inputs.push_back(generator.Sample(i % 100, rng));
    labels.push_back(i % 100);
  }
  GradientEngine::Options options;
  options.threads = static_cast<size_t>(state.range(1));
  GradientEngine engine(net, options);
  engine.SyncParams(net);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.ClippedGradientSum(inputs, labels, 1.0));
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_ClippedGradientSumPurchase)
    ->ArgsProduct({{16, 64, 256}, {1, 4, 8}})
    ->Unit(benchmark::kMillisecond);

// One DPSGD step's shared-neighbour clipped sums (core/neighbor_sums), the
// call an audit trial spends most of each step in. Args are {network: 0 =
// MNIST conv net, 1 = Purchase MLP at the audit sweeps' 600-48-30 width;
// batch lanes, 1 = the width-1 reference; neighbours: 0 = bounded, 1 =
// unbounded}. D has 40 records. The bounded pair replaces record 7, so its
// 41-record union ends in a one-example tail, padded at 8 lanes; the
// unbounded pair removes record 39 and runs five full packs.
// Single-threaded, as a sweep worker runs it.
void BM_ClippedNeighborSums(benchmark::State& state) {
  const bool purchase = state.range(0) == 1;
  const NeighborMode mode = state.range(2) == 0 ? NeighborMode::kBounded
                                                : NeighborMode::kUnbounded;
  Rng rng(11);
  Network net = purchase ? BuildPurchaseNetwork(600, 48, 30)
                         : BuildMnistNetwork();
  net.Initialize(rng);
  SyntheticMnistConfig mnist_config;
  SyntheticPurchaseGenerator generator(SyntheticPurchaseConfig{}, 4);
  auto sample = [&](size_t label) {
    return purchase ? generator.Sample(label, rng)
                    : RenderSyntheticDigit(label, mnist_config, rng);
  };
  const size_t classes = purchase ? 30 : 10;
  Dataset d;
  for (size_t i = 0; i < 40; ++i) d.Add(sample(i % classes), i % classes);
  Dataset d_prime = mode == NeighborMode::kBounded
                        ? d.WithRecordReplaced(7, sample(3), 3)
                        : d.WithRecordRemoved(39);
  const NeighborOverlap overlap = AnalyzeNeighborOverlap(d, d_prime, mode);
  GradientEngine::Options options;
  options.threads = 1;
  options.batch_lanes = static_cast<size_t>(state.range(1));
  GradientEngine engine(net, options);
  engine.SyncParams(net);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeClippedNeighborSums(
        engine, d, d_prime, overlap, mode, 1.0, false));
  }
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<int64_t>(mode == NeighborMode::kBounded ? 41 : 40));
}
BENCHMARK(BM_ClippedNeighborSums)
    ->ArgsProduct({{0, 1}, {1, 8}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

// Per-layer cost of the 8-lane kernels at the audit benchmark's shapes: the
// 28x28 MNIST conv net with 4/8 filters and the Purchase 600-48-30 MLP,
// single-threaded. Registered as BM_LaneLayer/<net>/<layer>/<fwd|bwd>,
// layers named by kind and ordinal (conv2d2 is the second convolution).
// Items are examples, so per-example cost is time / 8. A backward
// benchmark reruns against one forward pass: layers keep the forward state
// their backward reads. Layer 0's input gradient is skipped, as in
// Network::LaneGradientsInto.
constexpr size_t kLaneLayerLanes = 8;

Network LaneLayerNetwork(bool purchase) {
  return purchase ? BuildPurchaseNetwork(600, 48, 30)
                  : BuildMnistNetwork(SyntheticMnistConfig{}.image_size,
                                      /*conv1_filters=*/4,
                                      /*conv2_filters=*/8);
}

void BM_LaneLayer(benchmark::State& state, bool purchase, size_t index,
                  bool backward) {
  Rng rng(19);
  Network net = LaneLayerNetwork(purchase);
  net.Initialize(rng);
  SyntheticMnistConfig mnist_config;
  SyntheticPurchaseGenerator generator(SyntheticPurchaseConfig{}, 4);
  std::vector<Tensor> examples;
  for (size_t l = 0; l < kLaneLayerLanes; ++l) {
    examples.push_back(purchase ? generator.Sample(l, rng)
                                : RenderSyntheticDigit(l, mnist_config, rng));
  }
  const Tensor* ptrs[kLaneLayerLanes];
  for (size_t l = 0; l < kLaneLayerLanes; ++l) ptrs[l] = &examples[l];
  std::vector<std::unique_ptr<Layer>> layers;
  for (size_t i = 0; i <= index; ++i) layers.push_back(net.layer(i).Clone());
  std::vector<Tensor> acts(index + 2);
  PackLanes(ptrs, kLaneLayerLanes, &acts[0]);
  for (size_t i = 0; i <= index; ++i) {
    layers[i]->ForwardBatchInto(acts[i], kLaneLayerLanes, &acts[i + 1]);
  }
  Layer& layer = *layers[index];
  Tensor grad_output = acts[index + 1];
  for (size_t e = 0; e < grad_output.size(); ++e) {
    grad_output[e] = static_cast<float>(rng.Gaussian(0.0, 1.0));
  }
  Tensor result;
  Tensor* grad_input = index == 0 ? nullptr : &result;
  for (auto _ : state) {
    if (backward) {
      layer.BackwardBatchInto(grad_output, kLaneLayerLanes, grad_input);
    } else {
      layer.ForwardBatchInto(acts[index], kLaneLayerLanes, &result);
    }
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kLaneLayerLanes));
}

bool RegisterLaneLayerBenchmarks() {
  for (bool purchase : {false, true}) {
    const Network net = LaneLayerNetwork(purchase);
    std::map<std::string, size_t> ordinals;
    for (size_t i = 0; i < net.num_layers(); ++i) {
      const std::string name = net.layer(i).Name();
      const std::string kind = name.substr(0, name.find('('));
      const std::string layer = kind + std::to_string(++ordinals[kind]);
      for (bool backward : {false, true}) {
        const std::string full = std::string("BM_LaneLayer/") +
                                 (purchase ? "purchase/" : "mnist/") + layer +
                                 (backward ? "/bwd" : "/fwd");
        benchmark::RegisterBenchmark(full.c_str(), BM_LaneLayer, purchase, i,
                                     backward)
            ->Unit(benchmark::kMicrosecond);
      }
    }
  }
  return true;
}
const bool kLaneLayerRegistered = RegisterLaneLayerBenchmarks();

void BM_RenderSyntheticDigit(benchmark::State& state) {
  SyntheticMnistConfig config;
  Rng rng(5);
  size_t digit = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(RenderSyntheticDigit(digit, config, rng));
    digit = (digit + 1) % 10;
  }
}
BENCHMARK(BM_RenderSyntheticDigit);

void BM_Ssim28x28(benchmark::State& state) {
  SyntheticMnistConfig config;
  Rng rng(6);
  Tensor a = RenderSyntheticDigit(1, config, rng);
  Tensor b = RenderSyntheticDigit(8, config, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Ssim(a, b));
  }
}
BENCHMARK(BM_Ssim28x28);

// Telemetry overhead at an instrumentation site. The disabled numbers are
// the acceptance gate: a dormant DPAUDIT_SPAN / DPAUDIT_METRIC_COUNT must
// cost one relaxed atomic load (low single-digit ns), since these sit inside
// the per-step training loop. The enabled variants show the full cost of a
// live site for comparison.
void BM_TelemetrySpanDisabled(benchmark::State& state) {
  obs::EnableTelemetryForTest(false);
  for (auto _ : state) {
    DPAUDIT_SPAN("bench_disabled");
    benchmark::DoNotOptimize(&state);
  }
}
BENCHMARK(BM_TelemetrySpanDisabled);

void BM_TelemetryCounterDisabled(benchmark::State& state) {
  obs::EnableTelemetryForTest(false);
  for (auto _ : state) {
    DPAUDIT_METRIC_COUNT("dpaudit_bench_disabled_total", 1);
    benchmark::DoNotOptimize(&state);
  }
}
BENCHMARK(BM_TelemetryCounterDisabled);

void BM_TelemetrySpanEnabled(benchmark::State& state) {
  obs::EnableTelemetryForTest(true);
  for (auto _ : state) {
    DPAUDIT_SPAN("bench_enabled");
    benchmark::DoNotOptimize(&state);
  }
  obs::EnableTelemetryForTest(false);
}
BENCHMARK(BM_TelemetrySpanEnabled);

void BM_TelemetryCounterEnabled(benchmark::State& state) {
  obs::EnableTelemetryForTest(true);
  for (auto _ : state) {
    DPAUDIT_METRIC_COUNT("dpaudit_bench_enabled_total", 1);
    benchmark::DoNotOptimize(&state);
  }
  obs::EnableTelemetryForTest(false);
}
BENCHMARK(BM_TelemetryCounterEnabled);

// Dispatch cost of a short region on the persistent shared pool: queueing
// the runners, claiming chunks, retracting the runners that never started.
void BM_ParallelForSharedPool(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::atomic<uint64_t> sink{0};
  for (auto _ : state) {
    ThreadPool::ParallelFor(n, 4, [&sink](size_t i) {
      sink.fetch_add(i, std::memory_order_relaxed);
    });
  }
  benchmark::DoNotOptimize(sink.load());
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_ParallelForSharedPool)->Arg(16)->Arg(256);

void BM_Hamming600(benchmark::State& state) {
  SyntheticPurchaseGenerator generator(SyntheticPurchaseConfig{}, 7);
  Rng rng(8);
  Tensor a = generator.Sample(1, rng);
  Tensor b = generator.Sample(2, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(HammingDistance(a, b));
  }
}
BENCHMARK(BM_Hamming600);

}  // namespace
}  // namespace dpaudit

// Custom main instead of BENCHMARK_MAIN(): google-benchmark rejects unknown
// flags, so --telemetry=<dir> is consumed here before Initialize sees argv.
int main(int argc, char** argv) {
  dpaudit::obs::TelemetryOptions options =
      dpaudit::obs::TelemetryOptionsFromEnv();
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    constexpr char kFlag[] = "--telemetry=";
    if (arg.rfind(kFlag, 0) == 0) {
      options.enabled = true;
      options.directory = arg.substr(sizeof(kFlag) - 1);
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  dpaudit::obs::InitTelemetry(argv[0], options);
  // The clip-stage kernel tier, so results name the bodies that ran.
  benchmark::AddCustomContext("simd", dpaudit::obs::ActiveSimdDispatch());
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  dpaudit::obs::FlushTelemetry();
  return 0;
}
