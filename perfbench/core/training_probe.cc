// The training probe: the paper's trainable query (Fig. 3, Listing 5), the
// parse_mnist_grid CNN TVF under a soft GROUP BY, trained by Adam through
// Session::Query (trainable) + RunChunk + loss Backward(). One step is one
// optimizer step over kAccumulation grids. The multimodal traced run calls
// it to measure the autograd, nn and soft-operator layers, which no listed
// workload exercises.

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "core/gen.h"
#include "core/oracle.h"
#include "core/stats.h"
#include "core/workload.h"
#include "src/autograd/node.h"
#include "src/common/rng.h"
#include "src/data/mnist_grid.h"
#include "src/models/tvfs.h"
#include "src/nn/loss.h"
#include "src/nn/optim.h"
#include "src/storage/table.h"
#include "src/tensor/ops.h"

namespace perfbench {
namespace {

constexpr int kAccumulation = 8;
constexpr int64_t kTrainGrids = 64;
constexpr int64_t kTestGrids = 16;
constexpr double kLearningRate = 0.002;
constexpr const char* kQuery =
    "SELECT Digit, Size, COUNT(*) FROM parse_mnist_grid(MNIST_Grid) "
    "GROUP BY Digit, Size";
constexpr const char* kClass = "train_forward";

tdp::Status RegisterGrid(tdp::Session& session, const tdp::Tensor& grids,
                         int64_t index, Tracer* tracer, int64_t op) {
  auto table = tdp::TableBuilder("MNIST_Grid")
                   .AddTensor("image", tdp::Slice(grids, 0, index, 1).Contiguous())
                   .Build();
  if (!table.ok()) return table.status();
  Tracer::Scope span(tracer, "storage.RegisterTable", op, "MNIST_Grid");
  return session.RegisterTable("MNIST_Grid", *table, tdp::Device::kAccel);
}

/// A fresh model: data, a session with the TVF registered, the compiled
/// trainable query and its optimizer.
struct Setup {
  tdp::data::MnistGridDataset train;
  tdp::data::MnistGridDataset test;
  std::unique_ptr<tdp::Session> session;
  std::shared_ptr<tdp::exec::CompiledQuery> query;
  std::unique_ptr<tdp::nn::Adam> optimizer;
};

std::unique_ptr<Setup> SetUp(uint64_t seed) {
  auto setup = std::make_unique<Setup>();
  tdp::Rng data_rng(StreamSeed(seed, 8));
  setup->train = tdp::data::MakeMnistGridDataset(kTrainGrids, data_rng);
  setup->test = tdp::data::MakeMnistGridDataset(kTestGrids, data_rng);
  setup->session = std::make_unique<tdp::Session>();
  tdp::Rng model_rng(StreamSeed(seed, 9));
  auto tvf = tdp::models::RegisterParseMnistGridTvf(setup->session->functions(), model_rng);
  if (!tvf.ok()) throw std::runtime_error(tvf.status().ToString());
  const tdp::Status st = RegisterGrid(*setup->session, setup->train.grids, 0, nullptr, -1);
  if (!st.ok()) throw std::runtime_error(st.ToString());
  tdp::QueryOptions options;
  options.trainable = true;
  auto query = setup->session->Query(kQuery, options);
  if (!query.ok()) throw std::runtime_error(query.status().ToString());
  setup->query = *query;
  setup->optimizer =
      std::make_unique<tdp::nn::Adam>(setup->query->Parameters(), kLearningRate);
  return setup;
}

tdp::Tensor Target(const tdp::data::MnistGridDataset& d, int64_t i) {
  return tdp::Slice(d.counts, 0, i, 1).Squeeze(0).To(tdp::Device::kAccel);
}

/// Held-out grouped-count MSE, computed from the query's output tensors by
/// the benchmark's own arithmetic.
double HeldOutMse(Setup& setup, RunResult& result) {
  tdp::autograd::NoGradGuard no_grad;
  std::vector<double> predicted, target;
  for (int64_t i = 0; i < kTestGrids; ++i) {
    if (!RegisterGrid(*setup.session, setup.test.grids, i, nullptr, -1).ok()) {
      result.Fail("train: cannot register a held-out grid");
      return INFINITY;
    }
    auto chunk = setup.query->RunChunk();
    if (!chunk.ok()) {
      result.Fail("train eval: " + chunk.status().ToString());
      return INFINITY;
    }
    const std::vector<float> p =
        chunk->columns[2].data().To(tdp::Device::kCpu).Contiguous().ToVector<float>();
    const std::vector<float> t =
        Target(setup.test, i).To(tdp::Device::kCpu).Contiguous().ToVector<float>();
    if (p.size() != t.size()) {
      result.Fail("train eval: count vector has the wrong length");
      return INFINITY;
    }
    predicted.insert(predicted.end(), p.begin(), p.end());
    target.insert(target.end(), t.begin(), t.end());
  }
  return Mse(predicted, target);
}

/// One optimizer step over kAccumulation grids; false on an engine error.
bool Step(Setup& setup, int64_t step, Tracer* tracer, RunResult& result) {
  Tracer::Scope span(tracer, "op", step, kClass);
  setup.optimizer->ZeroGrad();
  for (int a = 0; a < kAccumulation; ++a) {
    const int64_t i = (step * kAccumulation + a) % kTrainGrids;
    if (!RegisterGrid(*setup.session, setup.train.grids, i, tracer, step).ok()) {
      result.Fail("train: cannot register a grid");
      return false;
    }
    auto chunk = [&] {
      Tracer::Scope run(tracer, "exec.RunChunk", step, kClass);
      return setup.query->RunChunk();
    }();
    if (!chunk.ok()) {
      result.Fail("train: " + chunk.status().ToString());
      return false;
    }
    const tdp::Tensor loss = tdp::MulScalar(
        tdp::nn::MSELoss(chunk->columns[2].data(), Target(setup.train, i)),
        1.0 / kAccumulation);
    Tracer::Scope backward(tracer, "autograd.Backward", step, kClass);
    loss.Backward();
  }
  Tracer::Scope adam(tracer, "nn.AdamStep", step, kClass);
  setup.optimizer->Step();
  return true;
}

double P50Ms(const SpanSummary& summary, const char* name) {
  const auto it = summary.duration_us.find(name);
  return it == summary.duration_us.end() ? 0.0 : MedianOrZero(it->second) / 1e3;
}

}  // namespace

void ProbeTraining(uint64_t seed, int64_t steps, RunResult& result) {
  Tracer tracer;
  std::unique_ptr<Setup> setup = SetUp(seed);
  const double untrained_mse = HeldOutMse(*setup, result);
  std::vector<double> step_ms;
  for (int64_t s = 0; s < steps; ++s) {
    ++result.attempted;
    const Clock::time_point start = Clock::now();
    if (Step(*setup, s, &tracer, result)) step_ms.push_back(SecondsSince(start) * 1e3);
  }
  const double trained_mse = HeldOutMse(*setup, result);
  ++result.attempted;
  if (!(trained_mse < untrained_mse)) {
    result.Fail("train: held-out MSE " + std::to_string(trained_mse) +
                " did not fall below the untrained " + std::to_string(untrained_mse));
  }

  const std::vector<Span> spans = tracer.spans();
  const SpanSummary summary = Summarize(spans);
  result.Detail("train.step_ms_p50", MedianOrZero(step_ms), "ms",
                static_cast<int64_t>(step_ms.size()));
  result.Detail("exec.run_ms_p50.train_forward", P50Ms(summary, "exec.RunChunk"), "ms");
  result.Detail("autograd.backward_ms_p50", P50Ms(summary, "autograd.Backward"), "ms");
  result.Detail("nn.optimizer_step_ms_p50", P50Ms(summary, "nn.AdamStep"), "ms");
  result.Detail("train.register_ms_p50", P50Ms(summary, "storage.RegisterTable"), "ms");
  result.Detail("train_mse_after_" + std::to_string(steps) + "_steps", trained_mse,
                "count^2");
  const int64_t overfull = OverfullOpSpans(spans, "op");
  if (overfull > 0) {
    result.Fail(std::to_string(overfull) +
                " training op spans whose children sum to more than the op");
  }
}

}  // namespace perfbench
