#include <gtest/gtest.h>

#include "src/autograd/node.h"
#include "src/data/adult.h"
#include "src/data/mnist_grid.h"
#include "src/models/tvfs.h"
#include "src/nn/layers.h"
#include "src/nn/loss.h"
#include "src/nn/optim.h"
#include "src/runtime/session.h"
#include "src/tensor/ops.h"
#include "tests/vector_test_util.h"

namespace tdp {
namespace {

// The paper's MNISTGrid query (Listing 6): TRAINABLE compilation produces
// a differentiable plan whose COUNT(*) column carries gradients back into
// the TVF's CNNs.
class TrainableQueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    rng_ = std::make_unique<Rng>(42);
  }

  /// (Re-)registers `table` as one tensor column on the accel device.
  void RegisterTensor(const std::string& table, const std::string& column,
                      const Tensor& values) {
    ASSERT_TRUE(session_
                    .RegisterTable(table,
                                   TableBuilder(table)
                                       .AddTensor(column, values)
                                       .Build()
                                       .value(),
                                   Device::kAccel)
                    .ok());
  }

  static void ExpectChunksEqual(const exec::Chunk& a, const exec::Chunk& b) {
    ASSERT_EQ(a.num_columns(), b.num_columns());
    for (size_t c = 0; c < a.columns.size(); ++c) {
      EXPECT_TRUE(TensorEqual(a.columns[c].data(), b.columns[c].data()))
          << "column " << c;
    }
  }

  /// Registers the parse_mnist_grid TVF and a `num_grids`-grid dataset
  /// (kept in `ds_`) as MNIST_Grid, then compiles the Listing 6 query
  /// TRAINABLE. Null (after a recorded failure) when compilation fails.
  std::shared_ptr<exec::CompiledQuery> MnistGridQuery(int64_t num_grids) {
    EXPECT_TRUE(
        models::RegisterParseMnistGridTvf(session_.functions(), *rng_).ok());
    ds_ = data::MakeMnistGridDataset(num_grids, *rng_);
    RegisterTensor("MNIST_Grid", "image", ds_.grids);
    QueryOptions options;
    options.trainable = true;
    auto query = session_.Query(
        "SELECT Digit, Size, COUNT(*) FROM parse_mnist_grid(MNIST_Grid) "
        "GROUP BY Digit, Size",
        options);
    EXPECT_TRUE(query.ok()) << query.status().ToString();
    return query.ok() ? *query : nullptr;
  }

  std::unique_ptr<Rng> rng_;
  Session session_;
  data::MnistGridDataset ds_;
};

TEST_F(TrainableQueryTest, TrainableMnistGridQueryProducesSoftCounts) {
  auto query = MnistGridQuery(2);
  ASSERT_NE(query, nullptr);
  EXPECT_TRUE(query->trainable());
  EXPECT_FALSE(query->Parameters().empty());

  auto chunk = query->RunChunk();
  ASSERT_TRUE(chunk.ok()) << chunk.status().ToString();
  // Soft group-by enumerates the full 10x2 domain.
  EXPECT_EQ(chunk->num_rows(), data::kNumCountBuckets);
  const Tensor counts = chunk->columns[2].data();
  // Expected counts sum to the number of tiles (2 grids x 9 tiles).
  EXPECT_NEAR(Sum(counts).item<float>(), 18.0f, 1e-2);
  // The count column is differentiable: it has a grad_fn.
  EXPECT_NE(counts.grad_fn(), nullptr);
}

TEST_F(TrainableQueryTest, GradientsReachTvfParameters) {
  auto query = MnistGridQuery(1);
  ASSERT_NE(query, nullptr);

  auto chunk = query->RunChunk();
  ASSERT_TRUE(chunk.ok());
  Tensor predicted = chunk->columns[2].data();
  Tensor target = Slice(ds_.counts, 0, 0, 1).Squeeze(0).To(Device::kAccel);
  nn::MSELoss(predicted, target).Backward();

  int with_grad = 0;
  for (const Tensor& p : query->Parameters()) {
    if (p.grad().defined()) ++with_grad;
  }
  EXPECT_EQ(with_grad, static_cast<int>(query->Parameters().size()))
      << "every CNN parameter should receive a gradient through the "
         "soft group-by";
}

// The paper's Listing 5 training loop, miniaturized: a few gradient steps
// must reduce the count-prediction loss.
TEST_F(TrainableQueryTest, TrainingLoopReducesLoss) {
  auto query = MnistGridQuery(6);
  ASSERT_NE(query, nullptr);

  nn::Adam optimizer(query->Parameters(), 0.01);
  double first_window = 0, last_window = 0;
  const int iterations = 30;
  for (int it = 0; it < iterations; ++it) {
    const int64_t i = it % 6;
    RegisterTensor("MNIST_Grid", "image",
                   Slice(ds_.grids, 0, i, 1).Contiguous());
    optimizer.ZeroGrad();
    auto chunk = query->RunChunk();
    ASSERT_TRUE(chunk.ok());
    Tensor predicted = chunk->columns[2].data();
    Tensor target = Slice(ds_.counts, 0, i, 1).Squeeze(0).To(Device::kAccel);
    Tensor loss = nn::MSELoss(predicted, target);
    if (it < 6) first_window += loss.item<double>();
    if (it >= iterations - 6) last_window += loss.item<double>();
    loss.Backward();
    optimizer.Step();
  }
  EXPECT_LT(last_window, first_window)
      << "training should reduce the grouped-count MSE";
}

TEST_F(TrainableQueryTest, InferenceModeSwapsToExactOperators) {
  auto query = MnistGridQuery(1);
  ASSERT_NE(query, nullptr);

  // Training mode: soft counts over the full domain (20 rows, fractional).
  auto soft = query->RunChunk();
  ASSERT_TRUE(soft.ok());
  EXPECT_EQ(soft->num_rows(), 20);

  // Inference mode (per-run override, the plan itself stays immutable):
  // exact operators — integer counts, observed groups only.
  exec::RunOptions inference;
  inference.training_mode = false;
  auto exact = query->RunChunk(inference);
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  EXPECT_LE(exact->num_rows(), 20);
  const Tensor counts = exact->columns[2].data();
  EXPECT_EQ(counts.dtype(), DType::kInt64);
  double total = 0;
  for (int64_t r = 0; r < counts.numel(); ++r) total += counts.At({r});
  EXPECT_EQ(total, 9.0);  // 9 tiles, integer counts
}

// Soft runs execute every pipeline as one whole-relation morsel with one
// forward per ModelEval stage, whatever the run options say: morsel and
// model-batch sizes can change neither a soft result nor the order in
// which weight gradients are summed. Outputs and parameter gradients must
// be bit-identical to the default run.
TEST_F(TrainableQueryTest, SoftRunsIgnoreMorselAndBatchSizes) {
  auto query = MnistGridQuery(3);
  ASSERT_NE(query, nullptr);
  const Tensor target = Sum(ds_.counts, 0, false).To(Device::kAccel);

  // One forward + backward from cleared gradients; returns the result and
  // a copy of every parameter's gradient.
  const auto step = [&](const exec::RunOptions& run, exec::Chunk* out,
                        std::vector<Tensor>* grads) {
    for (const Tensor& p : query->Parameters()) p.ZeroGrad();
    auto chunk = query->RunChunk(run);
    ASSERT_TRUE(chunk.ok()) << chunk.status().ToString();
    nn::MSELoss(chunk->columns[2].data(), target).Backward();
    for (const Tensor& p : query->Parameters()) {
      ASSERT_TRUE(p.grad().defined());
      grads->push_back(p.grad().Clone());
    }
    *out = std::move(chunk).value();
  };

  exec::Chunk reference;
  std::vector<Tensor> reference_grads;
  step(exec::RunOptions{}, &reference, &reference_grads);
  exec::RunOptions tiny;
  tiny.morsel_rows = 1;
  tiny.model_batch_rows = 1;
  exec::Chunk sliced;
  std::vector<Tensor> sliced_grads;
  step(tiny, &sliced, &sliced_grads);

  ExpectChunksEqual(reference, sliced);
  ASSERT_EQ(sliced_grads.size(), reference_grads.size());
  for (size_t i = 0; i < reference_grads.size(); ++i) {
    EXPECT_TRUE(TensorEqual(sliced_grads[i], reference_grads[i]))
        << "gradient of parameter " << i;
  }
}

// A soft run through the cursor: the producer runs the same whole-relation
// pipelines, so Open() yields exactly one chunk equal to RunChunk() — at
// any requested morsel size.
TEST_F(TrainableQueryTest, SoftCursorYieldsOneChunkEqualToRunChunk) {
  auto query = MnistGridQuery(2);
  ASSERT_NE(query, nullptr);
  auto reference = query->RunChunk();
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  for (const int64_t morsel_rows : {0, 1}) {
    SCOPED_TRACE("morsel_rows=" + std::to_string(morsel_rows));
    exec::RunOptions run;
    run.morsel_rows = morsel_rows;
    auto cursor = query->Open(run);
    ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
    auto chunks = testutil::DrainChunks(**cursor);
    ASSERT_TRUE(chunks.ok()) << chunks.status().ToString();
    ASSERT_EQ(chunks->size(), 1u);
    ExpectChunksEqual(*reference, chunks->front());
    // The soft count column keeps its autograd graph through the cursor.
    EXPECT_NE(chunks->front().columns[2].data().grad_fn(), nullptr);
  }
}

// LLP (paper §5.3): train the linear classifier from bag counts only.
TEST_F(TrainableQueryTest, LlpQueryLearnsFromCounts) {
  auto tvf = models::RegisterClassifyIncomesTvf(session_.functions(),
                                                data::kAdultNumFeatures,
                                                *rng_);
  ASSERT_TRUE(tvf.ok());

  data::AdultDataset train = data::MakeAdultDataset(512, *rng_);
  data::LlpBags bags = data::MakeBags(train, /*bag_size=*/32,
                                      /*laplace_scale=*/0.0, *rng_);

  QueryOptions options;
  options.trainable = true;
  RegisterTensor("Adult_Income_Bag", "features", bags.bag_features[0]);
  auto query = session_.Query(
      "SELECT Income, COUNT(*) FROM classify_incomes(Adult_Income_Bag) "
      "GROUP BY Income",
      options);
  ASSERT_TRUE(query.ok()) << query.status().ToString();

  nn::Adam optimizer((*query)->Parameters(), 0.05);
  for (int epoch = 0; epoch < 4; ++epoch) {
    for (size_t b = 0; b < bags.bag_features.size(); ++b) {
      RegisterTensor("Adult_Income_Bag", "features", bags.bag_features[b]);
      optimizer.ZeroGrad();
      auto chunk = (*query)->RunChunk();
      ASSERT_TRUE(chunk.ok());
      Tensor predicted = chunk->columns[1].data();
      Tensor target =
          Slice(bags.counts, 0, static_cast<int64_t>(b), 1).Squeeze(0);
      nn::MSELoss(predicted, target.To(Device::kAccel)).Backward();
      optimizer.Step();
    }
  }

  // Instance-level accuracy of the bag-trained classifier must beat chance
  // comfortably (paper: close to fully-supervised for small bags).
  data::AdultDataset test = data::MakeAdultDataset(512, *rng_);
  autograd::NoGradGuard no_grad;
  auto* linear = static_cast<nn::Linear*>(tvf->model.get());
  const Tensor logits = linear->Forward(test.features.To(Device::kAccel));
  const Tensor pred = ArgMax(logits, 1, false);
  int64_t correct = 0;
  for (int64_t i = 0; i < 512; ++i) {
    if (pred.At({i}) == test.labels.At({i})) ++correct;
  }
  EXPECT_GT(correct, 350) << "LLP-trained classifier accuracy too low: "
                          << correct << "/512";
}

}  // namespace
}  // namespace tdp
