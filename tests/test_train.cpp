// Training-infrastructure tests: the trainer loop, LR decay, RNG stream
// independence, and parameterized gradient checks across conv geometries.
#include <gtest/gtest.h>

#include "data/scene.h"
#include "detectors/pointpillars.h"
#include "test_util.h"
#include "train/trainer.h"

namespace upaq {
namespace {

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(123);
  Rng b = a.fork();
  // The fork advanced `a`; both streams must now differ from each other and
  // produce deterministic values.
  Rng a2(123);
  Rng b2 = a2.fork();
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(a.uniform_int(0, 1 << 20), a2.uniform_int(0, 1 << 20));
    EXPECT_EQ(b.uniform_int(0, 1 << 20), b2.uniform_int(0, 1 << 20));
  }
}

TEST(Rng, BernoulliRespectsProbability) {
  Rng rng(7);
  int hits = 0;
  for (int i = 0; i < 4000; ++i) hits += rng.bernoulli(0.25);
  EXPECT_NEAR(hits / 4000.0, 0.25, 0.04);
}

TEST(Trainer, ValidatesConfig) {
  train::TrainableModel tm{[] {}, [](const auto&) { return 0.0; },
                           [] { return std::vector<nn::Parameter*>{}; }};
  train::Adam opt(1e-3f);
  Rng rng(1);
  train::TrainConfig bad;
  bad.batch_size = 0;
  EXPECT_THROW(train::train(tm, {data::Scene{}}, bad, opt, rng),
               std::invalid_argument);
  EXPECT_THROW(train::train(tm, {}, train::TrainConfig{}, opt, rng),
               std::invalid_argument);
}

TEST(Trainer, RunsRequestedIterationsAndReportsRecentLoss) {
  int calls = 0;
  nn::Parameter p("w", Tensor({1}, 5.0f));
  train::TrainableModel tm{
      [&] { p.zero_grad(); },
      [&](const std::vector<const data::Scene*>& batch) {
        EXPECT_EQ(batch.size(), 2u);
        ++calls;
        p.grad[0] = 2.0f * p.value[0];  // d/dw of w^2
        return static_cast<double>(p.value[0] * p.value[0]);
      },
      [&] { return std::vector<nn::Parameter*>{&p}; }};
  train::TrainConfig cfg;
  cfg.iterations = 40;
  cfg.batch_size = 2;
  cfg.lr = 0.05f;
  train::Adam opt(cfg.lr);
  Rng rng(3);
  std::vector<data::Scene> scenes(4);
  const double final_loss = train::train(tm, scenes, cfg, opt, rng);
  EXPECT_EQ(calls, 40);
  EXPECT_LT(final_loss, 25.0);  // loss decreased from w=5 (loss 25)
  EXPECT_LT(std::fabs(p.value[0]), 5.0f);
}

TEST(Trainer, LrDecayReachesOptimizer) {
  nn::Parameter p("w", Tensor({1}, 1.0f));
  train::TrainableModel tm{
      [&] { p.zero_grad(); },
      [&](const auto&) {
        p.grad[0] = 1.0f;
        return 1.0;
      },
      [&] { return std::vector<nn::Parameter*>{&p}; }};
  train::TrainConfig cfg;
  cfg.iterations = 10;
  cfg.batch_size = 1;
  cfg.lr = 0.1f;
  cfg.lr_decay = 0.1f;
  cfg.lr_decay_every = 5;
  train::Sgd opt(cfg.lr, 0.0f);
  Rng rng(4);
  std::vector<data::Scene> scenes(1);
  train::train(tm, scenes, cfg, opt, rng);
  EXPECT_NEAR(opt.lr(), 0.01f, 1e-6);
}

// Parameterized gradient checks across convolution geometries: (in_c, out_c,
// kernel, stride, pad) sweeps exercise every im2col/col2im code path.
class ConvGeometry
    : public ::testing::TestWithParam<std::tuple<int, int, int, int, int>> {};

TEST_P(ConvGeometry, GradCheck) {
  const auto [in_c, out_c, k, stride, pad] = GetParam();
  Rng rng(100 + in_c + out_c);
  nn::Conv2d conv(in_c, out_c, k, stride, pad, true, rng, "c");
  const int hw = std::max(6, k + stride);
  testing::gradcheck_layer(conv, Tensor::uniform({1, in_c, hw, hw}, rng), rng);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ConvGeometry,
    ::testing::Values(std::make_tuple(1, 1, 1, 1, 0),
                      std::make_tuple(2, 3, 3, 1, 1),
                      std::make_tuple(3, 2, 3, 2, 1),
                      std::make_tuple(2, 2, 5, 1, 2),
                      std::make_tuple(4, 1, 1, 1, 0),
                      std::make_tuple(1, 4, 3, 3, 0)));

TEST(FineTuneWithMasks, SparsityIsPreservedThroughTraining) {
  // End-to-end mask-freeze property: prune a tiny detector, train a few
  // steps, and verify no pruned weight ever becomes non-zero.
  auto cfg = detectors::PointPillarsConfig::scaled();
  cfg.grid = 32;
  cfg.pfn_channels = 8;
  cfg.blocks = {{1, 8}, {1, 12}, {1, 16}};
  cfg.up_channels = 8;
  cfg.head_channels = 16;
  Rng rng(9);
  detectors::PointPillars pp(cfg, rng);
  // Prune half of every conv weight.
  for (auto* p : pp.parameters()) {
    if (p->name.find(".weight") == std::string::npos) continue;
    Tensor mask(p->value.shape());
    for (std::int64_t i = 0; i < mask.numel(); i += 2) mask[i] = 1.0f;
    p->mask = mask;
    p->project();
  }
  data::SceneGenerator gen;
  Rng srng(10);
  const auto scene = gen.sample(srng);
  train::Adam opt(1e-3f);
  for (int it = 0; it < 5; ++it) {
    pp.zero_grad();
    pp.compute_loss_and_grad({&scene});
    opt.step(pp.parameters());
  }
  for (auto* p : pp.parameters()) {
    if (p->mask.empty()) continue;
    for (std::int64_t i = 0; i < p->value.numel(); ++i) {
      if (p->mask[i] == 0.0f) {
        ASSERT_EQ(p->value[i], 0.0f) << p->name << " regrew at " << i;
      }
    }
  }
}

}  // namespace
}  // namespace upaq
