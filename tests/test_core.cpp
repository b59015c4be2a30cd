// Tests for the UPAQ core: compression plans (size accounting, profile
// application, prefix-fallback mapping), the efficiency score, mask builders
// (Algorithms 4/5), and the end-to-end compressor invariants on a tiny
// detector.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>

#include "core/plan.h"
#include "core/upaq.h"
#include "detectors/pointpillars.h"

namespace upaq {
namespace {

detectors::PointPillarsConfig tiny_pp() {
  auto cfg = detectors::PointPillarsConfig::scaled();
  cfg.grid = 32;
  cfg.pfn_channels = 8;
  cfg.blocks = {{1, 8}, {1, 12}, {1, 16}};
  cfg.up_channels = 8;
  cfg.head_channels = 16;
  return cfg;
}

TEST(Plan, ModelSizeDenseBaseline) {
  Rng rng(1);
  detectors::PointPillars pp(tiny_pp(), rng);
  core::CompressionPlan empty;
  const auto size = core::model_size(pp, empty);
  EXPECT_EQ(size.base_bits, size.compressed_bits);
  EXPECT_NEAR(size.ratio(), 1.0, 1e-12);
  EXPECT_EQ(size.base_bits, pp.parameter_count() * 32);
}

TEST(Plan, ModelSizeQuantizedLayer) {
  Rng rng(2);
  detectors::PointPillars pp(tiny_pp(), rng);
  core::CompressionPlan plan;
  core::LayerState st;
  st.storage_bits = 8;
  st.format = quant::StorageFormat::kDense;
  plan.layers["block0.conv0"] = st;
  const auto size = core::model_size(pp, plan);
  auto* w = core::find_weight(pp, "block0.conv0");
  const std::int64_t saved = w->value.numel() * (32 - 8);
  EXPECT_EQ(size.base_bits - size.compressed_bits, saved);
}

TEST(Plan, ModelSizeChargesPerKernelScales) {
  Rng rng(3);
  detectors::PointPillars pp(tiny_pp(), rng);
  core::CompressionPlan plan;
  core::LayerState st;
  st.storage_bits = 8;
  st.quant_group = 9;
  plan.layers["block0.conv0"] = st;
  const auto with_scales = core::model_size(pp, plan);
  plan.layers["block0.conv0"].quant_group = 0;
  const auto without = core::model_size(pp, plan);
  auto* w = core::find_weight(pp, "block0.conv0");
  const std::int64_t scale_bits = 16 * ((w->value.numel() + 8) / 9);
  EXPECT_EQ(with_scales.compressed_bits - without.compressed_bits, scale_bits);
}

TEST(Plan, ApplyPlanExactAndPrefixFallback) {
  std::vector<hw::LayerProfile> profile(3);
  profile[0].name = "block0.conv0";
  profile[0].weight_count = 100;
  profile[1].name = "block0.conv3";  // only in the full-width spec
  profile[1].weight_count = 100;
  profile[2].name = "pre.pillarize";  // no weights: never touched
  core::CompressionPlan plan;
  core::LayerState st;
  st.sparsity = 0.7;
  st.compute_bits = 8;
  st.mode = hw::SparsityMode::kSemiStructured;
  plan.layers["block0.conv0"] = st;
  const auto mapped = core::apply_plan(profile, plan);
  EXPECT_EQ(mapped[0].weight_bits, 8);
  EXPECT_NEAR(mapped[0].weight_sparsity, 0.7, 1e-12);
  // conv3 falls back to the conv0 entry (same prefix, same stem).
  EXPECT_EQ(mapped[1].weight_bits, 8);
  EXPECT_NEAR(mapped[1].weight_sparsity, 0.7, 1e-12);
  EXPECT_EQ(mapped[2].weight_bits, 32);
}

TEST(Plan, ApplyPlanDoesNotCrossPrefixes) {
  std::vector<hw::LayerProfile> profile(1);
  profile[0].name = "block1.conv0";
  profile[0].weight_count = 10;
  core::CompressionPlan plan;
  core::LayerState st;
  st.compute_bits = 4;
  plan.layers["block0.conv0"] = st;
  const auto mapped = core::apply_plan(profile, plan);
  EXPECT_EQ(mapped[0].weight_bits, 32) << "block1 must not inherit block0";
}

TEST(Plan, SaveLoadRoundTrip) {
  core::CompressionPlan plan;
  plan.framework = "UPAQ (LCK)";
  core::LayerState st;
  st.sparsity = 0.66;
  st.storage_bits = 8;
  st.compute_bits = 8;
  st.mode = hw::SparsityMode::kSemiStructured;
  st.format = quant::StorageFormat::kBitmapSparse;
  st.quant_group = 9;
  st.pattern = "mixed(n=3,d=3)";
  plan.layers["block0.conv0"] = st;
  plan.layers["head.cls"] = core::LayerState{};
  const std::string path = ::testing::TempDir() + "/plan_test.plan";
  core::save_plan(path, plan);
  const auto loaded = core::load_plan(path);
  EXPECT_EQ(loaded.framework, plan.framework);
  ASSERT_EQ(loaded.layers.size(), 2u);
  const auto& lst = loaded.layers.at("block0.conv0");
  EXPECT_NEAR(lst.sparsity, 0.66, 1e-9);
  EXPECT_EQ(lst.storage_bits, 8);
  EXPECT_EQ(lst.mode, hw::SparsityMode::kSemiStructured);
  EXPECT_EQ(lst.quant_group, 9);
  EXPECT_EQ(lst.pattern, "mixed(n=3,d=3)");
  EXPECT_TRUE(loaded.layers.at("head.cls").pattern.empty());
  std::filesystem::remove(path);
}

TEST(Plan, LoadRejectsMalformedLines) {
  const std::string path = ::testing::TempDir() + "/plan_malformed.plan";
  const std::string head = "upaq-plan-v1\nUPAQ (HCK)\n";
  // Lines of the kinds the committed zoo plans carry: bits {4, 8, 16, 32},
  // modes 0-2, formats 0-1, groups {0, 9}.
  const std::string good =
      "block0.conv0\t0.777778\t4\t4\t2\t1\t9\tmixed(n=2,d=3)\n"
      "block0.conv1\t0.37\t16\t32\t1\t0\t0\t-\n"
      "head.cls\t0\t8\t8\t0\t0\t9\t-\n"
      "neck.conv\t0.733218\t32\t32\t2\t1\t0\tentry-pattern(3)\n";
  const auto write = [&](const std::string& body) {
    std::ofstream(path) << head << body;
  };
  write(good);
  EXPECT_EQ(core::load_plan(path).layers.size(), 4u);

  // Each bad line sits on file line 4, after one good layer line.
  const std::string first = "block0.conv0\t0.5\t8\t8\t2\t1\t9\t-\n";
  for (const std::string bad : {
           "block0.conv1\t0.5\t8\t8\t7\t1\t9\t-",    // mode 7
           "block0.conv1\t0.5\t8\t8\t-1\t1\t9\t-",   // mode -1
           "block0.conv1\t0.5\t8\t8\t2\t3\t9\t-",    // format 3
           "block0.conv1\t0.5\t0\t8\t2\t1\t9\t-",    // storage bits 0
           "block0.conv1\t0.5\t8\t33\t2\t1\t9\t-",   // compute bits 33
           "block0.conv1\t-0.1\t8\t8\t2\t1\t9\t-",   // sparsity < 0
           "block0.conv1\t1.5\t8\t8\t2\t1\t9\t-",    // sparsity > 1
           "block0.conv1\tnan\t8\t8\t2\t1\t9\t-",    // NaN sparsity
           "block0.conv1\t0.5\t8\t8\t2\t1\t-9\t-",   // negative group
           "block0.conv1\t0.5\t8\t8\t2\t1\t9\t-\tx", // extra field
           "block0.conv1\t0.5\t8\t8\t2\t1\t9",        // missing field
           "block0.conv0\t0.5\t8\t8\t2\t1\t9\t-",    // duplicate layer
       }) {
    write(first + bad + "\n");
    try {
      (void)core::load_plan(path);
      ADD_FAILURE() << "accepted: " << bad;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(path + ":4: "), std::string::npos)
          << "error does not name the file and line: " << e.what();
    }
  }
  std::filesystem::remove(path);
}

TEST(EfficiencyScorer, PrefersFasterAndCheaper) {
  std::vector<hw::LayerProfile> base(1);
  base[0].name = "conv";
  base[0].macs = 4'000'000'000;
  base[0].weight_count = 1'000'000;
  base[0].in_elems = base[0].out_elems = 500'000;
  core::EfficiencyScorer scorer(
      hw::CostModel(hw::device_spec(hw::Device::kJetsonOrinNano)), base);
  auto compressed = base;
  compressed[0].weight_sparsity = 0.7;
  compressed[0].weight_bits = 8;
  compressed[0].mode = hw::SparsityMode::kSemiStructured;
  const double sqnr = 1000.0;
  EXPECT_GT(scorer.score(compressed, sqnr), scorer.score(base, sqnr));
  // Higher SQNR raises the score at fixed cost.
  EXPECT_GT(scorer.score(base, 1e6), scorer.score(base, 10.0));
}

TEST(BuildMask, KxKTilesPattern) {
  Rng rng(4);
  prune::KernelPattern p = prune::generate_pattern(2, 3, rng);
  const Tensor mask = core::UpaqCompressor::build_mask({4, 2, 3, 3}, p);
  EXPECT_EQ(mask.count_nonzero(), 4 * 2 * 2);
}

TEST(BuildMask, OneByOneTransformKeepsTailDense) {
  Rng rng(5);
  prune::KernelPattern p = prune::generate_pattern(3, 3, rng);
  // 20 weights = 2 full tiles of 9 + tail of 2 (kept dense).
  const Tensor mask = core::UpaqCompressor::build_mask({4, 5}, p);
  EXPECT_EQ(mask.count_nonzero(), 2 * 3 + 2);
}

TEST(AssignMasks, PicksL2MaximizingPattern) {
  // Kernel with all mass on the main diagonal: the diagonal candidate wins.
  Tensor w({1, 1, 3, 3});
  w.at(0, 0, 0, 0) = 5.0f;
  w.at(0, 0, 1, 1) = 5.0f;
  w.at(0, 0, 2, 2) = 5.0f;
  w.at(0, 0, 0, 1) = 0.1f;
  const auto candidates = prune::all_patterns(3, 3);
  const Tensor mask = core::UpaqCompressor::assign_masks(w, candidates, 3);
  EXPECT_EQ(mask.at(0, 0, 0, 0), 1.0f);
  EXPECT_EQ(mask.at(0, 0, 1, 1), 1.0f);
  EXPECT_EQ(mask.at(0, 0, 2, 2), 1.0f);
  EXPECT_EQ(mask.count_nonzero(), 3);
}

TEST(AssignMasks, EveryKernelGetsExactlyNNonzeros) {
  Rng rng(6);
  Tensor w = Tensor::normal({6, 4, 3, 3}, rng);
  const auto candidates = prune::generate_candidates(2, 3, 16, rng);
  const Tensor mask = core::UpaqCompressor::assign_masks(w, candidates, 3);
  for (std::int64_t k = 0; k < 24; ++k) {
    int nz = 0;
    for (int i = 0; i < 9; ++i) nz += mask[k * 9 + i] != 0.0f;
    EXPECT_EQ(nz, 2) << "kernel " << k;
  }
}

TEST(UpaqCompressor, EndToEndInvariants) {
  Rng rng(7);
  detectors::PointPillars pp(tiny_pp(), rng);
  const auto baseline = pp.state_dict();
  core::UpaqCompressor compressor(core::UpaqConfig::hck());
  const auto result = compressor.compress(pp);

  // Every prunable layer appears in the plan.
  const auto& g = pp.topology();
  for (int id = 0; id < g.size(); ++id) {
    if (g.prunable(id)) {
      EXPECT_TRUE(result.plan.layers.count(g.node(id).name))
          << g.node(id).name;
    }
  }

  // Pruned layers carry masks consistent with their values and the plan.
  for (const auto& [name, st] : result.plan.layers) {
    auto* w = core::find_weight(pp, name);
    ASSERT_NE(w, nullptr);
    EXPECT_EQ(w->quant_bits, st.storage_bits);
    if (st.sparsity > 0.0) {
      ASSERT_FALSE(w->mask.empty());
      EXPECT_NEAR(w->sparsity(), st.sparsity, 1e-9);
      for (std::int64_t i = 0; i < w->value.numel(); ++i) {
        if (w->mask[i] == 0.0f) {
          EXPECT_EQ(w->value[i], 0.0f);
        }
      }
    }
  }

  // Heads are quantized but never pruned.
  EXPECT_EQ(result.plan.layers.at("head.cls").sparsity, 0.0);
  EXPECT_EQ(result.plan.layers.at("head.reg").sparsity, 0.0);

  // Compression strictly shrinks the model.
  const auto size = core::model_size(pp, result.plan);
  EXPECT_GT(size.ratio(), 2.0);

  // Group decisions exist, Es is finite, and the search actually ran.
  EXPECT_FALSE(result.decisions.empty());
  EXPECT_GT(result.candidates_evaluated,
            static_cast<int>(result.decisions.size()));
  for (const auto& d : result.decisions) EXPECT_TRUE(std::isfinite(d.es));

  // Group members share the root's bitwidth (paper: leaves adopt the root).
  for (const auto& d : result.decisions)
    for (const auto& m : d.members)
      EXPECT_EQ(result.plan.layers.at(m).storage_bits, d.bits);

  // The original weights were genuinely modified.
  bool changed = false;
  const auto after = pp.state_dict();
  for (const auto& [name, tensor] : baseline) {
    const auto& now = after.at(name);
    for (std::int64_t i = 0; i < tensor.numel(); ++i)
      if (tensor[i] != now[i]) {
        changed = true;
        break;
      }
  }
  EXPECT_TRUE(changed);
}

TEST(UpaqCompressor, LckKeepsMoreWeightsThanHck) {
  Rng rng(8);
  detectors::PointPillars a(tiny_pp(), rng);
  Rng rng2(8);
  detectors::PointPillars b(tiny_pp(), rng2);
  core::UpaqCompressor lck(core::UpaqConfig::lck());
  core::UpaqCompressor hck(core::UpaqConfig::hck());
  lck.compress(a);
  hck.compress(b);
  std::int64_t nz_lck = 0, nz_hck = 0;
  for (const auto* p : a.parameters()) nz_lck += p->value.count_nonzero();
  for (const auto* p : b.parameters()) nz_hck += p->value.count_nonzero();
  EXPECT_GT(nz_lck, nz_hck);
}

TEST(UpaqCompressor, DeterministicPerSeed) {
  Rng rng(9);
  detectors::PointPillars a(tiny_pp(), rng);
  Rng rng2(9);
  detectors::PointPillars b(tiny_pp(), rng2);
  core::UpaqCompressor c1(core::UpaqConfig::lck());
  core::UpaqCompressor c2(core::UpaqConfig::lck());
  const auto r1 = c1.compress(a);
  const auto r2 = c2.compress(b);
  ASSERT_EQ(r1.decisions.size(), r2.decisions.size());
  for (std::size_t i = 0; i < r1.decisions.size(); ++i) {
    EXPECT_EQ(r1.decisions[i].pattern, r2.decisions[i].pattern);
    EXPECT_EQ(r1.decisions[i].bits, r2.decisions[i].bits);
  }
}

TEST(Requantize, KeepsMasksAndGrid) {
  Rng rng(10);
  detectors::PointPillars pp(tiny_pp(), rng);
  core::UpaqCompressor compressor(core::UpaqConfig::lck());
  const auto result = compressor.compress(pp);
  // Perturb weights (as fine-tuning would), then requantize.
  for (auto* p : pp.parameters()) {
    for (auto& v : p->value.flat()) v += 0.001f;
    p->project();
  }
  core::requantize(pp, result.plan);
  for (const auto& [name, st] : result.plan.layers) {
    auto* w = core::find_weight(pp, name);
    if (st.sparsity > 0.0) {
      for (std::int64_t i = 0; i < w->value.numel(); ++i) {
        if (w->mask[i] == 0.0f) {
          EXPECT_EQ(w->value[i], 0.0f);
        }
      }
    }
  }
}

TEST(RebuildMasks, RecoversMaskFromZeroPattern) {
  Rng rng(11);
  detectors::PointPillars pp(tiny_pp(), rng);
  core::UpaqCompressor compressor(core::UpaqConfig::hck());
  const auto result = compressor.compress(pp);
  // Simulate a checkpoint reload: masks lost, values kept.
  const auto state = pp.state_dict();
  Rng rng2(99);
  detectors::PointPillars fresh(tiny_pp(), rng2);
  fresh.load_state_dict(state);
  core::rebuild_masks(fresh, result.plan);
  for (const auto& [name, st] : result.plan.layers) {
    if (st.sparsity <= 0.0) continue;
    auto* w = core::find_weight(fresh, name);
    ASSERT_FALSE(w->mask.empty()) << name;
    EXPECT_EQ(w->mask.count_nonzero(), w->value.count_nonzero());
  }
}

}  // namespace
}  // namespace upaq
