// Dataset and recommender checkpointing, plus the PPM image writer.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "data/amazon_synth.hpp"
#include "data/dataset.hpp"
#include "data/serialize.hpp"
#include "nn/serialize.hpp"
#include "recsys/bpr_mf.hpp"
#include "recsys/vbpr.hpp"
#include "test_helpers.hpp"
#include "util/ppm.hpp"

namespace taamr {
namespace {

data::ImplicitDataset make_dataset() {
  return data::generate_synthetic_dataset(data::amazon_men_spec(data::kTestScale));
}

Tensor make_features(const data::ImplicitDataset& ds, Rng& rng) {
  Tensor f({ds.num_items, 8});
  testing::fill_uniform(f, rng, -1.0f, 1.0f);
  return f;
}

TEST(DatasetSerialize, StreamRoundtrip) {
  const auto ds = make_dataset();
  std::stringstream ss;
  data::save_dataset(ss, ds);
  const auto restored = data::load_dataset(ss);
  EXPECT_EQ(restored.name, ds.name);
  EXPECT_EQ(restored.num_users, ds.num_users);
  EXPECT_EQ(restored.num_items, ds.num_items);
  EXPECT_EQ(restored.item_category, ds.item_category);
  EXPECT_EQ(restored.item_image_seed, ds.item_image_seed);
  EXPECT_EQ(restored.train, ds.train);
  EXPECT_EQ(restored.test, ds.test);
}

TEST(DatasetSerialize, FileRoundtrip) {
  const auto ds = make_dataset();
  const std::string path =
      (std::filesystem::temp_directory_path() / "taamr_ds_test.bin").string();
  data::save_dataset_file(path, ds);
  const auto restored = data::load_dataset_file(path);
  EXPECT_EQ(restored.train, ds.train);
  std::remove(path.c_str());
}

TEST(DatasetSerialize, RejectsGarbage) {
  std::stringstream ss;
  ss << "definitely not a dataset";
  EXPECT_THROW(data::load_dataset(ss), std::runtime_error);
}

TEST(DatasetSerialize, RejectsCorruptPayload) {
  const auto ds = make_dataset();
  std::stringstream ss;
  data::save_dataset(ss, ds);
  std::string blob = ss.str();
  blob.resize(blob.size() / 2);  // truncate
  std::stringstream truncated(blob);
  EXPECT_THROW(data::load_dataset(truncated), std::runtime_error);
}

TEST(VbprSerialize, RoundtripPreservesScores) {
  const auto ds = make_dataset();
  Rng rng(11);
  const Tensor f = make_features(ds, rng);
  recsys::VbprConfig cfg;
  cfg.epochs = 15;
  recsys::Vbpr model(ds, f, cfg, rng);
  model.fit(ds, rng);

  std::stringstream ss;
  model.save(ss);
  recsys::Vbpr restored = recsys::Vbpr::load(ss, ds);
  for (std::int64_t u = 0; u < std::min<std::int64_t>(ds.num_users, 5); ++u) {
    const std::vector<float> want = testing::score_row(model, u);
    const std::vector<float> got = testing::score_row(restored, u);
    for (std::size_t i = 0; i < want.size(); i += 13) {
      ASSERT_NEAR(got[i], want[i], 1e-6f);
    }
  }
  EXPECT_EQ(restored.feature_dim(), model.feature_dim());
}

TEST(VbprSerialize, RestoredModelAcceptsNewFeatures) {
  // The frozen FeatureTransform must survive the roundtrip: swapping in
  // attacked features must behave identically on both instances.
  const auto ds = make_dataset();
  Rng rng(12);
  const Tensor f = make_features(ds, rng);
  recsys::Vbpr model(ds, f, {}, rng);
  std::stringstream ss;
  model.save(ss);
  recsys::Vbpr restored = recsys::Vbpr::load(ss, ds);

  Tensor f2 = f;
  for (float& v : f2.storage()) v += 0.3f;
  model.set_item_features(f2);
  restored.set_item_features(f2);
  const std::vector<float> want = testing::score_row(model, 2);
  const std::vector<float> got = testing::score_row(restored, 2);
  for (std::size_t i = 0; i < want.size(); i += 17) {
    ASSERT_NEAR(got[i], want[i], 1e-6f);
  }
}

TEST(VbprSerialize, RejectsMismatchedDataset) {
  const auto ds = make_dataset();
  Rng rng(13);
  recsys::Vbpr model(ds, make_features(ds, rng), {}, rng);
  std::stringstream ss;
  model.save(ss);
  auto other_spec = data::amazon_men_spec(data::kTestScale);
  other_spec.num_users += 5;
  const auto other = data::generate_synthetic_dataset(other_spec);
  EXPECT_THROW(recsys::Vbpr::load(ss, other), std::runtime_error);
}

TEST(VbprSerialize, FileRoundtrip) {
  const auto ds = make_dataset();
  Rng rng(14);
  recsys::Vbpr model(ds, make_features(ds, rng), {}, rng);
  const std::string path =
      (std::filesystem::temp_directory_path() / "taamr_vbpr_test.bin").string();
  model.save_file(path);
  recsys::Vbpr restored = recsys::Vbpr::load_file(path, ds);
  EXPECT_NEAR(testing::score_row(restored, 0)[0], testing::score_row(model, 0)[0], 1e-6f);
  std::remove(path.c_str());
  EXPECT_THROW(recsys::Vbpr::load_file("/nonexistent/x.bin", ds), std::runtime_error);
}

TEST(BprMfSerialize, RoundtripPreservesScores) {
  const auto ds = make_dataset();
  Rng rng(21);
  recsys::BprMfConfig cfg;
  cfg.epochs = 15;
  recsys::BprMf model(ds, cfg, rng);
  model.fit(ds, rng);

  std::stringstream ss;
  model.save(ss);
  recsys::BprMf restored = recsys::BprMf::load(ss, ds);
  EXPECT_EQ(restored.config().factors, model.config().factors);
  for (std::int64_t u = 0; u < std::min<std::int64_t>(ds.num_users, 5); ++u) {
    const std::vector<float> want = testing::score_row(model, u);
    const std::vector<float> got = testing::score_row(restored, u);
    for (std::size_t i = 0; i < want.size(); i += 13) {
      ASSERT_NEAR(got[i], want[i], 1e-6f);
    }
  }
}

TEST(BprMfSerialize, FileRoundtrip) {
  const auto ds = make_dataset();
  Rng rng(22);
  recsys::BprMf model(ds, {}, rng);
  const std::string path =
      (std::filesystem::temp_directory_path() / "taamr_bprmf_test.bin").string();
  model.save_file(path);
  recsys::BprMf restored = recsys::BprMf::load_file(path, ds);
  EXPECT_NEAR(testing::score_row(restored, 0)[0], testing::score_row(model, 0)[0], 1e-6f);
  std::remove(path.c_str());
  EXPECT_THROW(recsys::BprMf::load_file("/nonexistent/x.bin", ds), std::runtime_error);
}

TEST(BprMfSerialize, RejectsMismatchedDataset) {
  const auto ds = make_dataset();
  Rng rng(23);
  recsys::BprMf model(ds, {}, rng);
  std::stringstream ss;
  model.save(ss);
  auto other_spec = data::amazon_men_spec(data::kTestScale);
  other_spec.num_users += 5;
  const auto other = data::generate_synthetic_dataset(other_spec);
  EXPECT_THROW(recsys::BprMf::load(ss, other), std::runtime_error);
}

// Corrupt checkpoints must surface as descriptive runtime_errors naming the
// loader, not as raw io errors or silent garbage models (the serving
// registry forwards these messages to operators).
template <typename LoadFn>
void expect_descriptive_load_error(const std::string& blob, LoadFn load,
                                   const std::string& expected_prefix) {
  try {
    load(blob);
    FAIL() << "corrupt checkpoint was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(expected_prefix), std::string::npos)
        << "error lacks loader name: " << e.what();
  }
}

TEST(CheckpointCorruption, VbprTruncatedAndGarbage) {
  const auto ds = make_dataset();
  Rng rng(24);
  recsys::Vbpr model(ds, make_features(ds, rng), {}, rng);
  std::stringstream ss;
  model.save(ss);
  const std::string blob = ss.str();

  auto load = [&ds](const std::string& bytes) {
    std::stringstream is(bytes);
    recsys::Vbpr::load(is, ds);
  };
  for (const std::size_t keep : {std::size_t{0}, std::size_t{6}, blob.size() / 3,
                                 blob.size() / 2, blob.size() - 1}) {
    expect_descriptive_load_error(blob.substr(0, keep), load, "Vbpr::load");
  }
  expect_descriptive_load_error("this is not a checkpoint at all", load, "Vbpr::load");
  std::string flipped = blob;
  flipped[0] ^= 0x5a;  // corrupt the magic
  expect_descriptive_load_error(flipped, load, "Vbpr::load");
}

TEST(CheckpointCorruption, BprMfTruncatedAndGarbage) {
  const auto ds = make_dataset();
  Rng rng(25);
  recsys::BprMf model(ds, {}, rng);
  std::stringstream ss;
  model.save(ss);
  const std::string blob = ss.str();

  auto load = [&ds](const std::string& bytes) {
    std::stringstream is(bytes);
    recsys::BprMf::load(is, ds);
  };
  for (const std::size_t keep : {std::size_t{0}, std::size_t{6}, blob.size() / 2,
                                 blob.size() - 1}) {
    expect_descriptive_load_error(blob.substr(0, keep), load, "BprMf::load");
  }
  expect_descriptive_load_error("garbage bytes", load, "BprMf::load");
}

TEST(CheckpointCorruption, ClassifierTruncatedAndGarbage) {
  nn::MiniResNetConfig cfg;
  cfg.image_size = 8;
  cfg.base_width = 4;
  cfg.blocks_per_stage = 1;
  cfg.num_classes = 3;
  Rng rng(26);
  nn::Classifier model(cfg, rng);
  std::stringstream ss;
  nn::save_classifier(ss, model);
  const std::string blob = ss.str();

  auto load = [](const std::string& bytes) {
    std::stringstream is(bytes);
    nn::load_classifier(is);
  };
  for (const std::size_t keep : {std::size_t{0}, std::size_t{6}, blob.size() / 2,
                                 blob.size() - 1}) {
    expect_descriptive_load_error(blob.substr(0, keep), load, "load_classifier");
  }
  expect_descriptive_load_error("not a classifier", load, "load_classifier");
}

TEST(Ppm, WritesValidHeaderAndSize) {
  Tensor img({3, 4, 5}, 0.5f);
  const std::string path =
      (std::filesystem::temp_directory_path() / "taamr_test.ppm").string();
  write_ppm(path, img, 2);
  std::ifstream is(path, std::ios::binary);
  std::string magic, dims;
  std::getline(is, magic);
  std::getline(is, dims);
  EXPECT_EQ(magic, "P6");
  EXPECT_EQ(dims, "10 8");  // 5x2 wide, 4x2 tall
  std::string maxval;
  std::getline(is, maxval);
  EXPECT_EQ(maxval, "255");
  // Payload: 10 * 8 * 3 bytes.
  std::vector<char> payload(241);
  is.read(payload.data(), 241);
  EXPECT_EQ(is.gcount(), 240);
  // 0.5 -> 128 after rounding.
  EXPECT_EQ(static_cast<unsigned char>(payload[0]), 128);
  std::remove(path.c_str());
}

TEST(Ppm, ClampsOutOfRangeValues) {
  Tensor img({3, 1, 2}, std::vector<float>{-1.0f, 2.0f, 0.0f, 1.0f, 0.25f, 0.75f});
  const std::string path =
      (std::filesystem::temp_directory_path() / "taamr_clamp.ppm").string();
  write_ppm(path, img);
  std::ifstream is(path, std::ios::binary);
  std::string line;
  for (int i = 0; i < 3; ++i) std::getline(is, line);
  unsigned char px[6];
  is.read(reinterpret_cast<char*>(px), 6);
  EXPECT_EQ(px[0], 0);    // R of pixel 0: clamped -1 -> 0
  EXPECT_EQ(px[3], 255);  // R of pixel 1: clamped 2 -> 255
  std::remove(path.c_str());
}

TEST(Ppm, ValidatesArguments) {
  EXPECT_THROW(write_ppm("/tmp/x.ppm", Tensor({1, 4, 4})), std::invalid_argument);
  EXPECT_THROW(write_ppm("/tmp/x.ppm", Tensor({3, 4, 4}), 0), std::invalid_argument);
  EXPECT_THROW(write_ppm("/nonexistent/dir/x.ppm", Tensor({3, 2, 2})),
               std::runtime_error);
}

}  // namespace
}  // namespace taamr
