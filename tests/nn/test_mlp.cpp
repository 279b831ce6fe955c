#include "nn/mlp.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>

#include "util/frame.hpp"
#include "util/rng.hpp"

namespace capes::nn {
namespace {

Matrix random_matrix(std::size_t r, std::size_t c, util::Rng& rng) {
  Matrix m(r, c);
  for (std::size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return m;
}

TEST(Mlp, ShapesAndParameterCount) {
  util::Rng rng(1);
  Mlp mlp({10, 20, 20, 5}, rng);
  EXPECT_EQ(mlp.input_size(), 10u);
  EXPECT_EQ(mlp.output_size(), 5u);
  // Params: 10*20+20 + 20*20+20 + 20*5+5 = 220 + 420 + 105.
  EXPECT_EQ(mlp.parameter_count(), 745u);
  EXPECT_EQ(mlp.parameters().size(), 6u);
  EXPECT_EQ(mlp.memory_bytes(), 2 * 745 * sizeof(float));
}

TEST(Mlp, ForwardShape) {
  util::Rng rng(2);
  Mlp mlp({6, 8, 3}, rng);
  Matrix x = random_matrix(4, 6, rng);
  const Matrix& y = mlp.forward(x);
  EXPECT_EQ(y.rows(), 4u);
  EXPECT_EQ(y.cols(), 3u);
}

TEST(Mlp, DeterministicForward) {
  util::Rng rng(3);
  Mlp mlp({5, 7, 2}, rng);
  Matrix x = random_matrix(2, 5, rng);
  const Matrix y1 = mlp.forward(x);
  const Matrix y2 = mlp.forward(x);
  for (std::size_t i = 0; i < y1.size(); ++i) {
    EXPECT_EQ(y1.data()[i], y2.data()[i]);
  }
}

TEST(Mlp, SameSeedSameNetwork) {
  util::Rng rng1(42), rng2(42);
  Mlp a({4, 6, 2}, rng1), b({4, 6, 2}, rng2);
  util::Rng xr(5);
  Matrix x = random_matrix(3, 4, xr);
  const Matrix ya = a.forward(x);
  const Matrix yb = b.forward(x);
  for (std::size_t i = 0; i < ya.size(); ++i) {
    EXPECT_EQ(ya.data()[i], yb.data()[i]);
  }
}

/// Whole-network numerical gradient check (the key correctness test for
/// the from-scratch backprop).
TEST(Mlp, NumericalGradientCheck) {
  util::Rng rng(7);
  Mlp mlp({4, 6, 6, 2}, rng);
  Matrix x = random_matrix(3, 4, rng);

  auto loss_of = [&]() {
    const Matrix& y = mlp.forward(x);
    float l = 0.0f;
    for (std::size_t i = 0; i < y.size(); ++i) l += y.data()[i] * y.data()[i];
    return 0.5f * l;
  };

  mlp.zero_grad();
  const Matrix& y = mlp.forward(x);
  Matrix grad(y.rows(), y.cols());
  for (std::size_t i = 0; i < y.size(); ++i) grad.data()[i] = y.data()[i];
  mlp.backward(grad);

  const float eps = 1e-2f;
  for (auto* param : mlp.parameters()) {
    for (std::size_t idx = 0; idx < param->value.size();
         idx += std::max<std::size_t>(1, param->value.size() / 4)) {
      const float orig = param->value[idx];
      param->value[idx] = orig + eps;
      const float lp = loss_of();
      param->value[idx] = orig - eps;
      const float lm = loss_of();
      param->value[idx] = orig;
      const float numeric = (lp - lm) / (2 * eps);
      EXPECT_NEAR(param->grad[idx], numeric,
                  5e-2f * std::max(1.0f, std::fabs(numeric)))
          << param->name << "[" << idx << "]";
    }
  }
}

TEST(Mlp, CopyWeightsMakesIdentical) {
  util::Rng rng(8);
  Mlp a({3, 5, 2}, rng);
  Mlp b({3, 5, 2}, rng);  // different init (rng advanced)
  Matrix x = random_matrix(2, 3, rng);
  b.copy_weights_from(a);
  const Matrix ya = a.forward(x);
  const Matrix yb = b.forward(x);
  for (std::size_t i = 0; i < ya.size(); ++i) {
    EXPECT_EQ(ya.data()[i], yb.data()[i]);
  }
}

TEST(Mlp, CloneIsIndependentDeepCopy) {
  util::Rng rng(21);
  Mlp a({3, 4, 2}, rng, Activation::kRelu);
  auto b = a.clone();
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->layer_sizes(), a.layer_sizes());
  EXPECT_EQ(b->activation(), a.activation());
  Matrix x = random_matrix(2, 3, rng);
  {
    const Matrix& ya = a.forward(x);
    const Matrix& yb = b->forward(x);
    for (std::size_t i = 0; i < ya.size(); ++i) {
      EXPECT_EQ(ya.data()[i], yb.data()[i]);
    }
  }
  // Mutating the clone must not touch the original.
  b->parameters()[0]->value[0] += 1.0f;
  EXPECT_NE(a.parameters()[0]->value[0], b->parameters()[0]->value[0]);
}

TEST(Mlp, SoftUpdateInterpolates) {
  util::Rng rng(9);
  Mlp a({2, 3, 1}, rng);
  Mlp b({2, 3, 1}, rng);
  const float a0 = a.parameters()[0]->value[0];
  const float b0 = b.parameters()[0]->value[0];
  b.soft_update_from(a, 0.25f);
  EXPECT_NEAR(b.parameters()[0]->value[0], 0.75f * b0 + 0.25f * a0, 1e-6f);
}

TEST(Mlp, SoftUpdateAlphaOneCopies) {
  util::Rng rng(10);
  Mlp a({2, 3, 1}, rng);
  Mlp b({2, 3, 1}, rng);
  b.soft_update_from(a, 1.0f);
  for (std::size_t p = 0; p < a.parameters().size(); ++p) {
    EXPECT_EQ(a.parameters()[p]->value, b.parameters()[p]->value);
  }
}

TEST(Mlp, SerializeDeserializeRoundTrip) {
  util::Rng rng(11);
  Mlp a({5, 8, 8, 3}, rng);
  const auto bytes = a.serialize();
  auto b = Mlp::deserialize(bytes);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->layer_sizes(), a.layer_sizes());
  Matrix x = random_matrix(2, 5, rng);
  const Matrix ya = a.forward(x);
  const Matrix yb = b->forward(x);
  for (std::size_t i = 0; i < ya.size(); ++i) {
    EXPECT_EQ(ya.data()[i], yb.data()[i]);
  }
}

TEST(Mlp, DeserializeRejectsGarbage) {
  EXPECT_EQ(Mlp::deserialize({}), nullptr);
  EXPECT_EQ(Mlp::deserialize({1, 2, 3, 4}), nullptr);
  util::Rng rng(12);
  Mlp a({3, 4, 2}, rng);
  auto bytes = a.serialize();
  bytes[0] ^= 0xFF;  // corrupt magic
  EXPECT_EQ(Mlp::deserialize(bytes), nullptr);
}

TEST(Mlp, DeserializeRejectsTruncation) {
  util::Rng rng(13);
  Mlp a({3, 4, 2}, rng);
  auto bytes = a.serialize();
  bytes.resize(bytes.size() / 2);
  EXPECT_EQ(Mlp::deserialize(bytes), nullptr);
}

TEST(Mlp, DeserializeRejectsForgedVectorCount) {
  util::Rng rng(15);
  Mlp a({3, 4, 2}, rng);
  auto bytes = a.serialize();
  // magic, version, activation, size count, sizes, then the first
  // parameter's name and its f32 count.
  const std::size_t name_at = 13 + 8 * std::size_t{util::get_le32(&bytes[9])};
  const std::size_t count_at = name_at + 4 + util::get_le32(&bytes[name_at]);
  util::put_le64(&bytes[count_at], (std::uint64_t{1} << 62) + 1);
  EXPECT_EQ(Mlp::deserialize(bytes), nullptr);
}

TEST(Mlp, CheckpointFileRoundTrip) {
  util::Rng rng(14);
  Mlp a({4, 4, 2}, rng);
  const std::string path =
      (std::filesystem::temp_directory_path() / "capes_mlp_ckpt.bin").string();
  ASSERT_TRUE(a.save_checkpoint(path));
  auto b = Mlp::load_checkpoint(path);
  ASSERT_NE(b, nullptr);
  Matrix x = random_matrix(1, 4, rng);
  EXPECT_EQ(a.forward(x).at(0, 0), b->forward(x).at(0, 0));
  std::remove(path.c_str());
}

TEST(Mlp, LoadMissingCheckpointFails) {
  EXPECT_EQ(Mlp::load_checkpoint("/nonexistent/model.bin"), nullptr);
}

TEST(Mlp, ReluVariantRuns) {
  util::Rng rng(15);
  Mlp mlp({4, 8, 2}, rng, Activation::kRelu);
  Matrix x = random_matrix(2, 4, rng);
  const Matrix& y = mlp.forward(x);
  EXPECT_EQ(y.cols(), 2u);
  // Serialization preserves the activation.
  auto b = Mlp::deserialize(mlp.serialize());
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->activation(), Activation::kRelu);
}

}  // namespace
}  // namespace capes::nn
