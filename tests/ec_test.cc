/**
 * @file
 * Unit and property tests for src/ec: GF(2^8) field axioms, matrix
 * inversion, and systematic Reed-Solomon encode/reconstruct across
 * (n, k) configurations and erasure patterns.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <optional>

#include "common/random.h"
#include "ec/gf256.h"
#include "ec/matrix.h"
#include "ec/reed_solomon.h"

namespace fusion::ec {
namespace {

TEST(Gf256Test, AdditionIsXor)
{
    const Gf256 &gf = Gf256::instance();
    EXPECT_EQ(gf.add(0x53, 0xca), 0x53 ^ 0xca);
    EXPECT_EQ(gf.add(7, 7), 0);
}

TEST(Gf256Test, MultiplicativeIdentityAndZero)
{
    const Gf256 &gf = Gf256::instance();
    for (int a = 0; a < 256; ++a) {
        EXPECT_EQ(gf.mul(static_cast<uint8_t>(a), 1), a);
        EXPECT_EQ(gf.mul(static_cast<uint8_t>(a), 0), 0);
    }
}

TEST(Gf256Test, InverseProperty)
{
    const Gf256 &gf = Gf256::instance();
    for (int a = 1; a < 256; ++a) {
        uint8_t inv = gf.inv(static_cast<uint8_t>(a));
        EXPECT_EQ(gf.mul(static_cast<uint8_t>(a), inv), 1) << "a=" << a;
    }
}

TEST(Gf256Test, MulCommutativeAssociativeSampled)
{
    const Gf256 &gf = Gf256::instance();
    Rng rng(13);
    for (int i = 0; i < 2000; ++i) {
        uint8_t a = static_cast<uint8_t>(rng.next());
        uint8_t b = static_cast<uint8_t>(rng.next());
        uint8_t c = static_cast<uint8_t>(rng.next());
        EXPECT_EQ(gf.mul(a, b), gf.mul(b, a));
        EXPECT_EQ(gf.mul(gf.mul(a, b), c), gf.mul(a, gf.mul(b, c)));
        // Distributivity over XOR addition.
        EXPECT_EQ(gf.mul(a, gf.add(b, c)),
                  gf.add(gf.mul(a, b), gf.mul(a, c)));
    }
}

TEST(Gf256Test, DivisionInvertsMultiplication)
{
    const Gf256 &gf = Gf256::instance();
    Rng rng(14);
    for (int i = 0; i < 2000; ++i) {
        uint8_t a = static_cast<uint8_t>(rng.next());
        uint8_t b = static_cast<uint8_t>(rng.uniformInt(1, 255));
        EXPECT_EQ(gf.div(gf.mul(a, b), b), a);
    }
}

TEST(Gf256Test, PowMatchesRepeatedMul)
{
    const Gf256 &gf = Gf256::instance();
    uint8_t acc = 1;
    for (unsigned e = 0; e < 300; ++e) {
        EXPECT_EQ(gf.pow(3, e), acc) << "e=" << e;
        acc = gf.mul(acc, 3);
    }
}

TEST(Gf256Test, MulAccumulate)
{
    const Gf256 &gf = Gf256::instance();
    Bytes dst(64, 0), src(64);
    Rng rng(15);
    for (auto &b : src)
        b = static_cast<uint8_t>(rng.next());
    gf.mulAccumulate(dst.data(), src.data(), src.size(), 0x1d);
    for (size_t i = 0; i < src.size(); ++i)
        EXPECT_EQ(dst[i], gf.mul(src[i], 0x1d));
    // Accumulating again with the same coefficient cancels (XOR).
    gf.mulAccumulate(dst.data(), src.data(), src.size(), 0x1d);
    for (uint8_t b : dst)
        EXPECT_EQ(b, 0);
}

TEST(MatrixTest, IdentityMultiplication)
{
    Matrix m = Matrix::vandermonde(4, 4);
    Matrix id = Matrix::identity(4);
    EXPECT_TRUE(m.multiply(id) == m);
    EXPECT_TRUE(id.multiply(m) == m);
}

TEST(MatrixTest, InverseRoundTrip)
{
    for (size_t size : {1u, 2u, 3u, 6u, 10u}) {
        Matrix m = Matrix::vandermonde(size, size);
        auto inv = m.inverse();
        ASSERT_TRUE(inv.isOk()) << "n=" << size;
        EXPECT_TRUE(m.multiply(inv.value()) == Matrix::identity(size));
    }
}

TEST(MatrixTest, SingularDetected)
{
    Matrix m(2, 2);
    m.set(0, 0, 1);
    m.set(0, 1, 2);
    m.set(1, 0, 1);
    m.set(1, 1, 2); // duplicate row
    EXPECT_FALSE(m.inverse().isOk());
}

TEST(MatrixTest, SelectRows)
{
    Matrix m = Matrix::vandermonde(5, 3);
    Matrix sel = m.selectRows({4, 0});
    EXPECT_EQ(sel.rows(), 2u);
    for (size_t c = 0; c < 3; ++c) {
        EXPECT_EQ(sel.at(0, c), m.at(4, c));
        EXPECT_EQ(sel.at(1, c), m.at(0, c));
    }
}

TEST(ReedSolomonTest, CreateValidatesParameters)
{
    EXPECT_FALSE(ReedSolomon::create(4, 4).isOk());
    EXPECT_FALSE(ReedSolomon::create(4, 0).isOk());
    EXPECT_FALSE(ReedSolomon::create(300, 100).isOk());
    EXPECT_TRUE(ReedSolomon::create(9, 6).isOk());
}

TEST(ReedSolomonTest, SystematicTopIsIdentity)
{
    auto rs = ReedSolomon::create(9, 6);
    ASSERT_TRUE(rs.isOk());
    const Matrix &m = rs.value().encodingMatrix();
    for (size_t r = 0; r < 6; ++r)
        for (size_t c = 0; c < 6; ++c)
            EXPECT_EQ(m.at(r, c), r == c ? 1 : 0);
}

struct RsConfig {
    size_t n, k;
};

class RsRoundTrip : public ::testing::TestWithParam<RsConfig>
{
};

std::vector<Bytes>
randomBlocks(size_t k, size_t size, uint64_t seed)
{
    Rng rng(seed);
    std::vector<Bytes> blocks(k, Bytes(size));
    for (auto &block : blocks)
        for (auto &b : block)
            b = static_cast<uint8_t>(rng.next());
    return blocks;
}

TEST_P(RsRoundTrip, AllErasurePatternsUpToMaxTolerated)
{
    const auto [n, k] = GetParam();
    auto rs_r = ReedSolomon::create(n, k);
    ASSERT_TRUE(rs_r.isOk());
    const ReedSolomon &rs = rs_r.value();

    const size_t block_size = 256;
    auto data = randomBlocks(k, block_size, 1234 + n * 100 + k);
    auto stripe = encodeStripe(rs, data);
    ASSERT_TRUE(stripe.isOk());
    ASSERT_EQ(stripe.value().blocks.size(), n);

    // Erase random subsets of size up to (n - k); verify recovery.
    Rng rng(99);
    for (int trial = 0; trial < 30; ++trial) {
        size_t erasures = 1 + rng.pickIndex(n - k);
        std::vector<std::optional<Bytes>> shards;
        for (const auto &block : stripe.value().blocks)
            shards.emplace_back(block);
        std::vector<size_t> ids(n);
        std::iota(ids.begin(), ids.end(), 0);
        rng.shuffle(ids);
        for (size_t e = 0; e < erasures; ++e)
            shards[ids[e]] = std::nullopt;

        auto recovered = recoverStripeData(rs, shards,
                                           stripe.value().dataSizes,
                                           stripe.value().blockSize);
        ASSERT_TRUE(recovered.isOk()) << recovered.status().toString();
        for (size_t i = 0; i < k; ++i)
            EXPECT_EQ(recovered.value()[i], data[i]);
    }
}

TEST_P(RsRoundTrip, TooManyErasuresFails)
{
    const auto [n, k] = GetParam();
    auto rs_r = ReedSolomon::create(n, k);
    ASSERT_TRUE(rs_r.isOk());
    const ReedSolomon &rs = rs_r.value();

    auto data = randomBlocks(k, 64, 7);
    auto stripe = encodeStripe(rs, data);
    ASSERT_TRUE(stripe.isOk());
    std::vector<std::optional<Bytes>> shards;
    for (const auto &block : stripe.value().blocks)
        shards.emplace_back(block);
    for (size_t e = 0; e <= n - k; ++e)
        shards[e] = std::nullopt; // one more than tolerated
    auto recovered = recoverStripeData(rs, shards, stripe.value().dataSizes,
                                       stripe.value().blockSize);
    EXPECT_EQ(recovered.status().code(), StatusCode::kUnavailable);
}

INSTANTIATE_TEST_SUITE_P(Configs, RsRoundTrip,
                         ::testing::Values(RsConfig{3, 2}, RsConfig{6, 4},
                                           RsConfig{9, 6}, RsConfig{14, 10},
                                           RsConfig{16, 12}),
                         [](const auto &info) {
                             std::string name = "n";
                             name += std::to_string(info.param.n);
                             name += "k";
                             name += std::to_string(info.param.k);
                             return name;
                         });

TEST(ReedSolomonTest, VariableSizeBlocksZeroExtended)
{
    auto rs_r = ReedSolomon::create(9, 6);
    ASSERT_TRUE(rs_r.isOk());
    const ReedSolomon &rs = rs_r.value();

    // Data blocks of very different sizes, like a FAC stripe.
    std::vector<Bytes> data;
    Rng rng(55);
    for (size_t size : {500u, 100u, 470u, 30u, 499u, 1u}) {
        Bytes b(size);
        for (auto &byte : b)
            byte = static_cast<uint8_t>(rng.next());
        data.push_back(std::move(b));
    }
    auto stripe = encodeStripe(rs, data);
    ASSERT_TRUE(stripe.isOk());
    EXPECT_EQ(stripe.value().blockSize, 500u);
    // Parity blocks all have the stripe block size.
    for (size_t p = 6; p < 9; ++p)
        EXPECT_EQ(stripe.value().blocks[p].size(), 500u);
    EXPECT_EQ(stripe.value().parityBytes(), 3 * 500u);

    // Lose the largest data block, a tiny one, and one parity block.
    std::vector<std::optional<Bytes>> shards;
    for (const auto &block : stripe.value().blocks)
        shards.emplace_back(block);
    shards[0] = std::nullopt;
    shards[5] = std::nullopt;
    shards[7] = std::nullopt;
    auto recovered = recoverStripeData(rs, shards, stripe.value().dataSizes,
                                       stripe.value().blockSize);
    ASSERT_TRUE(recovered.isOk()) << recovered.status().toString();
    for (size_t i = 0; i < 6; ++i)
        EXPECT_EQ(recovered.value()[i], data[i]) << "block " << i;
}

TEST(ReedSolomonTest, ParityOnlySurvivorsRecoverData)
{
    auto rs_r = ReedSolomon::create(6, 3);
    ASSERT_TRUE(rs_r.isOk());
    const ReedSolomon &rs = rs_r.value();
    auto data = randomBlocks(3, 128, 42);
    auto stripe = encodeStripe(rs, data);
    ASSERT_TRUE(stripe.isOk());

    // All data blocks lost; only parity survives.
    std::vector<std::optional<Bytes>> shards(6);
    for (size_t p = 3; p < 6; ++p)
        shards[p] = stripe.value().blocks[p];
    auto recovered = recoverStripeData(rs, shards, stripe.value().dataSizes,
                                       stripe.value().blockSize);
    ASSERT_TRUE(recovered.isOk());
    for (size_t i = 0; i < 3; ++i)
        EXPECT_EQ(recovered.value()[i], data[i]);
}

TEST(ReedSolomonTest, ReconstructRebuildsParityToo)
{
    auto rs_r = ReedSolomon::create(9, 6);
    ASSERT_TRUE(rs_r.isOk());
    const ReedSolomon &rs = rs_r.value();
    auto data = randomBlocks(6, 64, 4242);
    auto stripe = encodeStripe(rs, data);
    ASSERT_TRUE(stripe.isOk());

    std::vector<std::optional<Bytes>> shards;
    for (const auto &block : stripe.value().blocks)
        shards.emplace_back(block);
    shards[8] = std::nullopt; // lose a parity block only
    ASSERT_TRUE(rs.reconstruct(shards, 64).isOk());
    EXPECT_EQ(*shards[8], stripe.value().blocks[8]);
}

TEST(ReedSolomonTest, EmptyDataBlocksSupported)
{
    // FAC tail stripes may carry zero-length implicit blocks.
    auto rs_r = ReedSolomon::create(5, 3);
    ASSERT_TRUE(rs_r.isOk());
    std::vector<Bytes> data = {Bytes{1, 2, 3, 4}, Bytes{}, Bytes{9}};
    auto stripe = encodeStripe(rs_r.value(), data);
    ASSERT_TRUE(stripe.isOk());
    EXPECT_EQ(stripe.value().blockSize, 4u);

    std::vector<std::optional<Bytes>> shards;
    for (const auto &block : stripe.value().blocks)
        shards.emplace_back(block);
    shards[0] = std::nullopt;
    shards[2] = std::nullopt;
    auto recovered = recoverStripeData(rs_r.value(), shards,
                                       stripe.value().dataSizes,
                                       stripe.value().blockSize);
    ASSERT_TRUE(recovered.isOk());
    EXPECT_EQ(recovered.value()[0], data[0]);
    EXPECT_EQ(recovered.value()[1], data[1]);
    EXPECT_EQ(recovered.value()[2], data[2]);
}


TEST(MatrixTest, SelectIndependentRows)
{
    // Vandermonde rows are maximally independent: any k of them work.
    Matrix m = Matrix::vandermonde(6, 3);
    auto rows = m.selectIndependentRows({5, 4, 3, 2, 1, 0});
    ASSERT_TRUE(rows.isOk());
    EXPECT_EQ(rows.value().size(), 3u);
    EXPECT_TRUE(m.selectRows(rows.value()).inverse().isOk());

    // A dependent candidate set is rejected.
    Matrix dep(3, 2);
    dep.set(0, 0, 1);
    dep.set(1, 0, 2); // scalar multiple of row 0
    dep.set(2, 0, 3);
    EXPECT_FALSE(dep.selectIndependentRows({0, 1, 2}).isOk());

    // Dependent rows are skipped in favour of later independent ones.
    Matrix mixed(3, 2);
    mixed.set(0, 0, 1);
    mixed.set(1, 0, 1); // duplicate of row 0
    mixed.set(2, 1, 1);
    auto picked = mixed.selectIndependentRows({0, 1, 2});
    ASSERT_TRUE(picked.isOk());
    EXPECT_EQ(picked.value(), (std::vector<size_t>{0, 2}));
}

TEST(ReedSolomonTest, RandomVariableSizeStripesSweep)
{
    auto rs = ReedSolomon::create(9, 6).value();
    Rng rng(777);
    for (int trial = 0; trial < 25; ++trial) {
        std::vector<Bytes> data(6);
        for (auto &block : data) {
            block.resize(rng.uniformInt(0, 4096));
            for (auto &b : block)
                b = static_cast<uint8_t>(rng.next());
        }
        auto stripe = encodeStripe(rs, data);
        ASSERT_TRUE(stripe.isOk());

        std::vector<std::optional<Bytes>> shards;
        for (const auto &block : stripe.value().blocks)
            shards.emplace_back(block);
        std::vector<size_t> ids(9);
        std::iota(ids.begin(), ids.end(), 0);
        rng.shuffle(ids);
        for (int e = 0; e < 3; ++e)
            shards[ids[e]] = std::nullopt;
        auto recovered = recoverStripeData(rs, shards,
                                           stripe.value().dataSizes,
                                           stripe.value().blockSize);
        ASSERT_TRUE(recovered.isOk()) << "trial " << trial;
        for (size_t i = 0; i < 6; ++i)
            ASSERT_EQ(recovered.value()[i], data[i]);
    }
}

// Systematic RS is linear at each byte position, so bytes [offset,
// offset + size) of a lost block rebuild from the same range of k
// survivors. Each survivor is sliced to the range and zero-extended
// past its true size, the way the store's range rebuild reads it.
TEST(ReedSolomonTest, RangeReconstructEqualsSliceOfFullReconstruct)
{
    auto rs = ReedSolomon::create(9, 6).value();
    Rng rng(4099);
    size_t past_short_end = 0;
    for (int trial = 0; trial < 60; ++trial) {
        std::vector<Bytes> data(6);
        for (auto &block : data) {
            block.resize(rng.uniformInt(0, 2048));
            for (auto &b : block)
                b = static_cast<uint8_t>(rng.next());
        }
        auto stripe = encodeStripe(rs, data);
        ASSERT_TRUE(stripe.isOk());
        const uint64_t block_size = stripe.value().blockSize;
        auto true_size = [&](size_t b) -> uint64_t {
            return b < 6 ? data[b].size() : block_size;
        };

        std::vector<size_t> ids(9);
        std::iota(ids.begin(), ids.end(), 0);
        rng.shuffle(ids);
        const size_t lost = static_cast<size_t>(rng.uniformInt(1, 3));

        std::vector<std::optional<Bytes>> full(9);
        for (size_t b = 0; b < 9; ++b) {
            full[b] = stripe.value().blocks[b];
            full[b]->resize(block_size, 0);
        }
        for (size_t e = 0; e < lost; ++e)
            full[ids[e]] = std::nullopt;
        std::vector<std::optional<Bytes>> range_shards = full;
        ASSERT_TRUE(rs.reconstruct(full, block_size).isOk());

        for (int r = 0; r < 8; ++r) {
            const uint64_t offset = rng.uniformInt(0, block_size);
            const uint64_t size = rng.uniformInt(0, block_size - offset);
            std::vector<std::optional<Bytes>> shards(9);
            for (size_t b = 0; b < 9; ++b) {
                if (!range_shards[b].has_value())
                    continue;
                // Slice the stored (unpadded) block, then zero-extend.
                const Bytes &stored = stripe.value().blocks[b];
                const uint64_t hi = std::min<uint64_t>(offset + size,
                                                       stored.size());
                Bytes slice(size, 0);
                if (offset < hi)
                    std::copy(stored.begin() + offset, stored.begin() + hi,
                              slice.begin());
                past_short_end += offset + size > true_size(b) ? 1 : 0;
                shards[b] = std::move(slice);
            }
            ASSERT_TRUE(rs.reconstruct(shards, size).isOk());
            for (size_t b = 0; b < 9; ++b) {
                Bytes expected(full[b]->begin() + offset,
                               full[b]->begin() + offset + size);
                ASSERT_EQ(*shards[b], expected)
                    << "trial " << trial << " block " << b << " range ["
                    << offset << ", " << offset + size << ")";
            }
        }
    }
    // The sweep must exercise survivors read past a short block's end.
    EXPECT_GT(past_short_end, 100u);
}

} // namespace
} // namespace fusion::ec
