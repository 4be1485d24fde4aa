#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/naive_einsum.hpp"
#include "support/error.hpp"
#include "support/thread_pool.hpp"
#include "tensor/einsum.hpp"
#include "tensor/sparse.hpp"

namespace {

using tt::Rng;
using tt::index_t;
using tt::tensor::DenseTensor;
using tt::tensor::EinsumStats;
using tt::tensor::SparseTensor;

// Random tensor with a given fill fraction of nonzeros.
DenseTensor random_sparse_dense(std::vector<index_t> shape, double fill, unsigned seed) {
  Rng rng(seed);
  DenseTensor t(std::move(shape));
  for (index_t i = 0; i < t.size(); ++i)
    if (rng.uniform() < fill) t[i] = rng.normal();
  return t;
}

TEST(SparseTensor, FromDenseRoundTrip) {
  DenseTensor d = random_sparse_dense({4, 5, 3}, 0.3, 1);
  SparseTensor s = SparseTensor::from_dense(d);
  EXPECT_LT(tt::tensor::max_abs_diff(s.to_dense(), d), 1e-15);
  EXPECT_GT(s.nnz(), 0);
  EXPECT_LT(s.nnz(), d.size());
}

TEST(SparseTensor, FinalizeMergesDuplicates) {
  SparseTensor s({4});
  s.add(2, 1.0);
  s.add(2, 2.5);
  s.add(0, -1.0);
  s.finalize();
  EXPECT_EQ(s.nnz(), 2);
  EXPECT_DOUBLE_EQ(s.value_at(2), 3.5);
  EXPECT_DOUBLE_EQ(s.value_at(0), -1.0);
  EXPECT_DOUBLE_EQ(s.value_at(1), 0.0);
}

TEST(SparseTensor, FinalizeDropsCancelledEntries) {
  SparseTensor s({3});
  s.add(1, 2.0);
  s.add(1, -2.0);
  s.finalize();
  EXPECT_EQ(s.nnz(), 0);
  EXPECT_FALSE(s.contains(1));
}

TEST(SparseTensor, ContainsAndDensity) {
  SparseTensor s({2, 5});
  s.add(3, 1.0);
  s.add(7, 2.0);
  s.finalize();
  EXPECT_TRUE(s.contains(3));
  EXPECT_FALSE(s.contains(4));
  EXPECT_DOUBLE_EQ(s.density(), 0.2);
}

TEST(SparseTensor, IndexOutOfRangeThrows) {
  SparseTensor s({2, 2});
  EXPECT_THROW(s.add(4, 1.0), tt::Error);
  EXPECT_THROW(s.add(-1, 1.0), tt::Error);
}

TEST(SparseTensor, NormMatchesDense) {
  DenseTensor d = random_sparse_dense({6, 6}, 0.4, 2);
  SparseTensor s = SparseTensor::from_dense(d);
  EXPECT_NEAR(s.norm2(), d.norm2(), 1e-12);
}

struct Case {
  std::string spec;
  std::vector<index_t> sa, sb;
};

class SparseEinsumParam : public ::testing::TestWithParam<Case> {};

TEST_P(SparseEinsumParam, SparseSparseMatchesDense) {
  const Case& c = GetParam();
  DenseTensor da = random_sparse_dense(c.sa, 0.35, 11);
  DenseTensor db = random_sparse_dense(c.sb, 0.35, 13);
  SparseTensor sa = SparseTensor::from_dense(da);
  SparseTensor sb = SparseTensor::from_dense(db);
  SparseTensor got = tt::tensor::einsum_ss(c.spec, sa, sb);
  DenseTensor want = tt::testing::naive_einsum(c.spec, da, db);
  EXPECT_LT(tt::tensor::max_abs_diff(got.to_dense(), want),
            1e-10 * (1.0 + want.max_abs()))
      << c.spec;
}

TEST_P(SparseEinsumParam, SparseDenseMatchesDense) {
  const Case& c = GetParam();
  DenseTensor da = random_sparse_dense(c.sa, 0.35, 17);
  Rng rng(19);
  DenseTensor db = DenseTensor::random(c.sb, rng);
  SparseTensor sa = SparseTensor::from_dense(da);
  DenseTensor got = tt::tensor::einsum_sd(c.spec, sa, db);
  DenseTensor want = tt::testing::naive_einsum(c.spec, da, db);
  EXPECT_LT(tt::tensor::max_abs_diff(got, want), 1e-10 * (1.0 + want.max_abs()))
      << c.spec;
}

TEST_P(SparseEinsumParam, DenseSparseMatchesDense) {
  const Case& c = GetParam();
  Rng rng(23);
  DenseTensor da = DenseTensor::random(c.sa, rng);
  DenseTensor db = random_sparse_dense(c.sb, 0.35, 29);
  SparseTensor sb = SparseTensor::from_dense(db);
  DenseTensor got = tt::tensor::einsum_ds(c.spec, da, sb);
  DenseTensor want = tt::testing::naive_einsum(c.spec, da, db);
  EXPECT_LT(tt::tensor::max_abs_diff(got, want), 1e-10 * (1.0 + want.max_abs()))
      << c.spec;
}

INSTANTIATE_TEST_SUITE_P(
    Specs, SparseEinsumParam,
    ::testing::Values(Case{"ik,kj->ij", {6, 8}, {8, 7}},
                      Case{"ik,kj->ji", {6, 8}, {8, 7}},
                      Case{"akb,bsc->aksc", {3, 4, 5}, {5, 2, 6}},
                      Case{"akb,asc->kbsc", {3, 4, 5}, {3, 2, 6}},
                      Case{"abcd,bcde->ae", {2, 3, 4, 2}, {3, 4, 2, 5}},
                      Case{"ab,ab->", {5, 6}, {5, 6}},
                      Case{"ab,cd->abcd", {2, 3}, {3, 2}},
                      Case{"kslm,mtun->kslntu", {2, 3, 2, 4}, {4, 3, 2, 2}}));

TEST(SparseEinsum, OutputMaskRestrictsEntries) {
  DenseTensor da = random_sparse_dense({6, 8}, 0.5, 31);
  DenseTensor db = random_sparse_dense({8, 7}, 0.5, 37);
  SparseTensor sa = SparseTensor::from_dense(da);
  SparseTensor sb = SparseTensor::from_dense(db);

  // Mask admits only the even flat indices of the output.
  SparseTensor mask({6, 7});
  for (index_t f = 0; f < 42; f += 2) mask.add(f, 1.0);
  mask.finalize();

  SparseTensor got = tt::tensor::einsum_ss("ik,kj->ij", sa, sb, nullptr, &mask);
  DenseTensor full = tt::testing::naive_einsum("ik,kj->ij", da, db);
  for (index_t f = 0; f < 42; ++f) {
    if (f % 2 == 0) {
      EXPECT_NEAR(got.value_at(f), full[f], 1e-10);
    } else {
      EXPECT_FALSE(got.contains(f));
    }
  }
}

TEST(SparseEinsum, StatsCountActualSparseFlops) {
  // One nonzero in each operand, matching on the contracted index:
  // exactly one multiply-add = 2 flops.
  SparseTensor a({2, 2}), b({2, 2});
  a.add(1, 3.0);  // a[0,1]
  a.finalize();
  b.add(2, 4.0);  // b[1,0]
  b.finalize();
  EinsumStats st;
  SparseTensor c = tt::tensor::einsum_ss("ik,kj->ij", a, b, &st);
  EXPECT_DOUBLE_EQ(st.flops, 2.0);
  EXPECT_DOUBLE_EQ(c.value_at(0), 12.0);  // c[0,0]
}

TEST(SparseEinsum, SparseSparseBitwiseIdenticalAcrossThreadCounts) {
  // Every output entry sums 360 contracted terms, so any change in
  // accumulation order between thread counts shows in the last bits.
  const index_t ni = 40, nj = 12, nk = 30, nl = 40;
  DenseTensor da = random_sparse_dense({ni, nj, nk}, 0.5, 41);
  DenseTensor db = random_sparse_dense({nj, nk, nl}, 0.5, 43);
  SparseTensor sa = SparseTensor::from_dense(da);
  SparseTensor sb = SparseTensor::from_dense(db);

  // The serial order: each entry accumulates its terms in ascending
  // contracted-key order, starting from zero.
  DenseTensor want({ni, nl});
  double pairs = 0.0;
  for (index_t i = 0; i < ni; ++i)
    for (index_t l = 0; l < nl; ++l) {
      double s = 0.0;
      for (index_t jk = 0; jk < nj * nk; ++jk) {
        const double x = da[i * nj * nk + jk], y = db[jk * nl + l];
        if (x == 0.0 || y == 0.0) continue;
        s += x * y;
        pairs += 1.0;
      }
      want[i * nl + l] = s;
    }

  SparseTensor mask({ni, nl});  // every third output entry
  for (index_t f = 0; f < ni * nl; f += 3) mask.add(f, 1.0);
  mask.finalize();

  std::vector<SparseTensor> masked;
  for (int threads : {1, 2, 3, 8}) {
    tt::support::set_num_threads(threads);
    EinsumStats st;
    SparseTensor got = tt::tensor::einsum_ss("ijk,jkl->il", sa, sb, &st);
    masked.push_back(tt::tensor::einsum_ss("ijk,jkl->il", sa, sb, nullptr, &mask));
    EXPECT_EQ(st.flops, 2.0 * pairs) << threads << " threads";
    for (index_t f = 0; f < ni * nl; ++f)
      ASSERT_EQ(got.value_at(f), want[f]) << "flat " << f << ", " << threads
                                          << " threads";
  }
  tt::support::set_num_threads(0);
  for (const SparseTensor& m : masked) {
    ASSERT_EQ(m.nnz(), masked[0].nnz());
    EXPECT_EQ(std::memcmp(m.values().data(), masked[0].values().data(),
                          static_cast<std::size_t>(m.nnz()) * sizeof(double)),
              0);
    for (index_t f : m.indices()) EXPECT_EQ(f % 3, 0);
  }
}

TEST(SparseEinsum, SparseDenseKernelsBitwiseIdenticalAcrossThreadCounts) {
  // Large enough that both kernels take their parallel path.
  DenseTensor sparse_a = random_sparse_dense({200, 12, 30}, 0.5, 47);
  DenseTensor sparse_b = random_sparse_dense({12, 30, 100}, 0.5, 53);
  Rng rng(59);
  DenseTensor dense_a = DenseTensor::random({200, 12, 30}, rng);
  DenseTensor dense_b = DenseTensor::random({12, 30, 100}, rng);
  SparseTensor sa = SparseTensor::from_dense(sparse_a);
  SparseTensor sb = SparseTensor::from_dense(sparse_b);

  std::vector<DenseTensor> sd, ds;
  std::vector<double> sd_flops, ds_flops;
  for (int threads : {1, 2, 3, 8}) {
    tt::support::set_num_threads(threads);
    EinsumStats st_sd, st_ds;
    sd.push_back(tt::tensor::einsum_sd("ijk,jkl->il", sa, dense_b, &st_sd));
    ds.push_back(tt::tensor::einsum_ds("ijk,jkl->il", dense_a, sb, &st_ds));
    sd_flops.push_back(st_sd.flops);
    ds_flops.push_back(st_ds.flops);
  }
  tt::support::set_num_threads(0);
  EXPECT_EQ(sd_flops[0], 2.0 * 100.0 * static_cast<double>(sa.nnz()));
  EXPECT_EQ(ds_flops[0], 2.0 * 200.0 * static_cast<double>(sb.nnz()));
  for (std::size_t t = 1; t < sd.size(); ++t) {
    EXPECT_EQ(std::memcmp(sd[t].data(), sd[0].data(),
                          static_cast<std::size_t>(sd[0].size()) * sizeof(double)),
              0);
    EXPECT_EQ(std::memcmp(ds[t].data(), ds[0].data(),
                          static_cast<std::size_t>(ds[0].size()) * sizeof(double)),
              0);
    EXPECT_EQ(sd_flops[t], sd_flops[0]);
    EXPECT_EQ(ds_flops[t], ds_flops[0]);
  }
}

TEST(SparseEinsum, EmptyOperandsYieldEmptyOutput) {
  SparseTensor a({3, 4}), b({4, 5});
  a.finalize();
  b.finalize();
  SparseTensor c = tt::tensor::einsum_ss("ik,kj->ij", a, b);
  EXPECT_EQ(c.nnz(), 0);
  EXPECT_EQ(c.shape(), (std::vector<index_t>{3, 5}));
}

TEST(SparseEinsum, MaskShapeMismatchThrows) {
  SparseTensor a({3, 4}), b({4, 5});
  a.finalize();
  b.finalize();
  SparseTensor mask({3, 4});
  mask.finalize();
  EXPECT_THROW(tt::tensor::einsum_ss("ik,kj->ij", a, b, nullptr, &mask), tt::Error);
}

}  // namespace
