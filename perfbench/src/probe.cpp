#include "probe.hpp"

#include <algorithm>
#include <functional>
#include <utility>
#include <vector>

#include "linalg/gemm.hpp"
#include "linalg/svd.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "support/timer.hpp"
#include "symm/block_factor.hpp"
#include "symm/block_ops.hpp"
#include "symm/fuse.hpp"
#include "tensor/einsum.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace perfbench {

namespace {

using tt::index_t;
using tt::Timer;
using tt::symm::BlockTensor;

using Pairs = std::vector<std::pair<int, int>>;

// One contraction of the matvec with its operands materialized.
struct Step {
  const BlockTensor* a;
  const BlockTensor* b;
  Pairs pairs;
};

// Thread count for every parallel site: the block executor (TT_THREADS
// setting) and the OpenMP kernels (GEMM, dense einsum).
void set_kernel_threads(int n) {
  tt::support::set_num_threads(n);
#ifdef _OPENMP
  omp_set_num_threads(n);
#endif
}

// Median wall time of fn over repeats after one untimed warm-up call: at
// least three, more while under `budget_s`, at most 15. A warm-up call
// longer than the budget is itself the measurement.
double time_median(const std::function<void()>& fn, double budget_s = 0.25) {
  Timer w;
  fn();
  const double first = w.seconds();
  if (first > budget_s) return first;
  std::vector<double> v;
  Timer total;
  while (v.size() < 3 || (total.seconds() < budget_s && v.size() < 15)) {
    Timer t;
    fn();
    v.push_back(t.seconds());
  }
  return median(v);
}

double gemm_gflops(index_t m, index_t n, index_t k) {
  tt::Rng rng(7);
  std::vector<double> a(static_cast<std::size_t>(m * k)), b(static_cast<std::size_t>(k * n)),
      c(static_cast<std::size_t>(m * n), 0.0);
  for (auto& x : a) x = rng.uniform(-1, 1);
  for (auto& x : b) x = rng.uniform(-1, 1);
  const double s = time_median([&] {
    tt::linalg::gemm_raw(false, false, m, n, k, 1.0, a.data(), b.data(), 0.0, c.data());
  });
  return tt::linalg::gemm_flops(m, n, k) / s / 1e9;
}

}  // namespace

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void probe_middle_bond(tt::dmrg::Dmrg& solver, int threads, index_t max_m, Metrics& out) {
  const int n_sites = solver.psi().size();
  const int j = n_sites / 2 - 1;
  const BlockTensor& left = solver.environments().left(j);
  const BlockTensor& right = solver.environments().right(j + 2);
  const BlockTensor& w1 = solver.hamiltonian().site(j);
  const BlockTensor& w2 = solver.hamiltonian().site(j + 1);
  const BlockTensor theta =
      tt::symm::contract(solver.psi().site(j), solver.psi().site(j + 1), {{2, 0}});

  // The matvec of dmrg::apply_two_site, intermediates materialized once.
  const BlockTensor t1 = tt::symm::contract(left, theta, {{2, 0}});
  const BlockTensor t2 = tt::symm::contract(t1, w1, {{1, 0}, {2, 2}});
  const BlockTensor t3 = tt::symm::contract(t2, w2, {{4, 0}, {1, 2}});
  const std::vector<Step> steps = {{&left, &theta, {{2, 0}}},
                                   {&t1, &w1, {{1, 0}, {2, 2}}},
                                   {&t2, &w2, {{4, 0}, {1, 2}}},
                                   {&t3, &right, {{1, 2}, {4, 1}}}};

  // --- linalg: GEMM peak in this process --------------------------------
  set_kernel_threads(1);
  const double peak_1t = gemm_gflops(512, 512, 512);
  set_kernel_threads(threads);
  const double peak_nt = gemm_gflops(512, 512, 512);
  out["linalg.gemm_peak_gflops_1t"] = peak_1t;
  out["linalg.gemm_peak_gflops_nt"] = peak_nt;
  out["linalg.gemm_thread_speedup"] = peak_nt / peak_1t;

  // --- symm: the block executor, serial and threaded --------------------
  double flops = 0.0, permuted = 0.0, bins = 0.0, pairs = 0.0;
  for (const Step& s : steps) {
    tt::symm::ContractStats st;
    tt::symm::contract(*s.a, *s.b, s.pairs, &st);
    flops += st.total_flops;
    permuted += st.permuted_words;
    bins += st.num_bins;
    pairs += static_cast<double>(st.block_ops.size());
  }
  auto matvec = [&](int nt) {
    tt::symm::ContractOptions o;
    o.num_threads = nt;
    for (const Step& s : steps) tt::symm::contract(*s.a, *s.b, s.pairs, nullptr, o);
  };
  set_kernel_threads(1);
  const double t_1t = time_median([&] { matvec(1); });
  set_kernel_threads(threads);
  const double t_nt = time_median([&] { matvec(threads); });
  out["symm.contract_s"] = t_nt;
  out["symm.bins"] = bins;
  out["symm.pairs"] = pairs;
  out["symm.us_per_pair"] = t_1t / pairs * 1e6;
  out["symm.gflops_1t"] = flops / t_1t / 1e9;
  out["symm.gflops_nt"] = flops / t_nt / 1e9;
  out["symm.thread_speedup"] = t_1t / t_nt;
  out["symm.peak_fraction"] = out["symm.gflops_1t"] / peak_1t;
  out["tensor.permuted_words"] = permuted;

  // --- tensor + linalg: the dominant block pair -------------------------
  // The heaviest output bin of the matvec, then its heaviest pair. Bin pairs
  // point into the operands, which outlive this block.
  {
    std::vector<tt::symm::OutputBin> bins_of_heaviest;
    std::string spec;
    std::size_t heaviest = 0;
    double heaviest_flops = -1.0;
    for (const Step& s : steps) {
      const auto plan = tt::symm::make_contract_plan(*s.a, *s.b, s.pairs);
      auto bl = tt::symm::enumerate_bins(*s.a, *s.b, s.pairs, plan);
      std::size_t top = 0;
      for (std::size_t b = 1; b < bl.size(); ++b)
        if (bl[b].est_flops > bl[top].est_flops) top = b;
      if (!bl.empty() && bl[top].est_flops > heaviest_flops) {
        heaviest_flops = bl[top].est_flops;
        heaviest = top;
        spec = plan.spec;
        bins_of_heaviest = std::move(bl);
      }
    }
    set_kernel_threads(1);
    const tt::symm::BinPair* best = nullptr;
    tt::tensor::EinsumStats best_es;
    for (const auto& p : bins_of_heaviest[heaviest].pairs) {
      tt::tensor::EinsumStats es;
      tt::tensor::einsum(spec, *p.ablk, *p.bblk, &es);
      if (best == nullptr || es.flops > best_es.flops) {
        best = &p;
        best_es = es;
      }
    }
    const double t = time_median([&] { tt::tensor::einsum(spec, *best->ablk, *best->bblk); });
    out["tensor.einsum_gflops"] = best_es.flops / t / 1e9;
    out["linalg.gemm_shape_gflops"] = gemm_gflops(std::max<index_t>(best_es.m, 1),
                                                  std::max<index_t>(best_es.n, 1),
                                                  std::max<index_t>(best_es.k, 1));
    set_kernel_threads(threads);
  }

  // --- symm + tensor: the sparse-sparse pipeline ------------------------
  {
    std::vector<double> fuse, mask, ss, split;
    double ss_flops = 0.0;
    Timer budget;
    // Repeats as time_median; one pass when a pass exceeds the budget.
    while (fuse.empty() || (budget.seconds() < 0.5 && fuse.size() < 15)) {
      double tf = 0, tm = 0, te = 0, tsp = 0;
      ss_flops = 0.0;
      for (const Step& s : steps) {
        const auto plan = tt::symm::make_contract_plan(*s.a, *s.b, s.pairs);
        Timer t;
        const auto sa = tt::symm::fuse_sparse(*s.a);
        const auto sb = tt::symm::fuse_sparse(*s.b);
        tf += t.seconds();
        t.reset();
        const auto mk = tt::symm::structure_mask(plan.out_indices, plan.out_flux);
        tm += t.seconds();
        t.reset();
        tt::tensor::EinsumStats es;
        const auto fused = tt::tensor::einsum_ss(plan.spec, sa, sb, &es, &mk);
        te += t.seconds();
        ss_flops += es.flops;
        t.reset();
        const auto c = tt::symm::split_sparse(fused, plan.out_indices, plan.out_flux);
        tsp += t.seconds();
      }
      fuse.push_back(tf);
      mask.push_back(tm);
      ss.push_back(te);
      split.push_back(tsp);
    }
    out["symm.fuse_s"] = median(fuse);
    out["symm.mask_s"] = median(mask);
    out["symm.split_s"] = median(split);
    out["tensor.einsum_ss_s"] = median(ss);
    out["tensor.einsum_ss_mflops"] = ss_flops / median(ss) / 1e6;
  }

  // --- symm + linalg: truncation SVD ------------------------------------
  {
    tt::symm::TruncParams trunc;
    trunc.cutoff = 1e-12;
    trunc.max_dim = max_m;
    tt::symm::BlockSvd f;
    out["symm.svd_s"] =
        time_median([&] { f = tt::symm::block_svd(theta, {0, 1}, trunc, threads); });
    tt::symm::FactorShape big;
    for (const auto& sh : f.shapes)
      if (sh.rows * sh.cols > big.rows * big.cols) big = sh;
    tt::Rng rng(11);
    tt::linalg::Matrix a(std::max<index_t>(big.rows, 1), std::max<index_t>(big.cols, 1));
    for (index_t r = 0; r < a.rows(); ++r)
      for (index_t c = 0; c < a.cols(); ++c) a(r, c) = rng.uniform(-1, 1);
    out["linalg.svd_s"] = time_median([&] { (void)tt::linalg::svd(a); });
  }
}

}  // namespace perfbench
