// Layer probe: times the lower layers' public functions directly on the
// tensors of a solved problem's middle bond.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "dmrg/dmrg.hpp"

namespace perfbench {

/// Metric name -> value, in the units the README lists.
using Metrics = std::map<std::string, double>;

/// Median of `v` (0 when empty).
double median(std::vector<double> v);

/// Probe the middle bond of `solver`'s current state: the four contractions
/// of one Davidson matvec (environments, MPO sites and the two-site θ) through
/// symm::contract at 1 and `threads` threads and through the sparse-sparse
/// pipeline (fuse_sparse, structure_mask, einsum_ss, split_sparse); the dense
/// einsum and GEMM of the dominant block pair; the truncated block SVD of θ
/// at bond cap `max_m` and the dense SVD of its largest group; and the GEMM
/// peak at 1 and `threads` threads, measured in this process. Adds the
/// symm.*, tensor.* and linalg.* metrics to `out`.
void probe_middle_bond(tt::dmrg::Dmrg& solver, int threads, tt::index_t max_m, Metrics& out);

}  // namespace perfbench
