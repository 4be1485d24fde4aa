// A timing decorator around a real dmrg::ContractionEngine.
//
// Every contract()/svd() call is forwarded unchanged to the wrapped engine
// and timed with std::chrono::steady_clock from outside the program. Calls
// are classified by their operand roles, which is how the sweep tags them:
//
//   kOperator × kIntermediate, kIntermediate × kOperator  -> Davidson matvec
//   kOperator × kOperator                                 -> environment extension
//   kIntermediate × kIntermediate                         -> two-site θ
//   svd()                                                 -> truncation SVD
//
// The flops of each call are the difference of the wrapped engine's
// tracker().flops() around it. After each call the wrapped tracker is copied
// into this engine's own, so code that reads engine().tracker() (sweep
// records) sees the same numbers as without the decorator.
#pragma once

#include <array>
#include <chrono>
#include <memory>
#include <utility>
#include <vector>

#include "dmrg/engine.hpp"

namespace perfbench {

enum class CallClass { kMatvec, kEnv, kTheta, kSvd };
inline constexpr int kNumCallClasses = 4;

struct CallTally {
  double seconds = 0.0;
  double flops = 0.0;
  long calls = 0;
};

class TimedEngine final : public tt::dmrg::ContractionEngine {
 public:
  explicit TimedEngine(std::unique_ptr<tt::dmrg::ContractionEngine> inner)
      : ContractionEngine(inner->cluster(), inner->params()), inner_(std::move(inner)) {}

  tt::dmrg::EngineKind kind() const override { return inner_->kind(); }

  tt::symm::BlockTensor contract(const tt::symm::BlockTensor& a, tt::dmrg::Role role_a,
                                 const tt::symm::BlockTensor& b, tt::dmrg::Role role_b,
                                 const std::vector<std::pair<int, int>>& pairs) override {
    const Probe p = begin();
    tt::symm::BlockTensor c = inner_->contract(a, role_a, b, role_b, pairs);
    end(p, classify(role_a, role_b));
    return c;
  }

  tt::symm::BlockSvd svd(const tt::symm::BlockTensor& a, const std::vector<int>& row_modes,
                         const tt::symm::TruncParams& trunc) override {
    const Probe p = begin();
    tt::symm::BlockSvd f = inner_->svd(a, row_modes, trunc);
    end(p, CallClass::kSvd);
    return f;
  }

  const CallTally& tally(CallClass c) const { return tallies_[static_cast<std::size_t>(c)]; }

  /// Sum of the seconds of every class.
  double engine_seconds() const {
    double s = 0.0;
    for (const auto& t : tallies_) s += t.seconds;
    return s;
  }

 private:
  using clock = std::chrono::steady_clock;
  struct Probe {
    clock::time_point t0;
    double flops0 = 0.0;
  };

  static CallClass classify(tt::dmrg::Role a, tt::dmrg::Role b) {
    using tt::dmrg::Role;
    if (a == Role::kOperator && b == Role::kOperator) return CallClass::kEnv;
    if (a == Role::kIntermediate && b == Role::kIntermediate) return CallClass::kTheta;
    return CallClass::kMatvec;
  }

  Probe begin() const { return {clock::now(), inner_->tracker().flops()}; }

  void end(const Probe& p, CallClass c) {
    const double dt = std::chrono::duration<double>(clock::now() - p.t0).count();
    CallTally& t = tallies_[static_cast<std::size_t>(c)];
    t.seconds += dt;
    t.flops += inner_->tracker().flops() - p.flops0;
    ++t.calls;
    tracker_ = inner_->tracker();
  }

  std::unique_ptr<tt::dmrg::ContractionEngine> inner_;
  std::array<CallTally, kNumCallClasses> tallies_{};
};

}  // namespace perfbench
