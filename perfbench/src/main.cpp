// perfbench_dmrg — measured DMRG solves of one benchmark workload.
//
//   perfbench_dmrg --workload NAME --model spins|electrons --lx 6 --ly 4
//                  --coupling 0.5 --engine list --ranks 1 --threads 4
//                  --schedule 32:2,64:2,128:2,192:2 --davidson 2/2
//                  --init-m 8 --e-ref E --tol T --window LO,HI
//                  --rounds R [--e-pinned E0,E1,E2] --seed N --seconds S
//                  --trace 0|1 [--verbose]
//
// One warm-up, then rounds of fresh set-up + solve until --seconds have
// passed, and at least --rounds. Untraced (--trace 0), round k solves
// start k of the seed (see setup()) and the run reports the median set-up,
// solve and time-to-energy, and peak RSS. Traced (--trace 1), every round
// solves start 0 twice, plainly and through the timing decorator
// (timed_engine.hpp); the run reports the decorator's breakdown of the median
// traced solve, the scheduler's measured exchange, then the layer probe
// (probe.hpp) at the middle bond of the last traced state.
//
// Time-to-energy ends with the first sweep within --tol of --e-ref; a solve
// that never gets there is censored at its full solve time. Every solve's
// final energy must lie in --window, and start k of a pinned seed within
// kPinnedTol of its k-th pinned energy; a miss or an exception counts as a
// failed operation. The result is one line
// "PERFBENCH_RESULT {json}" on stdout; run.py turns it into the benchmark's
// result object.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "dmrg/dmrg.hpp"
#include "linalg/backend.hpp"
#include "models/electron.hpp"
#include "models/heisenberg.hpp"
#include "models/hubbard.hpp"
#include "models/lattice.hpp"
#include "models/spin_half.hpp"
#include "probe.hpp"
#include "runtime/scheduler.hpp"
#include "support/cli.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "support/timer.hpp"
#include "timed_engine.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace {

using namespace tt;
using perfbench::CallClass;
using perfbench::median;
using perfbench::Metrics;

// A pinned final energy is met within this tolerance: far above rounding
// differences between kernels, far below any physical change.
constexpr double kPinnedTol = 1e-7;

struct Config {
  std::string workload;
  std::string model;  // "spins" | "electrons"
  int lx = 0, ly = 0;
  double coupling = 0.0;  // J2/J1 (spins) or U/t (electrons)
  dmrg::EngineKind engine = dmrg::EngineKind::kList;
  int ranks = 1;
  int threads = 1;  // executor threads of the root (and of each worker)
  std::vector<dmrg::SweepParams> schedule;
  index_t init_m = 4;
  double e_ref = 0.0, tol = 0.0;  // time-to-energy target
  double e_lo = 0.0, e_hi = 0.0;  // window every final energy must lie in
  std::vector<double> e_pinned;  // pinned final energy of start 0, 1, ...
  long long seed = 0;
  double seconds = 1.0;
  bool trace = false;
  int rounds = 3;        // measured rounds per run even past --seconds
  bool verbose = false;  // per-sweep energies on stderr
};

dmrg::EngineKind parse_engine(const std::string& s) {
  using dmrg::EngineKind;
  for (EngineKind k : {EngineKind::kReference, EngineKind::kList, EngineKind::kSparseDense,
                       EngineKind::kSparseSparse})
    if (s == dmrg::engine_name(k)) return k;
  TT_FAIL("unknown engine '" << s << "'");
}

// "32:2,64:2" -> two sweeps at m=32, two at m=64; every sweep uses the
// Davidson settings "iter/subspace".
std::vector<dmrg::SweepParams> parse_schedule(const std::string& s, const std::string& dav) {
  int iter = 0, subspace = 0;
  TT_CHECK(std::sscanf(dav.c_str(), "%d/%d", &iter, &subspace) == 2 && iter > 0 &&
               subspace > 0,
           "bad --davidson '" << dav << "' (want iter/subspace)");
  std::vector<dmrg::SweepParams> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    long m = 0;
    int count = 0;
    TT_CHECK(std::sscanf(item.c_str(), "%ld:%d", &m, &count) == 2 && m > 0 && count > 0,
             "bad --schedule item '" << item << "' (want m:sweeps)");
    for (int i = 0; i < count; ++i) {
      dmrg::SweepParams p;
      p.max_m = m;
      p.davidson_iter = iter;
      p.davidson_subspace = subspace;
      out.push_back(p);
    }
  }
  TT_CHECK(!out.empty(), "empty --schedule");
  return out;
}

Config parse(const Cli& cli) {
  Config c;
  c.workload = cli.get("workload", "");
  c.model = cli.get("model", "");
  TT_CHECK(c.model == "spins" || c.model == "electrons", "--model spins|electrons");
  c.lx = static_cast<int>(cli.get_int("lx", 0));
  c.ly = static_cast<int>(cli.get_int("ly", 0));
  TT_CHECK(c.lx > 0 && c.ly > 0, "--lx and --ly must be positive");
  c.coupling = cli.get_double("coupling", 0.0);
  c.engine = parse_engine(cli.get("engine", "list"));
  c.ranks = static_cast<int>(cli.get_int("ranks", 1));
  c.threads = static_cast<int>(cli.get_int("threads", 1));
  TT_CHECK(c.ranks >= 1 && c.threads >= 1, "--ranks and --threads must be >= 1");
  c.schedule = parse_schedule(cli.get("schedule", ""), cli.get("davidson", "2/2"));
  c.init_m = cli.get_int("init-m", 4);
  c.e_ref = cli.get_double("e-ref", 0.0);
  c.tol = cli.get_double("tol", 0.0);
  TT_CHECK(c.tol > 0.0, "--tol must be positive");
  TT_CHECK(std::sscanf(cli.get("window", "").c_str(), "%lf,%lf", &c.e_lo, &c.e_hi) == 2 &&
               c.e_lo < c.e_hi,
           "bad --window (want lo,hi)");
  {
    std::stringstream ss(cli.get("e-pinned", ""));
    std::string item;
    while (std::getline(ss, item, ',')) c.e_pinned.push_back(std::stod(item));
  }
  c.seed = cli.get_int("seed", 0);
  TT_CHECK(c.seed >= 0, "--seed must be >= 0");
  c.seconds = cli.get_double("seconds", 1.0);
  c.trace = cli.get_int("trace", 0) != 0;
  c.rounds = static_cast<int>(cli.get_int("rounds", 3));
  TT_CHECK(c.rounds >= 1, "--rounds must be >= 1");
  c.verbose = cli.get_bool("verbose", false);
  return c;
}

// Everything one solve needs. Member order matters: the solver's engine
// borrows the scheduler, so the solver is destroyed first.
struct Problem {
  std::unique_ptr<rt::Scheduler> scheduler;
  std::unique_ptr<dmrg::Dmrg> solver;
  perfbench::TimedEngine* timed = nullptr;  // owned by the solver, when traced
};

// Lattice, MPO, initial MPS, engine, scheduler spawn and Dmrg construction
// (initial environment graph). The initial MPS of start k: for seed 0 the
// paper's product state, for any other seed a random MPS of bond dimension
// init_m drawn from (seed, k) — each round of a run solves a different start.
Problem setup(const Config& c, int start, bool traced) {
  mps::SiteSetPtr sites;
  mps::Mpo h;
  std::vector<int> product;
  symm::QN total;
  if (c.model == "spins") {
    const auto lat = models::square_cylinder(c.lx, c.ly, /*diagonals=*/true);
    sites = models::spin_half_sites(lat.num_sites);
    h = models::heisenberg_mpo(sites, lat, 1.0, c.coupling);
    for (int x = 0; x < c.lx; ++x)
      for (int y = 0; y < c.ly; ++y) product.push_back((x + y) % 2);  // Néel
    total = symm::QN(0);
  } else {
    const auto lat = models::triangular_cylinder(c.lx, c.ly);
    TT_CHECK(lat.num_sites % 2 == 0, "half filling needs an even site count");
    sites = models::electron_sites(lat.num_sites);
    h = models::hubbard_mpo(sites, lat, 1.0, c.coupling);
    for (int i = 0; i < lat.num_sites; ++i) product.push_back(i % 2 == 0 ? 1 : 2);
    total = symm::QN(lat.num_sites, 0);  // half filling, Sz = 0
  }
  mps::Mps psi;
  if (c.seed == 0) {
    psi = mps::Mps::product_state(sites, product);
  } else {
    Rng rng(static_cast<std::uint64_t>(c.seed) * 1000003ULL + static_cast<std::uint64_t>(start));
    psi = mps::Mps::random(sites, total, c.init_m, rng);
  }

  Problem p;
  auto engine = dmrg::make_engine(c.engine, {rt::localhost(), 1, 1});
  engine->set_num_threads(c.threads);
  if (c.ranks > 1) {
    rt::SchedulerOptions so;
    so.num_ranks = c.ranks;
    so.mode = rt::SpawnMode::kProcess;
    so.root_threads = c.threads;
    so.worker_threads = c.threads;
    p.scheduler = std::make_unique<rt::Scheduler>(so);
    engine->set_scheduler(p.scheduler.get());
  }
  if (traced) {
    auto timed = std::make_unique<perfbench::TimedEngine>(std::move(engine));
    p.timed = timed.get();
    engine = std::move(timed);
  }
  p.solver = std::make_unique<dmrg::Dmrg>(std::move(psi), std::move(h), std::move(engine));
  return p;
}

struct Solve {
  double solve_s = 0.0;
  double time_to_energy_s = 0.0;
  int sweeps_to_energy = 0;
  double final_sweep_s = 0.0;
  double energy = 0.0;
  bool ok = false;
};

bool within(double e, double ref, double tol) { return std::abs(e - ref) <= tol; }

// The fixed sweep schedule, timed sweep by sweep; prefetch stays off so every
// environment extension flows through the (possibly decorated) engine.
Solve solve(Problem& p, const Config& c, int start) {
  Solve s;
  Timer t;
  for (std::size_t i = 0; i < c.schedule.size(); ++i) {
    const double t0 = t.seconds();
    const dmrg::SweepRecord rec = p.solver->sweep(c.schedule[i]);
    const double now = t.seconds();
    s.final_sweep_s = now - t0;
    s.energy = rec.energy;
    if (c.verbose)
      std::fprintf(stderr, "sweep %2zu  m %4ld  E %.12f  t %.3f\n", i + 1,
                   static_cast<long>(rec.max_bond_dim), rec.energy, now);
    if (s.sweeps_to_energy == 0 && within(rec.energy, c.e_ref, c.tol)) {
      s.sweeps_to_energy = static_cast<int>(i) + 1;
      s.time_to_energy_s = now;
    }
  }
  s.solve_s = t.seconds();
  if (s.sweeps_to_energy == 0) {  // never reached: censored at the full solve
    s.sweeps_to_energy = static_cast<int>(c.schedule.size());
    s.time_to_energy_s = s.solve_s;
  }
  if (c.verbose) std::fprintf(stderr, "start %d  final E %.12f\n", start, s.energy);
  const bool pinned = static_cast<std::size_t>(start) < c.e_pinned.size();
  const double e_pin = pinned ? c.e_pinned[static_cast<std::size_t>(start)] : 0.0;
  s.ok = c.e_lo <= s.energy && s.energy <= c.e_hi &&
         (!pinned || within(s.energy, e_pin, kPinnedTol));
  if (!s.ok) {
    std::cerr.precision(12);
    std::cerr << "perfbench: " << c.workload << " seed " << c.seed << " start " << start
              << ": energy " << s.energy
              << " misses window [" << c.e_lo << ", " << c.e_hi << "]";
    if (pinned) std::cerr << " / pinned " << e_pin << " ± " << kPinnedTol;
    std::cerr << "\n";
  }
  return s;
}

// Root peak RSS plus that of the largest reaped scheduler worker.
double peak_rss_mb() {
  rusage self{}, children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(self.ru_maxrss + children.ru_maxrss) / 1024.0;
}

struct Tallies {
  long attempted = 0, failed = 0;
};

// One set-up + solve; exceptions count as failures. Returns false on failure.
bool attempt(const Config& c, int start, bool traced, Tallies& n, double* setup_s, Solve* out,
             Metrics* layer, Problem* keep = nullptr) {
  ++n.attempted;
  try {
    Timer ts;
    Problem p = setup(c, start, traced);
    if (setup_s) *setup_s = ts.seconds();
    Solve s = solve(p, c, start);
    if (!s.ok) {
      ++n.failed;
      return false;
    }
    if (layer) {
      // Decorator breakdown of this solve: the four classes plus the rest
      // of the sweep wall time, which sum to solve_s by construction.
      const auto& tm = *p.timed;
      auto secs = [&](CallClass k) { return tm.tally(k).seconds; };
      auto rate = [&](CallClass k) {
        return tm.tally(k).seconds > 0 ? tm.tally(k).flops / tm.tally(k).seconds / 1e9 : 0.0;
      };
      Metrics& m = *layer;
      m["dmrg.traced_solve_s"] = s.solve_s;
      m["dmrg.matvec_s"] = secs(CallClass::kMatvec);
      m["dmrg.matvec_calls"] = static_cast<double>(tm.tally(CallClass::kMatvec).calls);
      m["dmrg.matvec_gflops"] = rate(CallClass::kMatvec);
      m["dmrg.matvec_share"] = secs(CallClass::kMatvec) / s.solve_s;
      m["dmrg.env_s"] = secs(CallClass::kEnv);
      m["dmrg.env_gflops"] = rate(CallClass::kEnv);
      m["dmrg.theta_s"] = secs(CallClass::kTheta);
      m["dmrg.svd_s"] = secs(CallClass::kSvd);
      m["dmrg.svd_share"] = secs(CallClass::kSvd) / s.solve_s;
      m["dmrg.other_s"] = s.solve_s - tm.engine_seconds();
      m["dmrg.final_sweep_s"] = s.final_sweep_s;
      m["dmrg.sweeps_to_energy"] = s.sweeps_to_energy;

      // Measured exchange of the distributed scheduler (zero without one).
      double comm = 0, bytes = 0, contractions = 0, busy = 0, imb = 0, rec = 0, faults = 0;
      if (p.scheduler) {
        const rt::DistStats& d = p.scheduler->accumulated();
        comm = d.comm_seconds;
        bytes = d.total_bytes();
        contractions = d.contractions;
        busy = d.critical_busy_seconds;
        imb = d.imbalance_seconds;
        rec = d.recovery_seconds;
        faults = static_cast<double>(p.scheduler->stats().faults_detected);
      }
      m["runtime.comm_s"] = comm;
      m["runtime.comm_share"] = comm / s.solve_s;
      m["runtime.bytes_moved"] = bytes;
      m["runtime.bytes_per_contraction"] = contractions > 0 ? bytes / contractions : 0.0;
      m["runtime.contractions"] = contractions;
      m["runtime.critical_busy_s"] = busy;
      m["runtime.imbalance_s"] = imb;
      m["runtime.recovery_s"] = rec;
      m["runtime.faults"] = faults;
    }
    if (out) *out = s;
    if (keep) {
      keep->solver.reset();  // before the scheduler it borrows
      *keep = std::move(p);
    }
    return true;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << c.workload << " seed " << c.seed << ": " << e.what() << "\n";
    ++n.failed;
    return false;
  }
}

void print_result(const Config& c, const Tallies& n, const Metrics& m) {
  std::ostringstream os;
  os.precision(17);
  os << "PERFBENCH_RESULT {\"workload\": \"" << c.workload << "\", \"attempted\": " << n.attempted
     << ", \"failed\": " << n.failed << ", \"fingerprint\": {\"backend\": \""
     << linalg::backend_name() << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
     << "\", \"compiler\": \"" << PERFBENCH_COMPILER
     << "\", \"tt_threads\": " << support::num_threads()
#ifdef _OPENMP
     << ", \"omp_max_threads\": " << omp_get_max_threads()
#endif
     << ", \"ranks\": " << c.ranks << ", \"threads_per_rank\": " << c.threads
     << "}, \"metrics\": {";
  bool first = true;
  for (const auto& [k, v] : m) {
    os << (first ? "" : ", ") << "\"" << k << "\": " << (std::isfinite(v) ? v : 0.0);
    first = false;
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

int run(const Config& c) {
  Tallies n;
  Metrics m;
  Timer budget;

  // Warm-up: thread pools, allocator arenas and caches settle before timing.
  // It runs the first half of the schedule's sweeps (at least one) and is
  // neither timed nor checked.
  {
    Problem p = setup(c, 0, false);
    for (std::size_t i = 0; i < (c.schedule.size() + 1) / 2; ++i) p.solver->sweep(c.schedule[i]);
  }

  std::vector<double> setups, solves, ttes, traced_solves;
  std::vector<Metrics> layers;
  Problem last_traced;
  // Extra set-ups alone, so the set-up median rests on more samples.
  constexpr int kExtraSetups = 10;
  for (int i = 0; i < kExtraSetups && !c.trace; ++i) {
    Timer ts;
    Problem p = setup(c, 0, false);
    setups.push_back(ts.seconds());
  }
  budget.reset();
  for (int round = 0; round < c.rounds || budget.seconds() < c.seconds; ++round) {
    if (n.failed > 0) break;
    // Untraced runs spread their rounds over the seed's starts; traced runs
    // repeat start 0, so the reported counts and the overhead compare one
    // input.
    const int start = c.trace ? 0 : round;
    double setup_s = 0.0;
    Solve s;
    if (attempt(c, start, false, n, &setup_s, &s, nullptr)) {
      setups.push_back(setup_s);
      solves.push_back(s.solve_s);
      ttes.push_back(s.time_to_energy_s);
    }
    if (c.trace) {
      Metrics layer;
      if (attempt(c, start, true, n, nullptr, nullptr, &layer, &last_traced)) {
        traced_solves.push_back(layer["dmrg.traced_solve_s"]);
        layers.push_back(std::move(layer));
      }
    }
  }

  if (!c.trace) {
    m["setup_s"] = median(setups);
    m["solve_s"] = median(solves);
    m["time_to_energy_s"] = median(ttes);
    m["peak_rss_mb"] = peak_rss_mb();
  } else if (!layers.empty()) {
    // Report the traced solve of median wall time, so its breakdown adds up.
    std::vector<std::size_t> order(layers.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return traced_solves[a] < traced_solves[b];
    });
    m = layers[order[order.size() / 2]];
    m["dmrg.trace_overhead"] = median(traced_solves) / median(solves) - 1.0;
    perfbench::probe_middle_bond(*last_traced.solver, c.threads, c.schedule.back().max_m, m);
  }
  print_result(c, n, m);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Config c = parse(tt::Cli(argc, argv));
    return run(c);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_dmrg: " << e.what() << "\n";
    return 2;
  }
}
