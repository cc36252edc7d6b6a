#include "fpras/params.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace nfacount {

namespace {

constexpr double kE = 2.718281828459045;

/// Clamps x into [lo, hi] after ceil(), as an int64.
int64_t CeilClamp(double x, int64_t lo) {
  if (!(x > 0.0)) return lo;
  double c = std::ceil(x);
  if (c >= 9.0e18) return int64_t{9000000000000000000};
  return std::max(lo, static_cast<int64_t>(c));
}

}  // namespace

const char* ScheduleName(Schedule schedule) {
  switch (schedule) {
    case Schedule::kFaster: return "faster(MCM24)";
    case Schedule::kAcjr:   return "acjr(ACJR21)";
  }
  return "?";
}

Calibration Calibration::Practical() {
  Calibration cal;
  cal.ns_scale = 1.0e-8;
  cal.xns_log_scale = 0.6;
  cal.trial_scale = 4.0e-7;
  cal.ns_floor = 128;
  cal.trial_floor = 256;
  cal.xns_multiplier_floor = 6.0;
  return cal;
}

Calibration Calibration::Thorough() {
  Calibration cal;
  cal.ns_scale = 6.0e-8;
  cal.xns_log_scale = 0.8;
  cal.trial_scale = 2.0e-6;
  cal.ns_floor = 256;
  cal.trial_floor = 768;
  cal.xns_multiplier_floor = 6.0;
  return cal;
}

double FasterScheduleNs(int m, int n, double eps, double delta) {
  // ns = 4096·e·n⁴/ε² · ln(4096·m²·n²·ln(ε⁻²)/δ)   (Alg. 3 line 2)
  const double n4 = std::pow(static_cast<double>(std::max(n, 1)), 4);
  double inner = std::log(1.0 / (eps * eps));  // ln(ε⁻²)
  inner = std::max(inner, 1.0);                // guard ε >= 0.6 regimes
  const double log_arg =
      std::max(4096.0 * m * m * std::max(n, 1) * std::max(n, 1) * inner / delta, kE);
  return 4096.0 * kE * n4 / (eps * eps) * std::log(log_arg);
}

double AcjrScheduleNs(int m, int n, double eps) {
  // κ = m·n/ε; ACJR maintain O(κ⁷) samples per (state, level).
  const double kappa =
      static_cast<double>(m) * static_cast<double>(std::max(n, 1)) / eps;
  return std::pow(kappa, 7);
}

double FprasParams::DeltaForCountUnion() const {
  const double denom = 2.0 * (1.0 - std::pow(2.0, -(n + 1.0)));
  return eta / denom;
}

double FprasParams::EtaForSampleCall() const {
  return eta / (2.0 * static_cast<double>(xns));
}

double FprasParams::EpsSzAtLevel(int level) const {
  if (level <= 1) return 0.0;
  return std::pow(1.0 + beta, level - 1) - 1.0;
}

Result<FprasParams> FprasParams::Make(Schedule schedule, int m, int n, double eps,
                                      double delta, const Calibration& calibration) {
  if (m < 1) return Status::Invalid("m must be >= 1");
  if (n < 0) return Status::Invalid("n must be >= 0");
  if (!(eps > 0.0)) return Status::Invalid("eps must be > 0");
  if (!(delta > 0.0 && delta < 1.0)) return Status::Invalid("delta must be in (0,1)");

  FprasParams p;
  p.schedule = schedule;
  p.m = m;
  p.n = n;
  p.eps = eps;
  p.delta = delta;
  p.calibration = calibration;

  const double nn = static_cast<double>(std::max(n, 1));
  p.beta = eps / (4.0 * nn * nn);
  p.eta = delta / (2.0 * nn * static_cast<double>(m));

  const double raw_ns = (schedule == Schedule::kFaster)
                            ? FasterScheduleNs(m, n, eps, delta)
                            : AcjrScheduleNs(m, n, eps);
  p.ns = CeilClamp(raw_ns * calibration.ns_scale, calibration.ns_floor);

  // xns = ns · 12·(1 − 2/(3e²))⁻¹ · ln(8/η)   (Alg. 3 line 3)
  const double reject_factor = 12.0 / (1.0 - 2.0 / (3.0 * kE * kE));
  double multiplier =
      reject_factor * std::log(8.0 / p.eta) * calibration.xns_log_scale;
  multiplier = std::max(multiplier, calibration.xns_multiplier_floor);
  p.xns = CeilClamp(static_cast<double>(p.ns) * multiplier, p.ns);
  return p;
}

std::string FprasParams::ToString() const {
  std::ostringstream os;
  os << "FprasParams{" << ScheduleName(schedule) << ", m=" << m << ", n=" << n
     << ", eps=" << eps << ", delta=" << delta << ", beta=" << beta
     << ", eta=" << eta << ", ns=" << ns << ", xns=" << xns
     << ", perturb=" << (perturb_support ? 1 : 0)
     << ", threads=" << num_threads
     << ", batch=" << ResolvedBatchWidth() << "}";
  return os.str();
}

}  // namespace nfacount
