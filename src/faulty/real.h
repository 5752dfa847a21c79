// faulty::Real — a double whose arithmetic runs on the faulty FPU.
//
// Real wraps a binary64 value.  Construction, copies, and loads/stores are
// reliable (memory is protected in the paper's machine model); every
// arithmetic operation — including comparisons, which the FPU implements as
// a subtraction — routes its result through the thread-local FaultInjector.
// Templated kernels written against a generic scalar T therefore run
// bit-exactly on `double` and run "on the stochastic processor" on Real.
#pragma once

#include <cmath>
#include <type_traits>

#include "faulty/fault_injector.h"

namespace robustify::faulty {

class Real {
 public:
  Real() = default;
  template <class U, std::enable_if_t<std::is_arithmetic_v<U>, int> = 0>
  Real(U v) : v_(static_cast<double>(v)) {}  // NOLINT: implicit by design

  double value() const { return v_; }
  explicit operator double() const { return v_; }

  ROBUSTIFY_ALWAYS_INLINE Real& operator+=(Real o) {
    v_ = Execute(v_ + o.v_);
    return *this;
  }
  ROBUSTIFY_ALWAYS_INLINE Real& operator-=(Real o) {
    v_ = Execute(v_ - o.v_);
    return *this;
  }
  ROBUSTIFY_ALWAYS_INLINE Real& operator*=(Real o) {
    v_ = Execute(v_ * o.v_);
    return *this;
  }
  ROBUSTIFY_ALWAYS_INLINE Real& operator/=(Real o) {
    v_ = Execute(v_ / o.v_);
    return *this;
  }

 private:
  double v_ = 0.0;
};

ROBUSTIFY_ALWAYS_INLINE Real operator+(Real a, Real b) {
  return Real(Execute(a.value() + b.value()));
}
ROBUSTIFY_ALWAYS_INLINE Real operator-(Real a, Real b) {
  return Real(Execute(a.value() - b.value()));
}
ROBUSTIFY_ALWAYS_INLINE Real operator*(Real a, Real b) {
  return Real(Execute(a.value() * b.value()));
}
ROBUSTIFY_ALWAYS_INLINE Real operator/(Real a, Real b) {
  return Real(Execute(a.value() / b.value()));
}
inline Real operator-(Real a) { return Real(-a.value()); }  // sign flip: not an FPU op
inline Real operator+(Real a) { return a; }

// Comparisons run through the faulty subtractor and comparator flags: a
// timing fault inverts the branch a baseline algorithm takes, which is
// exactly how a comparison sort misplaces elements on the stochastic
// processor.
ROBUSTIFY_ALWAYS_INLINE bool operator<(Real a, Real b) {
  return ExecuteComparison(a.value() < b.value());
}
ROBUSTIFY_ALWAYS_INLINE bool operator>(Real a, Real b) {
  return ExecuteComparison(a.value() > b.value());
}
ROBUSTIFY_ALWAYS_INLINE bool operator<=(Real a, Real b) {
  return ExecuteComparison(a.value() <= b.value());
}
ROBUSTIFY_ALWAYS_INLINE bool operator>=(Real a, Real b) {
  return ExecuteComparison(a.value() >= b.value());
}
ROBUSTIFY_ALWAYS_INLINE bool operator==(Real a, Real b) {
  return ExecuteComparison(a.value() == b.value());
}
ROBUSTIFY_ALWAYS_INLINE bool operator!=(Real a, Real b) {
  return ExecuteComparison(a.value() != b.value());
}

// Math functions found by ADL from templated code (`using std::sqrt;`).
ROBUSTIFY_ALWAYS_INLINE Real sqrt(Real a) { return Real(Execute(std::sqrt(a.value()))); }
inline Real fabs(Real a) { return Real(std::fabs(a.value())); }  // sign clear: reliable
inline Real abs(Real a) { return fabs(a); }

// Validity checks read the stored bits without an FP op — in the paper's
// model the reliable integer core can always test an exponent field, which
// is what lets robust kernels scrub non-finite iterates.
inline bool isfinite(Real a) { return std::isfinite(a.value()); }
inline bool isnan(Real a) { return std::isnan(a.value()); }

// A memory load of a kernel element, routed through the injector when the
// active fault model corrupts loads (kOpClassMemory — see
// fault_model.h).  Identity under the default model and for clean double
// data, so the historical op stream is untouched; when loads are routed,
// the engine dispatch forces the templated per-scalar kernels so every
// element read passes through here on both engines.
inline Real LoadElem(Real a) {
  return LoadsRouted() ? Real(ExecuteLoad(a.value())) : a;
}
inline double LoadElem(double v) { return v; }

// The block kernel layer (linalg/faulty_blas.h) executes arrays of Real as
// raw double arrays — storage is reliable either way, only the arithmetic
// performed on it differs.  Real is a single stored double by construction;
// these asserts are what that layer's reinterpretation relies on.
static_assert(sizeof(Real) == sizeof(double), "Real must wrap exactly one double");
static_assert(std::is_standard_layout_v<Real>, "Real must be standard-layout");
inline double* AsDoubleArray(Real* p) { return reinterpret_cast<double*>(p); }
inline const double* AsDoubleArray(const Real* p) {
  return reinterpret_cast<const double*>(p);
}
// Identity overloads so generic dispatch code type-checks when instantiated
// with T = double (the branch is dead there — UseBlockKernels<double>() is a
// compile-time false — but it must still compile).
inline double* AsDoubleArray(double* p) { return p; }
inline const double* AsDoubleArray(const double* p) { return p; }

}  // namespace robustify::faulty
