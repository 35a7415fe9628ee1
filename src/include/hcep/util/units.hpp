// Compile-time dimensional analysis for the time-energy domain.
//
// Every headline number in the paper is a physical quantity — Joules,
// Watts, seconds, Hertz, cycles — and a J-vs-kWh or MHz-vs-GHz slip in a
// naked-double pipeline compiles silently and only shows up as a wrong
// Table 4/8 cell. Quantity<Dim, Ratio> makes that bug class
// unrepresentable: a dimension is a vector of integer exponents over the
// domain's base quantities (time, energy, cycles, bytes, work units), and
// arithmetic derives result dimensions automatically:
//
//   Watts * Seconds  -> Joules          (E T^-1 * T   = E)
//   Cycles / Hertz   -> Seconds         (C / (C T^-1) = T)
//   Joules / Seconds -> Watts
//   Bytes / BytesPerSecond -> Seconds
//   Joules / Ops     -> JoulesPerOp
//   Watts  / Watts   -> double          (dimensionless ratios decay)
//
// Wrong-dimension addition (J + W) or assignment (Watts -> Joules) is a
// compile error — see tests/compile_fail/. The Ratio parameter carries a
// compile-time scale against the coherent SI unit, so Millijoules,
// KilowattHours, Megahertz and Gigahertz are distinct types that convert
// exactly at the point of use instead of via remembered 1e-3/3.6e6/1e6
// factors.
//
// Zero overhead: a Quantity is a trivially copyable wrapper around one
// double (static_asserts below); at -O2 the generated code is identical
// to raw-double arithmetic (Units.TypedIntegrationIsNotPessimized in
// tests/test_units.cpp guards this at run time).
#pragma once

#include <compare>
#include <cstdint>
#include <ostream>
#include <ratio>
#include <type_traits>

namespace hcep {

/// Dimension-exponent vector over the domain's base quantities.
/// Frequency is cycles-per-second (C T^-1), not bare T^-1, so the
/// Table 2 identity T_core = cycles / f type-checks.
template <int TimeE, int EnergyE, int CycleE, int ByteE, int OpE>
struct Dim {
  static constexpr int time = TimeE;
  static constexpr int energy = EnergyE;
  static constexpr int cycle = CycleE;
  static constexpr int byte = ByteE;
  static constexpr int op = OpE;
};

using DimLess = Dim<0, 0, 0, 0, 0>;
using TimeDim = Dim<1, 0, 0, 0, 0>;
using EnergyDim = Dim<0, 1, 0, 0, 0>;
using PowerDim = Dim<-1, 1, 0, 0, 0>;
using CycleDim = Dim<0, 0, 1, 0, 0>;
using FrequencyDim = Dim<-1, 0, 1, 0, 0>;
using ByteDim = Dim<0, 0, 0, 1, 0>;
using BandwidthDim = Dim<-1, 0, 0, 1, 0>;
using OpDim = Dim<0, 0, 0, 0, 1>;
using OpRateDim = Dim<-1, 0, 0, 0, 1>;
using EnergyPerOpDim = Dim<0, 1, 0, 0, -1>;
using EnergyTimeDim = Dim<1, 1, 0, 0, 0>;        ///< EDP (J*s)
using EnergyTimeSqDim = Dim<2, 1, 0, 0, 0>;      ///< ED2P (J*s^2)

template <class A, class B>
using DimMultiply = Dim<A::time + B::time, A::energy + B::energy,
                        A::cycle + B::cycle, A::byte + B::byte, A::op + B::op>;
template <class A, class B>
using DimDivide = Dim<A::time - B::time, A::energy - B::energy,
                      A::cycle - B::cycle, A::byte - B::byte, A::op - B::op>;

template <class D>
inline constexpr bool kDimensionless = std::is_same_v<D, DimLess>;

namespace detail {

/// Exact double value of a std::ratio (all unit ratios in use are exactly
/// representable: powers of ten up to 1e9, 1024^k, 3.6e6).
template <class R>
inline constexpr double kRatioValue =
    static_cast<double>(R::num) / static_cast<double>(R::den);

/// Conversion factor from a quantity in units of `From` to units of `To`.
template <class From, class To>
inline constexpr double kConversion = kRatioValue<std::ratio_divide<From, To>>;

/// Canonical symbol for the dimensions the codebase names; composed
/// fallback for anything else.
template <class D>
const char* dim_symbol() {
  if constexpr (std::is_same_v<D, TimeDim>) return "s";
  else if constexpr (std::is_same_v<D, EnergyDim>) return "J";
  else if constexpr (std::is_same_v<D, PowerDim>) return "W";
  else if constexpr (std::is_same_v<D, CycleDim>) return "cyc";
  else if constexpr (std::is_same_v<D, FrequencyDim>) return "Hz";
  else if constexpr (std::is_same_v<D, ByteDim>) return "B";
  else if constexpr (std::is_same_v<D, BandwidthDim>) return "B/s";
  else if constexpr (std::is_same_v<D, OpDim>) return "op";
  else if constexpr (std::is_same_v<D, OpRateDim>) return "op/s";
  else if constexpr (std::is_same_v<D, EnergyPerOpDim>) return "J/op";
  else if constexpr (std::is_same_v<D, EnergyTimeDim>) return "J.s";
  else if constexpr (std::is_same_v<D, EnergyTimeSqDim>) return "J.s^2";
  else return "?";
}

/// Metric prefix of a pure power-of-ten ratio ("" for ratio<1>); unit
/// symbols print as prefix + dimension symbol (e.g. "mJ", "MHz").
template <class R>
const char* ratio_prefix() {
  if constexpr (std::is_same_v<R, std::ratio<1>>) return "";
  else if constexpr (std::is_same_v<R, std::micro>) return "u";
  else if constexpr (std::is_same_v<R, std::milli>) return "m";
  else if constexpr (std::is_same_v<R, std::kilo>) return "k";
  else if constexpr (std::is_same_v<R, std::mega>) return "M";
  else if constexpr (std::is_same_v<R, std::giga>) return "G";
  else return "*";
}

}  // namespace detail

/// A dimension-tagged, compile-time-scaled wrapper around one double.
///
/// The stored value is in units of `Ratio` relative to the coherent SI
/// unit of `D` (Ratio = std::milli on EnergyDim stores millijoules).
/// Same-dimension quantities convert implicitly and exactly; mixed-ratio
/// arithmetic converts to the left operand's unit. Cross-dimension * and
/// / derive the result dimension and return it in coherent units;
/// dimensionless results decay to double.
template <class D, class R = std::ratio<1>>
class Quantity {
  static_assert(R::num > 0, "unit ratio must be positive");

 public:
  using dim = D;
  using ratio = R;

  constexpr Quantity() = default;
  constexpr explicit Quantity(double v) : value_(v) {}

  /// Implicit exact conversion from the same dimension in another unit
  /// (Joules <- Millijoules, Hertz <- Gigahertz, ...).
  template <class R2>
    requires(!std::is_same_v<R, R2>)
  constexpr Quantity(Quantity<D, R2> o)
      : value_(o.value() * detail::kConversion<R2, R>) {}

  /// Numeric value in this quantity's own unit.
  [[nodiscard]] constexpr double value() const { return value_; }
  /// Numeric value in the coherent SI unit of the dimension.
  [[nodiscard]] constexpr double base_value() const {
    return value_ * detail::kRatioValue<R>;
  }

  constexpr Quantity& operator+=(Quantity o) {
    value_ += o.value_;
    return *this;
  }
  constexpr Quantity& operator-=(Quantity o) {
    value_ -= o.value_;
    return *this;
  }
  constexpr Quantity& operator*=(double k) {
    value_ *= k;
    return *this;
  }
  constexpr Quantity& operator/=(double k) {
    value_ /= k;
    return *this;
  }

  friend constexpr Quantity operator+(Quantity a, Quantity b) {
    return Quantity{a.value_ + b.value_};
  }
  friend constexpr Quantity operator-(Quantity a, Quantity b) {
    return Quantity{a.value_ - b.value_};
  }
  friend constexpr Quantity operator-(Quantity a) {
    return Quantity{-a.value_};
  }
  friend constexpr Quantity operator*(Quantity a, double k) {
    return Quantity{a.value_ * k};
  }
  friend constexpr Quantity operator*(double k, Quantity a) {
    return Quantity{k * a.value_};
  }
  friend constexpr Quantity operator/(Quantity a, double k) {
    return Quantity{a.value_ / k};
  }

  friend constexpr auto operator<=>(Quantity a, Quantity b) = default;

  friend std::ostream& operator<<(std::ostream& os, Quantity q) {
    return os << q.value_ << detail::ratio_prefix<R>()
              << detail::dim_symbol<D>();
  }

 private:
  double value_ = 0.0;
};

/// Explicit same-dimension unit conversion (`quantity_cast<Millijoules>(j)`).
template <class To, class D, class R>
[[nodiscard]] constexpr To quantity_cast(Quantity<D, R> q) {
  static_assert(std::is_same_v<typename To::dim, D>,
                "quantity_cast cannot change dimensions");
  return To{q.value() * detail::kConversion<R, typename To::ratio>};
}

// --- Derived-dimension arithmetic -------------------------------------------
//
// One pair of operator templates replaces the hand-enumerated W*s, J/s,
// cyc/Hz, ... overloads of the tag-based layer: the compiler adds or
// subtracts the exponent vectors, so every physically meaningful product
// works and every meaningless one fails to find an overload.

template <class D1, class R1, class D2, class R2>
[[nodiscard]] constexpr auto operator*(Quantity<D1, R1> a, Quantity<D2, R2> b) {
  using D = DimMultiply<D1, D2>;
  const double v = a.base_value() * b.base_value();
  if constexpr (kDimensionless<D>) {
    return v;
  } else {
    return Quantity<D>{v};
  }
}

template <class D1, class R1, class D2, class R2>
[[nodiscard]] constexpr auto operator/(Quantity<D1, R1> a, Quantity<D2, R2> b) {
  using D = DimDivide<D1, D2>;
  const double v = a.base_value() / b.base_value();
  if constexpr (kDimensionless<D>) {
    return v;
  } else {
    return Quantity<D>{v};
  }
}

/// Reciprocal of a quantity (scalar / quantity).
template <class D, class R>
[[nodiscard]] constexpr auto operator/(double k, Quantity<D, R> q) {
  using Dinv = DimDivide<DimLess, D>;
  return Quantity<Dinv>{k / q.base_value()};
}

// Mixed-ratio, same-dimension arithmetic converts to the left operand's
// unit (Joules + Millijoules -> Joules).
template <class D, class R1, class R2>
  requires(!std::is_same_v<R1, R2>)
[[nodiscard]] constexpr Quantity<D, R1> operator+(Quantity<D, R1> a,
                                                  Quantity<D, R2> b) {
  return a + Quantity<D, R1>(b);
}
template <class D, class R1, class R2>
  requires(!std::is_same_v<R1, R2>)
[[nodiscard]] constexpr Quantity<D, R1> operator-(Quantity<D, R1> a,
                                                  Quantity<D, R2> b) {
  return a - Quantity<D, R1>(b);
}
template <class D, class R1, class R2>
  requires(!std::is_same_v<R1, R2>)
[[nodiscard]] constexpr auto operator<=>(Quantity<D, R1> a,
                                         Quantity<D, R2> b) {
  return a.base_value() <=> b.base_value();
}
template <class D, class R1, class R2>
  requires(!std::is_same_v<R1, R2>)
[[nodiscard]] constexpr bool operator==(Quantity<D, R1> a, Quantity<D, R2> b) {
  return a.base_value() == b.base_value();
}

// --- Coherent-unit aliases ---------------------------------------------------

using Seconds = Quantity<TimeDim>;
using Joules = Quantity<EnergyDim>;
using Watts = Quantity<PowerDim>;
using Cycles = Quantity<CycleDim>;
using Hertz = Quantity<FrequencyDim>;
using Bytes = Quantity<ByteDim>;
using BytesPerSecond = Quantity<BandwidthDim>;
using Ops = Quantity<OpDim>;
using OpsPerSecond = Quantity<OpRateDim>;
using JoulesPerOp = Quantity<EnergyPerOpDim>;
using JouleSeconds = Quantity<EnergyTimeDim>;
using JouleSecondsSquared = Quantity<EnergyTimeSqDim>;

// --- Scaled-unit aliases -----------------------------------------------------

using Microseconds = Quantity<TimeDim, std::micro>;
using Milliseconds = Quantity<TimeDim, std::milli>;
using Millijoules = Quantity<EnergyDim, std::milli>;
using Kilojoules = Quantity<EnergyDim, std::kilo>;
/// 1 kWh = 3.6e6 J exactly.
using KilowattHours = Quantity<EnergyDim, std::ratio<3600000>>;
using Milliwatts = Quantity<PowerDim, std::milli>;
using Kilowatts = Quantity<PowerDim, std::kilo>;
using Megahertz = Quantity<FrequencyDim, std::mega>;
using Gigahertz = Quantity<FrequencyDim, std::giga>;

// --- Zero-overhead guarantees -----------------------------------------------
//
// A Quantity must be a transparent double: same size, same alignment,
// trivially copyable, so arrays of typed metrics have raw-double layout
// and pass-by-value compiles to pass-in-register. The static_asserts
// below hold the layout side of this contract, the compile-fail harness
// the type side and Units.TypedIntegrationIsNotPessimized the run-time
// side.

static_assert(sizeof(Joules) == sizeof(double));
static_assert(sizeof(Watts) == sizeof(double));
static_assert(sizeof(Seconds) == sizeof(double));
static_assert(sizeof(Hertz) == sizeof(double));
static_assert(sizeof(KilowattHours) == sizeof(double));
static_assert(alignof(Joules) == alignof(double));
static_assert(std::is_trivially_copyable_v<Joules>);
static_assert(std::is_trivially_copyable_v<Watts>);
static_assert(std::is_trivially_copyable_v<Seconds>);
static_assert(std::is_trivially_destructible_v<Joules>);

// --- Compile-time algebra spot checks ---------------------------------------

static_assert(std::is_same_v<decltype(Watts{} * Seconds{}), Joules>);
static_assert(std::is_same_v<decltype(Seconds{} * Watts{}), Joules>);
static_assert(std::is_same_v<decltype(Joules{} / Seconds{}), Watts>);
static_assert(std::is_same_v<decltype(Joules{} / Watts{}), Seconds>);
static_assert(std::is_same_v<decltype(Cycles{} / Hertz{}), Seconds>);
static_assert(std::is_same_v<decltype(Hertz{} * Seconds{}), Cycles>);
static_assert(std::is_same_v<decltype(Bytes{} / BytesPerSecond{}), Seconds>);
static_assert(std::is_same_v<decltype(Joules{} / Ops{}), JoulesPerOp>);
static_assert(std::is_same_v<decltype(Joules{} * Seconds{}), JouleSeconds>);
static_assert(std::is_same_v<decltype(Watts{} / Watts{}), double>);
static_assert(std::is_same_v<decltype(Hertz{} / Hertz{}), double>);

// --- Literals ----------------------------------------------------------------
//
// Literals yield coherent-unit quantities (value() in SI), matching the
// pre-Ratio behaviour: (800_MHz).value() == 0.8e9. Use the scaled alias
// types when the stored representation itself should be scaled.

namespace literals {
constexpr Watts operator""_W(long double v) { return Watts{static_cast<double>(v)}; }
constexpr Watts operator""_W(unsigned long long v) { return Watts{static_cast<double>(v)}; }
constexpr Watts operator""_mW(long double v) { return Watts{static_cast<double>(v) * 1e-3}; }
constexpr Watts operator""_mW(unsigned long long v) { return Watts{static_cast<double>(v) * 1e-3}; }
constexpr Watts operator""_kW(long double v) { return Watts{static_cast<double>(v) * 1e3}; }
constexpr Watts operator""_kW(unsigned long long v) { return Watts{static_cast<double>(v) * 1e3}; }
constexpr Joules operator""_J(long double v) { return Joules{static_cast<double>(v)}; }
constexpr Joules operator""_J(unsigned long long v) { return Joules{static_cast<double>(v)}; }
constexpr Joules operator""_mJ(long double v) { return Joules{static_cast<double>(v) * 1e-3}; }
constexpr Joules operator""_mJ(unsigned long long v) { return Joules{static_cast<double>(v) * 1e-3}; }
constexpr Joules operator""_kWh(long double v) { return Joules{static_cast<double>(v) * 3.6e6}; }
constexpr Joules operator""_kWh(unsigned long long v) { return Joules{static_cast<double>(v) * 3.6e6}; }
constexpr Seconds operator""_s(long double v) { return Seconds{static_cast<double>(v)}; }
constexpr Seconds operator""_s(unsigned long long v) { return Seconds{static_cast<double>(v)}; }
constexpr Seconds operator""_ms(long double v) { return Seconds{static_cast<double>(v) * 1e-3}; }
constexpr Seconds operator""_ms(unsigned long long v) { return Seconds{static_cast<double>(v) * 1e-3}; }
constexpr Seconds operator""_us(long double v) { return Seconds{static_cast<double>(v) * 1e-6}; }
constexpr Seconds operator""_us(unsigned long long v) { return Seconds{static_cast<double>(v) * 1e-6}; }
constexpr Hertz operator""_Hz(long double v) { return Hertz{static_cast<double>(v)}; }
constexpr Hertz operator""_Hz(unsigned long long v) { return Hertz{static_cast<double>(v)}; }
constexpr Hertz operator""_MHz(long double v) { return Hertz{static_cast<double>(v) * 1e6}; }
constexpr Hertz operator""_MHz(unsigned long long v) { return Hertz{static_cast<double>(v) * 1e6}; }
constexpr Hertz operator""_GHz(long double v) { return Hertz{static_cast<double>(v) * 1e9}; }
constexpr Hertz operator""_GHz(unsigned long long v) { return Hertz{static_cast<double>(v) * 1e9}; }
constexpr Bytes operator""_B(unsigned long long v) { return Bytes{static_cast<double>(v)}; }
constexpr Bytes operator""_KB(unsigned long long v) { return Bytes{static_cast<double>(v) * 1024.0}; }
constexpr Bytes operator""_MB(unsigned long long v) { return Bytes{static_cast<double>(v) * 1024.0 * 1024.0}; }
constexpr Bytes operator""_GB(unsigned long long v) { return Bytes{static_cast<double>(v) * 1024.0 * 1024.0 * 1024.0}; }
constexpr Cycles operator""_cyc(unsigned long long v) { return Cycles{static_cast<double>(v)}; }
constexpr Ops operator""_op(unsigned long long v) { return Ops{static_cast<double>(v)}; }
}  // namespace literals

}  // namespace hcep
