// OpenSSL `speed rsa2048`-style verification kernel: performs real RSA
// signature verification s^e mod n with e = 65537 over a 2048-bit modulus,
// using a fixed-width multi-precision integer and square-and-multiply
// exponentiation. Work unit: one verification. Integer/crypto bound; the
// crypto_ops count lets the cost model apply the K10's ISA acceleration
// (the paper attributes the K10's superior RSA PPR to special
// instructions, Table 6 discussion).
#pragma once

#include <array>
#include <cstdint>

#include "hcep/kernels/kernel.hpp"

namespace hcep::kernels {

/// Fixed-width little-endian big integer: 2048 bits = 32 x 64-bit limbs.
class UInt2048 {
 public:
  static constexpr std::size_t kLimbs = 32;

  UInt2048() = default;
  /// From a small value.
  explicit UInt2048(std::uint64_t v) { limbs_[0] = v; }
  /// Random value below `modulus` (rejection on the top limb).
  static UInt2048 random_below(const UInt2048& modulus, Rng& rng);

  [[nodiscard]] std::uint64_t limb(std::size_t i) const { return limbs_[i]; }
  void set_limb(std::size_t i, std::uint64_t v) { limbs_[i] = v; }

  [[nodiscard]] bool operator==(const UInt2048&) const = default;
  [[nodiscard]] bool operator<(const UInt2048& o) const;
  [[nodiscard]] bool is_zero() const;
  [[nodiscard]] int bit(std::size_t i) const;
  [[nodiscard]] std::size_t bit_length() const;

  /// this -= o (requires *this >= o).
  void sub(const UInt2048& o);

  /// 64-bit fold of all limbs (checksum helper).
  [[nodiscard]] std::uint64_t fold() const;

 private:
  std::array<std::uint64_t, kLimbs> limbs_{};
};

/// Modular arithmetic over a fixed odd modulus; counts limb operations.
class ModContext {
 public:
  explicit ModContext(const UInt2048& modulus);

  /// (a * b) mod n via schoolbook multiply + binary reduction.
  [[nodiscard]] UInt2048 mul_mod(const UInt2048& a, const UInt2048& b);
  /// a^e mod n with 17-bit exponent 65537 (F4), square-and-multiply.
  [[nodiscard]] UInt2048 pow_f4(const UInt2048& a);

  [[nodiscard]] std::uint64_t limb_mul_ops() const { return limb_mul_ops_; }
  [[nodiscard]] std::uint64_t limb_add_ops() const { return limb_add_ops_; }

 private:
  UInt2048 modulus_;
  std::uint64_t limb_mul_ops_ = 0;
  std::uint64_t limb_add_ops_ = 0;
};

class RsaKernel final : public Kernel {
 public:
  [[nodiscard]] std::string name() const override { return "RSA-2048"; }
  [[nodiscard]] std::string work_unit() const override { return "verify"; }
  [[nodiscard]] KernelResult run(std::uint64_t units, Rng& rng) override;
};

}  // namespace hcep::kernels
