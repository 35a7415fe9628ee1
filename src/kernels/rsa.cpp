#include "hcep/kernels/rsa.hpp"

#include <bit>

#include "hcep/util/error.hpp"

namespace hcep::kernels {

namespace {

constexpr std::size_t kLimbs = UInt2048::kLimbs;
constexpr std::size_t kWideLimbs = 2 * kLimbs;
using Wide = std::array<std::uint64_t, kWideLimbs>;
__extension__ typedef unsigned __int128 uint128;

std::size_t wide_bit_length(const Wide& w) {
  for (std::size_t i = kWideLimbs; i-- > 0;) {
    if (w[i] != 0)
      return i * 64 + (64 - static_cast<std::size_t>(std::countl_zero(w[i])));
  }
  return 0;
}

/// Compares w with (n << shift); returns <0, 0, >0.
int compare_shifted(const Wide& w, const UInt2048& n, std::size_t shift) {
  const std::size_t limb_shift = shift / 64;
  const unsigned bit_shift = static_cast<unsigned>(shift % 64);
  // Virtual limb i of (n << shift).
  auto shifted_limb = [&](std::size_t i) -> std::uint64_t {
    if (i < limb_shift) return 0;
    const std::size_t j = i - limb_shift;
    std::uint64_t lo = j < kLimbs ? n.limb(j) : 0;
    if (bit_shift == 0) return lo;
    std::uint64_t carry = (j >= 1 && j - 1 < kLimbs) ? n.limb(j - 1) : 0;
    return (lo << bit_shift) | (carry >> (64 - bit_shift));
  };
  for (std::size_t i = kWideLimbs; i-- > 0;) {
    const std::uint64_t a = w[i];
    const std::uint64_t b = shifted_limb(i);
    if (a != b) return a < b ? -1 : 1;
  }
  return 0;
}

/// w -= (n << shift); requires w >= (n << shift).
void sub_shifted(Wide& w, const UInt2048& n, std::size_t shift,
                 std::uint64_t& add_ops) {
  const std::size_t limb_shift = shift / 64;
  const unsigned bit_shift = static_cast<unsigned>(shift % 64);
  std::uint64_t borrow = 0;
  for (std::size_t i = limb_shift; i < kWideLimbs; ++i) {
    const std::size_t j = i - limb_shift;
    std::uint64_t lo = j < kLimbs ? n.limb(j) : 0;
    std::uint64_t sub;
    if (bit_shift == 0) {
      sub = lo;
    } else {
      std::uint64_t carry = (j >= 1 && j - 1 < kLimbs) ? n.limb(j - 1) : 0;
      sub = (lo << bit_shift) | (carry >> (64 - bit_shift));
    }
    const uint128 sub_total =
        static_cast<uint128>(sub) + borrow;
    const uint128 before = w[i];
    if (before < sub_total) {
      w[i] = static_cast<std::uint64_t>(
          (static_cast<uint128>(1) << 64) + before - sub_total);
      borrow = 1;
    } else {
      w[i] = static_cast<std::uint64_t>(before - sub_total);
      borrow = 0;
    }
    ++add_ops;
  }
}

/// Reduces w modulo n in place (binary shift-subtract division).
void reduce(Wide& w, const UInt2048& n, std::size_t n_bits,
            std::uint64_t& add_ops) {
  std::size_t w_bits = wide_bit_length(w);
  while (w_bits >= n_bits) {
    std::size_t shift = w_bits - n_bits;
    if (compare_shifted(w, n, shift) < 0) {
      if (shift == 0) break;
      --shift;
    }
    sub_shifted(w, n, shift, add_ops);
    w_bits = wide_bit_length(w);
  }
}

UInt2048 to_narrow(const Wide& w) {
  UInt2048 out;
  for (std::size_t i = 0; i < kLimbs; ++i) out.set_limb(i, w[i]);
  return out;
}

}  // namespace

UInt2048 UInt2048::random_below(const UInt2048& modulus, Rng& rng) {
  require(!modulus.is_zero(), "UInt2048::random_below: zero modulus");
  UInt2048 out;
  do {
    for (std::size_t i = 0; i < kLimbs; ++i) out.limbs_[i] = rng.next();
    // Mask the top limb down to the modulus bit length to keep the
    // rejection rate below 50%.
    const std::size_t bits = modulus.bit_length();
    const std::size_t top = (bits - 1) / 64;
    for (std::size_t i = top + 1; i < kLimbs; ++i) out.limbs_[i] = 0;
    const unsigned keep = static_cast<unsigned>(bits - top * 64);
    if (keep < 64) out.limbs_[top] &= (1ULL << keep) - 1;
  } while (!(out < modulus));
  return out;
}

bool UInt2048::operator<(const UInt2048& o) const {
  for (std::size_t i = kLimbs; i-- > 0;) {
    if (limbs_[i] != o.limbs_[i]) return limbs_[i] < o.limbs_[i];
  }
  return false;
}

bool UInt2048::is_zero() const {
  for (std::uint64_t l : limbs_)
    if (l != 0) return false;
  return true;
}

int UInt2048::bit(std::size_t i) const {
  return static_cast<int>((limbs_[i / 64] >> (i % 64)) & 1ULL);
}

std::size_t UInt2048::bit_length() const {
  for (std::size_t i = kLimbs; i-- > 0;) {
    if (limbs_[i] != 0)
      return i * 64 +
             (64 - static_cast<std::size_t>(std::countl_zero(limbs_[i])));
  }
  return 0;
}

void UInt2048::sub(const UInt2048& o) {
  std::uint64_t borrow = 0;
  for (std::size_t i = 0; i < kLimbs; ++i) {
    const std::uint64_t a = limbs_[i];
    const std::uint64_t b = o.limbs_[i];
    const std::uint64_t t = a - b;
    const std::uint64_t r = t - borrow;
    borrow = (a < b) || (t < borrow) ? 1 : 0;
    limbs_[i] = r;
  }
}

std::uint64_t UInt2048::fold() const {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::uint64_t l : limbs_) {
    h ^= l;
    h *= 0x100000001b3ULL;
  }
  return h;
}

ModContext::ModContext(const UInt2048& modulus) : modulus_(modulus) {
  require(!modulus_.is_zero(), "ModContext: zero modulus");
  require(modulus_.bit(0) == 1, "ModContext: modulus must be odd (RSA)");
}

UInt2048 ModContext::mul_mod(const UInt2048& a, const UInt2048& b) {
  Wide w{};
  for (std::size_t i = 0; i < kLimbs; ++i) {
    if (a.limb(i) == 0) continue;
    std::uint64_t carry = 0;
    const uint128 ai = a.limb(i);
    for (std::size_t j = 0; j < kLimbs; ++j) {
      const uint128 cur =
          static_cast<uint128>(w[i + j]) + ai * b.limb(j) + carry;
      w[i + j] = static_cast<std::uint64_t>(cur);
      carry = static_cast<std::uint64_t>(cur >> 64);
      ++limb_mul_ops_;
    }
    std::size_t k = i + kLimbs;
    while (carry != 0 && k < kWideLimbs) {
      const uint128 cur =
          static_cast<uint128>(w[k]) + carry;
      w[k] = static_cast<std::uint64_t>(cur);
      carry = static_cast<std::uint64_t>(cur >> 64);
      ++limb_add_ops_;
      ++k;
    }
  }
  reduce(w, modulus_, modulus_.bit_length(), limb_add_ops_);
  return to_narrow(w);
}

UInt2048 ModContext::pow_f4(const UInt2048& a) {
  // 65537 = 2^16 + 1: sixteen squarings and one multiply.
  UInt2048 acc = a;
  for (int i = 0; i < 16; ++i) acc = mul_mod(acc, acc);
  return mul_mod(acc, a);
}

KernelResult RsaKernel::run(std::uint64_t units, Rng& rng) {
  Rng local = rng.split(2);

  // A fixed odd 2048-bit "modulus" (deterministic pseudo-modulus; primality
  // is irrelevant to the arithmetic cost being characterized).
  UInt2048 modulus;
  SplitMix64 sm(0x415341'32303438ULL);  // "RSA 2048"
  for (std::size_t i = 0; i < UInt2048::kLimbs; ++i)
    modulus.set_limb(i, sm.next());
  modulus.set_limb(UInt2048::kLimbs - 1,
                   modulus.limb(UInt2048::kLimbs - 1) | (1ULL << 63));
  modulus.set_limb(0, modulus.limb(0) | 1ULL);

  ModContext ctx(modulus);
  std::uint64_t checksum = 0;
  for (std::uint64_t i = 0; i < units; ++i) {
    const UInt2048 sig = UInt2048::random_below(modulus, local);
    const UInt2048 recovered = ctx.pow_f4(sig);
    checksum ^= recovered.fold() + 0x9e3779b97f4a7c15ULL * (i + 1);
  }

  OpCounts ops;
  ops.crypto_ops = ctx.limb_mul_ops();           // wide multiply-accumulate
  ops.int_ops = ctx.limb_add_ops() + units * 64; // reduction + bookkeeping
  ops.branch_ops = ctx.limb_add_ops() / 8;
  ops.work_units = units;
  // Working set (two 2048-bit operands + modulus) is cache resident; only
  // the signatures stream in.
  ops.mem_traffic = Bytes{static_cast<double>(units) * 256.0};
  ops.io_bytes = Bytes{static_cast<double>(units) * 256.0};

  KernelResult result;
  result.counts = ops;
  result.checksum = checksum;
  return result;
}

}  // namespace hcep::kernels
