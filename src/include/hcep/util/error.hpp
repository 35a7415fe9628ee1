// Error handling primitives shared by every hcep module.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

namespace hcep {

/// Base class for all library errors.
class Error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Raised when a caller violates an API precondition.
class PreconditionError : public Error {
 public:
  using Error::Error;
};

/// Raised when a numerical routine fails to converge / produce a result.
class NumericalError : public Error {
 public:
  using Error::Error;
};

/// Throws PreconditionError with `what` when `ok` is false. The message
/// is a view, so a passing check on a literal builds no string: hot-path
/// preconditions (every DES schedule, every token-bucket call) stay
/// allocation-free.
inline void require(bool ok, std::string_view what) {
  if (!ok) throw PreconditionError(std::string(what));
}

}  // namespace hcep
