// Kernel registry: constructs kernels by the paper's program names.
#pragma once

#include <string>
#include <vector>

#include "hcep/kernels/kernel.hpp"

namespace hcep::kernels {

/// Program names in the paper's order (Tables 4/6/7):
/// EP, memcached, x264, blackscholes, Julius, RSA-2048.
[[nodiscard]] std::vector<std::string> kernel_names();

/// Constructs the kernel for a program name; throws
/// hcep::PreconditionError for unknown names.
[[nodiscard]] KernelPtr make_kernel(const std::string& name);

}  // namespace hcep::kernels
