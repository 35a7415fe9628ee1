#include "hcep/kernels/registry.hpp"

#include "hcep/kernels/blackscholes.hpp"
#include "hcep/kernels/ep.hpp"
#include "hcep/kernels/julius.hpp"
#include "hcep/kernels/kvstore.hpp"
#include "hcep/kernels/rsa.hpp"
#include "hcep/kernels/x264.hpp"
#include "hcep/util/error.hpp"

namespace hcep::kernels {

std::vector<std::string> kernel_names() {
  return {"EP", "memcached", "x264", "blackscholes", "Julius", "RSA-2048"};
}

KernelPtr make_kernel(const std::string& name) {
  if (name == "EP") return std::make_unique<EpKernel>();
  if (name == "memcached") return std::make_unique<KvStoreKernel>();
  if (name == "x264") return std::make_unique<X264Kernel>();
  if (name == "blackscholes") return std::make_unique<BlackScholesKernel>();
  if (name == "Julius") return std::make_unique<JuliusKernel>();
  if (name == "RSA-2048") return std::make_unique<RsaKernel>();
  throw PreconditionError("make_kernel: unknown program '" + name + "'");
}

}  // namespace hcep::kernels
