// Provenance name of the bit-operation code path, reported as `simd_table`
// in bench and perfbench output. Bitset and the predecessor expansion run
// plain word loops that the compiler vectorizes for the build's target
// (-march), so there is one path and its name is fixed.

#ifndef NFACOUNT_UTIL_SIMD_HPP_
#define NFACOUNT_UTIL_SIMD_HPP_

namespace nfacount {
namespace simd {

struct Kernels {
  const char* name;
};

inline const Kernels& ActiveKernels() {
  static constexpr Kernels kScalar{"scalar"};
  return kScalar;
}

}  // namespace simd
}  // namespace nfacount

#endif  // NFACOUNT_UTIL_SIMD_HPP_
