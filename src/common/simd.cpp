#include "common/simd.hpp"

namespace edr::common::simd {
namespace {

const char* detect_isa() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma"))
    return "avx2";
  return "sse2";
#else
  return "scalar";
#endif
}

}  // namespace

const char* active_isa() {
  static const char* const isa = detect_isa();
  return isa;
}

}  // namespace edr::common::simd
