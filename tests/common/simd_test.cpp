// common/simd.hpp only reports the host's widest vector ISA (for benchmark
// records); the solver runs one scalar path.
#include "common/simd.hpp"

#include <gtest/gtest.h>

#include <string>

namespace edr::common::simd {
namespace {

TEST(Simd, ActiveIsaIsKnown) {
  const std::string isa = active_isa();
  EXPECT_TRUE(isa == "avx2" || isa == "sse2" || isa == "scalar") << isa;
}

}  // namespace
}  // namespace edr::common::simd
