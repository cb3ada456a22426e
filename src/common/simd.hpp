// The widest vector instruction set the running CPU supports.  The solver
// runs one scalar code path everywhere; no code dispatches on this.  It is
// reported so a benchmark record names the host it ran on.
#pragma once

namespace edr::common::simd {

/// "avx2" (AVX2 and FMA), "sse2" (the x86-64 baseline) or "scalar" (any
/// other target).  Cached after the first call.
[[nodiscard]] const char* active_isa();

}  // namespace edr::common::simd
