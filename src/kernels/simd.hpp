#pragma once

// ISA levels of the host's vector code and the dispatch onto them
// (DESIGN.md §16.2). The Householder cores in kernels/block_ops.hpp and the
// small Jacobi SVD in linalg/svd.hpp are each written once against a level
// I and run at active_isa() through run_at().

#include <algorithm>
#include <type_traits>

#include "common/check.hpp"

namespace caqr::kernels::simd {

template <typename T>
inline constexpr bool kEnabled =
    std::is_same_v<T, float> || std::is_same_v<T, double>;

// ISA levels every simd:: routine is compiled for. The unqualified entry
// points run at active_isa(); tests run each level.
enum class Isa { Sse2, Avx2, Avx512 };
inline constexpr Isa kIsas[] = {Isa::Sse2, Isa::Avx2, Isa::Avx512};

inline const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::Avx512: return "avx512";
    case Isa::Avx2: return "avx2";
    case Isa::Sse2: break;
  }
  return "sse2";
}

// Bytes of one vector register at a level. SSE2 is the x86-64 baseline;
// other targets run only the 16-byte level.
template <Isa I>
inline constexpr int kVecBytes = I == Isa::Avx512 ? 64 : I == Isa::Avx2 ? 32 : 16;

// Whether this host can run level `isa`: the CPU has the instructions and
// the OS saves their registers.
inline bool supports(Isa isa) {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  switch (isa) {
    case Isa::Avx512:
      return __builtin_cpu_supports("avx512f") &&
             __builtin_cpu_supports("avx512vl") &&
             __builtin_cpu_supports("avx512bw") &&
             __builtin_cpu_supports("avx512dq");
    case Isa::Avx2:
      return __builtin_cpu_supports("avx2");
    case Isa::Sse2:
      break;
  }
  return true;
#else
  return isa == Isa::Sse2;
#endif
}

// The level the unqualified entry points run at: the best one the host
// supports, picked once per process.
inline Isa active_isa() {
  static const Isa isa = supports(Isa::Avx512) ? Isa::Avx512
                         : supports(Isa::Avx2) ? Isa::Avx2
                                               : Isa::Sse2;
  return isa;
}

#if defined(__x86_64__) || defined(__i386__)
#define CAQR_SIMD_TARGET(isa) __attribute__((target(isa)))
#else
#define CAQR_SIMD_TARGET(isa)
#endif

// run_<level><I>(fn) calls fn.template operator()<I>() inside a function
// compiled for that level; flatten inlines everything fn calls into it, so
// the whole routine compiles for the level. fma is deliberately not
// enabled. The level is a template parameter of every function carrying a
// target attribute: otherwise the linker could keep one level's body for
// another level's callers.
template <Isa I, typename Fn>
__attribute__((flatten)) void run_sse2(Fn& fn) {
  fn.template operator()<I>();
}

template <Isa I, typename Fn>
__attribute__((flatten)) CAQR_SIMD_TARGET("avx2") void run_avx2(Fn& fn) {
  fn.template operator()<I>();
}

template <Isa I, typename Fn>
__attribute__((flatten))
CAQR_SIMD_TARGET("avx512f,avx512vl,avx512bw,avx512dq")
void run_avx512(Fn& fn) {
  fn.template operator()<I>();
}

#undef CAQR_SIMD_TARGET

template <typename Fn>
void run_at(Isa isa, Fn&& fn) {
  CAQR_DCHECK(supports(isa));
  switch (isa) {
    case Isa::Avx512: return run_avx512<Isa::Avx512>(fn);
    case Isa::Avx2: return run_avx2<Isa::Avx2>(fn);
    case Isa::Sse2: break;
  }
  run_sse2<Isa::Sse2>(fn);
}

// A chunk of L lanes is held as L / kLanes native vectors of the level, at
// most kMaxBytes wide, so the accumulators stay in registers (four at SSE2
// for 16 floats, one at AVX-512); one wide GCC vector of L lanes would be
// lowered through the stack.
template <Isa I, int L, typename T, int kMaxBytes = 64>
inline constexpr int kLanes = std::min<int>(
    L, std::min(kVecBytes<I>, kMaxBytes) / static_cast<int>(sizeof(T)));

}  // namespace caqr::kernels::simd
