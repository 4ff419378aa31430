// Register-blocked single-precision GEMM kernels for the NN hot path.
//
// All matrices are dense row-major and every kernel *accumulates* into C
// (C += ...), matching how backward passes sum gradients over a batch. Three
// transpose variants cover everything the layers need:
//
//   sgemm      C[M,N] += A[M,K]  · B[K,N]    (conv forward, linear input grad)
//   sgemm_atb  C[M,N] += A[K,M]ᵀ · B[K,N]    (weight grads, conv input grad)
//   sgemm_abt  C[M,N] += A[M,K]  · B[N,K]ᵀ   (linear forward, conv weight grad)
//
// The public entry points dispatch at runtime between hand-written backends
// (nn/kernel_dispatch.h): the scalar C++ kernels — laid out so the compiler
// auto-vectorizes them, and the mandatory fallback every build carries — and
// AVX2+FMA microkernels on x86-64. The `naive_*`
// twins are the deliberately simple triple loops kept as parity oracles for
// tests; every backend must match them up to the tolerance contract of
// DESIGN.md §15 (scalar sgemm/sgemm_atb bit-exactly when C starts zeroed,
// everything else within float-reassociation error).
//
// igemm_abt_u8s8 is the int8 sibling used by the forward-only quantized eval
// path: int32 accumulation of int8 products is exact integer arithmetic, so
// *all* backends must agree with naive_igemm_abt bit-for-bit.
#pragma once

#include <cstdint>

#include "nn/kernel_dispatch.h"

namespace lbchat::nn {

/// K-dimension tile size for the blocked kernels (floats; 64*4 B = one panel
/// row fits comfortably in L1 alongside the C accumulator rows).
inline constexpr int kGemmKBlock = 64;

/// C[M,N] += A[M,K] · B[K,N].
void sgemm(int m, int n, int k, const float* a, const float* b, float* c);

/// C[M,N] += Aᵀ · B where A is stored [K,M] and B is [K,N].
void sgemm_atb(int m, int n, int k, const float* a, const float* b, float* c);

/// C[M,N] += A · Bᵀ where A is stored [M,K] and B is [N,K].
void sgemm_abt(int m, int n, int k, const float* a, const float* b, float* c);

/// C[M,N] += A[M,K] · B[N,K]ᵀ over int8 operands with int32 accumulation,
/// for A codes in [0, 127] — every activation tensor the int8 eval path
/// produces (binary BEV codes and post-ReLU quantizations are non-negative).
/// The precondition lets the AVX2 backend use vpmaddubsw (unsigned×signed,
/// 32 products per instruction, saturation-free because pair sums stay
/// ≤ 2·127·127 < 2^15). Exact for k < 2^16; results are bit-identical to
/// naive_igemm_abt on conforming inputs on every path; feeding negative A
/// codes is a contract violation and silently wrong on AVX2.
void igemm_abt_u8s8(int m, int n, int k, const std::int8_t* a, const std::int8_t* b,
                    std::int32_t* c);

/// Reference triple-loop implementations (parity oracles; slow).
void naive_sgemm(int m, int n, int k, const float* a, const float* b, float* c);
void naive_sgemm_atb(int m, int n, int k, const float* a, const float* b, float* c);
void naive_sgemm_abt(int m, int n, int k, const float* a, const float* b, float* c);
void naive_igemm_abt(int m, int n, int k, const std::int8_t* a, const std::int8_t* b,
                     std::int32_t* c);

/// Route one call to an explicit backend, bypassing active_kernel_path().
/// Used by the parity tests to pin every path against the oracles; throws
/// std::invalid_argument when `path` is not available on this build/CPU.
void sgemm_on(KernelPath path, int m, int n, int k, const float* a, const float* b, float* c);
void sgemm_atb_on(KernelPath path, int m, int n, int k, const float* a, const float* b,
                  float* c);
void sgemm_abt_on(KernelPath path, int m, int n, int k, const float* a, const float* b,
                  float* c);
void igemm_abt_u8s8_on(KernelPath path, int m, int n, int k, const std::int8_t* a,
                       const std::int8_t* b, std::int32_t* c);

namespace detail {

/// The scalar backend (always compiled; the bit-reproducibility anchor).
namespace scalar {
void sgemm(int m, int n, int k, const float* a, const float* b, float* c);
void sgemm_atb(int m, int n, int k, const float* a, const float* b, float* c);
void sgemm_abt(int m, int n, int k, const float* a, const float* b, float* c);
/// Signed int8 dot kernel: the scalar body of igemm_abt_u8s8. The scalar
/// backend has no unsigned×signed shortcut: on conforming inputs ([0,127] is
/// the same value signed or unsigned) the plain signed kernel already is the
/// u8s8 result, so only AVX2 gets its own body.
void igemm_abt(int m, int n, int k, const std::int8_t* a, const std::int8_t* b,
               std::int32_t* c);
}  // namespace scalar

#if defined(__x86_64__) || defined(__i386__)
/// Hand-written AVX2+FMA microkernels (gemm_avx2.cpp; x86-64 builds only —
/// call only when kernel_path_available(KernelPath::kAvx2)).
namespace avx2 {
void sgemm(int m, int n, int k, const float* a, const float* b, float* c);
void sgemm_atb(int m, int n, int k, const float* a, const float* b, float* c);
void sgemm_abt(int m, int n, int k, const float* a, const float* b, float* c);
void igemm_abt_u8s8(int m, int n, int k, const std::int8_t* a, const std::int8_t* b,
                    std::int32_t* c);
}  // namespace avx2
#endif

}  // namespace detail

}  // namespace lbchat::nn
