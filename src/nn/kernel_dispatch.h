// Runtime selection of the GEMM microkernel implementation (DESIGN.md §15).
//
// The gemm.h entry points stay the single interface the layers call; this
// header decides which hand-written backend services them. Two paths exist:
//
//   kScalar  the register-blocked C++ kernels (mandatory fallback, present on
//            every build; the bit-reproducibility anchor — all committed
//            goldens were produced by it)
//   kAvx2    hand-written AVX2+FMA microkernels (x86-64 builds, used when the
//            CPU reports avx2+fma at runtime)
//
// The active path is resolved once, on first use, from the LBCHAT_KERNEL
// environment variable: "auto" (or unset) picks the best available path via
// CPUID; "scalar"/"avx2" force one explicitly. Forcing a path the
// build or CPU cannot run warns on stderr and falls back to scalar rather
// than crashing, so a pinned-kernel run degrades loudly but safely.
// set_kernel_path() overrides the choice programmatically (CLI --kernel,
// golden reproduction, tests).
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

namespace lbchat::nn {

enum class KernelPath : int {
  kScalar = 0,
  kAvx2 = 1,
};

/// True when this build + this CPU can execute `p`. kScalar is always true.
[[nodiscard]] bool kernel_path_available(KernelPath p);

/// The fastest available path on this machine (what "auto" resolves to).
[[nodiscard]] KernelPath best_kernel_path();

/// The path the gemm.h dispatchers currently route to. Resolved from
/// LBCHAT_KERNEL on first call; stable afterwards unless set_kernel_path().
[[nodiscard]] KernelPath active_kernel_path();

/// Force the dispatch target. Throws std::invalid_argument when `p` is not
/// available on this build/CPU (callers that want the warn-and-fallback
/// behaviour go through LBCHAT_KERNEL instead).
void set_kernel_path(KernelPath p);

/// "scalar" / "avx2".
[[nodiscard]] std::string_view kernel_path_name(KernelPath p);

/// Parse a path name ("scalar", "avx2"); nullopt for anything else
/// (including "auto", which callers resolve via best_kernel_path()).
[[nodiscard]] std::optional<KernelPath> parse_kernel_path(std::string_view name);

/// Fold the active kernel path into a result-cache key. SIMD float
/// reassociation changes run results, so caches of *run results* (the bench
/// .bench_cache, the svc ResultCache) must not serve an entry produced by one
/// backend to a run on another. The scalar path — the backend every
/// historical entry was produced by — returns `key` unchanged so scalar runs
/// keep hitting pre-existing entries; any other path appends a marked FNV
/// tail. scenario_fingerprint itself stays kernel-independent: it hashes
/// configuration, not runtime state.
[[nodiscard]] std::uint64_t salt_with_kernel_path(std::uint64_t key);

/// RAII path override for scopes that must pin numerics to one backend
/// (golden reproduction, per-path parity tests). Restores on destruction.
class ScopedKernelPath {
 public:
  explicit ScopedKernelPath(KernelPath p) : prev_(active_kernel_path()) { set_kernel_path(p); }
  ~ScopedKernelPath() { set_kernel_path(prev_); }
  ScopedKernelPath(const ScopedKernelPath&) = delete;
  ScopedKernelPath& operator=(const ScopedKernelPath&) = delete;

 private:
  KernelPath prev_;
};

}  // namespace lbchat::nn
