#include "nn/kernel_dispatch.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "common/fingerprint.h"

namespace lbchat::nn {

namespace {

bool avx2_supported() {
#if (defined(__x86_64__) || defined(__i386__)) && (defined(__GNUC__) || defined(__clang__))
  // The AVX2 kernels use FMA contractions, so both bits must be present.
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

KernelPath resolve_from_env() {
  const char* env = std::getenv("LBCHAT_KERNEL");
  if (env == nullptr || *env == '\0' || std::string_view{env} == "auto") {
    return best_kernel_path();
  }
  const std::optional<KernelPath> parsed = parse_kernel_path(env);
  if (!parsed.has_value()) {
    std::fprintf(stderr,
                 "lbchat: LBCHAT_KERNEL=%s is not one of auto/scalar/avx2; "
                 "using the scalar kernels\n",
                 env);
    return KernelPath::kScalar;
  }
  if (!kernel_path_available(*parsed)) {
    std::fprintf(stderr,
                 "lbchat: LBCHAT_KERNEL=%s is not available on this build/CPU; "
                 "using the scalar kernels\n",
                 env);
    return KernelPath::kScalar;
  }
  return *parsed;
}

std::atomic<int>& active_slot() {
  static std::atomic<int> slot{static_cast<int>(resolve_from_env())};
  return slot;
}

}  // namespace

bool kernel_path_available(KernelPath p) {
  switch (p) {
    case KernelPath::kScalar:
      return true;
    case KernelPath::kAvx2:
      return avx2_supported();
  }
  return false;
}

KernelPath best_kernel_path() {
  if (avx2_supported()) return KernelPath::kAvx2;
  return KernelPath::kScalar;
}

KernelPath active_kernel_path() {
  return static_cast<KernelPath>(active_slot().load(std::memory_order_relaxed));
}

void set_kernel_path(KernelPath p) {
  if (!kernel_path_available(p)) {
    throw std::invalid_argument{"set_kernel_path: path not available on this build/CPU"};
  }
  active_slot().store(static_cast<int>(p), std::memory_order_relaxed);
}

std::string_view kernel_path_name(KernelPath p) {
  switch (p) {
    case KernelPath::kScalar:
      return "scalar";
    case KernelPath::kAvx2:
      return "avx2";
  }
  return "scalar";
}

std::optional<KernelPath> parse_kernel_path(std::string_view name) {
  if (name == "scalar") return KernelPath::kScalar;
  if (name == "avx2") return KernelPath::kAvx2;
  return std::nullopt;
}

std::uint64_t salt_with_kernel_path(std::uint64_t key) {
  const KernelPath path = active_kernel_path();
  if (path == KernelPath::kScalar) return key;
  FnvHasher h;
  h.add(key);
  h.add(std::string_view{"kernel-path-v1"});
  h.add(kernel_path_name(path));
  return h.digest();
}

}  // namespace lbchat::nn
