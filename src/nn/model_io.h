// Wire/disk serialization of models and sparse models.
#pragma once

#include <stdexcept>

#include "common/bytes.h"
#include "nn/compress.h"

namespace lbchat::nn {

/// A sparse model on the wire: dim, the dense flag, the u32 indices, then
/// the f32 values. A load throws std::out_of_range (truncated buffer) or
/// std::runtime_error (internally inconsistent payload: dense with stray
/// indices or the wrong value count, sparse with mismatched indices/values
/// lengths or indices past `dim`) — it never applies garbage.
template <class Io, FieldsOf<SparseModel> S>
void fields(Io& io, S& m) {
  io(m.dim);
  io(m.dense);
  io.resize(m.indices, sizeof(std::uint32_t));
  for (auto& idx : m.indices) io(idx);
  io(m.values);
  if constexpr (Io::kLoad) {
    if (m.dense) {
      if (!m.indices.empty() || m.values.size() != m.dim) {
        throw std::runtime_error{"read_sparse_model: malformed dense payload"};
      }
    } else {
      if (m.indices.size() != m.values.size()) {
        throw std::runtime_error{"read_sparse_model: indices/values length mismatch"};
      }
      for (const std::uint32_t idx : m.indices) {
        if (idx >= m.dim) throw std::runtime_error{"read_sparse_model: index out of range"};
      }
    }
  }
}

inline void write_sparse_model(ByteWriter& w, const SparseModel& m) { Save{w}(m); }

inline SparseModel read_sparse_model(ByteReader& r) {
  SparseModel m;
  Load{r}(m);
  return m;
}

}  // namespace lbchat::nn
