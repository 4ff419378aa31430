// Wire/disk serialization of models and sparse models.
#pragma once

#include <stdexcept>

#include "common/bytes.h"
#include "nn/compress.h"

namespace lbchat::nn {

inline void write_sparse_model(ByteWriter& w, const SparseModel& m) {
  w.write_u32(m.dim);
  w.write_u8(m.dense ? 1 : 0);
  w.write_u32_vec(m.indices);
  w.write_f32_vec(m.values);
}

/// Reads and validates a sparse model. Throws std::out_of_range (truncated
/// buffer) or std::runtime_error (internally inconsistent payload: dense with
/// stray indices or the wrong value count, sparse with mismatched
/// indices/values lengths or indices past `dim`) — never applies garbage.
inline SparseModel read_sparse_model(ByteReader& r) {
  SparseModel m;
  m.dim = r.read_u32();
  m.dense = r.read_u8() != 0;
  m.indices = r.read_u32_vec();
  m.values = r.read_f32_vec();
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
  return m;
}

}  // namespace lbchat::nn
