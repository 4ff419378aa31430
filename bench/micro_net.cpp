// Micro-benchmarks for the NN compute kernels and the simulation substrate.
//
// Each NN op is timed twice — the retained naive scalar path and the
// im2col+GEMM path — so the speedup the kernel rewrite buys is visible at a
// glance and tracked across PRs: the results are also written to
// BENCH_micro_net.json in the working directory as
//   [{"op": ..., "us_per_iter": ..., "naive_us_per_iter": ..., "speedup": ...}]
// (substrate rows carry no naive twin and no speedup).
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "net/contact.h"
#include "net/spatial_index.h"
#include "net/wireless.h"
#include "nn/gemm.h"
#include "nn/int8_policy.h"
#include "nn/kernel_dispatch.h"
#include "nn/optim.h"
#include "nn/policy.h"
#include "sim/world.h"

namespace {

using namespace lbchat;

/// Wall-clock microseconds per iteration of `fn`, self-calibrating the
/// iteration count to roughly `target_ms` of total runtime.
double us_per_iter(const std::function<void()>& fn, double target_ms = 200.0) {
  using clock = std::chrono::steady_clock;
  // Warm up and estimate a single-iteration cost.
  fn();
  auto t0 = clock::now();
  fn();
  const double probe_us =
      std::chrono::duration<double, std::micro>(clock::now() - t0).count();
  long iters = probe_us > 0.0 ? static_cast<long>(target_ms * 1000.0 / probe_us) : 1000;
  iters = std::max(5L, std::min(iters, 2000000L));
  t0 = clock::now();
  for (long i = 0; i < iters; ++i) fn();
  const double total_us =
      std::chrono::duration<double, std::micro>(clock::now() - t0).count();
  return total_us / static_cast<double>(iters);
}

struct Row {
  std::string op;
  double us = 0.0;        ///< GEMM / production path
  double naive_us = -1.0;  ///< naive twin (< 0: not applicable)
  [[nodiscard]] double speedup() const { return naive_us > 0.0 ? naive_us / us : 0.0; }
};

void print_rows(const std::vector<Row>& rows) {
  std::printf("%-34s %12s %12s %9s\n", "op", "us/iter", "naive us", "speedup");
  for (const auto& r : rows) {
    if (r.naive_us > 0.0) {
      std::printf("%-34s %12.2f %12.2f %8.2fx\n", r.op.c_str(), r.us, r.naive_us, r.speedup());
    } else {
      std::printf("%-34s %12.2f %12s %9s\n", r.op.c_str(), r.us, "-", "-");
    }
  }
}

void write_json(const std::vector<Row>& rows, const char* path) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: could not open %s for writing\n", path);
    return;
  }
  std::fprintf(f, "[\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f, "  {\"op\": \"%s\", \"us_per_iter\": %.3f", r.op.c_str(), r.us);
    if (r.naive_us > 0.0) {
      std::fprintf(f, ", \"naive_us_per_iter\": %.3f, \"speedup\": %.3f", r.naive_us,
                   r.speedup());
    }
    std::fprintf(f, "}%s\n", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path);
}

/// Deterministic float fill for benchmark inputs.
void fill_random(std::vector<float>& v, Rng& rng) {
  for (float& x : v) x = static_cast<float>(rng.normal());
}

std::vector<Row> bench_conv(int batch) {
  nn::ParamStore store;
  Rng init{7};
  // conv1 of the default policy: 4->8ch 3x3 s2 p1 on 16x16.
  nn::Conv2d conv{store, 4, 8, 16, 16, 3, 2, 1, init};
  Rng data{8};
  std::vector<float> x(static_cast<std::size_t>(batch) * conv.in_numel());
  std::vector<float> y(static_cast<std::size_t>(batch) * conv.out_numel());
  std::vector<float> gy(y.size());
  std::vector<float> gx(x.size());
  fill_random(x, data);
  fill_random(gy, data);
  std::vector<float> col, gcol;

  std::vector<Row> rows;
  const std::string suffix = " b" + std::to_string(batch);
  rows.push_back({"conv2d_fwd" + suffix,
                  us_per_iter([&] { conv.forward(store, x, y, batch, col); }),
                  us_per_iter([&] { conv.naive_forward(store, x, y, batch); })});
  rows.push_back(
      {"conv2d_bwd" + suffix, us_per_iter([&] {
         store.zero_grads();
         std::fill(gx.begin(), gx.end(), 0.0f);
         conv.backward(store, x, gy, gx, batch, col, gcol);
       }),
       us_per_iter([&] {
         store.zero_grads();
         std::fill(gx.begin(), gx.end(), 0.0f);
         conv.naive_backward(store, x, gy, gx, batch);
       })});
  return rows;
}

std::vector<Row> bench_linear(int batch) {
  nn::ParamStore store;
  Rng init{9};
  nn::Linear lin{store, 256, 64, init};  // the policy's fc layer
  Rng data{10};
  std::vector<float> x(static_cast<std::size_t>(batch) * 256);
  std::vector<float> y(static_cast<std::size_t>(batch) * 64);
  std::vector<float> gy(y.size());
  std::vector<float> gx(x.size());
  fill_random(x, data);
  fill_random(gy, data);

  std::vector<Row> rows;
  const std::string suffix = " b" + std::to_string(batch);
  rows.push_back({"linear_fwd" + suffix, us_per_iter([&] { lin.forward(store, x, y, batch); }),
                  us_per_iter([&] { lin.naive_forward(store, x, y, batch); })});
  rows.push_back({"linear_bwd" + suffix, us_per_iter([&] {
                    store.zero_grads();
                    std::fill(gx.begin(), gx.end(), 0.0f);
                    lin.backward(store, x, gy, gx, batch);
                  }),
                  us_per_iter([&] {
                    store.zero_grads();
                    std::fill(gx.begin(), gx.end(), 0.0f);
                    lin.naive_backward(store, x, gy, gx, batch);
                  })});
  return rows;
}

Row bench_policy_train() {
  sim::World world{sim::WorldConfig{}, 1, 9};
  data::WeightedDataset ds{data::kDefaultBevSpec};
  for (std::size_t f = 0; f < 128; ++f) {
    world.step(0.5);
    ds.add(world.collect_sample(0, f));
  }
  nn::DrivingPolicy model;
  nn::Adam opt{1e-3};
  Rng rng{2};
  return {"policy_train_batch32", us_per_iter([&] {
            const auto idx = ds.sample_batch(rng, 32);
            std::vector<const data::Sample*> batch;
            for (const auto i : idx) batch.push_back(&ds[i]);
            (void)model.train_batch(batch, opt);
          })};
}

Row bench_policy_predict() {
  sim::World world{sim::WorldConfig{}, 1, 9};
  world.step(0.5);
  const auto sample = world.collect_sample(0, 1);
  nn::DrivingPolicy model;
  volatile float sink = 0.0f;
  return {"policy_predict", us_per_iter([&] {
            const auto wp = model.predict(sample.bev, sample.command);
            sink = sink + wp[0];
          })};
}

Row bench_transfer_tick() {
  const net::RadioConfig radio;
  const auto loss = net::WirelessLossModel::default_table(radio.max_range_m);
  Rng rng{5};
  net::Transfer t{52ull * 1024 * 1024, radio};
  return {"transfer_tick", us_per_iter([&] {
            (void)t.tick(80.0, 0.5, loss, rng);
            if (t.complete()) t = net::Transfer{52ull * 1024 * 1024, radio};
          })};
}

Row bench_contact_estimate() {
  sim::World world{sim::WorldConfig{}, 2, 9};
  for (int i = 0; i < 40; ++i) world.step(0.5);
  const net::RadioConfig radio;
  const auto loss = net::WirelessLossModel::default_table(radio.max_range_m);
  net::AssistInfo a;
  a.pos = world.vehicle(0).pos;
  a.speed = 10.0;
  a.route = &world.vehicle(0).route;
  net::AssistInfo b;
  b.pos = world.vehicle(1).pos;
  b.speed = 9.0;
  b.route = &world.vehicle(1).route;
  volatile double sink = 0.0;
  return {"contact_estimate", us_per_iter([&] {
            sink = sink + net::estimate_contact(a, b, radio, loss).duration_s;
          })};
}

Row bench_contact_query() {
  // One tick's worth of neighbor discovery for a 256-vehicle fleet: spatial
  // grid rebuild + one range query per vehicle, with the O(n^2) all-pairs
  // scan as the naive twin (both produce the identical neighbor lists).
  constexpr int kN = 256;
  constexpr double kRange = 200.0;
  Rng rng{11};
  std::vector<Vec2> pos(static_cast<std::size_t>(kN));
  for (auto& p : pos) p = Vec2{rng.uniform(0.0, 4000.0), rng.uniform(0.0, 4000.0)};
  net::NeighborIndex index;
  std::vector<int> out;
  volatile int sink = 0;
  Row r{"contact_query n256", us_per_iter([&] {
          index.rebuild(pos, kRange);
          int total = 0;
          for (int v = 0; v < kN; ++v) {
            index.query(v, out);
            total += static_cast<int>(out.size());
          }
          sink = sink + total;
        })};
  r.naive_us = us_per_iter([&] {
    int total = 0;
    for (int v = 0; v < kN; ++v) {
      out.clear();
      for (int b = 0; b < kN; ++b) {
        if (b != v && distance(pos[static_cast<std::size_t>(v)],
                               pos[static_cast<std::size_t>(b)]) <= kRange) {
          out.push_back(b);
        }
      }
      total += static_cast<int>(out.size());
    }
    sink = sink + total;
  });
  return r;
}

std::vector<nn::KernelPath> available_paths() {
  std::vector<nn::KernelPath> out{nn::KernelPath::kScalar};
  if (nn::kernel_path_available(nn::KernelPath::kAvx2)) out.push_back(nn::KernelPath::kAvx2);
  return out;
}

std::string path_tag(nn::KernelPath p) {
  return " [" + std::string{nn::kernel_path_name(p)} + "]";
}

/// Raw dispatched-GEMM rows, one per available backend, on the policy's two
/// hottest shapes (conv2's im2col product and the fc layer at batch 32).
/// Every variant runs the identical workload — same operands, same shape —
/// so the rows differ only in the backend named in the op suffix; the naive
/// triple loop is the shared twin.
std::vector<Row> bench_gemm_paths() {
  Rng data{12};
  std::vector<Row> rows;
  const struct {
    const char* name;
    int m, n, k;
    void (*kernel)(nn::KernelPath, int, int, int, const float*, const float*, float*);
    void (*naive)(int, int, int, const float*, const float*, float*);
  } shapes[] = {
      {"sgemm_16x16x72", 16, 16, 72, nn::sgemm_on, nn::naive_sgemm},
      {"sgemm_abt_32x64x256", 32, 64, 256, nn::sgemm_abt_on, nn::naive_sgemm_abt},
  };
  for (const auto& s : shapes) {
    std::vector<float> a(static_cast<std::size_t>(s.m) * s.k);
    std::vector<float> b(static_cast<std::size_t>(s.k) * s.n);
    std::vector<float> c(static_cast<std::size_t>(s.m) * s.n, 0.0f);
    fill_random(a, data);
    fill_random(b, data);
    const double naive_us =
        us_per_iter([&] { s.naive(s.m, s.n, s.k, a.data(), b.data(), c.data()); }, 50.0);
    for (const nn::KernelPath p : available_paths()) {
      rows.push_back({std::string{s.name} + path_tag(p),
                      us_per_iter(
                          [&, p] { s.kernel(p, s.m, s.n, s.k, a.data(), b.data(), c.data()); },
                          50.0),
                      naive_us});
    }
  }
  return rows;
}

/// Integer GEMM rows (the int8 eval path's kernel), fc-shaped at batch 32.
std::vector<Row> bench_igemm_paths() {
  Rng data{13};
  const int m = 32, n = 64, k = 256;
  std::vector<std::int8_t> a(static_cast<std::size_t>(m) * k);
  std::vector<std::int8_t> b(static_cast<std::size_t>(n) * k);
  std::vector<std::int32_t> c(static_cast<std::size_t>(m) * n, 0);
  for (auto& x : a) x = static_cast<std::int8_t>(static_cast<long>(data.next_u64() % 255) - 127);
  for (auto& x : b) x = static_cast<std::int8_t>(static_cast<long>(data.next_u64() % 255) - 127);
  const double naive_us =
      us_per_iter([&] { nn::naive_igemm_abt(m, n, k, a.data(), b.data(), c.data()); }, 50.0);
  std::vector<Row> rows;
  for (const nn::KernelPath p : available_paths()) {
    rows.push_back({"igemm_abt_32x64x256" + path_tag(p),
                    us_per_iter(
                        [&, p] { nn::igemm_abt_on(p, m, n, k, a.data(), b.data(), c.data()); },
                        50.0),
                    naive_us});
  }
  // u8s8 variant on the same B and non-negative A codes (the activation
  // contract); the naive twin stays the signed oracle — exact on such inputs.
  for (auto& x : a) x = static_cast<std::int8_t>(data.next_u64() % 128);
  const double naive_u_us =
      us_per_iter([&] { nn::naive_igemm_abt(m, n, k, a.data(), b.data(), c.data()); }, 50.0);
  for (const nn::KernelPath p : available_paths()) {
    rows.push_back(
        {"igemm_abt_u8s8_32x64x256" + path_tag(p),
         us_per_iter(
             [&, p] { nn::igemm_abt_u8s8_on(p, m, n, k, a.data(), b.data(), c.data()); },
             50.0),
         naive_u_us});
  }
  return rows;
}

/// Full-policy inference per backend plus the int8 forward path: the same
/// frame through the same weights every time. The scalar fp32 row is the
/// naive twin for the other fp32 backends; the active-path fp32 time is the
/// twin for int8, so its speedup column reads "int8 vs fp32 on this machine".
std::vector<Row> bench_policy_predict_paths() {
  sim::World world{sim::WorldConfig{}, 1, 9};
  world.step(0.5);
  const auto sample = world.collect_sample(0, 1);
  nn::DrivingPolicy model;
  const nn::Int8Policy qmodel{model};
  volatile float sink = 0.0f;

  std::vector<Row> rows;
  double scalar_us = 0.0;
  double best_fp32_us = 0.0;
  for (const nn::KernelPath p : available_paths()) {
    nn::ScopedKernelPath guard{p};
    const double us = us_per_iter([&] {
      const auto wp = model.predict(sample.bev, sample.command);
      sink = sink + wp[0];
    });
    if (p == nn::KernelPath::kScalar) scalar_us = us;
    best_fp32_us = us;
    rows.push_back({"policy_predict" + path_tag(p), us,
                    p == nn::KernelPath::kScalar ? -1.0 : scalar_us});
  }
  {
    // int8 runs its integer kernel on the best path (what --int8-eval does).
    nn::ScopedKernelPath guard{nn::best_kernel_path()};
    rows.push_back({"policy_predict_int8" + path_tag(nn::best_kernel_path()),
                    us_per_iter([&] {
                      const auto wp = qmodel.predict(sample.bev, sample.command);
                      sink = sink + wp[0];
                    }),
                    best_fp32_us});
  }
  return rows;
}

/// The eval-sweep composite the engine actually runs per vehicle: quantize a
/// snapshot + weighted_loss over 64 frames, vs the fp32 weighted_loss.
Row bench_eval_loss_int8() {
  sim::World world{sim::WorldConfig{}, 1, 9};
  std::vector<data::Sample> samples;
  for (std::size_t f = 0; f < 64; ++f) {
    world.step(0.5);
    samples.push_back(world.collect_sample(0, f));
  }
  nn::DrivingPolicy model;
  volatile double sink = 0.0;
  return {"eval_loss64_int8", us_per_iter([&] {
            const nn::Int8Policy q{model};
            sink = sink + q.weighted_loss(samples);
          }),
          us_per_iter([&] { sink = sink + model.weighted_loss(samples); })};
}

Row bench_bev_render() {
  sim::World world{sim::WorldConfig{}, 4, 9};
  for (int i = 0; i < 40; ++i) world.step(0.5);
  const auto& v = world.vehicle(0);
  volatile int sink = 0;
  return {"bev_render", us_per_iter([&] {
            const auto bev = world.render_ego_bev(v.pos, v.heading, v.route, v.s, 0);
            sink = sink + bev.cells[0];
          })};
}

}  // namespace

int main() {
  std::vector<Row> rows;
  for (const int batch : {1, 32}) {
    for (auto& r : bench_conv(batch)) rows.push_back(std::move(r));
  }
  for (auto& r : bench_linear(32)) rows.push_back(std::move(r));
  rows.push_back(bench_policy_train());
  rows.push_back(bench_policy_predict());
  for (auto& r : bench_gemm_paths()) rows.push_back(std::move(r));
  for (auto& r : bench_igemm_paths()) rows.push_back(std::move(r));
  for (auto& r : bench_policy_predict_paths()) rows.push_back(std::move(r));
  rows.push_back(bench_eval_loss_int8());
  rows.push_back(bench_transfer_tick());
  rows.push_back(bench_contact_estimate());
  rows.push_back(bench_contact_query());
  rows.push_back(bench_bev_render());

  print_rows(rows);
  write_json(rows, "BENCH_micro_net.json");
  return 0;
}
