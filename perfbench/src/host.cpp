// Host fingerprint and a measured roofline. The peak is the multiply-
// add throughput of a vector loop compiled with the program's own
// flags, so the bound is what this build could reach on this host, not
// the ISA's paper maximum.
#include <algorithm>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/build_info.h"
#include "common/clock.h"
#include "common/thread_pool.h"
#include "obs/json_escape.h"
#include "perfbench.h"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace perfbench {

using shflbw::NowSeconds;

namespace {

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  unsigned int max_ext = __get_cpuid_max(0x80000000u, nullptr);
  if (max_ext >= 0x80000004u) {
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[i * 4], &regs[i * 4 + 1],
                  &regs[i * 4 + 2], &regs[i * 4 + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto b = s.find_first_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b);
  }
#endif
  return "unknown";
}

struct Isa {
  bool avx2 = false;
  bool avx512f = false;
  bool f16c = false;
};

Isa DetectIsa() {
  Isa isa;
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  isa.avx2 = __builtin_cpu_supports("avx2");
  isa.avx512f = __builtin_cpu_supports("avx512f");
  unsigned int a = 0, b = 0, c = 0, d = 0;
  isa.f16c = __get_cpuid(1, &a, &b, &c, &d) && (c & bit_F16C) != 0;
#endif
  return isa;
}

int Cores() {
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Runs fn(thread index) on `threads` threads and returns the wall time.
template <typename Fn>
double OnAllCores(int threads, Fn fn) {
  std::vector<std::thread> pool;
  const double t0 = NowSeconds();
  for (int t = 0; t < threads; ++t) pool.emplace_back(fn, t);
  for (std::thread& th : pool) th.join();
  return NowSeconds() - t0;
}

/// 32 independent multiply-add chains; the compiler vectorizes across
/// them (no FMA contraction: the build is ISO C++ with -ffp-contract
/// at its default off).
float MaddChains(long iters, float seed) {
  float acc[32];
  for (int j = 0; j < 32; ++j) acc[j] = seed + static_cast<float>(j);
  const float a = 0.999999f, b = 1e-7f;
  for (long it = 0; it < iters; ++it) {
    for (int j = 0; j < 32; ++j) acc[j] = acc[j] * a + b;
  }
  float s = 0;
  for (int j = 0; j < 32; ++j) s += acc[j];
  return s;
}

}  // namespace

std::string HostFingerprintJson() {
  const shflbw::BuildInfo& bi = shflbw::GetBuildInfo();
  const Isa isa = DetectIsa();
  const auto flag = [](bool b) { return std::string(b ? "true" : "false"); };
  std::string s = "{\"cpu\":\"" + shflbw::obs::JsonEscape(CpuModel()) + "\"";
  s += ",\"avx2\":" + flag(isa.avx2);
  s += ",\"avx512f\":" + flag(isa.avx512f);
  s += ",\"f16c\":" + flag(isa.f16c);
  s += ",\"cores\":" + std::to_string(Cores());
  s += ",\"pool_threads\":" + std::to_string(shflbw::ParallelThreadCount());
  s += ",\"compiler\":\"" + shflbw::obs::JsonEscape(bi.compiler) + "\"";
  s += ",\"build_type\":\"" + shflbw::obs::JsonEscape(bi.build_type) + "\"";
  s += ",\"cxx_flags\":\"" + shflbw::obs::JsonEscape(bi.cxx_flags) + "\"";
  s += ",\"obs\":" + flag(bi.obs_compiled_in);
  s += "}";
  return s;
}

double Roofline::Bound(double flops, double bytes) const {
  if (bytes <= 0) return peak_flops;
  return std::min(peak_flops, stream_bps * flops / bytes);
}

Roofline MeasureRoofline() {
  const int threads = Cores();
  Roofline r;
  // Peak: best of three all-core runs of the multiply-add loop.
  constexpr long kIters = 20000000;
  std::vector<float> sink(static_cast<std::size_t>(threads));
  for (int rep = 0; rep < 3; ++rep) {
    const double s = OnAllCores(threads, [&](int t) {
      sink[static_cast<std::size_t>(t)] =
          MaddChains(kIters, static_cast<float>(t + rep));
    });
    r.peak_flops = std::max(r.peak_flops, 2.0 * 32 * kIters * threads / s);
  }
  // Bandwidth: best of five all-core triads over arrays far larger than
  // any last-level cache; 12 bytes move per element (two reads, one
  // write; write-allocate traffic is not counted).
  constexpr std::size_t kElems = std::size_t{1} << 23;
  std::vector<float> a(kElems, 0.f), b(kElems, 1.f), c(kElems, 2.f);
  const std::size_t chunk = kElems / static_cast<std::size_t>(threads);
  for (int rep = 0; rep < 5; ++rep) {
    const float scale = 0.5f + static_cast<float>(rep);
    const double s = OnAllCores(threads, [&](int t) {
      const std::size_t lo = chunk * static_cast<std::size_t>(t);
      const std::size_t hi = t + 1 == threads ? kElems : lo + chunk;
      for (std::size_t i = lo; i < hi; ++i) a[i] = b[i] + scale * c[i];
    });
    r.stream_bps = std::max(r.stream_bps, 12.0 * kElems / s);
  }
  return r;
}

}  // namespace perfbench
