#include "common.hpp"

#include <sys/resource.h>
#include <time.h>

#include <chrono>
#include <cstdio>
#include <numeric>
#include <thread>
#include <vector>

#include "common/rng.hpp"

namespace wsbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_s() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double sys_s() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
}

double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double mem_probe_ms() {
  // Sattolo's algorithm: one cycle through all slots, so the chase
  // touches every cache line in an order the prefetcher cannot follow.
  constexpr std::size_t kSlots = std::size_t{1} << 23;  // 64 MiB of u64
  constexpr std::size_t kSteps = std::size_t{1} << 20;
  std::vector<std::uint64_t> next(kSlots);
  std::iota(next.begin(), next.end(), std::uint64_t{0});
  wormsched::Rng rng(12345);
  for (std::size_t i = kSlots - 1; i > 0; --i) {
    const std::size_t j = static_cast<std::size_t>(rng.uniform_u64(i));
    std::swap(next[i], next[j]);
  }
  const double start = now_s();
  std::uint64_t at = 0;
  for (std::size_t s = 0; s < kSteps; ++s) at = next[at];
  const double ms = (now_s() - start) * 1e3;
  if (at == kSlots) std::puts("");  // keeps the chase observable
  return ms;
}

namespace {

std::uint64_t ref_kernel_lane(std::uint64_t x) {
  constexpr std::size_t kSlots = 1024;
  constexpr std::uint64_t kSweeps = 4000;
  std::vector<std::uint32_t> backlog(kSlots);
  std::vector<bool> active(kSlots);
  std::vector<std::vector<std::uint64_t>> changes(kSlots);
  for (std::uint64_t t = 0; t < kSweeps; ++t) {
    for (std::size_t i = 0; i < kSlots; ++i) {
      x ^= x << 13;  // xorshift64: about one slot in 64 changes per sweep
      x ^= x >> 7;
      x ^= x << 17;
      if ((x & 63) == 0) backlog[i] = backlog[i] == 0 ? 3 : backlog[i] - 1;
      const bool now_active = backlog[i] > 0;
      if (now_active != active[i]) {
        active[i] = now_active;
        changes[i].push_back(t);
      }
    }
  }
  std::uint64_t total = 0;
  for (const auto& c : changes) total += c.size();
  return x + total;
}

}  // namespace

double ref_kernel_s(unsigned lanes) {
  std::vector<std::uint64_t> out(lanes);
  std::vector<std::thread> others;
  const double start = now_s();
  for (unsigned lane = 1; lane < lanes; ++lane)
    others.emplace_back([&out, lane] {
      out[lane] = ref_kernel_lane(0x9E3779B97F4A7C15ull + lane);
    });
  out[0] = ref_kernel_lane(0x9E3779B97F4A7C15ull);
  for (std::thread& t : others) t.join();
  const double s = now_s() - start;
  for (const std::uint64_t v : out)
    if (v == 0) std::puts("");  // keeps every lane's work observable
  return s;
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

}  // namespace wsbench
