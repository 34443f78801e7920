#include "calibrate.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

namespace perfbench {

namespace {

constexpr std::uint32_t kDataWords = 1u << 17;  // 512 KB of 32-bit words
constexpr std::uint32_t kTagEntries = 1u << 12;
constexpr int kProgramLen = 192;
constexpr int kRounds = 4400;
// Checksum of one kernel run. A mismatch means the kernel did other work
// than the one it was calibrated with, so the scale would be meaningless.
constexpr std::uint64_t kExpectedChecksum = 0x2e60644e530db141ull;

enum Op : std::uint8_t { kAdd, kXor, kMul, kShift, kLoad, kStore, kBranch };

struct Instr {
  Op op;
  std::uint8_t dst, src;
  std::uint32_t imm;
};

struct Kernel {
  std::vector<Instr> program;
  std::vector<std::uint32_t> data;
  std::vector<std::uint32_t> tags;

  Kernel() : data(kDataWords), tags(kTagEntries) {
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    const auto next = [&x] {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      return x;
    };
    for (int i = 0; i < kProgramLen; ++i) {
      const std::uint64_t r = next();
      program.push_back({static_cast<Op>(r % 7), static_cast<std::uint8_t>(
                                                     (r >> 8) % 16),
                         static_cast<std::uint8_t>((r >> 16) % 16),
                         static_cast<std::uint32_t>(r >> 32)});
    }
  }

  std::uint64_t Run() {
    for (std::uint32_t i = 0; i < kDataWords; ++i) data[i] = i * 2654435761u;
    std::fill(tags.begin(), tags.end(), 0);
    std::uint32_t reg[16];
    for (int i = 0; i < 16; ++i) reg[i] = static_cast<std::uint32_t>(i + 1);
    std::uint64_t misses = 0;
    for (int round = 0; round < kRounds; ++round) {
      for (int pc = 0; pc < kProgramLen; ++pc) {
        const Instr in = program[static_cast<std::size_t>(pc)];
        std::uint32_t& d = reg[in.dst];
        const std::uint32_t s = reg[in.src];
        switch (in.op) {
          case kAdd: d += s + in.imm; break;
          case kXor: d ^= s ^ in.imm; break;
          case kMul: d = d * (s | 1u); break;
          case kShift: d = (d >> (s & 15u)) | (d << 7); break;
          case kLoad:
          case kStore: {
            const std::uint32_t addr = (s + in.imm) & (kDataWords - 1);
            const std::uint32_t line = addr >> 4;
            std::uint32_t& tag = tags[line & (kTagEntries - 1)];
            if (tag != line) {
              tag = line;
              ++misses;
            }
            if (in.op == kLoad) {
              d = data[addr];
            } else {
              data[addr] = d;
            }
            break;
          }
          case kBranch:
            if ((d & 3u) == 0) pc += static_cast<int>(s & 3u);
            break;
        }
      }
    }
    std::uint64_t sum = misses;
    for (int i = 0; i < 16; ++i) sum = sum * 1099511628211ull + reg[i];
    return sum;
  }
};

}  // namespace

double CalibrateMs(int samples, int threads) {
  static std::vector<Kernel> kernels(1);
  threads = std::max(1, threads);
  if (kernels.size() < static_cast<std::size_t>(threads)) {
    kernels.resize(static_cast<std::size_t>(threads));
  }
  std::vector<std::uint64_t> sums(static_cast<std::size_t>(threads));
  std::vector<double> ms;
  for (int i = 0; i < std::max(1, samples); ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    if (threads == 1) {
      sums[0] = kernels[0].Run();
    } else {
      std::vector<std::thread> pool;
      for (int t = 0; t < threads; ++t) {
        pool.emplace_back([&kernels = kernels, &sums, t] {
          sums[static_cast<std::size_t>(t)] =
              kernels[static_cast<std::size_t>(t)].Run();
        });
      }
      for (std::thread& th : pool) th.join();
    }
    ms.push_back(std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - t0)
                     .count());
    for (const std::uint64_t sum : sums) {
      if (sum != kExpectedChecksum) {
        std::fprintf(stderr, "perfbench: calibration checksum %llx\n",
                     static_cast<unsigned long long>(sum));
        std::abort();
      }
    }
  }
  return *std::min_element(ms.begin(), ms.end());
}

}  // namespace perfbench
