#include "probe.h"

#include <sched.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <system_error>
#include <vector>

namespace perfbench {
namespace {

constexpr std::chrono::milliseconds kPeriod(20);
// About 0.3 ms on an undisturbed 4-vCPU Xeon guest.
constexpr int kSliceSteps = 20000;

}  // namespace

// The slice's work: an interpreter over a fixed random byte code whose
// loads and stores go through an 8-way, 8192-set tag array (512 KiB) into
// a 2 MiB memory. Like the simulator, it is dispatch-bound, and its
// working set does not fit in a core's private caches.
class HostProbe::Work {
 public:
  Work() : tags_(kSets * kWays, 0), memory_(kWords, 1), code_(kCodeBytes) {
    std::uint64_t s = 7;
    for (std::uint8_t& op : code_) {
      s = s * 6364136223846793005ull + 1442695040888963407ull;
      op = static_cast<std::uint8_t>(s >> 56);
    }
    for (int i = 0; i < kRegs; ++i) {
      regs_[i] = static_cast<std::uint64_t>(i) * 0x9e3779b97f4a7c15ull;
    }
  }

  void Run(int steps) {
    for (int i = 0; i < steps; ++i) {
      const std::uint8_t op = code_[pc_];
      const int a = op & (kRegs - 1);
      const int b = (op >> 2) & (kRegs - 1);
      switch (op >> 5) {
        case 0: regs_[a] = memory_[Access(regs_[b])]; break;
        case 1: memory_[Access(regs_[a] + 8)] = regs_[b]; break;
        case 2: regs_[a] += regs_[b] ^ (regs_[a] >> 7); break;
        case 3: regs_[a] = regs_[a] * 0x9e3779b97f4a7c15ull + b; break;
        case 4: if (regs_[a] & 1) pc_ = (pc_ + 33) % kCodeBytes; break;
        case 5: regs_[a] = (regs_[b] << 13) | (regs_[b] >> 51); break;
        case 6: regs_[a] -= regs_[b] + 1; break;
        default: regs_[b] ^= regs_[a] + pc_; break;
      }
      pc_ = (pc_ + 1) % kCodeBytes;
    }
  }

 private:
  static constexpr std::size_t kSets = 8192;
  static constexpr std::size_t kWays = 8;
  static constexpr std::size_t kWords = (2u << 20) / 8;
  static constexpr std::uint32_t kCodeBytes = 4096;
  static constexpr int kRegs = 64;

  // Word index of `addr` in memory; a tag miss replaces round-robin.
  std::size_t Access(std::uint64_t addr) {
    addr &= kWords * 8 - 1;
    const std::uint64_t line = addr >> 6;
    std::uint64_t* set = &tags_[(line % kSets) * kWays];
    for (std::size_t w = 0; w < kWays; ++w) {
      if (set[w] == line + 1) return addr >> 3;
    }
    set[victim_++ % kWays] = line + 1;
    return addr >> 3;
  }

  std::vector<std::uint64_t> tags_;
  std::vector<std::uint64_t> memory_;
  std::vector<std::uint8_t> code_;
  std::uint64_t regs_[kRegs] = {};
  std::uint32_t pc_ = 0;
  std::uint32_t victim_ = 0;
};

HostProbe::HostProbe() = default;

HostProbe::~HostProbe() { Stop(); }

bool HostProbe::Start(std::string* error) {
  const int cpu = sched_getcpu();
  cpu_set_t set;
  CPU_ZERO(&set);
  if (cpu >= 0) CPU_SET(cpu, &set);
  if (cpu < 0 || sched_setaffinity(0, sizeof set, &set) != 0) {
    *error = std::string("cannot pin to a CPU: ") + std::strerror(errno);
    return false;
  }
  work_ = std::make_unique<Work>();
  try {
    thread_ = std::thread([this] { Loop(); });
  } catch (const std::system_error& e) {
    *error = std::string("cannot start the probe thread: ") + e.what();
    return false;
  }
  return true;
}

void HostProbe::Stop() {
  stop_ = true;
  if (thread_.joinable()) thread_.join();
}

double HostProbe::MeanSliceSeconds() const {
  return slices_ > 0 ? busy_s_ / static_cast<double>(slices_) : 0.0;
}

void HostProbe::Loop() {
  const auto slice = [this] {
    const auto start = std::chrono::steady_clock::now();
    work_->Run(kSliceSteps);
    const std::chrono::duration<double> took =
        std::chrono::steady_clock::now() - start;
    return took.count();
  };
  slice();  // cold: page faults and first touch of the work's memory
  while (!stop_) {
    std::this_thread::sleep_for(kPeriod);
    busy_s_ += slice();
    ++slices_;
  }
}

}  // namespace perfbench
