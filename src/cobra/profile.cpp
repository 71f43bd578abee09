#include "cobra/profile.h"

#include <algorithm>
#include <cstdlib>

namespace cobra::core {

perfmon::SamplingConfig CobraSamplingConfig() {
  perfmon::SamplingConfig cfg;
  cfg.events = {cpu::HpmEvent::kL3Misses, cpu::HpmEvent::kBusMemory,
                cpu::HpmEvent::kBusRdHitm, cpu::HpmEvent::kBusRdHit};
  cfg.dear_latency_threshold = 12;  // first-level filter: skip L3 hits
  return cfg;
}

void ThreadProfile::AddSample(const perfmon::Sample& sample) {
  ++samples_seen_;

  // Counters are cumulative since monitoring started; keep the latest
  // totals (cycles/instructions derived from timestamp and sample index).
  totals_.l3_misses = sample.counters[0];
  totals_.bus_memory = sample.counters[1];
  totals_.bus_rd_hitm = sample.counters[2];
  totals_.bus_rd_hit = sample.counters[3];
  totals_.cycles = sample.timestamp;
  totals_.instructions = sample.index;  // in units of the sampling period

  // DEAR: each sample carries the most recent qualifying miss. Only account
  // it once (a new record is identified by a changed pc/address/latency).
  if (sample.dear.valid &&
      (sample.dear.inst_addr != last_dear_pc_ ||
       sample.dear.data_addr != last_dear_addr_ ||
       sample.dear.latency != last_dear_latency_)) {
    last_dear_pc_ = sample.dear.inst_addr;
    last_dear_addr_ = sample.dear.data_addr;
    last_dear_latency_ = sample.dear.latency;
    DelinquentLoad& load = loads_[sample.dear.inst_addr];
    load.pc = sample.dear.inst_addr;
    ++load.samples;
    load.total_latency += sample.dear.latency;
    if (sample.dear.latency > coherent_threshold_) ++load.coherent_samples;
    // Stride inference: consecutive miss addresses of the same load. The
    // deltas are sampled (one DEAR record survives per sampling period),
    // so a steady stream shows near-constant deltas that wobble by one
    // miss; confirm within a tolerance rather than exactly (ADORE used a
    // windowed mode for the same reason).
    if (load.last_data_addr != 0) {
      const std::int64_t delta =
          static_cast<std::int64_t>(sample.dear.data_addr) -
          static_cast<std::int64_t>(load.last_data_addr);
      // Direction-independent confirmation: the delta must run the same
      // way as the candidate stride and its *magnitude* must sit within
      // max(|stride|/8, 64) of the stride's — descending streams get the
      // exact mirror image of the ascending window.
      const std::int64_t tolerance =
          std::max<std::int64_t>(std::llabs(load.stride) / 8, 64);
      const std::int64_t magnitude_gap =
          std::llabs(std::llabs(delta) - std::llabs(load.stride));
      if (delta != 0 && load.stride != 0 &&
          (delta > 0) == (load.stride > 0) && magnitude_gap <= tolerance) {
        ++load.stride_confirmations;
      } else if (delta != 0) {
        load.stride = delta;
        load.stride_confirmations = 1;
      }
    }
    load.last_data_addr = sample.dear.data_addr;
  }

  // BTB: taken branches whose target does not lie above the source are loop
  // back-edges; they bound the loop body [target, source].
  for (const auto& entry : sample.btb) {
    if (entry.source == 0 && entry.target == 0) continue;
    if (entry.target > entry.source) continue;  // forward branch
    LoopCandidate& loop = loops_[entry.target];
    loop.head = entry.target;
    loop.back_branch_pc = entry.source;
    ++loop.hits;
  }

  // Cost attribution: if this sample and the previous one both fall in the
  // same discovered loop, charge the elapsed cycles to that loop.
  if (have_prev_sample_ && samples_seen_ > attribution_warmup_) {
    // Innermost enclosing loop wins (largest head containing both pcs —
    // loops_ is ordered by head, so the last match is the innermost).
    LoopCandidate* innermost = nullptr;
    for (auto& [head, loop] : loops_) {
      const isa::Addr end = isa::MakePc(isa::BundleAddr(loop.back_branch_pc), 2);
      if (sample.pc >= head && sample.pc <= end && prev_sample_pc_ >= head &&
          prev_sample_pc_ <= end) {
        innermost = &loop;
      }
    }
    if (innermost != nullptr) {
      innermost->attributed_cycles += sample.timestamp - prev_sample_time_;
      ++innermost->attributed_samples;
    }
  }
  prev_sample_pc_ = sample.pc;
  prev_sample_time_ = sample.timestamp;
  have_prev_sample_ = true;
}

void ThreadProfile::Clear() {
  loads_.clear();
  loops_.clear();
  totals_ = CounterTotals{};
  samples_seen_ = 0;
  last_dear_pc_ = 0;
  last_dear_latency_ = 0;
  last_dear_addr_ = 0;
  prev_sample_pc_ = 0;
  prev_sample_time_ = 0;
  have_prev_sample_ = false;
}

SystemProfile SystemProfile::Aggregate(
    const std::vector<const ThreadProfile*>& threads) {
  SystemProfile out;
  std::map<isa::Addr, LoopCandidate> loops;
  std::map<isa::Addr, DelinquentLoad> loads;
  for (const ThreadProfile* thread : threads) {
    out.totals += thread->totals();
    for (const auto& [head, loop] : thread->loops()) {
      LoopCandidate& merged = loops[head];
      merged.head = loop.head;
      merged.back_branch_pc =
          std::max(merged.back_branch_pc, loop.back_branch_pc);
      merged.hits += loop.hits;
      merged.attributed_cycles += loop.attributed_cycles;
      merged.attributed_samples += loop.attributed_samples;
    }
    for (const auto& [pc, load] : thread->loads()) {
      DelinquentLoad& merged = loads[pc];
      merged.pc = pc;
      merged.samples += load.samples;
      merged.coherent_samples += load.coherent_samples;
      merged.total_latency += load.total_latency;
      merged.last_data_addr = load.last_data_addr;
      if (load.stride_confirmations > merged.stride_confirmations) {
        merged.stride = load.stride;
        merged.stride_confirmations = load.stride_confirmations;
      }
    }
  }
  for (const auto& [head, loop] : loops) out.hot_loops.push_back(loop);
  std::sort(out.hot_loops.begin(), out.hot_loops.end(),
            [](const LoopCandidate& a, const LoopCandidate& b) {
              if (a.hits != b.hits) return a.hits > b.hits;
              return a.head < b.head;  // deterministic tie-break
            });
  for (const auto& [pc, load] : loads) {
    out.delinquent_loads.push_back(load);
    if (load.coherent_samples > 0) out.coherent_loads.push_back(load);
  }
  return out;
}

}  // namespace cobra::core
