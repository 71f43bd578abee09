#include "perfmon/sampling.h"

#include "support/check.h"

namespace cobra::perfmon {

SamplingDriver::SamplingDriver(machine::Machine* machine,
                               SamplingConfig config)
    : machine_(machine), config_(config) {
  COBRA_CHECK(machine != nullptr);
  COBRA_CHECK(config.period_insts > 0);
  COBRA_CHECK(config.batch_size > 0);
  per_cpu_.resize(static_cast<std::size_t>(machine->num_cpus()));
  round_task_id_ = machine->AddRoundTask([this] { DrainDeferred(); });
  metrics_ = obs::Registry::Registration(&machine->registry());
  metrics_.Add("perfmon.samples", [this] { return TotalSamples(); });
  metrics_.Add("perfmon.batches", [this] { return total_batches_; });
}

SamplingDriver::~SamplingDriver() {
  StopAll();
  machine_->RemoveRoundTask(round_task_id_);
}

void SamplingDriver::StartMonitoring(CpuId cpu, int tid,
                                     DeliveryHandler handler) {
  auto& state = per_cpu_.at(static_cast<std::size_t>(cpu));
  COBRA_CHECK_MSG(!state.active, "CPU is already being monitored");
  state.active = true;
  state.tid = tid;
  state.handler = std::move(handler);
  state.kernel_buffer.reserve(config_.batch_size);

  cpu::Core& core = machine_->core(cpu);
  for (int i = 0; i < cpu::kNumHpmCounters; ++i) {
    core.hpm().Select(i, config_.events[static_cast<std::size_t>(i)]);
  }
  core.dear().SetLatencyThreshold(config_.dear_latency_threshold);
  core.SetRetireHook(config_.period_insts,
                     [this](cpu::Core& c) { CollectSample(c); });
}

void SamplingDriver::CollectSample(cpu::Core& core) {
  // Fast-forwarded stretches are invisible to the HPM: no cache stack, no
  // DEAR observations, no meaningful CPI. Sampled simulation
  // (perfmon/sample.h) relies on this pause — COBRA's window/epoch
  // machinery must only ever see detailed-mode windows. Deterministic:
  // fast-forward only toggles at quantum boundaries.
  if (core.fast_forward()) return;
  auto& state = per_cpu_.at(static_cast<std::size_t>(core.id()));
  COBRA_CHECK(state.active);

  Sample sample;
  sample.index = state.next_index++;
  sample.pc = core.pc();
  sample.pid = 1;  // single simulated process
  sample.tid = state.tid;
  sample.cpu = core.id();
  sample.timestamp = core.now();
  for (int i = 0; i < cpu::kNumHpmCounters; ++i) {
    sample.counters[static_cast<std::size_t>(i)] = core.hpm().Read(i);
  }
  sample.btb = core.btb().Snapshot();
  sample.dear = core.dear().last();
  ++total_samples_;

  state.kernel_buffer.push_back(sample);
  if (state.kernel_buffer.size() >= config_.batch_size) {
    if (machine_->engine_active()) {
      // Mid-quantum: queue the batch for the quantum boundary instead of
      // calling into COBRA state while other cores are mid-segment.
      state.deferred.push_back(std::move(state.kernel_buffer));
      state.kernel_buffer.clear();
      state.kernel_buffer.reserve(config_.batch_size);
    } else {
      Flush(core.id());
    }
  }
}

void SamplingDriver::DeliverDeferred(CpuId cpu) {
  auto& state = per_cpu_.at(static_cast<std::size_t>(cpu));
  if (state.deferred.empty()) return;
  // Swap out first: a handler may (transitively) run more simulation.
  std::vector<std::vector<Sample>> batches;
  batches.swap(state.deferred);
  for (const std::vector<Sample>& batch : batches) {
    if (state.handler) {
      ++total_batches_;
      state.handler(cpu, std::span<const Sample>(batch));
    }
  }
}

void SamplingDriver::DrainDeferred() {
  for (CpuId cpu = 0; cpu < machine_->num_cpus(); ++cpu) {
    DeliverDeferred(cpu);
  }
}

void SamplingDriver::Flush(CpuId cpu) {
  auto& state = per_cpu_.at(static_cast<std::size_t>(cpu));
  DeliverDeferred(cpu);
  if (state.kernel_buffer.empty()) return;
  if (state.handler) {
    ++total_batches_;
    state.handler(cpu, std::span<const Sample>(state.kernel_buffer));
  }
  state.kernel_buffer.clear();
}

void SamplingDriver::StopMonitoring(CpuId cpu) {
  auto& state = per_cpu_.at(static_cast<std::size_t>(cpu));
  if (!state.active) return;
  Flush(cpu);
  state.active = false;
  state.handler = nullptr;
  machine_->core(cpu).SetRetireHook(0, nullptr);
}

void SamplingDriver::StopAll() {
  for (CpuId cpu = 0; cpu < machine_->num_cpus(); ++cpu) {
    StopMonitoring(cpu);
  }
}

}  // namespace cobra::perfmon
