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

void SaveSample(support::StateWriter& w, const Sample& sample) {
  w.U64(sample.index);
  w.U64(sample.pc);
  w.I64(sample.pid);
  w.I64(sample.tid);
  w.I64(sample.cpu);
  w.U64(sample.timestamp);
  for (const std::uint64_t counter : sample.counters) w.U64(counter);
  for (const cpu::Btb::Entry& e : sample.btb) {
    w.U64(e.source);
    w.U64(e.target);
  }
  w.U64(sample.dear.inst_addr);
  w.U64(sample.dear.data_addr);
  w.U64(sample.dear.latency);
  w.Bool(sample.dear.valid);
}

bool RestoreSample(support::StateReader& r, Sample* sample) {
  std::int64_t pid = 0;
  std::int64_t tid = 0;
  std::int64_t cpu = 0;
  r.U64(&sample->index);
  r.U64(&sample->pc);
  r.I64(&pid);
  r.I64(&tid);
  r.I64(&cpu);
  r.U64(&sample->timestamp);
  for (std::uint64_t& counter : sample->counters) r.U64(&counter);
  for (cpu::Btb::Entry& e : sample->btb) {
    r.U64(&e.source);
    r.U64(&e.target);
  }
  r.U64(&sample->dear.inst_addr);
  r.U64(&sample->dear.data_addr);
  r.U64(&sample->dear.latency);
  r.Bool(&sample->dear.valid);
  if (!r.Ok()) return false;
  sample->pid = static_cast<int>(pid);
  sample->tid = static_cast<int>(tid);
  sample->cpu = static_cast<int>(cpu);
  return true;
}

void SamplingDriver::SaveState(support::StateWriter& w) const {
  w.U32(static_cast<std::uint32_t>(per_cpu_.size()));
  for (const PerCpu& state : per_cpu_) {
    w.Bool(state.active);
    w.I64(state.tid);
    w.U64(state.next_index);
    w.U64(static_cast<std::uint64_t>(state.kernel_buffer.size()));
    for (const Sample& sample : state.kernel_buffer) SaveSample(w, sample);
    w.U64(static_cast<std::uint64_t>(state.deferred.size()));
    for (const std::vector<Sample>& batch : state.deferred) {
      w.U64(static_cast<std::uint64_t>(batch.size()));
      for (const Sample& sample : batch) SaveSample(w, sample);
    }
  }
  w.U64(total_samples_);
  w.U64(total_batches_);
}

bool SamplingDriver::RestoreState(support::StateReader& r) {
  std::uint32_t cpus = 0;
  r.U32(&cpus);
  if (!r.Ok() || cpus != static_cast<std::uint32_t>(per_cpu_.size())) {
    return false;
  }
  for (PerCpu& state : per_cpu_) {
    bool active = false;
    std::int64_t tid = 0;
    r.Bool(&active);
    r.I64(&tid);
    r.U64(&state.next_index);
    // A restored-active CPU must already have a handler from a live
    // StartMonitoring call (attach-before-restore contract).
    if (active && !state.handler) return false;
    state.active = active;
    state.tid = static_cast<int>(tid);
    std::uint64_t buffered = 0;
    r.U64(&buffered);
    if (!r.Ok() || buffered > config_.batch_size) return false;
    state.kernel_buffer.clear();
    state.kernel_buffer.reserve(config_.batch_size);
    for (std::uint64_t i = 0; i < buffered; ++i) {
      Sample sample;
      if (!RestoreSample(r, &sample)) return false;
      state.kernel_buffer.push_back(sample);
    }
    std::uint64_t deferred = 0;
    r.U64(&deferred);
    if (!r.Ok()) return false;
    state.deferred.clear();
    for (std::uint64_t i = 0; i < deferred; ++i) {
      std::uint64_t batch_size = 0;
      r.U64(&batch_size);
      if (!r.Ok() || batch_size > config_.batch_size) return false;
      std::vector<Sample> batch;
      batch.reserve(batch_size);
      for (std::uint64_t j = 0; j < batch_size; ++j) {
        Sample sample;
        if (!RestoreSample(r, &sample)) return false;
        batch.push_back(sample);
      }
      state.deferred.push_back(std::move(batch));
    }
  }
  r.U64(&total_samples_);
  r.U64(&total_batches_);
  return r.Ok();
}

}  // namespace cobra::perfmon
