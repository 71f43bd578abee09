#include "perfmon/sample.h"

#include <cstdlib>
#include <limits>
#include <utility>

#include "support/check.h"

namespace cobra::perfmon {

namespace {

// Reads a run of decimal digits at `*text` whose value fits in [0, max]:
// no sign, no whitespace, no saturation. Advances `*text` past the digits
// and writes `*out` only on success.
bool ParseDecimal(const char** text, std::uint64_t max, std::uint64_t* out) {
  const char* p = *text;
  if (*p < '0' || *p > '9') return false;
  std::uint64_t value = 0;
  for (; *p >= '0' && *p <= '9'; ++p) {
    const std::uint64_t digit = static_cast<std::uint64_t>(*p - '0');
    if (value > (max - digit) / 10) return false;
    value = value * 10 + digit;
  }
  *text = p;
  *out = value;
  return true;
}

}  // namespace

bool ParseSampleSpec(const char* text, SampleConfig* out) {
  if (text == nullptr) return false;
  SampleConfig config;
  if (!ParseDecimal(&text, std::numeric_limits<std::uint64_t>::max(),
                    &config.interval_insts) ||
      config.interval_insts == 0) {
    return false;
  }
  if (*text == ':') {
    ++text;
    std::uint64_t phases = 0;
    if (!ParseDecimal(&text, std::numeric_limits<int>::max(), &phases) ||
        phases == 0) {
      return false;
    }
    config.max_phases = static_cast<int>(phases);
    if (*text == ':') {
      ++text;
      // 0 = no warm-up; the largest value is the auto sentinel, not a
      // distance, so it is out of range.
      if (!ParseDecimal(&text, SampleConfig::kAutoWarmup - 1,
                        &config.warmup_insts)) {
        return false;
      }
    }
  }
  if (*text != '\0') return false;
  *out = config;
  return true;
}

SampleConfig SampleConfigFromEnv() {
  SampleConfig config;
  ParseSampleSpec(std::getenv("COBRA_SAMPLE"), &config);
  return config;
}

bool PhaseProfile::IsRepresentative(int index) const {
  if (index < 0 || index >= static_cast<int>(plan.assignment.size())) {
    return false;
  }
  const int cluster = plan.assignment[static_cast<std::size_t>(index)];
  if (cluster < 0) return false;
  return plan.clusters[static_cast<std::size_t>(cluster)].representative ==
         index;
}

PhaseProfiler::PhaseProfiler(machine::Machine* machine,
                             const SampleConfig& config)
    : machine_(machine),
      config_(config),
      bbv_(machine, config.interval_insts),
      prior_fast_forward_(machine->fast_forward()) {
  COBRA_CHECK(config.enabled());
  machine_->SetFastForward(true);
}

PhaseProfiler::~PhaseProfiler() {
  if (!finished_) machine_->SetFastForward(prior_fast_forward_);
}

PhaseProfile PhaseProfiler::Finish() {
  COBRA_CHECK(!finished_);
  finished_ = true;
  machine_->SetFastForward(prior_fast_forward_);
  bbv_.Finalize();

  PhaseProfile profile;
  profile.interval_insts = config_.interval_insts;
  profile.warmup_insts = config_.EffectiveWarmup();
  profile.intervals = bbv_.intervals();
  std::uint64_t cumulative = 0;
  for (const BasicBlockVector& interval : profile.intervals) {
    cumulative += interval.retired;
    profile.boundaries.push_back(cumulative);
  }
  profile.plan = ClusterPhases(profile.intervals, config_.max_phases);
  return profile;
}

SampledRun::SampledRun(machine::Machine* machine, PhaseProfile profile,
                       CounterProbe probe)
    : machine_(machine),
      profile_(std::move(profile)),
      probe_(std::move(probe)),
      metrics_(&machine->registry()) {
  outcome_.intervals = profile_.intervals.size();
  outcome_.phases = profile_.plan.clusters.size();
  measurements_.resize(profile_.plan.clusters.size());

  metrics_.Add("sample.intervals", [this] { return outcome_.intervals; });
  metrics_.Add("sample.phases", [this] { return outcome_.phases; });
  metrics_.Add("sample.detailed_intervals",
               [this] { return outcome_.detailed_intervals; });
  metrics_.Add("sample.detailed_retired",
               [this] { return outcome_.detailed_retired; });
  metrics_.Add("sample.checkpoints", [this] { return outcome_.checkpoints; });
  metrics_.Add("sample.checkpoint_bytes",
               [this] { return outcome_.checkpoint_bytes; });
  metrics_.Add("sample.projected_cycles",
               [this] { return outcome_.projected_cycles; });

  // warm_at_[i]: the threshold is the start of the first representative
  // after interval i, minus the warm-up distance (boundaries are interval
  // *ends*, so boundaries[j-1] is where interval j begins).
  const std::size_t n = profile_.intervals.size();
  constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();
  warm_at_.assign(n, kNever);
  std::uint64_t pending = kNever;
  for (std::size_t i = n; i-- > 0;) {
    if (i + 1 < n && profile_.IsRepresentative(static_cast<int>(i) + 1)) {
      const std::uint64_t start = profile_.boundaries[i];
      pending = start > profile_.warmup_insts
                    ? start - profile_.warmup_insts
                    : 0;
    }
    warm_at_[i] = pending;
  }

  // The run starts at the schedule's first interval: measuring if interval
  // 0 is a representative (it usually is — seeding starts there),
  // otherwise fast-forward until the first warm-up window opens.
  const std::uint64_t retired = TotalRetired();
  detailed_ = !machine_->fast_forward();
  detailed_enter_retired_ = retired;
  if (profile_.IsRepresentative(0)) {
    BeginMeasurement(0, retired);
  } else if (!warm_at_.empty() && retired >= warm_at_[0]) {
    EnsureDetailed(retired);
  } else {
    EnsureFastForward(retired);
  }
  round_task_id_ = machine_->AddRoundTask([this] { OnBarrier(); });
}

SampledRun::~SampledRun() {
  machine_->RemoveRoundTask(round_task_id_);
  if (!finished_) machine_->SetFastForward(false);
}

std::uint64_t SampledRun::TotalRetired() const {
  std::uint64_t total = 0;
  for (CpuId cpu = 0; cpu < machine_->num_cpus(); ++cpu) {
    total += machine_->core(cpu).instructions_retired();
  }
  return total;
}

std::vector<std::uint64_t> SampledRun::ReadProbe() const {
  return probe_ ? probe_() : std::vector<std::uint64_t>{};
}

void SampledRun::EnsureDetailed(std::uint64_t retired) {
  if (detailed_) return;
  detailed_ = true;
  detailed_enter_retired_ = retired;
  machine_->SetFastForward(false);
}

void SampledRun::EnsureFastForward(std::uint64_t retired) {
  if (detailed_) {
    outcome_.detailed_retired += retired - detailed_enter_retired_;
    detailed_ = false;
  }
  machine_->SetFastForward(true);
}

void SampledRun::BeginMeasurement(int interval, std::uint64_t retired) {
  EnsureDetailed(retired);
  // Final warm-up step through the snapshot layer: seal the whole machine
  // into a blob and restore it in place. On simulated state this is an
  // identity (the round-trip determinism the `sample` test label fuzzes);
  // it drops only host-side acceleration state, exactly what a
  // from-checkpoint warm start would see.
  const std::vector<std::uint8_t> blob = machine_->SaveCheckpoint();
  std::string error;
  COBRA_CHECK_MSG(machine_->RestoreCheckpoint(blob, &error), error.c_str());
  outcome_.checkpoints += 1;
  outcome_.checkpoint_bytes = blob.size();

  measuring_ = interval;
  start_retired_ = TotalRetired();
  start_cycles_ = machine_->GlobalTime();
  start_counters_ = ReadProbe();
}

void SampledRun::EndMeasurement() {
  Measurement m;
  m.retired = TotalRetired() - start_retired_;
  m.cycles = machine_->GlobalTime() - start_cycles_;
  const std::vector<std::uint64_t> now = ReadProbe();
  m.counters.resize(now.size());
  for (std::size_t i = 0; i < now.size(); ++i) {
    m.counters[i] = now[i] - start_counters_[i];
  }
  m.valid = m.retired > 0;
  outcome_.detailed_intervals += 1;

  const int cluster =
      profile_.plan.assignment[static_cast<std::size_t>(measuring_)];
  measurements_[static_cast<std::size_t>(cluster)] = std::move(m);
  measuring_ = -1;
}

void SampledRun::OnBarrier() {
  if (finished_) return;
  const std::uint64_t retired = TotalRetired();
  const int n = static_cast<int>(profile_.boundaries.size());
  // Advance through every schedule boundary this barrier crossed (interval
  // ends quantize to barriers, exactly like pass 1's interval closing).
  while (interval_ < n &&
         retired >= profile_.boundaries[static_cast<std::size_t>(interval_)]) {
    if (measuring_ == interval_) EndMeasurement();
    interval_ += 1;
    if (profile_.IsRepresentative(interval_)) {
      BeginMeasurement(interval_, retired);
    }
  }
  if (measuring_ >= 0) return;  // stay detailed while measuring
  // Mode decision for the running interval: detailed once the next
  // representative's warm-up window opens, fast-forward otherwise.
  if (interval_ < n &&
      retired >= warm_at_[static_cast<std::size_t>(interval_)]) {
    EnsureDetailed(retired);
  } else {
    EnsureFastForward(retired);
  }
}

SampleOutcome SampledRun::Finish() {
  if (finished_) return outcome_;
  finished_ = true;
  if (measuring_ >= 0) EndMeasurement();
  if (detailed_) {
    outcome_.detailed_retired += TotalRetired() - detailed_enter_retired_;
    detailed_ = false;
  }
  machine_->SetFastForward(false);
  outcome_.total_retired = TotalRetired();
  outcome_.detailed_fraction =
      outcome_.total_retired > 0
          ? static_cast<double>(outcome_.detailed_retired) /
                static_cast<double>(outcome_.total_retired)
          : 0.0;

  // Per-phase per-instruction rates from the measured representatives; a
  // phase whose representative was never reached (the pass-2 run ended
  // early) falls back to the retired-weighted mean of the measured phases.
  const std::size_t num_counters = probe_ ? ReadProbe().size() : 0;
  std::uint64_t measured_retired = 0;
  std::uint64_t measured_cycles = 0;
  std::vector<std::uint64_t> measured_counters(num_counters, 0);
  for (const Measurement& m : measurements_) {
    if (!m.valid) continue;
    measured_retired += m.retired;
    measured_cycles += m.cycles;
    for (std::size_t k = 0; k < num_counters && k < m.counters.size(); ++k) {
      measured_counters[k] += m.counters[k];
    }
  }

  auto Rate = [](std::uint64_t delta, std::uint64_t retired) {
    return retired > 0
               ? static_cast<double>(delta) / static_cast<double>(retired)
               : 0.0;
  };

  double projected_cycles = 0.0;
  std::vector<double> projected(num_counters, 0.0);
  std::uint64_t scheduled_retired = 0;
  for (std::size_t i = 0; i < profile_.intervals.size(); ++i) {
    const std::uint64_t weight = profile_.intervals[i].retired;
    scheduled_retired += weight;
    const int cluster = profile_.plan.assignment[i];
    const Measurement* m =
        cluster >= 0 ? &measurements_[static_cast<std::size_t>(cluster)]
                     : nullptr;
    const bool have = m != nullptr && m->valid;
    const double w = static_cast<double>(weight);
    projected_cycles +=
        w * (have ? Rate(m->cycles, m->retired)
                  : Rate(measured_cycles, measured_retired));
    for (std::size_t k = 0; k < num_counters; ++k) {
      const std::uint64_t delta =
          have && k < m->counters.size() ? m->counters[k] : 0;
      projected[k] += w * (have ? Rate(delta, m->retired)
                                : Rate(measured_counters[k], measured_retired));
    }
  }
  // Instructions pass 2 executed beyond pass 1's schedule (patched binaries
  // can retire slightly different counts) extrapolate at the mean rate.
  if (outcome_.total_retired > scheduled_retired) {
    const double extra =
        static_cast<double>(outcome_.total_retired - scheduled_retired);
    projected_cycles += extra * Rate(measured_cycles, measured_retired);
    for (std::size_t k = 0; k < num_counters; ++k) {
      projected[k] += extra * Rate(measured_counters[k], measured_retired);
    }
  }

  outcome_.projected_cycles = static_cast<std::uint64_t>(projected_cycles);
  outcome_.projected.resize(num_counters);
  for (std::size_t k = 0; k < num_counters; ++k) {
    outcome_.projected[k] = static_cast<std::uint64_t>(projected[k]);
  }
  return outcome_;
}

}  // namespace cobra::perfmon
