// The ward phase: an open-loop stream of observations into
// serve::InferenceService.
//
// Beds hold cohort stays. Arrivals follow a seeded Poisson schedule; each
// arrival picks a random bed and sends the next row of its stay through
// ObserveAsync. A bed whose stay has sent its last row is discharged and
// admits the next stay in the seeded order, so admissions and discharges
// sit beside scoring. The generator never waits for a reply: every
// observation is timed from its due time, so a stall is charged to every
// observation queued behind it. Collector threads, one per scoring worker
// (sessions shard by id mod workers), wait on the futures and record each
// observation's latency.
//
// Timing: a warm-up at the nominal rate is excluded; the nominal window
// gives obs_p50_ms (median over all its observations) and the reported p99
// (the median of the p99s of its quarter-second windows). A ladder of
// rising rates follows: geometric until a rung fails (its windowed p99 over
// the limit, or a growing backlog), then bisection between the highest
// passing and the lowest failing rate. max_obs_per_s interpolates between
// those two rungs to the rate at which p99 crosses the limit.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <cstdio>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "baselines/baselines.h"
#include "bench.h"
#include "serve/service.h"
#include "trace.h"
#include "train/trainer.h"

namespace perfbench {

using namespace elda;

namespace {

constexpr int64_t kWorkers = 2;
constexpr int64_t kCheckedStays = 32;
constexpr double kLadderStep = 1.25;
// p99 windows. The host preempts this VM's vCPUs now and then for a few
// milliseconds; one such stall sets the p99 of the window it lands in, at
// any rate. Over many short windows the median shows the service's own
// tail, and the stalls show only when they come often.
constexpr double kWindowS = 0.25;

struct Pending {
  std::future<serve::StepResult> future;
  double due_s = 0.0;  // since the phase origin
  int32_t segment = 0;
  int32_t check_slot = -1;  // last row of a checked stay
};

struct Sample {
  double due_s = 0.0;
  float latency_ms = 0.0f;
  int32_t segment = 0;
};

// Waits on one scoring worker's futures, in submission order, and records
// when each resolved.
class Collector {
 public:
  Collector(int64_t origin_ns, std::vector<float>* check_risks)
      : origin_ns_(origin_ns), check_risks_(check_risks) {
    thread_ = std::thread([this] { Loop(); });
  }
  ~Collector() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_one();
    thread_.join();
  }
  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  void Push(Pending pending) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.push_back(std::move(pending));
    }
    cv_.notify_one();
  }

  // Observations resolved so far. The acquire pairs with the release in
  // Loop, so once it equals the number pushed, samples() and failed() are
  // safe to read until the next Push.
  int64_t completed() const {
    return completed_.load(std::memory_order_acquire);
  }
  int64_t failed() const { return failed_; }
  const std::vector<Sample>& samples() const { return samples_; }

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (true) {
      cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;
      std::deque<Pending> batch;
      batch.swap(queue_);
      lock.unlock();
      for (Pending& p : batch) {
        const serve::StepResult r = p.future.get();
        const double done_s =
            static_cast<double>(Tracer::NowNs() - origin_ns_) * 1e-9;
        samples_.push_back({p.due_s,
                            static_cast<float>((done_s - p.due_s) * 1e3),
                            p.segment});
        if (!r.ok) ++failed_;
        if (p.check_slot >= 0) {
          (*check_risks_)[static_cast<size_t>(p.check_slot)] = r.risk;
        }
        completed_.fetch_add(1, std::memory_order_release);
      }
      lock.lock();
    }
  }

  const int64_t origin_ns_;
  std::vector<float>* check_risks_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Pending> queue_;
  bool stop_ = false;
  std::atomic<int64_t> completed_{0};
  int64_t failed_ = 0;
  std::vector<Sample> samples_;
  std::thread thread_;
};

struct Bed {
  serve::SessionId id = serve::kInvalidSession;
  int64_t stay = 0;
  int64_t row = 0;
  int32_t check_slot = -1;
};

struct SegmentStats {
  std::vector<double> late_ms;
  std::vector<int64_t> backlog;  // outstanding observations, every 10 ms
  int64_t queue_depth_max = 0;
};

// An observation the generator sent, for the StepForward replay.
struct Sent {
  int64_t stay;
  int64_t row;
};

class Ward {
 public:
  Ward(const RunConfig& config, const Inputs& in,
       const train::SequenceModel* model)
      : config_(config),
        in_(in),
        model_(model),
        service_(model, MakeServeConfig()),
        schedule_(in.ward_seed),
        origin_ns_(Tracer::NowNs()),
        check_risks_(kCheckedStays, std::numeric_limits<float>::quiet_NaN()) {
    for (int64_t w = 0; w < kWorkers; ++w) {
      collectors_.push_back(
          std::make_unique<Collector>(origin_ns_, &check_risks_));
    }
    flips_.resize(in.cohort.size());
    for (size_t s = 0; s < in.cohort.size(); ++s) {
      flips_[s] = FlipRows(in.cohort[s]);
    }
    beds_.resize(static_cast<size_t>(config.beds));
    for (Bed& bed : beds_) AdmitNext(&bed);
  }

  // Sends arrivals at `rate` for `seconds`; `record` keeps what was sent.
  SegmentStats RunSegment(double rate, double seconds, int32_t segment,
                          bool sample_queue, std::vector<Sent>* record) {
    SegmentStats stats;
    const int64_t start = Tracer::NowNs();
    const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
    double due = static_cast<double>(start);
    int64_t next_sample = start;
    while (due < static_cast<double>(end)) {
      int64_t now = Tracer::NowNs();
      while (static_cast<double>(now) < due) {
        if (now >= next_sample) {
          stats.backlog.push_back(sent_ - Completed());
          if (sample_queue) {
            stats.queue_depth_max = std::max(
                stats.queue_depth_max, service_.stats().queue_depth);
          }
          next_sample = now + 10'000'000;
        }
        const double wait_ns = due - static_cast<double>(now);
        if (wait_ns > 200e3) {
          std::this_thread::sleep_for(
              std::chrono::nanoseconds(static_cast<int64_t>(wait_ns - 100e3)));
        }
        now = Tracer::NowNs();
      }
      stats.late_ms.push_back((static_cast<double>(now) - due) * 1e-6);
      Send(static_cast<int64_t>(due), segment, record);
      due += schedule_.NextGap(rate) * 1e9;
    }
    return stats;
  }

  // Waits until every observation sent so far has resolved; false if that
  // takes longer than `timeout_s`.
  bool Drain(double timeout_s) {
    const int64_t deadline =
        Tracer::NowNs() + static_cast<int64_t>(timeout_s * 1e9);
    while (Completed() < sent_) {
      if (Tracer::NowNs() > deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
  }

  // Latencies of `segment` due at or after `from_s` (call after Drain).
  std::vector<const Sample*> SamplesOf(int32_t segment, double from_s) const {
    std::vector<const Sample*> out;
    for (const auto& c : collectors_) {
      for (const Sample& s : c->samples()) {
        if (s.segment == segment && s.due_s >= from_s) out.push_back(&s);
      }
    }
    return out;
  }

  double Now() const {
    return static_cast<double>(Tracer::NowNs() - origin_ns_) * 1e-9;
  }

  serve::InferenceService& service() { return service_; }
  int64_t sent() const { return sent_; }
  int64_t admissions() const { return admissions_; }
  int64_t flips_sent() const { return flips_sent_; }
  int64_t Failed() const {
    int64_t failed = refused_;
    for (const auto& c : collectors_) failed += c->failed();
    return failed;
  }
  const std::vector<uint8_t>& flips(int64_t stay) const {
    return flips_[static_cast<size_t>(stay)];
  }

  // Compares the last streamed risk of each checked, fully streamed stay
  // with B=1 Trainer::Predict on the same prepared sample.
  void CheckStreamedRisks(Result* out) const {
    train::InferenceOptions single;
    single.batch_size = 1;
    int64_t checked = 0;
    for (size_t slot = 0; slot < check_stays_.size(); ++slot) {
      if (!check_done_[slot]) continue;
      const float expect =
          train::Trainer::Predict(model_, in_.cohort, {check_stays_[slot]},
                                  data::Task::kMortality, single)
              .scores[0];
      const float got = check_risks_[slot];
      out->Check(std::memcmp(&expect, &got, sizeof got) == 0,
                 "ward: stay " + std::to_string(check_stays_[slot]) +
                     " streamed risk differs from Predict");
      ++checked;
    }
    out->Check(checked > 0, "ward: no checked stay was discharged");
  }

 private:
  serve::ServeConfig MakeServeConfig() const {
    serve::ServeConfig sc;
    sc.infer.num_threads = 1;  // one kernel thread per scoring worker
    sc.window_capacity = kStaySteps;
    sc.max_sessions = config_.beds + 1;
    sc.async = true;
    sc.num_workers = kWorkers;
    return sc;
  }

  // Row t is a flip when it observes some feature for the first time in
  // the stay after step 0: ELDA-Net's V_m embedding then replays the window.
  static std::vector<uint8_t> FlipRows(const data::PreparedSample& s) {
    const int64_t steps = s.x.shape(0), features = s.x.shape(1);
    std::vector<uint8_t> flips(static_cast<size_t>(steps), 0);
    std::vector<uint8_t> seen(static_cast<size_t>(features), 0);
    for (int64_t t = 0; t < steps; ++t) {
      for (int64_t c = 0; c < features; ++c) {
        if (s.mask[t * features + c] != 0.0f && !seen[static_cast<size_t>(c)]) {
          seen[static_cast<size_t>(c)] = 1;
          if (t > 0) flips[static_cast<size_t>(t)] = 1;
        }
      }
    }
    return flips;
  }

  int64_t Completed() const {
    int64_t done = 0;
    for (const auto& c : collectors_) done += c->completed();
    return done;
  }

  void AdmitNext(Bed* bed) {
    const auto& order = in_.stay_order;
    const int64_t pos = admissions_++;
    bed->stay = order[static_cast<size_t>(pos) % order.size()];
    bed->row = 0;
    bed->check_slot = -1;
    if (pos % 8 == 0 &&
        static_cast<int64_t>(check_stays_.size()) < kCheckedStays) {
      bed->check_slot = static_cast<int32_t>(check_stays_.size());
      check_stays_.push_back(bed->stay);
      check_done_.push_back(false);
    }
    Span span("serve.admit");
    bed->id = service_.Admit();
    if (bed->id == serve::kInvalidSession) ++refused_;
  }

  void Send(int64_t due_ns, int32_t segment, std::vector<Sent>* record) {
    Span arrival("ward.arrival", sent_);
    Bed& bed =
        beds_[static_cast<size_t>(schedule_.NextBed(config_.beds))];
    const data::PreparedSample& s = in_.cohort[static_cast<size_t>(bed.stay)];
    const int64_t features = s.x.shape(1);
    const int64_t t = bed.row;
    serve::Observation obs;
    obs.x.assign(s.x.data() + t * features, s.x.data() + (t + 1) * features);
    obs.mask.assign(s.mask.data() + t * features,
                    s.mask.data() + (t + 1) * features);
    obs.delta.assign(s.delta.data() + t * features,
                     s.delta.data() + (t + 1) * features);
    const bool last = t + 1 == s.x.shape(0);
    flips_sent_ += flips_[static_cast<size_t>(bed.stay)][static_cast<size_t>(t)];
    if (record != nullptr) record->push_back({bed.stay, t});
    Pending pending;
    pending.due_s = static_cast<double>(due_ns - origin_ns_) * 1e-9;
    pending.segment = segment;
    if (last && bed.check_slot >= 0) {
      pending.check_slot = bed.check_slot;
      check_done_[static_cast<size_t>(bed.check_slot)] = true;
    }
    {
      Span span("serve.submit", sent_);
      pending.future = service_.ObserveAsync(bed.id, std::move(obs));
    }
    collectors_[static_cast<size_t>(bed.id % kWorkers)]->Push(
        std::move(pending));
    ++sent_;
    if (++bed.row == s.x.shape(0)) {
      {
        Span span("serve.discharge");
        service_.Discharge(bed.id);
      }
      AdmitNext(&bed);
    }
  }

  const RunConfig& config_;
  const Inputs& in_;
  const train::SequenceModel* model_;
  serve::InferenceService service_;
  ArrivalSchedule schedule_;
  const int64_t origin_ns_;
  std::vector<float> check_risks_;  // written by collectors, one per slot
  std::vector<int64_t> check_stays_;
  std::vector<bool> check_done_;    // the last row has been sent
  // Declared after the service: collectors join first, while the service
  // still resolves their futures.
  std::vector<std::unique_ptr<Collector>> collectors_;
  std::vector<std::vector<uint8_t>> flips_;
  std::vector<Bed> beds_;
  int64_t sent_ = 0;
  int64_t admissions_ = 0;
  int64_t refused_ = 0;
  int64_t flips_sent_ = 0;
};

struct Rung {
  double rate = 0.0;
  double p99_ms = 0.0;
  bool backlog_grows = false;
  bool pass = false;
};

// Growing backlog: the outstanding count at the end of the measured part
// exceeds the start by more than 2% of the observations offered in it.
bool BacklogGrows(const std::vector<int64_t>& backlog, double rate,
                  double seconds) {
  if (backlog.size() < 5) return false;
  const size_t k = std::max<size_t>(1, backlog.size() / 5);
  double head = 0.0, tail = 0.0;
  for (size_t i = 0; i < k; ++i) {
    head += static_cast<double>(backlog[i]);
    tail += static_cast<double>(backlog[backlog.size() - 1 - i]);
  }
  return (tail - head) / static_cast<double>(k) >
         std::max(64.0, 0.02 * rate * seconds);
}

// The median over consecutive `window_s` windows of each window's p99;
// one stall then moves one window, not the figure. Windows with fewer than
// 200 samples are skipped; with none left it is the plain p99.
double WindowedP99(const std::vector<const Sample*>& samples, double from_s,
                   double window_s, std::vector<double>* window_p99s = nullptr) {
  std::vector<std::vector<double>> windows;
  std::vector<double> all;
  for (const Sample* s : samples) {
    const size_t w = static_cast<size_t>((s->due_s - from_s) / window_s);
    if (w >= windows.size()) windows.resize(w + 1);
    windows[w].push_back(s->latency_ms);
    all.push_back(s->latency_ms);
  }
  std::vector<double> p99s;
  for (const auto& w : windows) {
    if (w.size() >= 200) p99s.push_back(Percentile(w, 99.0));
  }
  if (window_p99s != nullptr) *window_p99s = p99s;
  return p99s.empty() ? Percentile(all, 99.0) : Median(p99s);
}

void LogValues(const char* what, const std::vector<double>& values) {
  std::fprintf(stderr, "%s:", what);
  for (double v : values) std::fprintf(stderr, " %.3f", v);
  std::fprintf(stderr, "\n");
}

std::vector<double> LatenciesOf(const std::vector<const Sample*>& samples) {
  std::vector<double> ms;
  ms.reserve(samples.size());
  for (const Sample* s : samples) ms.push_back(s->latency_ms);
  return ms;
}

struct Timing {
  double warmup_s, nominal_s, rung_warmup_s, rung_s, drain_timeout_s;
};

Timing TimingFor(const RunConfig& config, double budget_s) {
  Timing t;
  t.warmup_s = std::max(0.3, 0.06 * budget_s);
  t.nominal_s = std::max(1.0, 0.3 * budget_s);
  t.rung_warmup_s = config.tiny ? 0.1 : 0.25;
  t.rung_s = config.tiny ? 0.4 : 1.5;
  t.drain_timeout_s = 10.0;
  return t;
}

}  // namespace

void RunWard(const RunConfig& config, const Inputs& in, double budget_s,
             Result* out) {
  auto model =
      baselines::MakeModel(config.model_name, kNumFeatures, kModelSeed);
  const Timing timing = TimingFor(config, budget_s);
  Ward ward(config, in, model.get());
  const double phase_start = ward.Now();

  ward.RunSegment(config.nominal_rate, timing.warmup_s, 0, false, nullptr);
  const double nominal_from = ward.Now();
  SegmentStats nominal = ward.RunSegment(config.nominal_rate,
                                         timing.nominal_s, 1, false, nullptr);
  out->Check(ward.Drain(timing.drain_timeout_s),
             "ward: the nominal rate did not drain");
  const auto nominal_samples = ward.SamplesOf(1, nominal_from);
  const std::vector<double> nominal_ms = LatenciesOf(nominal_samples);
  const double p50 = Percentile(nominal_ms, 50.0);
  std::vector<double> window_p99s;
  const double p99 =
      WindowedP99(nominal_samples, nominal_from, kWindowS, &window_p99s);
  LogValues("ward nominal window p99 ms", window_p99s);

  // The ladder. Rung 0 is the nominal window itself; rates then rise
  // geometrically from the ladder start until a rung fails, and bisect (in
  // log rate) between the highest passing and the lowest failing rung
  // while the budget lasts.
  std::vector<Rung> rungs;
  Rung base;
  base.rate = config.nominal_rate;
  base.p99_ms = p99;
  base.backlog_grows =
      BacklogGrows(nominal.backlog, base.rate, timing.nominal_s);
  base.pass = base.p99_ms <= config.p99_limit_ms && !base.backlog_grows;
  rungs.push_back(base);
  Rung lo = base, hi;
  bool have_hi = false;
  int32_t segment = 2;
  double rate = std::max(config.ladder_start * in.ladder_jitter,
                         base.rate * kLadderStep);
  while (base.pass &&
         ward.Now() - phase_start + timing.rung_warmup_s + timing.rung_s <=
             budget_s) {
    Rung rung;
    rung.rate = rate;
    ward.RunSegment(rate, timing.rung_warmup_s, segment, false, nullptr);
    const double from = ward.Now();
    SegmentStats stats =
        ward.RunSegment(rate, timing.rung_s, segment, false, nullptr);
    const bool drained = ward.Drain(timing.drain_timeout_s);
    rung.p99_ms =
        WindowedP99(ward.SamplesOf(segment, from), from, kWindowS);
    rung.backlog_grows =
        !drained || BacklogGrows(stats.backlog, rate, timing.rung_s);
    rung.pass = rung.p99_ms <= config.p99_limit_ms && !rung.backlog_grows;
    rungs.push_back(rung);
    ++segment;
    if (rung.pass) {
      lo = rung;
    } else {
      hi = rung;
      have_hi = true;
    }
    if (!drained || (have_hi && hi.rate / lo.rate < 1.03)) break;
    rate = have_hi ? std::sqrt(lo.rate * hi.rate) : lo.rate * kLadderStep;
  }
  double max_rate = 0.0;
  if (!base.pass) {
    // The nominal rate already misses the limit: scale it down.
    max_rate = base.rate * std::min(1.0, config.p99_limit_ms / base.p99_ms);
  } else if (!have_hi) {
    max_rate = lo.rate;  // the budget ran out before a rung failed
    std::fprintf(stderr, "ward: no rung failed within the budget\n");
  } else {
    // Interpolate to where p99 crosses the limit; a rung that failed on
    // backlog alone gives no crossing.
    double frac = 0.0;
    if (hi.p99_ms > config.p99_limit_ms && hi.p99_ms > lo.p99_ms) {
      frac = (config.p99_limit_ms - lo.p99_ms) / (hi.p99_ms - lo.p99_ms);
    }
    max_rate = lo.rate + std::clamp(frac, 0.0, 1.0) * (hi.rate - lo.rate);
  }
  for (const Rung& r : rungs) {
    std::fprintf(stderr, "ward rung: %9.0f obs/s  p99 %8.3f ms  %s%s\n",
                 r.rate, r.p99_ms, r.pass ? "pass" : "FAIL",
                 r.backlog_grows ? " (backlog grows)" : "");
  }
  ward.CheckStreamedRisks(out);
  out->attempted += ward.sent() + ward.admissions();
  out->failed += ward.Failed();
  out->Check(ward.Failed() == 0,
             "ward: " + std::to_string(ward.Failed()) + " failed operations");
  // obs_p99 is reported, not gated: on a shared VM it follows the host's
  // vCPU preemption more than the service (see perfbench/README.md).
  std::fprintf(stderr,
               "ward: nominal %.0f obs/s, %zu observations, obs_p99_ms %.3f, "
               "generator late p99 %.3f ms\n",
               config.nominal_rate, nominal_ms.size(), p99,
               Percentile(nominal.late_ms, 99.0));
  out->Set("obs_p50_ms", p50, "ms");
  out->Set("max_obs_per_s", max_rate, "obs/s");
}

namespace {

// Replays `sent` through StepForward outside the service, at B=1 on one
// kernel thread as each scoring worker runs it, timing incremental steps
// and flip steps apart. A stay first seen mid-stay is caught up untimed.
void ReplaySteps(const train::SequenceModel* model, const Inputs& in,
                 const Ward& ward, const std::vector<Sent>& sent,
                 double budget_s, Result* out) {
  par::ScopedNumThreads one_thread(1);
  ag::NoGradScope no_grad;
  nn::ForwardContext ctx;
  std::unordered_map<int64_t, std::unique_ptr<nn::StepState>> states;
  auto step = [&](int64_t stay, int64_t row, nn::StepState* state) {
    const data::PreparedSample& s = in.cohort[static_cast<size_t>(stay)];
    const int64_t c = s.x.shape(1);
    auto row_of = [&](const Tensor& t) {
      return Tensor::FromData(
          {1, c}, std::vector<float>(t.data() + row * c,
                                     t.data() + (row + 1) * c));
    };
    train::StepBatch batch;
    batch.x = row_of(s.x);
    batch.mask = row_of(s.mask);
    batch.delta = row_of(s.delta);
    model->StepForward(batch, {state}, &ctx);
  };
  std::vector<double> step_us, flip_us;
  const int64_t end = Tracer::NowNs() + static_cast<int64_t>(budget_s * 1e9);
  for (const Sent& obs : sent) {
    if (Tracer::NowNs() > end) break;
    auto& state = states[obs.stay];
    if (obs.row == 0 || state == nullptr) {
      state = model->MakeStepState(kStaySteps);
      for (int64_t r = 0; r < obs.row; ++r) step(obs.stay, r, state.get());
    }
    const bool flip = ward.flips(obs.stay)[static_cast<size_t>(obs.row)] != 0;
    const int64_t t0 = Tracer::NowNs();
    step(obs.stay, obs.row, state.get());
    (flip ? flip_us : step_us)
        .push_back(static_cast<double>(Tracer::NowNs() - t0) * 1e-3);
  }
  auto mean = [](const std::vector<double>& v) {
    double sum = 0.0;
    for (double x : v) sum += x;
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
  };
  out->Set("ward.model.step_us", mean(step_us), "us");
  out->Set("ward.core.flip_replay_us", mean(flip_us), "us");
}

}  // namespace

void TraceWard(const RunConfig& config, const Inputs& in, double budget_s,
               Result* out) {
  auto model =
      baselines::MakeModel(config.model_name, kNumFeatures, kModelSeed);
  const Timing timing = TimingFor(config, budget_s);
  const double segment_s = std::max(1.0, budget_s / 4);
  Tracer& tracer = Tracer::Get();
  Ward ward(config, in, model.get());
  ward.RunSegment(config.nominal_rate, timing.warmup_s, 0, false, nullptr);
  double from = ward.Now();
  ward.RunSegment(config.nominal_rate, segment_s, 1, false, nullptr);
  out->Check(ward.Drain(timing.drain_timeout_s), "ward: did not drain");
  const auto plain = ward.SamplesOf(1, from);
  const double plain_p50 = Percentile(LatenciesOf(plain), 50.0);
  out->Set("ward.obs_p99_ms", WindowedP99(plain, from, kWindowS), "ms");

  const serve::MicroBatcher::Stats batcher_before =
      ward.service().batcher_stats();
  const int64_t flips_before = ward.flips_sent();
  const int64_t sent_before = ward.sent();
  std::vector<Sent> sent;
  tracer.Clear();
  tracer.SetEnabled(true);
  from = ward.Now();
  const SegmentStats traced =
      ward.RunSegment(config.nominal_rate, segment_s, 2, true, &sent);
  tracer.SetEnabled(false);
  out->Check(ward.Drain(timing.drain_timeout_s), "ward: did not drain");
  const double traced_p50 =
      Percentile(LatenciesOf(ward.SamplesOf(2, from)), 50.0);
  const serve::MicroBatcher::Stats batcher_after =
      ward.service().batcher_stats();
  const serve::ServiceStats service_stats = ward.service().stats();
  ward.CheckStreamedRisks(out);
  out->attempted += ward.sent() + ward.admissions();
  out->failed += ward.Failed();
  out->Check(ward.Failed() == 0, "ward: failed operations");

  const auto stats = tracer.Aggregate();
  auto per_call_us = [&](const std::string& path) {
    auto it = stats.find(path);
    if (it == stats.end() || it->second.count == 0) return 0.0;
    return 1e3 * it->second.self_ms / static_cast<double>(it->second.count);
  };
  const int64_t batches = batcher_after.batches - batcher_before.batches;
  const int64_t scored =
      batcher_after.observations - batcher_before.observations;
  const int64_t observations = ward.sent() - sent_before;
  out->Set("ward.serve.submit_us", per_call_us("ward.arrival/serve.submit"),
           "us");
  out->Set("ward.serve.admit_us", per_call_us("ward.arrival/serve.admit"),
           "us");
  out->Set("ward.serve.discharge_us",
           per_call_us("ward.arrival/serve.discharge"), "us");
  out->Set("ward.arrival.unattributed_us", per_call_us("ward.arrival"), "us");
  out->Set("ward.serve.mean_batch",
           batches > 0 ? static_cast<double>(scored) / batches : 0.0, "count");
  out->Set("ward.serve.queue_depth_max",
           static_cast<double>(traced.queue_depth_max), "count");
  out->Set("ward.serve.rejected", static_cast<double>(service_stats.rejected),
           "count");
  out->Set("ward.serve.expired", static_cast<double>(service_stats.expired),
           "count");
  out->Set("ward.loadgen.late_ms_p99", Percentile(traced.late_ms, 99.0), "ms");
  out->Set("ward.core.flip_share",
           observations > 0 ? static_cast<double>(ward.flips_sent() -
                                                  flips_before) /
                                  static_cast<double>(observations)
                            : 0.0,
           "ratio");
  out->Set("ward.trace.overhead_pct", 100.0 * (traced_p50 / plain_p50 - 1.0),
           "%");
  ReplaySteps(model.get(), in, ward, sent, segment_s, out);
}

}  // namespace perfbench
