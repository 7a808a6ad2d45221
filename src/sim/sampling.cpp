#include "sim/sampling.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "sim/batch.hpp"
#include "sim/checkpoint.hpp"

namespace redcache {

namespace {

double Seconds(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

bool IsGaugeName(const std::string& name) {
  return name.rfind("gauge.", 0) == 0;
}

/// One replayed interval's contribution, written by exactly one worker.
struct IntervalMeasure {
  Cycle span = 0;
  std::int64_t refs = 0;
  std::map<std::string, std::int64_t> delta;
};

/// The measure of a detailed run `r` that started at cycle `start` with
/// cumulative stats `before`. exec_cycles is the loop's final cycle: the
/// true finish when the workload completed inside the interval, else the
/// (possibly slightly overshot) cycle the event loop stopped at. Deltas
/// cover exactly the activity inside [start, span).
IntervalMeasure Measure(const StatSet& before, Cycle start,
                        const RunResult& r) {
  IntervalMeasure m;
  m.span = r.exec_cycles > start ? r.exec_cycles - start : Cycle{1};
  for (const auto& [name, value] : r.stats.counters()) {
    if (IsGaugeName(name) || name == "sys.exec_cycles") continue;
    const std::uint64_t base = before.GetCounter(name);
    m.delta[name] =
        static_cast<std::int64_t>(value) - static_cast<std::int64_t>(base);
  }
  m.refs = m.delta.count("core.refs") ? m.delta.at("core.refs") : 0;
  return m;
}

/// Detailed replay of one interval: restore `blob` into a fresh System and
/// run `interval` cycles with full timing. The blob is freed once restored.
IntervalMeasure ReplayInterval(const RunSpec& spec,
                               const std::string& spec_key, std::string blob,
                               Cycle interval) {
  auto sys = BuildSystem(spec);
  const ckpt::CheckpointMeta meta = ckpt::RestoreInto(*sys, blob, spec_key);
  std::string().swap(blob);
  const StatSet before = sys->CumulativeStats(meta.cycle);
  return Measure(before, meta.cycle, sys->Run(meta.cycle + interval - 1));
}

/// A captured candidate interval. `blob` and `measure` are guarded by the
/// pipeline's mutex; `cycle` never changes after capture.
struct Candidate {
  Cycle cycle = 0;
  std::string blob;  ///< freed once restored for replay, or when dropped
  std::optional<IntervalMeasure> measure;
  bool dropped = false;
};

/// Replays candidates while the fast-forward is still capturing them.
/// Worker threads take queued candidates in capture order, so a blob lives
/// only until a worker reaches it, not until the fast-forward ends. A
/// replay is speculative: thinning or selection may drop its candidate
/// later, and the measure is then discarded. The first error (from a
/// replay or reported through Fail) stops the queue; Finish rethrows it.
class ReplayPipeline {
 public:
  ReplayPipeline(const RunSpec& spec, const std::string& spec_key,
                 Cycle interval)
      : spec_(spec), spec_key_(spec_key), interval_(interval) {}
  ~ReplayPipeline() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopped_ = true;
    }
    cv_.notify_all();
    Join();
  }

  void Start(unsigned workers) {
    threads_.reserve(workers);
    for (unsigned t = 0; t < workers; ++t) {
      threads_.emplace_back([this] { Work(); });
    }
  }

  /// Queue a captured candidate. Rethrows a failed replay's error, which
  /// stops the fast-forward at its next capture.
  Candidate* Add(Cycle cycle, std::string blob) {
    std::lock_guard<std::mutex> lock(mu_);
    if (error_) std::rethrow_exception(error_);
    Candidate& c = all_.emplace_back();
    c.cycle = cycle;
    c.blob = std::move(blob);
    queue_.push_back(&c);
    cv_.notify_one();
    return &c;
  }

  /// Free a candidate's blob and discard its measure. A queued candidate
  /// is never replayed; a running one's measure is discarded on arrival.
  void Drop(Candidate* c) {
    std::lock_guard<std::mutex> lock(mu_);
    c->dropped = true;
    std::string().swap(c->blob);
    c->measure.reset();
    queue_.erase(std::remove(queue_.begin(), queue_.end(), c), queue_.end());
  }

  /// Record `e` unless an earlier error is recorded, and stop the queue.
  void Fail(std::exception_ptr e) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!error_) error_ = std::move(e);
      stopped_ = true;
    }
    cv_.notify_all();
  }

  /// No more captures: replay what is still queued on the calling thread
  /// and every worker, join them, and rethrow the first error.
  void Finish() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    cv_.notify_all();
    Work();
    Join();
    if (error_) std::rethrow_exception(error_);
  }

 private:
  void Work() {
    for (;;) {
      Candidate* c = nullptr;
      std::string blob;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock,
                 [this] { return stopped_ || closed_ || !queue_.empty(); });
        if (stopped_ || queue_.empty()) return;
        c = queue_.front();
        queue_.pop_front();
        blob = std::move(c->blob);
      }
      try {
        IntervalMeasure m =
            ReplayInterval(spec_, spec_key_, std::move(blob), interval_);
        std::lock_guard<std::mutex> lock(mu_);
        if (!c->dropped) c->measure = std::move(m);
      } catch (...) {
        Fail(std::current_exception());
        return;
      }
    }
  }

  void Join() {
    for (std::thread& t : threads_) {
      if (t.joinable()) t.join();
    }
  }

  const RunSpec& spec_;
  const std::string& spec_key_;
  const Cycle interval_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Candidate> all_;      ///< every capture; addresses are stable
  std::deque<Candidate*> queue_;   ///< captured, not yet taken by a worker
  bool closed_ = false;            ///< the fast-forward has ended
  bool stopped_ = false;           ///< an error or teardown: take no more
  std::exception_ptr error_;
  std::vector<std::thread> threads_;
};

}  // namespace

double TCritical95(std::uint64_t df) {
  static constexpr double kT95[] = {
      12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306,
      2.262,  2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120,
      2.110,  2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064,
      2.060,  2.056, 2.052, 2.048, 2.045, 2.042};
  if (df == 0) return 0.0;
  if (df <= 30) return kT95[df - 1];
  return 1.96;
}

SamplingEstimate RunSampled(const RunSpec& spec,
                            const SamplingOptions& opts) {
  if (!(opts.fraction > 0.0) || opts.fraction > 1.0) {
    throw std::invalid_argument("sampling fraction must be in (0, 1]");
  }
  if (opts.interval_cycles < 1) {
    throw std::invalid_argument("sampling interval must be >= 1 cycle");
  }
  const Cycle interval = opts.interval_cycles;

  SamplingEstimate est;
  const std::string spec_key = ckpt::SpecKeyOf(spec);

  // Single functional pass: fast-forward the whole workload under a fixed
  // memory latency, capturing a candidate checkpoint every `interval`
  // cycles. The fixed latency compresses time relative to detailed mode by
  // an unknown workload-dependent factor, so the measurement stride cannot
  // be computed up front — instead candidates are captured densely and the
  // measurement set is chosen afterward, once the compressed timeline's
  // true length is known. To bound memory (a blob is a full System
  // snapshot), the candidate list thins itself: whenever it reaches
  // kMaxCandidates, every other candidate is dropped and the capture
  // stride doubles, so total captures stay O(kMaxCandidates) however long
  // the run is, while spacing stays uniform. Meanwhile jobs - 1 workers
  // replay each candidate as soon as it is captured and free its blob.
  constexpr std::size_t kMaxCandidates = 48;
  const auto t_ff = std::chrono::steady_clock::now();
  auto t_pass = t_ff;
  ReplayPipeline pipe(spec, spec_key, interval);
  std::vector<Candidate*> picked;
  bool one_interval = false;
  try {
    pipe.Start(ResolveJobs(opts.jobs) - 1);
    Cycle ff_exec = 0;
    std::vector<Candidate*> cands;
    {
      auto ff = BuildSystem(spec);
      ff->SetFunctionalTiming(opts.functional_latency);
      System* sys = ff.get();
      Cycle cap_stride = interval;
      Cycle next_due = 0;
      ff->SetCheckpointHook(0, interval, [&](Cycle now) {
        if (now < next_due) return;
        cands.push_back(pipe.Add(now, ckpt::Capture(*sys, now, spec_key)));
        next_due = now + cap_stride;
        if (cands.size() >= kMaxCandidates) {
          std::vector<Candidate*> kept;
          kept.reserve(cands.size() / 2 + 1);
          for (std::size_t i = 0; i < cands.size(); ++i) {
            if (i % 2 == 0) {
              kept.push_back(cands[i]);
            } else {
              pipe.Drop(cands[i]);
            }
          }
          cands.swap(kept);
          cap_stride *= 2;
          next_due = cands.back()->cycle + cap_stride;
        }
      });
      const RunResult r = ff->Run(spec.max_cycles);
      ff_exec = r.exec_cycles;
      est.total_refs = r.stats.GetCounter("core.refs");
    }
    t_pass = std::chrono::steady_clock::now();

    // Measurement set: honor the requested fraction of the (functional)
    // timeline, but never fewer than kMinIntervals when the run is long
    // enough to hold them — a t-based CI over 2-3 intervals is noise.
    constexpr std::uint64_t kMinIntervals = 8;
    const std::uint64_t fit = ff_exec / interval;
    std::uint64_t n_target = 1;
    if (fit > 1) {
      const auto want = static_cast<std::uint64_t>(std::llround(
          opts.fraction * static_cast<double>(ff_exec) /
          static_cast<double>(interval)));
      n_target = std::clamp<std::uint64_t>(want, std::min(kMinIntervals, fit),
                                           fit);
    }
    n_target = std::min<std::uint64_t>(n_target, cands.size());
    // One interval carries no variance, so sampling has nothing to offer:
    // the detailed run below replaces every candidate.
    one_interval = n_target <= 1;
    if (one_interval) n_target = 0;

    // Systematic subselection with a seed-derived phase: every run of the
    // same spec measures the same intervals (deterministic), different
    // seeds measure different phases of the candidate stride.
    std::vector<bool> selected(cands.size(), false);
    if (n_target > 0) {
      // idx_i = floor((i + u) * N / n) spans the whole candidate range for
      // any phase u in [0, 1) — a truncated integer step would leave the
      // timeline's tail systematically unsampled.
      const double u =
          static_cast<double>((spec.seed * 2654435761ull) % 1024u) / 1024.0;
      picked.reserve(n_target);
      std::size_t prev = cands.size();  // sentinel: no index taken yet
      for (std::uint64_t i = 0; i < n_target; ++i) {
        const auto idx = static_cast<std::size_t>(
            (static_cast<double>(i) + u) * static_cast<double>(cands.size()) /
            static_cast<double>(n_target));
        if (idx == prev || idx >= cands.size()) continue;
        picked.push_back(cands[idx]);
        selected[idx] = true;
        prev = idx;
      }
    }
    for (std::size_t i = 0; i < cands.size(); ++i) {
      if (!selected[i]) pipe.Drop(cands[i]);
    }
  } catch (...) {
    pipe.Fail(std::current_exception());
  }
  est.functional_seconds =
      std::chrono::duration<double>(t_pass - t_ff).count();

  std::vector<IntervalMeasure> measures;
  if (one_interval) {
    // The run fits at most one interval: run it in detail once, from cycle
    // 0, while any speculative replay finishes. A run whose event loop
    // ended inside the first interval (at cycle ticks + skipped - 1) is
    // exactly that interval's measure, a zero-width answer; a longer one
    // is reported whole, with no confidence interval.
    const auto t_full = std::chrono::steady_clock::now();
    auto sys = BuildSystem(spec);
    const StatSet before = sys->CumulativeStats(0);
    const RunResult full = RunBuilt(*sys, spec);
    pipe.Finish();
    est.replay_seconds = Seconds(t_full);
    if (full.ticks_executed + full.cycles_skipped > interval) {
      est.degenerate = true;
      est.intervals = 1;
      est.est_exec_cycles = static_cast<double>(full.exec_cycles);
      est.est_stats = full.stats;
      est.est_stats.Counter("gauge.sampling.ci_pct") = 0;
      est.est_stats.Counter("gauge.sampling.intervals") = 1;
      return est;
    }
    measures.push_back(Measure(before, 0, full));
  } else {
    // Pass 2: the selected intervals the workers have not measured yet
    // replay on every thread, the calling one included.
    pipe.Finish();
    est.replay_seconds = Seconds(t_pass);
    measures.reserve(picked.size());
    for (Candidate* c : picked) measures.push_back(std::move(*c->measure));
  }

  // Ratio estimation over the per-interval reference rates.
  const std::size_t n = measures.size();
  est.intervals = n;
  double rate_sum = 0.0;
  std::int64_t refs_sum = 0;
  std::map<std::string, std::int64_t> delta_sum;
  std::vector<double> rates(n);
  for (std::size_t i = 0; i < n; ++i) {
    rates[i] = static_cast<double>(measures[i].refs) /
               static_cast<double>(measures[i].span);
    rate_sum += rates[i];
    refs_sum += measures[i].refs;
    for (const auto& [name, d] : measures[i].delta) delta_sum[name] += d;
  }
  const double mean = rate_sum / static_cast<double>(n);
  double half = 0.0;
  if (n >= 2) {
    double ss = 0.0;
    for (const double r : rates) ss += (r - mean) * (r - mean);
    const double stddev = std::sqrt(ss / static_cast<double>(n - 1));
    half = TCritical95(n - 1) * stddev / std::sqrt(static_cast<double>(n));
  }
  if (mean > 0.0) {
    est.est_exec_cycles = static_cast<double>(est.total_refs) / mean;
    est.ci_pct = 100.0 * half / mean;
    // Delta method: the CI on 1/rate scales by est/mean.
    est.ci_half_cycles = est.est_exec_cycles * half / mean;
  }
  if (refs_sum > 0) {
    const double scale =
        static_cast<double>(est.total_refs) / static_cast<double>(refs_sum);
    for (const auto& [name, d] : delta_sum) {
      const double scaled = static_cast<double>(d) * scale;
      est.est_stats.Counter(name) = static_cast<std::uint64_t>(
          scaled > 0.0 ? std::llround(scaled) : 0);
    }
  }
  est.est_stats.Counter("sys.exec_cycles") =
      static_cast<std::uint64_t>(std::llround(est.est_exec_cycles));
  est.est_stats.Counter("gauge.sampling.ci_pct") =
      static_cast<std::uint64_t>(std::llround(est.ci_pct));
  est.est_stats.Counter("gauge.sampling.intervals") = est.intervals;
  return est;
}

}  // namespace redcache
