// ShadowChecker — a MemController decorator that cross-checks any concrete
// policy against a functional reference memory model (ref_model.hpp) on
// every read completion and writeback.
//
// Wrap a controller before handing it to the System:
//
//   auto ctrl = MakePolicy("RedCache", cfg);
//   auto checked = std::make_unique<ShadowChecker>(std::move(ctrl));
//
// The checker registers itself as the inner policy's VerifySink, forwards
// all MemController traffic unchanged, and flags
//   * reads that never complete, complete twice, or complete with a
//     different address than submitted,
//   * completions that travel back in time (done < submit cycle),
//   * serves of stale data and lost writes (via the reference model),
//   * writebacks the policy consumed twice or never (RCU-drain bugs).
//
// Policies without verification instrumentation (no hook calls) still get
// the completion-level checks; the semantic checks stay dormant.
//
// In strict mode every divergence throws immediately (best diagnostics
// under a debugger / in a fuzz run); otherwise divergences accumulate and
// are exported under the "verify." stat prefix.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "dramcache/controller.hpp"
#include "verify/ref_model.hpp"

namespace redcache {

class ShadowChecker final : public MemController, public VerifySink {
 public:
  struct Options {
    /// Throw VerifyError at the first divergence instead of accumulating.
    bool strict = false;
    /// Keep at most this many divergence messages (the count is exact).
    std::size_t max_messages = 32;
  };

  struct VerifyError : std::runtime_error {
    using std::runtime_error::runtime_error;
  };

  explicit ShadowChecker(std::unique_ptr<MemController> inner);
  ShadowChecker(std::unique_ptr<MemController> inner, Options options);
  ~ShadowChecker() override;

  // --- MemController (forwarding + interception) --------------------------
  const char* name() const override { return inner_->name(); }
  bool CanAcceptRead() const override { return inner_->CanAcceptRead(); }
  bool CanAcceptWriteback() const override {
    return inner_->CanAcceptWriteback();
  }
  void SubmitRead(Addr addr, std::uint64_t tag, Cycle now) override;
  void SubmitWriteback(Addr addr, Cycle now) override;
  Cycle Tick(Cycle now) override;
  std::vector<ReadCompletion>& read_completions() override {
    return completions_;
  }
  Cycle NextEventHint(Cycle now) const override {
    return inner_->NextEventHint(now);
  }
  void ExportStats(StatSet& stats) const override;
  void SampleTelemetry(StatSet& out) const override {
    inner_->SampleTelemetry(out);
  }
  bool Idle() const override { return inner_->Idle(); }
  void SetVerifySink(VerifySink* sink) override;
  void SetTenantAccounting(tenant::TenantAccounting* acct) override {
    inner_->SetTenantAccounting(acct);
  }
  const MemController* underlying() const override {
    return inner_->underlying();
  }

  // --- VerifySink (events from the inner policy) --------------------------
  void OnFill(Addr block, bool dirty) override;
  void OnCacheWrite(Addr block) override;
  void OnMmWrite(Addr block) override;
  void OnVictimWriteback(Addr block) override;
  void OnInvalidate(Addr block) override;
  void OnServeRead(Addr block, std::uint64_t tag, ServeSource src) override;

  /// Drain-time audit; call after the simulation completed (controller
  /// idle). Verifies no read is still outstanding and no write was lost.
  void CheckDrained();

  /// True once any semantic hook fired (the policy is instrumented).
  bool semantic_checks_active() const { return semantic_active_; }

  std::uint64_t divergence_count() const { return divergence_count_; }
  std::uint64_t reads_checked() const { return reads_checked_; }
  const std::vector<std::string>& divergence_messages() const {
    return messages_;
  }
  /// One-line summary for CLI / log output.
  std::string Summary() const;

  MemController& inner() { return *inner_; }

 private:
  struct OutstandingRead {
    Addr addr = 0;
    Cycle submitted = 0;
    bool served = false;
  };

  void Report(const std::string& what);
  void ValidateCompletions();
  /// Pull divergences the reference model found since the last call.
  void DrainModelDivergences();

  std::unique_ptr<MemController> inner_;
  Options opt_;
  RefMemoryModel model_;
  VerifySink* chained_sink_ = nullptr;  ///< external sink, also notified
  std::unordered_map<std::uint64_t, OutstandingRead> outstanding_;
  std::vector<ReadCompletion> completions_;
  std::vector<std::string> messages_;
  std::uint64_t divergence_count_ = 0;
  std::uint64_t reads_checked_ = 0;
  std::uint64_t writebacks_seen_ = 0;
  std::size_t model_divergences_seen_ = 0;
  /// Wide cache lines (line_blocks > 1) fill neighbours the hooks don't
  /// report; the version model would flag them, so it stays off.
  bool semantic_enabled_ = true;
  bool semantic_active_ = false;
};

}  // namespace redcache
