// Test-support decorator that injects controller-level faults, so negative
// tests can prove the ShadowChecker actually catches them. Sits *between*
// the checker and the policy:
//
//   ShadowChecker( FaultInjector( MakePolicy(...) ) )
//
// Supported faults:
//   * drop_every_nth_writeback — silently discards every Nth CPU writeback
//     (a lost write; surfaces as an unconsumed pending version at drain),
//   * duplicate_every_nth_completion — replays every Nth read completion
//     (a double completion; surfaces as a not-outstanding tag).
//
// With default Options it injects nothing and only counts Tick calls
// (ticks()), which the skip-ahead gate in tests/sim holds to a ceiling.
//
// Never use outside tests.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>

#include "dramcache/controller.hpp"

namespace redcache {

class FaultInjector final : public MemController {
 public:
  struct Options {
    std::uint64_t drop_every_nth_writeback = 0;      ///< 0 disables
    std::uint64_t duplicate_every_nth_completion = 0;  ///< 0 disables
  };

  FaultInjector(std::unique_ptr<MemController> inner, Options options)
      : inner_(std::move(inner)), opt_(options) {}

  const char* name() const override { return inner_->name(); }
  bool CanAcceptRead() const override { return inner_->CanAcceptRead(); }
  bool CanAcceptWriteback() const override {
    return inner_->CanAcceptWriteback();
  }
  void SubmitRead(Addr addr, std::uint64_t tag, Cycle now) override {
    inner_->SubmitRead(addr, tag, now);
  }
  void SubmitWriteback(Addr addr, Cycle now) override {
    if (opt_.drop_every_nth_writeback != 0 &&
        ++writebacks_ % opt_.drop_every_nth_writeback == 0) {
      dropped_writebacks_++;
      return;  // the write vanishes
    }
    inner_->SubmitWriteback(addr, now);
  }
  Cycle Tick(Cycle now) override {
    ticks_++;
    const Cycle wake = inner_->Tick(now);
    if (opt_.duplicate_every_nth_completion != 0) {
      auto& done = inner_->read_completions();
      const std::size_t n = done.size();
      for (std::size_t i = 0; i < n; ++i) {
        if (++completions_ % opt_.duplicate_every_nth_completion == 0) {
          duplicated_completions_++;
          done.push_back(done[i]);
        }
      }
    }
    return wake;
  }
  std::vector<ReadCompletion>& read_completions() override {
    return inner_->read_completions();
  }
  Cycle NextEventHint(Cycle now) const override {
    return inner_->NextEventHint(now);
  }
  void ExportStats(StatSet& stats) const override {
    inner_->ExportStats(stats);
  }
  bool Idle() const override { return inner_->Idle(); }
  void SetVerifySink(VerifySink* sink) override {
    inner_->SetVerifySink(sink);
  }
  const MemController* underlying() const override {
    return inner_->underlying();
  }

  std::uint64_t ticks() const { return ticks_; }
  std::uint64_t dropped_writebacks() const { return dropped_writebacks_; }
  std::uint64_t duplicated_completions() const {
    return duplicated_completions_;
  }

 private:
  std::unique_ptr<MemController> inner_;
  Options opt_;
  std::uint64_t ticks_ = 0;
  std::uint64_t writebacks_ = 0;
  std::uint64_t completions_ = 0;
  std::uint64_t dropped_writebacks_ = 0;
  std::uint64_t duplicated_completions_ = 0;
};

}  // namespace redcache
