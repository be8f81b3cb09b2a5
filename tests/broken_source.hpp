#pragma once

#include <optional>
#include <string>

#include "workload/source.hpp"

namespace procsim::testing {

/// A one-job Source that breaks the peek contract: peek_arrival() promises a
/// 1x1 job at t = 5, and next_job() then returns a job arriving at
/// `job_arrival`, or nothing when that is nullopt. With job_arrival == 5 it
/// keeps the contract (the control case).
class BrokenSource final : public workload::Source {
 public:
  explicit BrokenSource(std::optional<double> job_arrival) : job_arrival_(job_arrival) {}

  [[nodiscard]] const std::string& name() const noexcept override { return name_; }
  void reset(std::uint64_t /*seed*/) override { served_ = false; }
  [[nodiscard]] std::optional<double> peek_arrival() override {
    if (served_) return std::nullopt;
    return 5.0;
  }
  [[nodiscard]] std::optional<workload::Job> next_job() override {
    served_ = true;
    if (!job_arrival_) return std::nullopt;
    workload::Job job;
    job.arrival = *job_arrival_;
    return job;
  }

 private:
  std::string name_{"broken"};
  std::optional<double> job_arrival_;
  bool served_{false};
};

}  // namespace procsim::testing
