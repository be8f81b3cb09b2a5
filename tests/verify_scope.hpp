#pragma once

#include "util/verify.hpp"

namespace procsim::testing {

/// Sets the process-wide verification switch for one scope and restores the
/// previous value on exit, so a test's setting never leaks into the next.
class VerifyScope {
 public:
  explicit VerifyScope(bool on) : saved_(util::verify_enabled()) { util::set_verify(on); }
  ~VerifyScope() { util::set_verify(saved_); }
  VerifyScope(const VerifyScope&) = delete;
  VerifyScope& operator=(const VerifyScope&) = delete;

 private:
  bool saved_;
};

}  // namespace procsim::testing
