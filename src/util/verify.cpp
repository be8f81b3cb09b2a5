#include "util/verify.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

namespace procsim::util {
namespace {

std::atomic<bool>& flag() noexcept {
  static std::atomic<bool> on{[]() noexcept {
    try {
      return parse_verify(std::getenv("PROCSIM_VERIFY"));
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      std::exit(2);
    }
  }()};
  return on;
}

}  // namespace

bool parse_verify(const char* value) {
  if (value == nullptr || std::strcmp(value, "") == 0 || std::strcmp(value, "0") == 0)
    return false;
  if (std::strcmp(value, "1") == 0) return true;
  throw std::invalid_argument("PROCSIM_VERIFY must be 0 or 1 (got '" +
                              std::string(value) + "')");
}

bool verify_enabled() noexcept { return flag().load(std::memory_order_relaxed); }

void set_verify(bool on) noexcept { flag().store(on, std::memory_order_relaxed); }

}  // namespace procsim::util
