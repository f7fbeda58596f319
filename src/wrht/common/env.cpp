#include "wrht/common/env.hpp"

#include <cstdlib>

#include "wrht/common/error.hpp"
#include "wrht/common/json.hpp"
#include "wrht/common/log.hpp"

namespace wrht {

unsigned thread_count_from_env(const char* name, unsigned fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr) return fallback;
  try {
    const std::uint64_t parsed = json::parse_u64(env);
    if (parsed > 0 && parsed <= kMaxEnvThreads) {
      return static_cast<unsigned>(parsed);
    }
  } catch (const InvalidArgument&) {
    // Not a decimal integer: warn below like any out-of-range value.
  }
  WRHT_LOG_WARN << name << "='" << env << "' is not a positive integer (max "
                << kMaxEnvThreads << "); falling back to " << fallback;
  return fallback;
}

}  // namespace wrht
