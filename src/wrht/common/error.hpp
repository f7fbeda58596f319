// Error types for the WRHT library.
//
// Invalid configurations (e.g. a group size larger than the ring, or a
// schedule whose RWA needs more wavelengths than the fiber carries) are
// reported with exceptions derived from wrht::Error so callers can
// distinguish library failures from std:: failures.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

namespace wrht {

/// Base class of all library errors.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// A caller-supplied parameter is outside its valid domain.
class InvalidArgument : public Error {
 public:
  explicit InvalidArgument(const std::string& what) : Error(what) {}
};

/// A communication schedule cannot be realised on the given network
/// (wavelength exhaustion, conflicting lightpaths, unroutable flow, ...).
class InfeasibleSchedule : public Error {
 public:
  explicit InfeasibleSchedule(const std::string& what) : Error(what) {}
};

/// The optical power budget or BER constraint cannot be met.
class ConstraintViolation : public Error {
 public:
  explicit ConstraintViolation(const std::string& what) : Error(what) {}
};

/// Throws InvalidArgument with `message` unless `condition` holds. A
/// literal message costs nothing when the check passes; a composed one is
/// still built before the call, so checks inside per-transfer or per-event
/// loops spell out `if (!ok) throw InvalidArgument(...)` instead.
inline void require(bool condition, std::string_view message) {
  if (!condition) throw InvalidArgument(std::string(message));
}

}  // namespace wrht
