#pragma once

#include <stdexcept>
#include <string>

namespace rtsm {

/// Base exception for all errors raised by the rtsm library.
///
/// Thrown for contract violations and malformed models (e.g. inconsistent
/// CSDF phase vectors, unknown tile names). Expected run-time failures such
/// as "no feasible mapping exists" are reported through result types, not
/// exceptions.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Throws rtsm::Error with @p message when @p condition is false.
inline void require(bool condition, const std::string& message) {
  if (!condition) throw Error(message);
}

/// Literal-message overload: no std::string is materialized on the
/// passing path. The resource-state mutators sit on the admission hot
/// path (commits and mappers run them thousands of times per second),
/// where even an SSO construction per check is measurable.
inline void require(bool condition, const char* message) {
  if (!condition) throw Error(message);
}

}  // namespace rtsm
