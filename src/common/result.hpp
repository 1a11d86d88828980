// Lightweight Result<T> for wire-data parsing.
//
// Error-handling policy (see DESIGN.md §6): exceptions signal programmer or
// configuration errors; malformed *network input* is expected data and is
// reported through Result so callers are forced to handle it.
#pragma once

#include <stdexcept>
#include <string>
#include <utility>
#include <variant>

namespace gmmcs {

/// Error payload: a human-readable reason.
struct Error {
  std::string message;
};

/// Either a value or an Error. Accessing value() on an error throws
/// std::logic_error — by that point it *is* a programming mistake.
template <class T>
class [[nodiscard]] Result {
 public:
  Result(T value) : v_(std::move(value)) {}  // NOLINT(google-explicit-constructor)
  Result(Error err) : v_(std::move(err)) {}  // NOLINT(google-explicit-constructor)

  [[nodiscard]] bool ok() const { return std::holds_alternative<T>(v_); }
  explicit operator bool() const { return ok(); }

  [[nodiscard]] const T& value() const& {
    if (!ok()) throw std::logic_error("Result::value() on error: " + error().message);
    return std::get<T>(v_);
  }
  [[nodiscard]] T&& value() && {
    if (!ok()) throw std::logic_error("Result::value() on error: " + error().message);
    return std::get<T>(std::move(v_));
  }
  [[nodiscard]] const Error& error() const {
    return std::get<Error>(v_);
  }

 private:
  std::variant<T, Error> v_;
};

/// Convenience maker: fail<T>("reason").
template <class T>
[[nodiscard]] Result<T> fail(std::string message) {
  return Result<T>{Error{std::move(message)}};
}

}  // namespace gmmcs
