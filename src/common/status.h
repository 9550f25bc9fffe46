// Status / Result<T>: lightweight error propagation in the RocksDB idiom.
// Core library code does not throw exceptions on hot paths; fallible
// operations return a Status (or Result<T> when they produce a value).

#ifndef ISA_COMMON_STATUS_H_
#define ISA_COMMON_STATUS_H_

#include <cassert>
#include <optional>
#include <string>
#include <utility>

namespace isa {

/// Error category for a failed operation.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kOutOfRange,
  kFailedPrecondition,
  kResourceExhausted,
  kInternal,
  kIOError,
};

/// Returns a stable human-readable name for a StatusCode ("OK",
/// "InvalidArgument", ...).
const char* StatusCodeName(StatusCode code);

/// Outcome of a fallible operation: a code plus an optional message.
/// Cheap to copy in the OK case (empty message string).
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(StatusCode::kIOError, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  Status(StatusCode code, std::string msg)
      : code_(code), message_(std::move(msg)) {}

  StatusCode code_;
  std::string message_;
};

/// A value or an error. `ok()` implies the value is present.
template <typename T>
class Result {
 public:
  /*implicit*/ Result(T value) : value_(std::move(value)) {}
  /*implicit*/ Result(Status status) : status_(std::move(status)) {
    assert(!status_.ok() && "Result(Status) requires a non-OK status");
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  /// Precondition: ok().
  const T& value() const& {
    assert(ok());
    return *value_;
  }
  T& value() & {
    assert(ok());
    return *value_;
  }
  T&& value() && {
    assert(ok());
    return std::move(*value_);
  }

  /// Returns the value, or `fallback` if this holds an error.
  T value_or(T fallback) const& { return ok() ? *value_ : std::move(fallback); }

 private:
  Status status_;
  std::optional<T> value_;
};

}  // namespace isa

/// Propagates a non-OK Status to the caller.
#define ISA_RETURN_IF_ERROR(expr)              \
  do {                                         \
    ::isa::Status _isa_status = (expr);        \
    if (!_isa_status.ok()) return _isa_status; \
  } while (0)

#endif  // ISA_COMMON_STATUS_H_
