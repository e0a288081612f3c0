// Error hierarchy for the hpfnt library.
//
// The model layer distinguishes conformance violations (a program breaks a
// rule of the language model, e.g. redistributing a non-DYNAMIC array) from
// mapping errors (an index falls outside a domain) and directive errors
// (syntax/semantic problems in the front end). All derive from HpfError so
// callers can catch the whole family.
#pragma once

#include <stdexcept>
#include <string>

namespace hpfnt {

/// Root of the hpfnt exception family.
class HpfError : public std::runtime_error {
 public:
  explicit HpfError(const std::string& what) : std::runtime_error(what) {}
};

/// An HpfError with an optional source location (1-based line/column;
/// 0 = unknown). Core-model code throws without a location; the directive
/// front end (Binder::apply, Interpreter::exec_node) re-attaches the
/// offending node's line on the way out, so script-level callers — and the
/// static analyzer — can always point at the source. `message()` is the
/// raw text without the location prefix `what()` gains once located.
class LocatedError : public HpfError {
 public:
  int line() const noexcept { return line_; }
  int column() const noexcept { return column_; }
  bool located() const noexcept { return line_ > 0; }
  const std::string& message() const noexcept { return message_; }

 protected:
  LocatedError(const char* kind, const std::string& what, int line,
               int column);

 private:
  std::string message_;
  int line_;
  int column_;
};

/// A rule of the language model was violated (paper §2.4 constraints,
/// DYNAMIC requirements, rank mismatches, skew alignments, ...).
class ConformanceError : public LocatedError {
 public:
  explicit ConformanceError(const std::string& what, int line = 0,
                            int column = 0)
      : LocatedError("conformance error", what, line, column) {}
};

/// An index, coordinate or subscript triplet is outside the domain it was
/// used with, or malformed (a zero stride).
class MappingError : public LocatedError {
 public:
  explicit MappingError(const std::string& what, int line = 0,
                        int column = 0)
      : LocatedError("mapping error", what, line, column) {}
};

/// Lexical, syntactic, or binding problem in a !HPF$ directive or script.
class DirectiveError : public HpfError {
 public:
  DirectiveError(const std::string& what, int line, int column);
  int line() const noexcept { return line_; }
  int column() const noexcept { return column_; }

 private:
  int line_;
  int column_;
};

/// Internal invariant failure; indicates a bug in hpfnt itself.
class InternalError : public HpfError {
 public:
  explicit InternalError(const std::string& what) : HpfError(what) {}
};

/// Throws InternalError with a uniform message when `cond` is false.
void require(bool cond, const char* message);

}  // namespace hpfnt
