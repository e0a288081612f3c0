#include "support/error.hpp"

namespace hpfnt {

namespace {
std::string locate(const char* kind, const std::string& what, int line,
                   int column) {
  if (line <= 0) return what;
  return std::string(kind) + " at " + std::to_string(line) + ":" +
         std::to_string(column) + ": " + what;
}
}  // namespace

LocatedError::LocatedError(const char* kind, const std::string& what,
                           int line, int column)
    : HpfError(locate(kind, what, line, column)),
      message_(what),
      line_(line),
      column_(column) {}

DirectiveError::DirectiveError(const std::string& what, int line, int column)
    : HpfError(locate("directive error", what, line, column)),
      line_(line),
      column_(column) {}

void require(bool cond, const char* message) {
  if (!cond) throw InternalError(std::string("internal invariant: ") + message);
}

}  // namespace hpfnt
