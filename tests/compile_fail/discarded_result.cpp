// Must not compile: a discarded Result. parse_port carries no attribute of
// its own, so the error comes from `class [[nodiscard]] Result`
// (common/result.hpp) under -Werror=unused-result.
#include "common/result.hpp"

namespace {

gmmcs::Result<int> parse_port(int raw) {
  if (raw <= 0 || raw > 65535) return gmmcs::fail<int>("port out of range");
  return raw;
}

}  // namespace

void discard_a_parse() { parse_port(5060); }
