#include "core/env.hpp"

#include <cctype>
#include <charconv>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace bsmp::core {

namespace {

bool iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (std::tolower(static_cast<unsigned char>(a[i])) != b[i]) return false;
  return true;
}

/// The variable's value; nullptr when unset or empty.
const char* env_value(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' ? v : nullptr;
}

[[noreturn]] void malformed(const char* name, const char* v,
                            const std::string& expected) {
  throw std::invalid_argument(std::string(name) + "='" + v + "': expected " +
                              expected);
}

}  // namespace

std::optional<bool> parse_bool(std::string_view v) {
  if (iequals(v, "0") || iequals(v, "off") || iequals(v, "false")) return false;
  if (iequals(v, "1") || iequals(v, "on") || iequals(v, "true")) return true;
  return std::nullopt;
}

std::optional<std::int64_t> parse_int(std::string_view v, std::int64_t lo,
                                      std::int64_t hi) {
  std::int64_t out = 0;
  const char* end = v.data() + v.size();
  const auto [ptr, ec] = std::from_chars(v.data(), end, out);
  if (v.empty() || ec != std::errc{} || ptr != end || out < lo || out > hi)
    return std::nullopt;
  return out;
}

bool env_bool(const char* name, bool fallback) {
  const char* v = env_value(name);
  if (v == nullptr) return fallback;
  if (auto b = parse_bool(v)) return *b;
  malformed(name, v, "0/off/false or 1/on/true");
}

std::int64_t env_int(const char* name, std::int64_t fallback, std::int64_t lo,
                     std::int64_t hi) {
  const char* v = env_value(name);
  if (v == nullptr) return fallback;
  if (auto n = parse_int(v, lo, hi)) return *n;
  malformed(name, v,
            "an integer in [" + std::to_string(lo) + ", " +
                std::to_string(hi) + "]");
}

}  // namespace bsmp::core
