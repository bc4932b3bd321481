// The BSMP_* environment knobs, parsed one way: a boolean takes
// 0/off/false or 1/on/true (any ASCII case), an integer a whole decimal
// number in the knob's range. Unset or empty means the default; any
// other value throws std::invalid_argument naming the variable.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string_view>

namespace bsmp::core {

inline constexpr std::int64_t kInt64Max =
    std::numeric_limits<std::int64_t>::max();

/// The pure parsers behind env_bool / env_int; nullopt when malformed.
std::optional<bool> parse_bool(std::string_view v);
std::optional<std::int64_t> parse_int(std::string_view v, std::int64_t lo,
                                      std::int64_t hi = kInt64Max);

bool env_bool(const char* name, bool fallback);
std::int64_t env_int(const char* name, std::int64_t fallback,
                     std::int64_t lo = 0, std::int64_t hi = kInt64Max);

}  // namespace bsmp::core
