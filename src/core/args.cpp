#include "core/args.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>

#include "core/expect.hpp"

namespace bsmp::core {

Args::Args(int argc, const char* const* argv,
           const std::vector<std::string>& known_flags) {
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a.rfind("--", 0) != 0) {
      positional_.push_back(a);
      continue;
    }
    std::string name = a.substr(2);
    std::string value;
    bool has_value = false;
    auto eq = name.find('=');
    if (eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
      has_value = true;
    }
    bool is_flag = std::find(known_flags.begin(), known_flags.end(), name) !=
                   known_flags.end();
    if (is_flag) {
      flags_.push_back(name);
      if (has_value) values_[name] = value;
      continue;
    }
    if (!has_value) {
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        value = argv[++i];
        has_value = true;
      }
    }
    if (has_value)
      values_[name] = value;
    else
      unknown_.push_back(name);
  }
}

bool Args::has(const std::string& name) const {
  return values_.contains(name) ||
         std::find(flags_.begin(), flags_.end(), name) != flags_.end();
}

std::optional<std::string> Args::get(const std::string& name) const {
  auto it = values_.find(name);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::string Args::get_string(const std::string& name,
                             const std::string& fallback) const {
  return get(name).value_or(fallback);
}

std::int64_t Args::get_int(const std::string& name,
                           std::int64_t fallback) const {
  auto v = get(name);
  if (!v) return fallback;
  char* end = nullptr;
  errno = 0;
  long long r = std::strtoll(v->c_str(), &end, 10);
  BSMP_REQUIRE_MSG(!v->empty() && *end == '\0' && errno != ERANGE,
                   "--" << name << " expects an integer, got '" << *v << "'");
  return static_cast<std::int64_t>(r);
}

double Args::get_double(const std::string& name, double fallback) const {
  auto v = get(name);
  if (!v) return fallback;
  char* end = nullptr;
  errno = 0;
  double r = std::strtod(v->c_str(), &end);
  BSMP_REQUIRE_MSG(!v->empty() && *end == '\0' && errno != ERANGE,
                   "--" << name << " expects a number, got '" << *v << "'");
  return r;
}

bool Args::get_flag(const std::string& name) const {
  return std::find(flags_.begin(), flags_.end(), name) != flags_.end();
}

}  // namespace bsmp::core
