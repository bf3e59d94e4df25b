#include "cli/options.hpp"

#include <limits>
#include <utility>

#include "cli/parse.hpp"
#include "simcore/error.hpp"

namespace nvms {

Options Options::parse(int argc, char** argv, int first) {
  Options o;
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      std::string key = arg.substr(2);
      require(!key.empty(), "empty option name");
      // --key=value binds inline; a bare "--key=" means the empty value.
      const std::size_t eq = key.find('=');
      if (eq != std::string::npos) {
        o.kv_[key.substr(0, eq)] = key.substr(eq + 1);
      } else if (i + 1 < argc &&
                 std::string(argv[i + 1]).rfind("--", 0) != 0) {
        o.kv_[key] = argv[++i];
      } else {
        o.kv_[key] = "true";  // bare flag
      }
    } else {
      o.positional_.push_back(arg);
    }
  }
  return o;
}

Options Options::from_map(std::map<std::string, std::string> kv,
                          std::vector<std::string> positionals) {
  Options o;
  o.kv_ = std::move(kv);
  o.positional_ = std::move(positionals);
  return o;
}

std::string Options::get(const std::string& key,
                         const std::string& fallback) const {
  touched_[key] = true;
  const auto it = kv_.find(key);
  return it == kv_.end() ? fallback : it->second;
}

int Options::get_int(const std::string& key, int fallback) const {
  touched_[key] = true;
  const auto it = kv_.find(key);
  if (it == kv_.end()) return fallback;
  // parse_long consumes the whole value or rejects it: trailing garbage
  // ("10xyz") and out-of-range values fail instead of truncating.
  const auto v = parse_long(it->second);
  require(v.has_value(),
          "option --" + key + " expects an integer, got '" + it->second +
              "'");
  // Every caller stores an int, so a wider value fails here instead of
  // wrapping in a narrowing cast.
  require(*v >= std::numeric_limits<int>::min() &&
              *v <= std::numeric_limits<int>::max(),
          "option --" + key + " is out of range, got '" + it->second + "'");
  return static_cast<int>(*v);
}

int Options::get_int_at_least(const std::string& key, int fallback,
                              int min) const {
  const int v = get_int(key, fallback);
  require(v >= min, "option --" + key + " must be >= " + std::to_string(min) +
                        ", got " + std::to_string(v));
  return v;
}

double Options::get_double(const std::string& key, double fallback) const {
  touched_[key] = true;
  const auto it = kv_.find(key);
  if (it == kv_.end()) return fallback;
  // Rejects trailing garbage ("1.5q"), inf/nan and out-of-range values —
  // a malformed scale must be a diagnostic, never a silent truncation.
  const auto v = parse_double(it->second);
  require(v.has_value(),
          "option --" + key + " expects a number, got '" + it->second + "'");
  return *v;
}

std::vector<std::string> Options::unused() const {
  std::vector<std::string> out;
  for (const auto& [key, value] : kv_) {
    if (touched_.find(key) == touched_.end()) out.push_back(key);
  }
  return out;
}

}  // namespace nvms
