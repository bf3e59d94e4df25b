// Tiny command-line option parser for the nvmsim driver: positional
// command + `--key value` / `--flag` pairs, with typed accessors and
// unknown-option detection.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace nvms {

class Options {
 public:
  /// Parse argv after the command word.  Throws ConfigError on malformed
  /// input ("--key" at the end expecting a value is treated as a flag).
  static Options parse(int argc, char** argv, int first = 1);

  /// Build an option set directly from key/value pairs and positionals —
  /// the entry point for non-argv frontends (the nvmsimd request layer
  /// maps a JSON request's fields onto the same accessors the CLI uses,
  /// so both paths share one validation story).  Flag-like keys should
  /// map to "true", matching what parse() stores for a bare `--flag`.
  static Options from_map(std::map<std::string, std::string> kv,
                          std::vector<std::string> positionals);

  const std::vector<std::string>& positional() const { return positional_; }
  bool has(const std::string& key) const { return kv_.count(key) > 0; }

  std::string get(const std::string& key, const std::string& fallback) const;
  /// Integer option; throws ConfigError naming the option on a malformed
  /// value or one outside `int`, so no caller narrows it.
  int get_int(const std::string& key, int fallback) const;
  /// As get_int, but rejects values below `min` (range validation for
  /// count-like options such as --jobs / --threads).
  int get_int_at_least(const std::string& key, int fallback, int min) const;
  double get_double(const std::string& key, double fallback) const;

  /// Keys the program never asked about (typo detection).
  std::vector<std::string> unused() const;

 private:
  std::vector<std::string> positional_;
  std::map<std::string, std::string> kv_;
  mutable std::map<std::string, bool> touched_;
};

}  // namespace nvms
