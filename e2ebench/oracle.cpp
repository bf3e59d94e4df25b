// Golden-output oracle: FNV-1a digests of every output the benchmark
// produces, committed in golden.txt and checked on every op.
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "bench.hpp"

namespace e2e {

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h) {
  for (const char c : bytes) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001B3ull;
  }
  return h;
}

std::uint64_t digest_doubles(const std::vector<double>& values) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (const double v : values) {
    char bits[sizeof v];
    std::memcpy(bits, &v, sizeof v);
    h = fnv1a(std::string_view(bits, sizeof bits), h);
  }
  return h;
}

bool Oracle::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string key;
    std::string hex;
    if (!(fields >> key >> hex) || hex.size() != 16) return false;
    golden_[key] = std::strtoull(hex.c_str(), nullptr, 16);
  }
  return true;
}

bool Oracle::save(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "# e2ebench golden digests: <workload/input/item> <fnv1a64>\n"
         "# Regenerate with: python3 e2ebench/run.py --record-golden\n";
  for (const auto& [key, digest] : golden_) {
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016" PRIx64, digest);
    out << key << ' ' << hex << '\n';
  }
  return static_cast<bool>(out);
}

bool Oracle::check(const std::string& key, std::uint64_t digest) {
  if (recording_) {
    golden_[key] = digest;
    return true;
  }
  const auto it = golden_.find(key);
  return it != golden_.end() && it->second == digest;
}

void Oracle::corrupt() {
  for (auto& [key, digest] : golden_) digest ^= 1;
}

}  // namespace e2e
