// Shared helpers for tests that pin fabric results to committed golden
// digests: an FNV-1a-64 hasher, the delivered-log hash every pinned run
// uses, and the golden-file reader.
#pragma once

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "wormhole/network.hpp"

namespace wormsched::wormhole::test {

class Fnv1a64 {
 public:
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xFFu;
      hash_ *= 0x100000001B3ull;
    }
  }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ull;
};

/// Folds the ordered delivered log (its length, then every record's id,
/// flow, source, dest, length, created and delivered) into `h`.
inline void hash_delivered(Fnv1a64& h,
                           const std::vector<DeliveredPacket>& log) {
  h.u64(log.size());
  for (const DeliveredPacket& p : log) {
    h.u64(p.id.value());
    h.u64(p.flow.value());
    h.u64(p.source.value());
    h.u64(p.dest.value());
    h.u64(static_cast<std::uint64_t>(p.length));
    h.u64(p.created);
    h.u64(p.delivered);
  }
}

inline std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

/// Reads a golden file: "<name> <field>..." per line, '#' starts a
/// comment line.  Maps each name to its whitespace-separated fields.
inline std::map<std::string, std::vector<std::string>> load_goldens(
    const char* path) {
  std::map<std::string, std::vector<std::string>> goldens;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name;
    if (!(fields >> name)) continue;
    std::vector<std::string>& out = goldens[name];
    for (std::string field; fields >> field;) out.push_back(field);
  }
  return goldens;
}

}  // namespace wormsched::wormhole::test
