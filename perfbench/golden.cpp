// Golden fidelity table: one line per point, `key<TAB>ms<TAB>checksum`, with
// both numbers as C99 hex floats so they round-trip bit for bit.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>

#include "bench.hpp"

namespace perfbench {

namespace {

double parse_hex(const std::string& s, const std::string& line) {
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (s.empty() || end != s.c_str() + s.size()) {
    throw std::runtime_error("golden: bad number in line: " + line);
  }
  return v;
}

std::string hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

}  // namespace

Golden load_golden(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("golden: cannot open " + path);
  Golden g;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto a = line.find('\t');
    const auto b = a == std::string::npos ? a : line.find('\t', a + 1);
    if (b == std::string::npos) throw std::runtime_error("golden: malformed line: " + line);
    g[line.substr(0, a)] =
        Outcome{parse_hex(line.substr(a + 1, b - a - 1), line), parse_hex(line.substr(b + 1), line)};
  }
  return g;
}

void save_golden(const std::string& path, const Golden& golden) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("golden: cannot write " + path);
  out << "# point key\tvirtual ms\tchecksum (hex floats, serial engine)\n";
  for (const auto& [key, o] : golden) out << key << '\t' << hex(o.ms) << '\t' << hex(o.checksum) << '\n';
}

}  // namespace perfbench
