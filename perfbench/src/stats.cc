#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double Percentile(std::vector<double>& samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  const size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

Summary Summarize(std::vector<double>& samples) {
  Summary s;
  s.n = samples.size();
  s.p50 = Percentile(samples, 0.50);
  s.p99 = Percentile(samples, 0.99);
  return s;
}

double Median(std::vector<double> values) { return Percentile(values, 0.5); }

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

std::string FormatSummary(const std::string& name, const Summary& s, const std::string& unit) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%-28s n=%-8zu p50=%.3f p99=%.3f %s%s", name.c_str(), s.n, s.p50,
                s.p99, unit.c_str(), s.n < 1000 ? " (p99 has <10 samples beyond it)" : "");
  return buf;
}

std::string FormatRatio(const std::string& name, double num, double den) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%-28s %.0f/%.0f = %.4f", name.c_str(), num, den,
                Ratio(num, den));
  return buf;
}

std::map<std::string, double> Delta(const std::map<std::string, double>& before,
                                    const std::map<std::string, double>& after) {
  std::map<std::string, double> out;
  for (const auto& [key, value] : after) {
    const auto it = before.find(key);
    out[key] = value - (it == before.end() ? 0 : it->second);
  }
  return out;
}

double SumKey(const std::vector<std::map<std::string, double>>& maps, const std::string& key) {
  double total = 0;
  for (const auto& m : maps) {
    const auto it = m.find(key);
    if (it != m.end()) total += it->second;
  }
  return total;
}

}  // namespace perfbench
