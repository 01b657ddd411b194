// Sample summaries for the benchmark report: every timing is printed as a
// median and a tail percentile together with its sample count, and every
// ratio together with its numerator and denominator.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Summary {
  size_t n = 0;
  double p50 = 0;
  double p99 = 0;
};

/// Nearest-rank percentile of `samples` (q in [0, 1]); 0 when empty.
/// Sorts `samples` in place.
double Percentile(std::vector<double>& samples, double q);

/// p50/p99 and count of `samples` (sorted in place).
Summary Summarize(std::vector<double>& samples);

/// Median of `values` (by value; 0 when empty).
double Median(std::vector<double> values);

/// num / den, or 0 when den is 0.
double Ratio(double num, double den);

/// "name n=… p50=… p99=… unit" — p99 is flagged when fewer than ten
/// samples lie beyond it (n < 1000).
std::string FormatSummary(const std::string& name, const Summary& s, const std::string& unit);

/// "name = num/den = ratio".
std::string FormatRatio(const std::string& name, double num, double den);

/// Counter deltas after − before for every key present in `after`.
std::map<std::string, double> Delta(const std::map<std::string, double>& before,
                                    const std::map<std::string, double>& after);

/// Sum of `key` over several STATS maps (missing keys count 0).
double SumKey(const std::vector<std::map<std::string, double>>& maps, const std::string& key);

}  // namespace perfbench
