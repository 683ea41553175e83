#include "report.h"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t i = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

std::string spread_line(const std::string& name, const std::vector<double>& v,
                        const std::string& unit) {
  char line[256];
  std::snprintf(line, sizeof line,
                "%s: min %.6g  p25 %.6g  median %.6g  p75 %.6g  max %.6g %s "
                "(n=%zu)",
                name.c_str(), percentile(v, 0), percentile(v, 25), median(v),
                percentile(v, 75), percentile(v, 100), unit.c_str(),
                v.size());
  return line;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void Report::print() const {
  for (const auto& line : notes) std::printf("  %s\n", line.c_str());
  for (const auto& m : metrics)
    std::printf("metric %-34s = %.6g %s (n=%zu, measured)\n",
                m.name.c_str(), m.value, m.unit.c_str(), m.samples);
  for (const auto& f : failures) std::printf("FAILED %s\n", f.c_str());
  std::printf("failed_share = %llu/%llu = %.6g\n",
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted),
              attempted == 0 ? 1.0
                             : static_cast<double>(failed) /
                                   static_cast<double>(attempted));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              failed == 0 && attempted > 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& m = metrics[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), v, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace perfbench
