// Result reporting shared by every workload.
//
// Each workload fills a Report: its end-to-end metrics (untraced run)
// or its per-layer metrics (traced run), each with a unit and a sample
// count (all are measured: wall clock on real threads), plus
// attempted/failed operation
// counts. print() writes one human-readable line per metric and then,
// as the last line of standard output, the JSON result object.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 1;
};

struct Report {
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  // human-readable context lines
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // one line per failed check

  void add(std::string name, double value, std::string unit,
           std::size_t samples = 1) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit),
                             samples});
  }
  void note(std::string line) { notes.push_back(std::move(line)); }

  /// Count one checked operation; a false `ok` is a failure.
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (failures.size() < 32) failures.push_back(what);
    }
  }
  /// Count `n` operations of which `bad` failed.
  void count(std::uint64_t n, std::uint64_t bad, const std::string& what) {
    attempted += n;
    failed += bad;
    if (bad != 0 && failures.size() < 32)
      failures.push_back(what + ": " + std::to_string(bad) + " failed");
  }

  void print() const;
};

/// Median of `v` (0 when empty). Takes a copy: callers keep order.
double median(std::vector<double> v);
/// Nearest-rank percentile, p in [0, 100].
double percentile(std::vector<double> v, double p);

/// "name: min .. p25 .. median .. p75 .. max (n=N) unit" for a sample.
std::string spread_line(const std::string& name, const std::vector<double>& v,
                        const std::string& unit);

/// Peak resident set size of this process, in MB (2^20 bytes).
double peak_rss_mb();

/// FNV-1a fold of one 64-bit value into `h`.
inline std::uint64_t fold(std::uint64_t h, std::uint64_t v) noexcept {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 0x100000001B3ull;
  }
  return h;
}
inline constexpr std::uint64_t kFnvBasis = 0xCBF29CE484222325ull;

}  // namespace perfbench
