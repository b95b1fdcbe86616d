#include "helpers.h"

#include <time.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>

namespace lakefed::perfbench {

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank =
      std::clamp(p, 0.0, 1.0) * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

namespace {

// Stable 64-bit hash: FNV-1a followed by a splitmix finalizer.
uint64_t HashRow(std::string_view row) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : row) {
    h ^= c;
    h *= 1099511628211ull;
  }
  h += 0x9e3779b97f4a7c15ull;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
  return h ^ (h >> 31);
}

double ClockSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

AnswerDigest DigestAnswer(const fed::QueryAnswer& answer) {
  AnswerDigest digest;
  std::string row_text;
  for (const rdf::Binding& row : answer.rows) {
    row_text.clear();
    for (const std::string& var : answer.variables) {
      auto it = row.find(var);
      row_text += it == row.end() ? std::string("~unbound~")
                                  : it->second.ToString();
      row_text.push_back('\x1f');
    }
    digest.hash += HashRow(row_text);  // commutative on purpose
    ++digest.rows;
  }
  return digest;
}

std::optional<uint64_t> ParseProcStatBusy(std::string_view text) {
  // The aggregate line: "cpu  user nice system idle iowait irq softirq
  // steal guest guest_nice" (guest time is already inside user).
  if (text.substr(0, 4) != "cpu ") return std::nullopt;
  std::string line(text.substr(0, text.find('\n')));
  uint64_t f[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  const int n = std::sscanf(line.c_str() + 4,
                            "%" SCNu64 " %" SCNu64 " %" SCNu64 " %" SCNu64
                            " %" SCNu64 " %" SCNu64 " %" SCNu64 " %" SCNu64,
                            &f[0], &f[1], &f[2], &f[3], &f[4], &f[5], &f[6],
                            &f[7]);
  if (n < 4) return std::nullopt;
  return f[0] + f[1] + f[2] + f[5] + f[6] + f[7];
}

std::optional<uint64_t> ParseStatusField(std::string_view text,
                                         std::string_view key) {
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string_view::npos) end = text.size();
    std::string_view line = text.substr(pos, end - pos);
    if (line.size() > key.size() && line.substr(0, key.size()) == key &&
        line[key.size()] == ':') {
      std::string value(line.substr(key.size() + 1));
      char* parse_end = nullptr;
      const unsigned long long v = std::strtoull(value.c_str(), &parse_end, 10);
      if (parse_end == value.c_str()) return std::nullopt;
      return static_cast<uint64_t>(v);
    }
    pos = end + 1;
  }
  return std::nullopt;
}

std::string ReadSmallFile(const char* path) {
  std::string out;
  std::FILE* f = std::fopen(path, "r");
  if (f == nullptr) return out;
  char buf[4096];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

double ClampedRemainder(double total, std::initializer_list<double> parts) {
  for (double part : parts) total -= part;
  return std::max(0.0, total);
}

uint64_t CalibrationKernel() {
  // 4k pseudo-random keys from a fixed LCG: map inserts and lookups, then
  // a sort — the allocation- and comparison-heavy mix the engine runs.
  // About 4 ms of CPU.
  uint64_t state = 0x2545f4914f6cdd1dull;
  std::vector<std::string> keys;
  keys.reserve(4000);
  for (int i = 0; i < 4000; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    keys.push_back("key");
    keys.back() += std::to_string(state >> 40);
  }
  std::map<std::string, uint64_t> counts;
  for (const std::string& key : keys) ++counts[key];
  uint64_t checksum = counts.size();
  for (const std::string& key : keys) checksum += counts.find(key)->second;
  std::sort(keys.begin(), keys.end());
  checksum += keys.front().size() + keys.back().size();
  return checksum;
}

double ProcessCpuSeconds() { return ClockSeconds(CLOCK_PROCESS_CPUTIME_ID); }
double ThreadCpuSeconds() { return ClockSeconds(CLOCK_THREAD_CPUTIME_ID); }

}  // namespace lakefed::perfbench
