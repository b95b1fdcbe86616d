// Helpers of the LakeFed benchmark program (perfbench/src/main.cc): order
// statistics, the order-independent answer digest, /proc parsers, the
// clamped derived-metric arithmetic and the host calibration kernel. Kept
// apart from main.cc so perfbench/tests can check them in isolation.

#ifndef LAKEFED_PERFBENCH_HELPERS_H_
#define LAKEFED_PERFBENCH_HELPERS_H_

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "fed/executor.h"

namespace lakefed::perfbench {

// Percentile `p` in [0, 1] with linear interpolation between closest ranks
// (numpy's default). 0 for an empty vector.
double Percentile(std::vector<double> values, double p);
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

// Order-independent fingerprint of an answer multiset: the row count plus
// the wrapping sum of a 64-bit hash of every serialized row. Row order does
// not matter; a missing, extra or changed row does.
struct AnswerDigest {
  uint64_t rows = 0;
  uint64_t hash = 0;
  bool operator==(const AnswerDigest& other) const {
    return rows == other.rows && hash == other.hash;
  }
};

// Digest of `answer.rows` projected on `answer.variables`.
AnswerDigest DigestAnswer(const fed::QueryAnswer& answer);

// Busy clock ticks of all CPUs (user + nice + system + irq + softirq +
// steal) from the aggregate "cpu" line of /proc/stat.
std::optional<uint64_t> ParseProcStatBusy(std::string_view text);

// The integer value of a "Key:  value [kB]" line of /proc/self/status
// (e.g. "Threads", "VmHWM"); nullopt when the key is missing.
std::optional<uint64_t> ParseStatusField(std::string_view text,
                                         std::string_view key);

// The whole file as a string; empty when it cannot be read.
std::string ReadSmallFile(const char* path);

// max(0, total - sum(parts)): derived self-time metrics (decode, mediator,
// other tenants' cores) subtract overlapping measurements and must never
// report negative time.
double ClampedRemainder(double total, std::initializer_list<double> parts);

// A fixed string-map/sort kernel. Its wall time tracks how fast this
// machine currently runs ordinary CPU work; the result is a checksum that
// keeps the work from being optimized away.
uint64_t CalibrationKernel();

// Process and calling-thread CPU time, seconds.
double ProcessCpuSeconds();
double ThreadCpuSeconds();

}  // namespace lakefed::perfbench

#endif  // LAKEFED_PERFBENCH_HELPERS_H_
