// The benchmark's join: seeded values, the UDF both sides run, and the
// checker that compares every tuple's result with the UDF applied to a
// reference value for its key.
//
// The UDF is f'(k, p, v) = hex(Digest(k, v)) + "/" + p. The digest loops
// over the value kUdfRounds times so the UDF has a measurable cost (the
// paper's tc); p is the tuple id, so the echo proves the result belongs to
// the tuple that asked for it. The checker precomputes the digest of every
// seeded value, so a check costs a parse and a lookup, not a second UDF
// run on the feeder thread.
#ifndef PERFBENCH_RESULT_CHECK_H_
#define PERFBENCH_RESULT_CHECK_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "joinopt/common/hash.h"

namespace perfbench {

inline constexpr int kUdfRounds = 48;

/// `bytes` deterministic bytes drawn from `stream`.
inline std::string MakeValue(uint64_t stream, size_t bytes) {
  std::string out(bytes, '\0');
  for (size_t i = 0; i < bytes; i += 8) {
    uint64_t word = joinopt::Mix64(stream + 0x9E3779B97F4A7C15ULL * (i + 1));
    std::memcpy(out.data() + i, &word, std::min<size_t>(8, bytes - i));
  }
  return out;
}

/// The value seeded for `key` under `seed`.
inline std::string SeedValue(uint64_t seed, uint64_t key, size_t bytes) {
  return MakeValue(joinopt::Mix64(seed) ^ joinopt::Mix64(key), bytes);
}

/// The value of the `n`-th write (n >= 1) the writer sends for `key`.
inline std::string WriteValue(uint64_t seed, uint64_t key, uint64_t n,
                              size_t bytes) {
  return MakeValue(joinopt::Mix64(seed ^ 0x57a1e5ULL) ^
                       joinopt::Mix64(key * 0x100000001b3ULL + n),
                   bytes);
}

inline uint64_t Digest(uint64_t key, const std::string& value) {
  uint64_t h = joinopt::Mix64(key ^ 0xd1b54a32d192ed03ULL);
  for (int r = 0; r < kUdfRounds; ++r) {
    for (size_t i = 0; i < value.size(); i += 8) {
      uint64_t word = 0;
      std::memcpy(&word, value.data() + i,
                  std::min<size_t>(8, value.size() - i));
      h = joinopt::Mix64(h ^ word);
    }
  }
  return h;
}

/// The join UDF both the invoker and the data nodes run.
inline std::string Udf(uint64_t key, const std::string& params,
                       const std::string& value) {
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(Digest(key, value)));
  std::string out(hex, 16);
  out += '/';
  out += params;
  return out;
}

/// The digest a result carries, when the result has the UDF's exact shape
/// (16 lowercase hex digits, '/', then `params`); nullopt otherwise.
inline std::optional<uint64_t> ResultDigest(const std::string& result,
                                            const std::string& params) {
  if (result.size() != 17 + params.size() || result[16] != '/' ||
      result.compare(17, std::string::npos, params) != 0) {
    return std::nullopt;
  }
  uint64_t digest = 0;
  for (int i = 0; i < 16; ++i) {
    char c = result[static_cast<size_t>(i)];
    int nibble = c >= '0' && c <= '9'   ? c - '0'
                 : c >= 'a' && c <= 'f' ? c - 'a' + 10
                                        : -1;
    if (nibble < 0) return std::nullopt;
    digest = (digest << 4) | static_cast<uint64_t>(nibble);
  }
  return digest;
}

/// Reference results. Keys [0, num_keys) hold their seeded value until a
/// write replaces it; the writer records each write's digest *before* it
/// sends the Put, so any value a reader can observe is already known here.
/// A check is a parse and two lookups, so its cost does not grow with a
/// key's write history. Thread-safe: the writer records while the feeder
/// checks.
class ResultChecker {
 public:
  /// Digests the seeded values on `threads` threads.
  ResultChecker(uint64_t seed, uint64_t num_keys, size_t value_bytes,
                int threads = 1)
      : seeded_(num_keys) {
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([this, seed, num_keys, value_bytes, t, threads] {
        for (uint64_t k = static_cast<uint64_t>(t); k < num_keys;
             k += static_cast<uint64_t>(threads)) {
          seeded_[k] = Digest(k, SeedValue(seed, k, value_bytes));
        }
      });
    }
    for (std::thread& th : pool) th.join();
  }

  void RecordWrite(uint64_t key, uint64_t digest) {
    Stripe& stripe = StripeFor(key);
    std::lock_guard<std::mutex> lock(stripe.mu);
    stripe.written[key].insert(digest);
  }

  /// True when `result` is the UDF applied to a value seeded or written
  /// for `key`, with this tuple's params.
  bool Matches(uint64_t key, const std::string& params,
               const std::string& result) const {
    if (key >= seeded_.size()) return false;
    std::optional<uint64_t> digest = ResultDigest(result, params);
    if (!digest) return false;
    if (*digest == seeded_[key]) return true;
    Stripe& stripe = StripeFor(key);
    std::lock_guard<std::mutex> lock(stripe.mu);
    auto it = stripe.written.find(key);
    return it != stripe.written.end() && it->second.count(*digest) > 0;
  }

 private:
  struct Stripe {
    std::mutex mu;
    /// Digests of the values written per key (written keys only).
    std::unordered_map<uint64_t, std::unordered_set<uint64_t>> written;
  };

  Stripe& StripeFor(uint64_t key) const {
    return stripes_[joinopt::Mix64(key) % stripes_.size()];
  }

  std::vector<uint64_t> seeded_;
  mutable std::array<Stripe, 64> stripes_;
};

}  // namespace perfbench

#endif  // PERFBENCH_RESULT_CHECK_H_
