// Span recorder for the traced run: every timed call into a layer becomes a
// span (name, start, end, thread, tuple key, tuple id) in a per-thread
// in-memory buffer, plus an uncapped per-thread histogram of its duration.
// Nothing is recorded while tracing is off, so the untraced run pays one
// relaxed atomic load per call.
//
// Spans are capped (kSpanCap) so a fast workload cannot exhaust memory;
// histograms and counts are never capped, so per-layer latencies cover the
// whole traced phase even when spans stop early.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "joinopt/common/histogram.h"

namespace perfbench {

/// One name per timed call site. Order fixes the column of the histogram
/// arrays; kNames gives the printed name.
enum SpanName : uint8_t {
  kSubmit,        // ParallelInvoker::SubmitComp (feeder)
  kFetchComp,     // ParallelInvoker::FetchComp (feeder)
  kFetch,         // DataService::Fetch (invoker -> cluster client)
  kExecute,       // DataService::Execute
  kBatch,         // DataService::ExecuteBatch, one call
  kBatchItem,     // one item of an ExecuteBatch call (carries its tuple id)
  kStat,          // DataService::Stat
  kOwner,         // DataService::OwnerOf
  kPut,           // ClusterClientService::Put service time (writer)
  kUdfLocal,      // UDF run by an invoker worker or the feeder
  kUdfRemote,     // UDF run by a data node's RpcServer
  kNumSpanNames,
};

inline constexpr std::array<const char*, kNumSpanNames> kNames = {
    "engine.submit", "engine.fetchcomp", "cluster.fetch",
    "cluster.execute", "cluster.batch", "cluster.batch_item",
    "cluster.stat", "cluster.owner", "cluster.put",
    "udf.local", "udf.remote"};

inline constexpr uint32_t kNoTuple = 0xffffffffu;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t key = 0;
  uint32_t tuple = kNoTuple;
  uint16_t thread = 0;
  uint8_t name = 0;
};

/// Bucket bounds, in microseconds, for span durations: 0.1 us to 10 s,
/// 5% apart.
inline const std::vector<double>& DurationBoundsUs() {
  static const std::vector<double> bounds = [] {
    std::vector<double> b;
    for (double us = 0.1; us < 1e7; us *= 1.05) b.push_back(us);
    return b;
  }();
  return bounds;
}

/// One duration histogram (microseconds) per span name.
using SpanHists = std::vector<joinopt::Histogram>;

inline SpanHists MakeSpanHists() {
  return SpanHists(kNumSpanNames, joinopt::Histogram(DurationBoundsUs()));
}

class Tracer {
 public:
  /// Spans kept in memory across all threads (32 bytes each).
  static constexpr int64_t kSpanCap = 3'000'000;

  static Tracer& Get() {
    static Tracer tracer;
    return tracer;
  }

  bool on() const { return on_.load(std::memory_order_relaxed); }
  void set_on(bool on) { on_.store(on, std::memory_order_seq_cst); }

  void Record(SpanName name, int64_t start_ns, int64_t end_ns, uint64_t key,
              uint32_t tuple) {
    ThreadBuf& buf = Local();
    std::lock_guard<std::mutex> lock(buf.mu);
    buf.hists[name].Observe(static_cast<double>(end_ns - start_ns) * 1e-3);
    if (spans_.fetch_add(1, std::memory_order_relaxed) < kSpanCap) {
      buf.spans.push_back(Span{start_ns, end_ns, key, tuple, buf.id,
                               static_cast<uint8_t>(name)});
    } else {
      ++buf.dropped;
    }
  }

  /// Per-name histograms merged across threads. Call once the traced
  /// phase is over.
  SpanHists MergedHists() const {
    SpanHists out = MakeSpanHists();
    std::lock_guard<std::mutex> lock(registry_mu_);
    for (const auto& buf : bufs_) {
      std::lock_guard<std::mutex> buf_lock(buf->mu);
      for (int i = 0; i < kNumSpanNames; ++i) out[i].Merge(buf->hists[i]);
    }
    return out;
  }

  std::vector<Span> AllSpans() const {
    std::vector<Span> out;
    std::lock_guard<std::mutex> lock(registry_mu_);
    for (const auto& buf : bufs_) {
      std::lock_guard<std::mutex> buf_lock(buf->mu);
      out.insert(out.end(), buf->spans.begin(), buf->spans.end());
    }
    return out;
  }

  int64_t dropped() const {
    int64_t n = 0;
    std::lock_guard<std::mutex> lock(registry_mu_);
    for (const auto& buf : bufs_) {
      std::lock_guard<std::mutex> buf_lock(buf->mu);
      n += buf->dropped;
    }
    return n;
  }

  int threads() const {
    std::lock_guard<std::mutex> lock(registry_mu_);
    return static_cast<int>(bufs_.size());
  }

  /// Writes `spans` as TSV; false when the file cannot be written.
  static bool WriteTsv(const std::vector<Span>& spans,
                       const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "name\tstart_ns\tend_ns\tthread\tkey\ttuple\n");
    for (const Span& s : spans) {
      std::fprintf(f, "%s\t%lld\t%lld\t%u\t%llu\t%lld\n", kNames[s.name],
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<unsigned>(s.thread),
                   static_cast<unsigned long long>(s.key),
                   s.tuple == kNoTuple ? -1LL
                                       : static_cast<long long>(s.tuple));
    }
    return std::fclose(f) == 0;
  }

 private:
  struct ThreadBuf {
    std::mutex mu;  // owner thread writes, the report reads after the run
    uint16_t id = 0;
    std::vector<Span> spans;
    SpanHists hists = MakeSpanHists();
    int64_t dropped = 0;
  };

  ThreadBuf& Local() {
    // Buffers are owned by the registry, not the thread: server connection
    // threads exit before the report reads them.
    thread_local ThreadBuf* local = nullptr;
    if (local == nullptr) {
      auto buf = std::make_unique<ThreadBuf>();
      std::lock_guard<std::mutex> lock(registry_mu_);
      buf->id = static_cast<uint16_t>(bufs_.size());
      local = buf.get();
      bufs_.push_back(std::move(buf));
    }
    return *local;
  }

  std::atomic<bool> on_{false};
  std::atomic<int64_t> spans_{0};
  mutable std::mutex registry_mu_;
  std::vector<std::unique_ptr<ThreadBuf>> bufs_;
};

/// Times one call when tracing is on: `ScopedSpan s(kFetch, key);`.
class ScopedSpan {
 public:
  ScopedSpan(SpanName name, uint64_t key, uint32_t tuple = kNoTuple)
      : name_(name), key_(key), tuple_(tuple),
        start_ns_(Tracer::Get().on() ? NowNs() : -1) {}
  ~ScopedSpan() {
    if (start_ns_ >= 0) {
      Tracer::Get().Record(name_, start_ns_, NowNs(), key_, tuple_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanName name_;
  uint64_t key_;
  uint32_t tuple_;
  int64_t start_ns_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
