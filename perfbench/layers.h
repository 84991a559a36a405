// The benchmark's probes into the join path, built only from public
// interfaces: a DataService decorator between the ParallelInvoker and the
// ClusterClientService, and UDF wrappers for the invoker side and the data
// node side. Each records a span per call while tracing is on.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <atomic>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "joinopt/engine/async_api.h"
#include "result_check.h"
#include "trace.h"

namespace perfbench {

/// Tuple ids travel as the request params (decimal).
inline uint32_t TupleOf(const std::string& params) {
  return static_cast<uint32_t>(std::strtoul(params.c_str(), nullptr, 10));
}

/// Times every DataService verb the invoker calls.
class TimedService : public joinopt::DataService {
 public:
  explicit TimedService(joinopt::DataService* inner) : inner_(inner) {}

  joinopt::StatusOr<Fetched> Fetch(joinopt::Key key) override {
    ScopedSpan span(kFetch, key);
    return inner_->Fetch(key);
  }

  joinopt::StatusOr<std::string> Execute(joinopt::Key key,
                                         const std::string& params,
                                         const joinopt::UserFn& fn) override {
    ScopedSpan span(kExecute, key, TupleOf(params));
    return inner_->Execute(key, params, fn);
  }

  std::vector<joinopt::StatusOr<std::string>> ExecuteBatch(
      const std::vector<std::pair<joinopt::Key, std::string>>& items,
      const joinopt::UserFn& fn) override {
    if (!Tracer::Get().on() || items.empty()) {
      return inner_->ExecuteBatch(items, fn);
    }
    int64_t start = NowNs();
    auto out = inner_->ExecuteBatch(items, fn);
    int64_t end = NowNs();
    Tracer& tracer = Tracer::Get();
    tracer.Record(kBatch, start, end, items.front().first, kNoTuple);
    // Every item waited for the whole batch: one span per item carries the
    // batch interval to that item's tuple for attribution.
    for (const auto& [key, params] : items) {
      tracer.Record(kBatchItem, start, end, key, TupleOf(params));
    }
    return out;
  }

  joinopt::StatusOr<ItemStat> Stat(joinopt::Key key) const override {
    ScopedSpan span(kStat, key);
    return inner_->Stat(key);
  }

  joinopt::NodeId OwnerOf(joinopt::Key key) const override {
    ScopedSpan span(kOwner, key);
    return inner_->OwnerOf(key);
  }

 private:
  joinopt::DataService* inner_;
};

/// The UDF as the invoker runs it (local compute, tc_i).
inline joinopt::UserFn LocalUdf() {
  return [](joinopt::Key key, const std::string& params,
            const std::string& value) {
    ScopedSpan span(kUdfLocal, key, TupleOf(params));
    return Udf(key, params, value);
  };
}

/// The UDF as the data nodes run it (delegated compute, tc_j).
/// `corrupt_remaining` > 0 makes that many results wrong on purpose: the
/// hook the self-test uses to show the result check catches them.
inline joinopt::UserFn RemoteUdf(std::atomic<int>* corrupt_remaining) {
  return [corrupt_remaining](joinopt::Key key, const std::string& params,
                             const std::string& value) {
    ScopedSpan span(kUdfRemote, key, TupleOf(params));
    std::string out = Udf(key, params, value);
    if (corrupt_remaining->load(std::memory_order_relaxed) > 0 &&
        corrupt_remaining->fetch_sub(1) > 0) {
      out[0] = out[0] == '0' ? '1' : '0';
    }
    return out;
  };
}

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
