#ifndef PERFBENCH_SRC_BENCH_H_
#define PERFBENCH_SRC_BENCH_H_

// Measurement plumbing of the repository benchmark: latency samples with
// their counts, one stopwatch per facade call that doubles as the span
// recorder of the traced run, failure accounting, and the named metrics a
// run reports.

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"

namespace perfbench {

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The calls the benchmark times. Each name is the prefix of the per-layer
/// metrics it feeds, and the span name in the traced run.
enum class Layer : int {
  kRound,            // one tilt unit: ingest, make visible, ask
  kSubmit,           // IngestAsync of one chunk
  kFlush,            // Flush before the seal
  kSeal,             // SealThrough
  kIngestBatch,      // sync IngestBatch of the whole unit
  kSnapshot,         // TakeSnapshot
  kFirstRead,        // ingest_async's answer kCell, the first read after
                     // the seal (on the sync workloads that is TakeSnapshot)
  kTopExceptions,    // Query(TopExceptions)
  kDrill,            // Query(DrillDown) and Query(Supporters)
  kTrendChanges,     // Query(TrendChanges)
  kPointQuery,       // Query(kCell), never the first read after a seal
  kScratchCube,      // ComputeMoCubing over the snapshot window (traced)
  kCount,
};

inline constexpr std::array<const char*, static_cast<int>(Layer::kCount)>
    kLayerNames = {
        "api.round",
        "core.ingest_queue.submit",
        "core.shard_writer.flush",
        "time.seal",
        "core.sharded_engine.ingest_batch",
        "core.sharded_engine.snapshot",
        "core.sharded_engine.first_read_after_seal",
        "core.incremental_cube.top_exceptions",
        "api.drill",
        "api.trend_changes",
        "api.point_query",
        "htree.scratch_cube",
};

inline const char* LayerName(Layer layer) {
  return kLayerNames[static_cast<size_t>(layer)];
}

/// A sample of one quantity, kept whole so any percentile can be read off.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  std::int64_t count() const {
    return static_cast<std::int64_t>(values_.size());
  }

  /// Nearest-rank percentile (q in [0, 100]); 0 for an empty sample.
  double Percentile(double q) const {
    std::vector<double> sorted = values_;
    std::sort(sorted.begin(), sorted.end());
    return regcube::bench::PercentileOfSorted(sorted, q);
  }
  double Median() const { return Percentile(50.0); }
  double Last() const { return values_.empty() ? 0.0 : values_.back(); }

 private:
  std::vector<double> values_;
};

/// One recorded span of the traced run. `parent` is the id of the round
/// span that caused it (-1 for round spans); spans of one round share
/// `round`.
struct Span {
  Layer layer = Layer::kRound;
  std::int64_t id = 0;
  std::int64_t parent = -1;
  std::int64_t round = -1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int thread = 0;
};

/// Per-thread timing state: one stopwatch sample vector per layer, the
/// span log when tracing, and the failure counts. Owned by one thread and
/// read by others only after that thread has joined.
class Recorder {
 public:
  explicit Recorder(int thread) : thread_(thread) {}

  void set_tracing(bool on) { tracing_ = on; }

  /// Records one timed call of `layer` (sample in ms) under `round`.
  void Record(Layer layer, std::int64_t start_ns, std::int64_t end_ns,
              std::int64_t round_span, std::int64_t round) {
    samples_[static_cast<size_t>(layer)].Add(
        static_cast<double>(end_ns - start_ns) / 1e6);
    if (tracing_) {
      spans_.push_back(Span{layer, NextId(), round_span, round, start_ns,
                            end_ns, thread_});
    }
  }

  /// Reserves the id of a round span whose end is not known yet.
  std::int64_t NextId() { return (std::int64_t{thread_} << 40) | next_id_++; }

  void AddRoundSpan(std::int64_t id, std::int64_t round, std::int64_t start_ns,
                    std::int64_t end_ns) {
    samples_[static_cast<size_t>(Layer::kRound)].Add(
        static_cast<double>(end_ns - start_ns) / 1e6);
    if (tracing_) {
      spans_.push_back(
          Span{Layer::kRound, id, -1, round, start_ns, end_ns, thread_});
    }
  }

  /// Counts one facade operation; a false `ok` is a failure.
  void Count(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      if (first_error_.empty()) first_error_ = what;
    }
  }

  const Samples& samples(Layer layer) const {
    return samples_[static_cast<size_t>(layer)];
  }
  const std::vector<Span>& spans() const { return spans_; }
  std::int64_t attempted() const { return attempted_; }
  std::int64_t failed() const { return failed_; }
  const std::string& first_error() const { return first_error_; }

 private:
  int thread_;
  bool tracing_ = false;
  std::int64_t next_id_ = 0;
  std::array<Samples, static_cast<size_t>(Layer::kCount)> samples_;
  std::vector<Span> spans_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  std::string first_error_;
};

/// Times `fn()` as one call of `layer` and returns its result.
template <typename Fn>
auto Timed(Recorder& rec, Layer layer, std::int64_t round_span,
           std::int64_t round, Fn&& fn) {
  const std::int64_t start = NowNs();
  auto result = fn();
  rec.Record(layer, start, NowNs(), round_span, round);
  return result;
}

/// One reported number: its name, value, unit, and how many samples it
/// summarises (1 for a counter read once, the epoch count for per-epoch
/// medians).
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::int64_t samples = 0;
};

/// Everything one run produced.
struct Report {
  std::vector<Metric> metrics;
  std::vector<Span> spans;
  std::vector<std::string> notes;  // human-readable lines (config, checks)
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;

  void Add(std::string name, double value, std::string unit,
           std::int64_t samples) {
    metrics.push_back(
        Metric{std::move(name), value, std::move(unit), samples});
  }
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;  // scratch: spill dirs, the span file
};

/// Runs one named workload; false `report->correct` marks a failed oracle
/// check. Returns false (with a message in `error`) for an unknown name.
bool RunWorkload(const Options& options, Report* report, std::string* error);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_BENCH_H_
