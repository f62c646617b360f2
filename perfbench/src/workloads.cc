// The three workloads of the repository benchmark. Each is a closed loop of
// rounds over the public facade; one round is one tilt unit (four ticks):
// ingest it, make it visible, then ask the analyst's questions. A run is a
// sequence of epochs (fresh engine, timed set-up, a fixed number of rounds,
// oracle checks) that replay the same stream until the run's time is spent,
// so the state every round sees does not depend on how fast the program is.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <numbers>
#include <optional>
#include <thread>
#include <unordered_map>

#include "bench.h"
#include "regcube/api/regcube.h"
#include "regcube/common/logging.h"

namespace perfbench {
namespace {

using regcube::CellKey;
using regcube::CellResult;
using regcube::CuboidId;
using regcube::Engine;
using regcube::IngestMode;
using regcube::Isb;
using regcube::MLayerTuple;
using regcube::QuerySpec;
using regcube::StreamTuple;
using regcube::TimeTick;

// The analyst's window: the last four quarter units (16 ticks) at level 0.
constexpr int kLevel = 0;
constexpr int kWindow = 4;
constexpr TimeTick kUnitTicks = 4;        // one round = one quarter unit
constexpr TimeTick kHistoryTicks = 128;   // 8 hour units: every level full
constexpr TimeTick kHistorySlice = 16;    // history is ingested hour by hour
constexpr std::size_t kTopN = 10;
constexpr double kExceptionThreshold = 0.05;
constexpr double kTrendThreshold = 0.1;
constexpr std::int64_t kOracleEvery = 20;  // rolling_analyst spot checks
constexpr int kShards = 2;
constexpr int kRoundsPerEpoch = 40;
constexpr int kPointQueries = 50;  // closed-loop kCell per round

struct WorkloadConfig {
  const char* name;
  IngestMode mode;
  int read_threads;
  std::int64_t cells;            // population after the history
  std::int64_t fresh_per_round;  // new keys joining each round
  int hot_every;                 // cell i reports in rounds iff i % it == 0
  std::int64_t budget_bytes;     // fixed absolute budget; 0 = unbounded
  std::int64_t chunk;            // tuples per IngestAsync call (async)
  std::int64_t reader_period_us; // open-loop reader schedule (async)
};

// Schema D3L2C10 throughout; the tilt frame is the uniform quarter/hour
// policy {4, 16} the repo's other benches use.
const WorkloadConfig kWorkloads[] = {
    // Write path with readers beside the writers and no cube work:
    // producer + reader + two shard owners = four busy threads. Chunks of
    // 256 tuples are bench_async_ingest's default; 200 reads/s is the rate
    // measured in perfbench/README.md to give a p99 enough samples without
    // making the reader a load of its own.
    {"ingest_async", IngestMode::kAsync, 1, 10'000, 0, 1, 0, 256, 5000},
    // The §4.5 loop in steady state: every cell reports every round (the
    // window epoch rolls each round) and ~0.5% fresh cells join.
    {"rolling_analyst", IngestMode::kSync, 2, 20'000, 100, 1, 0, 0, 0},
    // 5% hot cells under a fixed 600 kB budget with a cold tier (~25% of
    // the 2.4 MB tracked peak this workload reaches unbounded). Never
    // compacted by hand.
    {"cold_budget", IngestMode::kSync, 2, 1'000, 0, 20, 600'000, 0, 0},
};

std::shared_ptr<const regcube::TiltPolicy> Tilt() {
  return regcube::MakeUniformTiltPolicy({{"quarter", 8}, {"hour", 8}},
                                        {4, 16});
}

/// The synthetic stream: the repo generator's distinct keys, each with a
/// trend z(t) = base + slope*t + 0.5 sin(2*pi*t/8 + phase) + noise. Two
/// cells in 40 get an anomalous slope (half of them among cold_budget's
/// hot cells); a fixed count rather than a random draw, so the exception
/// load does not swing from seed to seed. Readings
/// are made per (cell, tick), so any round can be produced on its own.
class StreamModel {
 public:
  explicit StreamModel(const regcube::WorkloadSpec& spec) : seed_(spec.seed) {
    regcube::StreamGenerator gen(spec);
    regcube::Pcg32 rng(spec.seed, 0x9a7a);
    for (const auto& generated : gen.cells()) {
      Cell c;
      c.key = generated.key;
      c.base = rng.NextDouble() * 10.0;
      const size_t slot = cells_.size() % 40;
      const bool anomalous = slot == 0 || slot == 7;
      const double magnitude = 0.2 + rng.NextDouble() * 0.4;
      const double normal = rng.NextGaussian() * 0.02;
      c.slope = anomalous ? (rng.NextDouble() < 0.5 ? -magnitude : magnitude)
                          : normal;
      c.phase = rng.NextDouble() * 2.0 * std::numbers::pi;
      cells_.push_back(c);
    }
  }

  const CellKey& key(std::int64_t i) const {
    return cells_[static_cast<size_t>(i)].key;
  }

  /// Appends, tick-major, the readings in [t0, t1) of cells [0, population)
  /// with index % hot_every == 0.
  void Append(TimeTick t0, TimeTick t1, std::int64_t population,
              int hot_every, std::vector<StreamTuple>* out) const {
    for (TimeTick t = t0; t < t1; ++t) {
      for (std::int64_t i = 0; i < population; i += hot_every) {
        out->push_back(StreamTuple{key(i), t, Value(i, t)});
      }
    }
  }

 private:
  struct Cell {
    CellKey key;
    double base = 0.0;
    double slope = 0.0;
    double phase = 0.0;
  };

  double Value(std::int64_t i, TimeTick t) const {
    const Cell& c = cells_[static_cast<size_t>(i)];
    std::uint64_t h = seed_ ^
                      (static_cast<std::uint64_t>(i) * 0x9E3779B97F4A7C15ULL) ^
                      (static_cast<std::uint64_t>(t) * 0xC2B2AE3D27D4EB4FULL);
    h ^= h >> 31;
    h *= 0xBF58476D1CE4E5B9ULL;
    h ^= h >> 29;
    const double noise = static_cast<double>(h >> 11) * 0x1.0p-53 - 0.5;
    const double tt = static_cast<double>(t);
    return c.base + c.slope * tt +
           0.5 * std::sin(2.0 * std::numbers::pi * tt / 8.0 + c.phase) +
           0.5 * noise;
  }

  std::uint64_t seed_;
  std::vector<Cell> cells_;
};

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}
bool SameIsb(const Isb& a, const Isb& b) {
  return a.interval == b.interval && SameBits(a.base, b.base) &&
         SameBits(a.slope, b.slope);
}
bool SameCells(const std::vector<CellResult>& a,
               const std::vector<CellResult>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].cuboid != b[i].cuboid || !(a[i].key == b[i].key) ||
        !SameIsb(a[i].isb, b[i].isb) ||
        a[i].is_exception != b[i].is_exception) {
      return false;
    }
  }
  return true;
}
bool SameWindow(const std::vector<MLayerTuple>& a,
                const std::vector<MLayerTuple>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!(a[i].key == b[i].key) || !SameIsb(a[i].measure, b[i].measure)) {
      return false;
    }
  }
  return true;
}
bool SameCellMap(const regcube::CellMap& a, const regcube::CellMap& b) {
  if (a.size() != b.size()) return false;
  for (const auto& [key, isb] : a) {
    auto it = b.find(key);
    if (it == b.end() || !SameIsb(it->second, isb)) return false;
  }
  return true;
}
bool SameCube(const regcube::RegressionCube& a,
              const regcube::RegressionCube& b) {
  if (!SameCellMap(a.m_layer(), b.m_layer()) ||
      !SameCellMap(a.o_layer(), b.o_layer()) ||
      a.exceptions().total_cells() != b.exceptions().total_cells()) {
    return false;
  }
  for (CuboidId c : a.exceptions().Cuboids()) {
    const regcube::CellMap* other = b.exceptions().CellsOf(c);
    if (other == nullptr || !SameCellMap(*a.exceptions().CellsOf(c), *other)) {
      return false;
    }
  }
  return true;
}

/// State shared between the round thread and the open-loop reader.
struct ReaderShared {
  std::atomic<bool> stop{false};
  std::atomic<bool> recording{false};
  std::atomic<std::int64_t> seals{0};
  std::atomic<std::int64_t> round_span{-1};
  std::atomic<std::int64_t> round{-1};
};

class Runner {
 public:
  Runner(const WorkloadConfig& cfg, const Options& opt, Report* report)
      : cfg_(cfg), opt_(opt), report_(report), rounds_(0), reader_rec_(1) {
    regcube::WorkloadSpec spec;
    spec.num_dims = 3;
    spec.num_levels = 2;
    spec.fanout = 10;
    spec.num_tuples = cfg.cells + cfg.fresh_per_round * kRoundsPerEpoch;
    spec.seed = opt.seed;
    auto schema = regcube::MakeWorkloadSchemaPtr(spec);
    RC_CHECK(schema.ok()) << schema.status().ToString();
    schema_ = *schema;
    lattice_ = std::make_unique<regcube::CuboidLattice>(*schema_);
    model_ = std::make_unique<StreamModel>(spec);
    // Every epoch seeds the same history; it is made once, outside every
    // timed region.
    for (TimeTick t0 = 0; t0 < kHistoryTicks; t0 += kHistorySlice) {
      history_.emplace_back();
      model_->Append(t0, t0 + kHistorySlice, cfg.cells, 1, &history_.back());
    }
    spill_root_ = opt.out_dir + "/spill-" + std::to_string(::getpid());
  }

  void Run();

 private:
  void Fail(const std::string& what) {
    if (report_->correct) report_->notes.push_back("CHECK FAILED: " + what);
    report_->correct = false;
  }
  void Check(bool ok, const std::string& what) {
    if (!ok) Fail(what);
  }

  std::optional<Engine> Build(IngestMode mode, int shards, int read_threads,
                              std::int64_t budget,
                              const std::string& spill_dir) {
    regcube::EngineBuilder b;
    b.SetSchema(schema_)
        .SetTiltPolicy(Tilt())
        .SetExceptionPolicy(regcube::ExceptionPolicy(kExceptionThreshold))
        .SetShardCount(shards)
        .SetReadThreads(read_threads)
        .SetIngestMode(mode)
        .SetBackpressure(regcube::BackpressurePolicy::kBlock);
    if (budget > 0) b.SetMemoryBudget(budget).SetSpillDir(spill_dir);
    auto engine = b.Build();
    if (!engine.ok()) return std::nullopt;
    return std::move(engine).value();
  }

  std::int64_t Population(std::int64_t round) const {
    return cfg_.cells + cfg_.fresh_per_round * (round + 1);
  }

  QuerySpec RandomCell(regcube::Pcg32& rng, std::int64_t population,
                       std::optional<CuboidId> cuboid) const {
    const auto c = cuboid.value_or(static_cast<CuboidId>(rng.Uniform(
        static_cast<std::uint32_t>(lattice_->num_cuboids()))));
    const auto i =
        rng.Uniform(static_cast<std::uint32_t>(population));
    return QuerySpec::Cell(c, lattice_->ProjectMLayerKey(model_->key(i), c),
                           kLevel, kWindow);
  }

  void RunEpoch(int epoch, bool traced);
  std::optional<Engine> Setup(const std::string& spill_dir, Engine* oracle);
  void Round(Engine& engine, Engine* oracle, std::int64_t round,
             regcube::Pcg32& rng, ReaderShared* shared, bool traced);
  void ReaderLoop(Engine& engine, ReaderShared& shared, regcube::Pcg32 rng);
  void EndEpoch(Engine& engine, Engine* oracle);
  void Emit(int epochs);

  const WorkloadConfig& cfg_;
  const Options& opt_;
  Report* report_;
  std::shared_ptr<const regcube::CubeSchema> schema_;
  std::unique_ptr<regcube::CuboidLattice> lattice_;
  std::unique_ptr<StreamModel> model_;
  std::string spill_root_;
  std::vector<std::vector<StreamTuple>> history_;  // one slice per hour

  Recorder rounds_;      // timings of the round thread
  Recorder reader_rec_;  // timings of the open-loop reader
  std::int64_t next_round_ = 0;  // round id, unique across epochs

  // End-to-end accumulators.
  Samples setup_s_;
  double visible_tuples_ = 0.0;
  double visible_s_ = 0.0;
  Samples freshness_ms_;
  Samples reader_latency_us_;  // open-loop kCell, timed from when due
  Samples reader_lateness_ms_;
  Samples round_ms_[2];  // untraced, traced epochs

  // Per-epoch engine readings.
  Samples peak_tracked_, memo_bytes_, member_bytes_, peak_disk_;
  Samples blocked_, high_water_, enqueue_p99_us_;
  Samples enforcements_, evicted_bytes_, memo_evictions_, cache_evictions_,
      spill_evictions_, export_evictions_, peak_over_budget_;
  Samples spilled_bytes_, write_amp_, fault_ins_, fault_in_bytes_,
      fault_in_p99_us_, compactions_, garbage_over_live_, io_errors_,
      retries_;
  std::int64_t epoch_disk_peak_ = 0;
  std::int64_t epoch_tuples_ = 0;
  Samples epoch_freshness_ms_;

  // Snapshot provenance over all takes.
  double snap_takes_ = 0, snap_cells_ = 0, snap_materialized_ = 0,
         snap_bytes_copied_ = 0;
};

std::optional<Engine> Runner::Setup(const std::string& spill_dir,
                                   Engine* oracle) {
  // Set-up time: build the engine, seed the history, run the first answer.
  // The region holds only engine calls; the oracle is fed after it.
  const std::int64_t start = NowNs();
  std::optional<Engine> built = Build(cfg_.mode, kShards, cfg_.read_threads,
                                      cfg_.budget_bytes, spill_dir);
  rounds_.Count(built.has_value(), "EngineBuilder::Build");
  if (!built) return std::nullopt;
  Engine& engine = *built;
  for (const auto& slice : history_) {
    if (cfg_.mode == IngestMode::kAsync) {
      const auto ticket = engine.IngestAsync(slice);
      rounds_.Count(ticket.ok() && ticket.dropped == 0 && ticket.rejected == 0,
                    "IngestAsync (history)");
    } else {
      rounds_.Count(engine.IngestBatch(slice).ok(), "IngestBatch (history)");
    }
  }
  rounds_.Count(engine.Flush().ok(), "Flush (history)");
  rounds_.Count(engine.SealThrough(kHistoryTicks - 1).ok(),
                "SealThrough (history)");
  if (cfg_.mode == IngestMode::kAsync) {
    regcube::Pcg32 rng(opt_.seed, 0x5e7);
    const auto answer = engine.Query(
        RandomCell(rng, cfg_.cells, lattice_->o_layer_id()));
    rounds_.Count(answer.ok(), "Query(kCell) (setup)");
  } else {
    const auto top =
        engine.Query(QuerySpec::TopExceptions(kTopN, kLevel, kWindow));
    rounds_.Count(top.ok(), "Query(TopExceptions) (setup)");
  }
  setup_s_.Add(static_cast<double>(NowNs() - start) / 1e9);
  if (oracle != nullptr) {
    for (const auto& slice : history_) {
      Check(oracle->IngestBatch(slice).ok(), "oracle history ingest");
    }
    Check(oracle->SealThrough(kHistoryTicks - 1).ok(), "oracle history seal");
  }
  return built;
}

void Runner::ReaderLoop(Engine& engine, ReaderShared& shared,
                        regcube::Pcg32 rng) {
  const std::int64_t period = cfg_.reader_period_us * 1000;
  const std::int64_t start = NowNs();
  std::int64_t last_seals = shared.seals.load(std::memory_order_acquire);
  for (std::int64_t n = 0; !shared.stop.load(std::memory_order_acquire);
       ++n) {
    const std::int64_t due = start + n * period;
    const QuerySpec spec = RandomCell(rng, cfg_.cells, std::nullopt);
    // Sleep most of the gap, then spin: timer slack would otherwise show
    // up as latency of every read.
    std::int64_t now = NowNs();
    if (due - now > 300'000) {
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(due - now - 200'000));
    }
    while (NowNs() < due) {
    }
    const std::int64_t seals = shared.seals.load(std::memory_order_acquire);
    const bool recording = shared.recording.load(std::memory_order_acquire);
    const std::int64_t t0 = NowNs();
    const auto result = engine.Query(spec);
    const std::int64_t t1 = NowNs();
    reader_rec_.Count(result.ok(), "Query(kCell) (reader)");
    // The first read after a seal is the slow republish path; it is
    // measured on the round thread as first_read_after_seal, not here.
    if (recording && seals == last_seals) {
      reader_latency_us_.Add(static_cast<double>(t1 - due) / 1e3);
      reader_lateness_ms_.Add(static_cast<double>(t0 - due) / 1e6);
      reader_rec_.Record(Layer::kPointQuery, t0, t1,
                         shared.round_span.load(std::memory_order_acquire),
                         shared.round.load(std::memory_order_acquire));
    }
    last_seals = seals;
  }
}

void Runner::Round(Engine& engine, Engine* oracle, std::int64_t round,
                   regcube::Pcg32& rng, ReaderShared* shared, bool traced) {
  const bool async = cfg_.mode == IngestMode::kAsync;
  const TimeTick t0 = kHistoryTicks + round * kUnitTicks;
  const TimeTick unit_end = t0 + kUnitTicks - 1;
  const std::int64_t population = Population(round);

  // Load generation, outside every timed region.
  std::vector<StreamTuple> tuples;
  model_->Append(t0, t0 + kUnitTicks, population, cfg_.hot_every, &tuples);
  std::vector<std::vector<StreamTuple>> chunks;
  if (async) {
    for (size_t off = 0; off < tuples.size();
         off += static_cast<size_t>(cfg_.chunk)) {
      const size_t end =
          std::min(tuples.size(), off + static_cast<size_t>(cfg_.chunk));
      chunks.emplace_back(tuples.begin() + static_cast<std::ptrdiff_t>(off),
                          tuples.begin() + static_cast<std::ptrdiff_t>(end));
    }
  }
  const QuerySpec answer_spec =
      RandomCell(rng, population, lattice_->o_layer_id());
  std::vector<QuerySpec> points;
  for (int q = 0; q < kPointQueries; ++q) {
    points.push_back(RandomCell(rng, population, std::nullopt));
  }
  std::vector<std::optional<Isb>> answers(points.size());
  const std::int64_t id = next_round_++;
  const std::int64_t span = rounds_.NextId();
  if (shared != nullptr) {
    shared->round_span.store(span, std::memory_order_release);
    shared->round.store(id, std::memory_order_release);
  }

  // Ingest the unit and make it visible.
  const std::int64_t first_submit = NowNs();
  if (async) {
    for (const auto& chunk : chunks) {
      const auto ticket = Timed(rounds_, Layer::kSubmit, span, id,
                                [&] { return engine.IngestAsync(chunk); });
      rounds_.Count(
          ticket.ok() && ticket.dropped == 0 && ticket.rejected == 0,
          "IngestAsync");
    }
  } else {
    rounds_.Count(Timed(rounds_, Layer::kIngestBatch, span, id,
                        [&] { return engine.IngestBatch(tuples); })
                      .ok(),
                  "IngestBatch");
  }
  const std::int64_t last_submit = NowNs();
  if (async) {
    rounds_.Count(Timed(rounds_, Layer::kFlush, span, id,
                        [&] { return engine.Flush(); })
                      .ok(),
                  "Flush");
  }
  rounds_.Count(Timed(rounds_, Layer::kSeal, span, id,
                      [&] { return engine.SealThrough(unit_end); })
                    .ok(),
                "SealThrough");
  const std::int64_t visible = NowNs();
  if (shared != nullptr) shared->seals.fetch_add(1, std::memory_order_acq_rel);

  // The analyst's questions. The answer query ends the freshness interval.
  std::shared_ptr<const regcube::CubeSnapshot> snapshot;
  std::optional<regcube::Result<regcube::QueryResult>> top;
  std::optional<Isb> answer;
  std::int64_t answered = 0;
  if (async) {
    const auto r = Timed(rounds_, Layer::kFirstRead, span, id,
                         [&] { return engine.Query(answer_spec); });
    rounds_.Count(r.ok(), "Query(kCell) (answer)");
    if (r.ok()) answer = r->cell();
    answered = NowNs();
  } else {
    snapshot = Timed(rounds_, Layer::kSnapshot, span, id,
                     [&] { return engine.TakeSnapshot(); });
    rounds_.Count(snapshot != nullptr && snapshot->status().ok(),
                  "TakeSnapshot");
    top = Timed(rounds_, Layer::kTopExceptions, span, id, [&] {
      return engine.Query(QuerySpec::TopExceptions(kTopN, kLevel, kWindow));
    });
    rounds_.Count(top->ok(), "Query(TopExceptions)");
    answered = NowNs();
    if (top->ok() && !(*top)->cells().empty()) {
      const CellResult& lead = (*top)->cells().front();
      rounds_.Count(Timed(rounds_, Layer::kDrill, span, id,
                          [&] {
                            return engine.Query(QuerySpec::DrillDown(
                                lead.cuboid, lead.key, kLevel, kWindow));
                          })
                        .ok(),
                    "Query(DrillDown)");
      rounds_.Count(Timed(rounds_, Layer::kDrill, span, id,
                          [&] {
                            return engine.Query(QuerySpec::Supporters(
                                lead.cuboid, lead.key, kLevel, kWindow));
                          })
                        .ok(),
                    "Query(Supporters)");
    }
    rounds_.Count(Timed(rounds_, Layer::kTrendChanges, span, id,
                        [&] {
                          return engine.Query(QuerySpec::TrendChanges(
                              kLevel, kTrendThreshold));
                        })
                      .ok(),
                  "Query(TrendChanges)");
  }
  // None of these is the first read after the seal: that was the answer
  // query on ingest_async, and TakeSnapshot on the sync workloads.
  for (size_t q = 0; q < points.size(); ++q) {
    const auto r = Timed(rounds_, Layer::kPointQuery, span, id,
                         [&] { return engine.Query(points[q]); });
    rounds_.Count(r.ok(), "Query(kCell)");
    if (r.ok()) answers[q] = r->cell();
  }
  const std::int64_t end = NowNs();

  rounds_.AddRoundSpan(span, id, first_submit, end);
  round_ms_[traced ? 1 : 0].Add(static_cast<double>(end - first_submit) /
                                1e6);
  visible_tuples_ += static_cast<double>(tuples.size());
  visible_s_ += static_cast<double>(visible - first_submit) / 1e9;
  freshness_ms_.Add(static_cast<double>(answered - last_submit) / 1e6);
  epoch_freshness_ms_.Add(static_cast<double>(answered - last_submit) / 1e6);
  epoch_tuples_ += static_cast<std::int64_t>(tuples.size());
  if (snapshot != nullptr) {
    const auto& g = snapshot->gather_stats();
    snap_takes_ += 1;
    snap_cells_ += static_cast<double>(g.cells);
    snap_materialized_ += static_cast<double>(g.materialized);
    snap_bytes_copied_ += static_cast<double>(g.bytes_copied);
  }
  if (cfg_.budget_bytes > 0) {
    epoch_disk_peak_ =
        std::max(epoch_disk_peak_, engine.SpillStats().disk_bytes);
  }

  // Oracle engine fed the same round: every answer bit for bit.
  if (oracle != nullptr) {
    Check(oracle->IngestBatch(tuples).ok(), "oracle ingest");
    Check(oracle->SealThrough(unit_end).ok(), "oracle seal");
    if (async) {
      const auto want = oracle->Query(answer_spec);
      Check(want.ok() && answer.has_value() && SameIsb(want->cell(), *answer),
            "answer query differs from the oracle engine");
    }
    for (size_t q = 0; q < points.size(); ++q) {
      const auto want = oracle->Query(points[q]);
      Check(want.ok() && answers[q].has_value() &&
                SameIsb(want->cell(), *answers[q]),
            "point answer differs from the oracle engine");
    }
  }

  // Reference cube: H-cubing from scratch over the snapshot's window. Timed
  // in traced epochs (the rebuild cost top_exceptions is compared with);
  // compared bitwise with the maintained cube on rolling_analyst's
  // spot-check rounds.
  const bool spot = oracle == nullptr && (round + 1) % kOracleEvery == 0;
  if (async || !(traced || spot) || snapshot == nullptr ||
      !snapshot->status().ok()) {
    return;
  }
  auto window = snapshot->Window(kLevel, kWindow);
  Check(window.ok(), "snapshot window");
  if (!window.ok()) return;
  regcube::MoCubingOptions mo;
  mo.policy = regcube::ExceptionPolicy(kExceptionThreshold);
  const std::int64_t c0 = NowNs();
  auto scratch = regcube::ComputeMoCubing(schema_, *window, mo);
  if (traced) rounds_.Record(Layer::kScratchCube, c0, NowNs(), span, id);
  Check(scratch.ok(), "scratch cube");
  if (spot && scratch.ok()) {
    auto maintained = engine.ComputeCube(kLevel, kWindow);
    Check(maintained.ok() && SameCube(*maintained, *scratch),
          "maintained cube differs from scratch H-cubing");
    auto want = regcube::Query(
        *scratch, regcube::ExceptionPolicy(kExceptionThreshold),
        QuerySpec::TopExceptions(kTopN, kLevel, kWindow));
    Check(want.ok() && top->ok() &&
              SameCells(want->cells(), (*top)->cells()),
          "TopExceptions differs from scratch H-cubing");
  }
}

void Runner::EndEpoch(Engine& engine, Engine* oracle) {
  const auto& tracker = engine.memory_tracker();
  peak_tracked_.Add(static_cast<double>(tracker.peak_bytes()));
  memo_bytes_.Add(
      static_cast<double>(tracker.category_peak_bytes("cube.memo")));
  member_bytes_.Add(
      static_cast<double>(tracker.category_peak_bytes("index.members")));
  if (cfg_.mode == IngestMode::kAsync) {
    const auto stats = engine.IngestStats();
    blocked_.Add(static_cast<double>(stats.total.blocked));
    high_water_.Add(static_cast<double>(stats.total.high_water));
    enqueue_p99_us_.Add(stats.total.p99_enqueue_us);
    Check(stats.total.absorb_errors == 0, "absorb errors");
  }
  if (cfg_.budget_bytes > 0) {
    const auto s = engine.SpillStats();
    peak_disk_.Add(static_cast<double>(epoch_disk_peak_));
    enforcements_.Add(static_cast<double>(s.enforcements));
    evicted_bytes_.Add(static_cast<double>(s.evicted_bytes));
    memo_evictions_.Add(static_cast<double>(s.memo_evictions));
    cache_evictions_.Add(static_cast<double>(s.cache_evictions));
    spill_evictions_.Add(static_cast<double>(s.spill_evictions));
    export_evictions_.Add(static_cast<double>(s.export_evictions));
    peak_over_budget_.Add(static_cast<double>(tracker.peak_bytes()) /
                          static_cast<double>(cfg_.budget_bytes));
    spilled_bytes_.Add(static_cast<double>(s.spilled_bytes));
    // User bytes: each ingested tuple's payload (key, tick, value).
    const double user_bytes =
        static_cast<double>(epoch_tuples_) *
        static_cast<double>(sizeof(TimeTick) + sizeof(double) +
                            schema_->num_dims() * sizeof(regcube::ValueId));
    write_amp_.Add(static_cast<double>(s.spilled_bytes) / user_bytes);
    fault_ins_.Add(static_cast<double>(s.fault_ins));
    fault_in_bytes_.Add(static_cast<double>(s.fault_in_bytes));
    fault_in_p99_us_.Add(s.fault_in_p99_us);
    compactions_.Add(static_cast<double>(s.compactions));
    garbage_over_live_.Add(static_cast<double>(s.garbage_bytes) /
                           static_cast<double>(std::max<std::int64_t>(
                               s.live_bytes, 1)));
    io_errors_.Add(static_cast<double>(s.io_errors));
    retries_.Add(static_cast<double>(s.retries));
  }

  // Final answers against the oracle engine, outside any timed region.
  if (oracle != nullptr) {
    const auto spec = QuerySpec::TopExceptions(kTopN, kLevel, kWindow);
    const auto got = engine.Query(spec);
    const auto want = oracle->Query(spec);
    Check(got.ok() && want.ok() && SameCells(got->cells(), want->cells()),
          "final TopExceptions differs from the oracle");
    if (cfg_.mode == IngestMode::kAsync) {
      const auto got_w = engine.TakeSnapshot()->Window(kLevel, kWindow);
      const auto want_w = oracle->TakeSnapshot()->Window(kLevel, kWindow);
      Check(got_w.ok() && want_w.ok() && SameWindow(*got_w, *want_w),
            "final window differs from the sync single-shard oracle");
    }
  }
}

void Runner::RunEpoch(int epoch, bool traced) {
  rounds_.set_tracing(traced);
  reader_rec_.set_tracing(traced);
  epoch_disk_peak_ = 0;
  epoch_tuples_ = 0;
  epoch_freshness_ms_ = Samples();
  const std::string spill_dir =
      spill_root_ + "/epoch-" + std::to_string(epoch);
  // The oracle for ingest_async is a sync single-shard engine; for
  // cold_budget an unbounded one. rolling_analyst checks against scratch
  // H-cubing instead.
  std::optional<Engine> oracle;
  if (cfg_.mode == IngestMode::kAsync || cfg_.budget_bytes > 0) {
    oracle = Build(IngestMode::kSync, 1, 1, 0, "");
    if (!oracle) return Fail("oracle engine build");
  }
  {
    std::optional<Engine> engine =
        Setup(spill_dir, oracle ? &*oracle : nullptr);
    if (!engine) return Fail("engine build");
    // Every epoch replays the same stream, but asks about other cells, so
    // a run's query latencies sample many distinct targets.
    const auto stream = static_cast<std::uint64_t>(epoch);
    regcube::Pcg32 rng(opt_.seed, 0x40 + 2 * stream);
    if (cfg_.mode == IngestMode::kAsync) {
      ReaderShared shared;
      std::thread reader([&] {
        ReaderLoop(*engine, shared,
                   regcube::Pcg32(opt_.seed, 0x41 + 2 * stream));
      });
      shared.recording.store(true, std::memory_order_release);
      for (int r = 0; r < kRoundsPerEpoch; ++r) {
        Round(*engine, &*oracle, r, rng, &shared, traced);
      }
      shared.recording.store(false, std::memory_order_release);
      shared.stop.store(true, std::memory_order_release);
      reader.join();
    } else {
      for (int r = 0; r < kRoundsPerEpoch; ++r) {
        Round(*engine, oracle ? &*oracle : nullptr, r, rng, nullptr, traced);
      }
    }
    EndEpoch(*engine, oracle ? &*oracle : nullptr);
  }  // the engine deletes its spill segments here
  char line[160];
  std::snprintf(line, sizeof(line),
                "epoch %d%s: set-up %.4f s, freshness p50 %.3f ms (n=%lld)",
                epoch, traced ? " (traced)" : "", setup_s_.Last(),
                epoch_freshness_ms_.Median(),
                static_cast<long long>(epoch_freshness_ms_.count()));
  report_->notes.push_back(line);
  std::error_code ec;
  std::filesystem::remove_all(spill_dir, ec);
}

void Runner::Run() {
  // At least three epochs: set-up is reported as a median, and a traced
  // run needs an untraced epoch to measure its own overhead against.
  constexpr int kMinEpochs = 3;
  const std::int64_t start = NowNs();
  int epochs = 0;
  while (report_->correct &&
         (epochs < kMinEpochs ||
          static_cast<double>(NowNs() - start) / 1e9 < opt_.seconds)) {
    // Each epoch drives from a fresh thread, so the scheduler places it
    // anew and a run samples the machine's cores instead of staying on
    // whichever one the process started on.
    std::thread epoch_thread(
        [this, epochs] { RunEpoch(epochs, opt_.trace && epochs % 2 == 1); });
    epoch_thread.join();
    ++epochs;
  }
  std::error_code ec;
  std::filesystem::remove_all(spill_root_, ec);
  Emit(epochs);
}

/// Self time of every span: its duration minus the part of it that child
/// spans on the same thread cover. Returns ms per layer.
std::vector<double> SelfTimeMs(const std::vector<Span>& spans) {
  std::vector<double> self(static_cast<size_t>(Layer::kCount), 0.0);
  std::unordered_map<std::int64_t, std::int64_t> covered;  // round span id
  for (const Span& s : spans) {
    // Children on the round's own thread run one after another inside it,
    // so their durations sum to the covered part. Reader spans run beside
    // the round on another thread and cover none of it.
    if (s.parent < 0 || s.layer == Layer::kScratchCube ||
        s.thread != static_cast<int>(s.parent >> 40)) {
      continue;
    }
    covered[s.parent] += s.end_ns - s.start_ns;
  }
  for (const Span& s : spans) {
    double ns = static_cast<double>(s.end_ns - s.start_ns);
    if (s.layer == Layer::kRound) {
      ns -= static_cast<double>(covered[s.id]);
    }
    self[static_cast<size_t>(s.layer)] += ns / 1e6;
  }
  return self;
}

void Runner::Emit(int epochs) {
  Report& r = *report_;
  const Recorder& d = rounds_;
  auto ms = [&](Layer l) -> const Samples& { return d.samples(l); };
  const bool async = cfg_.mode == IngestMode::kAsync;
  const std::int64_t rounds = d.samples(Layer::kRound).count();

  // ---- end to end
  r.Add("setup_s", setup_s_.Median(), "s", setup_s_.count());
  r.Add("ingest_tuples_per_s",
        visible_s_ > 0 ? visible_tuples_ / visible_s_ : 0.0, "tuples/s",
        rounds);
  r.Add("freshness_ms_p50", freshness_ms_.Percentile(50), "ms",
        freshness_ms_.count());
  r.Add("freshness_ms_p90", freshness_ms_.Percentile(90), "ms",
        freshness_ms_.count());
  const Samples& point_ms = ms(Layer::kPointQuery);
  r.Add("point_query_us_p50", point_ms.Percentile(50) * 1e3, "us",
        point_ms.count());
  r.Add("point_query_us_p99", point_ms.Percentile(99) * 1e3, "us",
        point_ms.count());
  r.Add("peak_tracked_bytes", peak_tracked_.Median(), "bytes",
        peak_tracked_.count());
  r.Add("drill_query_ms_p50", ms(Layer::kDrill).Percentile(50), "ms",
        ms(Layer::kDrill).count());
  r.Add("drill_query_ms_p90", ms(Layer::kDrill).Percentile(90), "ms",
        ms(Layer::kDrill).count());
  r.Add("peak_disk_bytes", peak_disk_.Median(), "bytes", peak_disk_.count());
  const std::int64_t attempted = d.attempted() + reader_rec_.attempted();
  const std::int64_t failed = d.failed() + reader_rec_.failed();
  r.Add("error_rate",
        attempted > 0 ? static_cast<double>(failed) / attempted : 0.0,
        "ratio", attempted);

  // ---- per layer
  auto pct = [&](const std::string& name, const Samples& s, double q,
                 double factor, const char* unit) {
    r.Add(name, s.Percentile(q) * factor, unit, s.count());
  };
  auto median = [&](const std::string& name, const Samples& s,
                    const char* unit) {
    r.Add(name, s.Median(), unit, s.count());
  };
  pct("core.ingest_queue.submit_us_p50", ms(Layer::kSubmit), 50, 1e3, "us");
  pct("core.ingest_queue.submit_us_p99", ms(Layer::kSubmit), 99, 1e3, "us");
  median("core.ingest_queue.blocked_calls", blocked_, "count");
  median("core.ingest_queue.high_water", high_water_, "tuples");
  median("core.ingest_queue.enqueue_p99_us", enqueue_p99_us_, "us");
  pct("core.shard_writer.flush_ms_p50", ms(Layer::kFlush), 50, 1, "ms");
  pct("core.shard_writer.flush_ms_p90", ms(Layer::kFlush), 90, 1, "ms");
  pct("time.seal_ms_p50", ms(Layer::kSeal), 50, 1, "ms");
  pct("time.seal_ms_p90", ms(Layer::kSeal), 90, 1, "ms");
  pct("core.sharded_engine.ingest_batch_ms_p50", ms(Layer::kIngestBatch), 50,
      1, "ms");
  pct("core.sharded_engine.first_read_after_seal_ms_p50",
      ms(Layer::kFirstRead), 50, 1, "ms");
  pct("core.sharded_engine.first_read_after_seal_ms_p90",
      ms(Layer::kFirstRead), 90, 1, "ms");
  pct("core.sharded_engine.snapshot_ms_p50", ms(Layer::kSnapshot), 50, 1,
      "ms");
  pct("core.sharded_engine.snapshot_ms_p90", ms(Layer::kSnapshot), 90, 1,
      "ms");
  const auto takes = static_cast<std::int64_t>(snap_takes_);
  r.Add("core.sharded_engine.materialized_per_take",
        takes > 0 ? snap_materialized_ / snap_takes_ : 0.0, "cells", takes);
  r.Add("core.sharded_engine.bytes_copied_per_take",
        takes > 0 ? snap_bytes_copied_ / snap_takes_ : 0.0, "bytes", takes);
  r.Add("core.sharded_engine.shared_ratio",
        snap_cells_ > 0 ? 1.0 - snap_materialized_ / snap_cells_ : 0.0,
        "ratio", takes);
  pct("core.incremental_cube.top_exceptions_ms_p50",
      ms(Layer::kTopExceptions), 50, 1, "ms");
  pct("core.incremental_cube.top_exceptions_ms_p90",
      ms(Layer::kTopExceptions), 90, 1, "ms");
  median("core.incremental_cube.memo_bytes", memo_bytes_, "bytes");
  pct("htree.scratch_cube_ms_p50", ms(Layer::kScratchCube), 50, 1, "ms");
  median("core.member_index.bytes", member_bytes_, "bytes");
  median("core.memory_governor.enforcements", enforcements_, "count");
  median("core.memory_governor.evicted_bytes", evicted_bytes_, "bytes");
  median("core.memory_governor.memo_evictions", memo_evictions_, "count");
  median("core.memory_governor.cache_evictions", cache_evictions_, "count");
  median("core.memory_governor.spill_evictions", spill_evictions_, "count");
  median("core.memory_governor.export_evictions", export_evictions_, "count");
  median("core.memory_governor.peak_over_budget", peak_over_budget_, "ratio");
  median("io.frame_store.spilled_bytes", spilled_bytes_, "bytes");
  median("io.frame_store.write_amp", write_amp_, "ratio");
  median("io.frame_store.fault_ins", fault_ins_, "count");
  median("io.frame_store.fault_in_bytes", fault_in_bytes_, "bytes");
  median("io.frame_store.fault_in_p99_us", fault_in_p99_us_, "us");
  median("io.frame_store.compactions", compactions_, "count");
  median("io.frame_store.garbage_over_live_end", garbage_over_live_, "ratio");
  median("io.frame_store.io_errors", io_errors_, "count");
  median("io.frame_store.retries", retries_, "count");
  pct("api.reader_latency_us_p50", reader_latency_us_, 50, 1, "us");
  pct("api.reader_latency_us_p99", reader_latency_us_, 99, 1, "us");
  pct("api.reader_lateness_ms_p99", reader_lateness_ms_, 99, 1, "ms");

  // ---- traced run: self time per layer, and what tracing cost
  std::vector<Span> spans = d.spans();
  spans.insert(spans.end(), reader_rec_.spans().begin(),
               reader_rec_.spans().end());
  std::int64_t traced_rounds = 0;
  for (const Span& s : spans) traced_rounds += s.layer == Layer::kRound;
  const std::vector<double> self = SelfTimeMs(spans);
  for (int l = 0; l < static_cast<int>(Layer::kCount); ++l) {
    r.Add(std::string(LayerName(static_cast<Layer>(l))) +
              ".self_ms_per_round",
          traced_rounds > 0 ? self[static_cast<size_t>(l)] / traced_rounds
                            : 0.0,
          "ms", traced_rounds);
  }
  const double untraced = round_ms_[0].Median();
  const double traced = round_ms_[1].Median();
  r.Add("trace.overhead_pct",
        untraced > 0 && traced > 0 ? (traced - untraced) / untraced * 100.0
                                   : 0.0,
        "%", round_ms_[1].count());
  // A percentile needs 10 samples beyond it to be reported as measured.
  for (const Metric& m : r.metrics) {
    const auto at = m.name.rfind("_p");
    if (at == std::string::npos || m.samples == 0 ||
        m.name.find_first_not_of("0123456789", at + 2) != std::string::npos) {
      continue;  // not a percentile the benchmark computed from its samples
    }
    const double q = std::atof(m.name.c_str() + at + 2);
    if (q > 50 && static_cast<double>(m.samples) * (1 - q / 100) < 10) {
      r.notes.push_back("note: " + m.name + " rests on only " +
                        std::to_string(m.samples) + " samples");
    }
  }
  r.spans = std::move(spans);
  r.attempted = attempted;
  r.failed = failed;
  if (failed > 0) {
    Fail("operations failed (first: " +
         (d.first_error().empty() ? reader_rec_.first_error()
                                  : d.first_error()) +
         ")");
  }
  r.notes.push_back(
      std::string("workload ") + cfg_.name + ": " +
      (async ? "async" : "sync") + ", " + std::to_string(kShards) +
      " shards, read pool " + std::to_string(cfg_.read_threads) + ", " +
      std::to_string(cfg_.cells) + " cells (+" +
      std::to_string(cfg_.fresh_per_round) + "/round), hot 1/" +
      std::to_string(cfg_.hot_every) + ", budget " +
      std::to_string(cfg_.budget_bytes) + " B, " + std::to_string(epochs) +
      " epochs x " + std::to_string(kRoundsPerEpoch) + " rounds, seed " +
      std::to_string(opt_.seed));
}

}  // namespace

bool RunWorkload(const Options& options, Report* report, std::string* error) {
  for (const WorkloadConfig& cfg : kWorkloads) {
    if (options.workload == cfg.name) {
      Runner(cfg, options, report).Run();
      return true;
    }
  }
  *error = "unknown workload '" + options.workload + "'";
  return false;
}

}  // namespace perfbench
