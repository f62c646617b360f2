// The storage tier's degradation contracts under injected I/O faults: a
// failing spill write leaves the cell resident and counts a typed error
// (never loses data); a failing cold read surfaces as a typed Unavailable
// from the query that needed it (never aborts, never a wrong answer); a
// failing compaction rename is counted and leaves the old segment intact;
// and a budget the full eviction ladder cannot reach degrades ingest to
// typed ResourceExhausted rejects under the kReject backpressure policy.
// Every fault here is deterministic (FaultInjector), so each test drives
// the exact syscall it claims to and observes the degraded path from the
// public API only.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "regcube/api/regcube.h"
#include "regcube/io/fault_injector.h"
#include "equivalence_harness.h"
#include "test_util.h"

namespace regcube {
namespace {

using equivalence::ChurnWorkload;
using equivalence::SmallTiltPolicy;

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::remove(CheckpointManifestPath(dir).c_str());
  for (int i = 0; i < 16; ++i) {
    std::remove(CheckpointShardFilePath(dir, i).c_str());
    std::remove((dir + "/spill-" + std::to_string(i) + ".rcs").c_str());
  }
  return dir;
}

// ------------------------------------------------------------ the injector

TEST(FaultInjectorTest, NthAndEveryFireDeterministically) {
  FaultInjector inj;
  // Unarmed: everything passes.
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(inj.Check(FaultOp::kWrite).ok());
  EXPECT_EQ(inj.injected_failures(), 0);

  inj.Reset();
  inj.FailNth(FaultOp::kWrite, 3);
  EXPECT_TRUE(inj.Check(FaultOp::kWrite).ok());
  EXPECT_TRUE(inj.Check(FaultOp::kWrite).ok());
  const Status third = inj.Check(FaultOp::kWrite);
  EXPECT_EQ(third.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(inj.Check(FaultOp::kWrite).ok());  // one-shot: recovers
  // Other ops are independent.
  EXPECT_TRUE(inj.Check(FaultOp::kRead).ok());
  EXPECT_EQ(inj.injected_failures(), 1);
  EXPECT_EQ(inj.injected_failures(FaultOp::kWrite), 1);
  EXPECT_EQ(inj.injected_failures(FaultOp::kRead), 0);

  inj.Reset();
  inj.FailNth(FaultOp::kRead, 2, /*repeat=*/true);
  EXPECT_TRUE(inj.Check(FaultOp::kRead).ok());
  EXPECT_FALSE(inj.Check(FaultOp::kRead).ok());
  EXPECT_FALSE(inj.Check(FaultOp::kRead).ok());  // stays broken

  inj.Reset();
  inj.FailEvery(FaultOp::kMmap, 2);
  int failed = 0;
  for (int i = 0; i < 6; ++i) failed += inj.Check(FaultOp::kMmap).ok() ? 0 : 1;
  EXPECT_EQ(failed, 3);
}

// --------------------------------------------------------- degraded spills

TEST(SpillFaultTest, FailedSpillKeepsCellsResidentAndCounts) {
  WorkloadSpec spec = ChurnWorkload(/*tuples=*/80, /*ticks=*/16, /*seed=*/91);
  StreamGenerator gen(spec);
  FaultInjector inj;

  EngineBuilder builder;
  builder.SetSchema(*MakeWorkloadSchemaPtr(spec))
      .SetTiltPolicy(SmallTiltPolicy())
      .SetExceptionPolicy(ExceptionPolicy(0.02))
      .SetShardCount(2)
      .SetMemoryBudget(1)  // permanently over: every write enforces
      .SetSpillDir(FreshDir("fault_spill_degrade"))
      .SetFaultInjector(&inj);
  auto built = builder.Build();
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  Engine engine = std::move(built).value();
  ASSERT_TRUE(engine.IngestBatch(gen.GenerateStream()).ok());
  ASSERT_TRUE(engine.SealThrough(spec.series_length - 1).ok());

  // Break the disk completely, then keep writing. Spill attempts must be
  // retried, then abandoned — no new block lands on disk (spilled_blocks
  // is the monotone ever-written counter; spilled_cells would also drop
  // as the churn faults cold cells back in) and every ingest still
  // succeeds (kBlock default: budget overshoot absorbs).
  const std::int64_t blocks_before = engine.SpillStats().spilled_blocks;
  inj.Reset();
  inj.FailEvery(FaultOp::kWrite, 1);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(
        engine.Ingest({gen.cells()[i].key, spec.series_length, 0.5}).ok());
  }
  const SpillStats broken = engine.SpillStats();
  EXPECT_EQ(broken.spilled_blocks, blocks_before);
  EXPECT_GT(broken.io_errors, 0);
  EXPECT_GT(broken.retries, 0);
  EXPECT_GT(inj.injected_failures(FaultOp::kWrite), 0);

  // Degradation, not data loss: every cell still answers.
  auto snap = engine.TakeSnapshot();
  ASSERT_TRUE(snap->status().ok()) << snap->status().ToString();
  auto window = snap->Window(0, 4);
  ASSERT_TRUE(window.ok()) << window.status().ToString();
  EXPECT_EQ(snap->num_cells(), static_cast<std::int64_t>(gen.cells().size()));

  // The disk recovers: spilling resumes on the next enforcement points.
  inj.Reset();
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(
        engine.Ingest({gen.cells()[i].key, spec.series_length + 1, 0.25})
            .ok());
  }
  EXPECT_GT(engine.SpillStats().spilled_blocks, blocks_before);
}

// ------------------------------------------------------ typed cold misses

TEST(FaultInTest, ColdReadFailureIsTypedUnavailable) {
  WorkloadSpec spec = ChurnWorkload(/*tuples=*/100, /*ticks=*/16,
                                    /*seed=*/92);
  StreamGenerator gen(spec);
  const auto stream = gen.GenerateStream();

  EngineBuilder builder;
  builder.SetSchema(*MakeWorkloadSchemaPtr(spec))
      .SetTiltPolicy(SmallTiltPolicy())
      .SetExceptionPolicy(ExceptionPolicy(0.02))
      .SetShardCount(2);

  // Oracle for the recovered answers.
  auto oracle = builder.Build();
  ASSERT_TRUE(oracle.ok());
  ASSERT_TRUE(oracle->IngestBatch(stream).ok());
  ASSERT_TRUE(oracle->SealThrough(spec.series_length - 1).ok());
  auto oracle_window = oracle->TakeSnapshot()->Window(0, 4);
  ASSERT_TRUE(oracle_window.ok()) << oracle_window.status().ToString();

  FaultInjector inj;
  auto built = builder.SetMemoryBudget(1)
                   .SetSpillDir(FreshDir("fault_in_typed"))
                   .SetFaultInjector(&inj)
                   .Build();
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  Engine engine = std::move(built).value();
  ASSERT_TRUE(engine.IngestBatch(stream).ok());
  ASSERT_TRUE(engine.SealThrough(spec.series_length - 1).ok());
  ASSERT_GT(engine.SpillStats().spilled_cells, 0);

  // Every cold read now fails: the snapshot's gather needs the spilled
  // cells, so its queries must surface the typed Unavailable — no abort,
  // no partial answer.
  inj.Reset();
  inj.FailEvery(FaultOp::kRead, 1);
  auto broken_snap = engine.TakeSnapshot();
  auto broken_window = broken_snap->Window(0, 4);
  ASSERT_FALSE(broken_window.ok());
  EXPECT_EQ(broken_window.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(broken_snap->Query(QuerySpec::TopExceptions(5, 0, 4))
                .status()
                .code(),
            StatusCode::kUnavailable);
  EXPECT_GT(inj.injected_failures(FaultOp::kRead), 0);

  // The disk recovers: a fresh snapshot faults the cells in and answers
  // bit-identically to the all-RAM oracle (the failed gather cached
  // nothing, so nothing stale survives the outage).
  inj.Reset();
  auto snap = engine.TakeSnapshot();
  ASSERT_TRUE(snap->status().ok()) << snap->status().ToString();
  auto window = snap->Window(0, 4);
  ASSERT_TRUE(window.ok()) << window.status().ToString();
  ASSERT_EQ(window->size(), oracle_window->size());
  for (size_t i = 0; i < window->size(); ++i) {
    EXPECT_EQ((*window)[i].key, (*oracle_window)[i].key);
    EXPECT_EQ((*window)[i].measure, (*oracle_window)[i].measure);
  }
}

TEST(FaultInTest, SegmentOpenFaultDegradesSpillNotIngest) {
  // Spill segments open lazily on the first append, so a broken open is a
  // degraded spill (cells stay resident, error counted), never a failed
  // Build and never a failed ingest.
  WorkloadSpec spec = ChurnWorkload(/*tuples=*/60, /*ticks=*/16, /*seed=*/96);
  StreamGenerator gen(spec);
  FaultInjector inj;
  inj.FailNth(FaultOp::kOpen, 1, /*repeat=*/true);
  EngineBuilder builder;
  builder.SetSchema(*MakeWorkloadSchemaPtr(spec))
      .SetTiltPolicy(SmallTiltPolicy())
      .SetShardCount(2)
      .SetMemoryBudget(1)
      .SetSpillDir(FreshDir("fault_open_degrade"))
      .SetFaultInjector(&inj);
  auto built = builder.Build();
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  Engine engine = std::move(built).value();
  ASSERT_TRUE(engine.IngestBatch(gen.GenerateStream()).ok());
  ASSERT_TRUE(engine.SealThrough(spec.series_length - 1).ok());

  const SpillStats spill = engine.SpillStats();
  EXPECT_EQ(spill.spilled_blocks, 0);
  EXPECT_GT(spill.io_errors, 0);
  EXPECT_GT(inj.injected_failures(FaultOp::kOpen), 0);
  auto snap = engine.TakeSnapshot();
  ASSERT_TRUE(snap->status().ok()) << snap->status().ToString();
  ASSERT_TRUE(snap->Window(0, 4).ok());
  EXPECT_EQ(snap->num_cells(), static_cast<std::int64_t>(gen.cells().size()));
}

// ------------------------------------------------------------- compaction

TEST(CompactionTest, ChurnGarbageIsReclaimedAndAnswersSurvive) {
  WorkloadSpec spec = ChurnWorkload(/*tuples=*/120, /*ticks=*/16,
                                    /*seed=*/93);
  StreamGenerator gen(spec);
  const auto stream = gen.GenerateStream();

  EngineBuilder builder;
  builder.SetSchema(*MakeWorkloadSchemaPtr(spec))
      .SetTiltPolicy(SmallTiltPolicy())
      .SetExceptionPolicy(ExceptionPolicy(0.02))
      .SetShardCount(2);
  auto oracle = builder.Build();
  ASSERT_TRUE(oracle.ok());
  ASSERT_TRUE(oracle->IngestBatch(stream).ok());

  auto built = builder.SetMemoryBudget(1)
                   .SetSpillDir(FreshDir("compaction_churn"))
                   .SetCompactThreshold(0.5)
                   .SetCompactMinBytes(1)
                   .Build();
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  Engine engine = std::move(built).value();
  ASSERT_TRUE(engine.IngestBatch(stream).ok());

  // Churn the same cells: each re-ingest of a spilled cell faults it in
  // and releases its old block — garbage the segment can only shed by a
  // compaction rewrite.
  for (int round = 0; round < 6; ++round) {
    for (size_t c = 0; c < gen.cells().size(); c += 2) {
      ASSERT_TRUE(
          engine.Ingest({gen.cells()[c].key, spec.series_length, 1.0}).ok());
    }
  }
  ASSERT_GT(engine.SpillStats().garbage_bytes, 0);

  engine.CompactSegments();
  const SpillStats spill = engine.SpillStats();
  EXPECT_GT(spill.compactions, 0);
  EXPECT_GT(spill.reclaimed_bytes, 0);
  EXPECT_EQ(spill.compaction_failures, 0);
  // Steady-state disk bound: whatever garbage remains sits under the
  // trigger (ratio * live per shard plus the per-shard minimum).
  EXPECT_LE(spill.garbage_bytes,
            static_cast<std::int64_t>(0.5 * spill.live_bytes) + 2 * 1);

  // Re-pointed refs still answer: churned state matches an oracle driven
  // with the identical writes.
  for (int round = 0; round < 6; ++round) {
    for (size_t c = 0; c < gen.cells().size(); c += 2) {
      ASSERT_TRUE(
          oracle->Ingest({gen.cells()[c].key, spec.series_length, 1.0}).ok());
    }
  }
  auto want = oracle->TakeSnapshot()->Window(0, 4);
  auto got = engine.TakeSnapshot()->Window(0, 4);
  ASSERT_TRUE(want.ok());
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_EQ(want->size(), got->size());
  for (size_t i = 0; i < want->size(); ++i) {
    EXPECT_EQ((*want)[i].key, (*got)[i].key);
    EXPECT_EQ((*want)[i].measure, (*got)[i].measure);
  }
}

TEST(CompactionTest, RenameFaultIsCountedNotFatal) {
  WorkloadSpec spec = ChurnWorkload(/*tuples=*/80, /*ticks=*/16, /*seed=*/94);
  StreamGenerator gen(spec);
  FaultInjector inj;

  EngineBuilder builder;
  builder.SetSchema(*MakeWorkloadSchemaPtr(spec))
      .SetTiltPolicy(SmallTiltPolicy())
      .SetShardCount(1)
      .SetMemoryBudget(1)
      .SetSpillDir(FreshDir("compaction_rename_fault"))
      .SetCompactThreshold(0.5)
      .SetCompactMinBytes(1)
      .SetFaultInjector(&inj);
  auto built = builder.Build();
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  Engine engine = std::move(built).value();
  ASSERT_TRUE(engine.IngestBatch(gen.GenerateStream()).ok());
  ASSERT_TRUE(engine.SealThrough(spec.series_length - 1).ok());

  // Every swap rename fails: each compaction — the ones every budget check
  // runs during the churn and the forced one below — is abandoned and
  // counted, ingest carries on, and the old segment (with its garbage)
  // keeps serving reads.
  inj.Reset();
  inj.FailNth(FaultOp::kRename, 1, /*repeat=*/true);
  for (int round = 0; round < 6; ++round) {
    for (size_t c = 0; c < gen.cells().size(); ++c) {
      ASSERT_TRUE(
          engine.Ingest({gen.cells()[c].key, spec.series_length, 2.0}).ok());
    }
  }
  ASSERT_GT(engine.SpillStats().garbage_bytes, 0);
  engine.CompactSegments();
  const SpillStats broken = engine.SpillStats();
  EXPECT_GT(broken.compaction_failures, 0);
  EXPECT_GT(broken.garbage_bytes, 0);
  auto snap = engine.TakeSnapshot();
  ASSERT_TRUE(snap->Window(0, 4).ok());

  // Recovery: the next compaction succeeds and sheds the garbage.
  inj.Reset();
  engine.CompactSegments();
  const SpillStats after = engine.SpillStats();
  EXPECT_GT(after.compactions, 0);
  EXPECT_LT(after.garbage_bytes, broken.garbage_bytes);
  ASSERT_TRUE(engine.TakeSnapshot()->Window(0, 4).ok());
}

// ----------------------------------------------- budget-reject degradation

TEST(BudgetExhaustionTest, RejectPolicyDegradesToTypedRejects) {
  WorkloadSpec spec = ChurnWorkload(/*tuples=*/150, /*ticks=*/16,
                                    /*seed=*/95);
  StreamGenerator gen(spec);

  // A tiny budget and no spill tier: the ladder can drop the memo and the
  // caches but has no lever against the frames themselves, so the
  // governor is permanently exhausted once the working set exceeds the
  // budget. Under kReject that must become typed ResourceExhausted
  // rejects — not an abort, not unbounded overshoot.
  EngineBuilder builder;
  builder.SetSchema(*MakeWorkloadSchemaPtr(spec))
      .SetTiltPolicy(SmallTiltPolicy())
      .SetShardCount(2)
      .SetMemoryBudget(4096)
      .SetBackpressure(BackpressurePolicy::kReject);
  auto built = builder.Build();
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  Engine engine = std::move(built).value();

  const auto stream = gen.GenerateStream();
  std::int64_t accepted = 0;
  Status first_reject = Status::OK();
  for (const StreamTuple& tuple : stream) {
    const Status status = engine.Ingest(tuple);
    if (!status.ok()) {
      first_reject = status;
      break;
    }
    ++accepted;
  }
  ASSERT_FALSE(first_reject.ok()) << "budget never bit";
  EXPECT_EQ(first_reject.code(), StatusCode::kResourceExhausted);
  EXPECT_GT(accepted, 0);
  EXPECT_GT(engine.SpillStats().budget_rejects, 0);

  // Everything accepted before the degradation still answers. SealThrough
  // is not admission-gated — it only advances the clock.
  ASSERT_TRUE(engine.SealThrough(spec.series_length - 1).ok());
  auto snap = engine.TakeSnapshot();
  ASSERT_TRUE(snap->status().ok()) << snap->status().ToString();
  auto window = snap->Window(0, 4);
  ASSERT_TRUE(window.ok()) << window.status().ToString();
  EXPECT_GT(snap->num_cells(), 0);

  // A budgeted engine WITH a spill tier absorbs the same stream without a
  // single reject: the ladder can always reach the budget, so the reject
  // door never opens. The budget must sit above the engine's irreducible
  // floor (cell/ref bookkeeping no rung can evict) but well below the
  // ~all-resident working set, so spilling is doing real work here.
  auto spilling = builder.SetMemoryBudget(64 << 10)
                      .SetSpillDir(FreshDir("budget_reject_spill"))
                      .Build();
  ASSERT_TRUE(spilling.ok()) << spilling.status().ToString();
  for (const StreamTuple& tuple : stream) {
    ASSERT_TRUE(spilling->Ingest(tuple).ok());
  }
  EXPECT_EQ(spilling->SpillStats().budget_rejects, 0);
}

}  // namespace
}  // namespace regcube
