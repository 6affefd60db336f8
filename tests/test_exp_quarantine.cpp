// Crash-safe sweep execution: trial quarantine, seed-derived failure
// injection, per-trial deadlines and budgets, and checkpoint/resume.
// The through-line of every test: fault tolerance must not break the
// jobs=1 == jobs=N byte-identity contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "exp/checkpoint.hpp"
#include "exp/parallel_runner.hpp"
#include "exp/registry.hpp"
#include "exp/result_sink.hpp"
#include "exp/serialize.hpp"
#include "exp/sweep_spec.hpp"
#include "sim/error.hpp"
#include "sim/simulator.hpp"

namespace slowcc::exp {
namespace {

/// Temp dir that removes itself (checkpoint tests write real files).
class TempDir {
 public:
  TempDir() {
    std::string tmpl =
        (std::filesystem::temp_directory_path() / "slowcc_ckpt_XXXXXX")
            .string();
    if (mkdtemp(tmpl.data()) == nullptr) {
      throw std::runtime_error("mkdtemp failed");
    }
    path_ = tmpl;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

SweepSpec poison_spec() {
  SweepSpec spec;
  spec.experiment = "poison";
  spec.algorithms = {"tcp"};
  spec.fixed["events"] = 16;
  spec.sweep_param = "boom";
  spec.sweep_values = {0, 1};
  spec.trials = 4;
  spec.base_seed = 99;
  return spec;
}

TEST(Quarantine, PoisonFailuresBecomeRowsNotCrashes) {
  const auto trials = poison_spec().expand();
  ParallelRunner runner(4);
  const std::vector<Row> rows = runner.run(trials);
  ASSERT_EQ(rows.size(), trials.size());
  for (const Row& r : rows) {
    const bool boomed = r.cell.find("boom=1") != std::string::npos;
    EXPECT_EQ(r.error.empty(), !boomed) << r.cell;
    EXPECT_EQ(r.outcome.ok, !boomed);
    if (boomed) {
      EXPECT_EQ(r.outcome.error_kind, "trial-aborted");
      EXPECT_NE(r.error.find("boom"), std::string::npos);
      EXPECT_TRUE(r.metrics.empty());
    } else {
      EXPECT_EQ(r.outcome.error_kind, "");
      EXPECT_FALSE(r.metrics.empty());
    }
  }
}

TEST(Quarantine, ManifestMarksExactlyTheFailedCells) {
  const auto trials = poison_spec().expand();
  ParallelRunner runner(2);
  const std::string manifest = manifest_to_jsonl(runner.run(trials));
  // Two cells; boom=0 healthy, boom=1 fully failed.
  EXPECT_NE(manifest.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(manifest.find("\"status\":\"failed\""), std::string::npos);
  EXPECT_NE(manifest.find("\"failed_trial_ids\":\"4,5,6,7\""),
            std::string::npos)
      << manifest;
  EXPECT_NE(manifest.find("\"error_kinds\":\"trial-aborted\""),
            std::string::npos);
}

TEST(Quarantine, EventBudgetDeadlineKillsSpinningTrial) {
  SweepSpec spec = poison_spec();
  spec.sweep_values = {0};
  spec.fixed["spin"] = 1;  // self-scheduling event chain, never ends
  RunnerPolicy policy;
  policy.max_trial_events = 64;
  ParallelRunner runner(2);
  runner.set_policy(policy);
  const std::vector<Row> rows = runner.run(spec.expand());
  for (const Row& r : rows) {
    EXPECT_FALSE(r.outcome.ok);
    EXPECT_EQ(r.outcome.error_kind, "deadline-exceeded") << r.error;
    EXPECT_NE(r.error.find("event budget"), std::string::npos);
  }
}

TEST(Quarantine, WallClockDeadlineKillsSpinningTrial) {
  SweepSpec spec = poison_spec();
  spec.sweep_values = {0};
  spec.trials = 1;
  spec.fixed["spin"] = 1;
  RunnerPolicy policy;
  policy.max_trial_wall_seconds = 0.05;
  ParallelRunner runner(1);
  runner.set_policy(policy);
  const std::vector<Row> rows = runner.run(spec.expand());
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_FALSE(rows[0].outcome.ok);
  EXPECT_EQ(rows[0].outcome.error_kind, "deadline-exceeded")
      << rows[0].error;
}

TEST(Quarantine, HealthyTrialsPassUnderBenignDeadlines) {
  SweepSpec spec = poison_spec();
  spec.sweep_values = {0};
  RunnerPolicy policy;
  policy.max_trial_events = 1'000'000;
  policy.max_trial_wall_seconds = 60.0;
  ParallelRunner runner(2);
  runner.set_policy(policy);
  for (const Row& r : runner.run(spec.expand())) {
    EXPECT_TRUE(r.outcome.ok) << r.error;
  }
}

// The wall-clock watchdog: with RunnerPolicy::max_trial_wall_seconds > 0
// the runner arms a wall check on the event hook of each Simulator a
// trial builds. These tests build that Simulator themselves, so they see
// how its run ends before the quarantine turns the error into a row.

// An event that reschedules itself at the current time: simulated time
// never advances, so only an event count or the wall clock can stop it.
void livelock(sim::Simulator& sim) {
  sim.schedule_at(sim.now(), [&sim] { livelock(sim); });
}

/// How a trial's Simulator run ended.
struct RunEnd {
  bool threw = false;
  sim::SimErrc code = sim::SimErrc::kCount_;  // no error
  std::string component;
  std::string detail;
  std::uint64_t events = 0;
};

/// One trial under `policy` whose fn builds a Simulator, lets `setup`
/// schedule on it, runs it and records in `end` how the run ended. One
/// job runs the trial on the calling thread.
Row run_watched(const RunnerPolicy& policy,
                const std::function<void(sim::Simulator&)>& setup,
                RunEnd& end) {
  SweepSpec spec = poison_spec();
  spec.sweep_values = {0};
  spec.trials = 1;
  ParallelRunner runner(1);
  runner.set_policy(policy);
  const std::vector<Row> rows =
      runner.run(spec.expand(), [&](const TrialDesc&) {
        sim::Simulator sim;
        setup(sim);
        try {
          sim.run();
        } catch (const sim::SimError& e) {
          end.threw = true;
          end.code = e.code();
          end.component = e.component();
          end.detail = e.detail();
          end.events = sim.events_executed();
          throw;
        }
        end.events = sim.events_executed();
        return Row{};
      });
  EXPECT_EQ(rows.size(), 1u);
  return rows.empty() ? Row{} : rows[0];
}

TEST(Watchdog, HaltsOnWallClockBudget) {
  RunnerPolicy policy;
  policy.max_trial_wall_seconds = 0.02;
  RunEnd end;
  const Row row = run_watched(policy, livelock, end);
  ASSERT_TRUE(end.threw);
  EXPECT_NE(end.detail.find("wall-clock budget"), std::string::npos)
      << end.detail;
  // The clock is read on the hook's 1024-event cadence, and the run
  // stops at the check that finds the budget spent.
  EXPECT_GT(end.events, 0u);
  EXPECT_EQ(end.events % 1024, 0u) << end.events;
  EXPECT_FALSE(row.outcome.ok);
}

TEST(Watchdog, QuietWhenBudgetsAreRespected) {
  RunnerPolicy policy;
  policy.max_trial_events = 1'000'000;
  policy.max_trial_wall_seconds = 60.0;
  RunEnd end;
  const Row row = run_watched(
      policy,
      [](sim::Simulator& sim) {
        for (int i = 0; i < 5000; ++i) {
          sim.schedule_at(sim::Time::millis(i), [] {});
        }
      },
      end);
  EXPECT_FALSE(end.threw) << end.detail;
  EXPECT_EQ(end.events, 5000u);  // four wall checks ran and passed
  EXPECT_TRUE(row.outcome.ok) << row.error;
}

TEST(Watchdog, RejectsUnboundedOrDoubleInstallation) {
  ParallelRunner runner(1);
  for (const double bad : {-1.0, std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
    RunnerPolicy policy;
    policy.max_trial_wall_seconds = bad;
    EXPECT_THROW(runner.set_policy(policy), sim::SimError) << bad;
  }
  // Armed, the wall check holds the trial Simulator's one hook slot, so
  // a second hook cannot steal it.
  RunnerPolicy policy;
  policy.max_trial_wall_seconds = 60.0;
  RunEnd end;
  run_watched(
      policy,
      [](sim::Simulator& sim) {
        EXPECT_THROW(sim.set_event_hook(1, [] {}), sim::SimError);
      },
      end);
  // Without a wall budget nothing takes the slot.
  policy.max_trial_wall_seconds = 0.0;
  policy.max_trial_events = 1'000;
  run_watched(
      policy,
      [](sim::Simulator& sim) {
        EXPECT_NO_THROW(sim.set_event_hook(1, [] {}));
      },
      end);
}

TEST(Watchdog, DestructorFreesHookSlot) {
  RunnerPolicy policy;
  policy.max_trial_wall_seconds = 0.02;
  RunEnd end;
  run_watched(policy, livelock, end);
  ASSERT_TRUE(end.threw);
  // The trial ended by a throw, and the runner still disarmed: a
  // Simulator built next on this thread has a free hook slot.
  sim::Simulator sim;
  int hooks = 0;
  EXPECT_NO_THROW(sim.set_event_hook(1, [&] { ++hooks; }));
  sim.schedule_at(sim::Time::millis(1), [] {});
  sim.run();
  EXPECT_EQ(hooks, 1);
}

// The error code was a knob that the orchestration layer set to
// kDeadlineExceeded. The wall check now throws that code itself, and
// the row files it as deadline-exceeded, as it does the event budget.
TEST(Watchdog, ErrorCodeIsConfigurable) {
  RunnerPolicy policy;
  policy.max_trial_wall_seconds = 0.02;
  RunEnd end;
  const Row row = run_watched(policy, livelock, end);
  ASSERT_TRUE(end.threw);
  EXPECT_EQ(end.code, sim::SimErrc::kDeadlineExceeded);
  EXPECT_EQ(end.component, "ParallelRunner");
  EXPECT_EQ(row.outcome.error_kind, "deadline-exceeded") << row.error;
}

// poison's fail_rate rolls from each trial's own seed, so the same
// trials fail whatever the worker count, and every trial runs once.
TEST(Quarantine, FailRateIsDeterministicAcrossJobCounts) {
  SweepSpec spec = poison_spec();
  spec.sweep_values = {0};
  spec.trials = 32;
  spec.fixed["fail_rate"] = 0.5;
  const auto trials = spec.expand();
  const std::vector<Row> rows = ParallelRunner(1).run(trials);
  EXPECT_EQ(rows_to_jsonl(rows),
            rows_to_jsonl(ParallelRunner(8).run(trials)));
  std::size_t failed = 0;
  for (const Row& r : rows) {
    EXPECT_EQ(r.outcome.attempts, 1);
    if (r.outcome.ok) continue;
    ++failed;
    EXPECT_EQ(r.outcome.error_kind, "trial-aborted");
    EXPECT_NE(r.error.find("fail_rate"), std::string::npos) << r.error;
  }
  // A fair coin over 32 seeds: some fail and some pass.
  EXPECT_GT(failed, 0u);
  EXPECT_LT(failed, rows.size());
}

SweepSpec membomb_spec() {
  SweepSpec spec;
  spec.experiment = "membomb";
  spec.algorithms = {"tcp"};
  spec.fixed["bomb_trial"] = 0;  // trial_index 0 is the bomb
  spec.fixed["events"] = 256;
  spec.trials = 3;
  spec.base_seed = 7;
  return spec;
}

RunnerPolicy membomb_policy() {
  RunnerPolicy policy;
  policy.max_trial_bytes = 64 * 1024;
  return policy;
}

TEST(ResourceBudget, MemoryBombQuarantinesWithPeakFields) {
  ParallelRunner runner(2);
  runner.set_policy(membomb_policy());
  const std::vector<Row> rows = runner.run(membomb_spec().expand());
  ASSERT_EQ(rows.size(), 3u);
  for (const Row& r : rows) {
    if (r.trial_index == 0) {
      EXPECT_FALSE(r.outcome.ok);
      EXPECT_EQ(r.outcome.error_kind, "resource-exhausted") << r.error;
      // One attempt, never retried: the stamped peaks are the ones
      // that crossed the full 64 KiB budget.
      EXPECT_EQ(r.outcome.attempts, 1);
      EXPECT_GT(r.outcome.peak_bytes_estimate, 64u * 1024u);
      EXPECT_GT(r.outcome.peak_live_packets, 0u);
      EXPECT_GT(r.outcome.peak_queued_bytes, 0u);
      const std::string json = r.to_json();
      EXPECT_NE(json.find("\"peak_bytes_estimate\""), std::string::npos);
      EXPECT_NE(json.find("\"peak_live_packets\""), std::string::npos);
    } else {
      EXPECT_TRUE(r.outcome.ok) << r.error;
      EXPECT_EQ(r.outcome.attempts, 1);
      // Peak fields stay out of healthy rows' serialization.
      EXPECT_EQ(r.to_json().find("peak_"), std::string::npos);
    }
  }
}

TEST(ResourceBudget, RowsAreByteIdenticalAcrossJobCounts) {
  const auto trials = membomb_spec().expand();
  ParallelRunner serial(1);
  serial.set_policy(membomb_policy());
  ParallelRunner wide(8);
  wide.set_policy(membomb_policy());
  EXPECT_EQ(rows_to_jsonl(serial.run(trials)),
            rows_to_jsonl(wide.run(trials)));
}

TEST(ResourceBudget, PeakFieldsRoundTripThroughTheJournal) {
  ParallelRunner runner(1);
  runner.set_policy(membomb_policy());
  const auto trials = membomb_spec().expand();
  const std::vector<Row> rows = runner.run(trials);
  for (std::size_t i = 0; i < trials.size(); ++i) {
    Row parsed;
    ASSERT_TRUE(parse_row_json(rows[i].to_json(), trials[i], &parsed));
    EXPECT_EQ(parsed.to_json(), rows[i].to_json());
    if (rows[i].outcome.error_kind == "resource-exhausted") {
      // Peaks serialize (and thus round-trip) only on resource rows;
      // healthy rows keep them out of the journal by design.
      EXPECT_EQ(parsed.outcome.peak_bytes_estimate,
                rows[i].outcome.peak_bytes_estimate);
      EXPECT_EQ(parsed.outcome.peak_live_packets,
                rows[i].outcome.peak_live_packets);
      EXPECT_GT(parsed.outcome.peak_bytes_estimate, 0u);
    }
  }
}

TEST(ResourceBudget, UnbudgetedBombStillTerminatesViaItsEventCap) {
  // The membomb experiment carries a safety event cap so a sweep
  // without --trial-max-bytes cannot hang; the rows are then healthy.
  ParallelRunner runner(1);
  const std::vector<Row> rows = runner.run(membomb_spec().expand());
  for (const Row& r : rows) {
    EXPECT_TRUE(r.outcome.ok) << r.error;
    // The cap stops the fan-out at 256 executed events; children
    // already scheduled still fire (and return immediately), so the
    // total stays within one doubling of the cap.
    EXPECT_GE(r.get("events_run"), 256.0);
    EXPECT_LT(r.get("events_run"), 1024.0);
  }
}

TEST(ResourceBudget, PolicyValidationRejectsBadGovernanceKnobs) {
  ParallelRunner runner(2);
  RunnerPolicy policy;
  policy.max_trial_wall_seconds = -1.0;
  EXPECT_THROW(runner.set_policy(policy), sim::SimError);
  policy.max_trial_wall_seconds = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(runner.set_policy(policy), sim::SimError);
  policy.max_trial_wall_seconds = std::numeric_limits<double>::infinity();
  EXPECT_THROW(runner.set_policy(policy), sim::SimError);
  policy.max_trial_wall_seconds = 0.0;  // unlimited is valid
  EXPECT_NO_THROW(runner.set_policy(policy));
}

TEST(ResultSink, AtomicStagingNamesSeparateProcessesAndCalls) {
  // Regression for the cross-process staging collision: two processes
  // finalizing the same file must never share a staging name, and
  // neither must two writes from one process.
  EXPECT_EQ(atomic_staging_name("dir/trials.jsonl", 42, 7),
            "dir/trials.jsonl.tmp.42.7");
  EXPECT_NE(atomic_staging_name("f", 100, 0), atomic_staging_name("f", 101, 0));
  EXPECT_NE(atomic_staging_name("f", 100, 0), atomic_staging_name("f", 100, 1));
}

TEST(ResultSink, AtomicWriteLeavesNoTempFile) {
  TempDir dir;
  const std::string path = dir.path() + "/out.jsonl";
  std::string err;
  ASSERT_TRUE(write_file_atomic(path, "line\n", &err)) << err;
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content, "line\n");
  // Only the target file remains — no ".tmp.<pid>" staging leftovers.
  std::size_t entries = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir.path())) {
    ++entries;
    EXPECT_EQ(e.path().filename().string(), "out.jsonl");
  }
  EXPECT_EQ(entries, 1u);
}

TEST(ResultSink, LoaderReportsTornTrailingLine) {
  TempDir dir;
  const std::string path = dir.path() + "/journal.jsonl";
  {
    std::ofstream out(path, std::ios::binary);
    out << "{\"a\":1}\n{\"b\":2}\n{\"c\":";  // killed mid-append
  }
  const JsonlLoad load = load_jsonl(path);
  ASSERT_TRUE(load.ok);
  ASSERT_EQ(load.lines.size(), 2u);
  EXPECT_EQ(load.lines[1], "{\"b\":2}");
  EXPECT_TRUE(load.torn_tail);
  EXPECT_EQ(load.tail, "{\"c\":");
  EXPECT_FALSE(load_jsonl(dir.path() + "/missing.jsonl").ok);
}

TEST(Checkpoint, RowJsonRoundTripsByteIdentically) {
  const auto trials = poison_spec().expand();
  for (const TrialDesc& d : {trials.front(), trials.back()}) {
    const Row row = run_trial(d);
    Row parsed;
    ASSERT_TRUE(parse_row_json(row.to_json(), d, &parsed));
    EXPECT_EQ(parsed.to_json(), row.to_json());
    EXPECT_EQ(parsed.seed, d.seed);
    EXPECT_EQ(parsed.outcome.ok, row.outcome.ok);
  }
}

TEST(Checkpoint, RowJsonRejectsIdentityMismatch) {
  const auto trials = poison_spec().expand();
  const Row row = run_trial(trials[0]);
  Row parsed;
  EXPECT_FALSE(parse_row_json(row.to_json(), trials[1], &parsed));
  EXPECT_FALSE(parse_row_json("not json", trials[0], &parsed));
}

TEST(Checkpoint, ResumeRerunsExactlyTheFailedTrials) {
  const SweepSpec spec = poison_spec();
  const auto trials = spec.expand();

  // Reference: one uninterrupted serial run.
  ParallelRunner ref_runner(1);
  const std::vector<Row> ref_rows = ref_runner.run(trials);
  const std::string ref_jsonl = rows_to_jsonl(ref_rows);

  // Checkpointed run, journaling every row.
  TempDir dir;
  Checkpoint first(dir.path());
  EXPECT_FALSE(first.open(spec, "policy v1\n"));  // fresh directory
  ParallelRunner runner(4);
  runner.set_on_row([&first](const Row& r) { first.record(r); });
  (void)runner.run(trials);

  // "Restart": a new Checkpoint over the same directory resumes.
  Checkpoint second(dir.path());
  EXPECT_TRUE(second.open(spec, "policy v1\n"));
  const Checkpoint::Plan plan = second.plan(trials);
  EXPECT_EQ(plan.recovered.size() + plan.pending.size(), trials.size());
  EXPECT_EQ(plan.cells_total, 2u);
  EXPECT_EQ(plan.cells_done, 1u);  // boom=0 done; boom=1 all failed
  std::map<std::uint64_t, bool> ref_failed;
  for (const Row& r : ref_rows) ref_failed[r.trial_id] = !r.error.empty();
  for (const TrialDesc& d : plan.pending) {
    EXPECT_TRUE(ref_failed[d.trial_id]) << "re-running a healthy trial";
  }
  for (const Row& r : plan.recovered) {
    EXPECT_FALSE(ref_failed[r.trial_id]);
  }

  // Run only the pending trials, merge, and compare byte-for-byte.
  ParallelRunner resumer(2);
  resumer.set_on_row([&second](const Row& r) { second.record(r); });
  std::vector<Row> rows = resumer.run(plan.pending);
  rows.insert(rows.end(), plan.recovered.begin(), plan.recovered.end());
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    return a.trial_id < b.trial_id;
  });
  EXPECT_EQ(rows_to_jsonl(rows), ref_jsonl);

  std::string err;
  ASSERT_TRUE(second.finalize(rows, aggregate(rows), &err)) << err;
  const JsonlLoad finalized = load_jsonl(second.path("trials.jsonl"));
  ASSERT_TRUE(finalized.ok);
  EXPECT_EQ(finalized.lines.size(), trials.size());
}

TEST(Checkpoint, PartialTornJournalRecoversCompletedTrials) {
  const SweepSpec spec = poison_spec();
  const auto trials = spec.expand();
  ParallelRunner runner(1);
  const std::vector<Row> rows = runner.run(trials);

  TempDir dir;
  {
    Checkpoint ck(dir.path());
    EXPECT_FALSE(ck.open(spec, "p\n"));
    for (const Row& r : rows) {
      if (r.trial_id % 2 == 0) ck.record(r);  // "crashed" halfway
    }
  }
  {  // torn final append, as a SIGKILL mid-write leaves it
    std::ofstream out(dir.path() + "/journal.jsonl",
                      std::ios::binary | std::ios::app);
    out << "{\"trial_id\":3,\"exper";
  }
  Checkpoint ck(dir.path());
  EXPECT_TRUE(ck.open(spec, "p\n"));
  const Checkpoint::Plan plan = ck.plan(trials);
  EXPECT_TRUE(plan.torn_tail);
  for (const Row& r : plan.recovered) {
    EXPECT_EQ(r.trial_id % 2, 0u);
    EXPECT_TRUE(r.outcome.ok);
  }
  for (const TrialDesc& d : plan.pending) {
    // Odd ids were never journaled; even boom=1 ids failed — both re-run.
    EXPECT_TRUE(d.trial_id % 2 == 1 ||
                d.cell_key().find("boom=1") != std::string::npos);
  }
}

TEST(Checkpoint, LastValidJournalLinePerTrialWins) {
  const SweepSpec spec = poison_spec();
  const auto trials = spec.expand();
  ParallelRunner runner(1);
  const std::vector<Row> rows = runner.run(trials);
  ASSERT_TRUE(rows[0].outcome.ok);
  ASSERT_TRUE(rows[1].outcome.ok);
  ASSERT_FALSE(rows[4].outcome.ok);  // boom=1: the poison cell fails

  Row failed_again = rows[1];  // an ok trial whose re-run failed
  failed_again.error = "retry failed";
  failed_again.outcome.ok = false;
  failed_again.outcome.error_kind = "trial-aborted";
  Row healed = rows[4];  // a failed trial whose re-run succeeded
  healed.error.clear();
  healed.outcome = TrialOutcome{};

  TempDir dir;
  Checkpoint ck(dir.path());
  EXPECT_FALSE(ck.open(spec, "p\n"));
  ck.record(rows[0]);
  ck.record(rows[1]);
  ck.record(rows[4]);
  ck.record(rows[0]);  // duplicate: collapses to one recovered row
  ck.record(failed_again);
  ck.record(healed);
  ck.record(rows[2]);
  {  // a corrupt (non-JSON) line mid-journal is skipped, not trusted
    std::ofstream out(ck.journal_path(), std::ios::binary | std::ios::app);
    out << "{\"trial_id\":2,\"exper\n";
  }

  const Checkpoint::Plan plan = ck.plan(trials);
  EXPECT_EQ(plan.journal_lines, 8u);
  EXPECT_FALSE(plan.torn_tail);
  std::vector<std::uint64_t> recovered;
  for (const Row& r : plan.recovered) recovered.push_back(r.trial_id);
  EXPECT_EQ(recovered, (std::vector<std::uint64_t>{0, 2, 4}));
  EXPECT_EQ(plan.recovered[0].to_json(), rows[0].to_json());
  EXPECT_EQ(plan.recovered[1].to_json(), rows[2].to_json());
  EXPECT_EQ(plan.recovered[2].to_json(), healed.to_json());
  ASSERT_EQ(plan.pending.size(), trials.size() - 3u);
  EXPECT_EQ(plan.pending[0].trial_id, 1u);  // its last line is a failure
}

TEST(Checkpoint, ResumeUnderDifferentSpecIsRefused) {
  const SweepSpec spec = poison_spec();
  TempDir dir;
  Checkpoint first(dir.path());
  EXPECT_FALSE(first.open(spec, "p\n"));
  SweepSpec other = spec;
  other.trials = 99;
  Checkpoint second(dir.path());
  EXPECT_THROW((void)second.open(other, "p\n"), sim::SimError);
  // Policy drift only warns.
  Checkpoint third(dir.path());
  std::string warning;
  EXPECT_TRUE(third.open(spec, "p v2\n", &warning));
  EXPECT_FALSE(warning.empty());
}

TEST(Checkpoint, SpecTextRoundTrips) {
  const SweepSpec spec = poison_spec();
  const SweepSpec reparsed = SweepSpec::parse_text(spec.to_text());
  EXPECT_EQ(reparsed.to_text(), spec.to_text());
  const auto a = spec.expand();
  const auto b = reparsed.expand();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].cell_key(), b[i].cell_key());
    EXPECT_EQ(a[i].seed, b[i].seed);
  }
}

TEST(Serialize, FlatJsonParserHandlesEscapesAndBigIntegers) {
  std::vector<std::pair<std::string, JsonScalar>> fields;
  ASSERT_TRUE(parse_flat_json(
      R"({"a":"x\"y","seed":18446744073709551615,"n":-2.5,"b":true})",
      fields));
  ASSERT_EQ(fields.size(), 4u);
  EXPECT_EQ(fields[0].second.text, "x\"y");
  // 2^64 - 1 survives (a double round-trip would corrupt it).
  EXPECT_EQ(fields[1].second.as_u64(), 18446744073709551615ull);
  EXPECT_EQ(fields[2].second.number, -2.5);
  EXPECT_TRUE(fields[3].second.boolean);
  EXPECT_FALSE(parse_flat_json("[1,2]", fields));
  EXPECT_FALSE(parse_flat_json("{\"a\":{}}", fields));  // nested
}

}  // namespace
}  // namespace slowcc::exp
