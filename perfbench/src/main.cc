// LakeFed benchmark program: one workload per process, every session through
// svc::QueryService, end-to-end metrics chosen so that co-tenant load on a
// shared machine moves them as little as it can, and a traced pass that
// times each layer's public functions from the outside. See
// perfbench/README.md.
//
//   lakefed_perfbench --workload grid_nodelay|grid_gamma3|service_mix
//                     --seed N --seconds S --trace 0|1 [--git-sha SHA]
//
// stdout: progress lines, then one {"context": ...} line (fixed workload
// parameters and host contention figures), then the result object as the
// last line. Exit code 0 only when the run completed; a count that differs
// from the set-up reference aborts the run (exit 3).

#include <pthread.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <charconv>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/blocking_queue.h"
#include "common/stopwatch.h"
#include "fed/decomposer.h"
#include "fed/engine.h"
#include "fed/planner.h"
#include "helpers.h"
#include "lslod/generator.h"
#include "lslod/queries.h"
#include "lslod/vocab.h"
#include "net/network.h"
#include "sparql/parser.h"
#include "svc/service.h"
#include "wrapper/rdf_wrapper.h"
#include "wrapper/sql_wrapper.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace lakefed::perfbench {
namespace {

// Fixed workload parameters. Nothing here is read from the environment.
constexpr double kLakeScale = 0.4;
constexpr uint64_t kLakeSeed = 7;
constexpr int kSetupRepeats = 31;  // setup_s is the median of these
constexpr int kRounds = 10;        // slices of the timed phase
// CPU time of the calibration kernel on the reference machine, a 4-vCPU
// KVM guest (Xeon with AVX-512). CPU-bound timings are reported in
// milliseconds of that machine: measured time x kCalibrationRefMs / this
// run's median calibration time.
constexpr double kCalibrationRefMs = 4.0;
constexpr auto kCalibrationPeriod = std::chrono::milliseconds(50);
constexpr int kTracedReps = 9;    // traced-pass repetitions per cell
constexpr int kOvershootReps = 3;
constexpr double kOvershootTimeScale = 0.01;
// Time scale of the wait-bound workloads. At 0.01 a session's fixed CPU
// and thread wake-up cost is half its time to first answer and most of a
// service_mix session, so co-tenant load moved those wall figures by
// 15-60%; at 0.1 it is a tenth or less (see README.md).
constexpr double kWaitTimeScale = 0.1;

struct Workload {
  std::string name;
  net::NetworkProfile network;  // time scale applied
  // The paper grid: aware and unaware cells, weighted equally.
  bool grid = false;
  size_t workers = 1;           // compute workers
  size_t run_slots = 1;
  size_t in_flight = 1;  // closed loop: sessions outstanding
  int tenants = 1;
  bool rdf_kegg_goa = false;  // kegg and goa served as native RDF
  // No simulated wait anywhere: the phase is CPU-bound, so latency-shaped
  // metrics are read on the process CPU clock, not the wall clock.
  bool cpu_clock = false;
};

net::NetworkProfile Scaled(net::NetworkProfile profile, double time_scale) {
  profile.time_scale = time_scale;
  return profile;
}

std::optional<Workload> FindWorkload(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "grid_nodelay") {
    w.network = net::NetworkProfile::NoDelay();
    w.grid = true;
    w.cpu_clock = true;
  } else if (name == "grid_gamma3") {
    w.network = Scaled(net::NetworkProfile::Gamma3(), kWaitTimeScale);
    w.grid = true;
  } else if (name == "service_mix") {
    w.network = Scaled(net::NetworkProfile::Gamma2(), kWaitTimeScale);
    w.workers = 2;
    w.run_slots = 4;
    w.in_flight = 4;
    w.tenants = 4;
    w.rdf_kegg_goa = true;
  } else {
    return std::nullopt;
  }
  return w;
}

struct Cell {
  std::string label;  // "Q1/aware"
  const lslod::BenchmarkQuery* query = nullptr;
  fed::PlanMode mode = fed::PlanMode::kPhysicalDesignAware;
};

std::vector<Cell> Cells(const Workload& w) {
  std::vector<Cell> cells;
  for (const lslod::BenchmarkQuery& q : lslod::BenchmarkQueries()) {
    cells.push_back({q.id + "/aware", &q, fed::PlanMode::kPhysicalDesignAware});
    if (w.grid) {
      cells.push_back(
          {q.id + "/unaware", &q, fed::PlanMode::kPhysicalDesignUnaware});
    }
  }
  return cells;
}

fed::PlanOptions CellOptions(const Workload& w, const Cell& cell,
                             uint64_t seed) {
  fed::PlanOptions options;
  options.mode = cell.mode;
  options.network = w.network;
  options.seed = seed;
  return options;
}

[[noreturn]] void Fail(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::fflush(stdout);
  std::exit(3);
}

// Samples how fast the machine currently runs ordinary code, all through
// a run: a background thread runs CalibrationKernel every
// kCalibrationPeriod and records the thread CPU time each run took. Its
// own CPU can be read at any moment, so the engine's CPU excludes it.
class Calibrator {
 public:
  Calibrator() : thread_([this] { Loop(); }) {
    pthread_getcpuclockid(thread_.native_handle(), &clock_);
  }
  ~Calibrator() { Stop(); }
  Calibrator(const Calibrator&) = delete;
  Calibrator& operator=(const Calibrator&) = delete;

  // Joins the thread; CpuSeconds() is meaningless afterwards.
  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  double CpuSeconds() const {
    timespec ts{};
    clock_gettime(clock_, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
  }

  double MedianMs() const {
    std::lock_guard<std::mutex> lock(mu_);
    return Median(samples_ms_);
  }

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!stop_) {
      lock.unlock();
      const double start = ThreadCpuSeconds();
      volatile uint64_t sink = CalibrationKernel();
      (void)sink;
      const double ms = (ThreadCpuSeconds() - start) * 1e3;
      lock.lock();
      samples_ms_.push_back(ms);
      cv_.wait_for(lock, kCalibrationPeriod, [this] { return stop_; });
    }
  }

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;                // guarded by mu_
  std::vector<double> samples_ms_;  // guarded by mu_
  clockid_t clock_{};
  std::thread thread_;  // last: runs Loop() over the members above
};

// ---------------------------------------------------------------- set-up

struct Setup {
  std::unique_ptr<lslod::DataLake> lake;
  std::unique_ptr<svc::QueryService> service;
  std::map<std::string, fed::SourceWrapper*> wrappers;
  double setup_s = 0;       // median BuildLake + service start
  double build_lake_s = 0;  // median BuildLake alone
};

svc::ServiceConfig MakeServiceConfig(const Workload& w) {
  svc::ServiceConfig config;
  config.scheduler.workers = w.workers;
  config.max_concurrent_sessions = w.run_slots;
  return config;
}

Setup BuildSetup(const Workload& w) {
  lslod::LakeConfig config;
  config.scale = kLakeScale;
  config.seed = kLakeSeed;
  if (w.rdf_kegg_goa) config.rdf_sources = {lslod::kKegg, lslod::kGoa};

  Setup setup;
  std::vector<double> total_s, lake_s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    setup.service.reset();  // the service borrows the engine: drop it first
    setup.lake.reset();
    Stopwatch clock;
    auto lake = lslod::BuildLake(config);
    if (!lake.ok()) {
      Fail("lake construction failed: " + lake.status().ToString());
    }
    lake_s.push_back(clock.ElapsedSeconds());
    setup.lake = std::move(*lake);
    setup.service = std::make_unique<svc::QueryService>(
        setup.lake->engine.get(), MakeServiceConfig(w));
    total_s.push_back(clock.ElapsedSeconds());
  }
  setup.setup_s = Median(total_s);
  setup.build_lake_s = Median(lake_s);
  for (const auto& [id, db] : setup.lake->databases) {
    if (fed::SourceWrapper* wrapper = setup.lake->engine->wrapper(id)) {
      setup.wrappers[id] = wrapper;
    }
  }
  return setup;
}

void CollectLeaves(const fed::FedPlanNode& node,
                   std::vector<const fed::SubQuery*>* leaves) {
  if (node.kind == fed::FedPlanNode::Kind::kService ||
      node.kind == fed::FedPlanNode::Kind::kDependentJoin) {
    leaves->push_back(&node.subquery);
  }
  for (const fed::FedPlanPtr& child : node.children) {
    CollectLeaves(*child, leaves);
  }
}

// What every session of a cell must reproduce. Computed once at set-up
// through paths independent of the timed one: the answer and traffic from
// FederatedEngine::Execute (the thread-per-operator dataflow), the leaf
// count from the operators that execution ran, and the relational rows by
// sending each leaf's SQL text through the SQL parser (Database::Execute).
struct Reference {
  AnswerDigest digest;
  uint64_t messages = 0;
  uint64_t leaves = 0;
  uint64_t rel_rows = 0;
};

Reference ComputeReference(const Setup& setup, const Workload& w,
                           const Cell& cell) {
  const fed::FederatedEngine& engine = *setup.lake->engine;
  const fed::PlanOptions options = CellOptions(w, cell, /*seed=*/1);
  auto answer = engine.Execute(cell.query->sparql, options);
  if (!answer.ok()) {
    Fail("reference " + cell.label + " failed: " + answer.status().ToString());
  }
  Reference ref;
  ref.digest = DigestAnswer(*answer);
  ref.messages = answer->stats.messages_transferred;
  for (const auto& [label, rows] : answer->operator_rows) {
    if (label.rfind("Service[", 0) == 0) ++ref.leaves;
  }

  auto plan = engine.Plan(cell.query->sparql, options);
  if (!plan.ok()) Fail("reference plan " + cell.label + " failed");
  std::vector<const fed::SubQuery*> leaves;
  CollectLeaves(*plan->root, &leaves);
  if (leaves.size() != ref.leaves) {
    Fail("reference " + cell.label + ": EXPLAIN has " +
         std::to_string(leaves.size()) + " leaves, execution ran " +
         std::to_string(ref.leaves));
  }
  for (const fed::SubQuery* leaf : leaves) {
    auto* sql = dynamic_cast<wrapper::SqlWrapper*>(
        setup.wrappers.at(leaf->source_id));
    if (sql == nullptr) continue;
    auto tr = sql->Translate(*leaf);
    if (!tr.ok()) Fail("reference translate failed: " + tr.status().ToString());
    auto rows = setup.lake->databases.at(leaf->source_id)
                    ->Execute(tr->statement.ToString());
    if (!rows.ok()) Fail("reference SQL failed: " + rows.status().ToString());
    ref.rel_rows += rows->rows.size();
  }
  return ref;
}

// ----------------------------------------------------------- timed phase

struct Sample {
  size_t cell = 0;
  double total_ms = 0;       // admission -> terminal (Submission)
  double queue_ms = 0;       // admission -> dispatch
  double submit_us = 0;      // the Submit() call itself
  double first_ms = 0;       // AnswerTrace::TimeToFirst
  double completion_ms = 0;  // AnswerTrace::completion_seconds
  double cpu_ms = 0;         // process CPU over the session (1 in flight)
  double delay_ms = 0;       // sampled simulated network delay
  uint64_t messages = 0;
};

struct Timed {
  std::vector<Sample> samples;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double wall_s = 0;
  double cpu_s = 0;  // engine CPU, without the benchmark's own checking
  // Per round: engine CPU ms per attempted session, OK sessions per second.
  std::vector<double> round_cpu_ms, round_qps;
  double other_busy_cores = 0;
  double nivcsw = 0;
  double calibration_ms = 0;  // median calibration kernel CPU time
  // Converts CPU-bound timings of this run to the reference machine.
  double speed_factor = 1;
  svc::Scheduler::Stats sched;  // deltas over the timed phase
  uint64_t threads_peak = 0;
  double peak_rss_mb = 0;
};

uint64_t StatusField(const char* key) {
  return ParseStatusField(ReadSmallFile("/proc/self/status"), key)
      .value_or(0);
}

double StatBusySeconds() {
  const uint64_t ticks =
      ParseProcStatBusy(ReadSmallFile("/proc/stat")).value_or(0);
  return static_cast<double>(ticks) /
         static_cast<double>(sysconf(_SC_CLK_TCK));
}

svc::Scheduler::Stats Minus(const svc::Scheduler::Stats& a,
                            const svc::Scheduler::Stats& b) {
  svc::Scheduler::Stats d;
  d.steps = a.steps - b.steps;
  d.steals = a.steals - b.steals;
  d.parks = a.parks - b.parks;
  d.io_jobs = a.io_jobs - b.io_jobs;
  return d;
}

class Generator {
 public:
  Generator(Setup* setup, const Workload& w, const std::vector<Cell>& cells,
            const std::vector<Reference>& refs, uint64_t seed,
            const Calibrator& calibrator)
      : setup_(setup), w_(w), cells_(cells), refs_(refs), seed_(seed),
        calibrator_(calibrator), next_(seed % cells.size()) {}

  // Submits sessions round-robin over the cells, keeping `in_flight`
  // outstanding until `seconds` have passed or `limit` sessions were
  // submitted, then drains. With `record` off the sessions are checked but
  // leave no samples (warm-up).
  void Run(double seconds, uint64_t limit, bool record, Timed* out) {
    Stopwatch clock;
    uint64_t submitted = 0;
    for (;;) {
      while (clock.ElapsedSeconds() < seconds && submitted < limit &&
             flights_.size() < w_.in_flight) {
        SubmitNext(out);
        ++submitted;
      }
      if (flights_.empty()) break;
      if (w_.in_flight == 1) {
        flights_.front().sub->Wait();
        Harvest(0, record, out);
        continue;
      }
      bool any = false;
      for (size_t i = 0; i < flights_.size();) {
        if (flights_[i].sub->done()) {
          Harvest(i, record, out);
          any = true;
        } else {
          ++i;
        }
      }
      if (!any) std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  }

  double checker_cpu_s() const { return checker_cpu_s_; }

  // Process CPU without the calibrator's.
  double EngineCpuSeconds() const {
    return ProcessCpuSeconds() - calibrator_.CpuSeconds();
  }

 private:
  struct Flight {
    std::shared_ptr<svc::Submission> sub;
    size_t cell = 0;
    double submit_us = 0;
    double cpu_start_s = 0;
  };

  void SubmitNext(Timed* out) {
    const size_t cell = next_ % cells_.size();
    svc::ServiceRequest request;
    request.tenant = "t";
    request.tenant += std::to_string(next_ % w_.tenants);
    request.priority = next_ % 2 == 0 ? svc::Priority::kInteractive
                                      : svc::Priority::kBatch;
    request.query = fed::QueryRequest::Text(
        cells_[cell].query->sparql,
        CellOptions(w_, cells_[cell], seed_ * 1000003 + next_));
    ++next_;
    ++out->attempted;
    Flight flight;
    flight.cell = cell;
    flight.cpu_start_s = EngineCpuSeconds();
    const auto start = std::chrono::steady_clock::now();
    auto sub = setup_->service->Submit(std::move(request));
    flight.submit_us = std::chrono::duration<double, std::micro>(
                           std::chrono::steady_clock::now() - start)
                           .count();
    if (!sub.ok()) {  // shed: a failed operation
      ++out->failed;
      Note("submit " + cells_[cell].label + ": " + sub.status().ToString());
      return;
    }
    flight.sub = std::move(*sub);
    flights_.push_back(std::move(flight));
  }

  // Checks one finished session against its reference. The CPU this takes
  // is the benchmark's, not the engine's: it is measured and subtracted.
  void Harvest(size_t index, bool record, Timed* out) {
    const double cpu_end_s = EngineCpuSeconds();
    const double thread_start_s = ThreadCpuSeconds();
    Flight flight = std::move(flights_[index]);
    flights_.erase(flights_.begin() + static_cast<std::ptrdiff_t>(index));
    const Cell& cell = cells_[flight.cell];
    const Reference& ref = refs_[flight.cell];
    const Result<fed::QueryAnswer>& outcome = flight.sub->Wait();
    bool ok = false;
    if (!outcome.ok()) {
      Note(cell.label + " failed: " + outcome.status().ToString());
    } else if (outcome->stats.partial) {
      Note(cell.label + ": partial answer");
    } else if (!(DigestAnswer(*outcome) == ref.digest)) {
      Note(cell.label + ": wrong answer");
    } else {
      ok = true;
    }
    if (!ok) {
      ++out->failed;
    } else {
      if (outcome->stats.messages_transferred != ref.messages) {
        Fail(cell.label + ": shipped " +
             std::to_string(outcome->stats.messages_transferred) +
             " rows, reference " + std::to_string(ref.messages));
      }
      if (record) {
        Sample s;
        s.cell = flight.cell;
        s.total_ms = flight.sub->total_ms();
        s.queue_ms = flight.sub->queue_wait_ms();
        s.submit_us = flight.submit_us;
        s.first_ms = outcome->trace.TimeToFirst() * 1e3;
        s.completion_ms = outcome->trace.completion_seconds * 1e3;
        s.cpu_ms = (cpu_end_s - flight.cpu_start_s) * 1e3;
        s.delay_ms = outcome->stats.network_delay_ms;
        s.messages = outcome->stats.messages_transferred;
        out->samples.push_back(s);
      }
    }
    if (++harvested_ % 8 == 0) {
      out->threads_peak = std::max(out->threads_peak, StatusField("Threads"));
    }
    flight.sub.reset();  // frees the materialized answer
    checker_cpu_s_ += ThreadCpuSeconds() - thread_start_s;
  }

  void Note(const std::string& what) {
    if (notes_++ < 5) std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  }

  Setup* setup_;
  const Workload& w_;
  const std::vector<Cell>& cells_;
  const std::vector<Reference>& refs_;
  const uint64_t seed_;
  const Calibrator& calibrator_;
  uint64_t next_;
  std::vector<Flight> flights_;
  double checker_cpu_s_ = 0;
  uint64_t harvested_ = 0;
  int notes_ = 0;
};

Timed RunTimed(Setup* setup, const Workload& w, const std::vector<Cell>& cells,
               const std::vector<Reference>& refs, uint64_t seed,
               double seconds, Calibrator* calibrator) {
  Generator generator(setup, w, cells, refs, seed, *calibrator);
  Timed warmup;  // one session per cell, unrecorded
  generator.Run(1e9, cells.size(), false, &warmup);
  if (warmup.failed > 0) Fail("warm-up sessions failed");

  Timed timed;
  svc::Scheduler* scheduler = setup->service->scheduler();
  const svc::Scheduler::Stats sched0 = scheduler->stats();
  rusage ru0{};
  getrusage(RUSAGE_SELF, &ru0);
  timed.threads_peak = StatusField("Threads");
  double other_busy_s = 0;
  for (int round = 0; round < kRounds; ++round) {
    const double checker0 = generator.checker_cpu_s();
    const uint64_t attempted0 = timed.attempted;
    const size_t samples0 = timed.samples.size();
    const double process0 = ProcessCpuSeconds();
    const double engine0 = generator.EngineCpuSeconds();
    const double busy0 = StatBusySeconds();
    Stopwatch clock;

    generator.Run(seconds / kRounds, UINT64_MAX, true, &timed);

    const double wall = clock.ElapsedSeconds();
    const double process_cpu = ProcessCpuSeconds() - process0;
    const double cpu = generator.EngineCpuSeconds() - engine0 -
                       (generator.checker_cpu_s() - checker0);
    const double other_busy =
        ClampedRemainder(StatBusySeconds() - busy0, {process_cpu});
    other_busy_s += other_busy;
    timed.wall_s += wall;
    timed.cpu_s += cpu;
    timed.round_cpu_ms.push_back(
        cpu * 1e3 / static_cast<double>(timed.attempted - attempted0));
    timed.round_qps.push_back(
        static_cast<double>(timed.samples.size() - samples0) / wall);
    std::printf("round %d: %.1f sessions/s, %.4f ms CPU/session, "
                "other busy %.2f cores\n",
                round, timed.round_qps.back(), timed.round_cpu_ms.back(),
                other_busy / wall);
  }
  timed.sched = Minus(scheduler->stats(), sched0);
  rusage ru1{};
  getrusage(RUSAGE_SELF, &ru1);
  timed.nivcsw = static_cast<double>(ru1.ru_nivcsw - ru0.ru_nivcsw);
  timed.peak_rss_mb = static_cast<double>(StatusField("VmHWM")) / 1024.0;
  timed.other_busy_cores = other_busy_s / timed.wall_s;
  calibrator->Stop();
  timed.calibration_ms = calibrator->MedianMs();
  timed.speed_factor = kCalibrationRefMs / timed.calibration_ms;
  return timed;
}

// ----------------------------------------------------------- traced pass

struct Layers {
  double parse_us = 0, decompose_us = 0, plan_us = 0;
  double leaves = 0;
  double sql_translate_us = 0, sql_execute_us = 0, sql_decode_us = 0;
  double rdf_execute_us = 0;
  double rel_exec_us = 0, rel_rows = 0;
  double session_us = 0, mediator_us = 0;
  double overshoot_us = 0;
};

template <typename Fn>
double TimeUs(Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// Mean over the 11 TransferBatch calls of the emitter's 1, 2, 4, ..., 1024
// ramp of (wall time - sampled delay), median over repetitions.
double TransferOvershootUs(uint64_t seed) {
  net::DelayChannel channel(
      Scaled(net::NetworkProfile::Gamma3(), kOvershootTimeScale), seed);
  std::vector<double> reps;
  for (int rep = 0; rep < kOvershootReps; ++rep) {
    double sum = 0;
    int calls = 0;
    for (size_t n = 1; n <= 1024; n *= 2, ++calls) {
      const double delay0 = channel.total_delay_ms();
      const double wall_us = TimeUs([&] {
        (void)channel.TransferBatch(n, CancellationToken());
      });
      sum += wall_us - (channel.total_delay_ms() - delay0) * 1e3;
    }
    reps.push_back(sum / calls);
  }
  return Median(reps);
}

// Times each module's public entry points on the workload's own queries and
// plans, outside the timed phase, and checks the counts it sees against the
// set-up reference.
Layers RunTraced(const Setup& setup, const Workload& w,
                 const std::vector<Cell>& cells,
                 const std::vector<Reference>& refs, uint64_t seed) {
  const fed::FederatedEngine& engine = *setup.lake->engine;
  svc::Scheduler::Config sched_config;
  sched_config.workers = 1;
  svc::Scheduler scheduler(sched_config);

  Layers mean;
  for (size_t c = 0; c < cells.size(); ++c) {
    const Cell& cell = cells[c];
    const fed::PlanOptions options = CellOptions(w, cell, seed);
    std::vector<double> parse, decompose, plan_t, translate, execute, rel,
        rdf, session, leaf_exec;
    uint64_t leaves = 0, rel_rows = 0;
    for (int rep = 0; rep < kTracedReps; ++rep) {
      Result<sparql::SelectQuery> query = Status::Internal("not run");
      parse.push_back(
          TimeUs([&] { query = sparql::ParseSparql(cell.query->sparql); }));
      if (!query.ok()) Fail(cell.label + ": parse failed");
      decompose.push_back(TimeUs([&] {
        if (!fed::Decompose(*query).ok()) Fail(cell.label + ": decompose");
      }));
      Result<fed::FederatedPlan> plan = Status::Internal("not run");
      plan_t.push_back(TimeUs([&] {
        plan = fed::BuildPlan(*query, engine.catalog(), setup.wrappers,
                              options);
      }));
      if (!plan.ok()) Fail(cell.label + ": plan failed");
      std::vector<const fed::SubQuery*> subqueries;
      CollectLeaves(*plan->root, &subqueries);
      leaves = subqueries.size();

      double t_translate = 0, t_execute = 0, t_rel = 0, t_rdf = 0;
      rel_rows = 0;
      for (const fed::SubQuery* leaf : subqueries) {
        fed::SourceWrapper* wrapper = setup.wrappers.at(leaf->source_id);
        net::DelayChannel channel(net::NetworkProfile::NoDelay(), seed);
        BlockingQueue<rdf::Binding> sink(size_t{1} << 24);
        fed::WrapperContext ctx;
        ctx.channel = &channel;
        ctx.out = &sink;
        Status status;
        const double exec_us =
            TimeUs([&] { status = wrapper->Execute(*leaf, ctx); });
        if (!status.ok()) Fail(cell.label + ": leaf " + status.ToString());
        auto* sql = dynamic_cast<wrapper::SqlWrapper*>(wrapper);
        if (sql == nullptr) {
          t_rdf += exec_us;
          continue;
        }
        t_execute += exec_us;
        Result<wrapper::SqlWrapper::Translation> tr =
            Status::Internal("not run");
        t_translate += TimeUs([&] { tr = sql->Translate(*leaf); });
        if (!tr.ok()) Fail(cell.label + ": translate failed");
        Result<rel::QueryResult> result = Status::Internal("not run");
        t_rel += TimeUs([&] {
          result = setup.lake->databases.at(leaf->source_id)
                       ->ExecuteStatement(tr->statement);
        });
        if (!result.ok()) Fail(cell.label + ": rel exec failed");
        rel_rows += result->rows.size();
      }
      translate.push_back(t_translate);
      execute.push_back(t_execute);
      rel.push_back(t_rel);
      rdf.push_back(t_rdf);
      leaf_exec.push_back(t_execute + t_rdf);

      // The session keeps the workload's (nominal) network, so it plans
      // exactly like the timed sessions, but sleeps for none of it.
      fed::PlanOptions session_options = options;
      session_options.network.time_scale = 0;
      session_options.scheduler = &scheduler;
      Result<fed::QueryAnswer> answer = Status::Internal("not run");
      session.push_back(TimeUs([&] {
        auto stream = engine.CreateSession(
            fed::QueryRequest::Text(cell.query->sparql, session_options));
        if (!stream.ok()) {
          answer = stream.status();
          return;
        }
        answer = (*stream)->Drain();
      }));
      if (!answer.ok()) Fail(cell.label + ": traced session failed");
      if (!(DigestAnswer(*answer) == refs[c].digest) ||
          answer->stats.messages_transferred != refs[c].messages) {
        Fail(cell.label + ": traced session disagrees with the reference");
      }
      if (leaves != refs[c].leaves || rel_rows != refs[c].rel_rows) {
        Fail(cell.label + ": traced pass saw " + std::to_string(leaves) +
             " leaves / " + std::to_string(rel_rows) +
             " rel rows, reference " + std::to_string(refs[c].leaves) +
             " / " + std::to_string(refs[c].rel_rows));
      }
    }

    const double n = static_cast<double>(cells.size());
    const double exec_med = Median(execute), translate_med = Median(translate),
                 rel_med = Median(rel), session_med = Median(session),
                 parse_med = Median(parse), decompose_med = Median(decompose),
                 plan_med = Median(plan_t);
    mean.parse_us += parse_med / n;
    mean.decompose_us += decompose_med / n;
    mean.plan_us += plan_med / n;
    mean.leaves += static_cast<double>(leaves) / n;
    mean.sql_translate_us += translate_med / n;
    mean.sql_execute_us += exec_med / n;
    mean.sql_decode_us +=
        ClampedRemainder(exec_med, {translate_med, rel_med}) / n;
    mean.rdf_execute_us += Median(rdf) / n;
    mean.rel_exec_us += rel_med / n;
    mean.rel_rows += static_cast<double>(rel_rows) / n;
    mean.session_us += session_med / n;
    const double leaf_med = Median(leaf_exec);
    mean.mediator_us += ClampedRemainder(session_med, {parse_med, decompose_med,
                                                       plan_med, leaf_med}) /
                        n;
  }
  mean.overshoot_us = TransferOvershootUs(seed);
  return mean;
}

// ------------------------------------------------------------------ output

class JsonWriter {
 public:
  void Number(const std::string& key, double value) {
    char buf[64];
    auto res = std::to_chars(buf, buf + sizeof(buf), value);
    Raw(key, std::string(buf, res.ptr));
  }
  void String(const std::string& key, const std::string& value) {
    Raw(key, "\"" + value + "\"");
  }
  void Metric(const std::string& name, double value, const std::string& unit) {
    JsonWriter m;
    m.Number("value", value);
    m.String("unit", unit);
    Raw(name, m.Render());
  }
  void Raw(const std::string& key, const std::string& json) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + key + "\": " + json;
  }
  std::string Render() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

using Field = double (*)(const Sample&);

// The `p` percentile of `field` within each cell.
std::vector<double> CellPercentiles(const std::vector<Sample>& samples,
                                    size_t cells, Field field, double p) {
  std::vector<std::vector<double>> by_cell(cells);
  for (const Sample& s : samples) by_cell[s.cell].push_back(field(s));
  std::vector<double> out;
  for (const auto& values : by_cell) out.push_back(Percentile(values, p));
  return out;
}

double SumOfCellPercentiles(const std::vector<Sample>& samples, size_t cells,
                            Field field, double p) {
  double sum = 0;
  for (double v : CellPercentiles(samples, cells, field, p)) sum += v;
  return sum;
}

double MeanOfCellMedians(const std::vector<Sample>& samples, size_t cells,
                         Field field) {
  return SumOfCellPercentiles(samples, cells, field, 0.5) /
         static_cast<double>(cells);
}

std::vector<double> Column(const std::vector<Sample>& samples, Field field) {
  std::vector<double> out;
  out.reserve(samples.size());
  for (const Sample& s : samples) out.push_back(field(s));
  return out;
}

double TotalMs(const Sample& s) { return s.total_ms; }
double QueueMs(const Sample& s) { return s.queue_ms; }
double ExecMs(const Sample& s) { return s.total_ms - s.queue_ms; }
double SubmitUs(const Sample& s) { return s.submit_us; }
double FirstMs(const Sample& s) { return s.first_ms; }
double CpuMs(const Sample& s) { return s.cpu_ms; }
double DelayMs(const Sample& s) { return s.delay_ms; }
double Messages(const Sample& s) { return static_cast<double>(s.messages); }
// CPU spent until the first answer, pro rata the session's wall timeline.
double FirstCpuMs(const Sample& s) {
  return s.completion_ms > 0 ? s.cpu_ms * s.first_ms / s.completion_ms
                             : s.cpu_ms;
}

void EmitEndToEnd(const Workload& w, const Setup& setup, const Timed& t,
                  size_t cells, JsonWriter* m) {
  const auto& s = t.samples;
  // CPU-bound timings are converted to the reference machine, so a host
  // that is slower for a while (other tenants on the same cores) does not
  // read as a slower engine.
  const double speed = t.speed_factor;
  m->Metric("cpu_ms_per_query", Median(t.round_cpu_ms) * speed, "ms");
  m->Metric("rows_shipped_per_query", MeanOfCellMedians(s, cells, Messages),
            "rows");
  m->Metric("peak_rss_mb", t.peak_rss_mb, "MB");
  m->Metric("setup_s", setup.setup_s * speed, "s");
  // Latency-shaped metrics read the clock that bounds the phase: the wall
  // clock under simulated network wait, the CPU clock where there is none.
  const Field latency = w.cpu_clock ? CpuMs : TotalMs;
  const double scale = w.cpu_clock ? speed : 1.0;
  m->Metric("grid_ms", SumOfCellPercentiles(s, cells, latency, 0.5) * scale,
            "ms");
  m->Metric("first_answer_ms",
            SumOfCellPercentiles(s, cells, w.cpu_clock ? FirstCpuMs : FirstMs,
                                 0.5) *
                scale,
            "ms");
  if (w.cpu_clock) {
    double cpu_ms = 0;
    for (const Sample& sample : s) cpu_ms += sample.cpu_ms;
    m->Metric("qps", static_cast<double>(s.size()) * 1e3 / (cpu_ms * speed),
              "1/s");
  } else {
    m->Metric("qps", Median(t.round_qps), "1/s");
  }
  // A grid weighs its cells equally and they differ in latency up to
  // tenfold, so the pooled median falls in the gap between two cells and
  // jumps with one sample more or less; grids take the percentiles over
  // the cells' medians instead.
  const std::vector<double> pool =
      w.grid ? CellPercentiles(s, cells, latency, 0.5) : Column(s, latency);
  m->Metric("latency_p50_ms", Percentile(pool, 0.5) * scale, "ms");
  m->Metric("latency_p95_ms", Percentile(pool, 0.95) * scale, "ms");
}

void EmitPerLayer(const Setup& setup, const Timed& t, const Layers& l,
                  size_t cells, JsonWriter* m) {
  const double sessions = static_cast<double>(t.attempted);
  const auto& s = t.samples;
  m->Metric("sparql.parse_us", l.parse_us, "us");
  m->Metric("fed.decompose_us", l.decompose_us, "us");
  m->Metric("fed.plan_us", l.plan_us, "us");
  m->Metric("fed.leaves_per_query", l.leaves, "count");
  m->Metric("wrapper.sql_translate_us", l.sql_translate_us, "us");
  m->Metric("wrapper.sql_execute_us", l.sql_execute_us, "us");
  m->Metric("wrapper.sql_decode_us", l.sql_decode_us, "us");
  m->Metric("wrapper.rdf_execute_us", l.rdf_execute_us, "us");
  m->Metric("rel.exec_us", l.rel_exec_us, "us");
  m->Metric("rel.rows_per_query", l.rel_rows, "count");
  m->Metric("net.delay_ms_per_query", MeanOfCellMedians(s, cells, DelayMs),
            "ms");
  m->Metric("net.transfer_overshoot_us", l.overshoot_us, "us");
  m->Metric("fed.session_us", l.session_us, "us");
  m->Metric("fed.mediator_us", l.mediator_us, "us");
  m->Metric("fed.grid_wall_p10_ms",
            SumOfCellPercentiles(s, cells, TotalMs, 0.1), "ms");
  m->Metric("svc.queue_wait_p50_ms", Percentile(Column(s, QueueMs), 0.5),
            "ms");
  m->Metric("svc.exec_p50_ms", Percentile(Column(s, ExecMs), 0.5), "ms");
  m->Metric("svc.submit_us", Percentile(Column(s, SubmitUs), 0.5), "us");
  m->Metric("svc.sched_steps_per_query",
            static_cast<double>(t.sched.steps) / sessions, "count");
  m->Metric("svc.sched_parks_per_query",
            static_cast<double>(t.sched.parks) / sessions, "count");
  m->Metric("svc.sched_steals_per_query",
            static_cast<double>(t.sched.steals) / sessions, "count");
  m->Metric("svc.io_jobs_per_query",
            static_cast<double>(t.sched.io_jobs) / sessions, "count");
  m->Metric("svc.util_cores", t.cpu_s / t.wall_s, "cores");
  m->Metric("svc.threads_peak", static_cast<double>(t.threads_peak), "count");
  m->Metric("lslod.build_lake_s", setup.build_lake_s, "s");
}

void EmitHost(const Timed& t, JsonWriter* m) {
  m->Metric("host.other_busy_cores", t.other_busy_cores, "cores");
  m->Metric("host.nivcsw_per_query",
            t.nivcsw / static_cast<double>(t.attempted), "count");
  m->Metric("host.calib_ms", t.calibration_ms, "ms");
  m->Metric("host.nproc",
            static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)), "count");
}

std::string Context(const Workload& w, const Setup& setup, const Timed& t,
                    uint64_t seed, double seconds, size_t cells,
                    const std::string& git_sha) {
  JsonWriter c;
  c.String("workload", w.name);
  c.Number("seed", static_cast<double>(seed));
  c.Number("seconds", seconds);
  c.Number("scale", kLakeScale);
  c.Number("lake_seed", static_cast<double>(kLakeSeed));
  c.String("network", w.network.name);
  c.Number("time_scale", w.network.time_scale);
  c.Number("cells", static_cast<double>(cells));
  c.Number("workers", static_cast<double>(w.workers));
  c.Number("io_threads",
           static_cast<double>(setup.service->scheduler()->num_io_threads()));
  c.Number("run_slots", static_cast<double>(setup.service->run_slots()));
  c.Number("in_flight", static_cast<double>(w.in_flight));
  c.Number("tenants", static_cast<double>(w.tenants));
  c.String("rdf_sources", w.rdf_kegg_goa ? "kegg,goa" : "");
  c.String("latency_clock", w.cpu_clock ? "process_cpu" : "wall");
  c.Number("calibration_ref_ms", kCalibrationRefMs);
  c.Number("speed_factor", t.speed_factor);
  c.Number("measured_cpu_ms_per_query", Median(t.round_cpu_ms));
  c.Number("measured_setup_s", setup.setup_s);
  c.Number("setup_repeats", kSetupRepeats);
  c.Number("rounds", kRounds);
  c.Number("sessions_ok", static_cast<double>(t.samples.size()));
  std::string ignored;
  for (const char* var :
       {"LAKEFED_TIME_SCALE", "LAKEFED_BENCH_SCALE", "LAKEFED_SEED"}) {
    if (std::getenv(var) != nullptr) {
      ignored += std::string(ignored.empty() ? "" : ",") + var;
    }
  }
  c.String("ignored_env", ignored);
  c.String("build_type", PERFBENCH_BUILD_TYPE);
  c.String("git_sha", git_sha);
  EmitHost(t, &c);
  return c.Render();
}

int Main(int argc, char** argv) {
  std::string workload_name, git_sha = "unknown";
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      trace = std::atoi(value.c_str());
    } else if (flag == "--git-sha") {
      git_sha = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  const std::optional<Workload> workload = FindWorkload(workload_name);
  if (!workload.has_value() || seconds <= 0 || (trace != 0 && trace != 1)) {
    std::fprintf(stderr,
                 "usage: lakefed_perfbench --workload grid_nodelay|grid_gamma3|"
                 "service_mix --seed N --seconds S --trace 0|1\n");
    return 2;
  }
  const Workload& w = *workload;
  const std::vector<Cell> cells = Cells(w);

  Calibrator calibrator;
  Setup setup = BuildSetup(w);
  std::printf("set-up %.3f s (lake %.3f s)\n", setup.setup_s,
              setup.build_lake_s);
  std::vector<Reference> refs;
  for (const Cell& cell : cells) {
    refs.push_back(ComputeReference(setup, w, cell));
  }

  const Timed timed =
      RunTimed(&setup, w, cells, refs, seed, seconds, &calibrator);
  std::printf("timed: %zu ok / %lu attempted in %.3f s\n",
              timed.samples.size(), static_cast<unsigned long>(timed.attempted),
              timed.wall_s);

  JsonWriter metrics;
  if (trace == 0) {
    EmitEndToEnd(w, setup, timed, cells.size(), &metrics);
  } else {
    const Layers layers = RunTraced(setup, w, cells, refs, seed);
    EmitPerLayer(setup, timed, layers, cells.size(), &metrics);
    EmitHost(timed, &metrics);
  }
  setup.service->Shutdown();

  std::printf("{\"context\": %s}\n",
              Context(w, setup, timed, seed, seconds, cells.size(), git_sha)
                  .c_str());
  JsonWriter result;
  result.Raw("correct", timed.failed == 0 ? "true" : "false");
  result.Number("attempted", static_cast<double>(timed.attempted));
  result.Number("failed", static_cast<double>(timed.failed));
  result.Raw("metrics", metrics.Render());
  std::printf("%s\n", result.Render().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace lakefed::perfbench

int main(int argc, char** argv) {
  return lakefed::perfbench::Main(argc, argv);
}
