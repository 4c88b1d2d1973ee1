#include "workloads.h"

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <thread>
#include <utility>

#include "cluster/cluster_config.h"
#include "cluster/node_class.h"
#include "cluster/placement.h"
#include "common/stats.h"
#include "energy/attribution.h"
#include "energy/meter.h"
#include "exec/executor.h"
#include "exec/runtime.h"
#include "ledger.h"
#include "net/inproc.h"
#include "net/socket.h"
#include "obs/op_profile.h"
#include "oracle.h"
#include "sysinfo.h"
#include "tpch/dbgen.h"
#include "workload/engine.h"
#include "workload/profiles.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
using eedc::Status;
using eedc::StatusOr;
using eedc::workload::kNumQueryKinds;
using eedc::workload::QueryKind;
using eedc::workload::QueryKindName;

constexpr std::array<QueryKind, kNumQueryKinds> kKinds = {
    QueryKind::kQ1, QueryKind::kQ3, QueryKind::kQ12, QueryKind::kQ21};
constexpr std::array<const char*, kNumQueryKinds> kKindPrefix = {
    "q1", "q3", "q12", "q21"};
/// Relative tolerance of the result check, as EngineFleet's identity
/// gates use it (partial double sums reassociate across nodes).
constexpr double kResultEps = 1e-6;
/// AttributeConcurrent must conserve the co-run's joules to this.
constexpr double kConservationJoules = 1e-6;
/// The tail percentile every workload reports per kind.
constexpr double kTail = 0.90;
/// Samples per kind a window collects at least: enough for kTail to have
/// 10 samples beyond it.
const std::size_t kMinSamples = MinSamplesFor(kTail);
/// The co-run window collects more: its throughput swings by +-10% over
/// 5 s spans, which 200 rounds (30-45 s on a 4-thread host) average out.
constexpr std::size_t kCorunMinSamples = 200;
/// Longest a window may stretch to collect its samples.
constexpr double kMaxWindowSeconds = 90.0;
/// Closed-loop clients of the co-run workload, at most.
constexpr int kCorunClients = 4;
/// Set-ups per run (setup_s is their median).
constexpr int kSetupRepeats = 5;
/// Each process_small query leaves ~12 loopback TCP sockets in TIME_WAIT
/// for 60 s. On a 4-thread host qps holds up to ~14k such sockets, sags
/// by 5-10% toward 19k and collapses four-fold beyond ~20k, when they
/// hold most ephemeral ports. One run (2 s warm-up, 4 s window) adds
/// ~8.5k, so the workload first waits until at most this many remain —
/// and prints that it did — which keeps every run below ~18k however
/// runs follow each other. net.tcp_time_wait_per_query counts only the
/// window's own sockets.
constexpr long kTimeWaitStartLimit = 9000;
constexpr double kTimeWaitMaxWaitSeconds = 65.0;

constexpr std::array<eedc::obs::OpStage, eedc::obs::kNumOpStages> kStages = {
    eedc::obs::OpStage::kScan,         eedc::obs::OpStage::kFilter,
    eedc::obs::OpStage::kProject,      eedc::obs::OpStage::kJoinBuild,
    eedc::obs::OpStage::kJoinProbe,    eedc::obs::OpStage::kAgg,
    eedc::obs::OpStage::kExchangeSend, eedc::obs::OpStage::kExchangeReceive};
constexpr std::array<const char*, eedc::obs::kNumOpStages> kStageMetric = {
    "exec.scan_s",          "exec.filter_s",       "exec.project_s",
    "exec.join_build_s",    "exec.join_probe_s",   "exec.agg_s",
    "exec.exchange_send_s", "exec.exchange_recv_s"};

/// Every metric a run reports, in print order. The end-to-end metrics
/// come first; the rest are per layer.
std::vector<MetricSpec> Catalogue() {
  std::vector<MetricSpec> c = {{"qps", "1/s"}, {"warmup_qps", "1/s"}};
  for (const char* k : kKindPrefix) c.push_back({std::string(k) + "_p50_s", "s"});
  for (const char* k : kKindPrefix) c.push_back({std::string(k) + "_p90_s", "s"});
  const std::vector<MetricSpec> rest = {
      {"joules_per_query", "J"},
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
      {"failed_frac", "fraction"},
      {"tpch.dbgen_s", "s"},
      {"storage.load_s", "s"},
      {"cluster.place_s", "s"},
      {"net.spawn_s", "s"},
      {"check.oracle_s", "s"},
      {"check.verify_s", "s"},
      {"exec.scan_s", "s"},
      {"exec.filter_s", "s"},
      {"exec.project_s", "s"},
      {"exec.join_build_s", "s"},
      {"exec.join_probe_s", "s"},
      {"exec.agg_s", "s"},
      {"exec.exchange_send_s", "s"},
      {"exec.exchange_recv_s", "s"},
      {"exec.busy_s", "s"},
      {"exec.exchange_wait_s", "s"},
      {"net.credit_wait_s", "s"},
      {"exec.ledger_residual_frac", "fraction"},
      {"exec.queue_delay_p50_s", "s"},
      {"exec.mean_in_flight", "count"},
      {"host.cpu_util", "fraction"},
      {"net.remote_bytes_per_query", "bytes"},
      {"net.fragment_wall_s", "s"},
      {"net.coord_overhead_s", "s"},
      {"net.tcp_time_wait_per_query", "count"},
      {"energy.finish_s", "s"},
      {"energy.busy_j_per_query", "J"},
      {"energy.idle_j_per_query", "J"},
      {"energy.network_j_per_query", "J"},
      {"energy.billed_per_cpu", "ratio"},
      {"trace.qps", "1/s"},
  };
  c.insert(c.end(), rest.begin(), rest.end());
  return c;
}

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double Median(std::vector<double> xs) {
  return xs.empty() ? std::nan("") : eedc::Percentile(xs, 0.5);
}

std::string Fixed(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  return buf;
}

/// The kind order: rounds, each a seeded permutation of the four kinds,
/// so every kind is issued equally often and any prefix that ends on a
/// round boundary holds the same count of each.
class KindSchedule {
 public:
  explicit KindSchedule(std::uint64_t seed) : rng_(seed) {}

  QueryKind Next() {
    if (pos_ == 0) std::shuffle(round_.begin(), round_.end(), rng_);
    const QueryKind kind = round_[static_cast<std::size_t>(pos_)];
    pos_ = (pos_ + 1) % kNumQueryKinds;
    return kind;
  }

 private:
  std::mt19937_64 rng_;
  std::array<QueryKind, kNumQueryKinds> round_ = kKinds;
  int pos_ = 0;
};

/// Closed-loop load: clients take the next query from one shared
/// schedule and issue it once their previous one has returned. Taking
/// stops on a round boundary once the window has lasted `seconds` and
/// `min_rounds` whole rounds were issued, or kMaxWindowSeconds passed.
class ClosedLoop {
 public:
  ClosedLoop(std::uint64_t seed, double seconds, std::size_t min_rounds)
      : schedule_(seed), seconds_(seconds), min_rounds_(min_rounds) {}

  void Start() { t0_ = Clock::now(); }
  Clock::time_point start() const { return t0_; }

  /// The next query's sequence number and kind, or nullopt when the
  /// window is closed.
  std::optional<std::pair<int, QueryKind>> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    if (next_ % kNumQueryKinds == 0) {
      const double elapsed = Since(t0_);
      const auto rounds = static_cast<std::size_t>(next_ / kNumQueryKinds);
      if ((elapsed >= seconds_ && rounds >= min_rounds_) ||
          elapsed >= std::max(seconds_, kMaxWindowSeconds)) {
        return std::nullopt;
      }
    }
    return std::make_pair(next_++, schedule_.Next());
  }

 private:
  std::mutex mu_;
  KindSchedule schedule_;  // guarded by mu_
  int next_ = 0;           // guarded by mu_
  const double seconds_;
  const std::size_t min_rounds_;
  Clock::time_point t0_ = Clock::now();
};

/// Runs `client(c)` for c in [0, n): inline for one client, else on n
/// threads, all joined before returning.
template <typename Client>
void RunClients(int n, Client&& client) {
  if (n == 1) {
    client(0);
    return;
  }
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(n));
  for (int c = 0; c < n; ++c) {
    threads.emplace_back([&client, c] { client(c); });
  }
  for (std::thread& t : threads) t.join();
}

/// What one query measured. Fields a workload cannot observe stay zero
/// and are not reported for it.
struct QueryRecord {
  int seq = -1;  // -1 during warm-up
  QueryKind kind = QueryKind::kQ1;
  double latency_s = 0.0;  // engine call until result (and joules) in hand
  bool ok = false;
  std::string error;
  double check_s = 0.0;
  double remote_bytes = 0.0;
  // inproc_serial: the meter's report.
  double joules = 0.0;
  double busy_j = 0.0;
  double idle_j = 0.0;
  double network_j = 0.0;
  double billed_busy_s = 0.0;
  double finish_s = 0.0;
  // inproc_corun: admission.
  double queue_delay_s = 0.0;
  // process_small.
  double fragment_wall_s = 0.0;
  // Operator profile of traced in-process runs, summed over nodes.
  std::array<double, eedc::obs::kNumOpStages> stage_s{};
  double busy_s = 0.0;
  double exchange_wait_s = 0.0;
  double credit_wait_s = 0.0;
  double residual_frac = 0.0;  // worst node
};

void RecordProfile(const eedc::exec::ExecMetrics& metrics, QueryRecord* r) {
  for (const eedc::exec::NodeMetrics& node : metrics.nodes) {
    double stages = 0.0;
    for (std::size_t s = 0; s < kStages.size(); ++s) {
      const double sec = node.op.of(kStages[s]).seconds;
      r->stage_s[s] += sec;
      stages += sec;
    }
    const double accounted = node.busy.seconds() +
                             node.exchange_wait.seconds() +
                             node.credit_wait.seconds();
    r->busy_s += node.busy.seconds();
    r->exchange_wait_s += node.exchange_wait.seconds();
    r->credit_wait_s += node.credit_wait.seconds();
    if (accounted > 0.0) {
      r->residual_frac = std::max(r->residual_frac,
                                  std::abs(stages - accounted) / accounted);
    }
  }
}

StatusOr<eedc::cluster::ClusterConfig> PaperFleet() {
  const eedc::cluster::NodeClassRegistry registry =
      eedc::cluster::NodeClassRegistry::PaperDefault();
  return eedc::cluster::ClusterConfig::FromRegistry(
      registry, {{"beefy", 1}, {"wimpy", 2}});
}

/// EngineFleet's layout: facts hash-partitioned over every node,
/// dimensions replicated.
Status LoadTables(const eedc::tpch::TpchDatabase& db,
                  eedc::exec::ClusterData* data) {
  EEDC_RETURN_IF_ERROR(
      data->LoadHashPartitioned("lineitem", *db.lineitem, "l_orderkey"));
  EEDC_RETURN_IF_ERROR(
      data->LoadHashPartitioned("orders", *db.orders, "o_custkey"));
  data->LoadReplicated("supplier", db.supplier);
  data->LoadReplicated("nation", db.nation);
  return Status::OK();
}

struct SetupTimes {
  double dbgen_s = 0.0;
  double load_s = 0.0;
  double place_s = 0.0;
  double total() const { return dbgen_s + load_s + place_s; }
};

/// The in-process fleet's data and per-kind placements. Placements point
/// into the ClusterConfig they were made from, which must outlive them.
struct InprocFleet {
  eedc::tpch::TpchDatabase db;
  std::unique_ptr<eedc::exec::ClusterData> data;
  std::array<eedc::cluster::EnginePlacement, kNumQueryKinds> placements;
};

StatusOr<std::unique_ptr<InprocFleet>> BuildInproc(
    const eedc::cluster::ClusterConfig& fleet, double sf, std::uint64_t seed,
    SetupTimes* times, SpanLog* spans) {
  auto f = std::make_unique<InprocFleet>();
  double t = spans->Now();
  auto t0 = Clock::now();
  eedc::tpch::DbgenOptions dbgen;
  dbgen.scale_factor = sf;
  dbgen.seed = seed;
  f->db = eedc::tpch::GenerateDatabase(dbgen);
  times->dbgen_s = Since(t0);
  spans->Add("tpch::GenerateDatabase", "tpch", t, spans->Now());

  t = spans->Now();
  t0 = Clock::now();
  f->data = std::make_unique<eedc::exec::ClusterData>(fleet.total_nodes());
  EEDC_RETURN_IF_ERROR(LoadTables(f->db, f->data.get()));
  times->load_s = Since(t0);
  spans->Add("ClusterData::Load", "storage", t, spans->Now());

  t = spans->Now();
  t0 = Clock::now();
  eedc::cluster::PlacementOptions placement_options;
  placement_options.replicated_tables = {"supplier", "nation"};
  const eedc::cluster::PlacementPolicy policy(placement_options);
  for (std::size_t k = 0; k < kKinds.size(); ++k) {
    EEDC_ASSIGN_OR_RETURN(eedc::exec::PlanPtr plan,
                          eedc::workload::PlanForKind(kKinds[k], f->db));
    EEDC_ASSIGN_OR_RETURN(f->placements[k],
                          policy.Place(std::move(plan), fleet));
  }
  times->place_s = Since(t0);
  spans->Add("PlacementPolicy::Place", "cluster", t, spans->Now());
  return f;
}

using Oracles = std::array<std::unique_ptr<ResultOracle>, kNumQueryKinds>;

/// Reference results from a 1-node executor over the same database.
StatusOr<Oracles> BuildOracles(const eedc::tpch::TpchDatabase& db) {
  eedc::exec::ClusterData single(1);
  EEDC_RETURN_IF_ERROR(LoadTables(db, &single));
  eedc::exec::Executor reference(&single);
  Oracles oracles;
  for (std::size_t k = 0; k < kKinds.size(); ++k) {
    EEDC_ASSIGN_OR_RETURN(eedc::exec::PlanPtr plan,
                          eedc::workload::PlanForKind(kKinds[k], db));
    EEDC_ASSIGN_OR_RETURN(eedc::exec::QueryResult result,
                          reference.Execute(std::move(plan)));
    oracles[k] = std::make_unique<ResultOracle>(
        std::make_shared<const eedc::storage::Table>(std::move(result.table)),
        kResultEps);
  }
  return oracles;
}

std::vector<std::shared_ptr<const eedc::power::PowerModel>> PowerModels(
    const eedc::cluster::EnginePlacement& p) {
  std::vector<std::shared_ptr<const eedc::power::PowerModel>> models;
  for (const eedc::cluster::NodeClassSpec* cls : p.node_classes) {
    models.push_back(cls->power_model);
  }
  return models;
}

/// Checks one result, outside the latency window.
void CheckResult(const ResultOracle& oracle,
                 const eedc::storage::Table& table, QueryRecord* r) {
  const auto t0 = Clock::now();
  std::string diff;
  r->ok = oracle.Matches(table, &diff);
  if (!r->ok) r->error = std::string(QueryKindName(r->kind)) + ": " + diff;
  r->check_s = Since(t0);
}

/// Host readings taken at both ends of the window.
struct HostSample {
  double cpu_s = 0.0;
  std::optional<long> time_wait;

  static HostSample Take(const std::vector<pid_t>& children) {
    HostSample s;
    s.cpu_s = SelfCpuSeconds();
    for (const pid_t pid : children) s.cpu_s += ProcessCpuSeconds(pid);
    s.time_wait = TcpTimeWait();
    return s;
  }
};

struct WindowData {
  std::vector<QueryRecord> records;  // the measured window's queries
  double window_s = 0.0;
  double warmup_s = 0.0;
  int warmup_queries = 0;
  int warmup_failed = 0;
  HostSample host_begin;
  HostSample host_end;
  /// Sockets that entered TIME_WAIT during the window.
  std::optional<long> new_time_wait;
  std::vector<std::string> errors;

  double cpu_s() const { return host_end.cpu_s - host_begin.cpu_s; }
  std::size_t ok() const {
    return static_cast<std::size_t>(
        std::count_if(records.begin(), records.end(),
                       [](const QueryRecord& r) { return r.ok; }));
  }
};

double WarmupSeconds(const RunOptions& o, double normal) {
  return o.smoke ? std::min(normal, 0.25) : normal;
}

/// Warm-up by time, then the measured window; both are closed loops of
/// `clients` clients. The window lasts at least o.seconds and until every
/// kind has `min_samples` samples. `run_one(client, record)` issues the
/// record's query and fills in what it measured. `open_window()` runs
/// between the two phases, when no query is in flight.
template <typename RunOne, typename OpenWindow>
WindowData DriveLoad(const RunOptions& o, int clients, double warmup_s,
                     std::size_t min_samples,
                     const std::vector<pid_t>& children, RunOne&& run_one,
                     OpenWindow&& open_window) {
  WindowData w;
  std::mutex mu;  // guards w while clients run
  ClosedLoop warm(o.seed ^ 0x5eedull, WarmupSeconds(o, warmup_s), 0);
  warm.Start();
  RunClients(clients, [&](int c) {
    while (const auto next = warm.Take()) {
      QueryRecord r;
      r.kind = next->second;
      run_one(c, &r);
      std::lock_guard<std::mutex> lock(mu);
      ++w.warmup_queries;
      if (!r.ok) {
        ++w.warmup_failed;
        w.errors.push_back("warm-up " + r.error);
      }
    }
  });
  w.warmup_s = Since(warm.start());
  open_window();

  // Rounds hold one query of each kind.
  ClosedLoop loop(o.seed, o.seconds, o.smoke ? 0 : min_samples);
  w.host_begin = HostSample::Take(children);
  loop.Start();
  RunClients(clients, [&](int c) {
    while (const auto next = loop.Take()) {
      QueryRecord r;
      r.seq = next->first;
      r.kind = next->second;
      run_one(c, &r);
      std::lock_guard<std::mutex> lock(mu);
      if (!r.ok) w.errors.push_back(r.error);
      w.records.push_back(std::move(r));
    }
  });
  w.window_s = Since(loop.start());
  w.host_end = HostSample::Take(children);
  w.new_time_wait = TcpTimeWaitYoungerThan(Since(loop.start()));
  return w;
}

template <typename Fn>
double MeanOk(const std::vector<QueryRecord>& rs, Fn&& field) {
  double sum = 0.0;
  std::size_t n = 0;
  for (const QueryRecord& r : rs) {
    if (!r.ok) continue;
    sum += field(r);
    ++n;
  }
  return n == 0 ? std::nan("") : sum / static_cast<double>(n);
}

template <typename Fn>
double MedianOk(const std::vector<QueryRecord>& rs, Fn&& field) {
  std::vector<double> xs;
  for (const QueryRecord& r : rs) {
    if (r.ok) xs.push_back(field(r));
  }
  return Median(std::move(xs));
}

/// The metrics every workload measures the same way.
void AddCommonMetrics(const WindowData& w, const std::vector<SetupTimes>& st,
                      double oracle_s, RunResult* out) {
  Report& rep = out->report;
  std::array<std::vector<double>, kNumQueryKinds> latency;
  double engine_s = 0.0;
  for (const QueryRecord& r : w.records) {
    ++out->attempted;
    engine_s += r.latency_s;
    if (!r.ok) {
      ++out->failed;
      continue;
    }
    latency[static_cast<std::size_t>(r.kind)].push_back(r.latency_s);
  }
  out->correct = out->failed == 0 && w.warmup_failed == 0;
  const std::size_t ok = w.ok();
  rep.Add("qps", static_cast<double>(ok) / w.window_s,
          std::to_string(ok) + " queries in " + Fixed(w.window_s, 2) + " s");
  rep.Add("warmup_qps", w.warmup_queries / w.warmup_s,
          std::to_string(w.warmup_queries) + " queries in " +
              Fixed(w.warmup_s, 2) + " s before the window");
  for (std::size_t k = 0; k < kKinds.size(); ++k) {
    rep.AddPercentile(std::string(kKindPrefix[k]) + "_p50_s",
                      TailPercentile(latency[k], 0.5));
    rep.AddPercentile(std::string(kKindPrefix[k]) + "_p90_s",
                      TailPercentile(latency[k], kTail));
  }
  rep.Add("failed_frac",
          out->attempted == 0 ? 0.0
                              : static_cast<double>(out->failed) /
                                    static_cast<double>(out->attempted),
          std::to_string(out->failed) + " of " +
              std::to_string(out->attempted) + " attempted");

  std::vector<double> dbgen, load, place;
  for (const SetupTimes& t : st) {
    dbgen.push_back(t.dbgen_s);
    load.push_back(t.load_s);
    place.push_back(t.place_s);
  }
  rep.Add("tpch.dbgen_s", Median(dbgen));
  rep.Add("storage.load_s", Median(load));
  rep.Add("cluster.place_s", Median(place));
  rep.Add("check.oracle_s", oracle_s, "1-node reference results");
  rep.Add("check.verify_s",
          MeanOk(w.records, [](const QueryRecord& r) { return r.check_s; }),
          "per query, outside the latency window");
  rep.Add("exec.mean_in_flight", engine_s / w.window_s,
          "summed query latency / window");
  rep.Add("host.cpu_util",
          w.cpu_s() / (static_cast<double>(Nproc()) * w.window_s),
          "CPU s / (nproc x window)");
  rep.Add("net.remote_bytes_per_query",
          MeanOk(w.records,
                 [](const QueryRecord& r) { return r.remote_bytes; }));
  if (w.new_time_wait.has_value()) {
    rep.Add("net.tcp_time_wait_per_query",
            static_cast<double>(*w.new_time_wait) /
                static_cast<double>(std::max<std::int64_t>(1, out->attempted)),
            std::to_string(*w.new_time_wait) +
                " sockets entered TIME_WAIT in the window; " +
                std::to_string(w.host_begin.time_wait.value_or(-1)) + " -> " +
                std::to_string(w.host_end.time_wait.value_or(-1)) +
                " in TIME_WAIT overall");
  } else {
    rep.AddNotMeasured("net.tcp_time_wait_per_query",
                       "/proc/net/tcp is unreadable");
  }
}

/// Operator-stage self times and the busy/wait ledger, from the traced
/// run's per-query profiles.
void AddProfileMetrics(const std::vector<QueryRecord>& rs, bool traced,
                       RunResult* out) {
  Report& rep = out->report;
  const std::vector<std::string> names = {
      "exec.busy_s", "exec.exchange_wait_s", "net.credit_wait_s",
      "exec.ledger_residual_frac"};
  if (!traced) {
    const std::string why = "operator profiling is on in the traced run only";
    for (const char* name : kStageMetric) rep.AddNotMeasured(name, why);
    for (const std::string& name : names) rep.AddNotMeasured(name, why);
    return;
  }
  const std::string per_query = "per query, summed over nodes";
  for (std::size_t s = 0; s < kStages.size(); ++s) {
    rep.Add(kStageMetric[s],
            MeanOk(rs, [s](const QueryRecord& r) { return r.stage_s[s]; }),
            "self time " + per_query);
  }
  rep.Add("exec.busy_s",
          MeanOk(rs, [](const QueryRecord& r) { return r.busy_s; }),
          per_query);
  rep.Add("exec.exchange_wait_s",
          MeanOk(rs, [](const QueryRecord& r) { return r.exchange_wait_s; }),
          per_query);
  rep.Add("net.credit_wait_s",
          MeanOk(rs, [](const QueryRecord& r) { return r.credit_wait_s; }),
          per_query);
  double worst = 0.0;
  for (const QueryRecord& r : rs) {
    if (r.ok) worst = std::max(worst, r.residual_frac);
  }
  rep.Add("exec.ledger_residual_frac",
          MedianOk(rs, [](const QueryRecord& r) { return r.residual_frac; }),
          "median over queries of the worst node's |stages - (busy + "
          "waits)| / (busy + waits); max " +
              Fixed(worst, 4) + "; known defect under credit stalls");
}

void AddNotMeasured(Report* rep, const std::vector<std::string>& names,
                    const std::string& why) {
  for (const std::string& name : names) rep->AddNotMeasured(name, why);
}

std::vector<std::string> BaseInfo(const RunOptions& o, double sf,
                                  const eedc::cluster::ClusterConfig& fleet,
                                  const std::vector<int>& workers,
                                  int clients, std::size_t min_samples) {
  int total = 0;
  std::string per_node;
  for (const int w : workers) {
    total += w;
    per_node += (per_node.empty() ? "" : "+") + std::to_string(w);
  }
  const int nproc = Nproc();
  return {"workload=" + o.workload,
          "seed=" + std::to_string(o.seed),
          "scale_factor=" + Fixed(sf, 3),
          "fleet=" + fleet.Label(),
          "workers_per_node=" + per_node,
          "nproc=" + std::to_string(nproc),
          "oversubscription=" +
              Fixed(static_cast<double>(total) / static_cast<double>(nproc),
                    2),
          "clients=" + std::to_string(clients),
          "window_min_s=" + Fixed(o.seconds, 1),
          "min_samples_per_kind=" +
              std::to_string(o.smoke ? 0 : min_samples),
          "trace=" + std::string(o.trace ? "1" : "0"),
          "smoke=" + std::string(o.smoke ? "1" : "0"),
          "commit=" + o.commit};
}

/// Adds what every runner reports last: errors, the traced run's qps and
/// the trace and ledger files.
Status Finish(const RunOptions& o, const WindowData& w, const SpanLog& spans,
              RunResult* out) {
  for (std::size_t i = 0; i < std::min<std::size_t>(3, w.errors.size());
       ++i) {
    out->info.push_back("error=" + w.errors[i]);
  }
  Report& rep = out->report;
  if (!o.trace) {
    rep.AddNotMeasured("trace.qps", "timed run; see qps");
    return Status::OK();
  }
  rep.Add("trace.qps", *rep.Find("qps")->value,
          "qps of this traced run; the timed run's qps minus it is the "
          "tracing overhead");
  std::error_code ec;
  std::filesystem::create_directories(o.out_dir, ec);
  const std::string stem =
      o.out_dir + "/" + o.workload + "_seed" + std::to_string(o.seed);
  out->info.push_back("trace_spans=" + std::to_string(spans.size()));
  out->info.push_back("trace_file=" + stem + "_trace.json");
  out->info.push_back("ledger_file=" + stem + "_ledger.json");
  EEDC_RETURN_IF_ERROR(spans.WriteChromeTrace(stem + "_trace.json"));
  return WriteLedger(stem + "_ledger.json", out->info, out->report);
}

// ---------------------------------------------------------------------
// inproc_serial: ExecutePerNode with the meter and the in-process
// transport attached exactly as EngineFleet::Init attaches them.

StatusOr<RunResult> RunInprocSerial(const RunOptions& o, double sf) {
  EEDC_ASSIGN_OR_RETURN(const eedc::cluster::ClusterConfig fleet,
                        PaperFleet());
  SpanLog spans(o.trace);
  RunResult out{Report(Catalogue()), {}};

  struct Engine {
    std::unique_ptr<InprocFleet> fleet;
    std::unique_ptr<eedc::energy::EnergyMeter> meter;
    std::unique_ptr<eedc::net::InProcessTransport> transport;
    std::unique_ptr<eedc::exec::Executor> executor;
  };
  Engine engine;
  std::vector<SetupTimes> times;
  std::vector<double> setup_s;
  for (int i = 0; i < (o.smoke ? 1 : kSetupRepeats); ++i) {
    engine = Engine{};  // release the previous set-up first
    const auto t0 = Clock::now();
    SetupTimes t;
    EEDC_ASSIGN_OR_RETURN(engine.fleet,
                          BuildInproc(fleet, sf, o.seed, &t, &spans));
    const eedc::cluster::EnginePlacement& p0 = engine.fleet->placements[0];
    std::vector<int> meter_workers = p0.node_workers;
    for (int& w : meter_workers) w = std::max(1, w);
    engine.meter = std::make_unique<eedc::energy::EnergyMeter>(
        PowerModels(p0), std::move(meter_workers));
    std::vector<eedc::energy::NicModel> nics;
    for (const eedc::cluster::NodeClassSpec* cls : p0.node_classes) {
      nics.push_back(cls->nic_model());
    }
    engine.meter->SetNicModels(std::move(nics));
    engine.transport = std::make_unique<eedc::net::InProcessTransport>();
    eedc::exec::Executor::Options options = p0.MakeExecutorOptions();
    options.activity_listener = engine.meter.get();
    options.transport = engine.transport.get();
    options.profile_operators = o.trace;
    engine.executor = std::make_unique<eedc::exec::Executor>(
        engine.fleet->data.get(), std::move(options));
    setup_s.push_back(Since(t0));
    times.push_back(t);
  }
  const InprocFleet& f = *engine.fleet;

  double t = spans.Now();
  auto t0 = Clock::now();
  EEDC_ASSIGN_OR_RETURN(const Oracles oracles, BuildOracles(f.db));
  const double oracle_s = Since(t0);
  spans.Add("reference results", "check", t, spans.Now());

  const auto run_one = [&](int client, QueryRecord* r) {
    const std::size_t k = static_cast<std::size_t>(r->kind);
    const double begin = spans.Now();
    const auto call = Clock::now();
    engine.meter->Reset();
    StatusOr<eedc::exec::QueryResult> result =
        engine.executor->ExecutePerNode(f.placements[k].plan_for_node);
    const auto finish = Clock::now();
    const eedc::energy::QueryEnergyReport energy = engine.meter->Finish();
    r->latency_s = Since(call);
    r->finish_s = Since(finish);
    const double end = spans.Now();
    spans.Add(std::string("ExecutePerNode ") + QueryKindName(r->kind),
              "exec", begin, end - r->finish_s, r->seq, client);
    spans.Add("EnergyMeter::Finish", "energy", end - r->finish_s, end,
              r->seq, client);
    if (!result.ok()) {
      r->error = result.status().ToString();
      return;
    }
    CheckResult(*oracles[k], result->table, r);
    spans.Add("check", "check", end, spans.Now(), r->seq, client);
    r->joules = energy.total.joules();
    r->busy_j = energy.busy.joules();
    r->idle_j = energy.idle.joules();
    r->network_j = energy.network.joules();
    for (const eedc::energy::NodeEnergyReport& node : energy.nodes) {
      r->billed_busy_s += node.busy.seconds();
    }
    r->remote_bytes = result->metrics.TotalRemoteBytes();
    if (o.trace) RecordProfile(result->metrics, r);
  };
  const WindowData w =
      DriveLoad(o, 1, 2.0, kMinSamples, {}, run_one, [] {});

  out.info =
      BaseInfo(o, sf, fleet, f.placements[0].node_workers, 1, kMinSamples);
  out.info.push_back("transport=" + engine.transport->name());
  out.info.push_back(
      "credit_window_frames=" +
      std::to_string(engine.transport->options().credit_window_frames));
  out.info.push_back("socket_family=none");
  AddCommonMetrics(w, times, oracle_s, &out);
  AddProfileMetrics(w.records, o.trace, &out);
  Report& rep = out.report;
  rep.Add("joules_per_query",
          MeanOk(w.records, [](const QueryRecord& r) { return r.joules; }),
          "EnergyMeter::Finish per query");
  rep.Add("setup_s", Median(setup_s),
          "median of " + std::to_string(setup_s.size()) +
              " set-ups: dbgen, load, placement, meter, executor");
  rep.Add("peak_rss_mb", SelfPeakRssMb());
  rep.AddNotMeasured("net.spawn_s", "no node processes");
  rep.AddNotMeasured("exec.queue_delay_p50_s",
                     "no admission queue: one query at a time");
  AddNotMeasured(&rep, {"net.fragment_wall_s", "net.coord_overhead_s"},
                 "no process fleet");
  rep.Add("energy.finish_s",
          MeanOk(w.records, [](const QueryRecord& r) { return r.finish_s; }),
          "per query, inside the latency window");
  rep.Add("energy.busy_j_per_query",
          MeanOk(w.records, [](const QueryRecord& r) { return r.busy_j; }));
  rep.Add("energy.idle_j_per_query",
          MeanOk(w.records, [](const QueryRecord& r) { return r.idle_j; }));
  rep.Add("energy.network_j_per_query",
          MeanOk(w.records, [](const QueryRecord& r) { return r.network_j; }));
  double billed = 0.0;
  for (const QueryRecord& r : w.records) billed += r.billed_busy_s;
  rep.Add("energy.billed_per_cpu", billed / w.cpu_s(),
          "meter-billed busy s / process CPU s; known defect: descheduled "
          "time is billed as busy");
  EEDC_RETURN_IF_ERROR(Finish(o, w, spans, &out));
  return out;
}

// ---------------------------------------------------------------------
// process_small: EngineFleet::MeasureProcess, one OS process per node.

/// Waits until at most kTimeWaitStartLimit sockets are in TIME_WAIT (or
/// kTimeWaitMaxWaitSeconds pass) and describes what happened.
std::string DrainTimeWait() {
  const auto t0 = Clock::now();
  const std::optional<long> before = TcpTimeWait();
  if (!before.has_value()) return "not drained (/proc/net/sockstat unreadable)";
  std::optional<long> now = before;
  while (now.has_value() && *now > kTimeWaitStartLimit &&
         Since(t0) < kTimeWaitMaxWaitSeconds) {
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
    now = TcpTimeWait();
  }
  return "waited " + Fixed(Since(t0), 1) + " s for TIME_WAIT to fall from " +
         std::to_string(*before) + " to " + std::to_string(now.value_or(-1)) +
         " (limit " + std::to_string(kTimeWaitStartLimit) + ")";
}

StatusOr<RunResult> RunProcessSmall(const RunOptions& o, double sf) {
  EEDC_ASSIGN_OR_RETURN(const eedc::cluster::ClusterConfig fleet,
                        PaperFleet());
  SpanLog spans(o.trace);
  RunResult out{Report(Catalogue()), {}};
  const std::string drained = DrainTimeWait();

  // The in-process layers EngineFleet::Create runs inside, called here
  // at the same scale factor and seed: timed for the set-up ledger, and
  // the database feeds the reference results.
  std::vector<SetupTimes> times;
  std::unique_ptr<InprocFleet> local;
  for (int i = 0; i < (o.smoke ? 1 : kSetupRepeats); ++i) {
    local.reset();
    SetupTimes t;
    EEDC_ASSIGN_OR_RETURN(local, BuildInproc(fleet, sf, o.seed, &t, &spans));
    times.push_back(t);
  }
  const std::vector<int> workers = local->placements[0].node_workers;
  double t = spans.Now();
  auto t0 = Clock::now();
  EEDC_ASSIGN_OR_RETURN(const Oracles oracles, BuildOracles(local->db));
  const double oracle_s = Since(t0);
  spans.Add("reference results", "check", t, spans.Now());
  local.reset();

  // The engine wires TCP loopback when this probe succeeds, else AF_UNIX.
  int probe[2];
  const bool tcp = eedc::net::MakeSocketStreamPair(/*use_tcp=*/true, probe);
  if (tcp) {
    ::close(probe[0]);
    ::close(probe[1]);
  }

  // Create forks one process per node; every thread this process started
  // has been joined by now.
  eedc::workload::EngineFleetOptions fleet_options;
  fleet_options.scale_factor = sf;
  fleet_options.seed = o.seed;
  fleet_options.process_fleet = true;
  std::unique_ptr<eedc::workload::EngineFleet> engine;
  std::vector<double> setup_s;
  for (int i = 0; i < (o.smoke ? 1 : kSetupRepeats); ++i) {
    engine.reset();
    // Hand the memory freed by earlier set-ups back to the kernel, so the
    // node processes do not inherit it: it would swell their resident
    // sets (peak_rss_mb) and the fork by a varying amount.
    malloc_trim(0);
    t = spans.Now();
    t0 = Clock::now();
    EEDC_ASSIGN_OR_RETURN(
        engine, eedc::workload::EngineFleet::Create(fleet, fleet_options));
    setup_s.push_back(Since(t0));
    spans.Add("EngineFleet::Create", "net", t, spans.Now());
  }
  const std::vector<pid_t> nodes = ChildPids();

  const auto run_one = [&](int client, QueryRecord* r) {
    const std::size_t k = static_cast<std::size_t>(r->kind);
    const double begin = spans.Now();
    const auto call = Clock::now();
    StatusOr<eedc::workload::ProcessRun> run = engine->MeasureProcess(r->kind);
    r->latency_s = Since(call);
    const double end = spans.Now();
    spans.Add(std::string("MeasureProcess ") + QueryKindName(r->kind), "net",
              begin, end, r->seq, client);
    if (!run.ok()) {
      r->error = run.status().ToString();
      return;
    }
    CheckResult(*oracles[k], *run->table, r);
    if (r->ok && run->rx_bytes != run->tx_bytes) {
      r->ok = false;
      r->error = std::string(QueryKindName(r->kind)) + ": rx_bytes " +
                 Fixed(run->rx_bytes, 0) + " != tx_bytes " +
                 Fixed(run->tx_bytes, 0);
    }
    spans.Add("check", "check", end, spans.Now(), r->seq, client);
    r->fragment_wall_s = run->wall.seconds();
    r->remote_bytes = run->tx_bytes;
  };
  const WindowData w =
      DriveLoad(o, 1, 2.0, kMinSamples, nodes, run_one, [] {});
  double peak_rss = SelfPeakRssMb();
  for (const pid_t pid : nodes) peak_rss += PeakRssMb(pid);

  out.info = BaseInfo(o, sf, fleet, workers, 1, kMinSamples);
  out.info.push_back("transport=process");
  out.info.push_back(
      "credit_window_frames=" +
      std::to_string(eedc::net::TransportOptions{}.credit_window_frames));
  out.info.push_back(std::string("socket_family=") + (tcp ? "tcp" : "unix"));
  out.info.push_back("node_processes=" + std::to_string(nodes.size()));
  out.info.push_back("time_wait_drain=" + drained);
  AddCommonMetrics(w, times, oracle_s, &out);
  Report& rep = out.report;
  rep.AddNotMeasured("joules_per_query",
                     "ProcessRun carries no joules: the meter cannot see "
                     "worker spans in node processes");
  rep.Add("setup_s", Median(setup_s),
          "median of " + std::to_string(setup_s.size()) +
              " EngineFleet::Create, process spawn included");
  rep.Add("peak_rss_mb", peak_rss,
          "this process plus " + std::to_string(nodes.size()) +
              " node processes");
  std::vector<double> in_process;
  for (const SetupTimes& st : times) in_process.push_back(st.total());
  rep.Add("net.spawn_s", Median(setup_s) - Median(in_process),
          "median Create minus median dbgen + load + placement");
  const std::string opaque = "node processes return no operator profile";
  AddNotMeasured(&rep, {kStageMetric.begin(), kStageMetric.end()}, opaque);
  AddNotMeasured(&rep,
                 {"exec.busy_s", "exec.exchange_wait_s", "net.credit_wait_s",
                  "exec.ledger_residual_frac"},
                 opaque);
  rep.AddNotMeasured("exec.queue_delay_p50_s",
                     "no admission queue: one query at a time");
  rep.Add("net.fragment_wall_s",
          MedianOk(w.records,
                   [](const QueryRecord& r) { return r.fragment_wall_s; }),
          "median ProcessRun::wall");
  rep.Add("net.coord_overhead_s",
          MedianOk(w.records,
                   [](const QueryRecord& r) {
                     return r.latency_s - r.fragment_wall_s;
                   }),
          "median latency minus fragment wall");
  AddNotMeasured(&rep,
                 {"energy.finish_s", "energy.busy_j_per_query",
                  "energy.idle_j_per_query", "energy.network_j_per_query",
                  "energy.billed_per_cpu"},
                 "no meter on the process fleet");
  EEDC_RETURN_IF_ERROR(Finish(o, w, spans, &out));
  return out;
}

// ---------------------------------------------------------------------
// inproc_corun: one ExecutorRuntime, a resource group per kind with share
// 1/4 (as EngineFleet::MeasureConcurrent sets them), and its legacy
// channel fabric.

StatusOr<RunResult> RunInprocCorun(const RunOptions& o, double sf) {
  EEDC_ASSIGN_OR_RETURN(const eedc::cluster::ClusterConfig fleet,
                        PaperFleet());
  SpanLog spans(o.trace);
  RunResult out{Report(Catalogue()), {}};

  std::unique_ptr<InprocFleet> f;
  std::vector<SetupTimes> times;
  std::vector<double> setup_s;
  for (int i = 0; i < (o.smoke ? 1 : kSetupRepeats); ++i) {
    f.reset();
    const auto t0 = Clock::now();
    SetupTimes t;
    EEDC_ASSIGN_OR_RETURN(f, BuildInproc(fleet, sf, o.seed, &t, &spans));
    setup_s.push_back(Since(t0));
    times.push_back(t);
  }
  double t = spans.Now();
  auto t0 = Clock::now();
  EEDC_ASSIGN_OR_RETURN(const Oracles oracles, BuildOracles(f->db));
  const double oracle_s = Since(t0);
  spans.Add("reference results", "check", t, spans.Now());

  const eedc::cluster::EnginePlacement& p0 = f->placements[0];
  eedc::exec::Executor::Options base = p0.MakeExecutorOptions();
  base.profile_operators = o.trace;
  // Admission charges each query its placement-estimated build bytes.
  std::array<double, kNumQueryKinds> build_bytes{};
  for (std::size_t k = 0; k < kKinds.size(); ++k) {
    const eedc::cluster::EnginePlacement& p = f->placements[k];
    const int joiner = p.joiners.empty() ? 0 : p.joiners.front();
    build_bytes[k] =
        eedc::cluster::EstimateBuildBytes(*p.plan_for_node(joiner), *f->data);
  }
  const auto make_runtime =
      [&]() -> StatusOr<std::unique_ptr<eedc::exec::ExecutorRuntime>> {
    auto rt =
        std::make_unique<eedc::exec::ExecutorRuntime>(f->data.get(), base);
    for (const QueryKind kind : kKinds) {
      EEDC_RETURN_IF_ERROR(rt->AddGroup(eedc::exec::ResourceGroup{
          QueryKindName(kind), 1.0 / kNumQueryKinds, 0, 0.0}));
    }
    return rt;
  };
  // The warm-up gets its own runtime so the window's tagged spans, and
  // the joules attributed from them, cover the window alone.
  EEDC_ASSIGN_OR_RETURN(std::unique_ptr<eedc::exec::ExecutorRuntime> runtime,
                        make_runtime());

  const int clients = std::min(kCorunClients, Nproc());
  const auto run_one = [&](int client, QueryRecord* r) {
    const std::size_t k = static_cast<std::size_t>(r->kind);
    eedc::exec::RuntimeQueryOptions qopts;
    qopts.group = QueryKindName(r->kind);
    qopts.estimated_build_bytes = build_bytes[k];
    const double begin = spans.Now();
    const auto call = Clock::now();
    StatusOr<eedc::exec::ExecutorRuntime::TicketPtr> ticket =
        runtime->Submit(f->placements[k].plan_for_node, qopts);
    if (!ticket.ok()) {
      r->error = ticket.status().ToString();
      return;
    }
    StatusOr<eedc::exec::QueryResult> result = (*ticket)->Wait();
    r->latency_s = Since(call);
    const double end = spans.Now();
    spans.Add(std::string("Submit+Wait ") + QueryKindName(r->kind), "exec",
              begin, end, r->seq, client);
    r->queue_delay_s = (*ticket)->queue_delay().seconds();
    if (!result.ok()) {
      r->error = result.status().ToString();
      return;
    }
    CheckResult(*oracles[k], result->table, r);
    spans.Add("check", "check", end, spans.Now(), r->seq, client);
    r->remote_bytes = result->metrics.TotalRemoteBytes();
    if (o.trace) RecordProfile(result->metrics, r);
  };
  Status window_status = Status::OK();
  const WindowData w = DriveLoad(o, clients, 2.0, kCorunMinSamples, {},
                                 run_one, [&] {
    runtime.reset();
    StatusOr<std::unique_ptr<eedc::exec::ExecutorRuntime>> rt =
        make_runtime();
    if (rt.ok()) {
      runtime = std::move(*rt);
    } else {
      window_status = rt.status();
    }
  });
  EEDC_RETURN_IF_ERROR(window_status);

  // Joules of the window from the runtime's tagged spans.
  t = spans.Now();
  const std::vector<eedc::exec::TaggedWorkerSpan> tagged =
      runtime->TaggedSpans();
  const auto models = PowerModels(p0);
  const std::vector<int>& widths = runtime->node_workers();
  const eedc::energy::ConcurrentEnergyReport energy =
      eedc::energy::AttributeConcurrent(tagged, models, widths);
  const double conservation_error =
      std::abs(energy.AttributedTotal().joules() - energy.total.joules());
  double billed_busy_s = 0.0;
  for (const eedc::energy::QueryEnergyShare& q : energy.queries) {
    billed_busy_s += q.busy.seconds();
  }
  spans.Add("AttributeConcurrent", "energy", t, spans.Now());

  out.info =
      BaseInfo(o, sf, fleet, p0.node_workers, clients, kCorunMinSamples);
  out.info.push_back("transport=legacy-channels");
  out.info.push_back("credit_window_frames=none");
  out.info.push_back("socket_family=none");
  out.info.push_back("resource_groups=4 x share 0.25");
  out.info.push_back("attribution_error_j=" +
                     std::to_string(conservation_error));
  AddCommonMetrics(w, times, oracle_s, &out);
  AddProfileMetrics(w.records, o.trace, &out);
  Report& rep = out.report;
  if (!(conservation_error <= kConservationJoules)) {
    // Every query's joules are then in doubt.
    out.correct = false;
    out.failed = out.attempted;
    rep.Add("failed_frac", 1.0,
            "AttributeConcurrent lost " + std::to_string(conservation_error) +
                " J");
  }
  const double n = static_cast<double>(std::max<std::size_t>(1, w.ok()));
  rep.Add("joules_per_query", energy.total.joules() / n,
          "AttributeConcurrent over the window's tagged spans");
  rep.Add("setup_s", Median(setup_s),
          "median of " + std::to_string(setup_s.size()) +
              " set-ups: dbgen, load, placement");
  rep.Add("peak_rss_mb", SelfPeakRssMb());
  rep.AddNotMeasured("net.spawn_s", "no node processes");
  rep.Add("exec.queue_delay_p50_s",
          MedianOk(w.records,
                   [](const QueryRecord& r) { return r.queue_delay_s; }),
          "Ticket::queue_delay");
  AddNotMeasured(&rep, {"net.fragment_wall_s", "net.coord_overhead_s"},
                 "no process fleet");
  rep.AddNotMeasured("energy.finish_s",
                     "joules are attributed once, after the window");
  // AttributeConcurrent's busy steps (some worker active) are attributed
  // to queries and its idle steps are not, as EnergySplit splits them.
  rep.Add("energy.busy_j_per_query",
          (energy.total - energy.unattributed_idle).joules() / n);
  rep.Add("energy.idle_j_per_query", energy.unattributed_idle.joules() / n,
          "steps with no worker active, priced at idle watts");
  rep.Add("energy.network_j_per_query", 0.0,
          "the runtime's channel fabric has no NIC term");
  rep.Add("energy.billed_per_cpu", billed_busy_s / w.cpu_s(),
          "attributed busy s / process CPU s; known defect: descheduled "
          "time is billed as busy");
  EEDC_RETURN_IF_ERROR(Finish(o, w, spans, &out));
  return out;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "inproc_serial", "process_small", "inproc_corun"};
  return names;
}

StatusOr<RunResult> RunWorkload(const RunOptions& options) {
  if (!(options.seconds > 0.0)) {
    return Status::InvalidArgument("--seconds must be positive");
  }
  if (options.workload == "inproc_serial") {
    return RunInprocSerial(options, 0.1);
  }
  if (options.workload == "process_small") {
    return RunProcessSmall(options, 0.01);
  }
  if (options.workload == "inproc_corun") {
    return RunInprocCorun(options, 0.1);
  }
  return Status::InvalidArgument("unknown workload '" + options.workload +
                                 "'");
}

}  // namespace perfbench
