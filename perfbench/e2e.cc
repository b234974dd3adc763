// End-to-end benchmark of the engine through its public API.
//
//   dmx_e2e --workload point|ingest|scan|tenants --seed N --seconds S
//           --trace 0|1 --dir RUN_DIR
//
// Every workload opens a fresh database under RUN_DIR, loads the paper's
// Figure-1 relation (or a plain heap copy of it) from `--seed`, and drives
// it with SQL through `Session::Execute`. Every answer is checked against
// the benchmark's own model of the data; registry deltas are checked
// against the statements the benchmark saw acknowledged. The last line of
// standard output is one JSON object:
//
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones. With --trace 1 the
// same workload runs, and afterwards the benchmark replays a sample of its
// statements through the public calls of each layer (planner, B-tree
// lookup and cost, evaluator), timing each from outside, and reads the
// engine's counters through Database::MetricsSnapshot(). See README.md.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/checks.h"
#include "src/core/database.h"
#include "src/query/planner.h"
#include "src/query/sql.h"
#include "src/sm/key_codec.h"
#include "src/types/record.h"

namespace perfbench {
namespace {

using dmx::Database;
using dmx::DatabaseOptions;
using dmx::Expr;
using dmx::ExprOp;
using dmx::ExprPtr;
using dmx::QueryResult;
using dmx::Session;
using dmx::Status;
using dmx::Value;

const uint64_t kProcessStartNs = [] {
  return static_cast<uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
}();

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
}

// ---------------------------------------------------------------------------
// Deterministic data from the seed.

uint64_t Mix(uint64_t x) {  // splitmix64 finaliser
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

class Rng {
 public:
  explicit Rng(uint64_t seed) : s_(Mix(seed)) {}
  uint64_t Next() { return s_ = Mix(s_); }
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t s_;
};

constexpr int kDepts = 16;
constexpr int64_t kSalaryQuarters = 400000;  // salaries in [0, 100000)

/// Row `id` of the generated relation: a pure function of (seed, id).
EmpRow MakeRow(uint64_t seed, int64_t id) {
  uint64_t h = Mix(seed * 0x100000001b3ull + static_cast<uint64_t>(id));
  EmpRow row;
  row.id = id;
  char name[16];
  snprintf(name, sizeof(name), "n%08x", static_cast<unsigned>(h >> 32));
  row.name = name;
  row.salary = static_cast<double>((h & 0xffffffffu) % kSalaryQuarters) / 4;
  row.dept = "d" + std::to_string((h >> 40) % kDepts);
  return row;
}

double RandomSalary(Rng* rng) {
  return static_cast<double>(rng->Below(kSalaryQuarters)) / 4;
}

/// 0..n-1 in a seeded random order.
std::vector<int64_t> Permutation(uint64_t seed, int64_t n) {
  std::vector<int64_t> ids(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) ids[static_cast<size_t>(i)] = i;
  Rng rng(seed ^ 0x5eed5eedull);
  for (size_t i = ids.size(); i > 1; --i) {
    std::swap(ids[i - 1], ids[rng.Below(i)]);
  }
  return ids;
}

std::string SalaryLiteral(double salary) {
  char buf[32];
  snprintf(buf, sizeof(buf), "%.2f", salary);  // multiples of 0.25: exact
  return buf;
}

std::string SalaryBetween(double lo, double hi) {
  return "salary BETWEEN " + SalaryLiteral(lo) + " AND " + SalaryLiteral(hi);
}

/// `salary BETWEEN lo AND hi` as the planner receives it.
ExprPtr SalaryRange(double lo, double hi) {
  return Expr::And(Expr::Cmp(ExprOp::kGe, 2, Value::Double(lo)),
                   Expr::Cmp(ExprOp::kLe, 2, Value::Double(hi)));
}

std::string RowLiteral(const EmpRow& r) {
  return "(" + std::to_string(r.id) + ", '" + r.name + "', " +
         SalaryLiteral(r.salary) + ", '" + r.dept + "')";
}

// ---------------------------------------------------------------------------
// The result being built: counts, checks and metrics.

struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t mismatches = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;

  void Metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  /// Record a check's verdict; the first few mismatches go to stderr.
  void Check(const std::string& verdict) {
    if (verdict.empty()) return;
    if (++mismatches <= 5) {
      fprintf(stderr, "check failed: %s\n", verdict.c_str());
    }
  }
  void Failed(const std::string& what, const Status& s) {
    if (++failed <= 5) {
      fprintf(stderr, "%s failed: %s\n", what.c_str(), s.ToString().c_str());
    }
  }
};

// --perturb TAG falsifies the first answer handed to the checks named TAG,
// so that a run can prove each check is wired to real answers and fails
// when they are wrong (see selftest.py).
std::string g_perturb;
std::atomic<bool> g_perturbed{false};

bool PerturbNow(const char* tag) {
  return g_perturb == tag && !g_perturbed.exchange(true);
}
int64_t Falsify(const char* tag, int64_t v) {
  return PerturbNow(tag) ? v + 1 : v;
}
uint64_t Falsify(const char* tag, uint64_t v) {
  return PerturbNow(tag) ? v + (uint64_t{1} << 40) : v;
}
double Falsify(const char* tag, double v) {
  return PerturbNow(tag) ? v + 0.1 : v;
}
bool Falsify(const char* tag, bool v) { return PerturbNow(tag) ? !v : v; }
NameSalary Falsify(const char* tag, NameSalary v) {
  if (PerturbNow(tag)) v.salary += 0.25;
  return v;
}

[[noreturn]] void Die(const std::string& what, const Status& s) {
  fprintf(stderr, "fatal: %s: %s\n", what.c_str(), s.ToString().c_str());
  exit(2);
}

void Must(const Status& s, const std::string& what) {
  if (!s.ok()) Die(what, s);
}

// ---------------------------------------------------------------------------
// Registry deltas, read through Database::MetricsSnapshot().

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

struct Registry {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, std::pair<uint64_t, uint64_t>> hists;  // count, sum

  static Registry Parse(const std::string& json) {
    Registry r;
    size_t pos = json.find("\"counters\":{");
    size_t hist_pos = json.find("\"histograms\":{");
    auto read_name = [&](size_t* p) {
      size_t a = json.find('"', *p);
      size_t b = json.find('"', a + 1);
      *p = b + 2;  // past `":`
      return json.substr(a + 1, b - a - 1);
    };
    auto read_number = [&](size_t* p) {
      char* end;
      uint64_t v = strtoull(json.c_str() + *p, &end, 10);
      *p = static_cast<size_t>(end - json.c_str());
      return v;
    };
    size_t p = pos + 12;
    while (p < hist_pos && json[p] == '"') {
      std::string name = read_name(&p);
      r.counters[name] = read_number(&p);
      if (json[p] == ',') ++p;
    }
    p = hist_pos + 14;
    while (p < json.size() && json[p] == '"') {
      std::string name = read_name(&p);
      size_t c = json.find("\"count\":", p) + 8;
      uint64_t count = read_number(&c);
      size_t s = json.find("\"sum\":", c) + 6;
      uint64_t sum = read_number(&s);
      r.hists[name] = {count, sum};
      p = json.find('}', s) + 1;
      if (json[p] == ',') ++p;
    }
    return r;
  }

  static Registry Take(Database* db) { return Parse(db->MetricsSnapshot()); }

  Registry Minus(const Registry& before) const {
    Registry d = *this;
    for (auto& [name, v] : d.counters) {
      auto it = before.counters.find(name);
      if (it != before.counters.end()) v -= it->second;
    }
    for (auto& [name, v] : d.hists) {
      auto it = before.hists.find(name);
      if (it != before.hists.end()) {
        v.first -= it->second.first;
        v.second -= it->second.second;
      }
    }
    return d;
  }

  uint64_t C(const std::string& name) const {
    auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }
  /// Sum of counters named `<prefix>.<id>.<anything>.<suffix>`.
  uint64_t SumOf(const std::string& prefix, const std::string& suffix) const {
    uint64_t total = 0;
    for (const auto& [name, v] : counters) {
      if (name.rfind(prefix + ".", 0) == 0 && EndsWith(name, suffix)) {
        total += v;
      }
    }
    return total;
  }
  /// The histogram whose name ends in `suffix` (e.g. ".heap.call_ns").
  std::pair<uint64_t, uint64_t> H(const std::string& suffix) const {
    for (const auto& [name, v] : hists) {
      if (EndsWith(name, suffix)) return v;
    }
    return {0, 0};
  }
  /// Mean of a nanosecond histogram in microseconds (0 when it is empty).
  double MeanUs(const std::string& suffix) const {
    auto [count, sum] = H(suffix);
    return count == 0 ? 0 : static_cast<double>(sum) / count / 1000;
  }
};

/// num / den, or 0 where nothing was counted.
template <typename A, typename B>
double Ratio(A num, B den) {
  return den == 0 ? 0 : static_cast<double>(num) / static_cast<double>(den);
}

// ---------------------------------------------------------------------------
// Database set-up.

std::unique_ptr<Database> OpenDb(const std::string& dir, size_t pool_pages) {
  std::filesystem::remove_all(dir);
  DatabaseOptions options;
  options.dir = dir;
  options.buffer_pool_pages = pool_pages;
  std::unique_ptr<Database> db;
  Must(Database::Open(options, &db), "open " + dir);
  return db;
}

void Exec(Session* s, const std::string& sql, QueryResult* r = nullptr) {
  QueryResult scratch;
  Status st = s->Execute(sql, r != nullptr ? r : &scratch);
  if (!st.ok()) Die(sql.substr(0, 120), st);
}

/// The Figure-1 relation: heap, unique B-tree on id, B-tree on salary,
/// CHECK (salary >= 0.0). `plain` leaves out every attachment.
void CreateEmp(Session* s, const std::string& rel, bool plain) {
  Exec(s, "CREATE TABLE " + rel +
              " (id INT NOT NULL, name STRING, salary DOUBLE, dept STRING)"
              " USING heap");
  if (plain) return;
  Exec(s, "CREATE UNIQUE INDEX ON " + rel + " (id) USING btree_index");
  Exec(s, "CREATE INDEX ON " + rel + " (salary) USING btree_index");
  Exec(s, "ALTER TABLE " + rel + " ADD CHECK (salary >= 0.0)");
}

/// Load `ids` in order, 500 rows per INSERT, committing every 20000 rows.
void Load(Session* s, const std::string& rel, uint64_t seed,
          const std::vector<int64_t>& ids, size_t begin, size_t end) {
  const size_t kPerStmt = 500, kPerTxn = 20000;
  for (size_t t = begin; t < end; t += kPerTxn) {
    Exec(s, "BEGIN");
    for (size_t i = t; i < std::min(end, t + kPerTxn); i += kPerStmt) {
      std::string sql = "INSERT INTO " + rel + " VALUES ";
      for (size_t j = i; j < std::min({end, t + kPerTxn, i + kPerStmt}); ++j) {
        if (j != i) sql += ", ";
        sql += RowLiteral(MakeRow(seed, ids[j]));
      }
      Exec(s, sql);
    }
    Exec(s, "COMMIT");
  }
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  for (const auto& e : std::filesystem::recursive_directory_iterator(dir)) {
    if (e.is_regular_file()) total += e.file_size();
  }
  return total;
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024;  // ru_maxrss is KiB
}

double Median(std::vector<uint64_t> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return (static_cast<double>(v[(v.size() - 1) / 2]) +
          static_cast<double>(v[v.size() / 2])) / 2;
}

double Percentile(std::vector<uint64_t> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return static_cast<double>(
      v[std::min(v.size() - 1, static_cast<size_t>(q * v.size()))]);
}

NameSalary ReadNameSalary(const QueryResult& r) {
  NameSalary got;
  got.rows = static_cast<int64_t>(r.rows.size());
  if (r.rows.size() == 1 && r.rows[0].size() == 2) {
    const Value& n = r.rows[0][0];
    const Value& s = r.rows[0][1];
    got.name = n.type() == dmx::TypeId::kString ? n.string_value()
                                                 : n.ToString();
    got.salary = s.is_null() ? -1 : s.AsDouble();
  }
  return got;
}

int64_t IntCell(const QueryResult& r) {
  if (r.rows.size() != 1 || r.rows[0].size() != 1 || r.rows[0][0].is_null()) {
    return -1;
  }
  return static_cast<int64_t>(r.rows[0][0].AsDouble());
}

double DoubleCell(const QueryResult& r) {
  if (r.rows.size() != 1 || r.rows[0].size() != 1 || r.rows[0][0].is_null()) {
    return -1;
  }
  return r.rows[0][0].AsDouble();
}

// ---------------------------------------------------------------------------
// What a workload hands back to the common reporting code.

struct Timed {
  std::vector<uint64_t> latencies_ns;  // one per timed statement
  std::vector<uint64_t> ends_ns;       // when each one completed
  // Each session's statements and own timed span, when several ran
  // concurrently.
  std::vector<uint64_t> session_statements;
  std::vector<uint64_t> session_ns;
  uint64_t elapsed_ns = 0;
  uint64_t statements = 0;   // timed statements
  uint64_t rows = 0;         // rows_per_s numerator
  uint64_t rows_written = 0; // rows inserted or updated in the timed phase
  uint64_t acked = 0;        // acknowledged autocommit statements
  uint64_t writing = 0;      // of which modified data
  uint64_t updates = 0;      // UPDATE statements (translated every time)
  uint64_t wal_bytes = 0;    // log growth over the timed phase
  Registry delta;            // registry over the timed phase
};

/// Sampled statement arguments for the traced replay.
struct Replay {
  Database* db = nullptr;
  const dmx::RelationDescriptor* desc = nullptr;
  std::vector<ExprPtr> predicates;  // the statements' WHERE clauses
  std::vector<int64_t> ids;         // ids probed (point / tenants / ingest)
  ExprPtr eval_predicate;           // evaluated per row by the engine
  std::vector<EmpRow> eval_rows;    // records to evaluate it against
};

void Record(Timed* t, uint64_t ns) {
  t->latencies_ns.push_back(ns);
  t->ends_ns.push_back(NowNs());
  ++t->statements;
}

// Throughput and median latency of a timed phase.
//
// Other tenants of the shared host slow the engine down in spells of a
// second or two that cover a varying share of a run: a plain loop of
// std::map lookups on the same host slows by 1.2-1.5x in them, and the
// statement median of `point` moves from ~225 us to ~330 us. The median of
// a whole run therefore lands in whichever mode covered more than half of
// it, and flips from run to run. The timed phase is cut into slices instead,
// and the medians of the slices are averaged: like the throughput, that
// moves with the share of the run the spells covered.

struct Speed {
  double stmt_per_s = 0;  // statements completed per second
  double p50_ns = 0;      // median latency per slice, averaged over slices
};

// Slices are at least kSliceNs long and hold kSliceStatements statements
// on average, so each slice's median rests on enough statements.
constexpr uint64_t kSliceNs = 250000000ull;
constexpr uint64_t kSliceStatements = 50;

Speed Measure(const Timed& t, uint64_t start_ns) {
  Speed speed;
  if (t.session_ns.empty()) {
    speed.stmt_per_s = static_cast<double>(t.statements) /
                       (static_cast<double>(t.elapsed_ns) / 1e9);
  }
  // Sessions that ran concurrently add their own rates, so one that
  // finished early does not count as idle for the rest of the phase.
  for (size_t k = 0; k < t.session_ns.size(); ++k) {
    speed.stmt_per_s += static_cast<double>(t.session_statements[k]) /
                        (static_cast<double>(t.session_ns[k]) / 1e9);
  }
  const size_t n = std::max<uint64_t>(
      1, std::min(t.elapsed_ns / kSliceNs, t.statements / kSliceStatements));
  std::vector<std::vector<uint64_t>> slices(n);
  for (size_t i = 0; i < t.ends_ns.size(); ++i) {
    size_t k = std::min<size_t>((t.ends_ns[i] - start_ns) * n / t.elapsed_ns,
                                n - 1);
    slices[k].push_back(t.latencies_ns[i]);
  }
  size_t used = 0;
  for (const auto& slice : slices) {
    if (slice.empty()) continue;
    speed.p50_ns += Median(slice);
    ++used;
  }
  if (used > 0) speed.p50_ns /= static_cast<double>(used);
  return speed;
}

void CheckInvariants(const Timed& t, Outcome* out) {
  out->Check(
      CheckCommits(t.acked, Falsify("commits", t.delta.C("txn.commits"))));
  out->Check(CheckSyncs(t.writing, t.delta.C("bufferpool.writebacks"),
                        Falsify("syncs", t.delta.C("wal.syncs"))));
}

void CheckRelationClean(Database* db, const std::string& rel, Outcome* out) {
  dmx::Transaction* txn = db->Begin();
  dmx::CheckResult result;
  uint64_t t0 = NowNs();
  Status s = db->CheckRelation(txn, rel, &result);
  fprintf(stderr, "CHECK %s: %.2f s over %llu items\n", rel.c_str(),
          static_cast<double>(NowNs() - t0) / 1e9,
          static_cast<unsigned long long>(result.items));
  ++out->attempted;
  if (!s.ok()) {
    out->Failed("CHECK " + rel, s);
    (void)db->Abort(txn);  // the check's own failure is already counted
    return;
  }
  Must(db->Commit(txn), "commit after CHECK");
  out->Check(CheckClean(rel, Falsify("clean", result.clean),
                        result.findings.empty()
                            ? ""
                            : result.findings[0].component + ": " +
                                  result.findings[0].detail));
}

// ---------------------------------------------------------------------------
// The driver of every workload.

// Untimed work before the timed phase of `scan`, the one time-bounded
// workload.
constexpr uint64_t kWarmupNs = 1000000000ull;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string dir;
};

class Bench {
 public:
  explicit Bench(const Args& args) : a_(args) {}

  /// Runs the workload and prints the result line; returns the exit code.
  int Run();

 private:
  void Point();
  void Ingest();
  void Scan();
  void Tenants();

  std::unique_ptr<Database> Open(size_t pool_pages) {
    return OpenDb(a_.dir + "/db", pool_pages);
  }
  void SetupDone() {
    setup_s_ = static_cast<double>(NowNs() - kProcessStartNs) / 1e9;
  }
  void BeginTimed(Database* db, Timed* t) {
    t->delta = Registry::Take(db);
    wal_start_ = db->log()->next_lsn();
    timed_start_ = NowNs();
  }
  void EndTimed(Database* db, Timed* t) {
    t->elapsed_ns = NowNs() - timed_start_;
    t->delta = Registry::Take(db).Minus(t->delta);
    t->wal_bytes = db->log()->next_lsn() - wal_start_;
  }
  /// True once `ns` (default: --seconds) have passed since timed_start_.
  bool Deadline(uint64_t ns = 0) const {
    if (ns == 0) ns = static_cast<uint64_t>(a_.seconds) * 1000000000ull;
    return NowNs() - timed_start_ >= ns;
  }
  /// The end-to-end metrics (or, traced, the per-layer ones).
  void Report(Session* s, const Timed& t, const Speed& speed,
              uint64_t live_rows, const Replay& replay);
  void ReportLayers(const Timed& t, const Speed& speed, const Replay& replay);

  Args a_;
  Outcome out_;
  double setup_s_ = 0;
  uint64_t timed_start_ = 0;
  dmx::Lsn wal_start_ = 0;
};

void Bench::Report(Session* s, const Timed& t, const Speed& speed,
                   uint64_t live_rows, const Replay& replay) {
  double secs = static_cast<double>(t.elapsed_ns) / 1e9;
  fprintf(stderr,
          "%s: %llu timed statements in %.3f s, %.1f/s; p50 %.1f us, "
          "p99 %.1f us\n",
          a_.workload.c_str(), static_cast<unsigned long long>(t.statements),
          secs, static_cast<double>(t.statements) / secs,
          Median(t.latencies_ns) / 1000,
          Percentile(t.latencies_ns, 0.99) / 1000);
  if (a_.trace) {
    ReportLayers(t, speed, replay);
    return;
  }
  // Size of the directory once the log is checkpointed away.
  Exec(s, "CHECKPOINT");
  out_.Metric("setup_s", setup_s_, "s");
  out_.Metric("stmt_per_s", speed.stmt_per_s, "1/s");
  out_.Metric("rows_per_s",
              speed.stmt_per_s * static_cast<double>(t.rows) /
                  static_cast<double>(t.statements),
              "1/s");
  out_.Metric("stmt_p50_us", speed.p50_ns / 1000, "us");
  out_.Metric("db_bytes_per_row",
              static_cast<double>(DirBytes(s->db()->dir())) /
                  static_cast<double>(live_rows),
              "bytes");
  out_.Metric("peak_rss_mb", PeakRssMb(), "MiB");
}

void Bench::ReportLayers(const Timed& t, const Speed& speed,
                         const Replay& replay) {
  const Registry& d = t.delta;
  Database* db = replay.db;
  const double stmts = static_cast<double>(t.statements);
  const double rows = static_cast<double>(t.rows);
  const uint64_t replay_start = NowNs();

  // Replayed public calls, each timed from outside in its own transaction.
  std::vector<uint64_t> translate, lookup, cost;
  for (const ExprPtr& pred : replay.predicates) {
    dmx::Transaction* txn = db->Begin();
    dmx::AccessPlan plan;
    uint64_t t0 = NowNs();
    Must(dmx::PlanAccess(db, txn, replay.desc, pred, &plan), "PlanAccess");
    translate.push_back(NowNs() - t0);
    Must(db->Commit(txn), "commit after PlanAccess");
  }
  if (!replay.ids.empty()) {
    // The unique index on id, as the planner picks it for a literal key.
    dmx::Transaction* txn = db->Begin();
    dmx::AccessPlan plan;
    Must(dmx::PlanAccess(db, txn, replay.desc,
                         Expr::Cmp(ExprOp::kEq, 0, Value::Int(replay.ids[0])),
                         &plan),
         "PlanAccess");
    Must(db->Commit(txn), "commit after PlanAccess");
    out_.Check(CheckUsesIndex(
        "id = literal", Falsify("index", !plan.path.is_storage_method())));
    for (int64_t id : replay.ids) {
      if (plan.path.is_storage_method()) break;
      std::string key;
      Must(dmx::EncodeValueKey({Value::Int(id)}, &key), "encode key");
      std::vector<std::string> record_keys;
      txn = db->Begin();
      uint64_t t0 = NowNs();
      Status s = db->Lookup(txn, replay.desc->name, plan.path, key,
                            &record_keys);
      lookup.push_back(NowNs() - t0);
      ++out_.attempted;
      if (!s.ok()) out_.Failed("Lookup", s);
      out_.Check(CheckCount(
          "Lookup(id " + std::to_string(id) + ") keys", 1,
          Falsify("count", static_cast<int64_t>(record_keys.size()))));
      dmx::AccessCost c;
      t0 = NowNs();
      Must(db->EstimateCost(txn, replay.desc, plan.path,
                            {Expr::Cmp(ExprOp::kEq, 0, Value::Int(id))}, &c),
           "EstimateCost");
      cost.push_back(NowNs() - t0);
      Must(db->Commit(txn), "commit after Lookup");
    }
  }
  // The evaluator over packed records, as a storage method runs it.
  std::vector<dmx::Record> records(replay.eval_rows.size());
  for (size_t i = 0; i < records.size(); ++i) {
    const EmpRow& r = replay.eval_rows[i];
    Must(dmx::Record::Encode(replay.desc->schema,
                             {Value::Int(r.id), Value::String(r.name),
                              Value::Double(r.salary), Value::String(r.dept)},
                             &records[i]),
         "encode record");
  }
  uint64_t evals = 0, passes = 0;
  uint64_t e0 = NowNs();
  while (evals < 200000) {
    for (const dmx::Record& rec : records) {
      bool pass = false;
      Must(db->evaluator()->EvalPredicate(
               *replay.eval_predicate, rec.View(&replay.desc->schema), &pass),
           "EvalPredicate");
      passes += pass;
      ++evals;
    }
  }
  double eval_ns =
      static_cast<double>(NowNs() - e0) / static_cast<double>(evals);
  double replay_s = static_cast<double>(NowNs() - replay_start) / 1e9;

  auto mean = [](const std::vector<uint64_t>& v) {
    double s = 0;
    for (uint64_t x : v) s += static_cast<double>(x);
    return v.empty() ? 0 : s / static_cast<double>(v.size()) / 1000;
  };
  // Engine time of the timed phase that the layers below account for.
  auto hist_sum = [&](const std::string& prefix, const std::string& suffix) {
    uint64_t total = 0;
    for (const auto& [name, v] : d.hists) {
      if (name.rfind(prefix, 0) == 0 && EndsWith(name, suffix)) {
        total += v.second;
      }
    }
    return static_cast<double>(total);
  };
  double exec_us = 0;
  for (uint64_t ns : t.latencies_ns) exec_us += static_cast<double>(ns) / 1000;
  double translations = static_cast<double>(
      d.C("plancache.misses") + d.C("plancache.retranslations") + t.updates);
  double accounted_us =
      mean(translate) * translations +
      (hist_sum("sm.", ".call_ns") + hist_sum("at.", ".call_ns") +
       hist_sum("txn.commit_ns", "")) / 1000;
  double bp_refs = static_cast<double>(d.C("bufferpool.hits") +
                                       d.C("bufferpool.misses"));

  out_.Metric("query.translate_us", mean(translate), "us");
  out_.Metric("query.plancache_hit_ratio",
              Ratio(d.C("plancache.hits"),
                    d.C("plancache.hits") + d.C("plancache.misses")),
              "ratio");
  out_.Metric("query.pages_per_stmt", Ratio(bp_refs, stmts), "count");
  out_.Metric("query.other_us", Ratio(exec_us - accounted_us, stmts), "us");
  out_.Metric("expr.eval_ns_per_row", eval_ns, "ns");
  out_.Metric("core.sm_calls_per_row", Ratio(d.SumOf("sm", ".calls"), rows),
              "count");
  out_.Metric("core.at_calls_per_row", Ratio(d.SumOf("at", ".calls"), rows),
              "count");
  out_.Metric("sm.heap.call_us", d.MeanUs(".heap.call_ns"), "us");
  out_.Metric("at.btree_index.call_us", d.MeanUs(".btree_index.call_ns"),
              "us");
  out_.Metric("at.check.call_us", d.MeanUs(".check.call_ns"), "us");
  out_.Metric("btree.lookup_us", mean(lookup), "us");
  out_.Metric("btree.cost_us", mean(cost), "us");
  out_.Metric("bufferpool.hit_ratio", Ratio(d.C("bufferpool.hits"), bp_refs),
              "ratio");
  out_.Metric("bufferpool.misses_per_stmt",
              Ratio(d.C("bufferpool.misses"), stmts), "count");
  out_.Metric("bufferpool.writebacks_per_row",
              Ratio(d.C("bufferpool.writebacks"), rows), "count");
  out_.Metric("txn.commit_us", d.MeanUs("txn.commit_ns"), "us");
  out_.Metric("lock.acquisitions_per_stmt",
              Ratio(d.C("lock.acquisitions"), stmts), "count");
  out_.Metric("lock.waits_per_stmt", Ratio(d.C("lock.waits"), stmts),
              "count");
  out_.Metric("wal.sync_us", d.MeanUs("wal.sync_ns"), "us");
  out_.Metric("wal.append_us", d.MeanUs("wal.append_ns"), "us");
  out_.Metric("wal.syncs_per_commit", Ratio(d.C("wal.syncs"), t.writing),
              "ratio");
  auto [groups, grouped] = d.H("wal.group_size");
  out_.Metric("wal.group_size", Ratio(grouped, groups), "count");
  out_.Metric("wal.bytes_per_row", Ratio(t.wal_bytes, t.rows_written),
              "bytes");
  out_.Metric("parallel.morsels_per_scan",
              Ratio(d.C("parallel.morsels"), d.C("parallel.scans")), "count");
  out_.Metric("trace.stmt_per_s", speed.stmt_per_s, "1/s");
  out_.Metric("trace.replay_s", replay_s, "s");
  fprintf(stderr, "traced replay: %zu translations, %zu lookups, %llu "
          "evaluations (%llu passed)\n", translate.size(), lookup.size(),
          static_cast<unsigned long long>(evals),
          static_cast<unsigned long long>(passes));
  // No workload waits on a lock or a full morsel queue, so these read 0;
  // they stay out of the result line and are shown here only.
  fprintf(stderr, "lock.wait_us %.3f, parallel.queue_wait_us %.3f\n",
          d.MeanUs("lock.wait_ns"), d.MeanUs("parallel.queue_wait_ns"));
}

// ---------------------------------------------------------------------------
// point: one session, closed loop, 90% `SELECT name, salary ... WHERE
// id = ?` and 10% `UPDATE ... SET salary = ? WHERE id = ?`, ids uniform
// over the rows present, the relation well inside the buffer pool.

constexpr int64_t kPointRows = 5000;
constexpr size_t kPointPool = 1024;  // 8 MiB; the relation needs ~100 pages
constexpr int kPointRound = 100;     // statements per round, 10 of them updates
constexpr uint64_t kPointWarmRounds = 20;
// Rounds per --seconds: 26 take about a second on the reference host.
constexpr uint64_t kPointRoundsPerSecond = 26;

void RunPointRound(Session* s, uint64_t round, uint64_t seed,
                   std::vector<EmpRow>* model, Timed* t, Replay* replay,
                   Outcome* out) {
  static const std::string kSelect =
      "SELECT name, salary FROM emp WHERE id = ?";
  static const std::string kUpdate =
      "UPDATE emp SET salary = ? WHERE id = ?";
  Rng rng(seed * 7919 + round);
  std::vector<int> is_update(kPointRound, 0);
  std::fill(is_update.begin(), is_update.begin() + kPointRound / 10, 1);
  for (size_t i = is_update.size(); i > 1; --i) {
    std::swap(is_update[i - 1], is_update[rng.Below(i)]);
  }
  QueryResult r;
  for (int update : is_update) {
    int64_t id = static_cast<int64_t>(rng.Below(model->size()));
    EmpRow& row = (*model)[static_cast<size_t>(id)];
    double salary = RandomSalary(&rng);
    ++out->attempted;
    uint64_t t0 = NowNs();
    Status st = update ? s->Execute(kUpdate,
                                    {Value::Double(salary), Value::Int(id)}, &r)
                       : s->Execute(kSelect, {Value::Int(id)}, &r);
    uint64_t ns = NowNs() - t0;
    if (!st.ok()) {
      out->Failed(update ? "UPDATE" : "SELECT", st);
      continue;
    }
    if (update) {
      out->Check(CheckAffected(1, Falsify("affected", r.affected)));
      row.salary = salary;
    } else {
      out->Check(CheckPointRead(row, Falsify("read", ReadNameSalary(r))));
    }
    if (t == nullptr) continue;  // warm-up
    Record(t, ns);
    ++t->acked;
    ++t->rows;
    if (update) {
      ++t->writing;
      ++t->updates;
      ++t->rows_written;
    }
    if (t->statements % 16 == 0 && replay->ids.size() < 256) {
      replay->ids.push_back(id);
    }
  }
}

void Bench::Point() {
  std::unique_ptr<Database> db = Open(kPointPool);
  Session s(db.get());
  CreateEmp(&s, "emp", /*plain=*/false);
  Load(&s, "emp", a_.seed, Permutation(a_.seed, kPointRows), 0, kPointRows);
  std::vector<EmpRow> model;
  for (int64_t id = 0; id < kPointRows; ++id) {
    model.push_back(MakeRow(a_.seed, id));
  }
  SetupDone();

  // Warm-up: fills the plan cache and lets the host settle. The timed
  // work is fixed, so the updates' churn of the salary index, and with it
  // db_bytes_per_row, does not depend on the speed of the run.
  uint64_t round = 0;
  for (; round < kPointWarmRounds; ++round) {
    RunPointRound(&s, round, a_.seed, &model, nullptr, nullptr, &out_);
  }
  Timed t;
  Replay replay;
  BeginTimed(db.get(), &t);
  const uint64_t rounds = kPointWarmRounds + kPointRoundsPerSecond * a_.seconds;
  for (; round < rounds; ++round) {
    RunPointRound(&s, round, a_.seed, &model, &t, &replay, &out_);
  }
  EndTimed(db.get(), &t);
  CheckInvariants(t, &out_);

  // The whole table against the model.
  QueryResult all;
  ++out_.attempted;
  Exec(&s, "SELECT id, name, salary FROM emp", &all);
  out_.Check(CheckCount(
      "rows in emp", kPointRows,
      Falsify("count", static_cast<int64_t>(all.rows.size()))));
  for (const auto& row : all.rows) {
    int64_t id = row[0].int_value();
    NameSalary got{1, row[1].string_value(), row[2].AsDouble()};
    out_.Check(id >= 0 && id < kPointRows
                   ? CheckPointRead(model[static_cast<size_t>(id)], got)
                   : "unexpected id " + std::to_string(id));
  }
  CheckRelationClean(db.get(), "emp", &out_);

  replay.db = db.get();
  Must(db->FindRelation("emp", &replay.desc), "find emp");
  for (size_t i = 0; i < replay.ids.size(); ++i) {
    replay.predicates.push_back(Expr::Eq(Expr::Field(0), Expr::Param(0)));
  }
  replay.eval_predicate = Expr::Cmp(ExprOp::kEq, 0, Value::Int(kPointRows / 2));
  replay.eval_rows.assign(model.begin(), model.begin() + 4096);
  Report(&s, t, Measure(t, timed_start_), kPointRows, replay);
}

// ---------------------------------------------------------------------------
// ingest: one session, multi-row INSERTs of 100 rows, strict autocommit,
// ids in random order, into a Figure-1 relation preloaded past the pool.
// A fixed amount of work per run, proportional to --seconds.

constexpr int64_t kIngestPreload = 40000;
constexpr size_t kIngestPool = 256;       // 2 MiB, the default
constexpr int64_t kIngestBatch = 100;
constexpr int64_t kIngestWarmBatches = 20;
constexpr int64_t kIngestBatchesPerSecond = 70;

void Bench::Ingest() {
  const int64_t batches = kIngestBatchesPerSecond * a_.seconds;
  const int64_t total =
      kIngestPreload + (kIngestWarmBatches + batches) * kIngestBatch;
  std::vector<int64_t> ids = Permutation(a_.seed, total);
  std::unique_ptr<Database> db = Open(kIngestPool);
  Session s(db.get());
  CreateEmp(&s, "emp", /*plain=*/false);
  Load(&s, "emp", a_.seed, ids, 0, kIngestPreload);
  SetupDone();

  Timed t;
  Replay replay;
  QueryResult r;
  size_t next = kIngestPreload;
  for (int64_t b = 0; b < kIngestWarmBatches + batches; ++b) {
    if (b == kIngestWarmBatches) BeginTimed(db.get(), &t);
    std::string sql = "INSERT INTO emp VALUES ";
    for (int64_t j = 0; j < kIngestBatch; ++j, ++next) {
      if (j != 0) sql += ", ";
      sql += RowLiteral(MakeRow(a_.seed, ids[next]));
    }
    ++out_.attempted;
    uint64_t t0 = NowNs();
    Status st = s.Execute(sql, &r);
    uint64_t ns = NowNs() - t0;
    if (!st.ok()) {
      out_.Failed("INSERT", st);
      continue;
    }
    out_.Check(CheckAffected(kIngestBatch, Falsify("affected", r.affected)));
    if (b < kIngestWarmBatches) continue;
    Record(&t, ns);
    ++t.acked;
    ++t.writing;
    t.rows += kIngestBatch;
    t.rows_written += kIngestBatch;
    if (b % 8 == 0) replay.ids.push_back(ids[next - 1]);
  }
  EndTimed(db.get(), &t);
  CheckInvariants(t, &out_);
  out_.Check(CheckDispatch(t.rows, 2,
                           Falsify("dispatch", t.delta.SumOf("sm", ".calls")),
                           t.delta.SumOf("at", ".calls")));

  // Totals against the generator's exact sums.
  double sum = 0;
  std::vector<double> salaries;
  for (int64_t id = 0; id < total; ++id) {
    salaries.push_back(MakeRow(a_.seed, id).salary);
    sum += salaries.back();
  }
  std::sort(salaries.begin(), salaries.end());
  ++out_.attempted;
  Exec(&s, "SELECT COUNT(*) FROM emp", &r);
  out_.Check(CheckCount("COUNT(*)", total, Falsify("count", IntCell(r))));
  ++out_.attempted;
  Exec(&s, "SELECT SUM(salary) FROM emp", &r);
  out_.Check(CheckSum("SUM(salary)", sum, Falsify("sum", DoubleCell(r))));
  Rng rng(a_.seed + 17);
  for (int i = 0; i < 4; ++i) {
    double lo = RandomSalary(&rng), hi = lo + 2500;
    std::string where = SalaryBetween(lo, hi);
    int64_t expected = std::upper_bound(salaries.begin(), salaries.end(), hi) -
                       std::lower_bound(salaries.begin(), salaries.end(), lo);
    ++out_.attempted;
    Exec(&s, "EXPLAIN SELECT COUNT(*) FROM emp WHERE " + where, &r);
    bool uses_index = r.ToString().find("btree_index") != std::string::npos;
    out_.Check(CheckUsesIndex(where, Falsify("index", uses_index)));
    ++out_.attempted;
    Exec(&s, "SELECT COUNT(*) FROM emp WHERE " + where, &r);
    out_.Check(CheckCount("COUNT(*) WHERE " + where, expected,
                          Falsify("count", IntCell(r))));
    replay.predicates.push_back(SalaryRange(lo, hi));
  }
  ++out_.attempted;
  Exec(&s, "SELECT salary FROM emp", &r);
  out_.Check(CheckCount("salaries read", total,
                        static_cast<int64_t>(r.rows.size())));
  for (const auto& row : r.rows) {
    out_.Check(CheckQuarterMultiple(Falsify("quarter", row[0].AsDouble())));
  }
  CheckRelationClean(db.get(), "emp", &out_);

  replay.db = db.get();
  Must(db->FindRelation("emp", &replay.desc), "find emp");
  replay.eval_predicate = Expr::Cmp(ExprOp::kGe, 2, Value::Double(0.0));
  for (size_t i = 0; i < 4096; ++i) {
    replay.eval_rows.push_back(MakeRow(a_.seed, ids[i]));
  }
  Report(&s, t, Measure(t, timed_start_), static_cast<uint64_t>(total), replay);
}

// ---------------------------------------------------------------------------
// scan: one session, COUNT(*) and SUM(salary) with predicates on unindexed
// columns, over a heap relation with no attachments several times larger
// than the buffer pool; the worker pool at its default size.

constexpr int64_t kScanRows = 200000;
constexpr size_t kScanPool = 256;  // 2 MiB against a ~12 MiB heap

void Bench::Scan() {
  std::unique_ptr<Database> db = Open(kScanPool);
  Session s(db.get());
  CreateEmp(&s, "emp", /*plain=*/true);
  Load(&s, "emp", a_.seed, Permutation(a_.seed, kScanRows), 0, kScanRows);
  SetupDone();

  // The generator's copy: per-department and salary-ordered aggregates.
  std::vector<int64_t> dept_count(kDepts, 0);
  std::vector<double> dept_sum(kDepts, 0), salaries;
  for (int64_t id = 0; id < kScanRows; ++id) {
    EmpRow row = MakeRow(a_.seed, id);
    int d = std::stoi(row.dept.substr(1));
    ++dept_count[static_cast<size_t>(d)];
    dept_sum[static_cast<size_t>(d)] += row.salary;
    salaries.push_back(row.salary);
  }
  std::sort(salaries.begin(), salaries.end());
  std::vector<double> prefix(salaries.size() + 1, 0);
  for (size_t i = 0; i < salaries.size(); ++i) {
    prefix[i + 1] = prefix[i] + salaries[i];
  }

  Timed t;
  Replay replay;
  QueryResult r;
  auto query = [&](const std::string& sql, bool is_sum, double expected,
                   bool timed) {
    ++out_.attempted;
    uint64_t t0 = NowNs();
    Status st = s.Execute(sql, &r);
    uint64_t ns = NowNs() - t0;
    if (!st.ok()) {
      out_.Failed(sql, st);
      return;
    }
    out_.Check(is_sum ? CheckSum(sql, expected, Falsify("sum", DoubleCell(r)))
                      : CheckCount(sql, static_cast<int64_t>(expected),
                                   Falsify("count", IntCell(r))));
    if (!timed) return;
    Record(&t, ns);
    ++t.acked;
    t.rows += kScanRows;
  };
  auto round = [&](uint64_t n, bool timed) {
    Rng rng(a_.seed * 104729 + n);
    int d = static_cast<int>(rng.Below(kDepts));
    std::string dept = "dept = 'd" + std::to_string(d) + "'";
    double lo = RandomSalary(&rng), hi = lo + 10000;
    std::string range = SalaryBetween(lo, hi);
    auto first = salaries.begin();
    size_t a = static_cast<size_t>(
        std::lower_bound(first, salaries.end(), lo) - first);
    size_t b = static_cast<size_t>(
        std::upper_bound(first, salaries.end(), hi) - first);
    query("SELECT COUNT(*) FROM emp WHERE " + dept, false,
          static_cast<double>(dept_count[static_cast<size_t>(d)]), timed);
    query("SELECT SUM(salary) FROM emp WHERE " + dept, true,
          dept_sum[static_cast<size_t>(d)], timed);
    query("SELECT COUNT(*) FROM emp WHERE " + range, false,
          static_cast<double>(b - a), timed);
    query("SELECT SUM(salary) FROM emp WHERE " + range, true,
          prefix[b] - prefix[a], timed);
    if (timed && replay.predicates.size() < 64) {
      replay.predicates.push_back(
          Expr::Cmp(ExprOp::kEq, 3, Value::String("d" + std::to_string(d))));
      replay.predicates.push_back(SalaryRange(lo, hi));
    }
  };
  uint64_t n = 0;
  timed_start_ = NowNs();
  while (!Deadline(kWarmupNs)) round(n++, false);
  BeginTimed(db.get(), &t);
  do {
    round(n++, true);
  } while (!Deadline());
  EndTimed(db.get(), &t);
  CheckInvariants(t, &out_);

  replay.db = db.get();
  Must(db->FindRelation("emp", &replay.desc), "find emp");
  replay.eval_predicate = Expr::Cmp(ExprOp::kEq, 3, Value::String("d7"));
  for (int64_t id = 0; id < 4096; ++id) {
    replay.eval_rows.push_back(MakeRow(a_.seed, id));
  }
  Report(&s, t, Measure(t, timed_start_), kScanRows, replay);
}

// ---------------------------------------------------------------------------
// tenants: a few concurrent sessions, each on its own Figure-1 relation,
// literal SQL, 75% point SELECT by id and 25% single-row INSERT, strict
// autocommit, closed loop. A fixed amount of work per run.

constexpr int kTenantSessions = 2;           // fewer than the 4 cores
constexpr int64_t kTenantPreload = 5000;     // rows per relation
constexpr size_t kTenantPool = 1024;
constexpr int64_t kTenantStmtsPerSecond = 8000;  // per session
constexpr int64_t kTenantWarmStmts = 200;       // per session

struct Tenant {
  int no = 0;
  std::string rel;
  std::vector<int64_t> ids;      // permutation: preload, then inserts
  std::vector<EmpRow> present;   // the session's model, in insert order
  Timed t;                       // statement counts and latencies
  Outcome out;                   // per-thread checks, merged after join
  std::vector<int64_t> sampled;  // ids read, for the traced replay
};

void RunTenant(Database* db, Tenant* tn, uint64_t seed, int64_t stmts,
               std::atomic<int>* ready, std::atomic<bool>* go) {
  Session s(db);
  Rng rng(seed * 31 + static_cast<uint64_t>(tn->no));
  size_t next = static_cast<size_t>(kTenantPreload);
  QueryResult r;
  for (int64_t i = 0; i < kTenantWarmStmts + stmts; i += 4) {
    if (i == kTenantWarmStmts) {
      ready->fetch_add(1);
      while (!go->load()) std::this_thread::yield();
    }
    bool timed = i >= kTenantWarmStmts;
    int insert_at = static_cast<int>(rng.Below(4));
    for (int k = 0; k < 4; ++k) {
      ++tn->out.attempted;
      Status st;
      uint64_t t0, ns;
      if (k == insert_at) {
        EmpRow row = MakeRow(seed + static_cast<uint64_t>(tn->no),
                             tn->ids[next++]);
        t0 = NowNs();
        st = s.Execute(
            "INSERT INTO " + tn->rel + " VALUES " + RowLiteral(row), &r);
        ns = NowNs() - t0;
        if (!st.ok()) {
          tn->out.Failed("INSERT", st);
          continue;
        }
        tn->out.Check(CheckAffected(1, Falsify("affected", r.affected)));
        tn->present.push_back(row);
        if (timed) {
          ++tn->t.writing;
          ++tn->t.rows_written;
        }
      } else {
        const EmpRow& row = tn->present[rng.Below(tn->present.size())];
        t0 = NowNs();
        st = s.Execute("SELECT name, salary FROM " + tn->rel +
                           " WHERE id = " + std::to_string(row.id), &r);
        ns = NowNs() - t0;
        if (!st.ok()) {
          tn->out.Failed("SELECT", st);
          continue;
        }
        tn->out.Check(CheckPointRead(row, Falsify("read", ReadNameSalary(r))));
        if (timed && tn->sampled.size() < 128 && rng.Below(8) == 0) {
          tn->sampled.push_back(row.id);
        }
      }
      if (!timed) continue;
      Record(&tn->t, ns);
      ++tn->t.acked;
      ++tn->t.rows;
    }
  }
  fprintf(stderr, "tenant %d: plan cache holds %zu plans\n", tn->no,
          s.plan_cache()->size());
}

void Bench::Tenants() {
  const int64_t stmts = kTenantStmtsPerSecond * a_.seconds;
  std::unique_ptr<Database> db = Open(kTenantPool);
  std::vector<Tenant> tenants(kTenantSessions);
  {
    Session s(db.get());
    for (int k = 0; k < kTenantSessions; ++k) {
      Tenant& tn = tenants[static_cast<size_t>(k)];
      tn.no = k;
      tn.rel = "emp_" + std::to_string(k);
      uint64_t seed = a_.seed + static_cast<uint64_t>(k);
      tn.ids = Permutation(seed, kTenantPreload + kTenantWarmStmts + stmts);
      CreateEmp(&s, tn.rel, /*plain=*/false);
      Load(&s, tn.rel, seed, tn.ids, 0, kTenantPreload);
      for (int64_t i = 0; i < kTenantPreload; ++i) {
        tn.present.push_back(MakeRow(seed, tn.ids[static_cast<size_t>(i)]));
      }
    }
  }
  SetupDone();

  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (Tenant& tn : tenants) {
    threads.emplace_back(RunTenant, db.get(), &tn, a_.seed, stmts, &ready, &go);
  }
  while (ready.load() < kTenantSessions) std::this_thread::yield();
  Timed t;
  BeginTimed(db.get(), &t);
  go.store(true);
  for (std::thread& th : threads) th.join();
  EndTimed(db.get(), &t);

  Session s(db.get());
  QueryResult r;
  Replay replay;
  for (Tenant& tn : tenants) {
    out_.attempted += tn.out.attempted;
    out_.failed += tn.out.failed;
    out_.mismatches += tn.out.mismatches;
    t.latencies_ns.insert(t.latencies_ns.end(), tn.t.latencies_ns.begin(),
                          tn.t.latencies_ns.end());
    t.ends_ns.insert(t.ends_ns.end(), tn.t.ends_ns.begin(), tn.t.ends_ns.end());
    t.statements += tn.t.statements;
    t.acked += tn.t.acked;
    t.writing += tn.t.writing;
    t.rows += tn.t.rows;
    t.rows_written += tn.t.rows_written;
    t.session_statements.push_back(tn.t.statements);
    t.session_ns.push_back(tn.t.ends_ns.back() - timed_start_);
    ++out_.attempted;
    Exec(&s, "SELECT COUNT(*) FROM " + tn.rel, &r);
    out_.Check(CheckCount("COUNT(*) FROM " + tn.rel,
                          static_cast<int64_t>(tn.present.size()),
                          Falsify("count", IntCell(r))));
    CheckRelationClean(db.get(), tn.rel, &out_);
  }
  CheckInvariants(t, &out_);

  Tenant& first = tenants[0];
  replay.db = db.get();
  Must(db->FindRelation(first.rel, &replay.desc), "find relation");
  replay.ids = first.sampled;
  for (int64_t id : first.sampled) {
    replay.predicates.push_back(Expr::Cmp(ExprOp::kEq, 0, Value::Int(id)));
  }
  replay.eval_predicate =
      Expr::Cmp(ExprOp::kEq, 0, Value::Int(first.present[0].id));
  replay.eval_rows.assign(first.present.begin(), first.present.begin() + 4096);
  uint64_t live = 0;
  for (const Tenant& tn : tenants) live += tn.present.size();
  Report(&s, t, Measure(t, timed_start_), live, replay);
}

int Bench::Run() {
  std::filesystem::create_directories(a_.dir);
  if (a_.workload == "point") {
    Point();
  } else if (a_.workload == "ingest") {
    Ingest();
  } else if (a_.workload == "scan") {
    Scan();
  } else if (a_.workload == "tenants") {
    Tenants();
  } else {
    fprintf(stderr, "unknown workload '%s'\n", a_.workload.c_str());
    return 2;
  }
  std::string json = "{\"correct\": ";
  json += out_.mismatches == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out_.attempted);
  json += ", \"failed\": " + std::to_string(out_.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < out_.metrics.size(); ++i) {
    const auto& [name, vu] = out_.metrics[i];
    char buf[64];
    snprintf(buf, sizeof(buf), "%.17g", vu.first);
    json += (i ? ", \"" : "\"") + name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + vu.second + "\"}";
  }
  json += "}}";
  printf("%s\n", json.c_str());
  fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") args.workload = value;
    else if (flag == "--seed") args.seed = std::stoull(value);
    else if (flag == "--seconds") args.seconds = std::stoi(value);
    else if (flag == "--trace") args.trace = value == "1";
    else if (flag == "--dir") args.dir = value;
    else if (flag == "--perturb") perfbench::g_perturb = value;
  }
  if (args.workload.empty() || args.dir.empty() || args.seconds < 1) {
    fprintf(stderr,
            "usage: dmx_e2e --workload point|ingest|scan|tenants --seed N "
            "--seconds S --trace 0|1 --dir RUN_DIR\n");
    return 2;
  }
  perfbench::Bench bench(args);
  int rc = bench.Run();
  std::filesystem::remove_all(args.dir);
  return rc;
}
