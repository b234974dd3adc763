// Answer and invariant checks of the end-to-end benchmark.
//
// Every check takes plain values (no engine types), so selftest.cc can run
// each one against a correct and a deliberately perturbed answer without
// linking the engine. A check returns "" when the answer holds and a
// one-line description of the mismatch otherwise.

#ifndef DMX_PERFBENCH_CHECKS_H_
#define DMX_PERFBENCH_CHECKS_H_

#include <cmath>
#include <cstdint>
#include <string>

namespace perfbench {

/// One `emp` row as the benchmark's own model holds it.
struct EmpRow {
  int64_t id = 0;
  std::string name;
  double salary = 0;
  std::string dept;
};

/// The answer to `SELECT name, salary ... WHERE id = k`: how many rows
/// came back and, when exactly one did, its cells.
struct NameSalary {
  int64_t rows = 0;
  std::string name;
  double salary = 0;
};

inline std::string Fmt(double v) {
  char buf[64];
  snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// point / tenants: `SELECT name, salary ... WHERE id = k` must return
/// exactly the model's row.
inline std::string CheckPointRead(const EmpRow& model, const NameSalary& got) {
  if (got.rows != 1) {
    return "id " + std::to_string(model.id) + ": " +
           std::to_string(got.rows) + " rows, expected 1";
  }
  if (got.name != model.name || got.salary != model.salary) {
    return "id " + std::to_string(model.id) + ": got (" + got.name + ", " +
           Fmt(got.salary) + "), model (" + model.name + ", " +
           Fmt(model.salary) + ")";
  }
  return "";
}

/// Writing statements: the acknowledged affected-row count.
inline std::string CheckAffected(int64_t expected, int64_t got) {
  if (got != expected) {
    return "affected " + std::to_string(got) + " rows, expected " +
           std::to_string(expected);
  }
  return "";
}

/// An integer aggregate (COUNT(*)) against the generator's exact value.
inline std::string CheckCount(const std::string& what, int64_t expected,
                              int64_t got) {
  if (got != expected) {
    return what + ": got " + std::to_string(got) + ", expected " +
           std::to_string(expected);
  }
  return "";
}

/// A SUM over salaries. Every salary is a multiple of 0.25 below 2^20, so
/// sums of up to 2^30 rows are exact in a double and compared with ==.
inline std::string CheckSum(const std::string& what, double expected,
                            double got) {
  if (got != expected) {
    return what + ": got " + Fmt(got) + ", expected " + Fmt(expected);
  }
  return "";
}

/// Salaries are generated as multiples of 0.25.
inline std::string CheckQuarterMultiple(double salary) {
  double q = salary * 4.0;
  if (!(q >= 0) || q != std::floor(q)) {
    return "salary " + Fmt(salary) + " is not a non-negative multiple of 0.25";
  }
  return "";
}

/// Database::CheckRelation's verdict on a relation after a workload.
inline std::string CheckClean(const std::string& rel, bool clean,
                              const std::string& first_finding) {
  if (!clean) return "CHECK " + rel + " not clean: " + first_finding;
  return "";
}

/// An access the planner should serve through a B-tree index.
inline std::string CheckUsesIndex(const std::string& what, bool uses_index) {
  if (!uses_index) return what + " is not planned through a btree_index";
  return "";
}

/// Two independent counts of commits: the registry's `txn.commits` delta
/// and the autocommit statements the benchmark saw acknowledged.
inline std::string CheckCommits(uint64_t acknowledged,
                                uint64_t registry_commits) {
  if (registry_commits != acknowledged) {
    return "txn.commits delta " + std::to_string(registry_commits) +
           " != acknowledged autocommit statements " +
           std::to_string(acknowledged);
  }
  return "";
}

/// Group commit never syncs more often than writing statements commit,
/// except where the buffer pool writes back a page whose log records are
/// not yet durable: the WAL rule then forces one more log flush, at most
/// one per write-back.
inline std::string CheckSyncs(uint64_t writing_commits, uint64_t writebacks,
                              uint64_t syncs) {
  if (syncs > writing_commits + writebacks) {
    return "wal.syncs delta " + std::to_string(syncs) +
           " > committed writing statements " +
           std::to_string(writing_commits) + " + page write-backs " +
           std::to_string(writebacks);
  }
  return "";
}

/// The paper's two-step modification: one storage-method call per
/// inserted row, then one call per attachment type present.
inline std::string CheckDispatch(uint64_t rows, uint64_t attachment_types,
                                 uint64_t sm_calls, uint64_t at_calls) {
  if (sm_calls != rows) {
    return "storage-method calls " + std::to_string(sm_calls) + " != rows " +
           std::to_string(rows);
  }
  if (at_calls != rows * attachment_types) {
    return "attachment calls " + std::to_string(at_calls) + " != rows " +
           std::to_string(rows) + " x " + std::to_string(attachment_types) +
           " attachment types";
  }
  return "";
}

}  // namespace perfbench

#endif  // DMX_PERFBENCH_CHECKS_H_
