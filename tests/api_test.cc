// Tests for the cqa::Service facade: the Status/StatusOr error model,
// compiled-query caching, database registration, and SolveReport
// provenance on registered and caller-owned databases. No exception may
// cross the api/ boundary: every error path here is observed as a typed
// Status.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "api/service.h"

namespace cqa {
namespace {

Database ChainDb(const Schema& schema) {
  Database db(schema);
  db.AddFactStr(0, "a b");
  db.AddFactStr(0, "b c");
  db.AddFactStr(0, "b d");
  return db;
}

TEST(StatusTest, OkAndErrorStates) {
  Status ok;
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.code(), StatusCode::kOk);
  EXPECT_EQ(ok.ToString(), "OK");

  Status bad(StatusCode::kNotFound, "no such thing");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.ToString(), "NOT_FOUND: no such thing");
}

TEST(StatusTest, CodeNamesRoundTrip) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidQuery,
        StatusCode::kUnknownBackend, StatusCode::kCapabilityMismatch,
        StatusCode::kUnresolvedClass, StatusCode::kSchemaMismatch,
        StatusCode::kNotFound, StatusCode::kAlreadyExists,
        StatusCode::kInvalidArgument, StatusCode::kIoError,
        StatusCode::kCorruptedData, StatusCode::kOverloaded,
        StatusCode::kDeadlineExceeded}) {
    std::string_view name = ToString(code);
    EXPECT_NE(name, "?");
    auto parsed = StatusCodeFromString(name);
    ASSERT_TRUE(parsed.has_value()) << name;
    EXPECT_EQ(*parsed, code);
  }
  EXPECT_FALSE(StatusCodeFromString("NOT_A_CODE").has_value());
}

TEST(StatusOrTest, ValueAndStatusAccess) {
  StatusOr<int> value = 42;
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, 42);
  EXPECT_TRUE(value.status().ok());

  StatusOr<int> error = Status(StatusCode::kInvalidArgument, "nope");
  ASSERT_FALSE(error.ok());
  EXPECT_EQ(error.status().code(), StatusCode::kInvalidArgument);
}

TEST(ServiceCompile, BadQueryTextIsInvalidQuery) {
  Service service;
  StatusOr<CompiledQuery> q = service.Compile("R(x | y) R(");
  ASSERT_FALSE(q.ok());
  EXPECT_EQ(q.status().code(), StatusCode::kInvalidQuery);
  EXPECT_NE(q.status().message().find("line 1"), std::string::npos)
      << q.status().message();
}

// The dichotomy covers exactly the two-atom queries. Any other atom
// count parses but must come back as a typed error naming the count, not
// abort the process, and the service must keep serving afterwards.
TEST(ServiceCompile, QueriesWithoutTwoAtomsAreInvalidQuery) {
  Service service;
  for (const auto& [text, atoms] :
       std::vector<std::pair<const char*, const char*>>{
           {"R(x | y)", "got 1 "},
           {"R(x | y) R(y | z) R(z | w)", "got 3 "}}) {
    StatusOr<CompiledQuery> q = service.Compile(text);
    ASSERT_FALSE(q.ok()) << text;
    EXPECT_EQ(q.status().code(), StatusCode::kInvalidQuery) << text;
    EXPECT_NE(q.status().message().find(atoms), std::string::npos)
        << q.status().message();
  }
  StatusOr<CompiledQuery> q = service.Compile("R(x | y) R(y | z)");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_TRUE(service.RegisterDatabase("d", ChainDb(q->query().schema())).ok());
  StatusOr<SolveReport> report = service.Solve(*q, "d");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->certain);
}

TEST(ServiceCompile, UnknownForcedBackend) {
  Service service;
  CompileOptions options;
  options.forced_backend = "SAT";  // Names are case-sensitive.
  StatusOr<CompiledQuery> q = service.Compile("R(x | y) R(y | z)", options);
  ASSERT_FALSE(q.ok());
  EXPECT_EQ(q.status().code(), StatusCode::kUnknownBackend);
  // The message teaches the vocabulary.
  EXPECT_NE(q.status().message().find("sat"), std::string::npos)
      << q.status().message();
}

TEST(ServiceCompile, CapabilityMismatch) {
  Service service;
  CompileOptions options;
  options.forced_backend = "trivial";  // q3 is not one-atom-equivalent.
  StatusOr<CompiledQuery> q = service.Compile("R(x | y) R(y | z)", options);
  ASSERT_FALSE(q.ok());
  EXPECT_EQ(q.status().code(), StatusCode::kCapabilityMismatch);
}

TEST(ServiceCompile, UnresolvedClassificationIsTypedError) {
  // Starve the tripath search so a 2way-determined query cannot be
  // resolved within bounds.
  ServiceOptions options;
  options.tripath_limits.max_candidates = 1;
  Service service(options);
  const char* q6 = "R(x | y, z) R(z | x, y)";
  StatusOr<CompiledQuery> rejected = service.Compile(q6);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kUnresolvedClass);

  // Opting in falls back to the exact exponential backend.
  CompileOptions allow;
  allow.allow_unresolved = true;
  StatusOr<CompiledQuery> accepted = service.Compile(q6, allow);
  ASSERT_TRUE(accepted.ok()) << accepted.status().ToString();
  EXPECT_EQ(accepted->classification().query_class, QueryClass::kUnresolved);
  EXPECT_EQ(accepted->backend_name(), "exhaustive");

  // Forcing a backend also bypasses the gate.
  CompileOptions forced;
  forced.forced_backend = "sat";
  EXPECT_TRUE(service.Compile(q6, forced).ok());
}

TEST(ServiceCompile, CachesByCanonicalText) {
  Service service;
  StatusOr<CompiledQuery> a = service.Compile("R(x | y) R(y | z)");
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(service.CompiledCount(), 1u);
  // Formatting variants share the compilation.
  StatusOr<CompiledQuery> b = service.Compile("R( x | y )   R( y | z )");
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(service.CompiledCount(), 1u);
  EXPECT_EQ(a->text(), b->text());
  // A forced backend is a distinct compilation.
  CompileOptions forced;
  forced.forced_backend = "exhaustive";
  ASSERT_TRUE(service.Compile("R(x | y) R(y | z)", forced).ok());
  EXPECT_EQ(service.CompiledCount(), 2u);
}

TEST(ServiceCompile, CacheIsBoundedAndEvictionSafe) {
  ServiceOptions options;
  options.compile_cache.max_entries = 2;
  Service service(options);
  // Distinct compilations of one text: forced backends vary the key.
  StatusOr<CompiledQuery> pinned = service.Compile("R(x | y) R(y | z)");
  ASSERT_TRUE(pinned.ok());
  for (const char* backend : {"exhaustive", "sat", "cert2"}) {
    CompileOptions forced;
    forced.forced_backend = backend;
    ASSERT_TRUE(service.Compile("R(x | y) R(y | z)", forced).ok());
  }
  EXPECT_EQ(service.CompiledCount(), 2u);  // Capped, not 4.
  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.compiled_queries, 2u);
  EXPECT_EQ(stats.compiled.evictions, 2u);
  EXPECT_GE(stats.compiled.misses, 4u);

  // The evicted compilation's handle still solves: the shared state is
  // pinned by the handle, not by the cache entry.
  Database db(pinned->query().schema());
  db.AddFactStr(0, "a a");  // Self-loop: R(a|a) joins with itself.
  StatusOr<SolveReport> report = service.Solve(*pinned, db);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->certain);

  // Recompiling an evicted text is a miss that re-enters the cache.
  StatusOr<CompiledQuery> again = service.Compile("R(x | y) R(y | z)");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->text(), pinned->text());
}

TEST(ServiceDatabases, RegisterDropAndNotFound) {
  Service service;
  StatusOr<CompiledQuery> q = service.Compile("R(x | y) R(y | z)");
  ASSERT_TRUE(q.ok());

  EXPECT_TRUE(service.RegisterDatabase("d1", ChainDb(q->query().schema())).ok());
  Status dup = service.RegisterDatabase("d1", ChainDb(q->query().schema()));
  EXPECT_EQ(dup.code(), StatusCode::kAlreadyExists);

  StatusOr<SolveReport> missing = service.Solve(*q, "nope");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);

  EXPECT_EQ(service.DatabaseNames(), std::vector<std::string>{"d1"});
  EXPECT_TRUE(service.DropDatabase("d1").ok());
  EXPECT_EQ(service.DropDatabase("d1").code(), StatusCode::kNotFound);
}

// A registered database and a caller-owned copy of it report the same
// provenance and sizes; only the registered solve counts components.
TEST(ServiceSolve, ReportCarriesProvenanceAndTimings) {
  Service service;
  StatusOr<CompiledQuery> q = service.Compile("R(x | y) R(y | z)");
  ASSERT_TRUE(q.ok());
  ASSERT_TRUE(service.RegisterDatabase("d", ChainDb(q->query().schema())).ok());

  std::vector<StatusOr<SolveReport>> reports;
  reports.push_back(service.Solve(*q, "d"));
  reports.push_back(service.Solve(*q, ChainDb(q->query().schema())));
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const StatusOr<SolveReport>& report = reports[i];
    bool registered = i == 0;
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(report->certain);
    EXPECT_EQ(report->query_class, QueryClass::kPTimeCert2);
    EXPECT_EQ(report->complexity, Complexity::kPTime);
    EXPECT_EQ(report->algorithm, SolverAlgorithm::kCert2);
    EXPECT_EQ(report->backend_name, "cert2");
    EXPECT_EQ(report->num_facts, 3u);
    EXPECT_EQ(report->num_blocks, 2u);
    EXPECT_GT(report->timings.parse_seconds, 0.0);
    EXPECT_GT(report->timings.classify_seconds, 0.0);
    EXPECT_GE(report->timings.prepare_seconds, 0.0);
    EXPECT_GT(report->timings.solve_seconds, 0.0);
    EXPECT_EQ(report->incremental, registered) << i;
    EXPECT_EQ(report->components_total, registered ? 1u : 0u) << i;
    EXPECT_FALSE(report->witness.has_value());  // Certain: nothing to explain.
    // The summary never shows raw enum ints.
    EXPECT_NE(report->Summary().find("Cert_2"), std::string::npos)
        << report->Summary();
  }
}

TEST(ServiceSolve, SchemaMismatchIsTypedError) {
  Service service;
  StatusOr<CompiledQuery> q = service.Compile("R(x | y) R(y | z)");
  ASSERT_TRUE(q.ok());

  Schema other;
  other.AddRelation("S", 2, 1);  // Right shape, wrong name.
  ASSERT_TRUE(service.RegisterDatabase("wrong", Database(other)).ok());
  StatusOr<SolveReport> report = service.Solve(*q, "wrong");
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kSchemaMismatch);

  Schema bad_arity;
  bad_arity.AddRelation("R", 3, 1);  // Right name, wrong arity.
  StatusOr<SolveReport> mismatch = service.Solve(*q, Database(bad_arity));
  ASSERT_FALSE(mismatch.ok());
  EXPECT_EQ(mismatch.status().code(), StatusCode::kSchemaMismatch);
}

TEST(ServiceSolve, EmptyHandleIsInvalidArgument) {
  Service service;
  StatusOr<CompiledQuery> q = service.Compile("R(x | y) R(y | z)");
  ASSERT_TRUE(q.ok());
  CompiledQuery empty;
  EXPECT_FALSE(empty.valid());
  StatusOr<SolveReport> report = service.Solve(empty, ChainDb(q->query().schema()));
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
}

TEST(ServiceIntrospection, BackendNames) {
  std::vector<std::string> names = Service::BackendNames();
  EXPECT_NE(std::find(names.begin(), names.end(), "cert2"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "exhaustive"), names.end());
}

}  // namespace
}  // namespace cqa
