#include "api/service.h"

#include <chrono>
#include <unordered_set>
#include <utility>

#include "query/eval.h"

namespace cqa {
namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

std::string JoinNames(const std::vector<std::string>& names) {
  std::string out;
  for (const std::string& name : names) {
    if (!out.empty()) out += ", ";
    out += name;
  }
  return out;
}

std::string SpecToString(const FactSpec& spec) {
  std::string out = spec.relation + "(";
  for (std::size_t i = 0; i < spec.args.size(); ++i) {
    if (i > 0) out += ", ";
    out += spec.args[i];
  }
  return out + ")";
}

/// Escapes a database name into a file-system-safe directory name:
/// [A-Za-z0-9_-] pass through, everything else becomes %XX. Injective,
/// so UnescapeDbName can list a data_dir and recover the names.
std::string EscapeDbName(std::string_view name) {
  static const char* kHex = "0123456789ABCDEF";
  std::string out;
  for (char c : name) {
    bool safe = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                (c >= '0' && c <= '9') || c == '_' || c == '-';
    if (safe) {
      out.push_back(c);
    } else {
      out.push_back('%');
      out.push_back(kHex[(static_cast<unsigned char>(c) >> 4) & 0xf]);
      out.push_back(kHex[static_cast<unsigned char>(c) & 0xf]);
    }
  }
  return out;
}

/// Inverse of EscapeDbName; false on a malformed escape.
bool UnescapeDbName(const std::string& dir, std::string* name) {
  name->clear();
  for (std::size_t i = 0; i < dir.size(); ++i) {
    if (dir[i] != '%') {
      name->push_back(dir[i]);
      continue;
    }
    if (i + 2 >= dir.size()) return false;
    auto nibble = [](char c) -> int {
      if (c >= '0' && c <= '9') return c - '0';
      if (c >= 'A' && c <= 'F') return c - 'A' + 10;
      return -1;
    };
    int hi = nibble(dir[i + 1]);
    int lo = nibble(dir[i + 2]);
    if (hi < 0 || lo < 0) return false;
    name->push_back(static_cast<char>((hi << 4) | lo));
    i += 2;
  }
  return true;
}

/// The WAL's view of a FactSpec batch.
std::vector<store::NamedFact> ToNamedFacts(const std::vector<FactSpec>& facts) {
  std::vector<store::NamedFact> named;
  named.reserve(facts.size());
  for (const FactSpec& spec : facts) {
    named.push_back(store::NamedFact{spec.relation, spec.args});
  }
  return named;
}

/// Resolves a FactSpec's relation against the database schema, checking
/// the arity. Shared validation step of InsertFacts and DeleteFacts.
StatusOr<RelationId> ResolveSpec(const Database& db, const FactSpec& spec) {
  RelationId rel = db.schema().Find(spec.relation);
  if (rel == Schema::kNotFound) {
    return Status(StatusCode::kSchemaMismatch,
                  "unknown relation '" + spec.relation + "' in fact " +
                      SpecToString(spec));
  }
  std::uint32_t arity = db.schema().Relation(rel).arity;
  if (spec.args.size() != arity) {
    return Status(StatusCode::kSchemaMismatch,
                  "fact " + SpecToString(spec) + " has " +
                      std::to_string(spec.args.size()) +
                      " arguments, relation '" + spec.relation +
                      "' has arity " + std::to_string(arity));
  }
  return rel;
}

store::DurableStore::Options StoreOptions(
    const ServiceOptions::DurabilityOptions& durability) {
  store::DurableStore::Options options;
  options.fsync = durability.fsync;
  options.fsync_interval = durability.fsync_interval;
  options.snapshot_interval = durability.snapshot_interval;
  options.persist_verdicts = durability.persist_verdicts;
  return options;
}

}  // namespace

Service::Service(ServiceOptions options)
    : options_(std::move(options)), compiled_(options_.compile_cache) {}

StatusOr<CompiledQuery> Service::Compile(std::string_view text,
                                         const CompileOptions& options) {
  auto parse_start = std::chrono::steady_clock::now();
  StatusOr<ConjunctiveQuery> parsed = ParseQueryOrStatus(text);
  if (!parsed.ok()) return parsed.status();
  double parse_seconds = SecondsSince(parse_start);

  // The cache key is the parser's canonical form, so formatting variants
  // of one query share a compilation. allow_unresolved is deliberately
  // not part of the key: the unresolved gate is re-applied on every hit.
  std::string key = parsed->ToString();
  key += '\x1f';
  key += options.forced_backend;

  std::shared_ptr<const CompiledQuery::State> cached;
  {
    std::lock_guard lock(mutex_);
    if (auto* hit = compiled_.Find(key)) cached = *hit;
  }
  if (cached == nullptr) {
    // Classify outside the lock: the tripath search can be slow, and a
    // hard compile must not stall every other Compile and Solve. A lost
    // race just means two threads classified the same query; the first
    // insertion wins and the duplicate is discarded.
    SolverOptions solver_options;
    solver_options.practical_k = options_.practical_k;
    solver_options.tripath_limits = options_.tripath_limits;
    solver_options.forced_backend = options.forced_backend;
    auto classify_start = std::chrono::steady_clock::now();
    StatusOr<CertainSolver> solver =
        CertainSolver::Create(std::move(parsed).value(),
                              std::move(solver_options));
    if (!solver.ok()) return solver.status();
    double classify_seconds = SecondsSince(classify_start);

    auto state = std::make_shared<CompiledQuery::State>(
        solver->query().ToString(), std::move(solver).value());
    state->parse_seconds = parse_seconds;
    state->classify_seconds = classify_seconds;

    std::lock_guard lock(mutex_);
    // A lost race means two threads classified the same query; keep the
    // first insertion (re-probe without recounting the lookup).
    if (auto* hit = compiled_.Find(key, /*count=*/false)) {
      cached = *hit;
    } else {
      cached = state;
      compiled_.Insert(std::move(key), std::move(state),
                       sizeof(CompiledQuery::State) + cached->text.size());
    }
  }

  const CompiledQuery::State& state = *cached;
  if (state.solver.classification().query_class == QueryClass::kUnresolved &&
      options.forced_backend.empty() && !options.allow_unresolved) {
    return Status(
        StatusCode::kUnresolvedClass,
        "classification unresolved within tripath search bounds for " +
            state.text +
            " (pass CompileOptions::allow_unresolved to fall back to the "
            "exact exponential backend, or raise "
            "ServiceOptions::tripath_limits): " +
            state.solver.classification().explanation);
  }
  return CompiledQuery(std::move(cached));
}

std::size_t Service::CompiledCount() const {
  std::lock_guard lock(mutex_);
  return compiled_.size();
}

void Service::EnsurePrepared(DbEntry& entry) const {
  std::call_once(entry.prepare_once, [&] {
    auto prepare_start = std::chrono::steady_clock::now();
    entry.prepared.emplace(entry.db);
    entry.prepare_seconds = SecondsSince(prepare_start);
    entry.prepared_ready.store(true, std::memory_order_release);
  });
}

std::string Service::DbDir(std::string_view name) const {
  return options_.durability.data_dir + "/" + EscapeDbName(name);
}

Status Service::RegisterDatabase(std::string_view name, Database db) {
  auto entry = std::make_shared<DbEntry>(std::move(db), options_.solver_cache);
  EnsurePrepared(*entry);  // Registration prepares eagerly.

  // Reserve the name first: only one caller per name ever reaches the
  // store-creation I/O below, so a racing Register cannot wipe the
  // directory another one just initialized.
  {
    std::lock_guard lock(mutex_);
    if (databases_.find(name) != databases_.end()) {
      return Status(StatusCode::kAlreadyExists,
                    "database \"" + std::string(name) +
                        "\" is already registered (DropDatabase first to "
                        "replace it)");
    }
    databases_.emplace(std::string(name), entry);
  }
  if (!options_.durability.enabled) return Status::Ok();

  // Initialize the on-disk store (wiping any leftover directory from a
  // dropped predecessor) outside the registry lock — it fsyncs.
  StatusOr<std::unique_ptr<store::DurableStore>> durable =
      store::DurableStore::Create(DbDir(name), entry->db, {},
                                  StoreOptions(options_.durability));
  if (!durable.ok()) {
    // Roll the reservation back: a durability-enabled database must not
    // exist without its store.
    std::lock_guard lock(mutex_);
    auto it = databases_.find(name);
    if (it != databases_.end() && it->second == entry) databases_.erase(it);
    return durable.status();
  }
  std::unique_lock lock(entry->structure);
  entry->durable = std::move(durable).value();
  return Status::Ok();
}

Status Service::DropDatabase(std::string_view name) {
  bool durable = false;
  {
    std::lock_guard lock(mutex_);
    auto it = databases_.find(name);
    if (it == databases_.end()) {
      return Status(StatusCode::kNotFound,
                    "unknown database \"" + std::string(name) + "\"");
    }
    durable = it->second->durable != nullptr;
    databases_.erase(it);
  }
  // Delete the on-disk state outside the registry lock (I/O). In-flight
  // solves still hold the entry; removing files under an open WAL fd is
  // fine on POSIX, and a re-register re-creates the directory fresh.
  if (durable) return store::DurableStore::Destroy(DbDir(name));
  return Status::Ok();
}

Status Service::RecoverDatabase(std::string_view name) {
  if (!options_.durability.enabled) {
    return Status(StatusCode::kInvalidArgument,
                  "RecoverDatabase requires ServiceOptions::durability");
  }
  {
    std::lock_guard lock(mutex_);
    if (databases_.find(name) != databases_.end()) {
      return Status(StatusCode::kAlreadyExists,
                    "database \"" + std::string(name) +
                        "\" is already registered");
    }
  }

  // Recover outside the registry lock: replay is O(state) and must not
  // stall the service. A racing recovery of the same name does redundant
  // read-only work; the registry insert keeps exactly one result.
  StatusOr<store::DurableStore::OpenResult> opened =
      store::DurableStore::Open(DbDir(name), StoreOptions(options_.durability));
  if (!opened.ok()) return opened.status();

  auto entry = std::make_shared<DbEntry>(std::move(opened->db),
                                         options_.solver_cache);
  entry->durable = std::move(opened->store);
  entry->recovered_verdicts = std::move(opened->verdicts);
  entry->compactions = opened->meta.compactions;
  entry->audits_run.store(opened->meta.audits_run,
                          std::memory_order_relaxed);
  entry->audit_violations.store(opened->meta.audit_violations,
                                std::memory_order_relaxed);
  entry->recoveries = 1;
  // Preparation is deferred: the first solve or mutation pays the index
  // build, so recovering N databases is I/O-bound, not index-bound.

  std::lock_guard lock(mutex_);
  if (databases_.find(name) != databases_.end()) {
    return Status(StatusCode::kAlreadyExists,
                  "database \"" + std::string(name) +
                      "\" was registered while it was being recovered");
  }
  databases_.emplace(std::string(name), std::move(entry));
  return Status::Ok();
}

StatusOr<std::vector<std::string>> Service::RecoverAllDatabases() {
  if (!options_.durability.enabled) {
    return Status(StatusCode::kInvalidArgument,
                  "RecoverAllDatabases requires ServiceOptions::durability");
  }
  StatusOr<std::vector<std::string>> entries =
      store::ListDir(options_.durability.data_dir);
  if (!entries.ok()) {
    if (entries.status().code() == StatusCode::kNotFound) {
      return std::vector<std::string>{};  // Nothing persisted yet.
    }
    return entries.status();
  }
  std::vector<std::string> recovered;
  for (const std::string& dir : *entries) {
    std::string name;
    if (!UnescapeDbName(dir, &name)) continue;
    // Partially-created or corrupt-beyond-fallback directories are
    // skipped, not fatal: recovering the healthy databases matters more.
    if (RecoverDatabase(name).ok()) recovered.push_back(std::move(name));
  }
  return recovered;
}

std::vector<std::string> Service::DatabaseNames() const {
  std::lock_guard lock(mutex_);
  std::vector<std::string> names;
  names.reserve(databases_.size());
  for (const auto& [name, entry] : databases_) names.push_back(name);
  return names;
}

void Service::FillCompileTimings(const CompiledQuery& q,
                                 SolveReport* report) const {
  report->timings.parse_seconds = q.state_->parse_seconds;
  report->timings.classify_seconds = q.state_->classify_seconds;
}

StatusOr<std::shared_ptr<Service::DbEntry>> Service::FindEntry(
    std::string_view db_name) const {
  // Copying the shared_ptr keeps the entry alive through the caller's
  // work even if DropDatabase erases it concurrently.
  std::lock_guard lock(mutex_);
  auto it = databases_.find(db_name);
  if (it == databases_.end()) {
    std::vector<std::string> names;
    names.reserve(databases_.size());
    for (const auto& [name, unused] : databases_) names.push_back(name);
    return Status(StatusCode::kNotFound,
                  "unknown database \"" + std::string(db_name) +
                      "\" (registered: " + JoinNames(names) + ")");
  }
  return it->second;
}

namespace {

// Keyed by canonical text + backend so formatting variants — and a
// forced backend that matches the dichotomy's own choice — share one
// component cache.
std::string IncrementalKey(const CompiledQuery& q) {
  std::string key = q.text();
  key += '\x1f';
  key += q.backend_name();
  return key;
}

// Resolves report->witness into named FactSpecs. Must run under the same
// structure-lock hold as the solve that produced the witness: the Repair
// holds block indexes into the current partition, and a mutation between
// solve and naming would shift them under us.
void NameWitness(const Database& db, SolveReport* report) {
  if (!report->witness.has_value()) return;
  const Repair& repair = *report->witness;
  std::vector<FactSpec> specs;
  specs.reserve(db.blocks().size());
  for (BlockId b = 0; b < db.blocks().size(); ++b) {
    FactRef fact = db.fact(repair.FactIn(b));
    FactSpec spec;
    spec.relation = db.schema().Relation(fact.relation).name;
    spec.args.reserve(fact.args.size());
    for (ElementId el : fact.args) spec.args.push_back(db.elements().Name(el));
    specs.push_back(std::move(spec));
  }
  report->named_witness = std::move(specs);
}

}  // namespace

std::shared_ptr<Service::DbEntry::IncrementalEntry> Service::IncrementalFor(
    DbEntry& entry, const CompiledQuery& q) const {
  std::string key = IncrementalKey(q);
  {
    std::lock_guard lock(entry.inc_mu);
    if (auto* hit = entry.incremental.Find(key)) return *hit;
  }
  // Build outside inc_mu: the component partition is O(db) and must not
  // stall other queries' solver lookups. Construction only reads the
  // database (safe under the caller's shared structure lock); a lost
  // race means two threads partitioned the same query and the first
  // insertion wins.
  auto made = std::make_shared<DbEntry::IncrementalEntry>();
  made->key = key;
  made->state = q.state_;
  made->solver = std::make_unique<IncrementalSolver>(
      q.state_->solver, *entry.prepared, options_.verdict_cache,
      IncrementalSolver::SessionOptions{options_.warm_sat_solvers,
                                        options_.sat_solver_cache,
                                        options_.sat_cdcl});
  // Seed the fresh cache with this query's persisted verdicts (recovery).
  // Content-addressed fingerprints make them valid whenever a component
  // re-reaches the recorded content, so re-seeding after an eviction is
  // just as sound as the first seeding.
  auto recovered = entry.recovered_verdicts.find(key);
  if (recovered != entry.recovered_verdicts.end()) {
    made->solver->ImportVerdicts(recovered->second);
  }
  std::lock_guard lock(entry.inc_mu);
  // Same logical lookup as the probe above: don't count a second miss.
  if (auto* hit = entry.incremental.Find(key, /*count=*/false)) return *hit;
  entry.incremental.Insert(std::move(key), made);
  return made;
}

std::vector<std::shared_ptr<Service::DbEntry::IncrementalEntry>>
Service::LiveSolvers(DbEntry& entry,
                     const std::function<void()>& under_inc_mu) const {
  std::vector<std::shared_ptr<DbEntry::IncrementalEntry>> solvers;
  std::lock_guard lock(entry.inc_mu);
  if (under_inc_mu) under_inc_mu();
  entry.incremental.ForEach(
      [&](const std::string&,
          const std::shared_ptr<DbEntry::IncrementalEntry>& inc) {
        solvers.push_back(inc);
      });
  return solvers;
}

store::PersistedVerdictMap Service::ExportAllVerdicts(DbEntry& entry) const {
  store::PersistedVerdictMap map;
  for (const auto& inc : LiveSolvers(entry)) {
    std::vector<store::PersistedVerdict> verdicts =
        inc->solver->ExportVerdicts();
    if (!verdicts.empty()) map.emplace(inc->key, std::move(verdicts));
  }
  // Recovered verdicts whose solver was never re-created this run are
  // carried forward — still valid (content-addressed), still worth a
  // warm start next time.
  for (const auto& [key, verdicts] : entry.recovered_verdicts) {
    map.emplace(key, verdicts);  // No-op when a live export exists.
  }
  return map;
}

Status Service::SnapshotLocked(DbEntry& entry) const {
  // Snapshots serialize the *compacted* columns (dense arena offsets are
  // the format's contract), so reclaim tombstones first.
  MaybeCompact(entry, LiveSolvers(entry), /*force=*/true);
  store::MetaCounters meta;
  meta.compactions = entry.compactions;
  meta.audits_run = entry.audits_run.load(std::memory_order_relaxed);
  meta.audit_violations =
      entry.audit_violations.load(std::memory_order_relaxed);
  return entry.durable->WriteSnapshot(entry.db, meta,
                                      ExportAllVerdicts(entry));
}

void Service::MaybeSnapshotLocked(DbEntry& entry) const {
  if (entry.durable == nullptr || !entry.durable->ShouldSnapshot()) return;
  // The batch is already durable in the WAL, so a failed snapshot only
  // postpones compaction of the log (the next batch retries): count it
  // instead of failing an acknowledged mutation.
  if (!SnapshotLocked(entry).ok()) ++entry.snapshot_failures;
}

bool Service::MaybeCompact(
    DbEntry& entry,
    const std::vector<std::shared_ptr<DbEntry::IncrementalEntry>>& solvers,
    bool force) const {
  if (!force) {
    if (entry.db.NumFacts() < options_.compact_min_slots) return false;
    if (entry.db.DeadSlotRatio() <= options_.compact_dead_ratio) return false;
  }
  if (entry.db.NumDeadSlots() == 0) return false;
  // Settle every solver's queued deltas first: they hold pre-remap fact
  // ids and read tombstoned tuples the compaction is about to destroy.
  for (const auto& inc : solvers) inc->solver->FlushPending();
  FactIdRemap remap = entry.db.Compact();
  entry.prepared->ApplyRemap(remap);
  for (const auto& inc : solvers) inc->solver->ApplyRemap(remap);
  ++entry.compactions;
  return true;
}

StatusOr<SolveReport> Service::Solve(const CompiledQuery& q,
                                     std::string_view db_name,
                                     bool name_witness) const {
  if (!q.valid()) {
    return Status(StatusCode::kInvalidArgument,
                  "empty CompiledQuery handle (use Service::Compile)");
  }
  StatusOr<std::shared_ptr<DbEntry>> entry = FindEntry(db_name);
  if (!entry.ok()) return entry.status();
  Status bound = ValidateBinding(q.query(), (*entry)->db);
  if (!bound.ok()) return bound;

  // The shared lock only excludes mutations and compactions. The solver
  // settles queued deltas and re-solves only dirty components under its
  // own lock; a solve with nothing dirty reads the maintained certain
  // count.
  SolveReport report;
  {
    std::shared_lock lock((*entry)->structure);
    EnsurePrepared(**entry);
    report = IncrementalFor(**entry, q)->solver->Solve(
        options_.explain_non_certain);
    if (name_witness) NameWitness((*entry)->db, &report);
  }
  report.timings.prepare_seconds = (*entry)->prepare_seconds;
  FillCompileTimings(q, &report);
  return report;
}

Status Service::InsertFacts(std::string_view db_name,
                            const std::vector<FactSpec>& facts,
                            MutationStats* stats) {
  StatusOr<std::shared_ptr<DbEntry>> found = FindEntry(db_name);
  if (!found.ok()) return found.status();
  DbEntry& entry = **found;
  std::unique_lock lock(entry.structure);
  EnsurePrepared(entry);

  // Validate the whole batch before touching anything: a mutation either
  // applies completely or not at all.
  std::vector<RelationId> relations;
  relations.reserve(facts.size());
  for (const FactSpec& spec : facts) {
    StatusOr<RelationId> rel = ResolveSpec(entry.db, spec);
    if (!rel.ok()) return rel.status();
    relations.push_back(*rel);
  }

  // WAL-before-apply: the batch is durable (per the fsync policy) before
  // a single fact lands in memory; an append failure rejects the whole
  // batch un-applied.
  if (entry.durable != nullptr) {
    Status logged = entry.durable->AppendBatch(
        store::WalRecord::Kind::kInsert, ToNamedFacts(facts));
    if (!logged.ok()) return logged;
  }

  std::vector<std::shared_ptr<DbEntry::IncrementalEntry>> solvers =
      LiveSolvers(entry);
  for (std::size_t i = 0; i < facts.size(); ++i) {
    std::vector<ElementId> args;
    args.reserve(facts[i].args.size());
    for (const std::string& name : facts[i].args) {
      args.push_back(entry.db.elements().Intern(name));
    }
    std::size_t slots_before = entry.db.NumFacts();
    FactId id = entry.db.AddFact(relations[i], std::move(args));
    if (entry.db.NumFacts() == slots_before) {
      // Set semantics: the fact was already present.
      if (stats != nullptr) ++stats->ignored_duplicates;
      continue;
    }
    entry.prepared->ApplyInsert(id);
    for (const auto& inc : solvers) inc->solver->OnInsert(id);
    if (stats != nullptr) ++stats->applied;
  }
  MaybeSnapshotLocked(entry);
  return Status::Ok();
}

Status Service::DeleteFacts(std::string_view db_name,
                            const std::vector<FactSpec>& facts,
                            MutationStats* stats) {
  StatusOr<std::shared_ptr<DbEntry>> found = FindEntry(db_name);
  if (!found.ok()) return found.status();
  DbEntry& entry = **found;
  std::unique_lock lock(entry.structure);
  EnsurePrepared(entry);

  // Validate and resolve the whole batch before touching anything.
  std::vector<FactId> ids;
  ids.reserve(facts.size());
  std::unordered_set<FactId> seen;
  seen.reserve(facts.size());
  for (const FactSpec& spec : facts) {
    StatusOr<RelationId> rel = ResolveSpec(entry.db, spec);
    if (!rel.ok()) return rel.status();
    Fact fact;
    fact.relation = *rel;
    fact.args.reserve(spec.args.size());
    bool exists = true;
    for (const std::string& name : spec.args) {
      ElementId el = entry.db.elements().Find(name);
      if (el == Interner::kNotFound) {
        exists = false;
        break;
      }
      fact.args.push_back(el);
    }
    FactId id = exists ? entry.db.FindFact(fact) : Database::kNoFact;
    if (id == Database::kNoFact) {
      return Status(StatusCode::kNotFound,
                    "no such fact " + SpecToString(spec) + " in database \"" +
                        std::string(db_name) + "\"");
    }
    if (!seen.insert(id).second) {
      return Status(StatusCode::kInvalidArgument,
                    "fact " + SpecToString(spec) +
                        " named twice in one DeleteFacts batch");
    }
    ids.push_back(id);
  }

  // WAL-before-apply, as in InsertFacts: validated, then logged, then
  // applied; never acknowledged without the log append succeeding.
  if (entry.durable != nullptr) {
    Status logged = entry.durable->AppendBatch(
        store::WalRecord::Kind::kDelete, ToNamedFacts(facts));
    if (!logged.ok()) return logged;
  }

  std::vector<std::shared_ptr<DbEntry::IncrementalEntry>> solvers =
      LiveSolvers(entry);
  for (FactId id : ids) {
    Database::RemovedFact removed = entry.db.RemoveFact(id);
    entry.prepared->ApplyRemove(id, removed);
    for (const auto& inc : solvers) inc->solver->OnRemove(id);
    if (stats != nullptr) ++stats->applied;
  }
  // Deletion churn is the only thing that grows the dead-slot ratio;
  // reclaim tombstones once it passes the configured trigger. The solver
  // snapshot above is still current: no solver can appear while the
  // exclusive structure lock is held.
  if (MaybeCompact(entry, solvers, /*force=*/false) && stats != nullptr) {
    ++stats->compactions;
  }
  MaybeSnapshotLocked(entry);
  return Status::Ok();
}

Status Service::CompactDatabase(std::string_view db_name) {
  StatusOr<std::shared_ptr<DbEntry>> found = FindEntry(db_name);
  if (!found.ok()) return found.status();
  DbEntry& entry = **found;
  std::unique_lock lock(entry.structure);
  EnsurePrepared(entry);
  MaybeCompact(entry, LiveSolvers(entry), /*force=*/true);
  return Status::Ok();
}

Status Service::CheckpointDatabase(std::string_view name) {
  StatusOr<std::shared_ptr<DbEntry>> found = FindEntry(name);
  if (!found.ok()) return found.status();
  DbEntry& entry = **found;
  std::unique_lock lock(entry.structure);
  if (entry.durable == nullptr) {
    return Status(StatusCode::kInvalidArgument,
                  "database \"" + std::string(name) +
                      "\" has no durable store (enable "
                      "ServiceOptions::durability)");
  }
  EnsurePrepared(entry);
  return SnapshotLocked(entry);
}

StatusOr<std::vector<FactSpec>> Service::ListFacts(
    std::string_view db_name) const {
  StatusOr<std::shared_ptr<DbEntry>> found = FindEntry(db_name);
  if (!found.ok()) return found.status();
  DbEntry& entry = **found;
  std::shared_lock lock(entry.structure);
  std::vector<FactSpec> out;
  out.reserve(entry.db.NumAliveFacts());
  for (FactId f = 0; f < entry.db.NumFacts(); ++f) {
    if (!entry.db.alive(f)) continue;
    FactRef fact = entry.db.fact(f);
    FactSpec spec;
    spec.relation = entry.db.schema().Relation(fact.relation).name;
    spec.args.reserve(fact.args.size());
    for (ElementId el : fact.args) {
      spec.args.push_back(entry.db.elements().Name(el));
    }
    out.push_back(std::move(spec));
  }
  return out;
}

StatusOr<SolveReport> Service::Solve(const CompiledQuery& q,
                                     const Database& db) const {
  if (!q.valid()) {
    return Status(StatusCode::kInvalidArgument,
                  "empty CompiledQuery handle (use Service::Compile)");
  }
  StatusOr<SolveReport> report =
      q.state_->solver.Solve(db, options_.explain_non_certain);
  if (report.ok()) FillCompileTimings(q, &report.value());
  return report;
}

std::vector<std::string> Service::BackendNames() {
  return ::cqa::BackendNames();
}

ServiceStats Service::Stats() const {
  ServiceStats stats;
  std::vector<std::pair<std::string, std::shared_ptr<DbEntry>>> entries;
  {
    std::lock_guard lock(mutex_);
    stats.compiled_queries = compiled_.size();
    stats.compiled = compiled_.Counters();
    entries.reserve(databases_.size());
    for (const auto& [name, entry] : databases_) {
      entries.emplace_back(name, entry);
    }
  }
  for (const auto& [name, entry] : entries) {
    // Shared: a stats poll must never stall solves; it can briefly delay
    // a mutation, like any reader.
    std::shared_lock lock(entry->structure);
    ServiceStats::DatabaseStats d;
    d.name = name;
    d.alive_facts = entry->db.NumAliveFacts();
    d.fact_slots = entry->db.NumFacts();
    d.tombstoned = entry->db.NumDeadSlots();
    // A stats poll must not force a recovered entry's deferred index
    // build; blocks read 0 until the first solve or mutation prepares.
    d.blocks = entry->prepared_ready.load(std::memory_order_acquire)
                   ? entry->prepared->blocks().size()
                   : 0;
    d.compactions = entry->compactions;
    if (entry->durable != nullptr) {
      store::DurableStore::Counters wal = entry->durable->counters();
      d.wal_records = wal.wal_records;
      d.wal_bytes = wal.wal_bytes;
      d.snapshots = wal.snapshots;
    }
    d.snapshot_failures = entry->snapshot_failures;
    d.recoveries = entry->recoveries;
    // Snapshot the solver-map counters and list in one inc_mu section,
    // but sum the solver counters outside it: a solver lock is held
    // across backend runs, and blocking on it while holding inc_mu
    // would stall every solve's solver-map probe for the duration
    // (solvers are shared_ptr-held, so the snapshot stays valid).
    for (const auto& inc : LiveSolvers(
             *entry, [&] { d.solvers = entry->incremental.Counters(); })) {
      d.verdicts += inc->solver->VerdictCacheCounters();
      d.sat += inc->solver->SatSessionStats();
      d.sat_solvers += inc->solver->SessionCacheCounters();
    }
    d.audits_run = entry->audits_run.load(std::memory_order_relaxed);
    d.audit_violations =
        entry->audit_violations.load(std::memory_order_relaxed);
    stats.databases.push_back(std::move(d));
  }
  return stats;
}

StatusOr<AuditReport> Service::AuditDatabase(std::string_view db_name) const {
  StatusOr<std::shared_ptr<DbEntry>> entry_or = FindEntry(db_name);
  if (!entry_or.ok()) return entry_or.status();
  const std::shared_ptr<DbEntry>& entry = entry_or.value();

  AuditReport report;
  // The compile cache lives under the registry lock; audit it before any
  // per-database lock (the hierarchy forbids registry-after-structure).
  {
    std::lock_guard lock(mutex_);
    report.checks += 4;
    compiled_.AuditInvariants([&](const std::string& message) {
      report.Add("lru", "compile cache: " + message);
    });
  }

  // Shared: auditing only reads, so it rides alongside solves; mutations
  // and compactions (exclusive) wait, which is what makes the snapshot
  // below internally consistent.
  std::shared_lock lock(entry->structure);
  EnsurePrepared(*entry);
  report.Merge(::cqa::AuditDatabase(entry->db));
  report.Merge(AuditPrepared(*entry->prepared));

  // Audit the solver map under inc_mu, but run each solver's audit after
  // releasing it: AuditInto takes the solver lock, which ranks above
  // inc_mu.
  auto audit_map = [&] {
    report.checks += 4;
    entry->incremental.AuditInvariants([&](const std::string& message) {
      report.Add("lru", "solver map: " + message);
    });
  };
  for (const auto& inc : LiveSolvers(*entry, audit_map)) {
    inc->solver->AuditInto(report);
  }

  entry->audits_run.fetch_add(1, std::memory_order_relaxed);
  entry->audit_violations.fetch_add(report.total_violations,
                                    std::memory_order_relaxed);
  return report;
}

std::string ServiceStats::ToString() const {
  std::string out =
      "compiled queries: " + std::to_string(compiled_queries) +
      " (hits=" + std::to_string(compiled.hits) +
      " misses=" + std::to_string(compiled.misses) +
      " evictions=" + std::to_string(compiled.evictions) + ")\n";
  if (server.queue_capacity != 0) {
    out += "server: queue=" + std::to_string(server.queue_depth) + "/" +
           std::to_string(server.queue_capacity) +
           " (peak " + std::to_string(server.peak_queue_depth) + ")" +
           " admitted=" + std::to_string(server.admitted) +
           " completed=" + std::to_string(server.completed) +
           " shed=" + std::to_string(server.shed_overloaded) +
           " deadline=" +
           std::to_string(server.deadline_rejected_admission) + "/" +
           std::to_string(server.deadline_rejected_dequeue) + "/" +
           std::to_string(server.deadline_rejected_pipeline) +
           " conns=" + std::to_string(server.connections_open) + "/" +
           std::to_string(server.connections_accepted) +
           " decode_errors=" + std::to_string(server.decode_errors) + "\n";
  }
  for (const DatabaseStats& d : databases) {
    out += "database \"" + d.name + "\": facts=" +
           std::to_string(d.alive_facts) + " slots=" +
           std::to_string(d.fact_slots) + " (tombstoned " +
           std::to_string(d.tombstoned) + ") blocks=" +
           std::to_string(d.blocks) + " compactions=" +
           std::to_string(d.compactions) + "\n";
    out += "  solvers: entries=" + std::to_string(d.solvers.entries) +
           " hits=" + std::to_string(d.solvers.hits) +
           " misses=" + std::to_string(d.solvers.misses) +
           " evictions=" + std::to_string(d.solvers.evictions) + "\n";
    out += "  verdicts: entries=" + std::to_string(d.verdicts.entries) +
           " bytes=" + std::to_string(d.verdicts.bytes) +
           " hits=" + std::to_string(d.verdicts.hits) +
           " misses=" + std::to_string(d.verdicts.misses) +
           " evictions=" + std::to_string(d.verdicts.evictions) + "\n";
    if (d.sat.solves != 0) {
      out += "  sat: solves=" + std::to_string(d.sat.solves) +
             " (warm " + std::to_string(d.sat.warm_solves) + ")" +
             " conflicts=" + std::to_string(d.sat.conflicts) +
             " restarts=" + std::to_string(d.sat.restarts) +
             " learned kept=" + std::to_string(d.sat.learned_kept) +
             " deleted=" + std::to_string(d.sat.learned_deleted) +
             " retracted=" + std::to_string(d.sat.clauses_retracted) +
             " solvers=" + std::to_string(d.sat_solvers.entries) +
             " (evicted " + std::to_string(d.sat_solvers.evictions) + ")\n";
    }
    if (d.wal_records != 0 || d.snapshots != 0 || d.snapshot_failures != 0) {
      out += "  store: wal_records=" + std::to_string(d.wal_records) +
             " wal_bytes=" + std::to_string(d.wal_bytes) +
             " snapshots=" + std::to_string(d.snapshots) +
             " snapshot_failures=" + std::to_string(d.snapshot_failures) +
             "\n";
    }
    if (d.audits_run != 0) {
      out += "  audits: runs=" + std::to_string(d.audits_run) +
             " violations=" + std::to_string(d.audit_violations) + "\n";
    }
  }
  return out;
}

}  // namespace cqa
