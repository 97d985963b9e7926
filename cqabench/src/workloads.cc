// The three workloads. Everything here runs off the clock: generation,
// the expected answer of every solve, and the proofs behind them.

#include <algorithm>
#include <cstdio>
#include <deque>
#include <set>

#include "api/witness.h"
#include "base/check.h"
#include "base/rng.h"
#include "bench.h"
#include "gen/workloads.h"
#include "query/query.h"
#include "reduction/sat_reduction.h"
#include "sat/dpll.h"
#include "sat/gen.h"
#include "tripath/search.h"

namespace cqabench {
namespace {

using cqa::Database;
using cqa::FactId;
using cqa::FactSpec;
using cqa::Rng;
using cqa::Service;

using Batch = std::shared_ptr<const std::vector<FactSpec>>;

FactSpec SpecOf(const Database& db, FactId f, const std::string& prefix) {
  FactSpec spec;
  cqa::FactRef fact = db.fact(f);
  spec.relation = db.schema().Relation(fact.relation).name;
  for (cqa::ElementId el : fact.args) {
    spec.args.push_back(prefix + db.elements().Name(el));
  }
  return spec;
}

/// The alive facts of `db`, minus `skip`, as a fresh database.
Database CopyWithout(const Database& db, const std::set<FactId>& skip) {
  Database out(db.schema());
  for (FactId f = 0; f < db.NumFacts(); ++f) {
    if (skip.count(f) != 0 || !db.alive(f)) continue;
    out.AddFactNamed(db.fact(f).relation, SpecOf(db, f, "").args);
  }
  return out;
}

/// A cold, whole-database answer from the exact backend `backend`.
bool ColdCertain(const std::string& text, const std::string& backend,
                 const Database& db, bool explain = false,
                 std::optional<cqa::Repair>* witness = nullptr) {
  cqa::ServiceOptions options;
  options.explain_non_certain = explain;
  Service service(options);
  cqa::CompileOptions copts;
  copts.forced_backend = backend;
  cqa::StatusOr<cqa::CompiledQuery> q = service.Compile(text, copts);
  CQA_CHECK(q.ok());
  cqa::StatusOr<cqa::SolveReport> report = service.Solve(*q, db);
  CQA_CHECK(report.ok());
  if (witness != nullptr) *witness = report->witness;
  return report->certain;
}

Op SolveOp(std::uint32_t db, std::uint32_t query, bool want_witness,
           bool expect, std::uint32_t state) {
  Op op;
  op.kind = Op::Kind::kSolve;
  op.db = db;
  op.query = query;
  op.want_witness = want_witness;
  op.expect_certain = expect;
  op.state = state;
  return op;
}

Op MutationOp(Op::Kind kind, std::uint32_t db, Batch facts) {
  Op op;
  op.kind = kind;
  op.db = db;
  op.facts = std::move(facts);
  return op;
}

// ---------------------------------------------------------------------
// tenant_reads: a few hundred small tenants, each bound to one of the
// paper's PTime queries; 90% witness-requesting solves, 10% single-fact
// toggles; up to 4 requests in flight, never two on one tenant. The
// PTime backends cannot explain a "not certain", so one tenant in 20 is
// a small q5 tenant whose requests are forced onto the sat backend,
// which can: those solves come back with a named witness (such tenants
// are mostly not certain), checked against the tenant's state. They are
// small so that their solves stay as cheap as the others'.

class TenantReads : public Workload {
 public:
  static constexpr std::uint32_t kTenants = 300;
  static constexpr std::uint32_t kFactsPerTenant = 300;
  static constexpr std::uint32_t kDomain = 120;
  /// The sat-backed tenants: the same density, a tenth of the size.
  static constexpr std::uint32_t kSatFacts = 30;
  static constexpr std::uint32_t kSatDomain = 12;

  explicit TenantReads(std::uint64_t seed) : rng_(seed * 0x9E37 + 11) {
    auto tenants = std::make_shared<std::vector<Tenant>>();
    queries_ = {{"R(x | y) R(y | z)", ""},          // q3: cert2
                {"R(x | y, x) R(y | x, u)", ""},    // q5: certk
                {"R(x | y, z) R(z | x, y)", ""},    // q6: certk+matching
                {"R(x | y, x) R(y | x, u)", "sat"}};  // q5, explained
    for (std::uint32_t t = 0; t < kTenants; ++t) {
      Tenant tenant;
      tenant.query = t % 20 == 19 ? 3 : t % 3;
      cqa::ConjunctiveQuery q = cqa::ParseQuery(queries_[tenant.query].text);
      bool sat = tenant.query == 3;
      cqa::InstanceParams params;
      params.num_facts = sat ? kSatFacts : kFactsPerTenant;
      params.domain_size = sat ? kSatDomain : kDomain;
      tenant.states[0] = cqa::RandomInstance(q, params, &rng_);
      FactId toggle =
          static_cast<FactId>(rng_.Below(tenant.states[0].NumFacts()));
      tenant.toggle = std::make_shared<const std::vector<FactSpec>>(
          std::vector<FactSpec>{SpecOf(tenant.states[0], toggle, "")});
      tenant.states[1] = CopyWithout(tenant.states[0], {toggle});
      // Both states' answers, from the exact exponential backend.
      for (int s = 0; s < 2; ++s) {
        tenant.certain[s] = ColdCertain(queries_[tenant.query].text,
                                        "exhaustive", tenant.states[s]);
      }
      char name[16];
      std::snprintf(name, sizeof(name), "t%03u", t);
      names_.push_back(name);
      tenants->push_back(std::move(tenant));
    }
    tenants_ = std::move(tenants);
    state_.assign(kTenants, 0);
  }

  const std::vector<std::string>& db_names() const override { return names_; }
  const std::vector<QuerySpec>& queries() const override { return queries_; }
  std::size_t window() const override { return 4; }
  cqa::ServiceOptions Options(const std::string&) const override {
    return cqa::ServiceOptions();
  }
  std::vector<std::pair<std::string, Database>> FreshDatabases()
      const override {
    std::vector<std::pair<std::string, Database>> out;
    for (std::uint32_t t = 0; t < kTenants; ++t) {
      out.emplace_back(names_[t], (*tenants_)[t].states[0]);
    }
    return out;
  }
  std::vector<Op> SetupOps() const override {
    std::vector<Op> ops;
    for (std::uint32_t t = 0; t < kTenants; ++t) {
      ops.push_back(SolveOp(t, (*tenants_)[t].query, true,
                            (*tenants_)[t].certain[0], 0));
    }
    return ops;
  }
  Op Next() override {
    std::uint32_t t = static_cast<std::uint32_t>(rng_.Below(kTenants));
    const Tenant& tenant = (*tenants_)[t];
    std::uint8_t& state = state_[t];
    if (rng_.Chance(0.1)) {
      Op::Kind kind = state == 0 ? Op::Kind::kDelete : Op::Kind::kInsert;
      state ^= 1;
      return MutationOp(kind, t, tenant.toggle);
    }
    Op op = SolveOp(t, tenant.query, true, tenant.certain[state], state);
    MaybePlant(&op);
    return op;
  }
  const Database* StateDatabase(std::uint32_t db,
                                std::uint32_t state) const override {
    return &(*tenants_)[db].states[state];
  }
  std::size_t RoundOps() const override { return 20000; }
  std::size_t MemoryOps() const override { return 20000; }
  std::unique_ptr<Workload> Clone() const override {
    return std::make_unique<TenantReads>(*this);
  }

 private:
  struct Tenant {
    std::uint32_t query = 0;
    /// [0] with the toggle fact, [1] without it.
    Database states[2] = {Database(cqa::Schema()), Database(cqa::Schema())};
    bool certain[2] = {false, false};
    Batch toggle;
  };

  Rng rng_;
  std::vector<QuerySpec> queries_;
  std::vector<std::string> names_;
  /// Shared by the copies each round runs on.
  std::shared_ptr<const std::vector<Tenant>> tenants_;
  std::vector<std::uint8_t> state_;  ///< Per tenant: index into states.
};

// ---------------------------------------------------------------------
// churn_wide: one durable q3 database of 1000 small components. Half the
// steps are solves, half are batches: a component inserted over
// never-seen names, then the oldest inserted one deleted (two requests,
// one per mutation kind).
//
// Every component is certain or falsifiable by construction (checked
// once with the exact backend): the base components are all falsifiable,
// a few inserted ones are certain, so the answer is "some live inserted
// component is certain" and flips as they come and go (Prop. 10.6) — a
// stale cached verdict shows as a wrong answer.

class ChurnWide : public Workload {
 public:
  /// 1000, not 10k: a solve scans every cached verdict, and the larger
  /// that memory-bound scan, the more its time follows the load of other
  /// tenants of a shared host (README, noise record). At 1000 a solve is
  /// still O(#components), about a thousand times the one dirty
  /// component.
  static constexpr std::uint32_t kBaseComponents = 1000;
  /// Inserted components alive at once.
  static constexpr std::uint32_t kWindow = 16;
  static constexpr double kCertainShare = 0.05;
  /// Mutations written to the WAL tail after the checkpoint: the bulk of
  /// the restart that setup_s times.
  static constexpr std::uint32_t kTailMutations = 30000;

  explicit ChurnWide(std::uint64_t seed) : rng_(seed * 0x9E37 + 23) {
    queries_ = {{"R(x | y) R(y | z)", ""}};
    names_ = {"wide"};
    // The two component shapes, checked once with the exact backend.
    CQA_CHECK(ColdCertain(queries_[0].text, "exhaustive",
                          ToDatabase(Component("c", true))));
    CQA_CHECK(!ColdCertain(queries_[0].text, "exhaustive",
                           ToDatabase(Component("f", false))));
  }

  const std::vector<std::string>& db_names() const override { return names_; }
  const std::vector<QuerySpec>& queries() const override { return queries_; }
  std::size_t window() const override { return 1; }
  std::uint32_t workers() const override { return 1; }
  cqa::ServiceOptions Options(const std::string& data_dir) const override {
    cqa::ServiceOptions options;
    options.durability.enabled = true;
    options.durability.data_dir = data_dir;
    options.durability.fsync = cqa::store::FsyncPolicy::kNone;
    return options;
  }
  bool durable() const override { return true; }

  void WriteDurableState(const std::string& data_dir) override {
    Database base(cqa::ParseQuery(queries_[0].text).schema());
    for (std::uint32_t i = 0; i < kBaseComponents; ++i) {
      for (const FactSpec& f : Component("b" + std::to_string(i), false)) {
        base.AddFactNamed(0, f.args);
      }
    }
    // The preparation fsyncs every batch: under kNone the WAL tail would
    // only reach the disk at the next snapshot. It takes no automatic
    // snapshot, so the whole tail stays in the WAL.
    cqa::ServiceOptions options = Options(data_dir);
    options.durability.fsync = cqa::store::FsyncPolicy::kEveryBatch;
    options.durability.snapshot_interval = 0;
    Service service(options);
    CQA_CHECK(service.RegisterDatabase(names_[0], std::move(base)).ok());
    cqa::StatusOr<cqa::CompiledQuery> q = service.Compile(queries_[0].text);
    CQA_CHECK(q.ok());
    // Fill the verdict cache, then checkpoint it with the snapshot.
    CQA_CHECK(service.Solve(*q, names_[0]).ok());
    CQA_CHECK(service.CheckpointDatabase(names_[0]).ok());
    // The WAL tail the set-up replays.
    for (std::uint32_t i = 0; i < kWindow + kTailMutations; ++i) {
      Op op = NextMutation();
      cqa::Status st = op.kind == Op::Kind::kInsert
                           ? service.InsertFacts(names_[0], *op.facts)
                           : service.DeleteFacts(names_[0], *op.facts);
      CQA_CHECK(st.ok());
    }
  }

  std::vector<std::pair<std::string, Database>> FreshDatabases()
      const override {
    return {};
  }
  std::vector<Op> SetupOps() const override {
    return {SolveOp(0, 0, false, AnyCertain(), 0)};
  }
  /// The stream repeats insert, delete, solve: every solve follows one
  /// whole batch (a new component in, the oldest out), so solves form one
  /// latency mode rather than a mixture of after-insert and after-delete.
  Op Next() override {
    phase_ = (phase_ + 1) % 3;
    if (phase_ != 0) return NextMutation();
    Op op = SolveOp(0, 0, false, AnyCertain(), 0);
    MaybePlant(&op);
    return op;
  }
  std::size_t RoundOps() const override { return 6500; }
  std::size_t MemoryOps() const override { return 3000; }
  std::unique_ptr<Workload> Clone() const override {
    return std::make_unique<ChurnWide>(*this);
  }

 private:
  struct Live {
    bool certain = false;
    Batch facts;
  };

  /// A component over fresh names `p`.a .. `p`.e: the a-block holds two
  /// facts; the certain shape continues both of them, the falsifiable
  /// shape only one (choosing R(a, c) then falsifies q3).
  static std::vector<FactSpec> Component(const std::string& p, bool certain) {
    std::vector<FactSpec> out = {{"R", {p + ".a", p + ".b"}},
                                 {"R", {p + ".a", p + ".c"}},
                                 {"R", {p + ".b", p + ".d"}}};
    if (certain) out.push_back({"R", {p + ".c", p + ".e"}});
    return out;
  }

  Database ToDatabase(const std::vector<FactSpec>& facts) const {
    Database db(cqa::ParseQuery(queries_[0].text).schema());
    for (const FactSpec& f : facts) db.AddFactNamed(0, f.args);
    return db;
  }

  bool AnyCertain() const {
    return std::any_of(live_.begin(), live_.end(),
                       [](const Live& l) { return l.certain; });
  }

  /// Inserts a new component while the window is short, else deletes
  /// the oldest one: the live size stays flat while names keep coming.
  Op NextMutation() {
    if (live_.size() < kWindow + 1) {
      Live l;
      l.certain = rng_.Chance(kCertainShare);
      l.facts = std::make_shared<const std::vector<FactSpec>>(
          Component("n" + std::to_string(next_name_++), l.certain));
      live_.push_back(l);
      return MutationOp(Op::Kind::kInsert, 0, l.facts);
    }
    Live oldest = live_.front();
    live_.pop_front();
    return MutationOp(Op::Kind::kDelete, 0, oldest.facts);
  }

  Rng rng_;
  std::vector<QuerySpec> queries_;
  std::vector<std::string> names_;
  std::deque<Live> live_;
  std::uint64_t next_name_ = 0;
  int phase_ = 0;
};

// ---------------------------------------------------------------------
// sat_gadgets: q2 (coNP-complete, Thm 9.1) over Lemma 9.2 gadgets D[phi],
// one large component each, solved by the forced "sat" backend's warm
// CDCL sessions. There are two databases, each a union of 16 gadgets, so
// that two requests (one per database) can be in flight and both workers
// stay busy; on each database mutations alternate with solves. Each
// mutation walks a hot gadget through never-seen contents (delete a
// fact, delete another, re-insert the first, ...), so every solve after
// a mutation re-encodes and re-solves that gadget.
//
// Expected answers, one per direction of the sat backend's verdict:
//   - gadgets0 is built from satisfiable phi (DPLL), so by Lemma 9.2
//     every gadget is falsifiable and the union is not certain;
//   - gadgets1 is built from unsatisfiable phi (DPLL), so every gadget is
//     certain and so is the union.
// The walk deletes at most one fact per block, never a block's only fact,
// and on gadgets0 never a fact of the falsifying repair r that a cold
// explained solve returned (and that is verified). So r still falsifies
// every visited state of a gadgets0 gadget, and every repair of a visited
// state of a gadgets1 gadget is a repair of the gadget: the answers never
// change. The first two visited states of each hot gadget are also
// re-checked cold.

class SatGadgets : public Workload {
 public:
  static constexpr std::uint32_t kDatabases = 2;
  /// The database whose gadgets are built from unsatisfiable formulas.
  static constexpr std::uint32_t kCertainDb = 1;
  static constexpr std::uint32_t kGadgets = 32;
  static constexpr std::uint32_t kHot = 8;
  static constexpr std::uint32_t kVars = 16;
  static constexpr std::uint32_t kClauses = 24;

  explicit SatGadgets(std::uint64_t seed)
      : rng_(seed * 0x9E37 + 37), hot_(kDatabases), turn_(kDatabases, 0) {
    queries_ = {{"R(x, u | x, y) R(u, y | x, z)", "sat"}};
    cqa::ConjunctiveQuery q2 = cqa::ParseQuery(queries_[0].text);
    std::optional<cqa::FoundTripath> fork = cqa::FindNiceForkTripath(q2);
    CQA_CHECK(fork.has_value());
    std::vector<Database> unions;
    for (std::uint32_t d = 0; d < kDatabases; ++d) {
      names_.push_back("gadgets" + std::to_string(d));
      unions.emplace_back(q2.schema());
    }
    for (std::uint32_t g = 0; g < kGadgets; ++g) {
      std::uint32_t d = g % kDatabases;
      bool certain = d == kCertainDb;
      cqa::CnfFormula phi;
      if (certain) {
        phi = UnsatisfiableFormula();
      } else {
        do {
          phi = cqa::RandomReductionReady3Sat(kVars, kClauses, &rng_);
        } while (!cqa::SolveDpll(phi).satisfiable);
      }
      cqa::SatGadget gadget = cqa::BuildSatGadget(q2, *fork, phi);
      std::string prefix = "g" + std::to_string(g) + ".";
      for (FactId f = 0; f < gadget.db.NumFacts(); ++f) {
        unions[d].AddFactNamed(0, SpecOf(gadget.db, f, prefix).args);
      }
      if (g < kHot) hot_[d].push_back(MakeHot(gadget.db, prefix, certain));
    }
    unions_ = std::make_shared<const std::vector<Database>>(std::move(unions));
  }

  const std::vector<std::string>& db_names() const override { return names_; }
  const std::vector<QuerySpec>& queries() const override { return queries_; }
  std::size_t window() const override { return kDatabases; }
  cqa::ServiceOptions Options(const std::string&) const override {
    cqa::ServiceOptions options;
    // The whole-database witness merge is O(blocks) per non-certain
    // solve and would bury the CDCL work this workload is for.
    options.explain_non_certain = false;
    return options;
  }
  std::vector<std::pair<std::string, Database>> FreshDatabases()
      const override {
    std::vector<std::pair<std::string, Database>> out;
    for (std::uint32_t d = 0; d < kDatabases; ++d) {
      out.emplace_back(names_[d], (*unions_)[d]);
    }
    return out;
  }
  std::vector<Op> SetupOps() const override {
    std::vector<Op> ops;
    for (std::uint32_t d = 0; d < kDatabases; ++d) {
      ops.push_back(SolveOp(d, 0, false, d == kCertainDb, 0));
    }
    return ops;
  }
  /// The stream repeats: a mutation on each database, then a solve on
  /// each.
  Op Next() override {
    std::uint32_t step = phase_++ % (2 * kDatabases);
    std::uint32_t d = step % kDatabases;
    if (step >= kDatabases) {
      Op op = SolveOp(d, 0, false, d == kCertainDb, 0);
      MaybePlant(&op);
      return op;
    }
    Hot& hot = hot_[d][turn_[d]++ % hot_[d].size()];
    if (hot.deleted.size() < 2) {
      Batch fact = hot.candidates[hot.next++ % hot.candidates.size()];
      hot.deleted.push_back(fact);
      return MutationOp(Op::Kind::kDelete, d, fact);
    }
    Batch fact = hot.deleted.front();
    hot.deleted.pop_front();
    return MutationOp(Op::Kind::kInsert, d, fact);
  }
  std::size_t RoundOps() const override { return 1200; }
  std::size_t MemoryOps() const override { return 1200; }
  std::unique_ptr<Workload> Clone() const override {
    return std::make_unique<SatGadgets>(*this);
  }

 private:
  struct Hot {
    std::vector<Batch> candidates;  ///< One fact per block, shuffled.
    std::size_t next = 0;
    std::deque<Batch> deleted;
  };

  /// An unsatisfiable reduction-ready formula about as large as the
  /// satisfiable ones. Random 3-SAT with at most three occurrences per
  /// variable is satisfiable (Tovey), so it takes 2-literal clauses: a
  /// random formula, plus the core
  ///   (a|b)(~a|b)(~b|c)(~c|d)(~c|~d)
  /// over four new variables (it forces b, then c, then d and ~d), plus
  /// (a|w) for a variable w the random part uses twice, which ties the
  /// core to the rest of the gadget.
  cqa::CnfFormula UnsatisfiableFormula() {
    using cqa::Literal;
    for (;;) {
      cqa::CnfFormula phi =
          cqa::RandomReductionReady3Sat(kVars, kClauses, &rng_);
      std::vector<std::uint32_t> counts = phi.OccurrenceCounts();
      auto w = std::find(counts.begin(), counts.end(), 2u);
      if (w == counts.end()) continue;
      std::uint32_t a = phi.num_vars;
      phi.num_vars += 4;
      phi.clauses.push_back({Literal{a, true}, Literal{a + 1, true}});
      phi.clauses.push_back({Literal{a, false}, Literal{a + 1, true}});
      phi.clauses.push_back({Literal{a + 1, false}, Literal{a + 2, true}});
      phi.clauses.push_back({Literal{a + 2, false}, Literal{a + 3, true}});
      phi.clauses.push_back({Literal{a + 2, false}, Literal{a + 3, false}});
      phi.clauses.push_back(
          {Literal{a, true},
           Literal{static_cast<std::uint32_t>(w - counts.begin()), true}});
      CQA_CHECK(phi.IsReductionReady());
      CQA_CHECK(!cqa::SolveDpll(phi).satisfiable);
      return phi;
    }
  }

  Hot MakeHot(const Database& gadget, const std::string& prefix,
              bool certain) {
    const std::string& text = queries_[0].text;
    std::set<FactId> kept;  // The falsifying repair's facts.
    if (!certain) {
      std::optional<cqa::Repair> r;
      CQA_CHECK(!ColdCertain(text, "sat", gadget, /*explain=*/true, &r));
      CQA_CHECK(r.has_value());
      std::vector<FactSpec> named;
      for (cqa::BlockId b = 0; b < gadget.blocks().size(); ++b) {
        kept.insert(r->FactIn(b));
        named.push_back(SpecOf(gadget, r->FactIn(b), ""));
      }
      CQA_CHECK(WitnessHolds(text, gadget, named));
    }
    std::vector<FactId> ids;
    for (const cqa::Block& block : gadget.blocks()) {
      if (block.facts.size() < 2) continue;
      for (FactId f : block.facts) {
        if (kept.count(f) == 0) {
          ids.push_back(f);
          break;
        }
      }
    }
    CQA_CHECK(ids.size() >= 4);
    for (std::size_t i = ids.size(); i > 1; --i) {
      std::swap(ids[i - 1], ids[rng_.Below(i)]);
    }
    // The first two visited states, re-checked cold.
    CQA_CHECK(ColdCertain(text, "sat", CopyWithout(gadget, {ids[0]})) ==
              certain);
    CQA_CHECK(ColdCertain(text, "sat", CopyWithout(gadget, {ids[0], ids[1]})) ==
              certain);
    Hot hot;
    for (FactId f : ids) {
      hot.candidates.push_back(std::make_shared<const std::vector<FactSpec>>(
          std::vector<FactSpec>{SpecOf(gadget, f, prefix)}));
    }
    return hot;
  }

  Rng rng_;
  std::vector<QuerySpec> queries_;
  std::vector<std::string> names_;
  /// Shared by the copies each round runs on.
  std::shared_ptr<const std::vector<Database>> unions_;
  std::vector<std::vector<Hot>> hot_;  ///< Per database.
  std::vector<std::uint64_t> turn_;    ///< Per database.
  std::uint32_t phase_ = 0;
};

}  // namespace

std::vector<std::string> WorkloadNames() {
  return {"tenant_reads", "churn_wide", "sat_gadgets"};
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       std::uint64_t seed) {
  if (name == "tenant_reads") return std::make_unique<TenantReads>(seed);
  if (name == "churn_wide") return std::make_unique<ChurnWide>(seed);
  if (name == "sat_gadgets") return std::make_unique<SatGadgets>(seed);
  return nullptr;
}

bool WitnessHolds(const std::string& query_text, const Database& db,
                  const std::vector<FactSpec>& witness) {
  cqa::StatusOr<cqa::ConjunctiveQuery> q = cqa::ParseQueryOrStatus(query_text);
  if (!q.ok()) return false;
  cqa::StatusOr<cqa::Repair> repair = cqa::WitnessFromSpecs(db, witness);
  return repair.ok() && cqa::VerifyWitness(*q, db, *repair).ok();
}

}  // namespace cqabench
