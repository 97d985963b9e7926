#include "engine/incremental.h"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_set>
#include <utility>

#include "base/check.h"
#include "data/audit.h"
#include "data/repair.h"

namespace cqa {

IncrementalSolver::IncrementalSolver(const CertainSolver& solver,
                                     const PreparedDatabase& pdb,
                                     CacheOptions cache_options)
    : IncrementalSolver(solver, pdb, cache_options, SessionOptions{}) {}

IncrementalSolver::IncrementalSolver(const CertainSolver& solver,
                                     const PreparedDatabase& pdb,
                                     CacheOptions cache_options,
                                     SessionOptions session_options)
    : solver_(&solver),
      pdb_(&pdb),
      components_(solver.query(), pdb),
      history_(cache_options) {
  if (session_options.enabled) {
    session_ = solver.backend().NewSession(session_options.cache,
                                           session_options.solver);
  }
  // Every initial component is dirty: list them all as unsolved.
  (void)SettleLocked();
}

std::size_t IncrementalSolver::SettleLocked() const {
  for (const PendingDelta& delta : pending_) {
    if (delta.insert) {
      components_.OnInsert(delta.id);
    } else {
      components_.OnRemove(delta.id);
    }
  }
  pending_.clear();

  DynamicComponents::DirtyLog dirty = components_.TakeDirty();
  std::size_t evictions = 0;
  for (DynamicComponents::RetiredVerdict& retired : dirty.retired) {
    if (retired.verdict->certain) --certain_count_;
    std::size_t bytes = VerdictBytes(*retired.verdict);
    evictions += history_.Insert(retired.fingerprint,
                                 std::move(retired.verdict), bytes);
  }

  // Keep the listed and newly dirtied roots that are still live and
  // still lack a verdict, ordered by (min_member, root) and deduplicated.
  const auto& live = components_.components();
  std::vector<std::pair<FactId, FactId>> listed;
  listed.reserve(unsolved_.size() + dirty.roots.size());
  auto keep = [&](FactId root) {
    auto it = live.find(root);
    if (it != live.end() && it->second.verdict == nullptr) {
      listed.emplace_back(it->second.min_member, root);
    }
  };
  for (FactId root : unsolved_) keep(root);
  for (FactId root : dirty.roots) keep(root);
  std::sort(listed.begin(), listed.end());
  listed.erase(std::unique(listed.begin(), listed.end()), listed.end());
  unsolved_.clear();
  for (const auto& [min_member, root] : listed) unsolved_.push_back(root);
  return evictions;
}

void IncrementalSolver::FlushPending() const {
  std::lock_guard lock(mu_);
  (void)SettleLocked();
}

void IncrementalSolver::ApplyRemap(const FactIdRemap& remap) {
  std::lock_guard lock(mu_);
  // Queued deltas hold pre-remap ids and read tombstoned tuples the
  // compaction just destroyed; the caller must have flushed first.
  CQA_CHECK_MSG(pending_.empty(),
                "ApplyRemap with queued deltas (FlushPending before "
                "Database::Compact)");
  components_.ApplyRemap(remap);
  // Listed roots are live components' roots, hence alive facts.
  for (FactId& root : unsolved_) {
    root = remap.Apply(root);
    CQA_CHECK(root != Database::kNoFact);
  }
  if (session_ != nullptr) session_->ApplyRemap(remap);
}

CdclStats IncrementalSolver::SatSessionStats() const {
  if (session_ == nullptr) return CdclStats{};
  std::lock_guard lock(mu_);
  return session_->Stats();
}

CacheCounters IncrementalSolver::SessionCacheCounters() const {
  if (session_ == nullptr) return CacheCounters{};
  std::lock_guard lock(mu_);
  return session_->CacheStats();
}

std::size_t IncrementalSolver::VerdictBytes(const CachedVerdict& verdict) {
  std::size_t bytes = sizeof(CachedVerdict) + sizeof(ComponentFingerprint);
  for (const Fact& fact : verdict.witness_facts) {
    bytes += sizeof(Fact) + fact.args.size() * sizeof(ElementId);
  }
  return bytes;
}

CacheCounters IncrementalSolver::VerdictCacheCounters() const {
  std::lock_guard lock(mu_);
  return history_.Counters();
}

std::vector<store::PersistedVerdict> IncrementalSolver::ExportVerdicts()
    const {
  std::vector<store::PersistedVerdict> out;
  auto add = [&out](const ComponentFingerprint& fp,
                    const CachedVerdict& verdict) {
    store::PersistedVerdict p;
    p.fingerprint = fp;
    p.certain = verdict.certain;
    p.has_witness = verdict.has_witness;
    p.witness_facts = verdict.witness_facts;
    out.push_back(std::move(p));
  };
  std::unordered_set<ComponentFingerprint, ComponentFingerprintHash> live;
  std::lock_guard lock(mu_);
  for (const auto& [root, comp] : components_.components()) {
    if (comp.verdict == nullptr) continue;
    if (live.insert(comp.fingerprint).second) {
      add(comp.fingerprint, *comp.verdict);
    }
  }
  history_.ForEach([&](const ComponentFingerprint& fp,
                       const std::shared_ptr<const CachedVerdict>& verdict) {
    if (live.count(fp) == 0) add(fp, *verdict);
  });
  return out;
}

void IncrementalSolver::ImportVerdicts(
    const std::vector<store::PersistedVerdict>& verdicts) {
  std::lock_guard lock(mu_);
  for (const store::PersistedVerdict& p : verdicts) {
    if (history_.Find(p.fingerprint, /*count=*/false) != nullptr) continue;
    CachedVerdict cv{p.certain, p.has_witness, p.witness_facts};
    std::size_t bytes = VerdictBytes(cv);
    history_.Insert(p.fingerprint,
                    std::make_shared<const CachedVerdict>(std::move(cv)),
                    bytes);
  }
}

void IncrementalSolver::AuditInto(AuditReport& report) const {
  // The audit settles the delta queue and then compares the settled
  // partition and its verdicts against fresh re-derivations; a
  // concurrent solve's flush or fill must not interleave.
  std::lock_guard lock(mu_);
  (void)SettleLocked();
  AuditReport partition = AuditComponents(solver_->query(), *pdb_, components_);
  bool sane = partition.ok();
  report.Merge(partition);
  // Re-solving needs sane member lists.
  if (sane) {
    auto check = [&report](bool ok, const std::string& message) {
      ++report.checks;
      if (!ok) report.Add("verdicts", message);
    };
    std::unordered_set<FactId> listed(unsolved_.begin(), unsolved_.end());
    std::size_t certain = 0;
    for (const auto& [root, comp] : components_.components()) {
      std::string name = "component " + std::to_string(root);
      if (comp.verdict == nullptr) {
        check(listed.count(root) != 0,
              name + " has no verdict and is not listed unsolved");
        continue;
      }
      check(listed.count(root) == 0,
            name + " has a verdict but is listed unsolved");
      if (comp.verdict->certain) ++certain;
      check(!(comp.verdict->certain && comp.verdict->has_witness),
            name + " is certain yet carries a falsifying witness");
      bool fresh = SolveMaterialized(comp.members, false).certain;
      check(fresh == comp.verdict->certain,
            name + " has attached verdict certain=" +
                std::to_string(comp.verdict->certain) +
                ", a fresh backend run says " + std::to_string(fresh));
    }
    check(certain_count_ == certain,
          "certain count is " + std::to_string(certain_count_) + " but " +
              std::to_string(certain) +
              " live components hold a certain verdict");
    if (session_ != nullptr) session_->AuditInto(*pdb_, report);
  }
  report.checks += 4;  // The four LRU invariant families below.
  history_.AuditInvariants([&](const std::string& message) {
    report.Add("lru", "history cache: " + message);
  });
}

CachedVerdict IncrementalSolver::SolveComponent(
    const std::vector<FactId>& members, bool want_witness) const {
  // Warm path: the backend session solves the component in place over the
  // parent database, reusing a per-component incremental solver.
  if (session_ == nullptr) return SolveMaterialized(members, want_witness);
  bool explain = want_witness && solver_->backend().CanExplain();
  ComponentVerdict v =
      session_->SolveComponent(*pdb_, components_, members, explain);
  CachedVerdict verdict;
  verdict.certain = v.certain;
  if (!v.certain && explain) {
    const Database& db = pdb_->db();
    verdict.has_witness = true;
    verdict.witness_facts.reserve(v.witness.size());
    for (FactId f : v.witness) {
      verdict.witness_facts.push_back(db.MaterializeFact(f));
    }
  }
  return verdict;
}

CachedVerdict IncrementalSolver::SolveMaterialized(
    const std::vector<FactId>& members, bool want_witness) const {
  const Database& db = pdb_->db();
  // Sorting keeps the sub-database — and so the backend's search order
  // and witness choice — deterministic regardless of union-find history.
  std::vector<FactId> sorted = members;
  std::sort(sorted.begin(), sorted.end());
  Database sub = CopyFacts(db, sorted);
  PreparedDatabase sub_pdb(sub);

  CachedVerdict verdict;
  std::optional<Repair> repair;
  verdict.certain = solver_->backend().Answer(sub_pdb, want_witness, &repair);
  if (repair.has_value()) {
    verdict.has_witness = true;
    const std::vector<Block>& sub_blocks = sub.blocks();
    verdict.witness_facts.reserve(sub_blocks.size());
    for (BlockId b = 0; b < sub_blocks.size(); ++b) {
      verdict.witness_facts.push_back(
          db.MaterializeFact(sorted[repair->FactIn(b)]));
    }
  }
  return verdict;
}

std::shared_ptr<const CachedVerdict> IncrementalSolver::Fill(
    FactId root, const DynamicComponents::Component& comp, bool want_witness,
    std::uint64_t* resolved) const {
  // A verdict solved without a witness cannot serve a solve that needs
  // one; re-solve to attach it.
  bool can_explain = want_witness && solver_->backend().CanExplain();
  auto usable = [can_explain](const CachedVerdict& v) {
    return !can_explain || v.certain || v.has_witness;
  };
  std::shared_ptr<const CachedVerdict> attached = comp.verdict;
  if (attached != nullptr && usable(*attached)) return attached;
  // A present-but-unusable history entry is a miss to us (the backend
  // will run), so count usability, not mere presence.
  auto* hit = history_.Find(comp.fingerprint, /*count=*/false);
  bool served = hit != nullptr && usable(**hit);
  history_.CountLookup(served);
  std::shared_ptr<const CachedVerdict> verdict;
  if (served) {
    verdict = *hit;
  } else {
    verdict = std::make_shared<const CachedVerdict>(
        SolveComponent(comp.members, want_witness));
    ++*resolved;
  }
  if (attached != nullptr && attached->certain) --certain_count_;
  if (verdict->certain) ++certain_count_;
  components_.SetVerdict(root, verdict);
  return verdict;
}

SolveReport IncrementalSolver::Solve(bool want_witness) const {
  const Database& db = pdb_->db();
  const CertainBackend& backend = solver_->backend();
  bool can_explain = want_witness && backend.CanExplain();

  SolveReport report =
      ReportHeader(solver_->classification(), backend, *pdb_);
  report.incremental = true;
  report.sat_warm = session_ != nullptr;

  auto start = std::chrono::steady_clock::now();

  // Drain the deltas queued by earlier mutations, then fill and empty
  // the unsolved list, all in one critical section: a concurrent solve
  // waits here and then finds every verdict this one attached. No new
  // delta can arrive mid-solve — enqueues need the exclusive structure
  // lock the caller of Solve holds shared.
  std::lock_guard lock(mu_);
  report.cache_evictions = SettleLocked();
  const auto& live = components_.components();
  report.components_total = live.size();

  // Only dirty components lack a verdict.
  std::uint64_t resolved = 0;
  for (FactId root : unsolved_) {
    (void)Fill(root, live.at(root), want_witness, &resolved);
  }
  unsolved_.clear();
  bool certain = certain_count_ > 0;
  report.certain = certain;

  // Merge the per-component falsifying repairs into one whole-database
  // witness: every block belongs to exactly one component, so the merged
  // choice vector is total.
  if (!certain && can_explain) {
    const std::vector<Block>& blocks = db.blocks();
    std::vector<std::uint32_t> choice(blocks.size(), 0);
    std::vector<char> covered(blocks.size(), 0);
    bool complete = true;
    for (const auto& [root, comp] : live) {
      std::shared_ptr<const CachedVerdict> verdict =
          Fill(root, comp, want_witness, &resolved);
      CQA_CHECK(verdict->has_witness);
      for (const Fact& fact : verdict->witness_facts) {
        FactId id = db.FindFact(fact);
        CQA_CHECK(id != Database::kNoFact);
        BlockId b = db.BlockOf(id);
        const std::vector<FactId>& facts = blocks[b].facts;
        choice[b] = static_cast<std::uint32_t>(
            std::find(facts.begin(), facts.end(), id) - facts.begin());
        covered[b] = 1;
      }
    }
    for (char c : covered) complete = complete && c != 0;
    CQA_CHECK_MSG(complete, "component witnesses left a block unassigned");
    report.witness = Repair(&db, std::move(choice));
  }
  report.components_resolved = resolved;
  report.components_cached = report.components_total - resolved;
  report.timings.solve_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return report;
}

}  // namespace cqa
