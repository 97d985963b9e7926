// The traced run. It first drives a fixed-length prefix of the seeded
// stream over the wire (untraced), then replays that same prefix
// single-threaded and in-process, twice over per request:
//
//   - the server path: EncodeRequest -> FrameReader -> DecodeRequest ->
//     Service::Compile + Service::Solve (or InsertFacts/DeleteFacts) ->
//     EncodeResponse -> FrameReader -> DecodeResponse;
//   - the layers path: the public data, store and engine classes
//     composed the way Service composes them, with the same options
//     (Database + PreparedDatabase, store::DurableStore, CertainSolver +
//     IncrementalSolver with deferred deltas, compaction and snapshots).
//
// A span (name, start, end, parent, request) is recorded around every
// call; spans stay in memory and are written out at the end. Every
// solve's answer and component counts must agree across the wire, the
// Service replay and the layers replay, or the request counts as failed.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <numeric>
#include <optional>

#include "base/check.h"
#include "bench.h"
#include "engine/incremental.h"
#include "engine/solver.h"
#include "server/protocol.h"
#include "store/store.h"

namespace cqabench {
namespace {

namespace fs = std::filesystem;
namespace server = cqa::server;
using cqa::Database;
using cqa::FactId;
using cqa::FactSpec;

// -- Spans -------------------------------------------------------------

enum SpanName : std::uint8_t {
  kRequest,
  kEncodeRequest,
  kFrameRead,
  kDecodeRequest,
  kEncodeResponse,
  kDecodeResponse,
  kApiRegister,
  kApiCompile,
  kApiSolve,
  kApiMutate,
  kLayers,
  kDataPrepare,
  kDataLookup,
  kDataApply,
  kDataCompact,
  kStoreRecover,
  kStoreAppend,
  kStoreSnapshot,
  kEngineCreate,
  kEnginePartition,
  kEngineEnqueue,
  kEngineFlush,
  kEngineSolve,
  kNumSpanNames,
};

const char* const kSpanNames[kNumSpanNames] = {
    "request",          "server.encode_request", "server.frame_read",
    "server.decode_request", "server.encode_response",
    "server.decode_response", "api.register", "api.compile", "api.solve",
    "api.mutate",       "layers",                "data.prepare",
    "data.lookup",      "data.apply",            "data.compact",
    "store.recover",    "store.append",          "store.snapshot",
    "engine.create",    "engine.partition",      "engine.enqueue",
    "engine.flush",     "engine.solve"};

constexpr std::uint32_t kNoParent = ~std::uint32_t{0};

struct Span {
  SpanName name;
  std::uint32_t parent;
  std::uint32_t request;
  Clock::time_point start;
  Clock::time_point end;
  double micros() const { return MicrosBetween(start, end); }
};

class Tracer {
 public:
  Tracer() { spans_.reserve(1 << 16); }

  /// Opens a span under the current one; returns its index.
  std::uint32_t Begin(SpanName name) {
    std::uint32_t parent = open_.empty() ? kNoParent : open_.back();
    spans_.push_back({name, parent, request_, Clock::now(), {}});
    open_.push_back(static_cast<std::uint32_t>(spans_.size() - 1));
    return open_.back();
  }
  void End() {
    spans_[open_.back()].end = Clock::now();
    open_.pop_back();
  }
  /// Runs `f` inside a span; returns the span's duration in µs.
  template <typename F>
  double Time(SpanName name, F&& f) {
    std::uint32_t index = Begin(name);
    f();
    End();
    return spans_[index].micros();
  }

  void SetRequest(std::uint32_t request) { request_ = request; }
  const std::vector<Span>& spans() const { return spans_; }

  /// One line per span: request, index, parent, name, start and end in
  /// ns since the first span.
  void Write(const std::string& path) const {
    std::ofstream out(path);
    out << "request\tspan\tparent\tname\tstart_ns\tend_ns\n";
    if (spans_.empty()) return;
    Clock::time_point epoch = spans_.front().start;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      auto ns = [&](Clock::time_point t) {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch)
            .count();
      };
      out << s.request << '\t' << i << '\t'
          << (s.parent == kNoParent ? -1 : static_cast<long long>(s.parent))
          << '\t' << kSpanNames[s.name] << '\t' << ns(s.start) << '\t'
          << ns(s.end) << '\n';
    }
  }

 private:
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
  std::uint32_t request_ = 0;
};

// -- The layers path ---------------------------------------------------

std::uint64_t NameBytes(const std::vector<FactSpec>& facts) {
  std::uint64_t bytes = 0;
  for (const FactSpec& f : facts) {
    bytes += f.relation.size();
    for (const std::string& a : f.args) bytes += a.size();
  }
  return bytes;
}

std::uint64_t NewestFileBytes(const std::string& dir, const std::string& prefix) {
  std::string newest;
  for (const fs::directory_entry& e : fs::directory_iterator(dir)) {
    std::string name = e.path().filename().string();
    if (name.rfind(prefix, 0) == 0 && name > newest) newest = name;
  }
  return newest.empty() ? 0 : fs::file_size(dir + "/" + newest);
}

/// One compiled query of the layers path: what Service::Compile builds.
struct LayerQuery {
  std::string key;  ///< Canonical text + '\x1f' + backend: the solver key.
  std::unique_ptr<cqa::CertainSolver> solver;
};

/// One database of the layers path: what a Service DbEntry holds.
struct LayerDb {
  std::unique_ptr<Database> db;
  std::unique_ptr<cqa::PreparedDatabase> pdb;
  std::unique_ptr<cqa::store::DurableStore> durable;
  std::string dir;
  cqa::store::PersistedVerdictMap recovered;
  std::map<std::string, std::unique_ptr<cqa::IncrementalSolver>> solvers;
  std::uint64_t compactions = 0;
  bool dirty = false;  ///< Deltas queued since the last solve.
};

/// Counters the layers path accumulates beyond the spans.
struct LayerCounters {
  std::uint64_t wal_bytes = 0;
  std::uint64_t snapshot_bytes = 0;
  std::uint64_t user_bytes = 0;
  std::uint64_t snapshots = 0;
};

class Layers {
 public:
  Layers(const Workload& workload, const cqa::ServiceOptions& options,
         Tracer* tracer, LayerCounters* counters)
      : options_(options), tracer_(tracer),
        counters_(counters), dbs_(workload.db_names().size()) {
    for (const QuerySpec& spec : workload.queries()) {
      LayerQuery lq;
      tracer_->Time(kEngineCreate, [&] {
        cqa::SolverOptions so;
        so.practical_k = options_.practical_k;
        so.tripath_limits = options_.tripath_limits;
        so.forced_backend = spec.forced_backend;
        cqa::StatusOr<cqa::CertainSolver> solver = cqa::CertainSolver::Create(
            cqa::ParseQuery(spec.text), std::move(so));
        CQA_CHECK(solver.ok());
        lq.solver = std::make_unique<cqa::CertainSolver>(std::move(*solver));
      });
      lq.key = lq.solver->query().ToString() + '\x1f' +
               std::string(lq.solver->backend().name());
      queries_.push_back(std::move(lq));
    }
  }

  void Register(std::uint32_t i, Database db) {
    LayerDb& d = dbs_[i];
    d.db = std::make_unique<Database>(std::move(db));
    EnsurePrepared(d);
  }

  void Recover(std::uint32_t i, const std::string& dir) {
    LayerDb& d = dbs_[i];
    d.dir = dir;
    tracer_->Time(kStoreRecover, [&] {
      cqa::StatusOr<cqa::store::DurableStore::OpenResult> opened =
          cqa::store::DurableStore::Open(dir, StoreOptions());
      CQA_CHECK(opened.ok());
      d.db = std::make_unique<Database>(std::move(opened->db));
      d.durable = std::move(opened->store);
      d.recovered = std::move(opened->verdicts);
      d.compactions = opened->meta.compactions;
    });
  }

  /// Service::Solve's engine part: settle the queued deltas, then solve.
  cqa::SolveReport Solve(const Op& op, double* flush_us, double* engine_us) {
    LayerDb& d = dbs_[op.db];
    EnsurePrepared(d);
    cqa::IncrementalSolver& solver = SolverFor(d, queries_[op.query]);
    if (d.dirty) {
      *flush_us = tracer_->Time(kEngineFlush, [&] { solver.FlushPending(); });
      d.dirty = false;
    }
    cqa::SolveReport report;
    *engine_us = tracer_->Time(kEngineSolve, [&] {
      report = solver.Solve(options_.explain_non_certain);
    });
    return report;
  }

  void Mutate(const Op& op) {
    LayerDb& d = dbs_[op.db];
    EnsurePrepared(d);
    const std::vector<FactSpec>& facts = *op.facts;
    bool insert = op.kind == Op::Kind::kInsert;
    std::vector<FactId> ids;
    if (!insert) {
      tracer_->Time(kDataLookup, [&] {
        for (const FactSpec& spec : facts) ids.push_back(Find(*d.db, spec));
      });
    }
    if (d.durable != nullptr) {
      std::vector<cqa::store::NamedFact> named;
      for (const FactSpec& f : facts) named.push_back({f.relation, f.args});
      std::uint64_t before = d.durable->counters().wal_bytes;
      tracer_->Time(kStoreAppend, [&] {
        CQA_CHECK(d.durable
                      ->AppendBatch(insert ? cqa::store::WalRecord::Kind::kInsert
                                           : cqa::store::WalRecord::Kind::kDelete,
                                    std::move(named))
                      .ok());
      });
      counters_->wal_bytes += d.durable->counters().wal_bytes - before;
      counters_->user_bytes += NameBytes(facts);
    }
    std::vector<FactId> applied;
    tracer_->Time(kDataApply, [&] {
      if (insert) {
        for (const FactSpec& spec : facts) {
          std::vector<cqa::ElementId> args;
          for (const std::string& name : spec.args) {
            args.push_back(d.db->elements().Intern(name));
          }
          std::size_t slots = d.db->NumFacts();
          FactId id = d.db->AddFact(d.db->schema().Find(spec.relation),
                                    std::move(args));
          if (d.db->NumFacts() == slots) continue;  // Set semantics.
          d.pdb->ApplyInsert(id);
          applied.push_back(id);
        }
      } else {
        for (FactId id : ids) {
          Database::RemovedFact removed = d.db->RemoveFact(id);
          d.pdb->ApplyRemove(id, removed);
          applied.push_back(id);
        }
      }
    });
    tracer_->Time(kEngineEnqueue, [&] {
      for (auto& [key, solver] : d.solvers) {
        for (FactId id : applied) {
          insert ? solver->OnInsert(id) : solver->OnRemove(id);
        }
      }
    });
    d.dirty = d.dirty || !applied.empty();
    if (!insert) MaybeCompact(d, /*force=*/false);
    if (d.durable != nullptr && d.durable->ShouldSnapshot()) Snapshot(d);
  }

  /// Cache and SAT counters summed over every live solver.
  cqa::CacheCounters VerdictCounters() const {
    cqa::CacheCounters total;
    for (const LayerDb& d : dbs_) {
      for (const auto& [key, solver] : d.solvers) {
        total += solver->VerdictCacheCounters();
      }
    }
    return total;
  }
  cqa::CdclStats SatStats() const {
    cqa::CdclStats total;
    for (const LayerDb& d : dbs_) {
      for (const auto& [key, solver] : d.solvers) {
        total += solver->SatSessionStats();
      }
    }
    return total;
  }
  std::uint64_t InternedElements() const {
    std::uint64_t n = 0;
    for (const LayerDb& d : dbs_) n += d.db->elements().size();
    return n;
  }
  std::uint64_t Compactions() const {
    std::uint64_t n = 0;
    for (const LayerDb& d : dbs_) n += d.compactions;
    return n;
  }

 private:
  cqa::store::DurableStore::Options StoreOptions() const {
    cqa::store::DurableStore::Options so;
    so.fsync = options_.durability.fsync;
    so.fsync_interval = options_.durability.fsync_interval;
    so.snapshot_interval = options_.durability.snapshot_interval;
    so.persist_verdicts = options_.durability.persist_verdicts;
    return so;
  }

  void EnsurePrepared(LayerDb& d) {
    if (d.pdb != nullptr) return;
    tracer_->Time(kDataPrepare, [&] {
      d.pdb = std::make_unique<cqa::PreparedDatabase>(*d.db);
    });
  }

  cqa::IncrementalSolver& SolverFor(LayerDb& d, const LayerQuery& q) {
    auto it = d.solvers.find(q.key);
    if (it != d.solvers.end()) return *it->second;
    std::unique_ptr<cqa::IncrementalSolver> made;
    tracer_->Time(kEnginePartition, [&] {
      made = std::make_unique<cqa::IncrementalSolver>(
          *q.solver, *d.pdb, options_.verdict_cache,
          cqa::IncrementalSolver::SessionOptions{options_.warm_sat_solvers,
                                                 options_.sat_solver_cache,
                                                 options_.sat_cdcl});
      auto recovered = d.recovered.find(q.key);
      if (recovered != d.recovered.end()) {
        made->ImportVerdicts(recovered->second);
      }
    });
    return *d.solvers.emplace(q.key, std::move(made)).first->second;
  }

  static FactId Find(const Database& db, const FactSpec& spec) {
    cqa::Fact fact;
    fact.relation = db.schema().Find(spec.relation);
    for (const std::string& name : spec.args) {
      cqa::ElementId el = db.elements().Find(name);
      CQA_CHECK(el != cqa::Interner::kNotFound);
      fact.args.push_back(el);
    }
    FactId id = db.FindFact(fact);
    CQA_CHECK(id != Database::kNoFact);
    return id;
  }

  /// Service::MaybeCompact: flush every solver, compact, patch the
  /// preparation and every solver with the remap.
  void MaybeCompact(LayerDb& d, bool force) {
    if (!force) {
      if (d.db->NumFacts() < options_.compact_min_slots) return;
      if (d.db->DeadSlotRatio() <= options_.compact_dead_ratio) return;
    }
    if (d.db->NumDeadSlots() == 0) return;
    tracer_->Time(kDataCompact, [&] {
      for (auto& [key, solver] : d.solvers) solver->FlushPending();
      cqa::FactIdRemap remap = d.db->Compact();
      d.pdb->ApplyRemap(remap);
      for (auto& [key, solver] : d.solvers) solver->ApplyRemap(remap);
    });
    d.dirty = false;
    ++d.compactions;
  }

  /// Service::SnapshotLocked: forced compaction, then the snapshot with
  /// the verdict export (live solvers first, unclaimed recovered ones
  /// carried forward).
  void Snapshot(LayerDb& d) {
    MaybeCompact(d, /*force=*/true);
    tracer_->Time(kStoreSnapshot, [&] {
      cqa::store::PersistedVerdictMap map;
      for (auto& [key, solver] : d.solvers) {
        std::vector<cqa::store::PersistedVerdict> v = solver->ExportVerdicts();
        if (!v.empty()) map.emplace(key, std::move(v));
      }
      for (const auto& [key, verdicts] : d.recovered) map.emplace(key, verdicts);
      cqa::store::MetaCounters meta;
      meta.compactions = d.compactions;
      CQA_CHECK(d.durable->WriteSnapshot(*d.db, meta, map).ok());
    });
    counters_->snapshot_bytes += NewestFileBytes(d.dir, "snapshot-") +
                                 NewestFileBytes(d.dir, "verdicts-");
    ++counters_->snapshots;
  }

  const cqa::ServiceOptions options_;
  Tracer* tracer_;
  LayerCounters* counters_;
  std::vector<LayerQuery> queries_;
  std::vector<LayerDb> dbs_;
};

// -- The server path ---------------------------------------------------

server::Request RequestFor(const Workload& workload, const Op& op,
                           std::uint64_t id) {
  server::Request req;
  req.request_id = id;
  req.db_name = workload.db_names()[op.db];
  if (op.kind == Op::Kind::kSolve) {
    req.query_text = workload.queries()[op.query].text;
    req.forced_backend = workload.queries()[op.query].forced_backend;
    req.want_witness = op.want_witness;
  } else {
    req.mutation_kind = op.kind == Op::Kind::kInsert
                            ? server::MutationKind::kInsert
                            : server::MutationKind::kDelete;
    req.mutation = *op.facts;
  }
  return req;
}

/// What one replayed request measured.
struct Replayed {
  Op op;
  double codec_us = 0.0;       ///< The five codec calls.
  double api_us = 0.0;         ///< Service::Solve or the mutation call.
  double compile_us = 0.0;     ///< Service::Compile.
  bool compile_cold = false;   ///< First compile of its query text.
  double engine_us = 0.0;      ///< IncrementalSolver::Solve.
  double flush_us = 0.0;       ///< FlushPending before it (0 if none).
  cqa::SolveReport layers;     ///< The layers path's report.
};

struct Accumulated {
  std::vector<Replayed> requests;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  void Fail(const std::string& message) {
    ++failed;
    if (failures.size() < 8) failures.push_back(message);
  }
};

/// Replays `ops` through the server path and the layers path.
void Replay(const Workload& workload, cqa::Service& service, Layers& layers,
            Tracer& tracer, const std::vector<Op>& ops, std::size_t first_id,
            const std::vector<SolveCounts>& wire,
            std::map<std::string, bool>* compiled, Accumulated* out) {
  server::FrameReader server_frames;
  server::FrameReader client_frames;
  std::size_t solve_index = 0;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    const std::size_t id = first_id + i;
    Replayed r;
    r.op = op;
    tracer.SetRequest(static_cast<std::uint32_t>(id));
    tracer.Begin(kRequest);

    std::string frame;
    std::string payload;
    server::Request decoded;
    r.codec_us += tracer.Time(kEncodeRequest, [&] {
      frame = server::Frame(server::EncodeRequest(RequestFor(workload, op, id + 1)));
    });
    r.codec_us += tracer.Time(kFrameRead, [&] {
      server_frames.Feed(frame);
      CQA_CHECK(server_frames.Next(&payload) == server::FrameReader::Result::kFrame);
    });
    r.codec_us += tracer.Time(kDecodeRequest, [&] {
      CQA_CHECK(server::DecodeRequest(payload, &decoded).ok());
    });

    server::Response resp;
    resp.request_id = decoded.request_id;
    cqa::Status status = cqa::Status::Ok();
    if (op.kind != Op::Kind::kSolve) {
      r.api_us = tracer.Time(kApiMutate, [&] {
        status = decoded.mutation_kind == server::MutationKind::kInsert
                     ? service.InsertFacts(decoded.db_name, decoded.mutation)
                     : service.DeleteFacts(decoded.db_name, decoded.mutation);
      });
      resp.mutated = status.ok();
    } else {
      cqa::CompileOptions copts;
      copts.forced_backend = decoded.forced_backend;
      copts.allow_unresolved = decoded.allow_unresolved;
      r.compile_cold = compiled->emplace(decoded.query_text + '\x1f' +
                                            decoded.forced_backend,
                                        true)
                           .second;
      std::optional<cqa::StatusOr<cqa::CompiledQuery>> q;
      r.compile_us = tracer.Time(kApiCompile, [&] {
        q.emplace(service.Compile(decoded.query_text, copts));
      });
      CQA_CHECK(q->ok());
      std::optional<cqa::StatusOr<cqa::SolveReport>> solved;
      r.api_us = tracer.Time(kApiSolve, [&] {
        solved.emplace(service.Solve(**q, decoded.db_name, decoded.want_witness));
      });
      cqa::StatusOr<cqa::SolveReport>& report = *solved;
      status = report.status();
      if (report.ok()) {
        resp.certain = report->certain;
        resp.backend_name = report->backend_name;
        resp.num_facts = report->num_facts;
        resp.num_blocks = report->num_blocks;
        resp.components_total = report->components_total;
        resp.components_cached = report->components_cached;
        if (decoded.want_witness && report->named_witness.has_value()) {
          resp.has_witness = true;
          resp.witness = *report->named_witness;
        }
      }
    }
    if (!status.ok()) {
      resp.code = status.code();
      resp.message = status.message();
    }
    r.codec_us += tracer.Time(kEncodeResponse, [&] {
      frame = server::Frame(server::EncodeResponse(resp));
    });
    server::Response received;
    r.codec_us += tracer.Time(kDecodeResponse, [&] {
      client_frames.Feed(frame);
      CQA_CHECK(client_frames.Next(&payload) == server::FrameReader::Result::kFrame);
      CQA_CHECK(server::DecodeResponse(payload, &received).ok());
    });

    tracer.Begin(kLayers);
    if (op.kind == Op::Kind::kSolve) {
      r.layers = layers.Solve(op, &r.flush_us, &r.engine_us);
    } else {
      layers.Mutate(op);
    }
    tracer.End();
    tracer.End();  // kRequest

    // Every answer must agree: expected, wire, Service, layers.
    std::string where =
        workload.db_names()[op.db] + " request " + std::to_string(id);
    if (received.code != cqa::StatusCode::kOk) {
      out->Fail("replayed status " + std::string(cqa::ToString(received.code)) +
                " on " + where);
    } else if (op.kind == Op::Kind::kSolve) {
      SolveCounts api{received.certain, received.components_total,
                      received.components_cached};
      SolveCounts mine{r.layers.certain, r.layers.components_total,
                       r.layers.components_cached};
      if (received.certain != op.expect_certain) {
        out->Fail("replayed wrong verdict on " + where);
      } else if (!(api == mine)) {
        out->Fail("layers and Service disagree on " + where);
      } else if (solve_index < wire.size() && !(wire[solve_index] == api)) {
        out->Fail("wire and replay disagree on " + where);
      } else if (received.has_witness) {
        const Database* db = workload.StateDatabase(op.db, op.state);
        if (db == nullptr ||
            !WitnessHolds(workload.queries()[op.query].text, *db,
                          received.witness)) {
          out->Fail("replayed witness fails on " + where);
        }
      }
      ++solve_index;
    } else if (!received.mutated) {
      out->Fail("replayed mutation not applied on " + where);
    }
    out->requests.push_back(std::move(r));
  }
  if (solve_index != wire.size()) {
    out->Fail("wire and replay saw different solve counts");
  }
}

}  // namespace

RunResult RunTraced(const RunConfig& config) {
  RunResult result;

  // 1. The untraced wire prefix, for the end-to-end median and the
  //    per-request counts the replay must reproduce.
  std::unique_ptr<Workload> wire_workload =
      MakeWorkload(config.workload, config.seed);
  wire_workload->PlantWrongVerdict(config.plant_wrong_verdict);
  WireStats wire = RunWirePhase(*wire_workload, config.work_dir,
                                /*seconds=*/0.0, /*min_rounds=*/1);
  const std::vector<double>& wire_solves = wire.rounds.front().solve_micros;
  double wire_solve_p50 = Percentile(wire_solves, 0.5);

  // 2. The same stream, regenerated from the seed.
  std::unique_ptr<Workload> workload = MakeWorkload(config.workload, config.seed);
  workload->PlantWrongVerdict(config.plant_wrong_verdict);
  const std::string api_dir = config.work_dir + "/api-data";
  const std::string layers_dir = config.work_dir + "/layers-data";
  fs::remove_all(api_dir);
  fs::remove_all(layers_dir);
  if (workload->durable()) {
    workload->WriteDurableState(api_dir);
    fs::copy(api_dir, layers_dir, fs::copy_options::recursive);
  }
  std::vector<Op> ops = workload->SetupOps();
  const std::size_t setup_ops = ops.size();
  for (std::size_t i = 0; i < workload->RoundOps(); ++i) {
    ops.push_back(workload->Next());
  }

  // 3. Install both paths, then replay.
  Tracer tracer;
  LayerCounters counters;
  cqa::ServiceOptions options = workload->Options(api_dir);
  cqa::Service service(options);
  Layers layers(*workload, workload->Options(layers_dir), &tracer, &counters);
  std::vector<std::pair<std::string, Database>> fresh =
      workload->FreshDatabases();
  for (std::uint32_t i = 0; i < fresh.size(); ++i) {
    layers.Register(i, fresh[i].second);
    tracer.Time(kApiRegister, [&] {
      CQA_CHECK(service.RegisterDatabase(fresh[i].first,
                                         std::move(fresh[i].second)).ok());
    });
  }
  if (workload->durable()) {
    for (std::uint32_t i = 0; i < workload->db_names().size(); ++i) {
      const std::string& name = workload->db_names()[i];
      tracer.Time(kApiRegister,
                  [&] { CQA_CHECK(service.RecoverDatabase(name).ok()); });
      // The Service's directory per database: data_dir/<escaped name>.
      layers.Recover(i, layers_dir + "/" + name);
    }
  }
  std::vector<Op> setup(ops.begin(), ops.begin() + setup_ops);
  Accumulated acc;
  // The set-up solves first, so the SAT deltas below cover the traffic.
  std::map<std::string, bool> compiled;
  Replay(*workload, service, layers, tracer, setup, 0,
         std::vector<SolveCounts>(wire.solve_counts.begin(),
                                  wire.solve_counts.begin() +
                                      std::min(setup.size(),
                                               wire.solve_counts.size())),
         &compiled, &acc);
  cqa::CdclStats sat_before = layers.SatStats();
  std::uint64_t compactions_before = layers.Compactions();
  std::vector<Op> traffic(ops.begin() + setup_ops, ops.end());
  std::vector<SolveCounts> wire_traffic(
      wire.solve_counts.begin() +
          std::min(setup.size(), wire.solve_counts.size()),
      wire.solve_counts.end());
  Accumulated traffic_acc;
  Replay(*workload, service, layers, tracer, traffic, setup_ops, wire_traffic,
         &compiled, &traffic_acc);
  cqa::CdclStats sat_after = layers.SatStats();

  // The Service's own counters must match the layers path's.
  cqa::ServiceStats service_stats = service.Stats();
  cqa::CdclStats service_sat;
  std::uint64_t service_compactions = 0;
  std::uint64_t service_snapshots = 0;
  for (const auto& d : service_stats.databases) {
    service_sat += d.sat;
    service_compactions += d.compactions;
    service_snapshots += d.snapshots;
  }
  if (service_sat.conflicts != sat_after.conflicts ||
      service_sat.solves != sat_after.solves ||
      service_compactions != layers.Compactions() ||
      service_snapshots != counters.snapshots) {
    acc.Fail("Service::Stats() disagrees with the layers path's counters");
  }

  // -- Per-layer metrics over the traffic requests ----------------------
  std::vector<double> codec, api_solve, api_mutate, compile_hit, compile_cold,
      engine_solve, flush, self, coverage;
  double scanned = 0;
  double resolved = 0;
  std::uint64_t solves = 0;
  for (const Replayed& r : acc.requests) {
    if (r.compile_cold) compile_cold.push_back(r.compile_us / 1000.0);
  }
  for (const Replayed& r : traffic_acc.requests) {
    codec.push_back(r.codec_us);
    if (r.compile_cold) compile_cold.push_back(r.compile_us / 1000.0);
    if (r.op.kind != Op::Kind::kSolve) {
      api_mutate.push_back(r.api_us);
      continue;
    }
    ++solves;
    api_solve.push_back(r.api_us);
    if (!r.compile_cold) compile_hit.push_back(r.compile_us);
    engine_solve.push_back(r.engine_us);
    if (r.flush_us > 0) flush.push_back(r.flush_us);
    self.push_back(r.api_us - r.engine_us - r.flush_us);
    coverage.push_back(r.codec_us + r.compile_us + r.api_us);
    scanned += static_cast<double>(r.layers.components_total);
    resolved += static_cast<double>(r.layers.components_resolved);
  }
  std::vector<double> apply, append, compact, snapshot, prepare, recover;
  for (const Span& s : tracer.spans()) {
    switch (s.name) {
      case kDataApply: apply.push_back(s.micros()); break;
      case kStoreAppend: append.push_back(s.micros()); break;
      case kDataCompact: compact.push_back(s.micros() / 1000.0); break;
      case kStoreSnapshot: snapshot.push_back(s.micros() / 1000.0); break;
      case kDataPrepare: prepare.push_back(s.micros() / 1000.0); break;
      case kStoreRecover: recover.push_back(s.micros() / 1000.0); break;
      default: break;
    }
  }
  auto mean = [](const std::vector<double>& v) {
    return v.empty() ? 0.0
                     : std::accumulate(v.begin(), v.end(), 0.0) /
                           static_cast<double>(v.size());
  };
  auto sum = [](const std::vector<double>& v) {
    return std::accumulate(v.begin(), v.end(), 0.0);
  };
  auto per_solve = [&](std::uint64_t delta) {
    return solves == 0 ? 0.0
                       : static_cast<double>(delta) / static_cast<double>(solves);
  };
  cqa::CacheCounters verdicts = layers.VerdictCounters();
  double lookups = static_cast<double>(verdicts.hits + verdicts.misses);
  double api_solve_p50 = Percentile(api_solve, 0.5);
  std::uint64_t sat_solves = sat_after.solves - sat_before.solves;

  auto add = [&](const std::string& name, double value, const std::string& unit,
                 std::size_t samples) {
    result.metrics.push_back({name, value, unit, samples});
  };
  add("server.codec_us", Percentile(codec, 0.5), "us", codec.size());
  add("server.overhead_us", wire_solve_p50 - api_solve_p50, "us",
      wire_solves.size());
  add("api.solve_us", api_solve_p50, "us", api_solve.size());
  add("api.mutate_us", Percentile(api_mutate, 0.5), "us", api_mutate.size());
  add("api.self_us", Percentile(self, 0.5), "us", self.size());
  add("api.compile_hit_us", Percentile(compile_hit, 0.5), "us",
      compile_hit.size());
  add("classify.compile_ms", mean(compile_cold), "ms", compile_cold.size());
  add("engine.solve_us", Percentile(engine_solve, 0.5), "us",
      engine_solve.size());
  add("engine.solve_p90_us", Percentile(engine_solve, 0.9), "us",
      engine_solve.size());
  add("engine.flush_us", Percentile(flush, 0.5), "us", flush.size());
  add("engine.components_scanned", solves ? scanned / solves : 0.0, "count",
      solves);
  add("engine.components_resolved", solves ? resolved / solves : 0.0, "count",
      solves);
  add("engine.resolve_ratio", scanned > 0 ? resolved / scanned : 0.0, "ratio",
      solves);
  add("engine.verdict_hit_ratio",
      lookups > 0 ? static_cast<double>(verdicts.hits) / lookups : 0.0,
      "ratio", static_cast<std::size_t>(lookups));
  add("engine.evictions", static_cast<double>(verdicts.evictions), "count", 1);
  add("data.apply_us", Percentile(apply, 0.5), "us", apply.size());
  add("data.compact_ms", mean(compact), "ms", compact.size());
  add("data.compactions",
      static_cast<double>(layers.Compactions() - compactions_before), "count",
      1);
  add("data.prepare_ms", sum(prepare), "ms", prepare.size());
  add("data.interned_elements", static_cast<double>(layers.InternedElements()),
      "count", 1);
  add("store.append_us", Percentile(append, 0.5), "us", append.size());
  add("store.snapshot_ms", mean(snapshot), "ms", snapshot.size());
  add("store.snapshots", static_cast<double>(counters.snapshots), "count", 1);
  add("store.bytes_per_user_byte",
      counters.user_bytes == 0
          ? 0.0
          : static_cast<double>(counters.wal_bytes + counters.snapshot_bytes) /
                static_cast<double>(counters.user_bytes),
      "ratio", counters.user_bytes);
  add("store.recover_ms", sum(recover), "ms", recover.size());
  add("sat.conflicts_per_solve", per_solve(sat_after.conflicts - sat_before.conflicts),
      "count", solves);
  add("sat.decisions_per_solve", per_solve(sat_after.decisions - sat_before.decisions),
      "count", solves);
  add("sat.warm_ratio",
      sat_solves == 0 ? 0.0
                      : static_cast<double>(sat_after.warm_solves -
                                            sat_before.warm_solves) /
                            static_cast<double>(sat_solves),
      "ratio", sat_solves);
  add("sat.clauses_retracted_per_solve",
      per_solve(sat_after.clauses_retracted - sat_before.clauses_retracted),
      "count", solves);
  add("sat.learned_kept", static_cast<double>(sat_after.learned_kept), "count",
      1);
  add("trace.span_coverage",
      wire_solve_p50 > 0 ? Percentile(coverage, 0.5) / wire_solve_p50 : 0.0,
      "ratio", coverage.size());

  const std::string spans_path =
      config.work_dir + "/spans-" + config.workload + "-" +
      std::to_string(config.seed) + ".tsv";
  tracer.Write(spans_path);

  result.attempted = wire.attempted + acc.requests.size() +
                     traffic_acc.requests.size();
  result.failed = wire.failed + acc.failed + traffic_acc.failed;
  result.correct = result.failed == 0;
  char line[256];
  std::snprintf(line, sizeof(line),
                "wire prefix: %zu solves, solve_p50_us %.1f; replayed %zu "
                "requests, %zu spans -> %s",
                wire_solves.size(), wire_solve_p50,
                acc.requests.size() + traffic_acc.requests.size(),
                tracer.spans().size(), spans_path.c_str());
  result.notes.push_back(line);
  for (const std::string& f : wire.failures) result.notes.push_back("FAILED: " + f);
  for (const std::string& f : acc.failures) result.notes.push_back("FAILED: " + f);
  for (const std::string& f : traffic_acc.failures) {
    result.notes.push_back("FAILED: " + f);
  }
  fs::remove_all(api_dir);
  fs::remove_all(layers_dir);
  return result;
}

}  // namespace cqabench
