#include "store/snapshot.h"

#include <utility>

#include "store/format.h"

namespace cqa {
namespace store {

namespace {

/// Caps that turn absurd counts into "garbage" before any loop runs.
/// Every count is *also* bounds-checked against the remaining bytes by
/// the reader; these just keep error messages honest.
constexpr std::uint32_t kMaxRelations = 1u << 20;
constexpr std::uint32_t kMaxArity = 1u << 16;

Status Corrupt(std::string message) {
  return Status(StatusCode::kCorruptedData, std::move(message));
}

/// Frames `body` as magic + crc + body.
std::string Frame(std::string_view magic, std::string body) {
  ByteWriter header;
  for (char c : magic) header.U8(static_cast<std::uint8_t>(c));
  header.U32(Crc32(body));
  std::string out = header.Take();
  out += body;
  return out;
}

/// Strips and verifies magic + crc; returns the body view, or an error
/// naming what failed.
StatusOr<std::string_view> Unframe(std::string_view magic,
                                   std::string_view bytes, const char* what) {
  if (bytes.size() < magic.size() + 4) {
    return Corrupt(std::string(what) + ": truncated header");
  }
  if (bytes.substr(0, magic.size()) != magic) {
    return Corrupt(std::string(what) + ": garbage header");
  }
  std::string_view body = bytes.substr(magic.size() + 4);
  ByteReader crc_reader(bytes.substr(magic.size(), 4));
  std::uint32_t crc = 0;
  crc_reader.U32(&crc);
  if (Crc32(body) != crc) {
    return Corrupt(std::string(what) + ": bad checksum");
  }
  return body;
}

}  // namespace

std::string EncodeSnapshot(const Database& db, std::uint64_t last_seq,
                           const MetaCounters& meta) {
  ByteWriter body;
  body.U64(last_seq);
  body.U64(meta.compactions);
  body.U64(meta.audits_run);
  body.U64(meta.audit_violations);

  const Schema& schema = db.schema();
  body.U32(static_cast<std::uint32_t>(schema.NumRelations()));
  for (RelationId r = 0; r < schema.NumRelations(); ++r) {
    const RelationSchema& rel = schema.Relation(r);
    body.Str(rel.name);
    body.U32(rel.arity);
    body.U32(rel.key_len);
  }

  const Interner& elements = db.elements();
  body.U32(static_cast<std::uint32_t>(elements.size()));
  for (ElementId e = 0; e < elements.size(); ++e) body.Str(elements.Name(e));

  const std::uint32_t nslots = static_cast<std::uint32_t>(db.NumFacts());
  body.U32(nslots);
  for (FactId f = 0; f < nslots; ++f) body.U32(db.fact(f).relation);
  for (FactId f = 0; f < nslots; ++f) body.U8(db.alive(f) ? 1 : 0);
  // The arena, span by span in slot order. Offsets are not stored: the
  // rebuild re-derives them densely (snapshots follow a Compact(), so
  // the source layout is already dense).
  std::uint64_t arena_len = 0;
  for (FactId f = 0; f < nslots; ++f) arena_len += db.fact(f).args.size();
  body.U64(arena_len);
  for (FactId f = 0; f < nslots; ++f) {
    for (ElementId e : db.fact(f).args) body.U32(e);
  }

  return Frame(kSnapshotMagic, body.Take());
}

StatusOr<DecodedSnapshot> DecodeSnapshot(std::string_view bytes) {
  StatusOr<std::string_view> body = Unframe(kSnapshotMagic, bytes, "snapshot");
  if (!body.ok()) return body.status();
  ByteReader reader(*body);

  std::uint64_t last_seq = 0;
  MetaCounters meta;
  if (!reader.U64(&last_seq) || !reader.U64(&meta.compactions) ||
      !reader.U64(&meta.audits_run) || !reader.U64(&meta.audit_violations)) {
    return Corrupt("snapshot: truncated meta");
  }

  // Schema. Schema::AddRelation CHECK-aborts on a duplicate name or a
  // bad signature, so both are validated here first.
  std::uint32_t nrelations = 0;
  if (!reader.U32(&nrelations) || nrelations > kMaxRelations) {
    return Corrupt("snapshot: bad relation count");
  }
  Schema schema;
  std::vector<std::uint32_t> arity_of;
  for (std::uint32_t r = 0; r < nrelations; ++r) {
    std::string name;
    std::uint32_t arity = 0;
    std::uint32_t key_len = 0;
    if (!reader.Str(&name) || !reader.U32(&arity) || !reader.U32(&key_len)) {
      return Corrupt("snapshot: truncated relation");
    }
    if (arity == 0 || arity > kMaxArity || key_len > arity ||
        schema.Find(name) != Schema::kNotFound) {
      return Corrupt("snapshot: bad relation signature");
    }
    schema.AddRelation(name, arity, key_len);
    arity_of.push_back(arity);
  }

  DecodedSnapshot snap{Database(std::move(schema))};
  snap.last_seq = last_seq;
  snap.meta = meta;
  Database& db = snap.db;

  // Elements, in stored (== original insertion) order. Intern must hand
  // back exactly the sequential id; a duplicate name would not.
  std::uint32_t nelements = 0;
  if (!reader.U32(&nelements)) return Corrupt("snapshot: bad element count");
  for (std::uint32_t e = 0; e < nelements; ++e) {
    std::string name;
    if (!reader.Str(&name)) return Corrupt("snapshot: truncated element");
    if (db.elements().Intern(name) != e) {
      return Corrupt("snapshot: duplicate element");
    }
  }

  // Columns.
  std::uint32_t nslots = 0;
  if (!reader.U32(&nslots)) return Corrupt("snapshot: bad slot count");
  if (reader.remaining() / 4 < nslots) {
    return Corrupt("snapshot: truncated relation column");
  }
  std::vector<RelationId> relation_col(nslots);
  std::uint64_t expected_arena = 0;
  for (std::uint32_t f = 0; f < nslots; ++f) {
    if (!reader.U32(&relation_col[f])) {
      return Corrupt("snapshot: truncated relation column");
    }
    if (relation_col[f] >= nrelations) {
      return Corrupt("snapshot: bad relation id");
    }
    expected_arena += arity_of[relation_col[f]];
  }
  std::vector<char> alive_col(nslots);
  for (std::uint32_t f = 0; f < nslots; ++f) {
    std::uint8_t a = 0;
    if (!reader.U8(&a)) return Corrupt("snapshot: truncated alive column");
    if (a > 1) return Corrupt("snapshot: bad alive flag");
    alive_col[f] = static_cast<char>(a);
  }
  std::uint64_t arena_len = 0;
  if (!reader.U64(&arena_len) || arena_len != expected_arena) {
    return Corrupt("snapshot: arena length mismatch");
  }
  if (reader.remaining() != arena_len * 4) {
    return Corrupt("snapshot: arena size mismatch");
  }

  // Rebuild through the public API. AddFact must assign exactly the
  // sequential slot id — anything else means the columns encode a state
  // no real database could have held (e.g. a duplicate alive fact).
  for (std::uint32_t f = 0; f < nslots; ++f) {
    std::vector<ElementId> args(arity_of[relation_col[f]]);
    for (ElementId& arg : args) {
      if (!reader.U32(&arg)) return Corrupt("snapshot: truncated arena");
      if (arg >= nelements) return Corrupt("snapshot: bad element id");
    }
    if (db.AddFact(relation_col[f], std::move(args)) != f) {
      return Corrupt("snapshot: duplicate fact");
    }
    if (!alive_col[f]) db.RemoveFact(f);
  }
  if (!reader.AtEnd()) return Corrupt("snapshot: trailing bytes");
  return StatusOr<DecodedSnapshot>(std::move(snap));
}

std::string EncodeVerdicts(const PersistedVerdictMap& verdicts) {
  ByteWriter body;
  body.U32(static_cast<std::uint32_t>(verdicts.size()));
  for (const auto& [key, list] : verdicts) {
    body.Str(key);
    body.U32(static_cast<std::uint32_t>(list.size()));
    for (const PersistedVerdict& v : list) {
      body.U64(v.fingerprint.sum);
      body.U64(v.fingerprint.xr);
      body.U64(v.fingerprint.count);
      body.U8(v.certain ? 1 : 0);
      body.U8(v.has_witness ? 1 : 0);
      body.U32(static_cast<std::uint32_t>(v.witness_facts.size()));
      for (const Fact& fact : v.witness_facts) {
        body.U32(fact.relation);
        body.U32(static_cast<std::uint32_t>(fact.args.size()));
        for (ElementId e : fact.args) body.U32(e);
      }
    }
  }
  return Frame(kVerdictMagic, body.Take());
}

StatusOr<PersistedVerdictMap> DecodeVerdicts(std::string_view bytes,
                                             const Database& db) {
  StatusOr<std::string_view> body = Unframe(kVerdictMagic, bytes, "verdicts");
  if (!body.ok()) return body.status();
  ByteReader reader(*body);

  const std::uint32_t nrelations =
      static_cast<std::uint32_t>(db.schema().NumRelations());
  const std::uint32_t nelements =
      static_cast<std::uint32_t>(db.elements().size());

  PersistedVerdictMap out;
  std::uint32_t nsolvers = 0;
  if (!reader.U32(&nsolvers)) return Corrupt("verdicts: bad solver count");
  for (std::uint32_t s = 0; s < nsolvers; ++s) {
    std::string key;
    std::uint32_t nverdicts = 0;
    if (!reader.Str(&key) || !reader.U32(&nverdicts)) {
      return Corrupt("verdicts: truncated solver entry");
    }
    if (out.count(key) != 0) return Corrupt("verdicts: duplicate solver key");
    std::vector<PersistedVerdict>& list = out[key];
    for (std::uint32_t i = 0; i < nverdicts; ++i) {
      PersistedVerdict v;
      std::uint8_t certain = 0;
      std::uint8_t has_witness = 0;
      std::uint32_t nfacts = 0;
      if (!reader.U64(&v.fingerprint.sum) || !reader.U64(&v.fingerprint.xr) ||
          !reader.U64(&v.fingerprint.count) || !reader.U8(&certain) ||
          !reader.U8(&has_witness) || !reader.U32(&nfacts)) {
        return Corrupt("verdicts: truncated verdict");
      }
      if (certain > 1 || has_witness > 1) {
        return Corrupt("verdicts: bad verdict flags");
      }
      v.certain = certain != 0;
      v.has_witness = has_witness != 0;
      for (std::uint32_t f = 0; f < nfacts; ++f) {
        Fact fact;
        std::uint32_t nargs = 0;
        if (!reader.U32(&fact.relation) || !reader.U32(&nargs)) {
          return Corrupt("verdicts: truncated witness fact");
        }
        if (fact.relation >= nrelations ||
            nargs != db.schema().Relation(fact.relation).arity) {
          return Corrupt("verdicts: bad witness relation");
        }
        for (std::uint32_t a = 0; a < nargs; ++a) {
          ElementId e = 0;
          if (!reader.U32(&e)) return Corrupt("verdicts: truncated witness");
          if (e >= nelements) return Corrupt("verdicts: bad witness element");
          fact.args.push_back(e);
        }
        v.witness_facts.push_back(std::move(fact));
      }
      list.push_back(std::move(v));
    }
  }
  if (!reader.AtEnd()) return Corrupt("verdicts: trailing bytes");
  return out;
}

}  // namespace store
}  // namespace cqa
