#include "api/report.h"

#include <cstdio>

namespace cqa {

std::string SolveReport::Summary() const {
  char buffer[320];
  int written = std::snprintf(
      buffer, sizeof(buffer),
      "certain=%s class=[%s] algorithm=[%s] backend=%s "
      "facts=%llu blocks=%llu solve=%.3fms%s",
      certain ? "yes" : "no", ToString(query_class).c_str(),
      ToString(algorithm).c_str(), backend_name.c_str(),
      static_cast<unsigned long long>(num_facts),
      static_cast<unsigned long long>(num_blocks),
      timings.solve_seconds * 1e3,
      witness.has_value() ? " witness=present" : "");
  if (incremental && written > 0 &&
      static_cast<std::size_t>(written) < sizeof(buffer)) {
    std::snprintf(buffer + written, sizeof(buffer) - written,
                  " components=%llu resolved=%llu cached=%llu evicted=%llu",
                  static_cast<unsigned long long>(components_total),
                  static_cast<unsigned long long>(components_resolved),
                  static_cast<unsigned long long>(components_cached),
                  static_cast<unsigned long long>(cache_evictions));
  }
  return buffer;
}

SolveReport ReportHeader(const Classification& classification,
                         const CertainBackend& backend,
                         const PreparedDatabase& pdb) {
  SolveReport report;
  report.query_class = classification.query_class;
  report.complexity = classification.complexity;
  report.algorithm = backend.algorithm();
  report.backend_name = std::string(backend.name());
  report.num_facts = pdb.db().NumAliveFacts();
  report.num_blocks = pdb.blocks().size();
  return report;
}

}  // namespace cqa
