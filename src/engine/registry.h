// Backend registry: name -> factory for certain-answer backends.
//
// The global registry comes pre-loaded with the six built-in backends:
//   trivial         per-block pattern scan (exact on trivial queries)
//   cert2           Cert_2 greedy fixpoint (Theorem 6.1 classes)
//   certk           Cert_k at the configured practical k (Theorem 8.1)
//   certk+matching  Cert_k OR NOT matching (Theorem 10.5)
//   exhaustive      backtracking falsifier search (exact, exponential)
//   sat             falsifier-existence CNF encoding solved by DPLL
//                   (exact, exponential; cross-checks `exhaustive`)
// Custom backends (approximate solvers, remote engines, ...) can be
// registered under new names without touching the dispatcher.

#ifndef CQA_ENGINE_REGISTRY_H_
#define CQA_ENGINE_REGISTRY_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "engine/backend.h"

namespace cqa {

class BackendRegistry {
 public:
  using Factory =
      std::function<std::unique_ptr<CertainBackend>(const BackendOptions&)>;

  /// Registers a factory; overwrites any previous binding of `name`.
  void Register(std::string_view name, Factory factory);

  /// Instantiates a backend, or nullptr if the name is unknown.
  std::unique_ptr<CertainBackend> Create(
      std::string_view name, const BackendOptions& options = {}) const;

  /// Registered names in lexicographic order.
  std::vector<std::string> Names() const;

  /// The process-wide registry, pre-loaded with the built-in backends.
  static BackendRegistry& Global();

 private:
  std::map<std::string, Factory, std::less<>> factories_;
};

/// Registers the six built-in backends into `registry` (idempotent).
void RegisterBuiltinBackends(BackendRegistry* registry);

}  // namespace cqa

#endif  // CQA_ENGINE_REGISTRY_H_
