#include "engine/registry.h"

namespace cqa {

void BackendRegistry::Register(std::string_view name, Factory factory) {
  factories_[std::string(name)] = std::move(factory);
}

std::unique_ptr<CertainBackend> BackendRegistry::Create(
    std::string_view name, const BackendOptions& options) const {
  auto it = factories_.find(name);
  if (it == factories_.end()) return nullptr;
  return it->second(options);
}

std::vector<std::string> BackendRegistry::Names() const {
  std::vector<std::string> names;
  names.reserve(factories_.size());
  for (const auto& [name, factory] : factories_) names.push_back(name);
  return names;
}

BackendRegistry& BackendRegistry::Global() {
  static BackendRegistry* registry = [] {
    auto* r = new BackendRegistry();
    RegisterBuiltinBackends(r);
    return r;
  }();
  return *registry;
}

std::string ToString(SolverAlgorithm a) {
  switch (a) {
    case SolverAlgorithm::kTrivialScan: return "trivial per-block scan";
    case SolverAlgorithm::kCert2: return "Cert_2 greedy fixpoint";
    case SolverAlgorithm::kCertK: return "Cert_k greedy fixpoint";
    case SolverAlgorithm::kCertKOrMatching:
      return "Cert_k OR NOT matching";
    case SolverAlgorithm::kExhaustive: return "exhaustive falsifier search";
    case SolverAlgorithm::kSat: return "falsifier CNF + DPLL";
  }
  return "?";
}

std::optional<SolverAlgorithm> SolverAlgorithmFromString(std::string_view s) {
  static constexpr SolverAlgorithm kAll[] = {
      SolverAlgorithm::kTrivialScan,     SolverAlgorithm::kCert2,
      SolverAlgorithm::kCertK,           SolverAlgorithm::kCertKOrMatching,
      SolverAlgorithm::kExhaustive,      SolverAlgorithm::kSat,
  };
  for (SolverAlgorithm a : kAll) {
    if (ToString(a) == s) return a;
  }
  return std::nullopt;
}

}  // namespace cqa
