// cqabench: end-to-end and per-layer benchmark of the CQA service.
//
//   cqabench --workload tenant_reads|churn_wide|sat_gadgets --seed N
//            --seconds S --trace 0|1 --work-dir DIR
//            [--plant-wrong-verdict K]
//
// --trace 0 runs rounds of the untraced wire workload for S seconds and
// prints the end-to-end metrics; --trace 1 runs one wire round and its
// traced in-process replay and prints the per-layer metrics. The last
// line of standard output is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "bench.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: cqabench --workload NAME --seed N --seconds S "
               "--trace 0|1 --work-dir DIR [--plant-wrong-verdict K]\n");
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  cqabench::RunConfig config;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      config.trace = value == "1";
    } else if (flag == "--work-dir") {
      config.work_dir = value;
    } else if (flag == "--plant-wrong-verdict") {
      config.plant_wrong_verdict = std::strtoull(value.c_str(), nullptr, 10);
    } else {
      Usage();
      return 2;
    }
  }
  bool known = false;
  for (const std::string& name : cqabench::WorkloadNames()) {
    known = known || name == config.workload;
  }
  if (!known || config.seconds <= 0 || config.work_dir.empty() ||
      argc % 2 == 0) {
    Usage();
    return 2;
  }
  std::filesystem::create_directories(config.work_dir);

  cqabench::RunResult result = config.trace ? cqabench::RunTraced(config)
                                            : cqabench::RunWire(config);

  std::printf("workload %s seed %llu trace %d\n", config.workload.c_str(),
              static_cast<unsigned long long>(config.seed),
              config.trace ? 1 : 0);
  for (const std::string& note : result.notes) std::printf("%s\n", note.c_str());
  for (const cqabench::Metric& m : result.metrics) {
    std::printf("%-34s %14.4f %-6s (n=%llu)\n", m.name.c_str(), m.value,
                m.unit.c_str(), static_cast<unsigned long long>(m.samples));
  }
  std::string json = "{\"correct\": ";
  json += result.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const cqabench::Metric& m = result.metrics[i];
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + JsonNumber(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return 0;
}
