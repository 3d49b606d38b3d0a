// repobench_runner — the repo benchmark's measuring program (see README.md).
//
//   repobench_runner --workload sentences|documents_live|train --seed N
//                    --seconds S --trace 0|1 --bin_dir DIR --work_root DIR
//   repobench_runner --setup_only DATA_DIR   (one train set-up, timed)
//   repobench_runner --eval_only MODEL --data DATA_DIR   (one timed dev eval)
//
// --bin_dir holds the shipped bootleg_cli and bootleg_serve. Prints context
// lines, then one JSON result line:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// Exits 0 only when every output matched its oracle.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>

#include "serve/json.h"
#include "workloads.h"

namespace {

using bootleg::serve::Json;

int Usage() {
  std::fprintf(stderr,
               "usage: repobench_runner --workload sentences|documents_live|"
               "train --seed N --seconds S --trace 0|1 --bin_dir DIR "
               "--work_root DIR\n"
               "       repobench_runner --setup_only DATA_DIR\n"
               "       repobench_runner --eval_only MODEL --data DATA_DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return Usage();
    flags[key.substr(2)] = argv[i + 1];
  }
  if (flags.count("setup_only") != 0) {
    return repobench::RunSetupOnly(flags["setup_only"]);
  }
  if (flags.count("eval_only") != 0) {
    return repobench::RunEvalOnly(flags["data"], flags["eval_only"]);
  }
  repobench::Options options;
  options.workload = flags["workload"];
  options.seed = std::strtoull(flags["seed"].c_str(), nullptr, 10);
  options.seconds = std::atof(flags["seconds"].c_str());
  options.trace = flags["trace"] == "1";
  options.bin_dir = flags["bin_dir"];
  options.self_bin = std::filesystem::read_symlink("/proc/self/exe").string();
  const std::string work_root = flags["work_root"];
  if (options.seconds <= 0 || work_root.empty() || options.bin_dir.empty()) {
    return Usage();
  }

  // A private work dir per run: nothing shared with concurrent or earlier
  // runs, removed on exit.
  std::filesystem::create_directories(work_root);
  std::string tmpl = work_root + "/run_XXXXXX";
  if (mkdtemp(tmpl.data()) == nullptr) {
    std::fprintf(stderr, "error: cannot create a work dir under %s\n",
                 work_root.c_str());
    return 1;
  }
  options.work_dir = tmpl;

  repobench::Report report;
  if (options.workload == "sentences" || options.workload == "documents_live") {
    report = repobench::RunServing(options);
  } else if (options.workload == "train") {
    report = repobench::RunTrain(options);
  } else {
    std::fprintf(stderr, "error: unknown workload \"%s\"\n",
                 options.workload.c_str());
    std::filesystem::remove_all(options.work_dir);
    return 2;
  }
  std::error_code ec;
  std::filesystem::remove_all(options.work_dir, ec);

  for (const std::string& line : report.notes) std::printf("# %s\n", line.c_str());
  if (!report.error.empty()) {
    std::fprintf(stderr, "error: %s\n", report.error.c_str());
    return 1;
  }
  std::string out = "{\"correct\": ";
  out += report.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(report.attempted);
  out += ", \"failed\": " + std::to_string(report.failed);
  out += ", \"metrics\": {";
  const auto& defs = options.trace ? repobench::LayerMetrics()
                                   : repobench::EndToEndMetrics();
  for (size_t i = 0; i < defs.size(); ++i) {
    const auto it = report.values.find(defs[i].name);
    if (it == report.values.end() && !options.trace) {
      std::fprintf(stderr, "error: metric %s was not measured\n", defs[i].name);
      return 1;
    }
    // A layer this workload does not exercise reads 0.
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  it == report.values.end() ? 0.0 : it->second);
    // Values keep all 17 digits (Json::Dump rounds numbers to 6).
    out += (i == 0 ? "" : ", ") + Json::Str(defs[i].name).Dump() +
           ": {\"value\": " + value +
           ", \"unit\": " + Json::Str(defs[i].unit).Dump() + "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  return report.correct && report.failed == 0 ? 0 : 1;
}
