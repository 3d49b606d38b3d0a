#ifndef REPOBENCH_WORKLOADS_H_
#define REPOBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace repobench {

struct Options {
  std::string workload;   // sentences | documents_live | train
  uint64_t seed = 1;
  double seconds = 10.0;  // measured time of one run
  bool trace = false;     // per-layer run instead of end-to-end
  std::string bin_dir;    // holds the shipped bootleg_cli and bootleg_serve
  std::string self_bin;   // this runner (re-run for train set-up processes)
  std::string work_dir;   // private scratch directory of this run
};

/// A reported metric's name and unit (the order of BENCHMARK.json).
struct MetricDef {
  const char* name;
  const char* unit;
};
/// Printed by every workload's end-to-end run (--trace 0).
const std::vector<MetricDef>& EndToEndMetrics();
/// Printed by every workload's traced run (--trace 1); a layer a workload
/// does not exercise reads 0.
const std::vector<MetricDef>& LayerMetrics();

/// What one run reports: the final JSON line's fields, plus context lines
/// (phase tallies, waterfalls, parameters) printed before it.
struct Report {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::map<std::string, double> values;  // metric name -> value
  std::vector<std::string> notes;
  /// Set when the run could not complete (setup failure, stall, lost
  /// connection): no result line is printed and the exit code is non-zero.
  std::string error;

  void Note(const std::string& line) { notes.push_back(line); }
  void Set(const std::string& name, double value) { values[name] = value; }
};

Report RunServing(const Options& options);
Report RunTrain(const Options& options);
/// One train set-up (dataset load, weak labels, examples, model) in this
/// process; prints its CPU and step times on one line. Returns the exit code.
int RunSetupOnly(const std::string& data_dir);
/// Dev evaluation at 3 threads of the model saved at `model_path`; prints
/// the per-sentence Predict p50 and the F1 on one line. Returns the exit code.
int RunEvalOnly(const std::string& data_dir, const std::string& model_path);

}  // namespace repobench

#endif  // REPOBENCH_WORKLOADS_H_
