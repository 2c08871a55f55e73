// perfbench: the measuring half of the repository benchmark.
//
//   perfbench --workload <cyl_aa_device|aorta_resilient|serve_mix>
//             --seed N --seconds S --trace 0|1 [--smoke 1]
//             --scratch DIR --out report.json [--spans spans.jsonl]
//
// Writes the raw report (samples, exact counters, checks, environment)
// as one JSON object, and in trace mode the spans as JSON lines.
// perfbench/run.py builds this binary, runs it and derives the metrics.

#include <algorithm>
#include <cmath>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>

#include "harness.hpp"

namespace {

using perfbench::Report;

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (ch == '\n') {
      out += "\\n";
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream os;
  os << std::setprecision(17) << v;
  return os.str();
}

void write_numbers(std::ostream& os, const std::vector<double>& values) {
  os << "[";
  for (std::size_t i = 0; i < values.size(); ++i)
    os << (i ? ", " : "") << number(values[i]);
  os << "]";
}

void write_report(const Report& r, std::ostream& os) {
  os << "{\n  \"env\": {";
  bool first = true;
  for (const auto& [k, v] : r.env) {
    os << (first ? "" : ", ") << quoted(k) << ": " << quoted(v);
    first = false;
  }
  for (const auto& [k, v] : r.env_num) {
    os << (first ? "" : ", ") << quoted(k) << ": " << number(v);
    first = false;
  }
  os << "},\n  \"setup_s\": ";
  write_numbers(os, r.setup_s);
  os << ",\n  \"op_name\": " << quoted(r.op_name)
     << ",\n  \"tail_percentile\": " << number(r.tail_percentile)
     << ",\n  \"op_ms\": ";
  write_numbers(os, r.op_ms);
  os << ",\n  \"op_end_s\": ";
  write_numbers(os, r.op_end_s);
  os << ",\n  \"op_work\": ";
  write_numbers(os, r.op_work);
  os << ",\n  \"window_s\": " << number(r.window_s)
     << ",\n  \"work_items\": " << number(r.work_items)
     << ",\n  \"work_unit\": " << quoted(r.work_unit)
     << ",\n  \"traced_window_s\": " << number(r.traced_window_s)
     << ",\n  \"traced_work_items\": " << number(r.traced_work_items)
     << ",\n  \"peak_rss_mb\": " << number(r.peak_rss_mb)
     << ",\n  \"attempted\": " << r.attempted
     << ",\n  \"failed\": " << r.failed << ",\n  \"checks\": [";
  for (std::size_t i = 0; i < r.checks.size(); ++i) {
    const auto& c = r.checks[i];
    os << (i ? ",\n    " : "\n    ") << "{\"name\": " << quoted(c.name)
       << ", \"ok\": " << (c.ok ? "true" : "false")
       << ", \"detail\": " << quoted(c.detail) << "}";
  }
  os << "],\n  \"layer\": {";
  first = true;
  for (const auto& [k, v] : r.layer) {
    os << (first ? "\n    " : ",\n    ") << quoted(k) << ": " << number(v);
    first = false;
  }
  os << "}\n}\n";
}

int usage() {
  std::cerr << "usage: perfbench --workload W --seed N --seconds S "
               "--trace 0|1 [--smoke 0|1] --scratch DIR --out FILE "
               "[--spans FILE]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  std::string out, spans;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") args.workload = value;
    else if (key == "--seed") args.seed = std::stoull(value);
    else if (key == "--seconds") args.seconds = std::stod(value);
    else if (key == "--trace") args.trace = value == "1";
    else if (key == "--smoke") args.smoke = value == "1";
    else if (key == "--scratch") args.scratch_dir = value;
    else if (key == "--out") out = value;
    else if (key == "--spans") spans = value;
    else return usage();
  }
  if (args.workload.empty() || out.empty() || args.scratch_dir.empty() ||
      !(args.seconds > 0.0))
    return usage();

  Report report;
  perfbench::stamp_environment(report, args);
  if (report.env["optimized"] != "yes") {
    std::cerr << "perfbench: refusing to measure a non-optimised build ("
              << report.env["build_type"] << ")\n";
    return 3;
  }
  std::filesystem::create_directories(args.scratch_dir);
  perfbench::Tracer::instance().set_enabled(false);

  int rc = 0;
  try {
    if (args.workload == "cyl_aa_device") rc = perfbench::run_cyl(args, report);
    else if (args.workload == "aorta_resilient")
      rc = perfbench::run_aorta(args, report);
    else if (args.workload == "serve_mix")
      rc = perfbench::run_serve_mix(args, report);
    else return usage();
  } catch (const std::exception& e) {
    // A solver fault or any other exception is a failed operation; the
    // report still goes out so the failure is counted, not hidden.
    report.check("no_exception", false, e.what());
    rc = 1;
  }

  if (args.trace && rc == 0) {
    // host.triad_gbs: each array at least 4x the last-level cache, so the
    // triad streams from memory.  The roofline every arch_eff divides by.
    const std::int64_t llc = perfbench::llc_bytes();
    const std::int64_t bytes =
        args.smoke ? (std::int64_t{16} << 20)
                   : std::max<std::int64_t>(4 * llc, std::int64_t{256} << 20);
    report.layer["host.triad_gbs"] = perfbench::triad_gbs(bytes, 3);
    report.env_num["triad_array_bytes"] = static_cast<double>(bytes);
  }

  std::ofstream os(out);
  write_report(report, os);
  if (!spans.empty()) perfbench::Tracer::instance().write(spans);
  return rc;
}
