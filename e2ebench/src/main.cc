// e2ebench: the end-to-end benchmark of RDF-TX.
//
//   e2ebench --workload <wiki-mixed|govtrack-analytics|live-ingest>
//            --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]
//
// Generates the workload's inputs from the seed, runs a fixed amount of
// work through the library's public API on one client thread, checks
// every answer against a reference computed apart from the program, and
// prints one JSON object as the last line of standard output:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1
// the per-layer ones from the traced run. Exit code 0 means the run
// finished (correct or not); anything else means it could not run.
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>

#include "common.h"

namespace e2e {

namespace {
const int64_t g_start_ns = NowNs();
}  // namespace

void Note(const char* what) {
  std::fprintf(stderr, "e2ebench: %7.2f s  %s\n",
               static_cast<double>(NowNs() - g_start_ns) / 1e9, what);
}

std::vector<Tracer::Totals> Tracer::Summarize() const {
  std::map<std::string, Totals> by_name;
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
  }
  for (size_t i = 0; i < spans_.size(); ++i) {
    Totals& t = by_name[spans_[i].name];
    t.name = spans_[i].name;
    ++t.count;
    const int64_t len = spans_[i].end_ns - spans_[i].start_ns;
    t.total_ns += len;
    t.self_ns += len - child_ns[i];
  }
  std::vector<Totals> out;
  for (auto& [name, t] : by_name) out.push_back(t);
  return out;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  f << "{\"spans\": [";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    f << (i ? ",\n" : "\n") << "{\"name\": \"" << s.name << "\", \"start_ns\": "
      << s.start_ns << ", \"end_ns\": " << s.end_ns << ", \"parent\": " << s.parent
      << ", \"request\": " << s.request << "}";
  }
  f << "],\n\"summary\": [";
  const auto totals = Summarize();
  for (size_t i = 0; i < totals.size(); ++i) {
    const Totals& t = totals[i];
    f << (i ? ",\n" : "\n") << "{\"name\": \"" << t.name << "\", \"count\": " << t.count
      << ", \"total_ns\": " << t.total_ns << ", \"self_ns\": " << t.self_ns << "}";
  }
  f << "]}\n";
  return static_cast<bool>(f);
}

}  // namespace e2e

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: e2ebench --workload <wiki-mixed|govtrack-analytics|"
               "live-ingest> --seed <n> --seconds <s> --trace <0|1> "
               "[--work-dir <dir>]\n");
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  e2e::RunOptions opt;
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      opt.workload = val;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::atoi(val.c_str());
    } else if (key == "--trace") {
      opt.trace = val == "1";
      have_trace = val == "0" || val == "1";
    } else if (key == "--work-dir") {
      opt.work_dir = val;
    } else {
      Usage();
      return 2;
    }
  }
  if (argc % 2 == 0 || opt.workload.empty() || opt.seconds < 1 || !have_trace) {
    Usage();
    return 2;
  }
  e2e::Outcome out;
  if (opt.workload == "wiki-mixed") {
    out = e2e::RunWikiMixed(opt);
  } else if (opt.workload == "govtrack-analytics") {
    out = e2e::RunGovtrackAnalytics(opt);
  } else if (opt.workload == "live-ingest") {
    out = e2e::RunLiveIngest(opt);
  } else {
    Usage();
    return 2;
  }
  if (!out.correct) {
    std::fprintf(stderr, "e2ebench: WRONG ANSWER: %s\n", out.first_error.c_str());
  }
  std::string json = std::string("{\"correct\": ") + (out.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(out.attempted) +
                     ", \"failed\": " + std::to_string(out.failed) + ", \"metrics\": {";
  for (size_t i = 0; i < out.metrics.size(); ++i) {
    const e2e::Metric& m = out.metrics[i];
    json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + JsonNumber(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
