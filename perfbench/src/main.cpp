// perfbench: the repository benchmark's measuring program.
//
//   perfbench --workload <sw_churn|region> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-out <file>]
//
// One client in a closed loop on one worker thread. With --trace 0 it
// measures the end-to-end metrics, with --trace 1 the per-layer metrics
// derived from spans. The last stdout line holds the check counts and the
// measured values by name; run.py turns it into the result object with
// the units BENCHMARK.json declares. See NOTES.md beside this directory's
// build file.

#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "common.hpp"
#include "trace.hpp"

namespace {

/// These environment variables change the program under test; a result
/// measured with any of them set is not comparable.
constexpr const char* kProgramGates[] = {"SF_FLOW_CACHE", "SF_GUARD",
                                         "SF_DPU", "SF_BATCH"};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <sw_churn|region> "
               "--seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]\n");
  return 2;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// The result line: checked-output counts and every measured metric by
/// name (run.py attaches the units BENCHMARK.json declares).
void print_result(const pb::Outcome& out) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"values\": {",
              out.failed == 0 && out.attempted > 0 ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  const char* sep = "";
  for (const auto& [name, value] : out.metrics) {
    std::printf("%s\"%s\": %.17g", sep, name.c_str(), value);
    sep = ", ";
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  pb::Options options;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return usage();
      }
      options.trace = value[0] == '1';
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else {
      return usage();
    }
    if (end != nullptr && *end != '\0') return usage();
  }
  if (argc % 2 != 1 || !have_workload || !(options.seconds > 0)) {
    return usage();
  }
  for (const char* gate : kProgramGates) {
    if (std::getenv(gate) != nullptr) {
      std::fprintf(stderr,
                   "perfbench: refusing to run with %s set; it changes the "
                   "program under test\n",
                   gate);
      return 3;
    }
  }

  if (!options.trace) {
    // glibc adapts its mmap threshold to the frees it has seen, so the
    // first set-ups of a process would get fresh mmapped blocks and the
    // later ones the reused heap (region: 2.3-2.6 s against 1.6-1.8 s in
    // one process). With fixed thresholds every set-up after the first
    // reuses the heap the previous one freed. Traced runs set up once and
    // measure resident growth, which a retained heap would hide, so they
    // keep glibc's defaults.
    mallopt(M_MMAP_THRESHOLD, 1 << 30);
    mallopt(M_TRIM_THRESHOLD, 1 << 30);
  }

  pb::Outcome out;
  try {
    if (options.workload == "sw_churn") {
      out = pb::run_churn(options);
    } else if (options.workload == "region") {
      out = pb::run_region(options);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  if (options.trace && !options.trace_out.empty() &&
      !pb::Tracer::get().write(options.trace_out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 options.trace_out.c_str());
    return 1;
  }

  // Run facts: the digests must match between runs of one seed, traced or
  // not; `calls` is the sample count behind the call percentiles.
  std::printf("{\"run\": {\"workload\": \"%s\", \"seed\": %llu, "
              "\"trace\": %d, \"calls\": %zu, \"input_digest\": \"%s\", "
              "\"output_digest\": \"%s\", \"spans\": %zu",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              options.trace ? 1 : 0, out.calls,
              hex(out.inputs.value).c_str(), hex(out.outputs.value).c_str(),
              pb::Tracer::get().spans().size());
  for (const auto& [name, value] : out.info) {
    std::printf(", \"%s\": %.17g", name.c_str(), value);
  }
  std::printf("}}\n");
  print_result(out);
  return 0;
}
