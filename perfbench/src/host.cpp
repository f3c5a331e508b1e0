// Host fingerprint: numbers from two machines, compilers or builds are
// not comparable, so every result carries the facts that tell them
// apart.
#include <unistd.h>

#include <fstream>
#include <string>

#include "common.h"
#include "sweep/bench_json.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string v = line.substr(colon + 1);
        while (!v.empty() && v.front() == ' ') v.erase(v.begin());
        return v;
      }
    }
  }
  return "unknown";
}

}  // namespace

HostFingerprint host_fingerprint(const Options& opt) {
  return {cpu_model(), static_cast<std::int64_t>(sysconf(_SC_NPROCESSORS_ONLN)),
          PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE, opt.commit};
}

void write_host_fingerprint(const HostFingerprint& h,
                            saf::sweep::JsonWriter* w) {
  w->begin_object();
  w->key("cpu").value(h.cpu);
  w->key("nproc").value(h.nproc);
  w->key("compiler").value(h.compiler);
  w->key("build_type").value(h.build_type);
  w->key("commit").value(h.commit);
  w->end_object();
}

}  // namespace perfbench
