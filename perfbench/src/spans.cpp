#include "spans.h"

namespace perfbench {

std::string SpansJsonl(std::string_view workload,
                       const std::vector<Span>& spans) {
  std::string out;
  for (const Span& s : spans) {
    out += "{\"workload\":\"" + std::string(workload) + "\",\"name\":\"" +
           std::string(s.name) + "\",\"id\":" + std::to_string(s.id) +
           ",\"parent\":" + std::to_string(s.parent) +
           ",\"request\":" + std::to_string(s.request) +
           ",\"start_ns\":" + std::to_string(s.start_ns) +
           ",\"end_ns\":" + std::to_string(s.end_ns) + "}\n";
  }
  return out;
}

}  // namespace perfbench
