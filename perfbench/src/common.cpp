#include "common.h"

#include <fstream>

namespace perfbench {

std::uint32_t SpanLog::intern(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<std::uint32_t>(i);
  }
  names_.push_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

void SpanLog::record(std::uint32_t name, std::uint64_t request,
                     std::int64_t startNs, std::int64_t endNs) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, request, startNs, endNs});
}

std::vector<double> SpanLog::durationsUs(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  std::uint32_t id = 0;
  while (id < names_.size() && names_[id] != name) ++id;
  if (id == names_.size()) return out;
  for (const auto& span : spans_) {
    if (span.name == id) {
      out.push_back(static_cast<double>(span.endNs - span.startNs) / 1e3);
    }
  }
  return out;
}

bool SpanLog::writeCsv(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream file(path);
  if (!file) return false;
  file << "name,request,start_ns,end_ns\n";
  for (const auto& span : spans_) {
    file << names_[span.name] << ',' << span.request << ',' << span.startNs
         << ',' << span.endNs << '\n';
  }
  return static_cast<bool>(file);
}

}  // namespace perfbench
