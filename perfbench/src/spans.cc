#include "spans.h"

#include <fstream>

#include "common/error.h"

namespace perfbench {

std::vector<double> SpanLog::DurationsUs(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (name == span.name) out.push_back(span.DurationUs());
  }
  return out;
}

void WriteSpans(const std::string& path, const std::vector<const SpanLog*>& logs) {
  std::ofstream out(path, std::ios::trunc);
  out << "id,parent,op,name,start_ns,end_ns\n";
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      out << s.id << ',' << s.parent << ',' << s.op << ',' << s.name << ',' << s.start_ns << ','
          << s.end_ns << '\n';
    }
  }
  if (!out) throw qc::Error("cannot write span file " + path);
}

}  // namespace perfbench
