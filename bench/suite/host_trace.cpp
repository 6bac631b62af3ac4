#include "host_trace.hpp"

#include <cstdio>

namespace numasim::suite {

const char* call_name(Call c) {
  switch (c) {
    case Call::kTrafficNext: return "traffic_next";
    case Call::kMovePages: return "move_pages";
    case Call::kMadvise: return "madvise";
    case Call::kAccess: return "access";
    case Call::kPlacement: return "placement";
    case Call::kCount: break;
  }
  return "?";
}

HostTrace::SpanId HostTrace::begin(std::string name, SpanId parent) {
  Span s;
  s.name = std::move(name);
  s.parent = parent;
  s.begin_ns = now_ns();
  spans_.push_back(std::move(s));
  return spans_.size() - 1;
}

void HostTrace::end(SpanId id) { spans_[id].end_ns = now_ns(); }

HostTrace::CallStat HostTrace::calls_under(SpanId id, Call c) const {
  CallStat total;
  for (SpanId i = 0; i < spans_.size(); ++i) {
    SpanId a = i;
    while (a != kNone && a != id) a = spans_[a].parent;
    if (a != id) continue;
    total.count += spans_[i].calls[static_cast<std::size_t>(c)].count;
    total.ns += spans_[i].calls[static_cast<std::size_t>(c)].ns;
  }
  return total;
}

namespace {

std::vector<std::uint64_t> self_ns(const std::vector<HostTrace::Span>& spans) {
  std::vector<std::uint64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end_ns - spans[i].begin_ns;
    for (const HostTrace::CallStat& c : spans[i].calls) self[i] -= c.ns;
  }
  for (const HostTrace::Span& s : spans)
    if (s.parent != HostTrace::kNone) self[s.parent] -= s.end_ns - s.begin_ns;
  return self;
}

}  // namespace

std::map<std::string, double> HostTrace::self_ms_by_name() const {
  const std::vector<std::uint64_t> self = self_ns(spans_);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    out[spans_[i].name] += static_cast<double>(self[i]) / 1e6;
  return out;
}

bool HostTrace::write_chrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<std::uint64_t> self = self_ns(spans_);
  std::fprintf(f, "{\"traceEvents\":[");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Span names are the benchmark's own identifiers: no JSON escaping
    // needed.
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"cat\":\"host\",\"ph\":\"X\","
                 "\"ts\":%.3f,\"dur\":%.3f,\"pid\":0,\"tid\":0,\"args\":{"
                 "\"id\":%zu,\"parent\":%lld,\"self_ns\":%llu",
                 i == 0 ? "" : ",", s.name.c_str(),
                 static_cast<double>(s.begin_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.begin_ns) / 1e3, i,
                 s.parent == kNone ? -1LL : static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(self[i]));
    for (std::size_t c = 0; c < kCallCount; ++c) {
      if (s.calls[c].count == 0) continue;
      const char* n = call_name(static_cast<Call>(c));
      std::fprintf(f, ",\"%s_count\":%llu,\"%s_ns\":%llu", n,
                   static_cast<unsigned long long>(s.calls[c].count), n,
                   static_cast<unsigned long long>(s.calls[c].ns));
    }
    std::fprintf(f, "}}");
  }
  std::fprintf(f, "\n],\"displayTimeUnit\":\"ns\"}\n");
  return std::fclose(f) == 0;
}

}  // namespace numasim::suite
