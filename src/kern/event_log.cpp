#include "kern/event_log.hpp"

#include <algorithm>
#include <iterator>
#include <sstream>

namespace numasim::kern {

namespace {

constexpr std::string_view kEventNames[] = {
#define NUMASIM_KERN_EVENT_NAME(e, name) name,
    NUMASIM_KERN_EVENTS(NUMASIM_KERN_EVENT_NAME)
#undef NUMASIM_KERN_EVENT_NAME
};

}  // namespace

std::string_view event_type_name(EventType t) {
  const auto i = static_cast<std::size_t>(t);
  return i < std::size(kEventNames) ? kEventNames[i] : "?";
}

void EventLog::record(const obs::TraceEvent& e) {
  if (e.kind != obs::TraceEvent::Kind::kInstant) return;
  const auto* it = std::find(std::begin(kEventNames), std::end(kEventNames), e.name);
  if (it == std::end(kEventNames)) return;
  Event ev;
  ev.when = e.ts;
  ev.tid = e.tid;
  ev.type = static_cast<EventType>(it - std::begin(kEventNames));
  for (std::size_t i = 0; i < e.nargs; ++i) {
    const obs::TraceArg& a = e.args[i];
    if (a.key == "vpn") {
      ev.vpn = static_cast<vm::Vpn>(a.value);
    } else if (a.key == "pages") {
      ev.pages = static_cast<std::uint64_t>(a.value);
    } else if (a.key == "from") {
      ev.from = a.value < 0 ? topo::kInvalidNode
                            : static_cast<topo::NodeId>(a.value);
    } else if (a.key == "to") {
      ev.to = a.value < 0 ? topo::kInvalidNode
                          : static_cast<topo::NodeId>(a.value);
    }
  }
  record(ev);
}

std::string EventLog::render(std::size_t limit) const {
  std::ostringstream os;
  const std::size_t n = events_.size();
  const std::size_t first = n > limit ? n - limit : 0;
  for (std::size_t i = first; i < n; ++i) {
    const Event& e = events_[i];
    os << sim::format_time(e.when) << "  tid" << e.tid << "  "
       << event_type_name(e.type) << "  vpn=0x" << std::hex << e.vpn << std::dec;
    if (e.pages > 1) os << " pages=" << e.pages;
    if (e.from != topo::kInvalidNode) os << " from=N" << e.from;
    if (e.to != topo::kInvalidNode) os << " to=N" << e.to;
    os << '\n';
  }
  if (dropped_ > 0) os << "(" << dropped_ << " older events dropped)\n";
  return os.str();
}

std::string EventLog::to_csv() const {
  std::ostringstream os;
  os << "time_ns,tid,type,vpn,pages,from,to\n";
  for (const Event& e : events_) {
    os << e.when << ',' << e.tid << ',' << event_type_name(e.type) << ',' << e.vpn
       << ',' << e.pages << ',';
    if (e.from != topo::kInvalidNode) os << e.from;
    os << ',';
    if (e.to != topo::kInvalidNode) os << e.to;
    os << '\n';
  }
  return os.str();
}

std::uint64_t EventLog::count(EventType t) const {
  std::uint64_t n = 0;
  for (const Event& e : events_)
    if (e.type == t) ++n;
  return n;
}

}  // namespace numasim::kern
