#include "core/trace.hpp"

#include <sstream>

namespace bftsim {

std::string_view to_string(TraceKind kind) noexcept {
  switch (kind) {
    case TraceKind::kSend: return "send";
    case TraceKind::kDeliver: return "deliver";
    case TraceKind::kDrop: return "drop";
    case TraceKind::kTimerFire: return "timer";
    case TraceKind::kDecide: return "decide";
    case TraceKind::kViewChange: return "view";
    case TraceKind::kCorrupt: return "corrupt";
  }
  return "?";
}

std::string TraceRecord::to_string() const {
  std::ostringstream os;
  os << "[" << to_ms(at) << "ms] " << bftsim::to_string(kind);
  switch (kind) {
    case TraceKind::kSend:
    case TraceKind::kDeliver:
    case TraceKind::kDrop:
      os << " " << a << "->" << b << " "
         << PayloadTypeRegistry::instance().name(type) << " #" << msg_id;
      break;
    case TraceKind::kTimerFire:
      os << " node " << a;
      break;
    case TraceKind::kDecide:
      os << " node " << a << " height " << view << " value " << value;
      break;
    case TraceKind::kViewChange:
      os << " node " << a << " view " << view;
      break;
    case TraceKind::kCorrupt:
      os << " node " << a;
      break;
  }
  return os.str();
}

}  // namespace bftsim
