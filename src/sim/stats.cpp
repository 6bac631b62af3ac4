#include "sim/stats.hpp"

namespace numasim::sim {

namespace {

constexpr std::string_view kCostKindNames[] = {
#define NUMASIM_COST_KIND_NAME(e, name) name,
    NUMASIM_COST_KINDS(NUMASIM_COST_KIND_NAME)
#undef NUMASIM_COST_KIND_NAME
};

}  // namespace

std::string_view cost_kind_name(CostKind k) {
  const auto i = static_cast<std::size_t>(k);
  return i < kCostKindCount ? kCostKindNames[i] : "?";
}

}  // namespace numasim::sim
