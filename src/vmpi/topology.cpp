#include "vmpi/topology.hpp"

#include <stdexcept>

namespace paralagg::vmpi {

const char* schedule_name(CollectiveSchedule s) {
  switch (s) {
    case CollectiveSchedule::kLinear: return "linear";
    case CollectiveSchedule::kRecursiveDoubling: return "rd";
  }
  return "?";
}

CollectiveSchedule parse_schedule(const std::string& name) {
  if (name == "linear") return CollectiveSchedule::kLinear;
  if (name == "rd" || name == "recursive-doubling") {
    return CollectiveSchedule::kRecursiveDoubling;
  }
  throw std::invalid_argument("unknown collective schedule '" + name +
                              "' (expected linear | rd | recursive-doubling)");
}

Topology Topology::grouped(int nranks, int nodes) {
  Topology t;
  if (nodes <= 0 || nodes >= nranks) {
    t.node_size = 1;
    return t;
  }
  t.node_size = (nranks + nodes - 1) / nodes;
  return t;
}

std::string Topology::describe(int nranks) const {
  return std::to_string(node_count(nranks)) + " node(s) x " +
         std::to_string(node_size) + " rank(s)";
}

}  // namespace paralagg::vmpi
