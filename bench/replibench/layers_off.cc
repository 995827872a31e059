// Trace hooks for the untraced replibench binary: nothing is wrapped, so
// every counter reads zero and arming is a no-op.

#include "layers.h"

namespace replibench::layers {

bool Available() { return false; }

void Arm(bool) {}

void Reset() {}

std::vector<Boundary> Snapshot() {
  std::vector<Boundary> out;
  for (const char* name : kBoundaryNames) out.push_back(Boundary{name});
  return out;
}

uint64_t WireBytes() { return 0; }

uint64_t TotalAllocs() { return 0; }

}  // namespace replibench::layers
