#include "src/workloads/workload.h"

#include <stdexcept>

namespace magesim {

void RequireAtLeast(const char* who, const char* field, uint64_t value, uint64_t min) {
  if (value < min) {
    throw std::invalid_argument(std::string(who) + ": " + field + "=" + std::to_string(value) +
                                " must be at least " + std::to_string(min));
  }
}

}  // namespace magesim
