// perfbench/lib/spec_gen.hpp
//
// Seeded generator of inline .ifs specs for the front_end workload. Each
// spec is one of the three examples/specs templates (fig3, dma_stream,
// flc_kernel) with its array length, element width, loop bounds and wait
// counts drawn from the seed, so message sizes and the Eq. 1 width
// search differ from spec to spec. The system name carries the seed and
// index, so no two generated specs share content and every cache lookup
// keyed on it misses. Every draw stays inside ranges the static checker
// accepts under an arbitrated bus.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

struct GeneratedSpec {
  std::string family;  ///< "fig3", "dma_stream" or "flc_kernel"
  std::string text;    ///< .ifs source
};

/// Pure function of (seed, index).
GeneratedSpec generate_spec(std::uint64_t seed, std::uint64_t index);

}  // namespace perfbench
