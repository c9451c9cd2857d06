/// libFuzzer entry point for the request-framing surface. Linked
/// against libFuzzer under Clang; against standalone_main.cpp elsewhere.

#include <cstddef>
#include <cstdint>

#include "targets.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  bgls::fuzz::one_framing(data, size);
  return 0;
}
