/// Replays the checked-in fuzz corpus (tests/data/fuzz) through the
/// shared fuzz targets (tests/fuzz/targets.h) as ordinary unit tests.
/// The corpus holds the hand-written seeds plus every minimized crasher
/// a fuzzing run has produced; running them here — in every build, not
/// just fuzzer builds — turns each past finding into a permanent
/// regression test. A target either accepts the input or rejects it
/// with bgls::Error; crashes and oracle failures abort the test binary.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <vector>

#include "targets.h"

namespace bgls {
namespace {

namespace fs = std::filesystem;

std::vector<fs::path> corpus_files(const char* surface) {
  const fs::path dir = fs::path(BGLS_FUZZ_CORPUS_DIR) / surface;
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file()) files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::vector<std::uint8_t> read_bytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

void replay(const char* surface,
            void (*target)(const std::uint8_t*, std::size_t)) {
  const auto files = corpus_files(surface);
  ASSERT_FALSE(files.empty()) << "empty corpus: " << surface;
  for (const auto& path : files) {
    SCOPED_TRACE(path.string());
    const auto bytes = read_bytes(path);
    target(bytes.data(), bytes.size());
  }
}

TEST(FuzzRegressions, QasmCorpus) { replay("qasm", fuzz::one_qasm); }

TEST(FuzzRegressions, ProtocolCorpus) {
  replay("protocol", fuzz::one_protocol);
}

TEST(FuzzRegressions, JournalCorpus) { replay("journal", fuzz::one_journal); }

TEST(FuzzRegressions, FramingCorpus) { replay("framing", fuzz::one_framing); }

}  // namespace
}  // namespace bgls
