// Corpus-wide output identity: one digest over everything synthesize()
// emits for the 15 Table-1 designs under paredown and exhaustive search.
// golden_c_test pins the exact text of one partition; this pins the bytes
// of every synthesized network frame, every generated C unit and every
// printed merged behaviour, so a change to merging, printing, code
// generation or network rebuilding that alters any output byte fails here.
// A deliberate output change must update kCorpusDigest and say why.
//
// Timed Passage (23 inner blocks) has no exhaustive row: its
// branch-and-bound does not finish within the default 60 s limit, and a
// timed-out search returns whatever incumbent the deadline found -- the
// paper reports no exhaustive figure for it either.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

#include "behavior/printer.h"
#include "designs/library.h"
#include "io/binary.h"
#include "synth/synthesizer.h"

namespace eblocks::synth {
namespace {

constexpr std::uint64_t kCorpusDigest = 0x325a51d01cfcff41ull;

/// FNV-1a-64 over length-prefixed fields, so field boundaries count.
class Digest {
 public:
  void add(std::string_view bytes) {
    const std::uint64_t n = bytes.size();
    for (int i = 0; i < 8; ++i) byte(static_cast<unsigned char>(n >> (8 * i)));
    for (const char c : bytes) byte(static_cast<unsigned char>(c));
  }
  std::uint64_t value() const { return h_; }

 private:
  void byte(unsigned char c) {
    h_ ^= c;
    h_ *= 0x100000001b3ull;
  }
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

TEST(CorpusDigest, Table1PareDownAndExhaustiveOutputsAreByteStable) {
  Digest digest;
  int results = 0;
  for (const designs::DesignEntry& d : designs::designLibrary()) {
    for (const std::string algorithm : {"paredown", "exhaustive"}) {
      if (algorithm == "exhaustive" && d.name == "Timed Passage") continue;
      SynthOptions options;
      options.algorithm = algorithm;
      const SynthResult r = synthesize(d.network, options);
      ASSERT_FALSE(r.run.timedOut) << d.name << " / " << algorithm;
      digest.add(d.name);
      digest.add(algorithm);
      digest.add(io::writeNetworkBinary(r.network));
      for (const SynthesizedBlock& b : r.blocks) {
        digest.add(b.cSource);
        digest.add(behavior::toSource(b.merged.program));
      }
      ++results;
    }
  }
  EXPECT_EQ(results, 29);
  char hex[19];
  std::snprintf(hex, sizeof hex, "0x%016llx",
                static_cast<unsigned long long>(digest.value()));
  EXPECT_EQ(digest.value(), kCorpusDigest) << "corpus digest is " << hex;
}

}  // namespace
}  // namespace eblocks::synth
