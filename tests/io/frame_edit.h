// Frame surgery for tests: rewrite one string of a network frame and
// re-seal it, to build frames whose content no writer would produce
// (e.g. an embedded block type whose behavior does not parse).
#ifndef EBLOCKS_TESTS_IO_FRAME_EDIT_H_
#define EBLOCKS_TESTS_IO_FRAME_EDIT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "blocks/catalog.h"
#include "core/network.h"
#include "io/binary.h"

namespace eblocks::io::testutil {

/// `frame` with every string-table entry equal to `from` replaced by
/// `to`.  The string table opens a network payload and everything after
/// it refers to entries by index, so the rest of the payload is copied
/// unchanged; the frame is re-closed with a fresh length and checksum.
inline std::string withStringReplaced(std::string_view frame,
                                      std::string_view from,
                                      std::string_view to) {
  BinaryReader r(frame, SectionTag::kNetwork);
  const std::uint64_t count = r.varint();
  BinaryWriter w;
  w.varint(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::string_view s = r.str();
    w.str(s == from ? to : s);
  }
  w.bytes(r.bytes(r.remaining()));
  return w.finish(SectionTag::kNetwork);
}

/// A kNetwork frame for button -> relay -> led whose relay is an embedded
/// (non-catalog) type with behavior text `behavior`, which need not
/// parse: the frame is written with a valid placeholder behavior that is
/// then swapped for `behavior`.
inline std::string frameWithEmbeddedBehavior(std::string_view behavior) {
  constexpr char kPlaceholder[] = "out = a; // placeholder behavior";
  const auto& cat = blocks::defaultCatalog();
  const auto relay = std::make_shared<const BlockType>(
      "custom_relay", BlockClass::kCompute, std::vector<std::string>{"a"},
      std::vector<std::string>{"out"}, kPlaceholder);
  Network net("embedded");
  const BlockId in = net.addBlock("button", cat.button());
  const BlockId mid = net.addBlock("relay", relay);
  const BlockId out = net.addBlock("lamp", cat.led());
  net.connect(in, 0, mid, 0);
  net.connect(mid, 0, out, 0);
  return withStringReplaced(writeNetworkBinary(net), kPlaceholder, behavior);
}

}  // namespace eblocks::io::testutil

#endif  // EBLOCKS_TESTS_IO_FRAME_EDIT_H_
