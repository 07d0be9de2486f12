// Block types: the immutable descriptors of eBlocks.
//
// The eBlocks platform (Cotterell/Vahid et al.) features four classes of
// blocks communicating over a uniform serial packet protocol:
//   - sensor blocks sense environmental stimuli (buttons, light, motion...),
//   - output blocks act on the environment (LEDs, beepers, relays),
//   - compute blocks implement a pre-defined combinational or sequential
//     function on their inputs,
//   - communication blocks forward signals over another medium (RF, X10).
// A *programmable* block is a special compute block with a fixed number of
// input/output ports whose function is downloaded as generated C code.
#ifndef EBLOCKS_CORE_BLOCK_H_
#define EBLOCKS_CORE_BLOCK_H_

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace eblocks {

namespace behavior {
struct Program;
}  // namespace behavior

/// Dense index of a block instance inside a Network.
using BlockId = std::uint32_t;
inline constexpr BlockId kNoBlock = 0xffffffffu;

/// One side of a connection: an input or output port of a block instance.
struct Endpoint {
  BlockId block = kNoBlock;
  std::uint16_t port = 0;
  friend auto operator<=>(const Endpoint&, const Endpoint&) = default;
};

/// The four functional classes of eBlocks.
enum class BlockClass : std::uint8_t {
  kSensor,         ///< primary input; senses the environment
  kOutput,         ///< primary output; acts on the environment
  kCompute,        ///< pre-defined or programmable function
  kCommunication,  ///< medium adaptor (wireless, X10); logically a wire
};

/// Returns a human-readable name ("sensor", "output", ...).
const char* toString(BlockClass c);

/// Immutable descriptor of a block type: port lists, class, and the behavior
/// program (in the behavior DSL; see src/behavior) that the simulator
/// interprets and the code generator merges.
///
/// A type built from behavior text parses it once, here, and shares the
/// syntax tree with every consumer; text that does not parse is rejected
/// at construction.  A type built from an in-memory program (a
/// synthesized programmable block) keeps only the program's printed text.
class BlockType {
 public:
  /// `behaviorSource` is a program in the behavior DSL.  For sensors it
  /// forwards the environment value; for outputs it consumes the input.
  /// `sequential` marks types with internal state (toggle, delay, ...).
  /// Throws std::invalid_argument, naming the type, when the behavior
  /// does not parse (behavior/parser.h, nesting limit included).
  BlockType(std::string name, BlockClass cls,
            std::vector<std::string> inputNames,
            std::vector<std::string> outputNames, std::string behaviorSource,
            bool sequential = false, bool programmable = false);

  /// A type whose behavior is `program`, stored as its printed text
  /// (behavior::toSource); the tree itself is not kept.  program() parses
  /// that text again for each caller that asks.
  BlockType(std::string name, BlockClass cls,
            std::vector<std::string> inputNames,
            std::vector<std::string> outputNames,
            const behavior::Program& program, bool sequential = false,
            bool programmable = false);

  const std::string& name() const { return name_; }
  BlockClass blockClass() const { return class_; }

  int inputCount() const { return static_cast<int>(inputs_.size()); }
  int outputCount() const { return static_cast<int>(outputs_.size()); }
  const std::string& inputName(int i) const { return inputs_.at(static_cast<std::size_t>(i)); }
  const std::string& outputName(int i) const { return outputs_.at(static_cast<std::size_t>(i)); }
  const std::vector<std::string>& inputNames() const { return inputs_; }
  const std::vector<std::string>& outputNames() const { return outputs_; }

  /// Program text in the behavior DSL (see behavior/parser.h).
  const std::string& behaviorSource() const { return behavior_; }

  /// The behavior's syntax tree: the one parsed at construction, or, for
  /// a type built from an in-memory program, a fresh parse of its text
  /// that the caller alone holds.
  std::shared_ptr<const behavior::Program> program() const;

  /// True for blocks with internal state (toggle, trip, delay, pulse...).
  bool sequential() const { return sequential_; }

  /// True for the programmable compute block (and synthesized replacements).
  bool programmable() const { return programmable_; }

 private:
  /// Rejects port lists and flags that contradict the class.
  void checkShape() const;

  std::string name_;
  BlockClass class_;
  std::vector<std::string> inputs_;
  std::vector<std::string> outputs_;
  std::string behavior_;
  std::shared_ptr<const behavior::Program> program_;  ///< null: printed
  bool sequential_;
  bool programmable_;
};

using BlockTypePtr = std::shared_ptr<const BlockType>;

/// A block instance placed in a network.
struct Block {
  std::string name;   ///< unique instance name within the network
  BlockTypePtr type;  ///< shared immutable descriptor
};

}  // namespace eblocks

#endif  // EBLOCKS_CORE_BLOCK_H_
