#include "core/block.h"

#include <utility>

#include "behavior/parser.h"
#include "behavior/printer.h"

namespace eblocks {

const char* toString(BlockClass c) {
  switch (c) {
    case BlockClass::kSensor: return "sensor";
    case BlockClass::kOutput: return "output";
    case BlockClass::kCompute: return "compute";
    case BlockClass::kCommunication: return "communication";
  }
  return "?";
}

BlockType::BlockType(std::string name, BlockClass cls,
                     std::vector<std::string> inputNames,
                     std::vector<std::string> outputNames,
                     std::string behaviorSource, bool sequential,
                     bool programmable)
    : name_(std::move(name)),
      class_(cls),
      inputs_(std::move(inputNames)),
      outputs_(std::move(outputNames)),
      behavior_(std::move(behaviorSource)),
      sequential_(sequential),
      programmable_(programmable) {
  checkShape();
  try {
    program_ = std::make_shared<const behavior::Program>(
        behavior::parse(behavior_));
  } catch (const std::exception& e) {
    throw std::invalid_argument("behavior of block type '" + name_ +
                                "': " + e.what());
  }
}

BlockType::BlockType(std::string name, BlockClass cls,
                     std::vector<std::string> inputNames,
                     std::vector<std::string> outputNames,
                     const behavior::Program& program, bool sequential,
                     bool programmable)
    : name_(std::move(name)),
      class_(cls),
      inputs_(std::move(inputNames)),
      outputs_(std::move(outputNames)),
      behavior_(behavior::toSource(program)),
      sequential_(sequential),
      programmable_(programmable) {
  checkShape();
}

void BlockType::checkShape() const {
  if (class_ == BlockClass::kSensor && !inputs_.empty())
    throw std::invalid_argument("sensor block type cannot have inputs: " +
                                name_);
  if (class_ == BlockClass::kOutput && !outputs_.empty())
    throw std::invalid_argument("output block type cannot have outputs: " +
                                name_);
  if (programmable_ && class_ != BlockClass::kCompute)
    throw std::invalid_argument("programmable block must be a compute block: " +
                                name_);
}

std::shared_ptr<const behavior::Program> BlockType::program() const {
  if (program_) return program_;
  return std::make_shared<const behavior::Program>(behavior::parse(behavior_));
}

}  // namespace eblocks
