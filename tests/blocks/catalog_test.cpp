#include "blocks/catalog.h"

#include <gtest/gtest.h>

#include "behavior/ast.h"
#include "behavior/printer.h"

namespace eblocks::blocks {
namespace {

TEST(Catalog, SensorsHaveNoInputsOneOutput) {
  const Catalog& cat = defaultCatalog();
  for (const char* name :
       {"button", "contact_switch", "light_sensor", "motion_sensor",
        "sound_sensor", "magnetic_sensor", "temperature_sensor"}) {
    const BlockTypePtr t = cat.get(name);
    EXPECT_EQ(t->blockClass(), BlockClass::kSensor) << name;
    EXPECT_EQ(t->inputCount(), 0) << name;
    EXPECT_EQ(t->outputCount(), 1) << name;
  }
}

TEST(Catalog, OutputsHaveOneInputNoOutputs) {
  const Catalog& cat = defaultCatalog();
  for (const char* name : {"led", "beeper", "relay"}) {
    const BlockTypePtr t = cat.get(name);
    EXPECT_EQ(t->blockClass(), BlockClass::kOutput) << name;
    EXPECT_EQ(t->inputCount(), 1) << name;
    EXPECT_EQ(t->outputCount(), 0) << name;
  }
}

TEST(Catalog, CombinationalGatesAreNotSequential) {
  const Catalog& cat = defaultCatalog();
  for (const char* name : {"and2", "or2", "xor2", "nand2", "nor2", "not",
                           "yes", "and3", "or3", "majority3"}) {
    EXPECT_FALSE(cat.get(name)->sequential()) << name;
    EXPECT_EQ(cat.get(name)->blockClass(), BlockClass::kCompute) << name;
  }
}

TEST(Catalog, SequentialBlocksAreMarked) {
  const Catalog& cat = defaultCatalog();
  for (const char* name : {"toggle", "trip", "trip_reset"})
    EXPECT_TRUE(cat.get(name)->sequential()) << name;
  EXPECT_TRUE(cat.delay(5)->sequential());
  EXPECT_TRUE(cat.pulseGen(3)->sequential());
  EXPECT_TRUE(cat.prolonger(4)->sequential());
}

TEST(Catalog, AllBehaviorsParse) {
  // Every catalog type owns its parsed tree, and hands out that one tree
  // rather than parsing again.
  const Catalog& cat = defaultCatalog();
  for (const std::string& name : cat.names()) {
    const BlockTypePtr t = cat.get(name);
    ASSERT_NE(t->program(), nullptr) << name;
    EXPECT_EQ(t->program().get(), t->program().get()) << name;
  }
}

TEST(Catalog, ParameterizedTypesAreCachedByName) {
  const Catalog& cat = defaultCatalog();
  EXPECT_EQ(cat.delay(5).get(), cat.delay(5).get());
  EXPECT_NE(cat.delay(5).get(), cat.delay(6).get());
  EXPECT_EQ(cat.delay(5)->name(), "delay_5");
}

TEST(Catalog, GetResolvesParameterizedNames) {
  const Catalog& cat = defaultCatalog();
  EXPECT_EQ(cat.get("delay_7").get(), cat.delay(7).get());
  EXPECT_EQ(cat.get("pulse_3").get(), cat.pulseGen(3).get());
  EXPECT_EQ(cat.get("prolong_2").get(), cat.prolonger(2).get());
  EXPECT_EQ(cat.get("logic2_6").get(), cat.logic2(6).get());
  EXPECT_EQ(cat.get("logic3_128").get(), cat.logic3(128).get());
  EXPECT_EQ(cat.get("prog_2x2").get(), cat.programmable(2, 2).get());
}

TEST(Catalog, UnknownNameThrows) {
  EXPECT_THROW(defaultCatalog().get("warp_core"), std::out_of_range);
  EXPECT_THROW(defaultCatalog().get("delay_x"), std::out_of_range);
}

TEST(Catalog, TruthTableBoundsChecked) {
  EXPECT_THROW(defaultCatalog().logic2(16), std::invalid_argument);
  EXPECT_THROW(defaultCatalog().logic3(256), std::invalid_argument);
}

TEST(Catalog, ParameterValidation) {
  EXPECT_THROW(defaultCatalog().delay(-1), std::invalid_argument);
  EXPECT_THROW(defaultCatalog().pulseGen(0), std::invalid_argument);
  EXPECT_THROW(defaultCatalog().prolonger(0), std::invalid_argument);
  EXPECT_THROW(defaultCatalog().splitter(4), std::invalid_argument);
  EXPECT_THROW(defaultCatalog().programmable(0, 1), std::invalid_argument);
}

TEST(Catalog, ProgrammableBlockShape) {
  const BlockTypePtr p = defaultCatalog().programmable(2, 2);
  EXPECT_TRUE(p->programmable());
  EXPECT_EQ(p->inputCount(), 2);
  EXPECT_EQ(p->outputCount(), 2);
  EXPECT_EQ(p->inputName(0), "in0");
  EXPECT_EQ(p->outputName(1), "out1");
  EXPECT_TRUE(p->behaviorSource().empty());
}

TEST(Catalog, SplitterShapes) {
  const BlockTypePtr s2 = defaultCatalog().splitter(2);
  EXPECT_EQ(s2->inputCount(), 1);
  EXPECT_EQ(s2->outputCount(), 2);
  const BlockTypePtr s3 = defaultCatalog().splitter(3);
  EXPECT_EQ(s3->outputCount(), 3);
}

TEST(Catalog, CommunicationBlocksAreWires) {
  const Catalog& cat = defaultCatalog();
  for (const char* name : {"rf_link", "x10_link"}) {
    const BlockTypePtr t = cat.get(name);
    EXPECT_EQ(t->blockClass(), BlockClass::kCommunication) << name;
    EXPECT_EQ(t->inputCount(), 1) << name;
    EXPECT_EQ(t->outputCount(), 1) << name;
  }
}

TEST(BlockType, ClassInvariantsEnforced) {
  EXPECT_THROW(BlockType("bad", BlockClass::kSensor, {"a"}, {"out"}, ""),
               std::invalid_argument);
  EXPECT_THROW(BlockType("bad", BlockClass::kOutput, {"a"}, {"out"}, ""),
               std::invalid_argument);
  EXPECT_THROW(BlockType("bad", BlockClass::kSensor, {}, {"out"}, "", false,
                         /*programmable=*/true),
               std::invalid_argument);
}

TEST(BlockType, TypeBuiltFromProgramKeepsOnlyItsText) {
  behavior::Program merged;
  merged.statements.push_back(
      behavior::makeVarDecl("q", behavior::makeIntLit(0)));
  merged.statements.push_back(behavior::makeAssign(
      "out", behavior::makeUnary(behavior::UnaryOp::kNot,
                                 behavior::makeVarRef("in0"))));
  const BlockType t("prog_p0", BlockClass::kCompute, {"in0"}, {"out"},
                    merged, /*sequential=*/false, /*programmable=*/true);
  EXPECT_EQ(t.behaviorSource(), behavior::toSource(merged));
  // No tree is retained: each caller gets a parse of its own.
  const auto a = t.program();
  const auto b = t.program();
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(behavior::toSource(*a), t.behaviorSource());
}

}  // namespace
}  // namespace eblocks::blocks
