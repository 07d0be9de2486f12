#include "codegen/c_emitter.h"

#include <cctype>
#include <charconv>
#include <string>
#include <string_view>
#include <unordered_set>
#include <utility>

namespace eblocks::codegen {

namespace {

using behavior::BinaryOp;
using behavior::Expr;
using behavior::ExprKind;
using behavior::Program;
using behavior::Stmt;
using behavior::StmtKind;
using behavior::StmtPtr;
using behavior::UnaryOp;

class Emitter {
 public:
  Emitter(const MergedProgram& merged, const CEmitOptions& options)
      : merged_(merged), options_(options), upper_(upper(prefix())) {
    for (const StmtPtr& s : merged.program.statements)
      if (s->kind == StmtKind::kVarDecl) stateVars_.insert(s->name);
  }

  std::string run() {
    std::string out;
    header(out);
    stateStruct(out);
    resetFunction(out);
    evalFunction(out);
    if (options_.emitMainSkeleton) mainSkeleton(out);
    if (options_.emitTestHarness) testHarness(out);
    return out;
  }

 private:
  const std::string& prefix() const { return options_.symbolPrefix; }

  /// Appends the C lvalue of a DSL name.  Port names are resolved by
  /// reading the index out of the name (`in3` -> `in[3]`), never by
  /// building candidate names.
  void cName(const std::string& name, std::string& out) const {
    if (name == "tick") {
      out += "tick";
      return;
    }
    if (stateVars_.contains(name)) {
      out += "st->";
      out += name;
      return;
    }
    const std::string_view n = name;
    for (const auto& [port, count] :
         {std::pair<std::string_view, int>{"in", merged_.inputCount()},
          {"out", merged_.outputCount()}}) {
      if (!isPortName(n, port, count)) continue;
      out.append(port);
      out += '[';
      out.append(n.substr(port.size()));
      out += ']';
      return;
    }
    throw CodegenError("emitC: unknown name '" + name +
                       "' (not a state variable, port, or tick)");
  }

  /// True when `name` is `prefix` followed by the decimal spelling of a
  /// port index below `count` (as std::to_string writes it: no sign, no
  /// leading zero).
  static bool isPortName(std::string_view name, std::string_view prefix,
                         int count) {
    if (!name.starts_with(prefix)) return false;
    const std::string_view digits = name.substr(prefix.size());
    if (digits.empty() || digits.size() > 9) return false;
    if (digits.size() > 1 && digits[0] == '0') return false;
    int k = 0;
    for (const char c : digits) {
      if (c < '0' || c > '9') return false;
      k = k * 10 + (c - '0');
    }
    return k < count;
  }

  void expr(const Expr& e, std::string& out) const {
    switch (e.kind) {
      case ExprKind::kIntLit: {
        char buf[24];
        out.append(buf, std::to_chars(buf, buf + sizeof buf, e.intValue).ptr);
        return;
      }
      case ExprKind::kVarRef:
        cName(e.name, out);
        return;
      case ExprKind::kUnary:
        out += e.uop == UnaryOp::kNot ? "!(" : "-(";
        expr(*e.lhs, out);
        out += ')';
        return;
      case ExprKind::kBinary:
        out += '(';
        expr(*e.lhs, out);
        out += ' ';
        out += toString(e.bop);
        out += ' ';
        expr(*e.rhs, out);
        out += ')';
        return;
    }
    throw CodegenError("emitC: unreachable expression kind");
  }

  void stmt(const Stmt& s, int depth, std::string& out) const {
    const std::size_t ind = static_cast<std::size_t>(depth) * 2;
    switch (s.kind) {
      case StmtKind::kVarDecl:
        break;  // handled by reset
      case StmtKind::kAssign:
        out.append(ind, ' ');
        cName(s.name, out);
        out += " = ";
        expr(*s.expr, out);
        out += ";\n";
        break;
      case StmtKind::kIf:
        out.append(ind, ' ');
        out += "if (";
        expr(*s.expr, out);
        out += ") {\n";
        for (const StmtPtr& t : s.thenBody) stmt(*t, depth + 1, out);
        if (!s.elseBody.empty()) {
          out.append(ind, ' ');
          out += "} else {\n";
          for (const StmtPtr& t : s.elseBody) stmt(*t, depth + 1, out);
        }
        out.append(ind, ' ');
        out += "}\n";
        break;
    }
  }

  void header(std::string& out) const {
    out += "/* Generated by eblocks-synth: programmable block program.\n";
    out += " * Merged pre-defined blocks (evaluation order):\n";
    for (BlockId b : merged_.members)
      append(out, " *   - block id ", std::to_string(b), "\n");
    append(out, " * Ports: ", std::to_string(merged_.inputCount()),
           " input(s), ", std::to_string(merged_.outputCount()),
           " output(s).\n");
    out += " * Target: any C99 toolchain (paper prototype: PIC16F628).\n */\n";
    out += "#include <stdint.h>\n\n";
    append(out, "#define ", upper_, "_NUM_IN ",
           std::to_string(merged_.inputCount()), "\n");
    append(out, "#define ", upper_, "_NUM_OUT ",
           std::to_string(merged_.outputCount()), "\n\n");
  }

  void stateStruct(std::string& out) const {
    out += "typedef struct {\n";
    if (stateVars_.empty()) out += "  int32_t unused_;\n";
    for (const StmtPtr& s : merged_.program.statements)
      if (s->kind == StmtKind::kVarDecl)
        append(out, "  int32_t ", s->name, ";\n");
    append(out, "} ", prefix(), "_state_t;\n\n");
  }

  void resetFunction(std::string& out) const {
    append(out, "void ", prefix(), "_reset(", prefix(), "_state_t* st) {\n");
    for (const StmtPtr& s : merged_.program.statements)
      if (s->kind == StmtKind::kVarDecl) {
        append(out, "  st->", s->name, " = ");
        expr(*s->expr, out);
        out += ";\n";
      }
    out += "}\n\n";
  }

  void evalFunction(std::string& out) const {
    append(out, "void ", prefix(), "_eval(", prefix(), "_state_t* st,\n");
    append(out, "             const int32_t in[", upper_, "_NUM_IN],\n");
    append(out, "             int32_t out[", upper_, "_NUM_OUT],\n");
    out += "             int32_t tick) {\n";
    if (merged_.inputCount() == 0) out += "  (void)in;\n";
    out += "  (void)tick;\n";
    for (const StmtPtr& s : merged_.program.statements) stmt(*s, 1, out);
    out += "}\n\n";
  }

  void mainSkeleton(std::string& out) const {
    out += "#ifdef " + upper(prefix()) + "_FIRMWARE_MAIN\n";
    out += "/* Firmware skeleton: wire these to the eBlock serial packet\n";
    out += " * protocol of the physical platform. */\n";
    out += "extern int " + prefix() +
           "_rx_packet(int32_t* port, int32_t* value); /* nonzero on RX */\n";
    out += "extern void " + prefix() +
           "_tx_packet(int32_t port, int32_t value);\n";
    out += "extern int " + prefix() +
           "_timer_fired(void); /* nonzero once per tick period */\n\n";
    out += "int main(void) {\n";
    out += "  " + prefix() + "_state_t st;\n";
    out += "  int32_t in[" + upper(prefix()) + "_NUM_IN] = {0};\n";
    out += "  int32_t out[" + upper(prefix()) + "_NUM_OUT] = {0};\n";
    out += "  int32_t prev[" + upper(prefix()) + "_NUM_OUT] = {0};\n";
    out += "  " + prefix() + "_reset(&st);\n";
    out += "  for (;;) {\n";
    out += "    int32_t port, value;\n";
    out += "    int activity = 0;\n";
    out += "    while (" + prefix() + "_rx_packet(&port, &value)) {\n";
    out += "      in[port] = value;\n      activity = 1;\n    }\n";
    out += "    int32_t tick = " + prefix() + "_timer_fired() ? 1 : 0;\n";
    out += "    if (activity || tick) {\n";
    out += "      if (tick) " + prefix() + "_eval(&st, in, out, 1);\n";
    out += "      " + prefix() + "_eval(&st, in, out, 0);\n";
    out += "      for (int32_t k = 0; k < " + upper(prefix()) +
           "_NUM_OUT; ++k)\n";
    out += "        if (out[k] != prev[k]) { prev[k] = out[k]; " + prefix() +
           "_tx_packet(k, out[k]); }\n";
    out += "    }\n  }\n}\n";
    out += "#endif /* " + upper(prefix()) + "_FIRMWARE_MAIN */\n\n";
  }

  void testHarness(std::string& out) const {
    out += "#ifdef " + upper(prefix()) + "_TEST_HARNESS\n";
    out += "/* Reads commands from stdin: 'set <port> <value>', 'tick',\n";
    out += " * 'eval'; prints outputs after each command.  'setq' sets a\n";
    out += " * port quietly (no eval, no print) so multi-port updates can\n";
    out += " * be staged before a single eval -- the lockstep the\n";
    out += " * differential fuzz harness drives. */\n";
    out += "#include <stdio.h>\n";
    out += "#include <string.h>\n\n";
    out += "int main(void) {\n";
    out += "  " + prefix() + "_state_t st;\n";
    out += "  int32_t in[" + upper(prefix()) + "_NUM_IN + 1] = {0};\n";
    out += "  int32_t out[" + upper(prefix()) + "_NUM_OUT + 1] = {0};\n";
    out += "  " + prefix() + "_reset(&st);\n";
    out += "  char cmd[32];\n";
    out += "  while (scanf(\"%31s\", cmd) == 1) {\n";
    out += "    if (!strcmp(cmd, \"setq\")) {\n";
    out += "      int p; int v;\n";
    out += "      if (scanf(\"%d %d\", &p, &v) != 2) return 1;\n";
    out += "      in[p] = v;\n";
    out += "      continue;\n";
    out += "    } else if (!strcmp(cmd, \"set\")) {\n";
    out += "      int p; int v;\n";
    out += "      if (scanf(\"%d %d\", &p, &v) != 2) return 1;\n";
    out += "      in[p] = v;\n";
    out += "      " + prefix() + "_eval(&st, in, out, 0);\n";
    out += "    } else if (!strcmp(cmd, \"tick\")) {\n";
    out += "      " + prefix() + "_eval(&st, in, out, 1);\n";
    out += "      " + prefix() + "_eval(&st, in, out, 0);\n";
    out += "    } else if (!strcmp(cmd, \"eval\")) {\n";
    out += "      " + prefix() + "_eval(&st, in, out, 0);\n";
    out += "    } else { return 1; }\n";
    out += "    for (int k = 0; k < " + upper(prefix()) +
           "_NUM_OUT; ++k)\n";
    out += "      printf(\"%d%c\", (int)out[k], k + 1 == " + upper(prefix()) +
           "_NUM_OUT ? '\\n' : ' ');\n";
    out += "    if (" + upper(prefix()) + "_NUM_OUT == 0) printf(\"\\n\");\n";
    out += "    fflush(stdout);\n";
    out += "  }\n  return 0;\n}\n";
    out += "#endif /* " + upper(prefix()) + "_TEST_HARNESS */\n";
  }

  static std::string upper(std::string s) {
    for (char& c : s)
      c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    return s;
  }

  /// Appends every part to `out` in order, building no temporaries.
  template <class... Parts>
  static void append(std::string& out, const Parts&... parts) {
    (out += ... += parts);
  }

  const MergedProgram& merged_;
  CEmitOptions options_;
  std::string upper_;  ///< the symbol prefix in upper case
  /// Declared state variables (views into merged_.program's names).
  std::unordered_set<std::string_view> stateVars_;
};

}  // namespace

std::string emitC(const MergedProgram& merged, const CEmitOptions& options) {
  return Emitter(merged, options).run();
}

}  // namespace eblocks::codegen
