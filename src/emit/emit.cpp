#include "emit/emit.h"

#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "glsl/builtins.h"
#include "ir/walk.h"
#include "support/strings.h"

namespace gsopt::emit {

using ir::Block;
using ir::dyn_cast;
using ir::IfNode;
using ir::Instr;
using ir::LoopNode;
using ir::Module;
using ir::Opcode;
using ir::Region;
using ir::Type;
using ir::Var;
using ir::VarKind;

namespace {

/** GLSL literal for one constant lane of the given base type. */
std::string
laneLiteral(double v, const Type &type)
{
    if (type.isInt())
        return std::to_string(static_cast<long>(v));
    if (type.isBool())
        return v != 0.0 ? "true" : "false";
    return formatGlslFloat(v);
}

/** GLSL expression for a whole Const instruction. */
std::string
constLiteral(const Instr &i)
{
    if (i.type.isScalar())
        return laneLiteral(i.constData[0], i.type);
    std::string out = i.type.str() + "(";
    if (i.isSplatConst()) {
        out += laneLiteral(i.constData[0], i.type);
    } else {
        for (size_t k = 0; k < i.constData.size(); ++k) {
            if (k)
                out += ", ";
            out += laneLiteral(i.constData[k], i.type);
        }
    }
    return out + ")";
}

const char kSwizzleChar[4] = {'x', 'y', 'z', 'w'};

class Emitter
{
  public:
    explicit Emitter(const Module &module)
        // Reserve once, from the module shape: measured emission sits
        // around 30-40 bytes per instruction plus the interface header;
        // over-reserving a little keeps every shader single-allocation.
        : module_(module),
          os_(64 + 48 * module.vars.size() +
              56 * module.instructionCount())
    {
    }

    std::string run()
    {
        collectUsedVars();
        emitHeader();
        os_ << "void main() {\n";
        emitLocalDecls();
        emitRegion(module_.body, 1, "");
        os_ << "}\n";
        return os_.take();
    }

  private:
    // ------------------------------------------------------------------
    void collectUsedVars()
    {
        ir::forEachInstr(module_.body, [this](const Instr &i) {
            if (i.var)
                used_.insert(i.var);
        });
        ir::forEachNode(const_cast<Module &>(module_).body,
                        [this](ir::Node &n) {
                            if (auto *l = dyn_cast<LoopNode>(&n)) {
                                if (l->counter)
                                    counters_.insert(l->counter);
                            }
                        });
    }

    /** Interface declarations + const arrays. */
    void emitHeader()
    {
        os_ << "#version 450\n";
        for (const auto &v : module_.vars) {
            // Keep the full interface even if optimisation removed all
            // uses: the measurement framework introspects uniforms and
            // real drivers keep declarations too.
            switch (v->kind) {
              case VarKind::Input:
                os_ << "in " << declOf(*v) << ";\n";
                break;
              case VarKind::Output:
                os_ << "out " << declOf(*v) << ";\n";
                break;
              case VarKind::Uniform:
              case VarKind::Sampler:
                os_ << "uniform " << declOf(*v) << ";\n";
                break;
              case VarKind::ConstArray: {
                if (!used_.count(v))
                    break;
                const Type elem = v->type.elementType();
                os_ << "const " << declOf(*v) << " = " << elem.str()
                    << "[](";
                const int comp = elem.componentCount();
                for (int e = 0; e < v->type.arraySize; ++e) {
                    if (e)
                        os_ << ", ";
                    Instr tmp;
                    tmp.op = Opcode::Const;
                    tmp.type = elem;
                    tmp.constData.assign(
                        v->constInit.begin() + e * comp,
                        v->constInit.begin() + (e + 1) * comp);
                    os_ << constLiteral(tmp);
                }
                os_ << ");\n";
                break;
              }
              case VarKind::Local:
                break;
            }
        }
    }

    std::string declOf(const Var &v) const
    {
        if (v.type.isArray()) {
            return v.type.elementType().str() + " " + v.name + "[" +
                   std::to_string(v.type.arraySize) + "]";
        }
        return v.type.str() + " " + v.name;
    }

    void emitLocalDecls()
    {
        for (const auto &v : module_.vars) {
            if (v->kind != VarKind::Local || !used_.count(v))
                continue;
            if (counters_.count(v))
                continue; // declared by the for-header
            os_ << "    " << declOf(*v) << ";\n";
        }
    }

    // ------------------------------------------------------------------
    /** Rendered reference to a value at a use site. */
    std::string ref(const Instr *i, const std::string &suffix)
    {
        if (i->op == Opcode::Const)
            return constLiteral(*i);
        if (i->op == Opcode::LoadVar && i->var->isReadOnly())
            return i->var->name;
        if (i->op == Opcode::LoadVar &&
            counters_.count(i->var))
            return i->var->name;
        auto it = names_.find(i);
        if (it != names_.end())
            return it->second;
        // Not materialised yet (shouldn't happen in verified IR).
        return "_t" + std::to_string(i->id) + suffix;
    }

    std::string fresh()
    {
        return "_t" + std::to_string(nextTemp_++);
    }

    /** True if the instruction needs no statement of its own. */
    bool isInlinable(const Instr &i) const
    {
        if (i.op == Opcode::Const)
            return true;
        if (i.op == Opcode::LoadVar &&
            (i.var->isReadOnly() || counters_.count(i.var)))
            return true;
        return false;
    }

    void emitRegion(const Region &region, int indent,
                    const std::string &suffix)
    {
        for (const auto &node : region.nodes) {
            if (const auto *b = dyn_cast<Block>(node.get())) {
                for (const auto &i : b->instrs)
                    emitInstr(*i, indent, suffix);
            } else if (const auto *f = dyn_cast<IfNode>(node.get())) {
                pad(indent);
                os_ << "if (" << ref(f->cond, suffix) << ") {\n";
                emitRegion(f->thenRegion, indent + 1, suffix);
                if (!f->elseRegion.empty()) {
                    pad(indent);
                    os_ << "} else {\n";
                    emitRegion(f->elseRegion, indent + 1, suffix);
                }
                pad(indent);
                os_ << "}\n";
            } else if (const auto *l = dyn_cast<LoopNode>(node.get())) {
                emitLoop(*l, indent, suffix);
            }
        }
    }

    void emitLoop(const LoopNode &l, int indent,
                  const std::string &suffix)
    {
        if (l.canonical) {
            pad(indent);
            os_ << "for (int " << l.counter->name << " = " << l.init
                << "; " << l.counter->name << " < " << l.limit << "; "
                << l.counter->name << " += " << l.step << ") {\n";
            emitRegion(l.body, indent + 1, suffix);
            pad(indent);
            os_ << "}\n";
            return;
        }
        // Special case: the condition is exactly one load of a mutable
        // bool variable (the shape our own emission produces). Emit a
        // plain `while (flag)` — this makes emission a fixpoint under
        // re-parsing.
        if (l.condRegion.nodes.size() == 1) {
            const auto *cb = dyn_cast<Block>(l.condRegion.nodes[0].get());
            if (cb && cb->instrs.size() == 1 &&
                cb->instrs[0]->op == Opcode::LoadVar &&
                cb->instrs[0] == l.condValue &&
                cb->instrs[0]->var->kind == VarKind::Local) {
                pad(indent);
                os_ << "while (" << l.condValue->var->name << ") {\n";
                emitRegion(l.body, indent + 1, suffix);
                pad(indent);
                os_ << "}\n";
                return;
            }
        }
        // Generic loop without `break`: evaluate the condition before
        // the loop and re-evaluate it at the end of each iteration.
        const std::string lc = "_lc" + std::to_string(nextLoop_++);
        emitRegion(l.condRegion, indent, suffix);
        pad(indent);
        os_ << "bool " << lc << " = " << ref(l.condValue, suffix)
            << ";\n";
        pad(indent);
        os_ << "while (" << lc << ") {\n";
        emitRegion(l.body, indent + 1, suffix);
        // Second evaluation: temps get a distinct suffix to avoid
        // redeclaration.
        const std::string suffix2 = suffix + "_r";
        {
            // Temporarily shadow names_ for cond instrs: emit with the
            // new suffix, then restore.
            auto saved = names_;
            emitRegion(l.condRegion, indent + 1, suffix2);
            pad(indent + 1);
            os_ << lc << " = " << ref(l.condValue, suffix2) << ";\n";
            names_ = std::move(saved);
        }
        pad(indent);
        os_ << "}\n";
    }

    void pad(int indent)
    {
        os_.append(static_cast<size_t>(indent) * 4, ' ');
    }

    void emitInstr(const Instr &i, int indent, const std::string &suffix)
    {
        switch (i.op) {
          case Opcode::StoreVar:
            pad(indent);
            os_ << i.var->name << " = " << ref(i.operands[0], suffix)
                << ";\n";
            return;
          case Opcode::StoreElem:
            pad(indent);
            os_ << i.var->name << "[" << ref(i.operands[0], suffix)
                << "] = " << ref(i.operands[1], suffix) << ";\n";
            return;
          case Opcode::Discard:
            pad(indent);
            os_ << "discard;\n";
            return;
          default:
            break;
        }
        if (isInlinable(i))
            return;

        // Insert needs a two-statement lowering (copy + component set).
        if (i.op == Opcode::Insert) {
            std::string name = fresh() + suffix;
            pad(indent);
            os_ << i.type.str() << " " << name << " = "
                << ref(i.operands[0], suffix) << ";\n";
            pad(indent);
            os_ << name << "."
                << kSwizzleChar[static_cast<size_t>(i.indices[0])]
                << " = " << ref(i.operands[1], suffix) << ";\n";
            names_[&i] = name;
            return;
        }

        std::string name = fresh() + suffix;
        pad(indent);
        os_ << i.type.str() << " " << name << " = "
            << exprOf(i, suffix) << ";\n";
        names_[&i] = name;
    }

    std::string binaryInfix(const Instr &i, const char *op,
                            const std::string &suffix)
    {
        return ref(i.operands[0], suffix) + " " + op + " " +
               ref(i.operands[1], suffix);
    }

    /** A call of @p fn on the operands; a texture fetch's sampler is
     * its first argument. */
    std::string call(const Instr &i, std::string_view fn,
                     const std::string &suffix)
    {
        std::string out = std::string(fn) + "(";
        if (i.var)
            out += i.var->name + ", ";
        for (size_t k = 0; k < i.operands.size(); ++k) {
            if (k)
                out += ", ";
            out += ref(i.operands[k], suffix);
        }
        return out + ")";
    }

    std::string exprOf(const Instr &i, const std::string &suffix)
    {
        switch (i.op) {
          case Opcode::LoadVar:
            return i.var->name;
          case Opcode::LoadElem:
            return i.var->name + "[" + ref(i.operands[0], suffix) + "]";
          case Opcode::Neg:
            return "-(" + ref(i.operands[0], suffix) + ")";
          case Opcode::Not:
            return "!(" + ref(i.operands[0], suffix) + ")";
          case Opcode::Add:
            return binaryInfix(i, "+", suffix);
          case Opcode::Sub:
            return binaryInfix(i, "-", suffix);
          case Opcode::Mul:
            return binaryInfix(i, "*", suffix);
          case Opcode::Div:
            return binaryInfix(i, "/", suffix);
          case Opcode::Mod:
            if (i.type.isInt())
                return binaryInfix(i, "%", suffix);
            break;
          case Opcode::Lt:
            return binaryInfix(i, "<", suffix);
          case Opcode::Le:
            return binaryInfix(i, "<=", suffix);
          case Opcode::Gt:
            return binaryInfix(i, ">", suffix);
          case Opcode::Ge:
            return binaryInfix(i, ">=", suffix);
          case Opcode::Eq:
            return binaryInfix(i, "==", suffix);
          case Opcode::Ne:
            return binaryInfix(i, "!=", suffix);
          case Opcode::LogicalAnd:
            return binaryInfix(i, "&&", suffix);
          case Opcode::LogicalOr:
            return binaryInfix(i, "||", suffix);
          case Opcode::Select:
            return "(" + ref(i.operands[0], suffix) + " ? " +
                   ref(i.operands[1], suffix) + " : " +
                   ref(i.operands[2], suffix) + ")";
          case Opcode::Construct:
            return call(i, i.type.str(), suffix);
          case Opcode::Extract:
            return ref(i.operands[0], suffix) + "." +
                   kSwizzleChar[static_cast<size_t>(i.indices[0])];
          case Opcode::Swizzle: {
            std::string out = ref(i.operands[0], suffix) + ".";
            for (int idx : i.indices)
                out += kSwizzleChar[static_cast<size_t>(idx)];
            return out;
          }
          default:
            break;
        }
        if (const char *fn = glsl::builtinSpelling(i.op))
            return call(i, fn, suffix);
        return "/*?" + std::string(ir::opcodeName(i.op)) + "*/0.0";
    }

    const Module &module_;
    StringBuilder os_;
    std::unordered_set<const Var *> used_;
    std::unordered_set<const Var *> counters_;
    std::unordered_map<const Instr *, std::string> names_;
    int nextTemp_ = 0;
    int nextLoop_ = 0;
};

} // namespace

std::string
emitGlsl(const Module &module)
{
    return Emitter(module).run();
}

} // namespace gsopt::emit
