#include "ir/verifier.h"

#include <stdexcept>

#include "ir/dump.h"

namespace gsopt::ir {

namespace {

class Verifier
{
  public:
    explicit Verifier(const Module &module) : module_(module) {}

    std::vector<std::string> run()
    {
        for (const auto &v : module_.vars) {
            if (v->kind == VarKind::ConstArray && v->constInit.empty())
                problem("const array @" + v->name + " has no data");
        }
        defined_.assign(static_cast<size_t>(module_.idBound()), nullptr);
        checkRegion(module_.body);
        return std::move(problems_);
    }

  private:
    void problem(const std::string &msg) { problems_.push_back(msg); }

    void checkOperandVisible(const Instr &user, const Instr *op)
    {
        if (!op) {
            problem("null operand in: " + dumpInstr(user));
            return;
        }
        if (!isDefined(op)) {
            problem("operand %" + std::to_string(op->id) +
                    " not defined before use in: " + dumpInstr(user));
        }
    }

    void checkRegion(const Region &region)
    {
        for (const auto &node : region.nodes) {
            if (const auto *b = dyn_cast<Block>(node.get())) {
                for (const auto &i : b->instrs)
                    checkInstr(*i);
            } else if (const auto *f = dyn_cast<IfNode>(node.get())) {
                if (!f->cond) {
                    problem("if node without condition");
                } else {
                    if (!isDefined(f->cond))
                        problem("if condition %" +
                                std::to_string(f->cond->id) +
                                " not defined before the if");
                    if (f->cond->type != Type::boolTy())
                        problem("if condition must be scalar bool");
                }
                // Values from the branches do not escape: passes must
                // communicate through vars. Enforce by scoping.
                const size_t scope = definedLog_.size();
                checkRegion(f->thenRegion);
                undefineSince(scope);
                checkRegion(f->elseRegion);
                undefineSince(scope);
            } else if (const auto *l = dyn_cast<LoopNode>(node.get())) {
                if (l->canonical) {
                    if (!l->counter) {
                        problem("canonical loop without counter var");
                    } else if (!ownsVar(l->counter)) {
                        problem("loop counter not owned by module");
                    }
                    if (l->step <= 0)
                        problem("canonical loop with non-positive step");
                } else if (!l->condValue) {
                    problem("generic loop without condition value");
                }
                const size_t scope = definedLog_.size();
                if (!l->canonical) {
                    checkRegion(l->condRegion);
                    if (l->condValue && !isDefined(l->condValue))
                        problem("loop condition value not defined in "
                                "cond region");
                    // Cond-region values are NOT visible to the body:
                    // the GLSL back end re-evaluates the condition at a
                    // different program point, so any cross-reference
                    // would change meaning after a round trip.
                    undefineSince(scope);
                }
                checkRegion(l->body);
                undefineSince(scope);
            }
        }
    }

    void checkInstr(const Instr &i)
    {
        for (const Instr *op : i.operands)
            checkOperandVisible(i, op);

        switch (i.op) {
          case Opcode::Const:
            if (static_cast<int>(i.constData.size()) !=
                i.type.componentCount())
                problem("const lane count mismatch: " + dumpInstr(i));
            break;
          case Opcode::LoadVar:
            if (!i.var) {
                problem("load without var");
            } else if (i.type != i.var->type) {
                problem("load type mismatch: " + dumpInstr(i));
            }
            break;
          case Opcode::StoreVar:
            if (!i.var) {
                problem("store without var");
            } else {
                if (i.var->isReadOnly())
                    problem("store to read-only var @" + i.var->name);
                if (i.operands.size() == 1 && i.operands[0] &&
                    i.operands[0]->type != i.var->type)
                    problem("store type mismatch: " + dumpInstr(i));
            }
            break;
          case Opcode::LoadElem:
          case Opcode::StoreElem:
            if (!i.var) {
                problem("element access without var");
            } else if (!i.var->type.isArray() &&
                       !i.var->type.isMatrix()) {
                problem("element access on non-array var @" +
                        i.var->name);
            }
            if (i.op == Opcode::StoreElem &&
                i.var && i.var->isReadOnly())
                problem("element store to read-only var @" + i.var->name);
            break;
          case Opcode::Extract:
            if (i.indices.size() != 1 ||
                !i.operands[0]->type.isVector() ||
                i.indices[0] < 0 ||
                i.indices[0] >= i.operands[0]->type.rows)
                problem("bad extract: " + dumpInstr(i));
            break;
          case Opcode::Insert:
            if (i.indices.size() != 1 || i.operands.size() != 2 ||
                !i.type.isVector() || i.indices[0] < 0 ||
                i.indices[0] >= i.type.rows)
                problem("bad insert: " + dumpInstr(i));
            break;
          case Opcode::Swizzle: {
            if (i.operands.size() != 1 ||
                !i.operands[0]->type.isVector()) {
                problem("bad swizzle source: " + dumpInstr(i));
                break;
            }
            for (int idx : i.indices) {
                if (idx < 0 || idx >= i.operands[0]->type.rows)
                    problem("swizzle index out of range: " +
                            dumpInstr(i));
            }
            break;
          }
          case Opcode::Select:
            if (i.operands.size() != 3 ||
                i.operands[0]->type != Type::boolTy())
                problem("bad select: " + dumpInstr(i));
            else if (i.operands[1]->type != i.operands[2]->type)
                problem("select arm type mismatch: " + dumpInstr(i));
            break;
          case Opcode::Add:
          case Opcode::Sub:
          case Opcode::Mul:
          case Opcode::Div:
            if (i.operands.size() != 2)
                problem("binary op arity: " + dumpInstr(i));
            else if (i.operands[0]->type != i.operands[1]->type)
                problem("binary op operand types differ (" +
                        i.operands[0]->type.str() + " vs " +
                        i.operands[1]->type.str() +
                        "): " + dumpInstr(i));
            break;
          case Opcode::Texture:
          case Opcode::TextureBias:
          case Opcode::TextureLod:
            if (!i.var || i.var->kind != VarKind::Sampler)
                problem("texture op needs a sampler var: " +
                        dumpInstr(i));
            break;
          default:
            break;
        }
        if (!hasSideEffects(i.op))
            define(i);
    }

    // The values visible at the current point, by Instr::id: a scope's
    // definitions are logged, and leaving the scope undoes them.
    bool isDefined(const Instr *i) const
    {
        const auto id = static_cast<size_t>(i->id);
        return i->id >= 0 && id < defined_.size() && defined_[id] == i;
    }
    void define(const Instr &i)
    {
        const auto id = static_cast<size_t>(i.id);
        if (i.id < 0)
            return; // never visible: every use reports it
        if (id >= defined_.size()) // not the module's: keep it checkable
            defined_.resize(id + 1);
        definedLog_.emplace_back(id, defined_[id]);
        defined_[id] = &i;
    }
    void undefineSince(size_t scope)
    {
        for (; definedLog_.size() > scope; definedLog_.pop_back())
            defined_[definedLog_.back().first] = definedLog_.back().second;
    }

    bool ownsVar(const Var *v) const
    {
        const auto id = static_cast<size_t>(v->id);
        return v->id >= 0 && id < module_.vars.size() &&
               module_.vars[id] == v;
    }

    const Module &module_;
    std::vector<std::string> problems_;
    std::vector<const Instr *> defined_;
    /** (id, what defined_[id] held before), per definition. */
    std::vector<std::pair<size_t, const Instr *>> definedLog_;
};

} // namespace

std::vector<std::string>
verify(const Module &module)
{
    return Verifier(module).run();
}

void
verifyOrDie(const Module &module, const std::string &context)
{
    auto problems = verify(module);
    if (problems.empty())
        return;
    std::string msg = "IR verification failed (" + context + "):";
    for (const auto &p : problems)
        msg += "\n  " + p;
    throw std::logic_error(msg);
}

} // namespace gsopt::ir
