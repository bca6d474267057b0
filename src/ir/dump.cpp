#include "ir/dump.h"

#include <sstream>

#include "support/strings.h"

namespace gsopt::ir {

namespace {

const char *
varKindName(VarKind k)
{
    switch (k) {
      case VarKind::Local: return "local";
      case VarKind::Input: return "in";
      case VarKind::Output: return "out";
      case VarKind::Uniform: return "uniform";
      case VarKind::Sampler: return "sampler";
      case VarKind::ConstArray: return "const";
    }
    return "?";
}

void
dumpRegion(const Region &region, std::ostringstream &os, int indent);

void
dumpBlockInto(const Block &b, std::ostringstream &os, int indent)
{
    const std::string pad(static_cast<size_t>(indent) * 2, ' ');
    for (const auto &i : b.instrs)
        os << pad << dumpInstr(*i) << "\n";
}

void
dumpRegion(const Region &region, std::ostringstream &os, int indent)
{
    const std::string pad(static_cast<size_t>(indent) * 2, ' ');
    for (const auto &node : region.nodes) {
        if (const auto *b = dyn_cast<Block>(node.get())) {
            dumpBlockInto(*b, os, indent);
        } else if (const auto *f = dyn_cast<IfNode>(node.get())) {
            os << pad << "if %" << (f->cond ? f->cond->id : -1) << " {\n";
            dumpRegion(f->thenRegion, os, indent + 1);
            if (!f->elseRegion.empty()) {
                os << pad << "} else {\n";
                dumpRegion(f->elseRegion, os, indent + 1);
            }
            os << pad << "}\n";
        } else if (const auto *l = dyn_cast<LoopNode>(node.get())) {
            if (l->canonical) {
                os << pad << "loop " << l->counter->name << " = ["
                   << l->init << ", " << l->limit << ") step " << l->step
                   << " {\n";
            } else {
                os << pad << "loop while %"
                   << (l->condValue ? l->condValue->id : -1) << " {\n";
                dumpRegion(l->condRegion, os, indent + 1);
                os << pad << "-- body --\n";
            }
            dumpRegion(l->body, os, indent + 1);
            os << pad << "}\n";
        }
    }
}

} // namespace

std::string
dumpInstr(const Instr &instr)
{
    std::ostringstream os;
    if (!hasSideEffects(instr.op))
        os << "%" << instr.id << " = ";
    os << opcodeName(instr.op) << " " << instr.type.str();
    if (instr.var)
        os << " @" << instr.var->name;
    for (const Instr *op : instr.operands)
        os << " %" << (op ? op->id : -1);
    if (!instr.indices.empty()) {
        os << " [";
        for (size_t i = 0; i < instr.indices.size(); ++i)
            os << (i ? "," : "") << instr.indices[i];
        os << "]";
    }
    if (instr.op == Opcode::Const) {
        os << " {";
        for (size_t i = 0; i < instr.constData.size(); ++i)
            os << (i ? "," : "") << formatGlslFloat(instr.constData[i]);
        os << "}";
    }
    return os.str();
}

std::string
dump(const Module &module)
{
    std::ostringstream os;
    for (const auto &v : module.vars) {
        os << "var @" << v->name << " : " << v->type.str() << " "
           << varKindName(v->kind);
        if (!v->constInit.empty()) {
            os << " = {";
            for (size_t i = 0; i < v->constInit.size() && i < 8; ++i)
                os << (i ? "," : "") << formatGlslFloat(v->constInit[i]);
            if (v->constInit.size() > 8)
                os << ",...";
            os << "}";
        }
        os << "\n";
    }
    os << "body:\n";
    dumpRegion(module.body, os, 1);
    return os.str();
}

} // namespace gsopt::ir
