#include "ir/ir.h"

#include <cstring>
#include <iterator>
#include <unordered_map>

#include "support/rng.h"

namespace gsopt::ir {

const char *
opcodeName(Opcode op)
{
    // In Opcode order.
    static constexpr const char *kNames[] = {
        "const", "neg", "not", "add", "sub", "mul", "div", "mod", "lt",
        "le", "gt", "ge", "eq", "ne", "and", "or", "sin", "cos", "tan",
        "asin", "acos", "atan", "exp", "log", "exp2", "log2", "sqrt",
        "inversesqrt", "abs", "sign", "floor", "ceil", "fract", "radians",
        "degrees", "normalize", "length", "atan2", "pow", "min", "max",
        "step", "distance", "dot", "cross", "reflect", "clamp", "mix",
        "smoothstep", "refract", "select", "construct", "extract",
        "insert", "swizzle", "texture", "texture_bias", "texture_lod",
        "load", "store", "load_elem", "store_elem", "discard",
    };
    static_assert(std::size(kNames) ==
                      static_cast<size_t>(Opcode::Discard) + 1,
                  "one name per opcode");
    const auto k = static_cast<size_t>(op);
    return k < std::size(kNames) ? kNames[k] : "?";
}

bool
hasSideEffects(Opcode op)
{
    return op == Opcode::StoreVar || op == Opcode::StoreElem ||
           op == Opcode::Discard;
}

bool
Instr::isSplatConst() const
{
    if (op != Opcode::Const || constData.empty())
        return false;
    for (double d : constData) {
        if (d != constData[0])
            return false;
    }
    return true;
}

size_t
Region::instructionCount() const
{
    size_t n = 0;
    for (const auto &node : nodes) {
        if (const auto *b = dyn_cast<Block>(node.get())) {
            n += b->instrs.size();
        } else if (const auto *f = dyn_cast<IfNode>(node.get())) {
            n += f->thenRegion.instructionCount() +
                 f->elseRegion.instructionCount();
        } else if (const auto *l = dyn_cast<LoopNode>(node.get())) {
            n += l->condRegion.instructionCount() +
                 l->body.instructionCount();
        }
    }
    return n;
}

Module::~Module()
{
    // Vars carry a name string and const-init vector, so they are the
    // one arena object class that needs explicit destruction. There are
    // a few dozen per shader; instructions (the thousands) are freed
    // wholesale with the arena chunks.
    for (Var *v : vars)
        v->~Var();
}

Var *
Module::newVar(std::string name, Type type, VarKind kind)
{
    Var *var = arena_.createWithCallerManagedDtor<Var>();
    var->id = nextVarId_++;
    var->name = std::move(name);
    var->type = type;
    var->kind = kind;
    vars.push_back(var);
    return var;
}

namespace {

/**
 * Slot-indexed region deep-copy preserving instruction ids (unlike
 * walk.h's cloneRegionInto, which allocates fresh ones). Every source
 * instruction is struct-copied into @p arena, then its operand/var
 * pointers are remapped through the dense id-indexed tables. References
 * to values or vars outside the source module (slot empty or id out of
 * range) are kept as-is, matching the old hash-map behaviour.
 */
struct ExactCloner
{
    Arena &arena;
    std::vector<Var *> &varBySlot;
    std::vector<Instr *> &instrBySlot;

    Var *mappedVar(Var *v) const
    {
        if (!v)
            return nullptr;
        const auto slot = static_cast<size_t>(v->id);
        if (v->id < 0 || slot >= varBySlot.size() || !varBySlot[slot])
            return v;
        return varBySlot[slot];
    }

    Instr *mappedValue(Instr *i) const
    {
        if (!i)
            return nullptr;
        const auto slot = static_cast<size_t>(i->id);
        if (i->id < 0 || slot >= instrBySlot.size() ||
            !instrBySlot[slot])
            return i;
        return instrBySlot[slot];
    }

    void cloneRegion(const Region &src, Region &dst)
    {
        dst.nodes.reserve(src.nodes.size());
        for (const auto &node : src.nodes) {
            if (const auto *b = dyn_cast<Block>(node.get())) {
                auto nb = std::make_unique<Block>();
                nb->instrs.reserve(b->instrs.size());
                for (const Instr *i : b->instrs) {
                    Instr *ni = arena.create<Instr>(*i);
                    ni->var = mappedVar(ni->var);
                    for (Instr *&op : ni->operands)
                        op = mappedValue(op);
                    instrBySlot[static_cast<size_t>(i->id)] = ni;
                    nb->instrs.push_back(ni);
                }
                dst.nodes.push_back(std::move(nb));
            } else if (const auto *f = dyn_cast<IfNode>(node.get())) {
                auto nf = std::make_unique<IfNode>();
                nf->cond = mappedValue(f->cond);
                cloneRegion(f->thenRegion, nf->thenRegion);
                cloneRegion(f->elseRegion, nf->elseRegion);
                dst.nodes.push_back(std::move(nf));
            } else if (const auto *l = dyn_cast<LoopNode>(node.get())) {
                auto nl = std::make_unique<LoopNode>();
                nl->canonical = l->canonical;
                nl->counter = mappedVar(l->counter);
                nl->init = l->init;
                nl->limit = l->limit;
                nl->step = l->step;
                cloneRegion(l->condRegion, nl->condRegion);
                nl->condValue = mappedValue(l->condValue);
                cloneRegion(l->body, nl->body);
                dst.nodes.push_back(std::move(nl));
            }
        }
    }
};

} // namespace

std::unique_ptr<Module>
Module::clone() const
{
    auto out = std::make_unique<Module>();
    // One right-sized chunk fits the whole clone: instructions and
    // vars land contiguously, and no growth happens mid-copy. The
    // slack absorbs alignment-padding differences (the clone packs
    // vars first, the source allocated in build order).
    out->arena_.reserveHint(arena_.bytesUsed() + 64);

    std::vector<Var *> varBySlot(static_cast<size_t>(nextVarId_),
                                 nullptr);
    out->vars.reserve(vars.size());
    for (const Var *v : vars) {
        Var *nv = out->arena_.createWithCallerManagedDtor<Var>(*v);
        varBySlot[static_cast<size_t>(v->id)] = nv;
        out->vars.push_back(nv);
    }

    std::vector<Instr *> instrBySlot(static_cast<size_t>(nextId_),
                                     nullptr);
    ExactCloner cloner{out->arena_, varBySlot, instrBySlot};
    cloner.cloneRegion(body, out->body);
    out->nextId_ = nextId_;
    out->nextVarId_ = nextVarId_;
    return out;
}

namespace {

/** Running-hash state for fingerprint(): values are numbered by their
 * position in the structural walk so id history cannot leak in. */
struct Fingerprinter
{
    uint64_t h = 0xcbf29ce484222325ull;
    std::unordered_map<const Instr *, uint64_t> position;
    uint64_t nextPosition = 1; // 0 = null/external reference
    std::unordered_map<const Var *, uint64_t> varPosition; // 1-based

    uint64_t positionOfVar(const Var *v) const
    {
        if (!v)
            return 0;
        auto it = varPosition.find(v);
        return it == varPosition.end() ? 0 : it->second;
    }

    void mix(uint64_t v) { h = hashCombine(h, v); }

    void mixDouble(double d)
    {
        uint64_t bits = 0;
        std::memcpy(&bits, &d, sizeof(bits));
        mix(bits);
    }

    void mixType(const Type &t)
    {
        mix((static_cast<uint64_t>(t.base) << 48) ^
            (static_cast<uint64_t>(t.cols) << 32) ^
            (static_cast<uint64_t>(t.rows) << 16) ^
            static_cast<uint64_t>(static_cast<uint16_t>(t.arraySize)));
    }

    uint64_t positionOf(const Instr *i)
    {
        if (!i)
            return 0;
        auto it = position.find(i);
        return it == position.end() ? 0 : it->second;
    }

    void walk(const Region &region)
    {
        mix(0x5245); // region open tag
        for (const auto &node : region.nodes) {
            if (const auto *b = dyn_cast<Block>(node.get())) {
                mix(0x424c);
                for (const Instr *i : b->instrs)
                    walkInstr(*i);
            } else if (const auto *f = dyn_cast<IfNode>(node.get())) {
                mix(0x4946);
                mix(positionOf(f->cond));
                walk(f->thenRegion);
                walk(f->elseRegion);
            } else if (const auto *l = dyn_cast<LoopNode>(node.get())) {
                mix(0x4c50);
                mix(l->canonical);
                mix(positionOfVar(l->counter));
                mix(static_cast<uint64_t>(l->init));
                mix(static_cast<uint64_t>(l->limit));
                mix(static_cast<uint64_t>(l->step));
                walk(l->condRegion);
                mix(positionOf(l->condValue));
                walk(l->body);
            }
        }
        mix(0x2f52); // region close tag
    }

    void walkInstr(const Instr &i)
    {
        position[&i] = nextPosition++;
        mix(static_cast<uint64_t>(i.op));
        mixType(i.type);
        mix(positionOfVar(i.var));
        mix(i.operands.size());
        for (const Instr *op : i.operands)
            mix(positionOf(op));
        mix(i.indices.size());
        for (int idx : i.indices)
            mix(static_cast<uint64_t>(idx));
        mix(i.constData.size());
        for (double d : i.constData)
            mixDouble(d);
    }
};

} // namespace

uint64_t
fingerprint(const Module &module)
{
    Fingerprinter fp;
    fp.position.reserve(module.instructionCount());
    fp.varPosition.reserve(module.vars.size());
    fp.mix(module.vars.size());
    for (const Var *v : module.vars) {
        const uint64_t pos = fp.varPosition.size() + 1;
        fp.varPosition[v] = pos;
        fp.mix(fnv1a(v->name));
        fp.mixType(v->type);
        fp.mix(static_cast<uint64_t>(v->kind));
        fp.mix(v->constInit.size());
        for (double d : v->constInit)
            fp.mixDouble(d);
    }
    fp.walk(module.body);
    return fp.h;
}

Var *
Module::findVar(const std::string &name) const
{
    for (Var *v : vars) {
        if (v->name == name)
            return v;
    }
    return nullptr;
}

} // namespace gsopt::ir
