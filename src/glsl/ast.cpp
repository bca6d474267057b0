#include "glsl/ast.h"

#include <cstring>

#include "support/rng.h"

namespace gsopt::glsl {

size_t
NameTable::slotOf(std::string_view spelling) const
{
    const size_t mask = slots_.size() - 1;
    for (size_t s = fnv1a(spelling) & mask;; s = (s + 1) & mask) {
        if (slots_[s] == kNoName || spellings_[slots_[s]] == spelling)
            return s;
    }
}

void
NameTable::grow()
{
    slots_.assign(slots_.empty() ? 256 : slots_.size() * 2, kNoName);
    for (NameId id = 0; id < spellings_.size(); ++id)
        slots_[slotOf(spellings_[id])] = id;
}

NameId
NameTable::intern(std::string_view spelling)
{
    if (2 * (spellings_.size() + 1) > slots_.size())
        grow();
    const size_t s = slotOf(spelling);
    if (slots_[s] != kNoName)
        return slots_[s];
    char *chars = static_cast<char *>(chars_.allocate(spelling.size(), 1));
    if (!spelling.empty())
        std::memcpy(chars, spelling.data(), spelling.size());
    slots_[s] = static_cast<NameId>(spellings_.size());
    spellings_.emplace_back(chars, spelling.size());
    return slots_[s];
}

NameId
NameTable::find(std::string_view spelling) const
{
    return slots_.empty() ? kNoName : slots_[slotOf(spelling)];
}

NameTable
NameTable::extension() const
{
    NameTable t;
    t.spellings_ = spellings_;
    t.slots_ = slots_;
    return t;
}

std::optional<long>
literalIntOf(const Expr &e)
{
    if (e.kind == ExprKind::IntLit)
        return e.intValue;
    if (e.kind == ExprKind::Unary && e.unaryOp == UnaryOp::Neg) {
        if (auto inner = literalIntOf(*e.args[0]))
            return -*inner;
    }
    return std::nullopt;
}

Expr *
Shader::newExpr(ExprKind kind, SourceLoc loc)
{
    Expr *e = arena.create<Expr>();
    e->kind = kind;
    e->loc = loc;
    return e;
}

Stmt *
Shader::newStmt(StmtKind kind, SourceLoc loc)
{
    Stmt *s = arena.create<Stmt>();
    s->kind = kind;
    s->loc = loc;
    return s;
}

const FunctionDecl *
Shader::findFunction(NameId name) const
{
    for (const auto &f : functions) {
        if (f.name == name)
            return &f;
    }
    return nullptr;
}

} // namespace gsopt::glsl
