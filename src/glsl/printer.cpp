#include "glsl/printer.h"

#include "support/strings.h"

namespace gsopt::glsl {

namespace {

/** Operator precedence for minimal parenthesisation. */
int
precedence(const Expr &e)
{
    switch (e.kind) {
      case ExprKind::Ternary:
        return 1;
      case ExprKind::Binary:
        switch (e.binaryOp) {
          case BinaryOp::LogicalOr: return 2;
          case BinaryOp::LogicalAnd: return 3;
          case BinaryOp::Eq:
          case BinaryOp::Ne: return 4;
          case BinaryOp::Lt:
          case BinaryOp::Le:
          case BinaryOp::Gt:
          case BinaryOp::Ge: return 5;
          case BinaryOp::Add:
          case BinaryOp::Sub: return 6;
          case BinaryOp::Mul:
          case BinaryOp::Div:
          case BinaryOp::Mod: return 7;
        }
        return 7;
      case ExprKind::Unary:
        return 8;
      default:
        return 9; // primary
    }
}

const char *
binOpSpelling(BinaryOp op)
{
    switch (op) {
      case BinaryOp::Add: return "+";
      case BinaryOp::Sub: return "-";
      case BinaryOp::Mul: return "*";
      case BinaryOp::Div: return "/";
      case BinaryOp::Mod: return "%";
      case BinaryOp::Lt: return "<";
      case BinaryOp::Le: return "<=";
      case BinaryOp::Gt: return ">";
      case BinaryOp::Ge: return ">=";
      case BinaryOp::Eq: return "==";
      case BinaryOp::Ne: return "!=";
      case BinaryOp::LogicalAnd: return "&&";
      case BinaryOp::LogicalOr: return "||";
    }
    return "?";
}

void
printExprInto(const NameTable &names, const Expr &e, StringBuilder &os,
              int parent_prec)
{
    const int prec = precedence(e);
    const bool parens = prec < parent_prec;
    if (parens)
        os << "(";
    switch (e.kind) {
      case ExprKind::IntLit:
        os << e.intValue;
        break;
      case ExprKind::FloatLit:
        os << formatGlslFloat(e.floatValue);
        break;
      case ExprKind::BoolLit:
        os << (e.boolValue ? "true" : "false");
        break;
      case ExprKind::VarRef:
        os << names.str(e.name);
        break;
      case ExprKind::Unary:
        os << (e.unaryOp == UnaryOp::Not ? "!" : "-");
        printExprInto(names, *e.args[0], os, prec + 1);
        break;
      case ExprKind::Binary:
        printExprInto(names, *e.args[0], os, prec);
        os << " " << binOpSpelling(e.binaryOp) << " ";
        // Right operand binds tighter to preserve evaluation order of
        // non-associative operators (a - (b - c) keeps its parens).
        printExprInto(names, *e.args[1], os, prec + 1);
        break;
      case ExprKind::Ternary:
        printExprInto(names, *e.args[0], os, prec + 1);
        os << " ? ";
        printExprInto(names, *e.args[1], os, prec);
        os << " : ";
        printExprInto(names, *e.args[2], os, prec);
        break;
      case ExprKind::Call: {
        os << names.str(e.name) << "(";
        for (size_t i = 0; i < e.args.size(); ++i) {
            if (i)
                os << ", ";
            printExprInto(names, *e.args[i], os, 0);
        }
        os << ")";
        break;
      }
      case ExprKind::Construct: {
        if (e.ctorType.isArray()) {
            os << e.ctorType.elementType().str() << "[](";
        } else {
            os << e.ctorType.str() << "(";
        }
        for (size_t i = 0; i < e.args.size(); ++i) {
            if (i)
                os << ", ";
            printExprInto(names, *e.args[i], os, 0);
        }
        os << ")";
        break;
      }
      case ExprKind::Index:
        printExprInto(names, *e.args[0], os, prec);
        os << "[";
        printExprInto(names, *e.args[1], os, 0);
        os << "]";
        break;
      case ExprKind::Member:
        printExprInto(names, *e.args[0], os, prec);
        os << "." << names.str(e.name);
        break;
    }
    if (parens)
        os << ")";
}

void
printStmtInto(const NameTable &names, const Stmt &s, StringBuilder &os,
              int indent);

void
printBody(const NameTable &names, Span<Stmt *> body, StringBuilder &os,
          int indent)
{
    // Flatten a body that is a single brace-block so that `if (c) { .. }`
    // does not print doubled braces and round-trips byte-identically.
    if (body.size() == 1 && body[0]->kind == StmtKind::Block &&
        !body[0]->transparent) {
        printBody(names, body[0]->body, os, indent);
        return;
    }
    os << "{\n";
    for (const Stmt *b : body)
        printStmtInto(names, *b, os, indent + 1);
    os.append(static_cast<size_t>(indent) * 4, ' ');
    os << "}";
}

const char *
assignSpelling(AssignOp op)
{
    switch (op) {
      case AssignOp::Assign: return "=";
      case AssignOp::AddAssign: return "+=";
      case AssignOp::SubAssign: return "-=";
      case AssignOp::MulAssign: return "*=";
      case AssignOp::DivAssign: return "/=";
    }
    return "=";
}

/** Declaration spelling with GLSL's postfix array syntax. */
std::string
declSpelling(const Type &ty, std::string_view name)
{
    if (ty.isArray()) {
        return ty.elementType().str() + " " + std::string(name) + "[" +
               std::to_string(ty.arraySize) + "]";
    }
    return ty.str() + " " + std::string(name);
}

void
printStmtInto(const NameTable &names, const Stmt &s, StringBuilder &os,
              int indent)
{
    const auto pad = [&os, indent] {
        os.append(static_cast<size_t>(indent) * 4, ' ');
    };
    switch (s.kind) {
      case StmtKind::Block:
        if (s.transparent) {
            for (const Stmt *b : s.body)
                printStmtInto(names, *b, os, indent);
            break;
        }
        pad();
        printBody(names, s.body, os, indent);
        os << "\n";
        break;
      case StmtKind::Decl:
        pad();
        if (s.isConst)
            os << "const ";
        os << declSpelling(s.declType, names.str(s.name));
        if (s.rhs) {
            os << " = ";
            printExprInto(names, *s.rhs, os, 0);
        }
        os << ";\n";
        break;
      case StmtKind::Assign:
        pad();
        printExprInto(names, *s.lhs, os, 0);
        os << " " << assignSpelling(s.assignOp) << " ";
        printExprInto(names, *s.rhs, os, 0);
        os << ";\n";
        break;
      case StmtKind::ExprStmt:
        pad();
        printExprInto(names, *s.rhs, os, 0);
        os << ";\n";
        break;
      case StmtKind::If:
        pad();
        os << "if (";
        printExprInto(names, *s.cond, os, 0);
        os << ") ";
        printBody(names, s.body, os, indent);
        if (!s.elseBody.empty()) {
            os << " else ";
            printBody(names, s.elseBody, os, indent);
        }
        os << "\n";
        break;
      case StmtKind::For: {
        // The init and step render inline, without newline and ';'.
        const auto inline_stmt = [&names, &os](const Stmt *part) {
            if (!part)
                return;
            StringBuilder tmp;
            printStmtInto(names, *part, tmp, 0);
            std::string text = tmp.take();
            while (!text.empty() &&
                   (text.back() == '\n' || text.back() == ';'))
                text.pop_back();
            os << text;
        };
        pad();
        os << "for (";
        inline_stmt(s.init);
        os << "; ";
        if (s.cond)
            printExprInto(names, *s.cond, os, 0);
        os << "; ";
        inline_stmt(s.step);
        os << ") ";
        printBody(names, s.body, os, indent);
        os << "\n";
        break;
      }
      case StmtKind::While:
        pad();
        os << "while (";
        printExprInto(names, *s.cond, os, 0);
        os << ") ";
        printBody(names, s.body, os, indent);
        os << "\n";
        break;
      case StmtKind::Return:
        pad();
        os << "return";
        if (s.rhs) {
            os << " ";
            printExprInto(names, *s.rhs, os, 0);
        }
        os << ";\n";
        break;
      case StmtKind::Discard:
        pad();
        os << "discard;\n";
        break;
    }
}

const char *
qualSpelling(Qualifier q)
{
    switch (q) {
      case Qualifier::In: return "in ";
      case Qualifier::Out: return "out ";
      case Qualifier::Uniform: return "uniform ";
      case Qualifier::Const: return "const ";
      case Qualifier::Global: return "";
    }
    return "";
}

} // namespace

std::string
printExpr(const Shader &shader, const Expr &e)
{
    StringBuilder os;
    printExprInto(shader.names, e, os, 0);
    return os.take();
}

std::string
printStmt(const Shader &shader, const Stmt &s, int indent)
{
    StringBuilder os;
    printStmtInto(shader.names, s, os, indent);
    return os.take();
}

std::string
printShader(const Shader &shader)
{
    const NameTable &names = shader.names;
    StringBuilder os;
    if (shader.version)
        os << "#version " << shader.version << "\n";
    for (const auto &g : shader.globals) {
        os << qualSpelling(g.qual)
           << declSpelling(g.type, names.str(g.name));
        if (g.init) {
            os << " = ";
            printExprInto(names, *g.init, os, 0);
        }
        os << ";\n";
    }
    for (const auto &f : shader.functions) {
        os << f.returnType.str() << " " << names.str(f.name) << "(";
        for (size_t i = 0; i < f.params.size(); ++i) {
            if (i)
                os << ", ";
            os << declSpelling(f.params[i].type,
                               names.str(f.params[i].name));
        }
        os << ") ";
        printBody(names, f.body->body, os, 0);
        os << "\n";
    }
    return os.take();
}

} // namespace gsopt::glsl
