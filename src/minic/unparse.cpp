#include "minic/unparse.hpp"

#include <cstdio>

namespace pdc::minic {

namespace {

int precedence(const Expr& e) {
  if (e.kind != Expr::Kind::Binary) return 100;
  switch (e.bin) {
    case BinOp::Or: return 1;
    case BinOp::And: return 2;
    case BinOp::Eq:
    case BinOp::Ne: return 3;
    case BinOp::Lt:
    case BinOp::Le:
    case BinOp::Gt:
    case BinOp::Ge: return 4;
    case BinOp::Add:
    case BinOp::Sub: return 5;
    default: return 6;
  }
}

const char* bin_text(BinOp op) {
  switch (op) {
    case BinOp::Add: return "+";
    case BinOp::Sub: return "-";
    case BinOp::Mul: return "*";
    case BinOp::Div: return "/";
    case BinOp::Mod: return "%";
    case BinOp::Lt: return "<";
    case BinOp::Le: return "<=";
    case BinOp::Gt: return ">";
    case BinOp::Ge: return ">=";
    case BinOp::Eq: return "==";
    case BinOp::Ne: return "!=";
    case BinOp::And: return "&&";
    case BinOp::Or: return "||";
  }
  return "?";
}

std::string scalar_type(Type t) {
  return t == Type::Int || t == Type::IntArray ? "int"
         : t == Type::Void                     ? "void"
                                               : "double";
}

void emit_expr(const Expr& e, std::string& out, int parent_prec) {
  const int prec = precedence(e);
  switch (e.kind) {
    case Expr::Kind::IntLit:
      out += std::to_string(e.int_lit);
      break;
    case Expr::Kind::FloatLit: {
      char buf[48];
      std::snprintf(buf, sizeof buf, "%.17g", e.float_lit);
      out += buf;
      // Keep it lexically a float so the round trip preserves the type.
      std::string s{buf};
      if (s.find('.') == std::string::npos && s.find('e') == std::string::npos &&
          s.find('E') == std::string::npos && s.find("inf") == std::string::npos &&
          s.find("nan") == std::string::npos)
        out += ".0";
      break;
    }
    case Expr::Kind::Var:
      out += e.name;
      break;
    case Expr::Kind::Index:
      out += e.name;
      out += '[';
      emit_expr(*e.kids[0], out, 0);
      out += ']';
      break;
    case Expr::Kind::Unary:
      out += e.un == UnOp::Neg ? '-' : '!';
      emit_expr(*e.kids[0], out, 99);  // force parens around binary operands
      break;
    case Expr::Kind::Call: {
      out += e.name;
      out += '(';
      for (std::size_t i = 0; i < e.kids.size(); ++i) {
        if (i) out += ", ";
        emit_expr(*e.kids[i], out, 0);
      }
      out += ')';
      break;
    }
    case Expr::Kind::Binary: {
      const bool need_parens = prec < parent_prec;
      if (need_parens) out += '(';
      emit_expr(*e.kids[0], out, prec);
      out += ' ';
      out += bin_text(e.bin);
      out += ' ';
      emit_expr(*e.kids[1], out, prec + 1);  // left associative
      if (need_parens) out += ')';
      break;
    }
  }
}

void emit_indent(std::string& out, int depth) { out.append(static_cast<std::size_t>(depth) * 2, ' '); }

void emit_stmt(const Stmt& s, std::string& out, int depth);

void emit_body(const std::vector<StmtPtr>& body, std::string& out, int depth) {
  out += "{\n";
  for (const StmtPtr& s : body) emit_stmt(*s, out, depth + 1);
  emit_indent(out, depth);
  out += "}";
}

/// Emits an assignment without trailing ';' (for `for` steps).
void emit_assign_core(const Stmt& s, std::string& out) {
  if (s.kind == Stmt::Kind::Assign) {
    emit_expr(*s.lvalue, out, 0);
    out += " = ";
    emit_expr(*s.value, out, 0);
  } else {  // ExprStmt
    emit_expr(*s.value, out, 0);
  }
}

void emit_stmt(const Stmt& s, std::string& out, int depth) {
  emit_indent(out, depth);
  switch (s.kind) {
    case Stmt::Kind::Decl:
      out += scalar_type(s.decl_type);
      out += ' ';
      out += s.name;
      if (s.array_size) {
        out += '[';
        emit_expr(*s.array_size, out, 0);
        out += ']';
      }
      if (s.init) {
        out += " = ";
        emit_expr(*s.init, out, 0);
      }
      out += ";\n";
      break;
    case Stmt::Kind::Assign:
      emit_assign_core(s, out);
      out += ";\n";
      break;
    case Stmt::Kind::ExprStmt:
      emit_expr(*s.value, out, 0);
      out += ";\n";
      break;
    case Stmt::Kind::Return:
      out += "return";
      if (s.value) {
        out += ' ';
        emit_expr(*s.value, out, 0);
      }
      out += ";\n";
      break;
    case Stmt::Kind::If:
      out += "if (";
      emit_expr(*s.cond, out, 0);
      out += ") ";
      emit_body(s.body, out, depth);
      if (!s.else_body.empty()) {
        out += " else ";
        emit_body(s.else_body, out, depth);
      }
      out += "\n";
      break;
    case Stmt::Kind::While:
      out += "while (";
      emit_expr(*s.cond, out, 0);
      out += ") ";
      emit_body(s.body, out, depth);
      out += "\n";
      break;
    case Stmt::Kind::For: {
      out += "for (";
      if (s.for_init) {
        std::string init;
        emit_stmt(*s.for_init, init, 0);
        // Strip the trailing newline; keep the ';'.
        while (!init.empty() && (init.back() == '\n' || init.back() == ' ')) init.pop_back();
        out += init;
        out += ' ';
      } else {
        out += "; ";
      }
      if (s.cond) emit_expr(*s.cond, out, 0);
      out += "; ";
      if (s.for_step) emit_assign_core(*s.for_step, out);
      out += ") ";
      emit_body(s.body, out, depth);
      out += "\n";
      break;
    }
    case Stmt::Kind::Block:
      emit_body(s.body, out, depth);
      out += "\n";
      break;
  }
}

}  // namespace

std::string unparse(const Program& program) {
  std::string out;
  for (const Function& f : program.functions) {
    out += scalar_type(f.ret);
    out += ' ';
    out += f.name;
    out += '(';
    for (std::size_t i = 0; i < f.params.size(); ++i) {
      if (i) out += ", ";
      out += scalar_type(f.params[i].type);
      out += ' ';
      out += f.params[i].name;
      if (is_array(f.params[i].type)) out += "[]";
    }
    out += ") {\n";
    for (const StmtPtr& s : f.body) emit_stmt(*s, out, 1);
    out += "}\n\n";
  }
  return out;
}

}  // namespace pdc::minic
