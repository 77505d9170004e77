"""Recursive-descent parser for MiniC."""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.errors import ParseError
from repro.frontend import cast as ast
from repro.frontend.lexer import Token, tokenize

_TYPE_KEYWORDS = frozenset(
    {"void", "char", "short", "int", "long", "unsigned", "signed"}
)

# Binary operator precedence, higher binds tighter.
_BINARY_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4,
    "&": 5,
    "==": 6, "!=": 6,
    "<": 7, ">": 7, "<=": 7, ">=": 7,
    "<<": 8, ">>": 8,
    "+": 9, "-": 9,
    "*": 10, "/": 10, "%": 10,
}

_ASSIGN_OPS = {
    "=": "", "+=": "+", "-=": "-", "*=": "*", "/=": "/", "%=": "%",
    "&=": "&", "|=": "|", "^=": "^", "<<=": "<<", ">>=": ">>",
}


class Parser:
    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.pos = 0

    # -- token plumbing ------------------------------------------------------
    @property
    def current(self) -> Token:
        return self.tokens[self.pos]

    def peek(self, ahead: int = 1) -> Token:
        index = min(self.pos + ahead, len(self.tokens) - 1)
        return self.tokens[index]

    def advance(self) -> Token:
        token = self.current
        if token.kind != "eof":
            self.pos += 1
        return token

    def _error(self, message: str, token: Optional[Token] = None) -> ParseError:
        token = token or self.current
        return ParseError(message, token.line, token.column)

    def int_value(self, token: Token) -> int:
        """A number token's value by C's rules: ``0x`` is hex, another
        leading ``0`` octal; ``u``/``l`` suffixes are dropped."""
        text = token.text.rstrip("uUlL")
        base = 16 if text[:2] in ("0x", "0X") else 8 if text[0] == "0" else 10
        try:
            return int(text, base)
        except ValueError:
            raise self._error(f"bad octal literal {token.text!r}",
                              token) from None

    def expect_op(self, op: str) -> Token:
        if not self.current.is_op(op):
            raise self._error(f"expected {op!r}, found {self.current.text!r}")
        return self.advance()

    def accept_op(self, op: str) -> bool:
        if self.current.is_op(op):
            self.advance()
            return True
        return False

    # -- types -----------------------------------------------------------------
    def at_type(self) -> bool:
        return self.current.kind == "keyword" and (
            self.current.text in _TYPE_KEYWORDS
        )

    def parse_base_type(self) -> ast.CType:
        """Parse a type-specifier sequence like ``unsigned short``."""
        signedness: Optional[bool] = None
        rank: Optional[str] = None
        saw_void = False
        start = self.current
        while self.at_type():
            word = self.advance().text
            if word == "void":
                saw_void = True
            elif word == "unsigned":
                signedness = False
            elif word == "signed":
                signedness = True
            else:
                if rank is not None:
                    raise self._error(
                        f"conflicting type specifiers {rank!r} and {word!r}",
                        start,
                    )
                rank = word
        if saw_void:
            if rank is not None or signedness is not None:
                raise self._error("void cannot be qualified", start)
            return ast.VoidType()
        if rank is None:
            rank = "int"  # bare 'unsigned' / 'signed'
        return ast.IntType(rank, signed=signedness is not False)

    def parse_pointers(self, base: ast.CType) -> ast.CType:
        ctype = base
        while self.accept_op("*"):
            ctype = ast.PointerType(ctype)
        return ctype

    # -- top level ----------------------------------------------------------------
    def parse_program(self) -> ast.Program:
        decls: List[ast.Node] = []
        while self.current.kind != "eof":
            decls.append(self.parse_top_level())
        return ast.Program(decls)

    def parse_top_level(self) -> ast.Node:
        if not self.at_type():
            raise self._error(
                f"expected a declaration, found {self.current.text!r}"
            )
        line = self.current.line
        base = self.parse_base_type()
        ctype = self.parse_pointers(base)
        name_token = self.advance()
        if name_token.kind != "ident":
            raise self._error("expected a name", name_token)
        if self.current.is_op("("):
            return self.parse_function(ctype, name_token.text, line)
        ctype = self.parse_array_suffix(ctype)
        init = None
        if self.accept_op("="):
            init = self.parse_assignment()
        self.expect_op(";")
        return ast.VarDecl(ctype, name_token.text, init, line)

    def parse_array_suffix(self, ctype: ast.CType) -> ast.CType:
        sizes: List[int] = []
        while self.accept_op("["):
            size_token = self.advance()
            if size_token.kind != "number":
                raise self._error(
                    "array sizes must be integer literals", size_token
                )
            sizes.append(self.int_value(size_token))
            self.expect_op("]")
        for size in reversed(sizes):
            ctype = ast.ArrayType(ctype, size)
        return ctype

    def parse_function(
        self, ret_type: ast.CType, name: str, line: int
    ) -> ast.FuncDef:
        self.expect_op("(")
        params: List[ast.Param] = []
        if not self.current.is_op(")"):
            if self.current.is_keyword("void") and self.peek().is_op(")"):
                self.advance()
            else:
                while True:
                    if not self.at_type():
                        raise self._error("expected a parameter type")
                    param_line = self.current.line
                    base = self.parse_base_type()
                    ptype = self.parse_pointers(base)
                    pname_token = self.advance()
                    if pname_token.kind != "ident":
                        raise self._error(
                            "expected a parameter name", pname_token
                        )
                    # Array parameters decay to pointers, as in C.  Only
                    # the outermost dimension decays: ``m[][64]`` is a
                    # pointer to rows of 64 elements, so row arithmetic
                    # scales by the full row size.
                    if self.accept_op("["):
                        if self.current.kind == "number":
                            self.advance()
                        self.expect_op("]")
                        ptype = ast.PointerType(
                            self.parse_array_suffix(ptype)
                        )
                    params.append(
                        ast.Param(ptype, pname_token.text, param_line)
                    )
                    if not self.accept_op(","):
                        break
        self.expect_op(")")
        body = self.parse_block()
        return ast.FuncDef(ret_type, name, params, body, line)

    # -- statements ------------------------------------------------------------------
    def parse_block(self) -> ast.Block:
        line = self.current.line
        self.expect_op("{")
        stmts: List[ast.Stmt] = []
        while not self.current.is_op("}"):
            if self.current.kind == "eof":
                raise self._error("unterminated block")
            stmts.append(self.parse_statement())
        self.expect_op("}")
        return ast.Block(stmts, line)

    def parse_statement(self) -> ast.Stmt:
        token = self.current
        if token.is_op("{"):
            return self.parse_block()
        if self.at_type():
            return self.parse_local_decl()
        if token.is_keyword("if"):
            return self.parse_if()
        if token.is_keyword("while"):
            return self.parse_while()
        if token.is_keyword("do"):
            return self.parse_do_while()
        if token.is_keyword("for"):
            return self.parse_for()
        if token.is_keyword("return"):
            self.advance()
            value = None
            if not self.current.is_op(";"):
                value = self.parse_expression()
            self.expect_op(";")
            return ast.Return(value, token.line)
        if token.is_keyword("break"):
            self.advance()
            self.expect_op(";")
            return ast.Break(token.line)
        if token.is_keyword("continue"):
            self.advance()
            self.expect_op(";")
            return ast.Continue(token.line)
        if token.is_op(";"):
            self.advance()
            return ast.Block([], token.line)
        expr = self.parse_expression()
        self.expect_op(";")
        return ast.ExprStmt(expr, token.line)

    def parse_local_decl(self) -> ast.Stmt:
        line = self.current.line
        base = self.parse_base_type()
        decls: List[ast.Stmt] = []
        while True:
            ctype = self.parse_pointers(base)
            name_token = self.advance()
            if name_token.kind != "ident":
                raise self._error("expected a variable name", name_token)
            ctype = self.parse_array_suffix(ctype)
            init = None
            if self.accept_op("="):
                init = self.parse_assignment()
            decls.append(ast.VarDecl(ctype, name_token.text, init, line))
            if not self.accept_op(","):
                break
        self.expect_op(";")
        if len(decls) == 1:
            return decls[0]
        return ast.DeclGroup(decls, line)

    def parse_if(self) -> ast.If:
        line = self.advance().line  # 'if'
        self.expect_op("(")
        cond = self.parse_expression()
        self.expect_op(")")
        then = self.parse_statement()
        other = None
        if self.current.is_keyword("else"):
            self.advance()
            other = self.parse_statement()
        return ast.If(cond, then, other, line)

    def parse_while(self) -> ast.While:
        line = self.advance().line  # 'while'
        self.expect_op("(")
        cond = self.parse_expression()
        self.expect_op(")")
        body = self.parse_statement()
        return ast.While(cond, body, line)

    def parse_do_while(self) -> ast.DoWhile:
        line = self.advance().line  # 'do'
        body = self.parse_statement()
        if not self.current.is_keyword("while"):
            raise self._error("expected 'while' after do-body")
        self.advance()
        self.expect_op("(")
        cond = self.parse_expression()
        self.expect_op(")")
        self.expect_op(";")
        return ast.DoWhile(body, cond, line)

    def parse_for(self) -> ast.For:
        line = self.advance().line  # 'for'
        self.expect_op("(")
        init: Optional[ast.Stmt] = None
        if not self.current.is_op(";"):
            if self.at_type():
                init = self.parse_local_decl()
            else:
                init = ast.ExprStmt(self.parse_expression(), line)
                self.expect_op(";")
        else:
            self.advance()
        cond = None
        if not self.current.is_op(";"):
            cond = self.parse_expression()
        self.expect_op(";")
        step = None
        if not self.current.is_op(")"):
            step = self.parse_expression()
        self.expect_op(")")
        body = self.parse_statement()
        return ast.For(init, cond, step, body, line)

    # -- expressions ---------------------------------------------------------------------
    def parse_expression(self) -> ast.Expr:
        return self.parse_assignment()

    def parse_assignment(self) -> ast.Expr:
        left = self.parse_conditional()
        token = self.current
        if token.kind == "op" and token.text in _ASSIGN_OPS:
            self.advance()
            value = self.parse_assignment()  # right associative
            return ast.Assign(_ASSIGN_OPS[token.text], left, value, token.line)
        return left

    def parse_conditional(self) -> ast.Expr:
        cond = self.parse_binary(1)
        if self.current.is_op("?"):
            line = self.advance().line
            then = self.parse_expression()
            self.expect_op(":")
            other = self.parse_conditional()
            return ast.Conditional(cond, then, other, line)
        return cond

    def parse_binary(self, min_precedence: int) -> ast.Expr:
        left = self.parse_unary()
        while True:
            token = self.current
            precedence = (
                _BINARY_PRECEDENCE.get(token.text)
                if token.kind == "op"
                else None
            )
            if precedence is None or precedence < min_precedence:
                return left
            self.advance()
            right = self.parse_binary(precedence + 1)
            left = ast.Binary(token.text, left, right, token.line)

    def parse_unary(self) -> ast.Expr:
        token = self.current
        if token.is_op("-", "~", "!", "*", "&"):
            self.advance()
            return ast.Unary(token.text, self.parse_unary(), token.line)
        if token.is_op("+"):
            self.advance()
            return self.parse_unary()
        if token.is_op("++", "--"):
            self.advance()
            return ast.IncDec(
                token.text, self.parse_unary(), True, token.line
            )
        if token.is_keyword("sizeof"):
            self.advance()
            self.expect_op("(")
            if not self.at_type():
                raise self._error("sizeof expects a type")
            base = self.parse_base_type()
            ctype = self.parse_pointers(base)
            self.expect_op(")")
            return ast.SizeOf(ctype, token.line)
        if token.is_op("(") and self._starts_cast():
            self.advance()
            base = self.parse_base_type()
            ctype = self.parse_pointers(base)
            self.expect_op(")")
            return ast.Cast(ctype, self.parse_unary(), token.line)
        return self.parse_postfix()

    def _starts_cast(self) -> bool:
        """True when ``(`` begins a cast: next token is a type keyword."""
        next_token = self.peek()
        return next_token.kind == "keyword" and (
            next_token.text in _TYPE_KEYWORDS
        )

    def parse_postfix(self) -> ast.Expr:
        expr = self.parse_primary()
        while True:
            token = self.current
            if token.is_op("["):
                self.advance()
                index = self.parse_expression()
                self.expect_op("]")
                expr = ast.Index(expr, index, token.line)
            elif token.is_op("++", "--"):
                self.advance()
                expr = ast.IncDec(token.text, expr, False, token.line)
            else:
                return expr

    def parse_primary(self) -> ast.Expr:
        token = self.current
        if token.kind == "number":
            self.advance()
            return ast.IntLit(self.int_value(token), token.line)
        if token.kind == "ident":
            self.advance()
            if self.current.is_op("("):
                self.advance()
                args: List[ast.Expr] = []
                if not self.current.is_op(")"):
                    while True:
                        args.append(self.parse_assignment())
                        if not self.accept_op(","):
                            break
                self.expect_op(")")
                return ast.CallExpr(token.text, args, token.line)
            return ast.Ident(token.text, token.line)
        if token.is_op("("):
            self.advance()
            expr = self.parse_expression()
            self.expect_op(")")
            return expr
        raise self._error(f"unexpected token {token.text!r}")


def parse(source: str) -> ast.Program:
    """Parse MiniC ``source`` into an AST."""
    return Parser(tokenize(source)).parse_program()
