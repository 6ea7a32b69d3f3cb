"""Arithmetic expression syntax over a carrier of named generators.

Grammar (whitespace insignificant)::

    expr   := term (("+"|"-") term)*
    term   := factor ("*" factor)*
    factor := ["-"] atom
    atom   := IDENT | INT | "(" expr ")"
    IDENT  := [a-zA-Z_][a-zA-Z0-9_]*
    INT    := DIGIT+

Subtraction desugars to addition of a negation at parse time.  Every
integer literal, 0 and 1 included, is one ``IntLit`` node; a DIGIT is any
character that ``str.isdecimal`` accepts.
"""

from dataclasses import dataclass

from .errors import ParseError


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class IntLit:
    value: int


@dataclass(frozen=True)
class Add:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Mul:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


Expr = Var | IntLit | Add | Mul | Neg
END = "end of input"  # the kind of the last token, as error messages name it


def tokenize(src):
    tokens = []
    pos = 0
    while pos < len(src):
        ch = src[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch in "+-*()":
            tokens.append((ch, ch, pos))
            pos += 1
            continue
        if ch.isdecimal():
            start = pos
            while pos < len(src) and src[pos].isdecimal():
                pos += 1
            tokens.append(("INT", int(src[start:pos]), start))
            continue
        if ch.isalpha() or ch == "_":
            start = pos
            while pos < len(src) and (src[pos].isalnum() or src[pos] == "_"):
                pos += 1
            tokens.append(("IDENT", src[start:pos], start))
            continue
        raise ParseError(f"unexpected character {ch!r}", pos)
    tokens.append((END, None, len(src)))
    return tokens


class _Parser:
    """Recursive descent over a token list, ``idx`` the next token.  The
    methods reach one another through ``self``, so a parse leaves no
    reference cycle for the collector to find."""

    def __init__(self, tokens, carrier):
        self.tokens = tokens
        self.idx = 0
        self.carrier = carrier

    def peek(self):
        return self.tokens[self.idx]

    def unexpected(self, *expected):
        kind, value, pos = self.peek()
        shown = END if kind == END else repr(value)
        raise ParseError(f"unexpected token {shown}", pos, expected=expected)

    def take(self, kind):
        tok = self.peek()
        if tok[0] != kind:
            self.unexpected(kind)
        self.idx += 1
        return tok

    def atom(self):
        kind, value, pos = self.peek()
        if kind == "IDENT":
            self.idx += 1
            self.carrier.gen(value)
            return Var(value)
        if kind == "INT":
            self.idx += 1
            return IntLit(value)
        if kind == "(":
            self.idx += 1
            inner = self.expr()
            self.take(")")
            return inner
        self.unexpected("IDENT", "INT", "(")

    def factor(self):
        if self.peek()[0] == "-":
            self.idx += 1
            return Neg(self.atom())
        return self.atom()

    def term(self):
        node = self.factor()
        while self.peek()[0] == "*":
            self.take("*")
            node = Mul(node, self.factor())
        return node

    def expr(self):
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.take(self.peek()[0])
            rhs = self.term()
            node = Add(node, rhs if op[0] == "+" else Neg(rhs))
        return node


def parse_expr(src, carrier):
    """Parse to an AST, resolving every identifier against the carrier."""
    parser = _Parser(tokenize(src), carrier)
    try:
        result = parser.expr()
    except RecursionError:
        raise ParseError("expression nested too deeply", parser.peek()[2]) from None
    parser.take(END)
    return result
