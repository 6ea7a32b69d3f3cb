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


def parse_expr(src, carrier):
    """Parse to an AST, resolving every identifier against the carrier."""
    tokens = tokenize(src)
    idx = 0

    def peek():
        return tokens[idx]

    def unexpected(*expected):
        kind, value, pos = tokens[idx]
        shown = END if kind == END else repr(value)
        raise ParseError(f"unexpected token {shown}", pos, expected=expected)

    def take(kind):
        nonlocal idx
        tok = tokens[idx]
        if tok[0] != kind:
            unexpected(kind)
        idx += 1
        return tok

    def atom():
        nonlocal idx
        kind, value, pos = peek()
        if kind == "IDENT":
            idx += 1
            carrier.gen(value)
            return Var(value)
        if kind == "INT":
            idx += 1
            return IntLit(value)
        if kind == "(":
            idx += 1
            inner = expr()
            take(")")
            return inner
        unexpected("IDENT", "INT", "(")

    def factor():
        nonlocal idx
        if peek()[0] == "-":
            idx += 1
            return Neg(atom())
        return atom()

    def term():
        node = factor()
        while peek()[0] == "*":
            take("*")
            node = Mul(node, factor())
        return node

    def expr():
        node = term()
        while peek()[0] in ("+", "-"):
            op = take(peek()[0])
            rhs = term()
            node = Add(node, rhs if op[0] == "+" else Neg(rhs))
        return node

    try:
        result = expr()
    except RecursionError:
        raise ParseError("expression nested too deeply", tokens[idx][2]) from None
    take(END)
    return result
