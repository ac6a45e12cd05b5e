"""Concrete syntax for .lpod / .crp files.

Grammar sketch (UTF-8, % comments, newline-agnostic):

    statement := [label ":"] head ( ":-" body | ":+" body )? "."
               | ":-" body "."
               | "prefer" "(" label "," label ")" "."          (crp2 only)
    head      := atom | atom ("*" atom)+ | INT "{" atom (";" atom)* "}" INT
    body      := literal ("," literal)*
    literal   := ["not"] atom
    atom      := IDENT | IDENT "(" arg ("," arg)* ")"             (one token)
    arg       := INT | IDENT

"*" writes ordered disjunction, ":+" the consistency-restoring arrow.
Facts omit the arrow. Labels are only meaningful on cr/ordered rules.

The text is tokenized by one regex scan into (kind, text, offset) tuples;
IDENT "(" arg, ... ")" is one `atom` token, blanks and comments inside it
included. A parse builds one Atom per distinct atom text and one Literal
per atom and sign. A SourceSpan (line and column) is computed only for the
ParseError raised, so valid input builds none.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .model import Atom, Dialect, Literal, Program, Rule, RuleKind


@dataclass(frozen=True)
class SourceSpan:
    start: int
    end: int
    line: int
    column: int


class ParseError(Exception):
    def __init__(self, message: str, span: SourceSpan):
        super().__init__("%d:%d: %s" % (span.line, span.column, message))
        self.message = message
        self.span = span


# blanks and comments inside an atom token; a comment runs to its newline,
# so a gap matches one way only and a near-atom fails in linear time
_GAP = r"(?:\s|%[^\n]*\n)*"
_ARG = r"(?:-?\d+|[a-zA-Z_][A-Za-z0-9_]*)"
_TOKEN_RE = re.compile(
    r"""
    (?P<skip>\s+|%[^\n]*)
  | (?P<arrow>:-|:\+)
  | (?P<num>-?\d+)
  | (?P<atom>(?!not\b)(?P<name>[a-zA-Z_][A-Za-z0-9_]*)GAP(?P<open>\()GAP ARG GAP(?:,GAP ARG GAP)*\))
  | (?P<ident>[a-zA-Z_][A-Za-z0-9_]*)
  | (?P<punct>[(){};:,.*])
  | (?P<bad>.)
    """.replace("GAP", _GAP).replace("ARG", _ARG),
    re.VERBOSE | re.DOTALL,
)


def _tokenize(text: str) -> list:
    """(kind, text, offset) per token, kind one of arrow | num | atom |
    ident | punct, then two eof tokens so that peek(1) needs no bounds
    check."""
    tokens = [(kind, m.group(), m.start()) for m in _TOKEN_RE.finditer(text) if (kind := m.lastgroup) != "skip"]
    for kind, tok_text, pos in tokens:
        if kind == "bad":
            raise ParseError("unexpected character %r" % tok_text, _span(text, pos, pos + 1))
    tokens += [("eof", "", len(text))] * 2
    return tokens


def _span(text: str, start: int, end: int) -> SourceSpan:
    """Line and column (both from 1) of `start`; only errors need them."""
    line_start = text.rfind("\n", 0, start) + 1
    return SourceSpan(start, end, text.count("\n", 0, start) + 1, start - line_start + 1)


class _Parser:
    def __init__(self, text: str, dialect: Dialect):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.dialect = dialect
        self.atoms = {}  # atom text -> its Atom
        self.literals = {}  # (atom text, negated) -> its Literal

    def peek(self, ahead: int = 0) -> tuple:
        return self.tokens[self.i + ahead]

    def next(self) -> tuple:
        # at eof a ParseError always follows, so i never passes the padding
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def as_walked(self, tok: tuple) -> tuple:
        """An atom token as the walk reads it: by its name."""
        if tok[0] != "atom":
            return tok
        return ("ident", _TOKEN_RE.match(self.text, tok[2]).group("name"), tok[2])

    def error(self, message: str, tok: tuple) -> ParseError:
        _, tok_text, pos = self.as_walked(tok)
        return ParseError(message, _span(self.text, pos, pos + len(tok_text)))

    def unexpected(self, what: str, tok: tuple) -> ParseError:
        tok = self.as_walked(tok)
        return self.error("expected %s, found %r" % (what, tok[1] or "end of input"), tok)

    def expect(self, text: str) -> None:
        tok = self.next()
        if tok[1] != text:
            raise self.unexpected(repr(text), tok)

    def parse_program(self) -> Program:
        rules, prefers = [], []
        while self.peek()[0] != "eof":
            stmt = self.parse_statement()
            (prefers if isinstance(stmt, tuple) else rules).append(stmt)
        return Program(dialect=self.dialect, rules=tuple(rules), prefer_facts=tuple(prefers))

    def parse_statement(self):
        label = None
        if self.peek()[0] == "ident" and self.peek(1)[1] == ":":
            label = self.next()[1]
            self.next()

        tok = self.peek()
        kind, text, _ = tok
        if text == ":-":  # constraint
            self.next()
            body = self.parse_body()
            self.expect(".")
            if label is not None:
                raise self.error("constraints cannot carry a label", self.peek())
            return Rule(kind=RuleKind.REGULAR, head_atoms=(), body=body)

        if kind == "num" or text == "{":
            return self.parse_choice_rule(label)

        if kind != "ident" and kind != "atom":
            raise self.unexpected("a statement", tok)

        first = self.parse_atom()
        if (
            label is None
            and first.predicate == "prefer"
            and len(first.args) == 2
            and self.peek()[1] == "."
        ):
            if self.dialect is not Dialect.CRP2:
                raise self.error("prefer facts are only allowed in the crp2 dialect", tok)
            self.next()
            a1, a2 = first.args
            if not isinstance(a1, str) or not isinstance(a2, str):
                raise self.error("prefer arguments must be rule labels", tok)
            return (a1, a2)

        heads = [first]
        while self.peek()[1] == "*":
            self.next()
            heads.append(self.parse_atom())

        arrow = self.peek()
        cr = False
        body = ()
        if arrow[1] in (":-", ":+"):
            self.next()
            cr = arrow[1] == ":+"
            if cr and self.dialect is not Dialect.CRP2:
                raise self.error("':+' rules are only allowed in the crp2 dialect", arrow)
            if self.peek()[1] != ".":
                body = self.parse_body()
        self.expect(".")

        if len(heads) > 1:
            kind = RuleKind.ORDERED_CR if cr else RuleKind.ORDERED
        else:
            kind = RuleKind.CR if cr else RuleKind.REGULAR
        if label is not None and kind is RuleKind.REGULAR:
            raise self.error("labels are only allowed on cr/ordered rules", self.peek())
        return Rule(kind=kind, head_atoms=tuple(heads), body=body, label=label)

    def parse_choice_rule(self, label):
        if label is not None:
            raise self.error("choice rules cannot carry a label", self.peek())
        lower = self.parse_bound("lower")
        self.expect("{")
        elems = [self.parse_atom()]
        while self.peek()[1] == ";":
            self.next()
            elems.append(self.parse_atom())
        self.expect("}")
        upper = self.parse_bound("upper")
        body = ()
        if self.peek()[1] == ":-":
            self.next()
            if self.peek()[1] != ".":
                body = self.parse_body()
        self.expect(".")
        return Rule(
            kind=RuleKind.REGULAR,
            head_atoms=tuple(elems),
            body=body,
            choice_bounds=(lower, upper),
        )

    def parse_bound(self, which: str) -> int:
        tok = self.next()
        if tok[0] != "num":
            raise self.error("choice heads need an explicit %s bound" % which, tok)
        return int(tok[1])

    def parse_body(self):
        lits = [self.parse_literal()]
        while self.peek()[1] == ",":
            self.next()
            lits.append(self.parse_literal())
        return tuple(lits)

    def parse_literal(self) -> Literal:
        negated = self.peek()[1] == "not"
        if negated:
            self.next()
        key = (self.peek()[1], negated)
        atom = self.parse_atom()
        lit = self.literals.get(key)
        if lit is None:
            lit = self.literals[key] = Literal(atom, negated)
        return lit

    def parse_atom(self) -> Atom:
        tok = self.next()
        kind, text, pos = tok
        atom = self.atoms.get(text)
        if atom is not None and (kind == "atom" or self.peek()[1] != "("):
            return atom
        if kind == "atom":
            m = _TOKEN_RE.match(self.text, pos)
            args = tuple(
                int(a.group()) if a.lastgroup == "num" else a.group()
                for a in _TOKEN_RE.finditer(self.text, m.end("open"), m.end())
                if a.lastgroup == "num" or a.lastgroup == "ident"
            )
            atom = self.atoms[text] = Atom(m.group("name"), args)
            return atom
        if kind != "ident" or text == "not":
            raise self.unexpected("an atom", tok)
        if self.peek()[1] != "(":
            atom = self.atoms[text] = Atom(text)
            return atom
        # a well-formed argument list is part of its atom token, so this one
        # is malformed: walk it to the token that breaks it
        self.next()
        self.parse_arg()
        while self.peek()[1] == ",":
            self.next()
            self.parse_arg()
        raise self.unexpected("')'", self.next())

    def parse_arg(self) -> None:
        kind, _, pos = tok = self.next()
        if kind == "atom":  # a compound argument: the walk stops at its "("
            raise self.unexpected("')'", ("punct", "(", _TOKEN_RE.match(self.text, pos).start("open")))
        if kind != "num" and kind != "ident":
            raise self.unexpected("a constant argument", tok)


def parse(text: str, dialect: Dialect) -> Program:
    """Parse source text into a Program; raises ParseError with a span."""
    return _Parser(text, dialect).parse_program()


def render_rule(r: Rule) -> str:
    body = ", ".join(map(str, r.body))
    label = "%s: " % r.label if r.label is not None else ""
    if r.is_choice:
        lo, up = r.choice_bounds
        head = "%d {%s} %d" % (lo, "; ".join(map(str, r.head_atoms)), up)
    else:  # one head atom, ordered disjuncts or none
        head = " * ".join(map(str, r.head_atoms))
    arrow = ":+" if r.kind in (RuleKind.CR, RuleKind.ORDERED_CR) else ":-"
    if not head:
        return ":- %s." % body
    if not body:
        if r.kind in (RuleKind.CR, RuleKind.ORDERED_CR):
            return "%s%s %s." % (label, head, arrow)
        return "%s%s." % (label, head)
    return "%s%s %s %s." % (label, head, arrow, body)


def render(p: Program) -> str:
    """Inverse of parse, up to source spans: parse(render(p), p.dialect) == p."""
    lines = [render_rule(r) for r in p.rules]
    lines.extend("prefer(%s,%s)." % pair for pair in p.prefer_facts)
    return "\n".join(lines) + ("\n" if lines else "")
