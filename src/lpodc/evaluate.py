"""Executes translated documents without an external solver.

The per-tuple statements of a document are solved for one assumption tuple
at a time (the partial ground programs share no atoms), which keeps the
search spaces tiny. Those statements take the tuple X1..Xm as extra
arguments, so the per-tuple programs have the same atoms up to those
values and differ only where a statement tests an X_i. Each statement is
ground once per value of its gate, the X_i it compares, ranges over or
computes with, into a template whose atoms name every X_i by its
parameter, and compiled once into engine rows over atom ids shared by the
whole document. A tuple's program is its templates' rows, those of each
gate put together once per value, searched with the id of `ap(X1,...,Xm)`
seeded true (`_solve_tuple`) and without weak rows: the one weak
statement costs every model of a tuple the same. The models stay masks
until one decode per document (`_solve_tuples`) projects them onto σ
through each id's σ atom, found once, and builds atoms with a tuple's
values for the `degree` or `isPreferred` rows only. `tuple_ground_program`,
the statements ground with every X_i fixed, is the reference. The
cross-tuple layer (preference / dominance / candidate / preferred) is
evaluated bottom-up in dependency order: each statement runs once after
every statement that defines a predicate it reads; only a positive cycle
is iterated to its fixpoint. One body walker
serves both layers: `_plan` compiles a body once, in its join order, into
closures over a list of variable slots that ground it (counts over atoms
become engine aggregates) or evaluate it over the relations (literals look
rows up through indexes on their bound arguments); each statement's
grounder is compiled once per document, for every gate value. Every LPOD
criterion document shares the base translation's tuple layer, solved once
(`eval_lpod` on the base document) and evaluated under each criterion
(`with_criterion`). A monolithic grounder serves consistency checks and
debug dumps.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from operator import eq, ge, gt, itemgetter, le, lt, ne
from typing import Optional

from .engine import (
    DEFAULT_ATOM_CAP,
    CapExceeded,
    ChoiceHead,
    CountAggregate,
    GroundProgram,
    GroundRule,
    WeakConstraint,
    rows_of,
    solve_rows,
)
from .model import AnswerSet, Atom, Dialect, Term
from .translate import (
    AspDocument,
    BinOp,
    ChoiceExpr,
    Cmp,
    ConstRef,
    CountExpr,
    FactPoolStmt,
    Fn,
    Lit,
    RangeBind,
    RuleStmt,
    Var,
    WeakStmt,
)


_CMP = {"=": eq, "!=": ne, "<": lt, ">": gt, "<=": le, ">=": ge}


def _expr_vars(e, out: set) -> None:
    if isinstance(e, Var):
        out.add(e.name)
    elif isinstance(e, BinOp):
        _expr_vars(e.lhs, out)
        _expr_vars(e.rhs, out)
    elif isinstance(e, Fn):
        for a in e.args:
            _expr_vars(a, out)


def _item_vars(it, out: set) -> set:
    if isinstance(it, Lit):
        for a in it.args:
            _expr_vars(a, out)
    elif isinstance(it, Cmp):
        _expr_vars(it.lhs, out)
        _expr_vars(it.rhs, out)
    elif isinstance(it, RangeBind):
        out.add(it.var.name)
        _expr_vars(it.lo, out)
        _expr_vars(it.hi, out)
    elif isinstance(it, CountExpr):
        if it.bind is not None:
            out.add(it.bind.name)
        for b in (it.lower, it.upper):
            if b is not None:
                _expr_vars(b, out)
    return out


def _outer_vars(stmt) -> set:
    """Variables visible outside aggregate/choice elements; the rest are
    local to their element and expand element-wise."""
    out: set = set()
    if isinstance(stmt, WeakStmt):
        for t in stmt.terms:
            _expr_vars(t, out)
    elif isinstance(stmt, RuleStmt):
        if isinstance(stmt.head, Lit):
            _item_vars(stmt.head, out)
        elif isinstance(stmt.head, ChoiceExpr):
            for b in (stmt.head.lower, stmt.head.upper):
                if b is not None:
                    _expr_vars(b, out)
    for it in getattr(stmt, "body", ()):
        _item_vars(it, out)
    return out


def _expr(e, slots, consts):
    """`e` compiled into a function of the slot list: a variable reads its
    slot, a constant reference is resolved now, `None` stays `None`."""
    if isinstance(e, Var):
        return itemgetter(slots[e.name])
    if isinstance(e, BinOp):
        lhs, rhs = _expr(e.lhs, slots, consts), _expr(e.rhs, slots, consts)
        return (lambda env: lhs(env) + rhs(env)) if e.op == "+" else (lambda env: lhs(env) - rhs(env))
    if isinstance(e, Fn):
        return lambda env, name=e.name, args=_exprs(e.args, slots, consts): Term(name, args(env))
    value = consts[e.name] if isinstance(e, ConstRef) else e
    if not (value is None or isinstance(value, (int, str, Term))):
        raise TypeError(e)
    return lambda env: value


def _exprs(exprs, slots, consts):
    """Expressions compiled into one function of the slot list to a tuple."""
    if len(exprs) > 1 and all(isinstance(e, Var) for e in exprs):
        return itemgetter(*[slots[e.name] for e in exprs])
    parts = [_expr(e, slots, consts) for e in exprs]
    return lambda env: tuple([f(env) for f in parts])


# the steps of a plan, each linked to the rest of the plan once
def _each(rest, s, values):
    def step(env):
        for v in values(env):
            env[s] = v
            rest(env)

    return step


def _test(rest, holds):
    return lambda env: rest(env) if holds(env) else None


def _lookup(rest, table, spec, key, same, binds):
    # the rows of `spec`'s index under `key` whose positions `same` agree
    def step(env):
        for row in table.index(spec).get(key(env), ()):
            if all([row[j] == row[k] for j, k in same]):
                for s, j in binds:
                    env[s] = row[j]
                rest(env)

    return step


def _inputs(it, relational: bool, outer) -> frozenset:
    """Variables that must be bound before a body item can run."""
    vs: set = set()
    if isinstance(it, Lit):
        for a in it.args:
            # a plain variable of a positive literal binds from the rows
            if not (relational and not it.neg and isinstance(a, Var)):
                _expr_vars(a, vs)
    elif isinstance(it, Cmp):
        _expr_vars(it.rhs, vs)
        if not (it.op == "=" and isinstance(it.lhs, Var)):
            _expr_vars(it.lhs, vs)
    elif isinstance(it, RangeBind):
        _expr_vars(it.lo, vs)
        _expr_vars(it.hi, vs)
    elif isinstance(it, CountExpr):
        for b in (it.lower, it.upper):
            if b is not None:
                _expr_vars(b, vs)
        # element variables shared with the rest of the statement must be
        # bound; the remainder are aggregate-local
        for el in it.elements:
            evars: set = set()
            _item_vars(el.item, evars)
            vs.update((evars & outer) - {c.var.name for c in el.conds})
    else:
        raise TypeError(it)
    return frozenset(vs)


def _plan(items, bound, outer, domains, consts, table, out, slots):
    """Compile body items into a function of a slot list holding the
    variables `bound` that runs the step `out(slots, aggs)` returns once per
    way to satisfy them; `aggs` gives the engine aggregates in body order.

    The one body walker: it grounds a body when `table` is None and
    evaluates it over the relations of `table` otherwise. Items run in join
    order: the next one is the first whose inputs are bound; when none can
    run, the first unbound input of the first pending item is enumerated
    from its declared domain, and after the last item so are the `outer`
    variables still unbound. The order depends only on the variables bound
    on entry, so it is fixed here once, and with it the slots (shared with
    the plans of count elements) that each step reads and binds. `V = e`,
    `V = lo..hi` and `V = #count{...}` bind an unbound V. Over relations,
    a positive literal with unbound plain variables binds them from its
    rows, looked up on its bound positions, and any other literal tests
    membership. When grounding, a literal is built from the final binding,
    and a count over non-constant elements becomes an engine aggregate.
    """
    inputs = [_inputs(it, table is not None, outer) for it in items]
    pending, bound, steps, aggs = list(range(len(items))), set(bound), [], []
    expr = lambda e: _expr(e, slots, consts)

    def slot(name):
        bound.add(name)
        return slots.setdefault(name, len(slots))

    while True:
        k = next((k for k in pending if inputs[k] <= bound), None)
        if k is None:
            free = (inputs[pending[0]] if pending else outer) - bound
            if not free:
                break
            name = min(free)
            if name not in domains:
                raise KeyError("no domain for variable %s" % name)
            steps.append((_each, slot(name), lambda env, values=domains[name]: values))
            continue
        pending.remove(k)
        it = items[k]
        if isinstance(it, CountExpr) and it.bind is None:
            count, atoms = _count(it.elements, bound, domains, consts, table, slots)
            slots[object()] = a = len(slots)
            aggs.append((k, a))

            def values(env, count=count, atoms=atoms, lower=expr(it.lower), upper=expr(it.upper)):
                # the engine aggregate over non-constant elements, else None if the bounds hold
                n, lo, hi = count(env), lower(env), upper(env)
                if atoms:
                    return (CountAggregate(atoms=frozenset(atoms), fixed=n, lower=lo, upper=hi),)
                return (None,) if (lo is None or n >= lo) and (hi is None or n <= hi) else ()

            steps.append((_each, a, values))
        elif isinstance(it, CountExpr):
            count, atoms = _count(it.elements, bound, domains, consts, table, slots)
            if atoms is not None:
                raise ValueError("count assignment over non-constant elements")
            if it.bind.name in bound:
                steps.append((_test, lambda env, n=count, v=expr(it.bind): n(env) == v(env)))
            else:
                steps.append((_each, slot(it.bind.name), lambda env, n=count: (n(env),)))
        elif isinstance(it, Lit) and table is None:
            continue
        elif isinstance(it, Lit) and not it.neg and not _item_vars(it, set()) <= bound:
            unbound, same = {}, []
            for i, a in enumerate(it.args):
                if isinstance(a, Var) and a.name not in bound:
                    if a.name in unbound:
                        same.append((i, unbound[a.name]))
                    unbound.setdefault(a.name, i)
            keyed = tuple(i for i, a in enumerate(it.args) if not (isinstance(a, Var) and a.name in unbound))
            key = _exprs([it.args[i] for i in keyed], slots, consts)
            binds = [(slot(name), i) for name, i in unbound.items()]
            steps.append((_lookup, table, (it.pred, len(it.args), keyed), key, same, binds))
        elif isinstance(it, Lit):
            args, rows = _exprs(it.args, slots, consts), table.rows
            steps.append((_test, lambda env, p=it.pred, a=args, neg=it.neg: (a(env) in rows.get(p, ())) != neg))
        elif isinstance(it, Cmp) and it.op == "=" and isinstance(it.lhs, Var) and it.lhs.name not in bound:
            steps.append((_each, slot(it.lhs.name), lambda env, rhs=expr(it.rhs): (rhs(env),)))
        elif isinstance(it, Cmp):
            steps.append((_test, lambda env, op=_CMP[it.op], a=expr(it.lhs), b=expr(it.rhs): op(a(env), b(env))))
        elif it.var.name in bound:
            steps.append((_test, lambda env, a=expr(it.lo), b=expr(it.hi), v=expr(it.var): a(env) <= v(env) <= b(env)))
        else:
            lo, hi = expr(it.lo), expr(it.hi)
            steps.append((_each, slot(it.var.name), lambda env, lo=lo, hi=hi: range(lo(env), hi(env) + 1)))
    aggs = [a for _, a in sorted(aggs)]
    run = out(slots, lambda env: tuple([env[a] for a in aggs if env[a] is not None]))
    for link, *args in reversed(steps):
        run = link(run, *args)
    return run


def _count(elements, bound, domains, consts, table, slots) -> tuple:
    """Count elements: (count, atoms). `count` maps the slot list to n, one
    per satisfying binding of a comparison and, over relations, one per
    distinct matching row of a literal; when grounding, the set `atoms`
    (None if no element is a literal) collects the atoms of literal
    elements. Unconditional comparisons of bound variables count directly."""
    if all(isinstance(el.item, Cmp) and not el.conds and _item_vars(el.item, set()) <= bound for el in elements):
        cmps = [el.item for el in elements]
        tests = [(_CMP[c.op], _expr(c.lhs, slots, consts), _expr(c.rhs, slots, consts)) for c in cmps]
        return (lambda env: sum([op(lhs(env), rhs(env)) for op, lhs, rhs in tests])), None
    atoms, parts = set(), []
    for el in elements:
        hits = atoms if table is None and isinstance(el.item, Lit) else [] if isinstance(el.item, Cmp) else set()

        def out(slots, aggs, hits=hits, item=el.item):
            if isinstance(item, Cmp):
                return lambda env: hits.append(None)
            args, pred = _exprs(item.args, slots, consts), item.pred
            if table is None:
                return lambda env: hits.add(Atom(pred, args(env)))
            return lambda env: hits.add(args(env))

        parts.append((hits, _plan(el.conds + (el.item,), bound, frozenset(), domains, consts, table, out, slots)))
    counted = [hits for hits, _ in parts if hits is not atoms]

    def count(env):
        atoms.clear()
        for hits, run in parts:
            if hits is not atoms:
                hits.clear()
            run(env)
        return sum([len(hits) for hits in counted])

    return count, atoms if table is None and len(counted) < len(parts) else None


def _grounder(stmt, doc: AspDocument, names: tuple):
    """The plan that grounds one statement into the list in slot 0, with the
    variables `names` in the next slots, and the padding of its slot list:
    one plan for the body, and one count for the elements of a choice head."""
    consts, domains, outer = dict(doc.constants), dict(stmt.var_domains), _outer_vars(stmt)
    head, slots = getattr(stmt, "head", None), {name: i for i, name in enumerate((None,) + names)}

    def out(slots, aggs):
        def atoms(lits):
            parts = [(l.pred, _exprs(l.args, slots, consts)) for l in lits]
            return lambda env: frozenset([Atom(pred, args(env)) for pred, args in parts])

        pos, neg = (atoms([l for l in stmt.body if isinstance(l, Lit) and l.neg == n]) for n in (False, True))
        if isinstance(stmt, WeakStmt):
            terms, weight = _exprs(stmt.terms, slots, consts), stmt.weight
            return lambda env: env[0].append(WeakConstraint(pos(env), neg(env), aggs(env), weight, terms(env)))
        if isinstance(head, ChoiceExpr):
            count, chosen = _count(head.elements, set(names) | outer, domains, consts, None, slots)
            lower, upper = _expr(head.lower, slots, consts), _expr(head.upper, slots, consts)

            def h(env):
                if count(env):
                    raise ValueError("constant elements in a choice head")
                return ChoiceHead(tuple(sorted(chosen or (), key=Atom.sort_key)), lower(env), upper(env))

        elif head is None:
            h = lambda env: None
        else:
            h = lambda env, pred=head.pred, args=_exprs(head.args, slots, consts): Atom(pred, args(env))
        return lambda env: env[0].append(GroundRule(h(env), pos(env), neg(env), aggs(env)))

    run = _plan(stmt.body, names, outer, domains, consts, None, out, slots)
    return run, [None] * (len(slots) - len(names) - 1)


def _ground_statement(stmt, doc: AspDocument, fixed: dict) -> list:
    """The engine rules / weak constraints of one statement with the
    variables of `fixed` set, by its grounder, compiled once per document."""
    if isinstance(stmt, FactPoolStmt):
        return [GroundRule(head=Atom(stmt.pred, (v,))) for v in stmt.values]
    grounders, key, objs = doc.templates.setdefault("grounders", {}), (id(stmt), tuple(fixed)), []
    if key not in grounders:  # kept with its grounder, the statement keeps its id
        grounders[key] = (stmt,) + _grounder(stmt, doc, tuple(fixed))
    _, run, padding = grounders[key]
    run([objs, *fixed.values(), *padding])
    return objs


def _ground(doc: AspDocument, statements, fixed: dict) -> GroundProgram:
    rules, weak = [], []
    for stmt in statements:
        for obj in _ground_statement(stmt, doc, fixed):
            (weak if isinstance(obj, WeakConstraint) else rules).append(obj)
    return GroundProgram(rules=tuple(rules), weak=tuple(weak))


class _Param:
    """Stands for the tuple value X_{index+1} in the atoms of a template;
    a document has one per index, so that equal template atoms are equal
    keys of its id table."""

    __slots__ = ("index",)

    def __init__(self, index: int):
        self.index = index

    def __repr__(self) -> str:
        return "X%d" % (self.index + 1)


class _Gated(int):
    """The value of an X_{index+1} that a statement gates on: compared,
    ranged over and computed with as the int it is, while the atoms it
    stands in are named by the X_i's `_Param`, as in every template. An
    atom argument computed from it would be a plain int; no statement of
    the translations has one."""

    def __new__(cls, value: int, index: int):
        self = int.__new__(cls, value)
        self.index = index
        return self


def _gate(stmt, m: int) -> tuple:
    """Indices i of the X_{i+1} whose value shapes the grounding of `stmt`:
    every use but a plain literal argument or an argument nested in a
    term. The other X_i only name the atoms."""
    used: set = set()

    def plain(e):
        if isinstance(e, Fn):
            for a in e.args:
                plain(a)
        elif not isinstance(e, Var):
            _expr_vars(e, used)  # arithmetic

    def item(it):
        if isinstance(it, Lit):
            for a in it.args:
                plain(a)
            return
        _item_vars(it, used)
        if isinstance(it, CountExpr):
            elements(it.elements)

    def elements(els):
        for el in els:
            for it in (el.item,) + el.conds:
                item(it)

    if isinstance(stmt, RuleStmt):
        head = stmt.head
        if isinstance(head, Lit):
            item(head)
        elif isinstance(head, ChoiceExpr):
            for b in (head.lower, head.upper):
                if b is not None:
                    _expr_vars(b, used)
            elements(head.elements)
    for it in getattr(stmt, "body", ()):
        item(it)
    return tuple(i for i in range(m) if "X%d" % (i + 1) in used)


def _drop_covering(stmt, domains: tuple):
    """`stmt` without the choice-element conditions `X_i = lo..hi` whose
    range covers the domain of X_i: every tuple meets them, so they would
    only gate the statement on X_i."""
    head = getattr(stmt, "head", None)
    if not isinstance(head, ChoiceExpr):
        return stmt
    dom = {Var("X%d" % (i + 1)): set(d) for i, d in enumerate(domains)}

    def covers(c):
        return isinstance(c, RangeBind) and c.var in dom and dom[c.var] <= set(range(c.lo, c.hi + 1))

    elements = tuple(replace(el, conds=tuple(c for c in el.conds if not covers(c))) for el in head.elements)
    return replace(stmt, head=replace(head, elements=elements))


def _subst(v, kind: type, values: tuple):
    """`v` (an atom, a term or a constant) with each argument of type
    `kind` (`_Param` or `_Gated`) replaced by values[its index]."""
    t = type(v)
    if t is kind:
        return values[v.index]
    if t is Atom:
        return Atom(v.predicate, tuple([_subst(a, kind, values) for a in v.args]))
    if t is Term:
        return Term(v.functor, tuple([_subst(a, kind, values) for a in v.args]))
    return v


def _compile(objs, params: tuple, ids: dict) -> list:
    """Engine rows of one template's ground rules, over the atom ids of
    `ids`: each atom is named by `params` in place of its gated values and
    given the next id on first sight."""
    return rows_of(objs, lambda a: 1 << ids.setdefault(_subst(a, _Gated, params), len(ids)))


def _tuple_rows(doc: AspDocument, xs: tuple) -> list:
    """The rows of tuple `xs`'s program: the rows of each tuple-phase
    statement's template for the tuple's value of its gate (see `_gate`),
    compiled on first use. `doc.templates` keeps the templates by
    statement and gate value, the document's `_Param`s and the id table,
    which maps each template atom to its bit position in every tuple, and
    per gate the rows of its statements, put together once per value."""
    templates = doc.templates

    def template(stmt, gate, by_value):
        value = tuple([xs[g] for g in gate])
        if value not in by_value:
            fixed = {"X%d" % (i + 1): _Gated(xs[i], i) if i in gate else p for i, p in enumerate(templates["params"])}
            by_value[value] = _compile(_ground_statement(stmt, doc, fixed), templates["params"], templates["ids"])
        return by_value[value]

    if "statements" not in templates:
        m = len(doc.domains)
        templates["params"], templates["ids"], templates["groups"] = tuple(_Param(i) for i in range(m)), {}, {}
        # the one weak statement, :~ ap(X1,...,Xm). [-1, X1,...,Xm], is left
        # out: `_solve_tuple` seeds ap(xs) true, so every model pays the same
        tuple_phase = [_drop_covering(s, doc.domains) for s in doc.statements if s.phase == "tuple"]
        templates["statements"] = [(s, _gate(s, m), {}) for s in tuple_phase if not isinstance(s, WeakStmt)]
        for t in templates["statements"]:
            template(*t)  # the first tuple numbers the atoms in statement order
            templates["groups"].setdefault(t[1], ([], {}))[0].append(t)
    rows = []
    for gate, (members, combined) in templates["groups"].items():
        value = tuple([xs[g] for g in gate])
        if value not in combined:
            combined[value] = [r for t in members for r in template(*t)]
        rows += combined[value]
    return rows


def tuple_ground_program(doc: AspDocument, xs: tuple) -> GroundProgram:
    """Partial ground program for one assumption tuple: the tuple-phase
    statements ground with every X_i fixed to the tuple's value. The
    reference for `_solve_tuple`, which solves the compiled rows."""
    fixed = {"X%d" % i: x for i, x in enumerate(xs, start=1)}
    return _ground(doc, [s for s in doc.statements if s.phase == "tuple"], fixed)


def ground_document(doc: AspDocument) -> GroundProgram:
    """Monolithic grounding of every statement over the full tuple space."""
    return _ground(doc, doc.statements, {})


def shrink(atoms: frozenset, xs: tuple, sigma: frozenset) -> AnswerSet:
    """Strip the assumption-degree arguments and keep original atoms only."""
    m = len(xs)
    if m == 0:
        return AnswerSet(atoms=frozenset(a for a in atoms if a in sigma))
    kept = set()
    for a in atoms:
        if len(a.args) >= m and tuple(a.args[-m:]) == xs:
            base = Atom(a.predicate, tuple(a.args[:-m]))
            if base in sigma:
                kept.add(base)
    return AnswerSet(atoms=frozenset(kept))


# --- relational layer ---------------------------------------------------------


class _Relations:
    """The rows of each predicate, with indexes built on first use: per
    (predicate, arity, bound positions), the rows by their values there."""

    def __init__(self, seeds: dict):
        self.rows = {pred: set(rows) for pred, rows in seeds.items()}
        self.indexes = {}

    def index(self, spec) -> dict:
        index = self.indexes.get(spec)
        if index is None:
            pred, arity, positions = spec
            index = self.indexes[spec] = {}
            for row in self.rows.get(pred, ()):
                if len(row) == arity:
                    index.setdefault(tuple([row[i] for i in positions]), []).append(row)
        return index


def _components(statements) -> list:
    """The statements grouped by the strongly connected components of their
    head predicates, in dependency order, each with whether it is cyclic.
    Edges run from body and count element literals to heads; a negative or
    count edge inside a component makes the layer unstratified."""

    def head(s):
        return s.pred if isinstance(s, FactPoolStmt) else s.head.pred

    edges = {}
    for s in statements:
        if not isinstance(s, FactPoolStmt) and not isinstance(getattr(s, "head", None), Lit):
            raise ValueError("cross-tuple statements must define a predicate")
        e = edges.setdefault(head(s), set())
        for it in getattr(s, "body", ()):
            if isinstance(it, Lit):
                e.add((it.pred, not it.neg))
            elif isinstance(it, CountExpr):
                e.update((x.pred, False) for el in it.elements for x in (el.item,) + el.conds if isinstance(x, Lit))
    reach = {p: {q for q, _ in e if q in edges} for p, e in edges.items()}
    for k in reach:
        for p in reach:
            if k in reach[p]:
                reach[p] |= reach[k]
    comp = {p: {q for q in reach[p] if p in reach[q]} | {p} for p in reach}
    if any(not positive and q in comp[p] for p, e in edges.items() for q, positive in e):
        raise ValueError("preference layer is not stratified")
    out, done = [], set()
    # a predicate reaches more outside its component than any it depends on
    for p in sorted(reach, key=lambda p: len(reach[p] - comp[p])):
        if p not in done:
            done |= comp[p]
            out.append(([s for s in statements if head(s) in comp[p]], p in reach[p]))
    return out


def evaluate_global_layer(doc: AspDocument, seed_relations: dict) -> dict:
    """The cross-tuple statements over the seed relations, one component
    of `_components` at a time: each statement's body is compiled once and
    run once, and only a cyclic component repeats until nothing is new."""
    consts = dict(doc.constants)
    table = _Relations(seed_relations)
    for stmts, cyclic in _components([s for s in doc.statements if s.phase == "global"]):
        plans = []
        for s in stmts:
            if isinstance(s, FactPoolStmt):
                table.rows.setdefault(s.pred, set()).update((v,) for v in s.values)
                continue
            rows, slots = table.rows.setdefault(s.head.pred, set()), {}

            def out(slots, aggs, head=s.head, rows=rows):
                args = _exprs(head.args, slots, consts)
                return lambda env: rows.add(args(env))

            plans.append((_plan(s.body, (), _outer_vars(s), dict(s.var_domains), consts, table, out, slots), slots))
        while True:
            size = sum(map(len, table.rows.values()))
            for run, slots in plans:
                run([None] * len(slots))
            if not cyclic or sum(map(len, table.rows.values())) == size:
                break
            table.indexes.clear()
    return table.rows


# --- splitting evaluation -------------------------------------------------------


@dataclass
class EvaluatedTranslation:
    dialect: Dialect
    sigma: frozenset
    domains: tuple  # assumption-degree values per index, as in the document
    ap_tuples: tuple
    projections: dict  # tuple -> tuple of frozensets over sigma
    degrees: dict  # tuple -> degree tuple (lpod only)
    relations: dict
    criterion: Optional[str] = None

    def pas_tuples(self) -> tuple:
        return tuple(sorted(self.relations.get("pAS", ())))

    def candidate_tuples(self) -> tuple:
        if self.dialect is Dialect.CRP2:
            return tuple(sorted(self.relations.get("candidate", ())))
        return self.ap_tuples

    def _project(self, tuples) -> frozenset:
        out = set()
        for xs in tuples:
            out.update(self.projections[xs])
        return frozenset(out)

    def generalized_projections(self) -> frozenset:
        return self._project(self.ap_tuples)

    def candidate_projections(self) -> frozenset:
        return self._project(self.candidate_tuples())

    def preferred_projections(self) -> frozenset:
        return self._project(self.pas_tuples())


def _solve_tuple(doc: AspDocument, xs: tuple) -> list:
    """Optimal models of one tuple's program that contain its ap atom, as
    masks over the document's atom ids.

    The tuple's rows are searched with the id of `ap(X1,...,Xm)` seeded
    true: the program's only weak constraint is its instance of
    `:~ ap(xs). [-1]`, so its optimal models that contain `ap(xs)` are its
    answer sets that contain it. Ids outside the tuple's rows are false as
    unsupported. `_solve_tuples` decodes the masks.
    """
    rows, templates = _tuple_rows(doc, xs), doc.templates
    return list(solve_rows(rows, len(templates["ids"]), 1 << templates["ids"][Atom("ap", templates["params"])], 0))


def _solve_tuples(doc: AspDocument, cap: int, pred: str) -> tuple:
    """The tuple layer of `doc`, solved and then decoded once, and the
    argument rows of the `pred` atoms of each consistent tuple's models.

    The layer holds the consistent tuples, in tuple-space order, their
    models' projections onto σ, and the `ap` and `pred` rows as relations.
    Each id's σ atom is found once, by `shrink`'s rule: the template atom's
    last m arguments are the `_Param`s and the atom of the arguments before
    them is in σ (with m = 0, the atom itself is). Only `pred` atoms are
    built with a tuple's values.
    """
    if len(doc.sigma) > cap:
        raise CapExceeded(len(doc.sigma), cap)
    solved = {}
    for xs in doc.tuple_space():
        models = _solve_tuple(doc, xs)
        if models:
            solved[xs] = models
    params = doc.templates["params"]
    m, sigma, found = len(params), [], []
    for i, a in enumerate(doc.templates["ids"]):
        base = a if m == 0 else Atom(a.predicate, a.args[:-m]) if a.args[-m:] == params else None
        if base in doc.sigma:
            sigma.append((1 << i, base))
        if a.predicate == pred:
            found.append((1 << i, a.args))
    projections, rows = {}, {}
    for xs, models in solved.items():
        projections[xs] = tuple(sorted({frozenset([b for bit, b in sigma if t & bit]) for t in models}, key=sorted_key))
        rows[xs] = [tuple([_subst(v, _Param, xs) for v in args]) for t in models for bit, args in found if t & bit]
    ev = EvaluatedTranslation(
        dialect=doc.dialect,
        sigma=doc.sigma,
        domains=doc.domains,
        ap_tuples=tuple(sorted(solved)),
        projections=projections,
        degrees={},
        relations={"ap": set(solved), pred: {row for by_tuple in rows.values() for row in by_tuple}},
    )
    return ev, rows


def eval_lpod(doc: AspDocument, cap: int = DEFAULT_ATOM_CAP) -> EvaluatedTranslation:
    """Per-tuple solving plus the document's criterion layer, if any.

    On `lpod2asp_base` the result is the tuple layer alone: its relations
    are the `ap` and `degree` rows, ready for `with_criterion`.
    """
    tuples, found = _solve_tuples(doc, cap, "degree")
    degrees = {xs: rows[-1][1:] if rows else None for xs, rows in found.items()}
    return with_criterion(replace(tuples, degrees=degrees), doc)


def with_criterion(ev: EvaluatedTranslation, doc: AspDocument) -> EvaluatedTranslation:
    """The solved tuple layer `ev` under the criterion layer of `doc`.

    `doc` must translate the same LPOD program as `ev` (same signature and
    tuple space); only the `ap` and `degree` rows of `ev` seed the layer.
    """
    if doc.dialect is not Dialect.LPOD or ev.dialect is not Dialect.LPOD:
        raise ValueError("criterion layers are defined for lpod translations")
    if doc.sigma != ev.sigma or doc.domains != ev.domains:
        raise ValueError("the document and the solved tuple layer translate different programs")
    seeds = {"ap": ev.relations["ap"], "degree": ev.relations["degree"]}
    return replace(ev, relations=evaluate_global_layer(doc, seeds), criterion=doc.criterion)


def eval_crp(doc: AspDocument, cap: int = DEFAULT_ATOM_CAP) -> EvaluatedTranslation:
    """Per-tuple solving plus dominance/candidate/preferred layers."""
    tuples, _ = _solve_tuples(doc, cap, "isPreferred")
    return replace(tuples, relations=evaluate_global_layer(doc, tuples.relations))


def sorted_key(atoms: frozenset):
    return tuple(sorted(a.sort_key() for a in atoms))


def render_ground_rule(r) -> str:
    """Debug-dump text for one engine rule."""
    parts = [str(a) for a in sorted(r.pos, key=Atom.sort_key)]
    parts += ["not %s" % a for a in sorted(r.neg, key=Atom.sort_key)]
    for agg in r.aggregates:
        inner = "; ".join(str(a) for a in sorted(agg.atoms, key=Atom.sort_key))
        lo = str(agg.lower) if agg.lower is not None else ""
        hi = str(agg.upper) if agg.upper is not None else ""
        fixed = "+%d" % agg.fixed if agg.fixed else ""
        parts.append("%s{%s}%s%s" % (lo, inner, hi, fixed))
    body = ", ".join(parts)
    if isinstance(r, WeakConstraint):
        terms = ", ".join(str(t) for t in r.terms)
        return ":~ %s. [%d, %s]" % (body, r.weight, terms)
    if r.head is None:
        return ":- %s." % body
    if isinstance(r.head, ChoiceHead):
        inner = "; ".join(str(a) for a in r.head.atoms)
        lo = str(r.head.lower) if r.head.lower is not None else ""
        hi = str(r.head.upper) if r.head.upper is not None else ""
        head = "%s{%s}%s" % (lo, inner, hi)
    else:
        head = str(r.head)
    return "%s :- %s." % (head, body) if body else "%s." % head


def dump_ground(doc: AspDocument, per_tuple: bool = True) -> str:
    """Ground text, per tuple or monolithic; for debugging translations."""
    lines = []
    if per_tuple:
        for xs in doc.tuple_space():
            lines.append("%% tuple %s" % (xs,))
            prog = tuple_ground_program(doc, xs)
            lines.extend(render_ground_rule(r) for r in prog.rules)
            lines.extend(render_ground_rule(w) for w in prog.weak)
    else:
        prog = ground_document(doc)
        lines.extend(render_ground_rule(r) for r in prog.rules)
        lines.extend(render_ground_rule(w) for w in prog.weak)
    return "\n".join(lines) + "\n"
