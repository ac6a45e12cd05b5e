"""Executes translated documents without an external solver.

Every emitted rule is safe, so statements are ground as a standard grounder
grounds them: each positive literal binds its variables from the possible
atoms, the heads of the rules ground before it, and nothing else is read.
The per-tuple statements of a document are solved for one assumption tuple
at a time (the partial ground programs share no atoms), which keeps the
search spaces tiny. Those statements take the tuple X1..Xm as extra
arguments, so the per-tuple programs have the same atoms up to those
values and differ only where a statement tests an X_i. Each statement is
rewritten once (`_template`): an X_i that is an atom argument becomes the
constant "Xi", and the X_i it still uses as variables, those it compares,
ranges over or computes with, are its gate. The rewritten statement is
ground at every value of its gate into a template whose atoms name every
X_i by "Xi"; the template atoms are numbered once, in sort order, and each
template compiled once into engine rows over those ids. A tuple's program
is its templates' rows, searched with the id of `ap(X1,...,Xm)` seeded true
(`_solve_tuple`) and without weak rows: the one weak statement costs every
model of a tuple the same. The models stay masks until one decode per
document (`_solve_tuples`) projects them onto σ and builds atoms with a
tuple's values for the `degree` or `isPreferred` rows only.
`tuple_ground_program`, the statements ground with every X_i fixed, is the
reference. The cross-tuple layer (preference / dominance / candidate /
preferred) is evaluated bottom-up in dependency order: each statement runs
once after every statement that defines a predicate it reads; only a
positive cycle is iterated to its fixpoint. One body walker serves both
layers: `_plan` compiles a body once, in its join order, into closures
over a list of variable slots that ground it or evaluate it over the
relations, literals binding from rows through indexes on their bound
arguments. Every LPOD criterion document shares the base translation's
tuple layer, solved once (`eval_lpod` on the base document) and evaluated
under each criterion (`with_criterion`). A monolithic grounder serves
consistency checks and debug dumps.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import product
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
    AggElem,
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
    _names,
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
    elif isinstance(it, (CountExpr, ChoiceExpr)):
        if getattr(it, "bind", None) is not None:
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
    elif isinstance(stmt, RuleStmt) and stmt.head is not None:
        _item_vars(stmt.head, out)
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
    # the rows of `spec`'s index under `key` whose positions `same` agree,
    # in the relations that `table[0]` holds when the step runs
    def step(env):
        for row in table[0].index(spec).get(key(env), ()):
            if not same or all([row[j] == row[k] for j, k in same]):
                for s, j in binds:
                    env[s] = row[j]
                rest(env)

    return step


def _inputs(it, outer) -> frozenset:
    """Variables that must be bound before a body item can run."""
    vs: set = set()
    if isinstance(it, Lit):
        for a in it.args:
            # a plain variable of a positive literal binds from the rows
            if it.neg or not isinstance(a, Var):
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


def _plan(items, bound, outer, ground, consts, table, out, slots):
    """Compile body items into a function of a slot list holding the
    variables `bound` that runs the step `out(slots, aggs)` returns once per
    way to satisfy them; `aggs` gives the engine aggregates in body order.

    The one body walker: it grounds a body if `ground` and evaluates it
    over relations otherwise, reading the rows of the `_Relations` that
    `table[0]` holds when it runs: the possible atoms or the relations.
    Items run in join order: the next one is the first whose inputs are
    bound, comparisons before other items. The order depends only on the
    variables bound on entry, so it is fixed here once, and with it the
    slots (shared with the plans of count elements) that each step reads
    and binds. `V = e`, `V = lo..hi` and `V = #count{...}` bind an unbound
    V, and a positive literal its unbound plain variables, from its rows
    looked up on its bound positions (with no `table` it cannot). A variable that no item binds is unsafe
    (ValueError). Over relations any other literal tests membership; when
    grounding, it is built from the final binding, and a count over
    non-constant elements becomes an engine aggregate.
    """
    inputs, bound, steps, aggs = [_inputs(it, outer) for it in items], set(bound), [], []
    # comparisons first: each one tests, or binds a single value
    pending = sorted(range(len(items)), key=lambda k: not isinstance(items[k], Cmp))
    expr = lambda e: _expr(e, slots, consts)

    def slot(name):
        bound.add(name)
        return slots.setdefault(name, len(slots))

    while True:
        k = next((k for k in pending if inputs[k] <= bound), None)
        if k is None:
            free = (inputs[pending[0]] if pending else outer) - bound
            if free:
                raise ValueError("unsafe variable %s" % min(free))
            break
        pending.remove(k)
        it = items[k]
        if isinstance(it, CountExpr) and it.bind is None:
            count, atoms = _count(it.elements, bound, ground, consts, table, slots)
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
            count, atoms = _count(it.elements, bound, ground, consts, table, slots)
            if atoms is not None:
                raise ValueError("count assignment over non-constant elements")
            if it.bind.name in bound:
                steps.append((_test, lambda env, n=count, v=expr(it.bind): n(env) == v(env)))
            else:
                steps.append((_each, slot(it.bind.name), lambda env, n=count: (n(env),)))
        elif isinstance(it, Lit):
            unbound, same = {}, []  # plain variables; a negative literal runs bound
            for i, a in enumerate(it.args):
                if isinstance(a, Var) and a.name not in bound:
                    if a.name in unbound:
                        same.append((i, unbound[a.name]))
                    unbound.setdefault(a.name, i)
            if unbound and table is None:
                raise ValueError("unsafe variable %s" % min(unbound))
            if unbound:
                keyed = tuple(i for i, a in enumerate(it.args) if not (isinstance(a, Var) and a.name in unbound))
                key = _exprs([it.args[i] for i in keyed], slots, consts)
                binds = [(slot(name), i) for name, i in unbound.items()]
                steps.append((_lookup, table, (it.pred, len(it.args), keyed), key, same, binds))
            elif not ground:
                args, rows = _exprs(it.args, slots, consts), table[0].rows
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


def _count(elements, bound, ground, consts, table, slots) -> tuple:
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
        hits = atoms if ground and isinstance(el.item, Lit) else [] if isinstance(el.item, Cmp) else set()

        def out(slots, aggs, hits=hits, item=el.item):
            if isinstance(item, Cmp):
                return lambda env: hits.append(None)
            args, pred = _exprs(item.args, slots, consts), item.pred
            if ground:
                return lambda env: hits.add(Atom(pred, args(env)))
            return lambda env: hits.add(args(env))

        parts.append((hits, _plan(el.conds + (el.item,), bound, frozenset(), ground, consts, table, out, slots)))
    counted = [hits for hits, _ in parts if hits is not atoms]

    def count(env):
        atoms.clear()
        for hits, run in parts:
            if hits is not atoms:
                hits.clear()
            run(env)
        return sum([len(hits) for hits in counted])

    return count, atoms if ground and len(counted) < len(parts) else None


def _lits(it) -> list:
    """The literals of a head or body item, those of its elements included."""
    if isinstance(it, (CountExpr, ChoiceExpr)):
        return [x for el in it.elements for x in (el.item,) + el.conds if isinstance(x, Lit)]
    return [it] if isinstance(it, Lit) else []


def _grounder(stmt, doc: AspDocument, names: tuple):
    """The plan that grounds one statement into the list in slot 0, with the
    variables `names` in the next slots, binding from the possible atoms in
    the one-element holder `possible`; then the holder, the padding of the
    slot list, the head predicates and whether the body reads one. A choice
    head's atoms are defined, not read: only their conditions bind them."""
    consts, outer, possible = dict(doc.constants), _outer_vars(stmt), [None]
    head, slots = getattr(stmt, "head", None), {name: i for i, name in enumerate((None,) + names)}

    def out(slots, aggs):
        def atoms(lits):
            if all(type(a) in (int, str) for l in lits for a in l.args):  # ground: built once
                ground = frozenset([Atom(l.pred, l.args) for l in lits])
                return lambda env: ground
            parts = [(l.pred, _exprs(l.args, slots, consts)) for l in lits]
            return lambda env: frozenset([Atom(pred, args(env)) for pred, args in parts])

        pos, neg = (atoms([l for l in stmt.body if isinstance(l, Lit) and l.neg == n]) for n in (False, True))
        if isinstance(stmt, WeakStmt):
            terms, weight = _exprs(stmt.terms, slots, consts), stmt.weight
            return lambda env: env[0].append(WeakConstraint(pos(env), neg(env), aggs(env), weight, terms(env)))
        if isinstance(head, ChoiceExpr):
            count, chosen = _count(head.elements, set(names) | outer, True, consts, None, slots)
            lower, upper = _expr(head.lower, slots, consts), _expr(head.upper, slots, consts)

            def h(env):
                if count(env):
                    raise ValueError("constant elements in a choice head")
                return ChoiceHead(tuple(sorted(chosen or (), key=Atom.sort_key)), lower(env), upper(env))

        elif head is None:
            h = lambda env: None
        elif all(type(a) in (int, str) for a in head.args):  # ground: built once
            h = lambda env, atom=Atom(head.pred, head.args): atom
        else:
            h = lambda env, pred=head.pred, args=_exprs(head.args, slots, consts): Atom(pred, args(env))
        return lambda env: env[0].append(GroundRule(h(env), pos(env), neg(env), aggs(env)))

    run = _plan(stmt.body, names, outer, True, consts, possible, out, slots)
    heads = {x.pred for x in _lits(head)}
    recursive = bool(heads) and any(isinstance(it, Lit) and it.pred in heads and not it.neg for it in stmt.body)
    return run, [None] * (len(slots) - len(names) - 1), possible, heads, recursive


def _ground_statement(stmt, doc: AspDocument, fixed: dict, table) -> list:
    """The engine rules / weak constraints of one statement with the
    variables of `fixed` set, by its grounder, compiled once per document,
    binding from the possible atoms `table` and adding its heads to them; a
    statement whose body reads its head predicate repeats until it grounds
    no more rules."""
    if isinstance(stmt, FactPoolStmt):
        objs = [GroundRule(head=Atom(stmt.pred, (v,))) for v in stmt.values]
        table.add((stmt.pred,), objs)
        return objs
    grounders, key = doc.templates.setdefault("grounders", {}), (id(stmt), tuple(fixed))
    if key not in grounders:  # kept with its grounder, the statement keeps its id
        grounders[key] = (stmt,) + _grounder(stmt, doc, tuple(fixed))
    _, run, padding, possible, heads, recursive = grounders[key]
    possible[0], objs, size = table, [], -1
    run([objs, *fixed.values(), *padding])
    if heads:
        table.add(heads, objs)
    while recursive and len(objs) > size:
        size, objs = len(objs), []
        run([objs, *fixed.values(), *padding])
        table.add(heads, objs)
    possible[0] = None  # the grounder outlives the table
    return objs


def _ground(doc: AspDocument, groups) -> GroundProgram:
    """The statements of `groups`, each (statements, cyclic, fixings), ground
    in order, each once per `fixed` of its fixings, from the possible atoms
    of those before it; a cyclic group repeats until all are possible."""
    table, objs = _Relations({}), []
    for stmts, cyclic, fixings in groups:
        size = -1
        while True:
            ground = [o for s in stmts for fixed in fixings for o in _ground_statement(s, doc, fixed, table)]
            if not cyclic or len(ground) == size:
                break
            size = len(ground)
        objs += ground
    weak = [o for o in objs if isinstance(o, WeakConstraint)]
    return GroundProgram(tuple([o for o in objs if not isinstance(o, WeakConstraint)]), tuple(weak))


def _template(stmt, xnames: list, domains: tuple, lits: dict) -> tuple:
    """`stmt` rewritten for the tuple layer, and its gate. Each X_i that is
    an atom argument, plain or nested in a term, becomes the constant "Xi"
    (no input constant starts upper-case), and element conditions
    `X_i = lo..hi` whose range covers X_i's domain are dropped: every tuple
    meets them. The gate is the indices of the X_i still used as variables,
    those compared, ranged over or computed with. A literal is rewritten
    once, into `lits` by its id, however many statements share it."""
    if isinstance(stmt, FactPoolStmt):
        return stmt, ()
    dom, used = dict(zip(xnames, domains)), set()

    def arg(e, xs):
        if isinstance(e, Var):
            return e.name if e.name in dom else e
        if isinstance(e, Fn):
            return Fn(e.name, tuple([arg(a, xs) for a in e.args]))
        _expr_vars(e, xs)  # arithmetic
        return e

    def covers(c):
        return isinstance(c, RangeBind) and c.var.name in dom and set(dom[c.var.name]) <= set(range(c.lo, c.hi + 1))

    def item(it):
        if isinstance(it, Lit):
            hit = lits.get(id(it))
            if hit is None:  # the rewrite, and the variables it computes with
                xs = set()
                hit = lits[id(it)] = Lit(it.pred, tuple([arg(a, xs) for a in it.args]), it.neg), xs
            used.update(hit[1])
            return hit[0]
        if isinstance(it, (CountExpr, ChoiceExpr)):
            conds = lambda el: tuple([item(c) for c in el.conds if not covers(c)])
            it = replace(it, elements=tuple([AggElem(item(el.item), conds(el)) for el in it.elements]))
        _item_vars(it, used)
        return it

    head = stmt.head if stmt.head is None else item(stmt.head)
    stmt = RuleStmt(head, tuple([item(it) for it in stmt.body]), stmt.tag, stmt.phase)
    return stmt, tuple(i for i, x in enumerate(xnames) if x in used)


def _subst(v, values: dict):
    """`v` (an atom, a term or a constant) with each "Xi" of a template
    replaced by values["Xi"]."""
    t = type(v)
    if t is str:
        return values.get(v, v)
    if t is Atom:
        return Atom(v.predicate, tuple([_subst(a, values) for a in v.args]))
    if t is Term:
        return Term(v.functor, tuple([_subst(a, values) for a in v.args]))
    return v


def _tuple_rows(doc: AspDocument, xs: tuple) -> list:
    """The rows of tuple `xs`'s program: the rows of each tuple-phase
    statement's template (see `_template`) ground with the tuple's value of
    its gate. On first use every template is ground at every value of its
    gate, in statement order, binding from the template atoms of those
    before it (a template atom is the same for every value); the template
    atoms are numbered in `Atom.sort_key` order and the templates compiled.
    `doc.templates` keeps the rewritten statements with their templates'
    rows by gate value, the id table, which maps each template atom to its
    bit position in every tuple, and per gate the rows of its statements,
    put together once per value."""
    templates, names = doc.templates, _names("X", doc.m)
    if "statements" not in templates:
        # the one weak statement, :~ ap(X1,...,Xm). [-1, X1,...,Xm], is left
        # out: `_solve_tuple` seeds ap(xs) true, so every model pays the same
        tuple_phase = [s for s in doc.statements if s.phase == "tuple" and not isinstance(s, WeakStmt)]
        lits = {}  # keyed by identity: the document holds every literal meanwhile
        statements = templates["statements"] = [_template(s, names, doc.domains, lits) + ({},) for s in tuple_phase]
        table = _Relations({})
        for stmt, gate, by_value in statements:
            for value in product(*[doc.domains[g] for g in gate]):
                by_value[value] = _ground_statement(stmt, doc, {names[g]: v for g, v in zip(gate, value)}, table)
        ground = [r for _, _, by_value in statements for objs in by_value.values() for r in objs]
        atoms = set().union(*[r.pos | r.neg for r in ground], *[g.atoms for r in ground for g in r.aggregates])
        atoms.update(*[r.head.atoms if isinstance(r.head, ChoiceHead) else (r.head,) for r in ground if r.head is not None])
        ids = templates["ids"] = {a: i for i, a in enumerate(sorted(atoms, key=Atom.sort_key))}
        bit, templates["groups"] = {a: 1 << i for a, i in ids.items()}.__getitem__, {}
        for _, gate, by_value in statements:
            for value, objs in by_value.items():
                by_value[value] = rows_of(objs, bit)
            templates["groups"].setdefault(gate, ([], {}))[0].append(by_value)
    rows = []
    for gate, (members, combined) in templates["groups"].items():
        value = tuple([xs[g] for g in gate])
        if value not in combined:
            combined[value] = [r for by_value in members for r in by_value[value]]
        rows += combined[value]
    return rows


def tuple_ground_program(doc: AspDocument, xs: tuple) -> GroundProgram:
    """Partial ground program for one assumption tuple: the tuple-phase
    statements ground with every X_i fixed to the tuple's value. The
    reference for `_solve_tuple`, which solves the compiled rows."""
    fixed = dict(zip(_names("X", doc.m), xs))
    return _ground(doc, [([s], False, [fixed]) for s in doc.statements if s.phase == "tuple"])


def ground_document(doc: AspDocument) -> GroundProgram:
    """Monolithic grounding of every statement over the full tuple space:
    each tuple-phase statement with the X_i fixed to each tuple in turn,
    then the cross-tuple statements by the components of `_components`."""
    fixings = [dict(zip(_names("X", doc.m), xs)) for xs in doc.tuple_space()]
    groups = [([s], False, fixings) for s in doc.statements if s.phase == "tuple"]
    components = _components([s for s in doc.statements if s.phase == "global"])
    return _ground(doc, groups + [(stmts, cyclic, [{}]) for stmts, cyclic in components])


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
    (predicate, arity, bound positions), the rows by their values there.
    When grounding, a predicate's rows are its possible atoms, the heads of
    the ground rules given to `add`, taken when a lookup first reads them,
    in the order found, so that a grounding's order is fixed."""

    def __init__(self, seeds: dict):
        self.rows = {pred: set(rows) for pred, rows in seeds.items()}
        self.indexes, self.defined = {}, {}

    def add(self, preds, rules) -> None:
        """The ground `rules`, whose head atoms have the predicates `preds`."""
        for pred in preds:
            self.defined.setdefault(pred, []).append(rules)
        self.indexes.clear()

    def index(self, spec) -> dict:
        index = self.indexes.get(spec)
        if index is None:
            pred, arity, positions = spec
            if pred in self.defined:
                heads = [r.head.atoms if isinstance(r.head, ChoiceHead) else (r.head,) for rules in self.defined.pop(pred) for r in rules]
                self.rows.setdefault(pred, {}).update((a.args, None) for atoms in heads for a in atoms if a.predicate == pred)
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
            e.update((x.pred, x is it and not x.neg) for x in _lits(it))
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

            plans.append((_plan(s.body, (), _outer_vars(s), False, consts, (table,), out, slots), slots))
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
    rows, ids = _tuple_rows(doc, xs), doc.templates["ids"]
    return list(solve_rows(rows, len(ids), 1 << ids[Atom("ap", tuple(_names("X", doc.m)))], 0))


def _solve_tuples(doc: AspDocument, cap: int, pred: str) -> tuple:
    """The tuple layer of `doc`, solved and then decoded once, and the
    argument rows of the `pred` atoms of each consistent tuple's models.

    The layer holds the consistent tuples, in tuple-space order, their
    models' projections onto σ, and the `ap` and `pred` rows as relations.
    Each id's σ atom is found once, by `shrink`'s rule: the template atom's
    last m arguments are "X1", ..., "Xm" and the atom of the arguments
    before them is in σ (with m = 0, the atom itself is). Only `pred` atoms
    are built with a tuple's values.
    """
    if len(doc.sigma) > cap:
        raise CapExceeded(len(doc.sigma), cap)
    solved = {}
    for xs in doc.tuple_space():
        models = _solve_tuple(doc, xs)
        if models:
            solved[xs] = models
    m, names, sigma, found = doc.m, tuple(_names("X", doc.m)), [], []
    for i, a in enumerate(doc.templates["ids"]):
        base = a if m == 0 else Atom(a.predicate, a.args[:-m]) if a.args[-m:] == names else None
        if base in doc.sigma:
            sigma.append((1 << i, base))
        if a.predicate == pred:
            found.append((1 << i, a.args))
    projections, rows = {}, {}
    for xs, models in solved.items():
        projections[xs] = tuple(sorted({frozenset([b for bit, b in sigma if t & bit]) for t in models}, key=sorted_key))
        values = dict(zip(names, xs))
        rows[xs] = [tuple([_subst(v, values) for v in args]) for t in models for bit, args in found if t & bit]
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
