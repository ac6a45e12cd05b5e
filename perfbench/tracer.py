"""Per-layer tracing of lpodc from outside the library.

``Tracer.install`` wraps the public functions of each lpodc module and
patches every binding of them in every loaded ``lpodc`` module, since
several modules import them by name (``lpod`` and ``crp`` each hold their
own ``answer_sets``). Each call becomes a span ``[name, start, end, parent,
op, note]`` kept in memory; ``layer_metrics`` turns the spans into the
per-layer counters and busy/self times when the run ends.

Self time is a span's duration minus the time its child spans cover. The
busy time of a group is the time covered by its outermost spans, so calls
nested inside a call of the same group count once.
"""

from __future__ import annotations

import json
import math
import sys
import time

NAME, START, END, PARENT, OP, NOTE = range(6)


def _args_and_result(args, result):
    return args, result


def _text_len(args, result):
    return len(args[0])


def _result(args, result):
    return result


# (module, function, note) for every traced function. A note captures what
# the counters need from the call; it runs after the span has closed and
# only keeps references, so counting costs nothing inside the span.
TARGETS = (
    ("cli", "main", None),
    ("parser", "parse", _text_len),
    ("model", "validate_program", None),
    ("model", "canonicalize", None),
    ("translate", "lpod2asp_base", _result),
    ("translate", "lpod2asp_pref", _result),
    ("translate", "crp2asp", _result),
    ("translate", "emit", _result),
    ("crosscheck", "check_program", None),
    ("crosscheck", "check_lpod", None),
    ("crosscheck", "check_crp", None),
    ("crosscheck", "shrink_counterexample", None),
    ("lpod", "split_candidate_projections", None),
    ("lpod", "assumption_candidates", None),
    ("lpod", "preferred", None),
    ("crp", "generalized_answer_sets", None),
    ("crp", "candidate_answer_sets", None),
    ("crp", "preferred_answer_sets", None),
    ("crp", "assumption_projections", None),
    ("evaluate", "eval_lpod", _result),
    ("evaluate", "eval_crp", _result),
    ("evaluate", "tuple_ground_program", _result),
    ("evaluate", "evaluate_global_layer", _result),
    ("engine", "answer_sets", _args_and_result),
    ("engine", "optimal_answer_sets", _args_and_result),
    ("engine", "is_answer_set", None),
)

BUILD = ("lpod2asp_base", "lpod2asp_pref", "crp2asp")
ENGINE_ENTRY = ("answer_sets", "optimal_answer_sets")
LPOD = ("split_candidate_projections", "assumption_candidates", "preferred")
CRP = ("generalized_answer_sets", "candidate_answer_sets", "preferred_answer_sets", "assumption_projections")
CROSSCHECK = ("check_program", "check_lpod", "check_crp", "shrink_counterexample")
ATOMS_PROP = "GroundProgram.atoms"


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = -1
        self._restore = []

    def _wrap(self, name, fn, note):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if note is not None:
                span[NOTE] = note(args, result)
            return result

        return traced

    def install(self) -> None:
        loaded = [m for n, m in sys.modules.items() if n == "lpodc" or n.startswith("lpodc.")]
        for mod_name, fn_name, note in TARGETS:
            original = getattr(sys.modules["lpodc." + mod_name], fn_name)
            wrapped = self._wrap(fn_name, original, note)
            for mod in loaded:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)
                        self._restore.append((mod, attr, original))
        ground_program = sys.modules["lpodc.engine"].GroundProgram
        prop = ground_program.__dict__["atoms"]
        self.atoms_fget = prop.fget
        ground_program.atoms = property(self._wrap(ATOMS_PROP, prop.fget, None))
        self._restore.append((ground_program, "atoms", prop))

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._restore):
            setattr(obj, attr, original)
        self._restore.clear()

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines: name, start, end, parent, op."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s[:NOTE]) + "\n")

    def layer_metrics(self, n_ops: int) -> dict:
        spans = self.spans
        child = [0.0] * len(spans)
        by_name = {}
        for i, s in enumerate(spans):
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
            by_name.setdefault(s[NAME], []).append(i)

        def dur(s):
            return s[END] - s[START]

        def named(names):
            return sorted(i for name in names for i in by_name.get(name, ()))

        def outermost(names):
            out = []
            for i in named(names):
                p = spans[i][PARENT]
                while p >= 0 and spans[p][NAME] not in names:
                    p = spans[p][PARENT]
                if p < 0:
                    out.append(i)
            return out

        def busy(names):
            return sum(dur(spans[i]) for i in outermost(names))

        def self_time(names):
            return sum(dur(spans[i]) - child[i] for i in named(names))

        def under(i, names):
            p = spans[i][PARENT]
            while p >= 0:
                if spans[p][NAME] in names:
                    return True
                p = spans[p][PARENT]
            return False

        def ratio(a, b):
            return a / b if b else 0.0

        def prod(values):
            return math.prod(len(v) for v in values)

        parses = named(("parse",))
        parse_busy = busy(("parse",))
        parsed_bytes = sum(spans[i][NOTE] for i in parses)
        built = [spans[i][NOTE] for i in outermost(BUILD)]
        emitted = [spans[i][NOTE] for i in named(("emit",))]
        grounds = [spans[i][NOTE] for i in named(("tuple_ground_program",))]
        evaluated = [spans[i][NOTE] for i in named(("eval_lpod", "eval_crp"))]
        globals_ = [spans[i][NOTE] for i in named(("evaluate_global_layer",))]
        engine_calls = outermost(ENGINE_ENTRY)
        solves = named(("answer_sets",))
        leaves = [i for i in named(("is_answer_set",)) if under(i, ("answer_sets",))]
        n_answer_sets = sum(len(spans[i][NOTE][1]) for i in solves)
        gas_solves = [
            i for i in solves
            if spans[i][PARENT] >= 0 and spans[spans[i][PARENT]][NAME] == "generalized_answer_sets"
        ]
        atoms_props = named((ATOMS_PROP,))
        n_atoms = self.atoms_fget
        return {
            "parser.calls": len(parses),
            "parser.busy_s": parse_busy,
            "parser.kb_per_s": ratio(parsed_bytes / 1024, parse_busy),
            "model.busy_s": busy(("validate_program", "canonicalize")),
            "translate.build_busy_s": busy(BUILD),
            "translate.statements": sum(len(d.statements) for d in built),
            "translate.tuple_space": sum(prod(d.domains) for d in built),
            "translate.emit_busy_s": busy(("emit",)),
            "translate.emitted_kb": sum(len(t) for t in emitted) / 1024,
            "evaluate.busy_s": busy(("eval_lpod", "eval_crp")),
            "evaluate.tuples_tried": len(grounds),
            "evaluate.ground_busy_s": busy(("tuple_ground_program",)),
            "evaluate.ground_rules_per_tuple": ratio(
                sum(len(g.rules) + len(g.weak) for g in grounds), len(grounds)
            ),
            "evaluate.ground_atoms_per_tuple": ratio(
                sum(len(n_atoms(g)) for g in grounds), len(grounds)
            ),
            "evaluate.tuple_yield": ratio(sum(len(e.ap_tuples) for e in evaluated), len(grounds)),
            "evaluate.tuple_layer_solves_per_program": ratio(len(evaluated), n_ops),
            "evaluate.global_busy_s": busy(("evaluate_global_layer",)),
            "evaluate.global_rows": sum(len(rows) for g in globals_ for rows in g.values()),
            "engine.calls": len(engine_calls),
            "engine.busy_s": busy(ENGINE_ENTRY),
            "engine.self_s": self_time(ENGINE_ENTRY),
            "engine.atoms_mean": ratio(
                sum(len(n_atoms(spans[i][NOTE][0][0])) for i in engine_calls), len(engine_calls)
            ),
            "engine.leaves": len(leaves),
            "engine.answer_sets": n_answer_sets,
            "engine.leaf_yield": ratio(n_answer_sets, len(leaves)),
            "engine.atoms_prop_calls": len(atoms_props),
            "engine.atoms_prop_busy_s": sum(dur(spans[i]) for i in atoms_props),
            "lpod.busy_s": busy(LPOD),
            "lpod.candidates_calls_per_program": ratio(len(named(("assumption_candidates",))), n_ops),
            "crp.busy_s": busy(CRP),
            "crp.gas_busy_s": busy(("generalized_answer_sets",)),
            "crp.gas_calls_per_program": ratio(len(named(("generalized_answer_sets",))), n_ops),
            "crp.subsets_solved": len(gas_solves),
            "crp.subset_yield": ratio(sum(1 for i in gas_solves if spans[i][NOTE][1]), len(gas_solves)),
            "crp.assumption_busy_s": busy(("assumption_projections",)),
            "crosscheck.busy_s": busy(CROSSCHECK),
            "crosscheck.self_s": self_time(CROSSCHECK),
            "crosscheck.shrink_calls": len(named(("shrink_counterexample",))),
            "cli.self_s": self_time(("main",)),
            "trace.busy_s": busy(("main",)),
        }
