"""The four benchmark workloads: which programs one pass runs, and how each
operation's output is checked.

One pass of a workload is a fixed list of shapes; the seed fills in each
program and the order of the pass, so every seed runs the same shapes and
the cost of a pass barely depends on the seed. An operation is the argument
list of one ``lpodc`` command on a program file written during set-up.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import random
import re
from dataclasses import dataclass

import generators as gen
from lpodc.model import Dialect
from lpodc.translate import AspDocument, emit, parse_emitted

WORKLOADS = ("compile", "check-lpod", "check-crp", "chain")

# compile: (regular rules, ordered head lengths) of each large LPOD program,
# translated once without a criterion and once per criterion. The two
# 500-rule programs hold the median of the pass inside one size. The last
# shape has 5^7 assumption tuples, so the preference layers' ``ap`` domain
# shows in peak memory.
BIG_LPOD_SHAPES = (
    (200, (2, 3)),
    (500, (3, 2, 3)),
    (500, (2, 2, 3)),
    (1000, (2, 3, 3, 2)),
    (1500, (3, 2, 3, 2, 3)),
    (2000, (2, 3, 2, 3, 2, 3)),
    (800, (4, 4, 4, 4, 4, 4, 4)),
)
# compile: (regular rules, cr-rules, ordered cr heads, ordered heads).
BIG_CRP_SHAPES = (
    (300, 2, (2,), (2,)),
    (1000, 3, (3,), (2, 3)),
    (2000, 2, (3, 2), (3,)),
)
# The percentiles of a pass are taken over its programs, so each pass is
# built to put its median and its 90th percentile inside a block of
# programs of one shape; otherwise they would jump between shapes of
# different cost as the seed changes.
#
# check-lpod: ordered head lengths per program (one to three ordered rules
# of two or three heads, as in the randomized LPOD acceptance suite). The
# median falls among the (2, 3) programs, the 90th percentile among the
# (2, 3, 3) ones.
SMALL_LPOD_SHAPES = (
    ((2,),) * 7 + ((3,),) * 7
    + ((2, 2),) * 3 + ((2, 3),) * 10 + ((3, 3),) * 3
    + ((2, 2, 2),) * 4 + ((2, 2, 3),) * 4 + ((2, 3, 3),) * 5 + ((3, 3, 3),) * 1
)
# check-crp: (cr-rules, ordered cr heads, ordered heads), 0 meaning none,
# as in the randomized CR-Prolog2 acceptance suite. Shapes with 7 or more
# appl atoms (0.5-5 s each) are left out; the median falls among the
# (1, 0, 3) programs, the 90th percentile among the 0.2-0.3 s shapes.
SMALL_CRP_SHAPES = (
    ((0, 0, 0),) * 4 + ((1, 0, 0),) * 4 + ((2, 0, 0),) * 4
    + ((0, 0, 2),) * 2 + ((0, 2, 0),) * 2 + ((0, 0, 3),) * 2 + ((1, 0, 2),) * 2 + ((0, 3, 0),) * 2
    + ((1, 0, 3),) * 8
    + ((2, 0, 2),) * 4 + ((1, 2, 0),) * 4
    + ((0, 2, 2),) * 4 + ((1, 3, 0),) * 4 + ((2, 0, 3),) * 4 + ((2, 2, 0),) * 4
)
# chain: (ordered rules m, rules with a third head), each shape once per
# criterion and (3, 2) twice per criterion, which holds the median; the
# (4, 1) programs hold the 90th percentile. Tuple spaces go up to
# 4 * 3^3 = 108. Programs with more long rules at m=4 (144-256 tuples,
# 1-8 s per operation) are left out so that a run holds three passes.
CHAIN_SHAPES = ((3, 0), (3, 1), (3, 2), (3, 2), (3, 3), (4, 0), (4, 1))

_GOLDEN_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|\d+|:~|:-|!=|<=|>=|\.\.|\S")


@dataclass(frozen=True)
class Op:
    name: str
    argv: tuple
    kind: str  # "translate" or "check"
    dialect: str = ""
    criterion: str = ""
    golden: str = ""


def golden_tokens(text: str) -> list:
    """Token sequence with whitespace and ``%`` comments ignored, as the
    golden translation tests compare."""
    out = []
    for line in text.splitlines():
        if line.strip().startswith("%"):
            continue
        out.extend(_GOLDEN_TOKEN.findall(line.split("%")[0]))
    return out


def _load_goldens(root: str):
    spec = importlib.util.spec_from_file_location("goldens", os.path.join(root, "tests", "goldens.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _translate_ops(name, path, dialect, goldens_by_criterion=None):
    criteria = ("",) + gen.CRITERIA if dialect == "lpod" else ("",)
    goldens_by_criterion = goldens_by_criterion or {}
    for c in criteria:
        argv = ("translate", "--criterion", c, path) if c else ("translate", path)
        yield Op(
            name="%s/%s" % (name, c or "base"),
            argv=argv,
            kind="translate",
            dialect=dialect,
            criterion=c,
            golden=goldens_by_criterion.get(c, ""),
        )


def build(workload: str, seed: int, root: str, workdir: str) -> list:
    """Write the programs of one pass into ``workdir`` and return its
    operations in the seeded order of the pass."""
    rng = random.Random("%s:%d" % (workload, seed))
    files = {}
    ops = []

    def program(name, text):
        path = os.path.join(workdir, name)
        files[path] = text
        return path

    if workload == "compile":
        g = _load_goldens(root)
        for name in ("pi1.lpod", "pi2.lpod", "pi3.crp", "pi3p.crp"):
            with open(os.path.join(root, "programs", name), encoding="utf-8") as fh:
                path = program(name, fh.read())
            expected = {
                "pi1.lpod": {"": g.PI1_BASE},
                "pi2.lpod": {
                    "cardinality": g.PI2_BASE + g.PI2_CARDINALITY,
                    "inclusion": g.PI2_BASE + g.PI2_INCLUSION,
                    "pareto": g.PI2_BASE + g.PI2_PARETO,
                    "penalty-sum": g.PI2_BASE + g.PI2_PENALTY_SUM,
                },
                "pi3.crp": {"": g.PI3_CRP},
                "pi3p.crp": {"": g.PI3_CRP + g.PI3P_EXTENSION},
            }[name]
            dialect = "crp2" if name.endswith(".crp") else "lpod"
            ops.extend(_translate_ops(name, path, dialect, expected))
        for i, (n_regular, heads) in enumerate(BIG_LPOD_SHAPES):
            path = program("big%d.lpod" % i, gen.big_lpod(rng, n_regular, heads))
            ops.extend(_translate_ops("big%d" % i, path, "lpod"))
        for i, (n_regular, n_cr, ordered_cr, ordered) in enumerate(BIG_CRP_SHAPES):
            path = program("big%d.crp" % i, gen.big_crp(rng, n_regular, n_cr, ordered_cr, ordered))
            ops.extend(_translate_ops("bigcrp%d" % i, path, "crp2"))
    elif workload == "check-lpod":
        for i, heads in enumerate(SMALL_LPOD_SHAPES):
            path = program("p%02d.lpod" % i, gen.small_lpod(rng, heads))
            ops.append(Op(name="p%02d" % i, argv=("check", path), kind="check"))
    elif workload == "check-crp":
        for i, (n_cr, ocr, o) in enumerate(SMALL_CRP_SHAPES):
            path = program("p%02d.crp" % i, gen.small_crp(rng, n_cr, ocr, o, prefer=i % 2 == 0))
            ops.append(Op(name="p%02d" % i, argv=("check", path), kind="check"))
    elif workload == "chain":
        offset = rng.randrange(len(gen.CRITERIA))
        for i, (m, n_long) in enumerate(s for s in CHAIN_SHAPES for _ in gen.CRITERIA):
            criterion = gen.CRITERIA[(i + offset) % len(gen.CRITERIA)]
            path = program("chain%02d.lpod" % i, gen.chain(rng, m, n_long))
            ops.append(
                Op(name="chain%02d" % i, argv=("check", "--criterion", criterion, path), kind="check")
            )
    else:
        raise ValueError("unknown workload %r" % workload)

    os.makedirs(workdir, exist_ok=True)
    for path, text in files.items():
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    rng.shuffle(ops)
    return ops


def verify(op: Op, rc: int, out: str) -> str:
    """Empty string when the output of ``op`` is right, else what is wrong."""
    if rc != 0:
        return "exit code %d" % rc
    if op.kind == "check":
        lines = out.splitlines()
        if not lines:
            return "no verdict lines"
        bad = [line for line in lines if not line.startswith("OK: ")]
        return "not OK: %r" % bad[0] if bad else ""
    header = []
    body_lines = out.splitlines(keepends=True)
    while body_lines and body_lines[0].startswith("%"):
        header.append(body_lines.pop(0).strip())
    body = "".join(body_lines)
    criterion = "%% criterion: %s" % op.criterion if op.criterion else "% criterion: none (base translation)"
    expected_header = ["%% source: %s" % op.argv[-1], "%% dialect: %s" % op.dialect]
    if op.dialect == "lpod":
        expected_header.append(criterion)
    if not header or header[:-1] != expected_header or not header[-1].startswith("% tool: lpodc "):
        return "unexpected header %r" % header
    if not body:
        return "empty translation"
    constants, statements = parse_emitted(body)
    doc = AspDocument(
        dialect=Dialect.LPOD if op.dialect == "lpod" else Dialect.CRP2,
        m=0, heads=(), domains=(), sigma=frozenset(),
        statements=statements, constants=constants,
    )
    if emit(doc) != body:
        return "emitted text does not re-render identically after parse_emitted"
    if op.golden and golden_tokens(body) != golden_tokens(op.golden):
        return "translation differs from the golden listing"
    return ""


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
