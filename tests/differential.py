"""Differential digests of the evaluator: one line per document.

Run from the root of an lpodc checkout:

    PYTHONPATH=src python3 tests/differential.py > digests.txt

Each line is `<document name> <digest>`, the digest being a SHA-256 prefix
of the document's evaluation: for an LPOD base translation its per-tuple
projections, `degree` rows and relations, for an LPOD criterion document
and a CR-Prolog2 translation its projections and global relations. The
last line counts the engine leaves (`engine.is_stable` calls). Two trees
evaluate alike on the corpus when their outputs are equal, e.g.
`diff <(cd old && PYTHONPATH=src python3 tests/differential.py) digests.txt`.

The corpus (more than 2,000 documents) is `programs/*`; the programs of the
`check-lpod`, `check-crp` and `chain` benchmark workloads for seeds 1-3
(the `compile` programs are never solved); chains `a_i * b_i [* c_i] :-
not d_i.` with `:- a_i, a_{i+1}.` of every 2/3-head shape up to m=4 and
three of m=5; and seeded programs of `random_lpod`, `random_lpod_args` and
`random_crp`. This file is a script, not a test module.
"""

import hashlib
import itertools
import os
import random
import sys
import tempfile

from lpodc import engine
from lpodc.evaluate import eval_crp, eval_lpod, with_criterion
from lpodc.lpod import Criterion
from lpodc.model import Dialect, canonicalize
from lpodc.parser import parse
from lpodc.randgen import random_crp, random_lpod, random_lpod_args
from lpodc.translate import crp2asp, lpod2asp_base, lpod2asp_criterion


def _program(text: str, dialect: Dialect):
    return canonicalize(parse(text, dialect))


def _chain(heads: tuple):
    lines = [
        "%s :- not d%d." % (" * ".join("%s%d" % (c, i) for c in "abc"[:n]), i)
        for i, n in enumerate(heads, start=1)
    ]
    lines += [":- a%d, a%d." % (i, i + 1) for i in range(1, len(heads))]
    return _program("\n".join(lines), Dialect.LPOD)


def _benchmark_programs(root: str) -> list:
    sys.path.insert(0, os.path.join(root, "perfbench"))
    import workloads

    out = []
    for workload in ("check-lpod", "check-crp", "chain"):
        for seed in (1, 2, 3):
            with tempfile.TemporaryDirectory() as workdir:
                ops = workloads.build(workload, seed, root, workdir)
                for op in sorted(ops, key=lambda op: op.name):
                    path = op.argv[-1]
                    dialect = Dialect.CRP2 if path.endswith(".crp") else Dialect.LPOD
                    with open(path, encoding="utf-8") as fh:
                        out.append(("%s:%d:%s" % (workload, seed, op.name), _program(fh.read(), dialect)))
    return out


def corpus(root: str) -> list:
    """(name, program) pairs of the whole corpus, in a fixed order."""
    out = []
    for name in sorted(os.listdir(os.path.join(root, "programs"))):
        dialect = Dialect.CRP2 if name.endswith(".crp") else Dialect.LPOD
        with open(os.path.join(root, "programs", name), encoding="utf-8") as fh:
            out.append((name, _program(fh.read(), dialect)))
    out += _benchmark_programs(root)
    shapes = [s for m in range(1, 5) for s in itertools.product((2, 3), repeat=m)]
    shapes += [(2, 2, 2, 2, 2), (2, 3, 2, 3, 2), (3, 3, 3, 3, 3)]
    out += [("chain" + "".join(map(str, s)), _chain(s)) for s in shapes]
    rng = random.Random(20260)
    out += [("random_lpod:%d" % i, random_lpod(rng)) for i in range(100)]
    out += [("random_lpod_args:%d" % i, random_lpod_args(rng)) for i in range(50)]
    out += [("random_crp:%d" % i, random_crp(rng)) for i in range(150)]
    return out


def _digest(*parts) -> str:
    text = repr([sorted(map(repr, part)) if isinstance(part, (set, frozenset)) else part for part in parts])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _relations(relations: dict) -> list:
    return [(pred, sorted(map(repr, rows))) for pred, rows in sorted(relations.items())]


def _projections(ev) -> list:
    return [(repr(xs), sorted(sorted(map(str, s)) for s in sets)) for xs, sets in sorted(ev.projections.items())]


def documents(name: str, program):
    """(document name, digest) of each document of one program."""
    if program.dialect is Dialect.CRP2:
        ev = eval_crp(crp2asp(program))
        yield name, _digest(_projections(ev), _relations(ev.relations))
        return
    base = lpod2asp_base(program)
    tuples = eval_lpod(base)
    degrees = sorted((repr(xs), repr(d)) for xs, d in tuples.degrees.items())
    yield name + ":base", _digest(_projections(tuples), degrees, _relations(tuples.relations))
    for criterion in Criterion:
        ev = with_criterion(tuples, lpod2asp_criterion(base, criterion))
        yield "%s:%s" % (name, criterion.value), _digest(_projections(ev), _relations(ev.relations))


def main() -> None:
    leaves = 0
    is_stable = engine.is_stable

    def counted(rows, interp):
        nonlocal leaves
        leaves += 1
        return is_stable(rows, interp)

    engine.is_stable = counted
    n = 0
    for name, program in corpus(os.getcwd()):
        for doc_name, digest in documents(name, program):
            print(doc_name, digest)
            n += 1
    print("documents %d leaves %d" % (n, leaves))


if __name__ == "__main__":
    main()
