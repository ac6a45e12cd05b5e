from pathlib import Path

import differential

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = ROOT / "tests" / "differential.txt"


def test_differential_digests_match():
    # every document's evaluation is pinned; regenerate with
    # PYTHONPATH=src python3 tests/differential.py --write
    want = DIGESTS.read_text().splitlines()
    got = differential.digests(str(ROOT))
    assert len(got) == len(want) > 2000
    differing = [g.split()[0] for g, w in zip(got[:-1], want[:-1]) if g != w]
    assert not differing, "evaluation differs: %s" % ", ".join(differing[:5])
    # the engine leaf count moves with the branching order alone
    assert got[-1] == want[-1]
