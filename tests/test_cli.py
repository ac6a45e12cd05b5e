import json
import subprocess
import sys

from conftest import PROGRAMS
from lpodc import crosscheck
from lpodc.cli import main
from lpodc.lpod import Criterion

LPODC = [sys.executable, "-m", "lpodc.cli"]


def run(args, stdin="", env_extra=None):
    import os

    env = dict(os.environ)
    # the package need not be installed: the child imports it from src/
    src = str(PROGRAMS.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        LPODC + args,
        input=stdin,
        capture_output=True,
        text=isinstance(stdin, str),
        env=env,
        cwd=str(PROGRAMS.parent),
    )


def test_translate_matches_library(tmp_path):
    out = run(["translate", "--criterion", "penalty-sum", "programs/pi1.lpod"])
    assert out.returncode == 0
    assert out.stdout.splitlines()[0].startswith("% source:")
    assert "{ap(X1,X2): X1=0..2, X2=0..2}." in out.stdout


def test_translate_crp_to_file(tmp_path):
    target = tmp_path / "out.lp"
    out = run(["translate", "programs/pi3.crp", "-o", str(target)])
    assert out.returncode == 0
    assert "pAS(X1,X2) :- candidate(X1,X2)" in target.read_text()


def test_translate_empty_input_warns():
    out = run(["translate", "--dialect", "lpod"], stdin="")
    assert out.returncode == 0
    assert out.stdout == ""
    assert "nothing to translate" in out.stderr


def test_translate_validation_error_exit_2():
    out = run(["translate", "--dialect", "lpod"], stdin="ap(1) :- b.\na * b.\n")
    assert out.returncode == 2
    assert "reserved" in out.stderr


def test_parse_error_exit_2():
    out = run(["solve", "--dialect", "lpod"], stdin="a :- ,.\n")
    assert out.returncode == 2
    assert "parse error" in out.stderr


def test_solve_pi2_cardinality_json():
    out = run(["solve", "--criterion", "cardinality", "--format", "json", "programs/pi2.lpod"])
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    assert payload["preferred"] == [["close", "hotel(1)", "star2"]]
    assumptions = {tuple(c["assumption"]) for c in payload["candidates"]}
    assert assumptions == {(1, 3), (2, 2), (4, 1)}
    degrees = {tuple(c["degrees"]) for c in payload["candidates"]}
    assert degrees == {(1, 3), (2, 2), (4, 1)}


def test_solve_pi3_preferred():
    out = run(["solve", "--format", "json", "programs/pi3.crp"])
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    assert sorted(payload["preferred"]) == [["q", "r"], ["q", "s", "t"]]


def test_solve_all_criteria_text(tmp_path):
    out = run(["solve", "programs/pi1.lpod"])
    assert out.returncode == 0
    for name in ("cardinality", "inclusion", "pareto", "penalty-sum"):
        assert "preferred (%s):" % name in out.stdout


def test_solve_inconsistent_lpod_is_empty_but_ok():
    text = "a * b :- not c.\n:- a.\n:- b.\n"
    out = run(["solve", "--dialect", "lpod", "--format", "json", "--criterion", "pareto"], stdin=text)
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    assert payload["candidates"] == []
    assert payload["preferred"] == []


def test_solve_deterministic():
    first = run(["solve", "programs/pi3p.crp"])
    second = run(["solve", "programs/pi3p.crp"])
    assert first.stdout == second.stdout


def test_check_pi1_pareto_ok():
    out = run(["check", "programs/pi1.lpod", "--criterion", "pareto"])
    assert out.returncode == 0
    assert "OK" in out.stdout and "MISMATCH" not in out.stdout
    assert "1 preferred" in out.stdout


def test_check_pi3p_ok():
    out = run(["check", "programs/pi3p.crp"])
    assert out.returncode == 0
    assert "1 preferred answer sets, oracle == translation" in out.stdout


def test_check_random_smoke():
    out = run(["check", "--random", "5", "--seed", "7", "--dialect", "lpod"])
    assert out.returncode == 0
    assert "OK: 5 random lpod programs" in out.stdout


def test_check_random_shrinks_under_the_chosen_criterion(monkeypatch, capsys):
    shrunk = []

    def failing(program, criteria=None, cap=None):
        return crosscheck.CheckResult(ok=False, lines=["MISMATCH: injected"])

    def shrink(program, criteria=None, cap=None):
        shrunk.append(criteria)
        return program

    monkeypatch.setattr(crosscheck, "check_program", failing)
    monkeypatch.setattr(crosscheck, "shrink_counterexample", shrink)
    rc = main(["check", "--random", "3", "--seed", "7", "--dialect", "lpod", "--criterion", "pareto"])
    assert rc == 4
    assert "minimized counterexample:" in capsys.readouterr().err
    assert shrunk == [[Criterion.PARETO]]


def test_cap_exceeded_exit_3():
    out = run(["solve", "--cap", "2", "programs/pi2.lpod"])
    assert out.returncode == 3
    assert "cap" in out.stderr


def test_cap_env_var():
    out = run(["solve", "programs/pi2.lpod"], env_extra={"LPODC_CAP": "2"})
    assert out.returncode == 3


def test_cap_message_counts_the_signature():
    # the same numbers from solve as from check: |sigma| against the cap
    for command in ("solve", "check"):
        out = run([command, "--cap", "0", "programs/pi1.lpod"])
        assert out.returncode == 3
        assert "program has 4 atoms, cap is 0" in out.stderr


def test_cap_env_var_not_an_integer():
    out = run(["solve", "programs/pi1.lpod"], env_extra={"LPODC_CAP": "abc"})
    assert out.returncode == 2
    assert out.stderr.splitlines() == ["error: LPODC_CAP must be an integer, got 'abc'"]


def test_directory_as_input():
    out = run(["solve", "programs"])
    assert out.returncode == 2
    assert len(out.stderr.splitlines()) == 1
    assert out.stderr.startswith("error:") and "Is a directory" in out.stderr


def test_cap_negative_flag():
    out = run(["check", "--cap", "-1", "programs/pi1.lpod"])
    assert out.returncode == 2
    assert out.stderr.splitlines() == ["error: --cap must not be negative, got -1"]


def test_cap_negative_env_var():
    out = run(["solve", "programs/pi1.lpod"], env_extra={"LPODC_CAP": "-1"})
    assert out.returncode == 2
    assert out.stderr.splitlines() == ["error: LPODC_CAP must not be negative, got -1"]


def test_non_utf8_input(tmp_path):
    target = tmp_path / "latin.lpod"
    target.write_bytes(b"a * b.\n\xff\n")
    out = run(["check", str(target)])
    assert out.returncode == 2
    assert out.stderr.splitlines() == [
        "error: %s is not UTF-8 text (byte 0xff at offset 7)" % target
    ]



def test_non_utf8_stdin():
    out = run(["solve", "--dialect", "lpod"], stdin=b"a * b.\n\xff\n")
    assert out.returncode == 2
    assert out.stderr.decode().splitlines() == [
        "error: <stdin> is not UTF-8 text (byte 0xff at offset 7)"
    ]

def test_choice_lower_above_upper_rejected():
    out = run(["check", "--dialect", "lpod"], stdin="3 {a; b} 1.\nc * d.\n")
    assert out.returncode == 2
    assert out.stderr.splitlines() == ["error: choice lower bound 3 exceeds upper bound 1"]


def test_negative_choice_bound_rejected():
    out = run(["check", "--dialect", "lpod"], stdin="-1 {a; b} -2.\nc * d.\n")
    assert out.returncode == 2
    assert out.stderr.splitlines() == ["error: choice bounds must not be negative, got -1..-2"]


def test_prefer_cycle_rejected():
    text = "r1: a :+.\nr2: b :+.\nprefer(r1,r2).\nprefer(r2,r1).\n"
    out = run(["check", "--dialect", "crp2"], stdin=text)
    assert out.returncode == 2
    assert out.stderr.splitlines() == ["error: prefer(r2,r1) closes a preference cycle"]


def test_prefer_self_loop_rejected():
    out = run(["solve", "--dialect", "crp2"], stdin="r1: a :+.\nprefer(r1,r1).\n")
    assert out.returncode == 2
    assert out.stderr.splitlines() == ["error: prefer(r1,r1) closes a preference cycle"]


def test_maxdegree_constant_rejected():
    for command in ("translate", "check"):
        out = run([command, "--criterion", "pareto", "--dialect", "lpod"], stdin="p(maxdegree) * q.\n")
        assert out.returncode == 2
        assert out.stderr.splitlines() == ["error: constant maxdegree is reserved in lpod programs: p(maxdegree)"]
        assert out.stdout == ""


def test_argument_variable_rejected():
    for command in ("translate", "solve", "check"):
        out = run([command, "--dialect", "lpod"], stdin="a * b(C).\n")
        assert out.returncode == 2
        assert out.stderr.splitlines() == ["error: argument 'C' of b(C) is not a valid constant"]
        assert out.stdout == ""


def test_each_distinct_bad_atom_reported_once():
    text = "a * b.\nx :- ap.\ny :- ap, not ap.\nz(C) :- a.\nw :- z(C).\n"
    out = run(["check", "--dialect", "lpod"], stdin=text)
    assert out.returncode == 2
    assert out.stderr.splitlines() == [
        "error: reserved predicate ap",
        "error: argument 'C' of z(C) is not a valid constant",
    ]


def test_options_a_command_does_not_read_are_rejected():
    # translate solves nothing and check prints only its verdict lines
    for args in (["translate", "--cap", "3"], ["translate", "--format", "json"], ["check", "--format", "json"]):
        out = run(args + ["programs/pi1.lpod"])
        assert out.returncode == 2, args
        assert "unrecognized arguments" in out.stderr
        assert out.stdout == ""


def test_check_random_rejects_criterion_for_crp():
    out = run(["check", "--random", "2", "--dialect", "crp2", "--criterion", "pareto"])
    assert out.returncode == 2
    assert out.stderr.splitlines() == ["error: --criterion applies to lpod inputs only"]
    assert out.stdout == ""


def test_check_random_negative_count_rejected():
    out = run(["check", "--random", "-3", "--dialect", "lpod"])
    assert out.returncode == 2
    assert out.stderr.splitlines() == ["error: --random must not be negative, got -3"]
    assert out.stdout == ""


def test_dialect_inferred_from_extension():
    out = run(["solve", "programs/pi3.crp", "--format", "json"])
    assert out.returncode == 0


def test_criterion_rejected_for_crp_input():
    out = run(["solve", "--criterion", "pareto", "programs/pi3.crp"])
    assert out.returncode == 2
    assert "lpod inputs only" in out.stderr


def test_main_callable_directly(capsys):
    rc = main(["solve", "--criterion", "penalty-sum", str(PROGRAMS / "pi1.lpod")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "preferred (penalty-sum):" in out
    assert "{a, b}" in out


def test_dump_ground_flag(tmp_path):
    target = tmp_path / "ground.lp"
    rc = main(["solve", str(PROGRAMS / "pi1.lpod"), "--dump-ground", str(target), "-o", str(tmp_path / "ignore.txt")])
    assert rc == 0
    assert "% tuple" in target.read_text()


def test_dump_ground_respects_the_cap(tmp_path, capsys):
    target = tmp_path / "ground.lp"
    rc = main(["solve", "--cap", "0", "--dump-ground", str(target), str(PROGRAMS / "pi1.lpod")])
    assert rc == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not target.exists()
