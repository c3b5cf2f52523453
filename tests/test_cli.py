import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from walshcodes import cli
from walshcodes.cli import main

F9_SPEC = "p=3,m=2"


def run(argv):
    return main(argv)


def test_build_first(capsys):
    code = run(["build", "first", "--field", F9_SPEC, "--fn", "x^2"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["parameters"] == [9, 4, 4]
    assert out["code"]["n"] == 9 and out["code"]["k"] == 4


def test_build_second_skew(capsys):
    code = run(["build", "second", "--field", F9_SPEC, "--generator", "skew"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["parameters"] == [4, 2, 3]


def test_build_missing_field_is_config_error(capsys):
    assert run(["build", "first", "--fn", "x^2"]) == 2


def test_build_bad_function_spec(capsys):
    assert run(["build", "first", "--field", F9_SPEC, "--fn", "x^"]) == 2


def test_build_empty_defining_set(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text("{}")
    assert run(["build", "second", "--field", F9_SPEC, "--defining-set", str(path)]) == 2


def test_defining_set_roundtrip_via_file(tmp_path, capsys):
    path = tmp_path / "ds.json"
    path.write_text(
        json.dumps(
            {
                "field": {"p": 3, "m": 2, "poly": [1, 0, 1]},
                "base_degree": 1,
                "elements": [[1, 0], [2, 0]],
            }
        )
    )
    code = run(["build", "second", "--field", F9_SPEC, "--defining-set", str(path)])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["parameters"][:2] == [2, 1]


@pytest.mark.parametrize("elements", [[[1.5, 0]], [5], [[1, 0], "x"]])
def test_malformed_defining_set_file_is_config_error(tmp_path, capsys, elements):
    path = tmp_path / "ds.json"
    path.write_text(json.dumps({"field": {"p": 3, "m": 2}, "elements": elements}))
    assert run(["build", "second", "--field", F9_SPEC, "--defining-set", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "list of lists of integers" in err


@pytest.mark.parametrize("generator", ["cyclotomic:base=0", "lcd:k=2,base=0", "cyclotomic:base=-1"])
def test_base_degree_below_one_is_config_error(capsys, generator):
    assert run(["build", "second", "--field", "p=2,m=4", "--generator", generator]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "positive divisor" in err


@pytest.mark.parametrize("base_degree", [0, "2", 2.0])
def test_defining_set_file_with_bad_base_degree(tmp_path, capsys, base_degree):
    path = tmp_path / "ds.json"
    obj = {"field": {"p": 2, "m": 4}, "base_degree": base_degree, "elements": [[1, 0, 0, 0]]}
    path.write_text(json.dumps(obj))
    assert run(["build", "second", "--field", "p=2,m=4", "--defining-set", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "positive divisor" in err


def test_analyze_weights_csv(capsys):
    code = run(
        [
            "analyze",
            "second",
            "--field",
            "p=2,m=4",
            "--generator",
            "cyclotomic",
            "--weights",
            "--format",
            "csv",
        ]
    )
    out = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    assert out[0] == "w,count"
    assert out[1:] == ["0,1", "2,10", "4,5"]


def test_analyze_hull_lcd(capsys):
    code = run(
        ["analyze", "second", "--field", "p=2,m=4", "--generator", "lcd:k=4", "--hull"]
    )
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["hull_dim"] == 0


def test_analyze_summary_only(capsys):
    code = run(["analyze", "first", "--field", F9_SPEC, "--fn", "x^2"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out == {"parameters": [9, 4, 4]}


def test_verify_unknown_suite(capsys):
    assert run(["verify", "nosuchsuite"]) == 2


def test_verify_quick_suite(capsys):
    assert run(["verify", "cyclotomic"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is True


def test_verify_single_instance_apn(capsys):
    assert run(["verify", "apn-ab", "--field", "p=2,m=4", "--fn", "x^3"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["instances"][0]["d_perp"] == 5


def test_verify_apn_small_field_and_nonzero_constant(capsys):
    # x^3 over GF(8) is APN with a one-dimensional dual: d_perp = 7
    assert run(["verify", "apn-ab", "--field", "p=2,m=3", "--fn", "x^3"]) == 0
    inst = json.loads(capsys.readouterr().out)["instances"][0]
    assert inst["d_perp"] == 7 and inst["is_apn"] is True
    assert run(["verify", "apn-ab", "--field", "p=2,m=4", "--fn", "x^3+1"]) == 2
    assert "f(0) = 0" in capsys.readouterr().err


@pytest.mark.parametrize("m", [1, 2])
def test_verify_apn_refuses_m_below_three(capsys, m):
    assert run(["verify", "apn-ab", "--field", f"p=2,m={m}", "--fn", "x^3"]) == 2
    err = capsys.readouterr().err
    assert f"the diagnostics need m >= 3, got m = {m}" in err
    assert "zero code" not in err


def test_verify_failure_exit_code(capsys):
    # the Frobenius map is linear: the diagnostics flag the hypothesis
    assert run(["verify", "apn-ab", "--field", "p=2,m=4", "--fn", "x^2"]) == 1


def test_guard_exit_code(capsys):
    code = run(
        [
            "analyze",
            "first",
            "--field",
            "p=3,m=2",
            "--fn",
            "x^2",
            "--weights",
            "--guard",
            "2",
        ]
    )
    assert code == 3


def test_determinism_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["verify", "ding", "--seed", "7", "--out"]
    assert run(argv + [str(a)]) == 0
    assert run(argv + [str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_build_text_format(capsys):
    code = run(["build", "second", "--field", "p=2,m=4", "--generator", "cyclotomic", "--format", "text"])
    out = capsys.readouterr().out
    assert code == 0 and out.strip() == "[5, 4, 2] over GF(2^1)"


def test_guard_env_override(monkeypatch, capsys):
    monkeypatch.setenv("WALSHCODES_GUARD", "2")
    code = run(["analyze", "first", "--field", F9_SPEC, "--fn", "x^2", "--weights"])
    assert code == 3


def test_guard_must_be_positive(capsys):
    assert run(["verify", "ding", "--guard", "0"]) == 2


def test_a_dual_past_the_byte_guard_exits_3(monkeypatch, capsys):
    """The [16384, 28] code of x^3 has a 16356 x 16384 dual, about 2.1 GB of
    tuples: refused before it is built, with no traceback.  The option and
    the environment variable move the guard: the [512, 18] code's dual,
    8 * 494 * 512 bytes, is refused one byte under, and a dual under the
    1-MiB floor is answered as before."""
    import resource
    import time

    start = time.perf_counter()
    assert run(["analyze", "first", "--field", "p=2,m=14", "--fn", "x^3", "--dual"]) == 3
    assert time.perf_counter() - start < 20
    assert resource.getrusage(resource.RUSAGE_SELF).ru_maxrss < 2 ** 20  # KiB on Linux: under 1 GiB
    err = capsys.readouterr().err
    assert "about 2143813632 bytes" in err and "Traceback" not in err
    need = 8 * 494 * 512
    argv = ["analyze", "first", "--field", "p=2,m=9", "--fn", "x^3", "--dual"]
    assert run(argv + ["--byte-guard", str(need - 1)]) == 3
    assert f"about {need} bytes, past the byte guard {need - 1}" in capsys.readouterr().err
    monkeypatch.setenv("WALSHCODES_BYTE_GUARD", str(need - 1))
    assert run(argv) == 3
    small = ["analyze", "first", "--field", F9_SPEC, "--fn", "x^2", "--dual"]
    capsys.readouterr()
    assert run(small) == 0
    answered = capsys.readouterr().out
    assert run(small + ["--byte-guard", "1"]) == 0 and capsys.readouterr().out == answered
    assert run(small + ["--byte-guard", "0"]) == 2


def test_analyze_weights_enumerates_once(monkeypatch, capsys):
    """analyze computes the weight enumerator once, by one column transform,
    and lists no codeword."""
    from walshcodes import codes
    from walshcodes.codes import LinearCode

    calls, listed = [], []
    transform, codewords = codes._column_transform, LinearCode.codewords

    def counted(code, guard=None):
        calls.append(code.k)
        return transform(code, guard)

    def listing(self, guard=None):
        listed.append(self.k)
        return codewords(self, guard)

    monkeypatch.setattr(codes, "_column_transform", counted)
    monkeypatch.setattr(LinearCode, "codewords", listing)
    argv = ["analyze", "first", "--field", "p=2,m=4", "--fn", "x^3", "--weights"]
    assert run(argv) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(calls) == 1 and not listed
    assert out["parameters"] == [16, 8, 4]
    assert min(e["w"] for e in out["weights"] if e["w"] > 0) == 4
    calls.clear()
    assert run(argv[:-1]) == 0
    assert json.loads(capsys.readouterr().out)["parameters"] == [16, 8, 4]
    assert len(calls) == 1 and not listed


def test_invariant_violation_exit_code(monkeypatch, capsys):
    from walshcodes import cli
    from walshcodes.errors import InvariantViolated

    def broken(name, seed):
        raise InvariantViolated("Parseval failed")

    monkeypatch.setattr(cli, "run_suite", broken)
    assert run(["verify", "ding"]) == 4
    assert "invariant violated: Parseval failed" in capsys.readouterr().err


ONE_PROCESS = [
    ["build", "first", "--field", "p=2,m=3", "--fn", "x^3"],
    ["analyze", "first", "--field", F9_SPEC, "--fn", "x^2", "--weights", "--cwe"],
    ["verify", "apn-ab", "--field", "p=2,m=3", "--fn", "x^3"],
    ["verify", "ding", "--guard", "0"],
    ["analyze", "first", "--field"],
]


def test_one_parser_serves_every_call_of_a_process(monkeypatch, capsys):
    """main builds its parser once per process, and a run of calls in one
    process prints what each argv prints in a fresh interpreter, a usage
    error (SystemExit(2)) included."""

    def status_and_stdout(argv):
        try:
            status = main(argv)
        except SystemExit as ex:
            status = ex.code
        return status, capsys.readouterr().out

    status_and_stdout(["verify", "ding", "--guard", "0"])
    monkeypatch.setattr(cli, "make_parser", lambda: pytest.fail("the parser was built again"))
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    script = "import sys; from walshcodes.cli import main; sys.exit(main(sys.argv[1:]))"
    fresh = [subprocess.run([sys.executable, "-c", script, *argv], env=env, capture_output=True, text=True)
             for argv in ONE_PROCESS]
    for _ in range(2):
        for argv, run_alone in zip(ONE_PROCESS, fresh):
            assert status_and_stdout(argv) == (run_alone.returncode, run_alone.stdout), argv
    assert [r.returncode for r in fresh] == [0, 0, 0, 2, 2]


def test_memory_running_out_exits_3_with_one_line(monkeypatch, capsys):
    """A MemoryError that no guard caught ends the command with exit 3 and
    a one-line message, not a traceback."""

    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "first_generic", exhausted)
    assert run(["build", "first", "--field", F9_SPEC, "--fn", "x^2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("out of memory")
    assert "Traceback" not in captured.err
