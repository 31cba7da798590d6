"""End-to-end runs of the orbital CLI through main(argv)."""

import hashlib
import io
import json
import os
import subprocess
import sys
import time
from itertools import combinations
from pathlib import Path
from types import SimpleNamespace

import pytest

import orbital.cli
import orbital.verify
from orbital import MultiPoly, NotApplicable, iter_descriptors, verify_conjecture
from orbital.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def write_tableau(tmp_path, name, rows):
    path = tmp_path / name
    path.write_text(json.dumps({"rows": rows}))
    return str(path)


def test_richardson_text(capsys):
    code, out, _ = run(capsys, "richardson", "--tau", "2,3,7", "--n", "8")
    assert code == 0
    assert "tau = {2, 3, 7}   n = 8" in out
    assert "shape (5, 2, 1)   dim 24" in out
    assert "chains: {1} {2,3,4} {5} {6} {7,8}" in out


def test_richardson_json(capsys):
    code, out, _ = run(capsys, "richardson", "--tau", "2,3,7", "--n", "8", "--json")
    assert code == 0
    blob = json.loads(out)
    assert blob["schema"] == "orbital/v1"
    assert blob["dim"] == 24
    assert blob["tableau"]["rows"] == [[1, 2, 5, 6, 7], [3, 8], [4]]
    assert blob["chains"] == [[1, 1], [2, 4], [5, 5], [6, 6], [7, 8]]


def test_json_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "richardson", "--tau", "1,3", "--n", "5", "--json")
    _, second, _ = run(capsys, "richardson", "--tau", "1,3", "--n", "5", "--json")
    assert first == second


def test_richardson_bad_tau_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["richardson", "--tau", "2,x", "--n", "8"])
    assert exc.value.code == 2


def test_richardson_tau_out_of_range_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["richardson", "--tau", "9", "--n", "8"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["hypersurfaces", "--tau", "1,,2", "--n", "5"], "bad tau: empty item in '1,,2'"),
        (["richardson", "--tau", "1,1", "--n", "4"], "bad tau: index 1 repeated"),
        (["richardson", "--tau", "2,", "--n", "4"], "bad tau: empty item in '2,'"),
    ],
)
def test_tau_with_empty_or_repeated_item_exits_2(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_empty_tau_is_the_empty_set(capsys):
    code, out, _ = run(capsys, "richardson", "--tau", "", "--n", "3")
    assert code == 0
    assert "tau = {}   n = 3" in out


def test_hypersurfaces_enumerate_json(capsys):
    code, out, _ = run(
        capsys, "hypersurfaces", "--tau", "2,3,7", "--n", "8", "--json"
    )
    assert code == 0
    blob = json.loads(out)
    assert len(blob["descriptors"]) == 1
    d = blob["descriptors"][0]
    assert d["dropped_box"] == 5
    assert d["sigma"] == [1, 4]
    assert d["window"] == [1, 5]
    assert d["tableau"]["rows"] == [[1, 2, 6, 7], [3, 5, 8], [4]]


def test_hypersurfaces_generator_json(capsys):
    code, out, _ = run(
        capsys, "hypersurfaces", "--tau", "2,4", "--n", "6", "--generator", "--json"
    )
    assert code == 0
    descriptors = json.loads(out)["descriptors"]
    assert [d["dropped_box"] for d in descriptors] == [5, 6]
    d = next(d for d in descriptors if d["dropped_box"] == 6)
    gen = d["generator"]
    assert gen["l_lambda"] == 3
    assert gen["weight"] == [1, 1, 1, 1, 1]
    assert len(gen["f"]) == 4  # four monomials
    assert d["char_poly"] == [[0, 1, 0, 0, 0], [0, 0, 0, 1, 0], [1, 1, 1, 1, 1]]


def test_hypersurfaces_generator_text(capsys):
    code, out, _ = run(
        capsys, "hypersurfaces", "--tau", "2,4", "--n", "6", "--generator"
    )
    assert code == 0
    assert "f = x12*x24*x46 + x12*x25*x56 + x13*x34*x46 + x13*x35*x56" in out
    assert "wt(f) = a1 + a2 + a3 + a4 + a5" in out
    assert "nonzero m_j at j = 1, 2, 3" in out
    assert "p_V = a2 * a4 * (a1 + a2 + a3 + a4 + a5)" in out


@pytest.mark.parametrize(
    "flags, digest",
    [
        ((), "ba27ce614a4a83ba5a1d14c0d5c02e23ddf1cec8cb4d4d256ed95acb2364e7b7"),
        (("--json",), "b09979d5c9532ade54f4737ffef5f2053a3d4ad2979c294600103414aa451f40"),
    ],
)
def test_hypersurfaces_generator_output_is_pinned(capsys, flags, digest):
    # f, wt(f), the m_j ladder and p_V of every descriptor at n = 8, over
    # all 128 taus in size-then-lex order; the bytes must not depend on
    # how the payload is built, nor on the string hash seed
    h = hashlib.sha256()
    for k in range(8):
        for tau in combinations(range(1, 8), k):
            code, out, _ = run(
                capsys, "hypersurfaces", "--tau", ",".join(map(str, tau)),
                "--n", "8", "--generator", *flags,
            )
            assert code == 0
            h.update(out.encode())
    assert h.hexdigest() == digest


@pytest.mark.parametrize("command", ["richardson", "hypersurfaces"])
@pytest.mark.parametrize("n", ["0", "-2"])
def test_n_below_one_exits_2(capsys, command, n):
    # a bad --n is blamed on --n, not on --tau
    with pytest.raises(SystemExit) as exc:
        main([command, "--tau", "", "--n", n])
    assert exc.value.code == 2
    _, err = capsys.readouterr()
    assert f"--n must be at least 1, got {n}" in err
    assert "bad tau" not in err


def test_hypersurfaces_requires_n_with_tau(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["hypersurfaces", "--tau", "2,4"])
    assert exc.value.code == 2


def test_hypersurfaces_rejects_n_with_tableau(tmp_path, capsys):
    # --n sizes a --tau enumeration; a tableau file has its own size, so
    # the pair is a usage error even when the two agree
    path = write_tableau(tmp_path, "t.json", [[1, 2, 4], [3, 5, 6]])
    for n in ("6", "9"):
        with pytest.raises(SystemExit) as exc:
            main(["hypersurfaces", "--tableau", path, "--n", n])
        assert exc.value.code == 2
        assert "--n goes with --tau" in capsys.readouterr().err


def test_classify_descendant(tmp_path, capsys):
    path = write_tableau(tmp_path, "t.json", [[1, 2, 6, 7], [3, 5, 8], [4]])
    code, out, _ = run(capsys, "hypersurfaces", "--tableau", path, "--json")
    assert code == 0
    assert json.loads(out)["descriptors"][0]["dropped_box"] == 5


def test_classify_richardson_input_exits_3(tmp_path, capsys):
    path = write_tableau(tmp_path, "tr.json", [[1, 2, 5, 6, 7], [3, 8], [4]])
    code, _, err = run(capsys, "hypersurfaces", "--tableau", path)
    assert code == 3
    assert "is the Richardson tableau" in err


def test_classify_deeper_tableau_exits_3(tmp_path, capsys):
    path = write_tableau(tmp_path, "t.json", [[1, 3], [2, 5], [4]])
    code, _, err = run(capsys, "hypersurfaces", "--tableau", path)
    assert code == 3
    assert "not a hypersurface component" in err


def test_tableau_file_errors_exit_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["hypersurfaces", "--tableau", str(tmp_path / "missing.json")])
    assert exc.value.code == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(SystemExit) as exc:
        main(["hypersurfaces", "--tableau", str(bad)])
    assert exc.value.code == 2
    # well-formed JSON, malformed tableau
    worse = tmp_path / "worse.json"
    worse.write_text(json.dumps({"rows": [[2, 1]]}))
    with pytest.raises(SystemExit) as exc:
        main(["hypersurfaces", "--tableau", str(worse)])
    assert exc.value.code == 2
    # rows that are not lists of integers, a declared n that is not the
    # integer box count, or bytes that are not UTF-8 are rejected: not
    # rounded, read as booleans, split from strings, or left to a traceback
    malformed = [
        {"rows": [["a"]]},
        {"rows": {"x": 1}},
        {"rows": [[1.7, 2]]},
        {"rows": [[True, 2]]},
        {"rows": [[1, 2], "34"]},
        {"rows": [[1]], "n": True},
        {"rows": [[1]], "n": "1"},
    ]
    paths = [tmp_path / f"malformed{k}.json" for k in range(len(malformed) + 1)]
    for path, obj in zip(paths, malformed):
        path.write_text(json.dumps(obj))
    paths[-1].write_bytes(b"\xf0\x28\x8c\x28")
    for path in paths:
        for argv in (
            ["hypersurfaces", "--tableau", str(path)],
            ["project", "--tableau", str(path), "-i", "1", "-j", "1"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert "malformed tableau file" in capsys.readouterr().err
    # a path that exists but cannot be read as a file
    for argv in (
        ["hypersurfaces", "--tableau", str(tmp_path)],
        ["project", "--tableau", str(tmp_path), "-i", "1", "-j", "1"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"cannot read {tmp_path}" in capsys.readouterr().err


def test_project_text_with_steps(tmp_path, capsys):
    path = write_tableau(tmp_path, "t.json", [[1, 2], [3, 4], [5, 6]])
    code, out, _ = run(capsys, "project", "--tableau", path, "-i", "2", "-j", "6", "--steps")
    assert code == 0
    assert "after the slide, relabelled:" in out
    assert out.count("|   |") == 4  # one hole per slide snapshot
    assert "| 1 | 3 |" in out


PROJECT_STEPS_GOLDEN = """\
projection to [2, 10]
after removing the largest box:
+----+----+----+----+----+----+----+----+----+
|  1 |  3 |  4 |  5 |  6 |  7 |  8 |  9 | 10 |
+----+----+----+----+----+----+----+----+----+
|  2 |
+----+
+----+----+----+----+----+----+----+----+----+
|    |  3 |  4 |  5 |  6 |  7 |  8 |  9 | 10 |
+----+----+----+----+----+----+----+----+----+
|  2 |
+----+
+----+----+----+----+----+----+----+----+----+
|  2 |  3 |  4 |  5 |  6 |  7 |  8 |  9 | 10 |
+----+----+----+----+----+----+----+----+----+
|    |
+----+
after the slide, relabelled:
+---+---+---+---+---+---+---+---+---+
| 1 | 2 | 3 | 4 | 5 | 6 | 7 | 8 | 9 |
+---+---+---+---+---+---+---+---+---+
+---+---+---+---+---+---+---+---+---+
| 1 | 2 | 3 | 4 | 5 | 6 | 7 | 8 | 9 |
+---+---+---+---+---+---+---+---+---+
"""


def test_project_text_steps_golden(tmp_path, capsys):
    # two-digit labels, one removal and one slide; the hole grids share the
    # width of the tableau they were cut from
    path = write_tableau(tmp_path, "t.json", [[1, 3, 4, 5, 6, 7, 8, 9, 10, 11], [2]])
    code, out, _ = run(capsys, "project", "--tableau", path, "-i", "2", "-j", "10", "--steps")
    assert code == 0
    assert out == PROJECT_STEPS_GOLDEN


def test_project_json_steps(tmp_path, capsys):
    path = write_tableau(tmp_path, "t.json", [[1, 2], [3, 4], [5, 6]])
    code, out, _ = run(
        capsys, "project", "--tableau", path, "-i", "2", "-j", "6", "--json", "--steps"
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["result"]["rows"] == [[1, 3], [2, 5], [4]]
    assert blob["steps"][0]["move"] == "slide"
    assert blob["steps"][0]["grid"][0][0] is None
    assert blob["steps"][-1]["move"] == "strip_first"


def test_project_mixed_moves(tmp_path, capsys):
    path = write_tableau(
        tmp_path, "t12.json", [[1, 3, 4, 7, 9, 12], [2, 5, 8, 10], [6], [11]]
    )
    code, out, _ = run(capsys, "project", "--tableau", path, "-i", "4", "-j", "11", "--json")
    assert code == 0
    assert json.loads(out)["result"]["rows"] == [[1, 4, 6], [2, 5, 7], [3], [8]]


def test_project_bad_window_exits_2(tmp_path, capsys):
    path = write_tableau(tmp_path, "t.json", [[1, 2], [3, 4], [5, 6]])
    for i, j in ((4, 2), (0, 2), (1, 7)):
        with pytest.raises(SystemExit) as exc:
            main(["project", "--tableau", path, "-i", str(i), "-j", str(j)])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            f"orbital: error: need 1 <= i <= j <= 6, got i={i}, j={j}\n"
        )


def test_verify_text(capsys):
    code, out, _ = run(capsys, "verify", "--nmax", "4", "--trials", "3")
    assert code == 0
    assert "checked 2 descriptors with n <= 4, 3 trials each" in out
    assert out.count("vanish 3/3") == 2
    assert "NECESSITY FAILURE" not in out


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--nmax", "4", "--trials", "2", "--json")
    assert code == 0
    blob = json.loads(out)
    assert blob["necessity_failures"] == 0
    assert len(blob["reports"]) == 2
    assert all(r["f_vanishes_on_v"] == 2 for r in blob["reports"])


def test_verify_necessity_failure_exits_1(capsys, monkeypatch):
    # f + 1 is 1 on every variety point: each descriptor fails necessity
    generator = orbital.verify._descriptor_generator
    monkeypatch.setattr(
        "orbital.verify._descriptor_generator", lambda d: generator(d) + MultiPoly.const(1)
    )
    code, out, _ = run(capsys, "verify", "--nmax", "4", "--trials", "1")
    assert code == 1
    *reports, summary = out.splitlines()
    assert len(reports) == 2
    for line in reports:
        assert line.endswith("vanish 0/1  nonzero 1/1  jordan 0/1  rank 0/1  NECESSITY FAILURE")
    assert summary.endswith("necessity failures: 2")
    code, out, _ = run(capsys, "verify", "--nmax", "4", "--trials", "1", "--json")
    assert code == 1
    blob = json.loads(out)
    assert blob["necessity_failures"] == 2
    assert [r["f_vanishes_on_v"] for r in blob["reports"]] == [0, 0]
    assert {f["probe"] for r in blob["reports"] for f in r["failures"]} == {
        "f_vanishes_on_v", "jordan_match", "power_rank"
    }


def test_verify_json_report_is_pinned(capsys):
    # seeded reports are byte-identical across versions; this digest covers
    # the sample stream and every probe outcome of all 198 descriptors with
    # n <= 8
    code, out, _ = run(capsys, "verify", "--nmax", "8", "--trials", "3", "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "78450fd645be41addc5a2f60a003437be990d2954ce7b0a60e1b0e81406dec64"
    )


def test_verify_text_report_is_pinned(capsys):
    # the same 198 descriptors as the JSON pin, through the text lines and
    # the summary line
    code, out, _ = run(capsys, "verify", "--nmax", "8", "--trials", "3")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "3bacbf1c61fa2ab09c6aa1b346a8f7ba90b407382a24e283d554512c7863df2a"
    )


@pytest.fixture
def sweep(monkeypatch):
    """Watches verify's sweep. run(*argv) calls main with stdout going to a
    buffer, iter_descriptors counts the descriptors it has yielded, and
    verify_conjecture appends (descriptors yielded, lines on stdout) to
    `calls` each time it is called; the call numbered `fail_at` raises
    NotApplicable instead."""
    watch = SimpleNamespace(out=io.StringIO(), yielded=0, calls=[], fail_at=None)

    def counted(nmax):
        for d in iter_descriptors(nmax):
            watch.yielded += 1
            yield d

    def watched(d, **kwargs):
        watch.calls.append((watch.yielded, watch.out.getvalue().count("\n")))
        if len(watch.calls) == watch.fail_at:
            raise NotApplicable("injected failure")
        return verify_conjecture(d, **kwargs)

    def run(*argv):
        # pytest re-points sys.stdout between setup and call, so this is
        # patched only once the test body runs
        monkeypatch.setattr(sys, "stdout", watch.out)
        return main(list(argv))

    monkeypatch.setattr(orbital.cli, "iter_descriptors", counted)
    monkeypatch.setattr(orbital.cli, "verify_conjecture", watched)
    watch.run = run
    return watch


def test_verify_text_streams(sweep):
    # when the k-th descriptor is verified, the k - 1 before it are printed
    # and the sweep has not read past it
    assert sweep.run("verify", "--nmax", "6", "--trials", "1") == 0
    assert len(sweep.calls) == 26
    for k, (yielded, lines) in enumerate(sweep.calls, start=1):
        assert yielded <= k and lines == k - 1
    assert sweep.out.getvalue().count("\n") == 27


def test_verify_json_prints_once_at_the_end(sweep):
    assert sweep.run("verify", "--nmax", "6", "--trials", "1", "--json") == 0
    assert [lines for _, lines in sweep.calls] == [0] * 26
    assert len(json.loads(sweep.out.getvalue())["reports"]) == 26


@pytest.mark.parametrize("flags", [(), ("--json",)])
def test_verify_into_a_closed_pipe_exits_141(flags):
    # a reader that stops early, as in `orbital verify | head -1`: the
    # sweep ends at its next write, quietly, and with a status that no
    # probe outcome or usage error uses
    src = str(Path(orbital.cli.__file__).parents[1])
    argv = ["verify", "--nmax", "9", "--trials", "1", *flags]
    with subprocess.Popen(
        [sys.executable, "-m", "orbital.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": src},
    ) as proc:
        assert proc.stdout.readline()
        proc.stdout.close()
        assert proc.wait(timeout=120) == 141
        assert b"Traceback" not in proc.stderr.read()


@pytest.mark.parametrize("flags", [(), ("--json",)])
def test_verify_error_mid_sweep_exits_3(sweep, flags):
    # the lines of the descriptors done before the failure are already out;
    # the JSON document is never started
    sweep.fail_at = 2
    assert sweep.run("verify", "--nmax", "6", "--trials", "1", *flags) == 3
    out = sweep.out.getvalue()
    if flags:
        assert out == ""
    else:
        assert out.count("\n") == 1 and out.startswith("n=4 ")


def test_verify_prime_resolution(capsys):
    _, out, _ = run(
        capsys, "verify", "--nmax", "4", "--trials", "2", "--prime", "2147483647", "--json"
    )
    assert json.loads(out)["primes"] == [2147483647]


def test_verify_output_ignores_the_environment(capsys, monkeypatch):
    # same flags, same bytes: a variable that once picked the prime no
    # longer changes the report
    _, plain, _ = run(capsys, "verify", "--nmax", "4", "--trials", "2", "--json")
    monkeypatch.setenv("ORBITAL_PRIME", "1000003")
    _, with_env, _ = run(capsys, "verify", "--nmax", "4", "--trials", "2", "--json")
    assert with_env == plain
    assert json.loads(plain)["primes"] == [2147483647, 2147483629]


def test_verify_rejects_bad_primes(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--nmax", "4", "--trials", "2", "--prime", "1000000"])
    assert exc.value.code == 2


def test_verify_prime_check_is_fast_and_exact(capsys):
    # 10**18 + 9 is prime; trial division up to its square root would hang
    start = time.perf_counter()
    code, out, _ = run(
        capsys, "verify", "--nmax", "4", "--trials", "1", "--prime", str(10**18 + 9), "--json"
    )
    assert code == 0
    assert json.loads(out)["primes"] == [10**18 + 9]
    assert time.perf_counter() - start < 10
    # a semiprime near 10**18, and a strong pseudoprime to the bases 2, 3, 5, 7
    for composite in ((10**9 + 7) * (10**9 + 9), 3215031751):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--nmax", "4", "--trials", "1", "--prime", str(composite)])
        assert exc.value.code == 2


def test_verify_rejects_moduli_from_2_64(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--nmax", "4", "--trials", "1", "--prime", str(2**64 + 13)])
    assert exc.value.code == 2
    assert "below 2**64" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags", [("--trials", "-3"), ("--trials", "0"), ("--nmax", "-2"), ("--nmax", "0")]
)
def test_verify_rejects_counts_below_one(capsys, flags):
    with pytest.raises(SystemExit) as exc:
        main(["verify", *flags])
    assert exc.value.code == 2
    _, err = capsys.readouterr()
    assert f"{flags[0]} must be at least 1" in err


@pytest.mark.parametrize("nmax", ["1", "3"])
def test_verify_rejects_nmax_without_descriptors(capsys, monkeypatch, nmax):
    # the smallest hypersurface descriptor has n = 4
    monkeypatch.setattr(
        orbital.cli, "verify_conjecture", lambda *a, **k: pytest.fail("sweep started")
    )
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--nmax", nmax])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"no hypersurface descriptor has n <= {nmax}" in err
