"""End-to-end runs of the orbital CLI through main(argv)."""

import hashlib
import json
import time

import pytest

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


def test_verify_json_report_is_pinned(capsys):
    # seeded reports are byte-identical across versions; this digest covers
    # the sample stream and every probe outcome of all 198 descriptors with
    # n <= 8
    code, out, _ = run(capsys, "verify", "--nmax", "8", "--trials", "3", "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "78450fd645be41addc5a2f60a003437be990d2954ce7b0a60e1b0e81406dec64"
    )


def test_verify_prime_resolution(capsys, monkeypatch):
    monkeypatch.setenv("ORBITAL_PRIME", "1000003")
    _, out, _ = run(capsys, "verify", "--nmax", "4", "--trials", "2", "--json")
    assert json.loads(out)["primes"] == [1000003]
    # the flag beats the environment
    _, out, _ = run(
        capsys, "verify", "--nmax", "4", "--trials", "2", "--prime", "2147483647", "--json"
    )
    assert json.loads(out)["primes"] == [2147483647]


def test_verify_rejects_bad_primes(capsys, monkeypatch):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--nmax", "4", "--trials", "2", "--prime", "1000000"])
    assert exc.value.code == 2
    monkeypatch.setenv("ORBITAL_PRIME", "abc")
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--nmax", "4", "--trials", "2"])
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


def test_verify_rejects_moduli_from_2_64(capsys, monkeypatch):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--nmax", "4", "--trials", "1", "--prime", str(2**64 + 13)])
    assert exc.value.code == 2
    assert "below 2**64" in capsys.readouterr().err
    monkeypatch.setenv("ORBITAL_PRIME", str(2**64))
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--nmax", "4", "--trials", "1"])
    assert exc.value.code == 2


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
def test_verify_rejects_nmax_without_descriptors(capsys, nmax):
    # the smallest hypersurface descriptor has n = 4
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--nmax", nmax])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"no hypersurface descriptor has n <= {nmax}" in err
