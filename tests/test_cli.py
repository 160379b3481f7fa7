"""Command-line interface: commands, formats, exit codes, determinism."""

import json
import tracemalloc

import pytest

from ringkakeya.cli import main
from ringkakeya.selftest import SUITES, run_suites


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_wrank_json(capsys):
    code, out, _ = run(capsys, "wrank", "--p", "2,3", "--k", "1", "--n", "2")
    assert code == 0
    rows = json.loads(out)
    assert [r["rank_fp"] for r in rows] == [3, 4]
    assert all(r["formula_pass"] for r in rows)


def test_wrank_csv_and_k2(capsys):
    code, out, _ = run(
        capsys, "wrank", "--p", "2", "--k", "2", "--n", "1,2", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p,k,n,extent,rank_fp,formula,formula_pass,refused,runtime_s"
    first = lines[1].split(",")
    assert first[:5] == ["2", "2", "1", "4", "3"]
    # no closed form asserted for k = 2: formula columns stay empty
    assert first[5] == "" and first[6] == ""


def test_wrank_guard_refusal(capsys):
    code, out, _ = run(
        capsys, "wrank", "--p", "7", "--k", "1", "--n", "3,1", "--guard", "1000"
    )
    assert code == 3
    rows = json.loads(out)
    assert rows[0]["refused"] is True
    assert rows[1]["refused"] is False and rows[1]["rank_fp"] == 2


@pytest.mark.parametrize("p,k,rank_fp", [("2", "7", 255), ("3", "5", 364)])
def test_wrank_quotient_reach(capsys, p, k, rank_fp):
    # W_{q,2} has q^2 points (16,384 and 59,049), far beyond the dense guard;
    # its unit-orbit quotient (382 and 485 points) fits
    code, out, _ = run(capsys, "wrank", "--p", p, "--k", k, "--n", "2")
    assert code == 0
    [row] = json.loads(out)
    assert row["rank_fp"] == rank_fp and row["refused"] is False


def test_wrank_quotient_guard(capsys):
    # the 27^3 x 3 = 59,049-cell point table fits; the 1184^2 quotient does not
    code, out, _ = run(capsys, "wrank", "--p", "3", "--k", "3", "--n", "3",
                       "--guard", "1000000")
    assert code == 3
    [row] = json.loads(out)
    assert row["refused"] is True and row["rank_fp"] == ""


def test_wrank_overflow_refusal(capsys):
    # a guard this large lets Z/2^63 through, whose ids would wrap int64
    code, out, err = run(capsys, "wrank", "--p", "2", "--k", "63", "--n", "1",
                         "--guard", str(10**30))
    assert code == 3
    assert out == "" and err.count("\n") == 1 and "can wrap" in err


def test_wrank_deterministic_modulo_runtime(capsys):
    _, out1, _ = run(capsys, "wrank", "--p", "2,3,5", "--k", "1", "--n", "2")
    _, out2, _ = run(capsys, "wrank", "--p", "2,3,5", "--k", "1", "--n", "2")
    rows1, rows2 = json.loads(out1), json.loads(out2)
    for r in rows1 + rows2:
        r.pop("runtime_s")
    assert rows1 == rows2


def test_kakeya_construct_verify_round_trip(tmp_path, capsys):
    path = tmp_path / "s.json"
    code, _, _ = run(
        capsys, "kakeya", "construct", "--N", "15", "--n", "2",
        "--method", "tangent-product", "--out", str(path),
    )
    assert code == 0
    code, out, _ = run(capsys, "kakeya", "verify", str(path))
    assert code == 0
    assert "valid Kakeya set" in out and "size=119" in out


def test_kakeya_construct_deterministic_bytes(tmp_path, capsys):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "kakeya", "construct", "--N", "6", "--n", "2", "--out", str(p1))
    run(capsys, "kakeya", "construct", "--N", "6", "--n", "2", "--out", str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_kakeya_verify_tampered(tmp_path, capsys):
    path = tmp_path / "s.json"
    run(capsys, "kakeya", "construct", "--N", "3", "--n", "2",
        "--method", "tangent", "--out", str(path))
    data = json.loads(path.read_text())
    data["points"] = data["points"][1:]
    path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "kakeya", "verify", str(path))
    assert code == 1
    assert "direction" in out


def test_kakeya_minsearch(tmp_path, capsys):
    path = tmp_path / "min.json"
    code, out, _ = run(
        capsys, "kakeya", "minsearch", "--N", "3", "--n", "2", "--out", str(path)
    )
    assert code == 0
    assert "minimum Kakeya size" in out
    opt = int(out.strip().rsplit(" ", 1)[1])
    assert opt >= 4
    code, _, _ = run(capsys, "kakeya", "verify", str(path))
    assert code == 0


def test_kakeya_minsearch_guard(capsys):
    code, _, err = run(
        capsys, "kakeya", "minsearch", "--N", "7", "--n", "2", "--guard", "10"
    )
    assert code == 3


def test_kakeya_power(tmp_path, capsys):
    src = tmp_path / "s.json"
    dst = tmp_path / "p.json"
    run(capsys, "kakeya", "construct", "--N", "6", "--n", "1", "--out", str(src))
    code, _, _ = run(
        capsys, "kakeya", "power", str(src), "--k", "2", "--out", str(dst)
    )
    assert code == 0
    data = json.loads(dst.read_text())
    assert data["n"] == 2
    assert len(data["points"]) == 36


@pytest.mark.parametrize(
    "N,n,method,pipeline",
    [
        (5, 2, "tangent", "prime"),
        (6, 2, "full", "two-primes"),
        (6, 2, "full", "square-free"),
        (4, 2, "full", "prime-power"),
    ],
)
def test_certify_pipelines(tmp_path, capsys, N, n, method, pipeline):
    path = tmp_path / "s.json"
    run(capsys, "kakeya", "construct", "--N", str(N), "--n", str(n),
        "--method", method, "--out", str(path))
    code, out, _ = run(capsys, "certify", str(path), "--pipeline", pipeline)
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["pipeline"] == pipeline


def test_certify_tampered_set_fails(tmp_path, capsys):
    path = tmp_path / "s.json"
    run(capsys, "kakeya", "construct", "--N", "5", "--n", "2",
        "--method", "tangent", "--out", str(path))
    data = json.loads(path.read_text())
    data["points"] = data["points"][2:]
    path.write_text(json.dumps(data))
    code, _, err = run(capsys, "certify", str(path), "--pipeline", "prime")
    assert code == 1
    assert "verification" in err


def test_certify_verifies_the_set_once(tmp_path, capsys, monkeypatch):
    import ringkakeya.bounds as bounds
    import ringkakeya.kakeya as kak

    path = tmp_path / "s.json"
    run(capsys, "kakeya", "construct", "--N", "4", "--n", "2", "--out", str(path))
    calls = []
    real = kak._verify

    def counting(S):
        calls.append(S)
        return real(S)

    # verify and the certificates' _require_valid both verify through _verify
    monkeypatch.setattr(kak, "_verify", counting)
    monkeypatch.setattr(bounds, "_verify", counting)
    code, _, _ = run(capsys, "certify", str(path), "--pipeline", "prime-power")
    assert code == 0
    assert len(calls) == 1


def test_certify_row_factor_error_exits_1(tmp_path, capsys, monkeypatch):
    import ringkakeya.cli as cli
    from ringkakeya import RowFactorError

    path = tmp_path / "s.json"
    run(capsys, "kakeya", "construct", "--N", "5", "--n", "2", "--out", str(path))

    def failing(S, args):
        raise RowFactorError("row 0 of the target is not in the row space")

    monkeypatch.setitem(cli.PIPELINES, "prime", failing)
    code, _, err = run(capsys, "certify", str(path), "--pipeline", "prime")
    assert code == 1
    assert "row space" in err


def test_certify_square_free_guard_refusal(tmp_path, capsys):
    path = tmp_path / "s.json"
    run(capsys, "kakeya", "construct", "--N", "15", "--n", "2",
        "--method", "tangent-product", "--out", str(path))
    code, out, err = run(capsys, "certify", str(path), "--pipeline",
                         "square-free", "--guard", "1000")
    assert code == 3
    assert out == "" and "guard" in err


@pytest.mark.parametrize("k", ["0", "-2", "1"], ids=["k0", "km2", "k1"])
def test_certify_square_free_rejects_bad_k(tmp_path, capsys, k):
    path = tmp_path / "s.json"
    run(capsys, "kakeya", "construct", "--N", "6", "--n", "2",
        "--method", "tangent-product", "--out", str(path))
    code, out, err = run(capsys, "certify", str(path), "--pipeline",
                         "square-free", "--k", k)
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and "k = " in lines[0]


@pytest.mark.parametrize("k", ["5", "-3"], ids=["k5", "km3"])
def test_certify_square_free_rejects_bad_k_on_prime_n(tmp_path, capsys, k):
    path = tmp_path / "s.json"
    run(capsys, "kakeya", "construct", "--N", "7", "--n", "2",
        "--method", "tangent", "--out", str(path))
    code, out, err = run(capsys, "certify", str(path), "--pipeline",
                         "square-free", "--k", k)
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and f"k = {k} " in lines[0]


@pytest.mark.parametrize("N,n,method,pipeline", [
    (15, 2, "tangent-product", "two-primes"),
    (7, 3, "tangent", "prime"),
    (7, 3, "tangent", "square-free"),
])
def test_certify_guard_refusal(tmp_path, capsys, N, n, method, pipeline):
    path = tmp_path / "s.json"
    run(capsys, "kakeya", "construct", "--N", str(N), "--n", str(n),
        "--method", method, "--out", str(path))
    code, out, err = run(capsys, "certify", str(path), "--pipeline", pipeline,
                         "--guard", "1000")
    assert code == 3
    assert out == "" and "guard" in err


def test_mv_search_and_verify(tmp_path, capsys):
    path = tmp_path / "mv.json"
    code, _, _ = run(
        capsys, "mv", "search", "--p", "2", "--k", "2", "--n", "2",
        "--target", "2", "--out", str(path),
    )
    assert code == 0
    data = json.loads(path.read_text())
    assert data["size"] >= 2
    code, out, _ = run(capsys, "mv", "verify", str(path))
    assert code == 0
    assert "valid matching-vector family" in out

    data["V"][0] = data["V"][1]
    path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "mv", "verify", str(path))
    assert code == 1
    assert "violation" in out


def test_mv_search_guard_refuses_before_listing_vectors(tmp_path, capsys):
    # (Z/3)^12 has 531441 vectors: the q^n x q^n table is refused before
    # any of them is listed
    out = tmp_path / "mv.json"
    tracemalloc.start()
    try:
        code = main(["mv", "search", "--p", "3", "--n", "12", "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert code == 3 and not out.exists() and peak < 2**20
    assert err == ("orthogonality table of (Z/3)^12: 531441 x 531441 = "
                   "282429536481 cells exceeds the guard of 16000000\n")
    code, out, err = run(capsys, "mv", "search", "--p", "3", "--n", "4",
                         "--target", "6", "--guard", "6400")
    assert code == 3 and out == "" and len(err.splitlines()) == 1


M61 = str(2**61 - 1)


@pytest.mark.parametrize("argv", [
    ["bound", "--N", M61, "--n", "1"], ["mv", "search", "--p", M61, "--n", "1"],
], ids=["bound", "mv-search"])
def test_trial_division_refuses_a_large_prime(capsys, deadline, argv):
    # trial division to sqrt(2^61 - 1) would take about 1.5 * 10^9 steps
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err == (f"factoring {M61}: trial division stops at 2^22 with the "
                   f"cofactor {M61} unsettled\n")


def test_wrank_refuses_a_large_prime_in_its_row(capsys, deadline):
    code, out, err = run(capsys, "wrank", "--p", M61, "--n", "1")
    assert code == 3
    assert err == (f"factoring {M61}: trial division stops at 2^22 with the "
                   f"cofactor {M61} unsettled\n")
    assert [row["refused"] for row in json.loads(out)] == [True]


@pytest.mark.parametrize("argv,message", [
    (["--p", "7", "--n", "2", "--guard", "10"],
     "point table of (Z/7)^2: 49 x 2 = 98 cells exceeds the guard of 10\n"),
    (["--p", "2", "--k", "3", "--n", "2", "--guard", "200"],
     "unit-orbit quotient of W_{8,2}: 22 x 22 = 484 cells exceeds the guard of 200\n"),
], ids=["point-table", "quotient"])
def test_wrank_names_each_refusal_on_stderr(capsys, argv, message):
    code, out, err = run(capsys, "wrank", *argv)
    assert (code, err) == (3, message)
    assert [row["refused"] for row in json.loads(out)] == [True]


def test_wrank_writes_one_stderr_line_per_refused_row(capsys):
    code, out, err = run(capsys, "wrank", "--p", "3,7", "--n", "1,2", "--guard", "20")
    assert code == 3
    assert [row["refused"] for row in json.loads(out)] == [False, True, False, True]
    assert err.splitlines() == [
        "unit-orbit quotient of W_{3,2}: 5 x 5 = 25 cells exceeds the guard of 20",
        "point table of (Z/7)^2: 49 x 2 = 98 cells exceeds the guard of 20",
    ]


@pytest.mark.parametrize("argv", [
    ["wrank", "--p", str(2 * (2**61 - 1)), "--n", "1"],
    ["mv", "search", "--p", str(2 * (2**61 - 1)), "--n", "1"],
], ids=["wrank", "mv-search"])
def test_a_composite_with_a_large_cofactor_is_not_prime(capsys, deadline, argv):
    # the trial division finds the 2 and stops there, leaving 2^61 - 1,
    # which it cannot settle, alone
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"characteristic {2 * (2**61 - 1)} is not prime\n"


def test_construct_refusal_names_the_point_table(capsys):
    code, out, err = run(capsys, "kakeya", "construct", "--N", "6", "--n", "12")
    assert code == 3 and out == ""
    assert err == ("point table of (Z/6)^12: 2176782336 x 12 = 26121388032 "
                   "cells exceeds the guard of 16000000\n")


BIG_RING = {"N": 2, "n": 40, "points": [], "witness": []}
BIG_TABLE = ("point table of (Z/2)^40: 1099511627776 x 40 = 43980465111040 "
             "cells exceeds the guard of 16000000\n")


@pytest.mark.parametrize("argv", [
    ["kakeya", "verify"], ["certify", "--pipeline", "prime"], ["kakeya", "power"],
], ids=["verify", "certify", "power"])
def test_loader_refuses_a_point_table_past_the_guard(tmp_path, capsys, argv):
    # the 2^40 directions of (Z/2)^40 are never listed
    path = tmp_path / "big.json"
    path.write_text(json.dumps(BIG_RING))
    code, out, err = run(capsys, *argv, str(path))
    assert (code, out, err) == (3, "", BIG_TABLE)


def test_minsearch_refuses_a_point_table_past_the_guard(capsys):
    code, out, err = run(capsys, "kakeya", "minsearch", "--N", "2", "--n", "40")
    assert (code, out, err) == (3, "", BIG_TABLE)


def test_minsearch_refuses_its_line_table_before_building_it(capsys):
    # (Z/2)^12 fits the point table, but its 4095 x 4096 x 2 lines do not;
    # with the combination cap lifted, the table guard refuses first
    tracemalloc.start()
    try:
        code = main(["kakeya", "minsearch", "--N", "2", "--n", "12",
                     "--guard", "1" + "0" * 100])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out = capsys.readouterr()
    assert (code, out.out) == (3, "") and peak < 2**20
    assert out.err == ("line table of (Z/2)^12: 16773120 x 24 = 402554880 "
                       "cells exceeds the guard of 16000000\n")


@pytest.mark.parametrize("argv", [
    ["kakeya", "construct", "--N", "15", "--n", "2", "--method", "tangent-product"],
    ["kakeya", "power", "{line}", "--k", "2"],
    ["certify", "{set}", "--pipeline", "two-primes"],
    ["mv", "search", "--p", "2", "--k", "2", "--n", "2", "--target", "2"],
    ["bound", "--N", "15", "--n", "2"],
    # refused, so runtime_s is empty and the output deterministic
    ["wrank", "--p", "2", "--k", "6", "--n", "10", "--format", "json"],
], ids=["construct", "power", "certify", "mv-search", "bound", "wrank"])
def test_stdout_equals_the_out_file(tmp_path, capsys, argv):
    files = {"{set}": tmp_path / "s.json", "{line}": tmp_path / "l.json"}
    run(capsys, "kakeya", "construct", "--N", "15", "--n", "2",
        "--method", "tangent-product", "--out", str(files["{set}"]))
    run(capsys, "kakeya", "construct", "--N", "15", "--n", "1",
        "--out", str(files["{line}"]))
    argv = [str(files.get(a, a)) for a in argv]
    code, out, err = run(capsys, *argv)
    path = tmp_path / "out.json"
    assert run(capsys, *argv, "--out", str(path)) == (code, "", err)
    assert path.read_bytes() == out.encode()
    if argv[0] == "wrank":
        assert code == 3 and json.loads(out)[0]["extent"] == "1152921504606846976"
    else:
        assert code == 0


def test_mv_search_exhausts_default_budget(capsys):
    code, out, _ = run(capsys, "mv", "search", "--p", "3", "--n", "4",
                       "--target", "6")
    data = json.loads(out)
    assert code == 1
    assert (data["nodes"], data["size"], data["target"]) == (200_000, 4, 6)


def test_bound_command(capsys):
    code, out, _ = run(capsys, "bound", "--N", "15", "--n", "2")
    assert code == 0
    data = json.loads(out)
    assert data["lower_bound_float"] == 25.0

    code, out, _ = run(capsys, "bound", "--N", "4", "--n", "1")
    data = json.loads(out)
    assert code == 0
    assert data["kind"].startswith("prime-power")


def test_selftest_filter(capsys):
    code, out, _ = run(capsys, "selftest", "--filter", "cyclotomic")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
    assert lines and all("cyclotomic." in l for l in lines)


@pytest.fixture(scope="module")
def selftest_rows():
    return run_suites()


SELFTEST_COUNTS = {"ring": 17, "gfp": 7, "cyclotomic": 20, "polyspace": 5,
                   "incidence": 10, "kakeya": 13, "bounds": 7}


@pytest.mark.parametrize("suite", SUITES)
def test_selftest_suite(selftest_rows, suite):
    # every check passes, and check names are unique within and across suites
    names = [check for s, check, _ in selftest_rows if s == suite]
    assert [check for s, check, ok in selftest_rows if s == suite and not ok] == []
    assert len(names) == len(set(names)) == SELFTEST_COUNTS[suite]
    assert not set(names) & {check for s, check, _ in selftest_rows if s != suite}


def test_selftest_seed_determinism(capsys):
    _, out1, _ = run(capsys, "selftest", "--filter", "gfp", "--seed", "7")
    _, out2, _ = run(capsys, "selftest", "--filter", "gfp", "--seed", "7")
    assert out1 == out2


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["certify", "nofile.json", "--pipeline", "bogus"])
    assert exc.value.code == 2
    for argv in ([], ["kakeya", "construct", "--N", "6", "--n", "2",
                      "--method", "bogus"], ["mv", "bogus"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    # unsupported modulus (repeated prime factor) is a usage error too
    code, _, err = run(capsys, "kakeya", "construct", "--N", "12", "--n", "2")
    assert code == 2
    assert "unsupported modulus" in err


@pytest.mark.parametrize("argv", [
    ["kakeya", "construct"],
    ["kakeya", "verify"],
    ["kakeya", "minsearch", "--N", "3"],
    ["kakeya", "power"],
    ["mv", "search"],
    ["mv", "verify"],
], ids=" ".join)
def test_missing_arguments_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "required" in capsys.readouterr().err


FILE_COMMANDS = {
    "certify": ["certify", "{}", "--pipeline", "prime"],
    "kakeya-verify": ["kakeya", "verify", "{}"],
    "kakeya-power": ["kakeya", "power", "{}"],
    "mv-verify": ["mv", "verify", "{}"],
}
def _tangent_with_outside_points() -> str:
    """The tangent set over F_3^2 with two out-of-range points appended."""
    from ringkakeya.kakeya import tangent_construction, to_json_dict

    data = to_json_dict(tangent_construction(3, 2))
    data["points"] += [[5, 7], [0, 3]]
    return json.dumps(data)


MALFORMED_SETS = {
    "empty": ("{}", "missing key 'N'"),
    "not-json": ("{", "not JSON"),
    "float": ('{"N": 3, "n": 2, "points": [[0, 0.5]], "witness": []}',
              "not a list of 2 integers"),
    "zero-direction": ('{"N": 3, "n": 2, "points": [], "witness": '
                       '[{"dir": [0, 0], "base": [0, 0]}]}',
                       "not a valid direction"),
    "point-outside": (_tangent_with_outside_points(), "lies outside [0, 3)^2"),
    # the loader checks each list whole; a refused list names its first bad
    # point in file order, or the least point outside the range
    "bool": ('{"N": 3, "n": 2, "points": [[0, 0], [1, true], [0.5, 0]], '
             '"witness": []}',
             "malformed Kakeya set: point [1, True] is not a list of 2 integers"),
    "string": ('{"N": 3, "n": 2, "points": [[0, 0], [2, "1"], [1, true]], '
               '"witness": []}',
               "malformed Kakeya set: point [2, '1'] is not a list of 2 integers"),
    "short": ('{"N": 3, "n": 2, "points": [[0, 0], [1], [2, 2, 2]], "witness": []}',
              "malformed Kakeya set: point [1] is not a list of 2 integers"),
    "huge": ('{"N": 3, "n": 2, "points": [[0, 0], [2, %d], [1, %d]], "witness": []}'
             % (2**70, 2**70 + 1),
             f"malformed Kakeya set: point [1, {2**70 + 1}] lies outside [0, 3)^2"),
    "minus-one": ('{"N": 3, "n": 2, "points": [[0, 0], [2, -1], [1, -1]], '
                  '"witness": []}',
                  "malformed Kakeya set: point [1, -1] lies outside [0, 3)^2"),
    # a refused witness list is walked entry by entry, to name its first bad
    # entry
    "no-dir": ('{"N": 3, "n": 2, "points": [], "witness": [{"base": [0, 0]}]}',
               "malformed Kakeya set: missing key 'dir'"),
    "list-entry": ('{"N": 3, "n": 2, "points": [], "witness": [[0, 1]]}',
                   "malformed Kakeya set: list indices must be integers or slices, not str"),
    "short-dir": ('{"N": 3, "n": 2, "points": [], "witness": '
                  '[{"dir": [0], "base": [0, 0]}]}',
                  "malformed Kakeya set: direction [0] is not a list of 2 integers"),
    "bool-base": ('{"N": 3, "n": 2, "points": [], "witness": '
                  '[{"dir": [1, 0], "base": [0, true]}]}',
                  "malformed Kakeya set: base [0, True] is not a list of 2 integers"),
    # (-10^10)^2 passes 2^63, but the modulus is refused before the point table
    "negative-modulus": ('{"N": -10000000000, "n": 2, "points": [], "witness": []}',
                         "malformed Kakeya set: modulus must be >= 2, got -10000000000"),
}
MALFORMED_FAMILIES = {
    "empty": ("{}", "missing key 'p'"),
    "not-json": ("{", "not JSON"),
    "unequal": ('{"p": 3, "k": 1, "n": 1, "U": [[1], [2]], "V": [[1]]}',
                "2 vectors u against 1"),
    "zero-modulus": ('{"p": 0, "k": 1, "n": 1, "U": [[1]], "V": [[1]]}',
                     "need p >= 2"),
}


def with_path(argv, path):
    return [str(path) if a == "{}" else a for a in argv]


@pytest.mark.parametrize("argv,text,message", [
    pytest.param(argv, text, message, id=f"{cmd}-{case}")
    for cmd, argv in FILE_COMMANDS.items()
    for case, (text, message) in (
        MALFORMED_FAMILIES if cmd == "mv-verify" else MALFORMED_SETS
    ).items()
])
def test_malformed_file_exits_1(tmp_path, capsys, argv, text, message):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, out, err = run(capsys, *with_path(argv, path))
    assert code == 1
    assert out == "" and message in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", FILE_COMMANDS.values(), ids=FILE_COMMANDS)
def test_unreadable_path_exits_2(tmp_path, capsys, argv):
    code, out, err = run(capsys, *with_path(argv, tmp_path / "missing.json"))
    assert code == 2
    assert out == "" and "No such file" in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("k,n", [("0", "2"), ("1", "0")])
def test_wrank_rejects_k_or_n_below_1(capsys, k, n):
    code, out, err = run(capsys, "wrank", "--p", "3", "--k", k, "--n", n)
    assert code == 2
    assert out == "" and "must be >= 1" in err


@pytest.mark.parametrize("p,k,n,message", [
    ("4", "1", "2", "characteristic 4 is not prime"),
    ("1", "1", "2", "characteristic 1 is not prime"),
    ("3", "0", "2", "must be >= 1"),
    ("3", "1", "0", "must be >= 1"),
], ids=["p4", "p1", "k0", "n0"])
def test_mv_search_rejects_bad_ring(capsys, p, k, n, message):
    code, out, err = run(capsys, "mv", "search", "--p", p, "--k", k, "--n", n,
                         "--target", "2")
    assert code == 2
    assert out == "" and message in err and len(err.splitlines()) == 1


def test_selftest_unknown_filter_lists_suites(capsys):
    code, out, err = run(capsys, "selftest", "--filter", "nosuch")
    assert code == 2
    assert out == "" and all(name in err for name in SUITES)
