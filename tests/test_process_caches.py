"""Tables kept for the life of a process: one `RingSpec` per (N, n), one
evaluation table per pivot field, and the least factor of each number
trial division meets, 0 where it cannot settle it.  They are read-only,
they hold nothing derived from a Kakeya set, and a sequence of commands in
one process writes what fresh processes write."""

import functools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ringkakeya
from ringkakeya import GuardExceeded, RingSpec, bounds, gfp, rings
from ringkakeya.bounds import _pivot_eval_matrix, certify_squarefree
from ringkakeya.cli import main
from ringkakeya.errors import DEFAULT_CELL_GUARD
from ringkakeya.incidence import incidence_quotient
from ringkakeya.kakeya import crt_product, save, tangent_construction
from ringkakeya.polys import dim_homog, dim_leq, eval_matrix

from conftest import random_witness_set

M61 = 2**61 - 1  # prime, beyond trial division below 2^22


def test_one_spec_per_ring():
    assert RingSpec.make(15, 2) is RingSpec.make(15, 2)
    assert RingSpec.make(15, 2).factor_specs[1] is RingSpec.make(5, 2)


def test_a_numpy_modulus_gives_the_python_int_spec():
    spec = RingSpec.make(np.int64(15), np.int64(2))
    assert spec is RingSpec.make(15, 2)
    assert type(spec.N) is int and type(spec.n) is int
    assert json.dumps(spec.N) == "15"


def test_a_refused_ring_is_not_kept():
    before = rings._make.cache_info().currsize
    for _ in range(2):
        with pytest.raises(ValueError, match="repeated prime factor"):
            RingSpec.make(12, 2)
    assert rings._make.cache_info().currsize == before


def test_a_rank_table_pass_fits_the_spec_cache():
    # the 17 rings of a rank-tables pass: a second pass builds no spec
    rings_ = [(p, 1, n) for p in (2, 3, 5, 7) for n in (2, 3)]
    rings_ += [(2, 2, 2), (2, 3, 2), (2, 4, 2), (2, 2, 3), (2, 3, 3), (3, 2, 2),
               (3, 2, 3), (5, 2, 2), (11, 1, 3)]
    assert rings.SPEC_CACHE_SIZE > len(rings_)
    for p, k, n in rings_:
        incidence_quotient(p, k, n)
    misses = rings._make.cache_info().misses
    for p, k, n in rings_:
        incidence_quotient(p, k, n)
    assert rings._make.cache_info().misses == misses


def _write_raises(a):
    with pytest.raises(ValueError, match="read-only"):
        a.flat[0] = a.flat[0]


@pytest.mark.parametrize("N,n", [(15, 2), (9, 2), (7, 1)])
def test_spec_tables_are_read_only(N, n):
    spec = RingSpec.make(N, n)
    tables = [spec.points, spec.crt_order, spec.dir_reps, spec.dir_index,
              *spec.dir_components]
    if spec.is_prime_power:
        tables += spec.unit_orbits
    for a in tables:
        _write_raises(a)


def test_pivot_eval_matrix_is_read_only():
    _write_raises(_pivot_eval_matrix(3, 2, 5, 8, DEFAULT_CELL_GUARD).a)


def test_the_evaluation_table_is_counted_against_the_certificate_guard(monkeypatch):
    # a raised --guard admits an evaluation table past the default guard,
    # as it admits the family; a refused table is not kept
    guards = []

    def recording(p, n, points, m, degree, guard=DEFAULT_CELL_GUARD):
        guards.append(guard)
        return eval_matrix(p, n, points, m, degree, guard)

    monkeypatch.setattr(bounds, "eval_matrix", recording)
    spec = RingSpec.make(15, 2)
    S = crt_product([tangent_construction(p, 2) for p in spec.primes], spec)
    want = certify_squarefree(S).to_json_dict()
    raised = 2 * DEFAULT_CELL_GUARD
    assert certify_squarefree(S, guard=raised).to_json_dict() == want
    assert guards[-1] == raised
    cells = 9 * dim_leq(2, 4) * dim_homog(2, 8)
    before = _pivot_eval_matrix.cache_info().currsize
    with pytest.raises(GuardExceeded, match=f"= {cells} cells exceeds the guard of {cells - 1}$"):
        _pivot_eval_matrix(3, 2, 5, 8, cells - 1)
    assert _pivot_eval_matrix.cache_info().currsize == before
    assert _pivot_eval_matrix(3, 2, 5, 8, cells).rows == 9 * dim_leq(2, 4)


def test_an_unsettled_modulus_is_divided_once(monkeypatch, capsys):
    # each wrank row still names the refusal on stderr; only the first
    # divides, and a later factorization of the same N replays it too.
    # A fresh memo of least factors records each division it runs as
    # (m, least factor or 0).
    divisions = []
    real = rings._least_factor.__wrapped__

    @functools.cache
    def counting(m):
        divisions.append((m, real(m)))
        return divisions[-1][1]

    monkeypatch.setattr(rings, "_least_factor", counting)
    monkeypatch.setattr(gfp, "_least_factor", counting)
    code = main(["wrank", "--p", str(M61), "--n", "1,2,3"])
    out, err = capsys.readouterr()
    assert code == 3
    assert [row["refused"] for row in json.loads(out)] == [True] * 3
    lines = err.splitlines()
    assert len(lines) == 3 and len(set(lines)) == 1
    assert lines[0].startswith(f"factoring {M61}: trial division stops at 2^22")
    assert main(["bound", "--N", str(M61), "--n", "1"]) == 3
    assert divisions == [(M61, 0)]
    # its multiples split off their least factor and refuse the cofactor
    # without dividing it again, and is_prime answers at the factor
    capsys.readouterr()
    for c in (2, 3, 2):
        assert main(["bound", "--N", str(c * M61), "--n", "1"]) == 3
        assert capsys.readouterr().err == (
            f"factoring {c * M61}: trial division stops at 2^22 with the "
            f"cofactor {M61} unsettled\n")
    assert main(["wrank", "--p", str(2 * M61), "--n", "1"]) == 2
    assert divisions == [(M61, 0), (2 * M61, 2), (3 * M61, 3)]


# ---------------------------------------------------------------------------
# One process against fresh processes

SRC = str(Path(ringkakeya.__file__).resolve().parent.parent)


def _fresh(argv, cwd):
    env = dict(os.environ, PYTHONPATH=SRC)
    res = subprocess.run([sys.executable, "-m", "ringkakeya", *argv], cwd=cwd,
                         env=env, capture_output=True, text=True, timeout=120)
    return res.returncode, res.stdout, res.stderr


def _in_process(argv, capsys):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _without_runtime(result):
    code, out, err = result
    if out.startswith("[") and '"runtime_s"' in out:
        rows = json.loads(out)
        for row in rows:
            row.pop("runtime_s")
        out = json.dumps(rows)
    return code, out, err


def test_one_process_writes_what_fresh_processes_write(tmp_path, capsys, monkeypatch):
    # every pipeline on the bench sets, wrank rows, mv search and minsearch:
    # a sequence of commands in one process, run twice so that the second
    # finds every table kept, against one fresh process per command
    for N, n, method in [(7, 3, "tangent"), (15, 2, "tangent-product"),
                         (21, 2, "tangent-product"), (10, 3, "tangent-product"),
                         (8, 2, "full"), (25, 1, "full")]:
        assert main(["kakeya", "construct", "--N", str(N), "--n", str(n),
                     "--method", method, "--out", str(tmp_path / f"{N}^{n}.json")]) == 0
    save(random_witness_set(RingSpec.make(15, 2), random.Random(3)),
         tmp_path / "random-15^2.json")
    capsys.readouterr()
    commands = [["certify", "7^3.json", "--pipeline", "prime"]]
    for name in ("15^2", "21^2", "10^3", "random-15^2"):
        for pipeline in ("two-primes", "square-free"):
            commands.append(["certify", f"{name}.json", "--pipeline", pipeline])
    commands += [
        ["certify", "random-15^2.json", "--pipeline", "square-free", "--k", "6"],
        ["certify", "8^2.json", "--pipeline", "prime-power"],
        ["certify", "25^1.json", "--pipeline", "prime-power"],
        ["wrank", "--p", "2,3,5", "--k", "1,2", "--n", "2,3", "--guard", "20000"],
        ["mv", "search", "--p", "2", "--k", "2", "--n", "3", "--target", "6"],
        ["kakeya", "minsearch", "--N", "7", "--n", "2", "--out", "min.json"],
    ]
    fresh = [_without_runtime(_fresh(argv, tmp_path)) for argv in commands]
    fresh_min = (tmp_path / "min.json").read_bytes()
    monkeypatch.chdir(tmp_path)
    for _ in range(2):
        (tmp_path / "min.json").unlink()
        for argv, want in zip(commands, fresh):
            assert _without_runtime(_in_process(argv, capsys)) == want, argv
        assert (tmp_path / "min.json").read_bytes() == fresh_min
    assert {code for code, _, _ in fresh} == {0, 3}
