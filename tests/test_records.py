"""The package's record types: value semantics of the named tuples, the
RingSpec contract, per-instance defaults, and no `dataclasses` at import."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ringkakeya
from ringkakeya import BoundReport, Direction, Line, MVFamily, RingSpec
from ringkakeya.polys import GFpPoly


def _records():
    spec = RingSpec.make(15, 2)
    d = Direction.from_vector((2, 3), spec)
    return {
        "direction": (d, Direction(rep=(1, 9), components=((1, 0), (1, 4)))),
        "line": (Line.through((1, 2), d, spec), Line(base=(0, 8), direction=d)),
        "mv-family": (MVFamily(p=2, k=2, n=2, U=((1, 0),), V=((0, 1),)),
                      MVFamily(2, 2, 2, ((1, 0),), ((0, 1),))),
    }


@pytest.mark.parametrize("name", ["direction", "line", "mv-family"])
def test_records_are_values(name):
    a, b = _records()[name]
    assert a == b and a is not b and hash(a) == hash(b) and len({a, b}) == 1
    with pytest.raises(AttributeError):
        a.p = 3
    with pytest.raises(AttributeError):
        setattr(a, a._fields[0], None)


def test_reprs_are_unchanged():
    # the demos print these, so their text is pinned
    a, _ = _records()["line"]
    assert repr(a) == ("Line(base=(0, 8), direction=Direction(rep=(1, 9), "
                       "components=((1, 0), (1, 4))))")
    assert repr(RingSpec.make(15, 2)) == (
        "RingSpec(N=15, n=2, factors=((3, 1), (5, 1)), kind='square-free')")


def test_ring_spec_equality_and_factor_check():
    spec = RingSpec(N=15, n=2, factors=((3, 1), (5, 1)), kind="square-free")
    assert spec == RingSpec.make(15, 2) and hash(spec) == hash(RingSpec.make(15, 2))
    assert spec != RingSpec.make(15, 3) and spec != (15, 2)
    with pytest.raises(ValueError, match="factors do not multiply to N"):
        RingSpec(N=15, n=2, factors=((3, 1),), kind="prime")


def test_default_dicts_are_per_instance():
    a, b = (BoundReport("prime", 3, 2, 9, 4, None) for _ in range(2))
    a.quantities["x"] = 1
    a.checks["y"] = True
    assert (b.quantities, b.checks) == ({}, {})
    f, g = GFpPoly(3, 2), GFpPoly(3, 2)
    f.coeffs[(1, 0)] = 1
    assert g.coeffs == {} and g.is_zero()


def test_cli_import_leaves_out_dataclasses():
    src = str(Path(ringkakeya.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    code = "import ringkakeya.cli, sys; sys.exit('dataclasses' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
