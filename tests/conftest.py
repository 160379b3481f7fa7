import random
import signal

import numpy as np
import pytest

from ringkakeya import KakeyaSet, Line, RowFactorError, line_points
from ringkakeya.kakeya import _lines_in_direction, from_json_dict


def set_from_lines(spec, points, witness) -> KakeyaSet:
    """The set of point tuples with witness lines {Direction: Line}, each
    filed under its direction, loaded as its file and not verified."""
    return from_json_dict({
        "N": spec.N, "n": spec.n, "points": [list(pt) for pt in points],
        "witness": [{"dir": list(d.rep), "base": list(line.base)}
                    for d, line in witness.items()],
    }, check=False)


def random_full_witness(spec, seed: int) -> KakeyaSet:
    """The full point set with a randomly chosen witness line per direction."""
    rng = random.Random(seed)
    witness = {d: rng.choice(_lines_in_direction(d, spec))
               for d in spec.directions}
    return set_from_lines(spec, map(tuple, spec.points.tolist()), witness)


def random_witness_set(spec, rng: random.Random) -> KakeyaSet:
    """The union of one line per direction, each through a random point."""
    witness, points = {}, set()
    for d in spec.directions:
        base = tuple(rng.randrange(spec.N) for _ in range(spec.n))
        witness[d] = Line.through(base, d, spec)
        points.update(map(tuple, line_points(witness[d], spec).tolist()))
    return set_from_lines(spec, points, witness)


@pytest.fixture
def deadline():
    """Fail within 20 s instead of hanging: a packed reduction whose sum
    mod p or whose multiple is wrong never clears the leading field."""
    def expire(signum, frame):
        raise TimeoutError("the packed rank did not terminate")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 20)
    yield
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, previous)


# Loop oracles for the row factorizations: a reduced echelon form with a row
# scan per pivot, and each target row reduced against its pivots one by one.

def reduced_echelon_oracle(a, p):
    E = a % p
    m, n = E.shape
    R = np.eye(m, dtype=np.int64)
    pivots = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if E[i, c]), None)
        if piv is None:
            continue
        E[[r, piv]] = E[[piv, r]]
        R[[r, piv]] = R[[piv, r]]
        inv = pow(int(E[r, c]), -1, p)
        E[r] = E[r] * inv % p
        R[r] = R[r] * inv % p
        for i in range(m):
            if i != r and E[i, c]:
                f = int(E[i, c])
                E[i] = (E[i] - f * E[r]) % p
                R[i] = (R[i] - f * R[r]) % p
        pivots.append((r, c))
        r += 1
        if r == m:
            break
    return E, pivots, R


def row_factor_oracle(a, b, p):
    E, pivots, R = reduced_echelon_oracle(a, p)
    C = np.zeros((b.shape[0], a.shape[0]), dtype=np.int64)
    for i in range(b.shape[0]):
        residual = b[i].copy()
        coeff = np.zeros(a.shape[0], dtype=np.int64)
        for r, c in pivots:
            f = int(residual[c])
            if f:
                coeff[r] = f
                residual = (residual - f * E[r]) % p
        if residual.any():
            raise RowFactorError(f"row {i} of the target is not in the row space")
        C[i] = coeff @ R % p
    return C
