import random
import signal

import pytest

from ringkakeya import KakeyaSet, Line, enumerate_directions, full_set, line_points
from ringkakeya.kakeya import _lines_in_direction


def random_full_witness(spec, seed: int) -> KakeyaSet:
    """The full point set with a randomly chosen witness line per direction."""
    rng = random.Random(seed)
    S = full_set(spec)
    witness = {}
    for d in enumerate_directions(spec):
        witness[d] = rng.choice(_lines_in_direction(d, spec))
    return KakeyaSet(spec=spec, points=S.points, witness=witness)


def random_witness_set(spec, rng: random.Random) -> KakeyaSet:
    """The union of one line per direction, each through a random point."""
    witness, points = {}, set()
    for d in enumerate_directions(spec):
        base = tuple(rng.randrange(spec.N) for _ in range(spec.n))
        witness[d] = Line.through(base, d, spec)
        points.update(map(tuple, line_points(witness[d], spec).tolist()))
    return KakeyaSet(spec=spec, points=frozenset(points), witness=witness)


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
