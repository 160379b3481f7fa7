import random

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
