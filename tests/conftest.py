import random

import pytest

from qisog import ideals as idl
from qisog.ideals import QOrder


def random_walk_orders(p: int, count: int, seed: int = 0, ells=(2, 3)) -> list[QOrder]:
    """Distinct maximal orders reached by random l-neighbor walks from the
    first root order."""
    rng = random.Random(seed)
    start = idl.root_maximal_orders(p)[0]
    seen = {start.key(): start}
    current = start
    while len(seen) < count:
        ell = rng.choice(ells)
        steps = idl.ideals_of_norm_ell(current, ell)
        I = steps[rng.randrange(len(steps))]
        current = QOrder(I.right_order())
        seen.setdefault(current.key(), current)
        if rng.random() < 0.2:
            current = start  # restart to spread over the graph
    return list(seen.values())[:count]


@pytest.fixture(scope="session")
def walked_orders_13():
    return random_walk_orders(13, 30)


@pytest.fixture(scope="session")
def walked_orders_37():
    return random_walk_orders(37, 30)
