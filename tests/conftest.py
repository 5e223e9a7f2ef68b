import functools
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from hyperlab import enumeration, theorems
from hyperlab.model import canonical_form


@functools.cache
def verify_cached(theorem, order, drop_premises=False, oracle=False, workers=4):
    """Verifier reports are deterministic, so tests share one run per input."""
    return theorems.verify(
        theorem, order, drop_premises=drop_premises, oracle=oracle, workers=workers
    )


@pytest.fixture
def drop_one_model(monkeypatch):
    """`element_sweep` loses the first model that is not its own canonical
    form, so that model's orbit is incomplete."""
    real = enumeration.element_sweep

    def sweep(*args, **kwargs):
        pairs, pruned = real(*args, **kwargs)
        i = next(i for i, (t, _) in enumerate(pairs) if canonical_form(t) is not t)
        return pairs[:i] + pairs[i + 1:], pruned

    monkeypatch.setattr(enumeration, "element_sweep", sweep)


@pytest.fixture
def wrong_transposition(monkeypatch):
    """`element_sweep` maps the element-0 models to k by (0 k); swapping k
    with k + 1 instead maps them onto themselves for k = 1, so none sits at 1."""
    real = enumeration.apply_permutation

    def wrong(table, tau):
        n, k = table.order, tau[0]
        swap = {k: (k + 1) % n, (k + 1) % n: k}
        return real(table, [swap.get(x, x) for x in range(n)])

    monkeypatch.setattr(enumeration, "apply_permutation", wrong)
