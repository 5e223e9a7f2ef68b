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
