"""Builders for the small structures used throughout tests and verifiers."""

from .model import (
    KIND_COMPOSITION,
    HyperTable,
    HypermoduleModel,
    TwoOpModel,
    composition_from_rows,
    full_mask,
    table_from_rows,
)


def cyclic_group_table(n: int) -> HyperTable:
    cells = tuple(1 << ((x + y) % n) for x in range(n) for y in range(n))
    return HyperTable(n, cells, KIND_COMPOSITION)


def subtraction_table(n: int) -> HyperTable:
    """x∘y = y - x mod n; reproductive and left-inverted associative."""
    cells = tuple(1 << ((y - x) % n) for x in range(n) for y in range(n))
    return HyperTable(n, cells, KIND_COMPOSITION)


def degenerate_table(n: int) -> HyperTable:
    return HyperTable(n, (0,) * (n * n))


def total_table(n: int) -> HyperTable:
    return HyperTable(n, (full_mask(n),) * (n * n))


def krasner_hyperfield() -> TwoOpModel:
    """Order-2 hyperfield: 1+1 = {0,1}, multiplication of {0,1} with 1·1 = 1."""
    add = table_from_rows([[{0}, {1}], [{1}, {0, 1}]])
    mul = composition_from_rows([[0, 0], [0, 1]])
    return TwoOpModel(2, add, mul, zero=0, one=1)


def sign_hyperfield() -> TwoOpModel:
    """Order-3 hyperfield of signs: 1 + 2 = {0,1,2}, 2·2 = 1."""
    add = table_from_rows(
        [
            [{0}, {1}, {2}],
            [{1}, {1}, {0, 1, 2}],
            [{2}, {0, 1, 2}, {2}],
        ]
    )
    mul = composition_from_rows([[0, 0, 0], [0, 1, 2], [0, 2, 1]])
    return TwoOpModel(3, add, mul, zero=0, one=1)


def field_model(n: int) -> TwoOpModel:
    """The prime field Z_n (n prime) as a two-operation model."""
    add = cyclic_group_table(n)
    mul = HyperTable(
        n,
        tuple(1 << ((x * y) % n) for x in range(n) for y in range(n)),
        KIND_COMPOSITION,
    )
    return TwoOpModel(n, add, mul, zero=0, one=1 if n > 1 else None)


def krasner_self_module() -> HypermoduleModel:
    """The Krasner hyperfield acting on its own additive hypergroup."""
    k = krasner_hyperfield()
    action = tuple(
        tuple(k.mul.cell(a, m).bit_length() - 1 for m in range(2)) for a in range(2)
    )
    return HypermoduleModel(k, k.add, 0, action)
