import random
from itertools import permutations, product

import pytest

from hyperlab.model import (
    HyperTable,
    apply_permutation,
    canonical_form,
    cell_key,
    complex_product,
    full_mask,
    left_division,
    mask_of,
    members_of,
    right_division,
    table_from_rows,
    table_key,
)
from hyperlab.samples import (
    cyclic_group_table,
    degenerate_table,
    krasner_hyperfield,
    subtraction_table,
    total_table,
)

import oracles

Z2 = cyclic_group_table(2)


def random_table(rng, order, allow_empty=True):
    lo = 0 if allow_empty else 1
    cells = tuple(rng.randrange(lo, 1 << order) for _ in range(order * order))
    return HyperTable(order, cells)


def test_validation():
    with pytest.raises(ValueError):
        HyperTable(0, ())
    with pytest.raises(ValueError):
        HyperTable(13, (0,) * 169)
    with pytest.raises(ValueError):
        HyperTable(2, (0, 0, 0))
    with pytest.raises(ValueError):
        HyperTable(2, (4, 1, 1, 1))  # member 2 outside order-2 carrier
    with pytest.raises(ValueError):
        HyperTable(2, (3, 1, 1, 1), kind="composition")
    with pytest.raises(ValueError):
        HyperTable(2, (1, 1, 1, 1), kind="weird")


def test_complex_product_empty_factor_absorbs():
    assert complex_product(Z2, 0, 0b11) == 0
    assert complex_product(Z2, 0b11, 0) == 0
    assert complex_product(degenerate_table(3), 0b111, 0b111) == 0


def test_complex_product_total_table():
    t = total_table(2)
    assert complex_product(t, 0b01, 0b10) == full_mask(2)


def test_complex_product_z2_by_hand():
    # {0,1} * {1} = 0*1 ∪ 1*1 = {1} ∪ {0}
    assert complex_product(Z2, 0b11, 0b10) == 0b11


def test_complex_product_matches_oracle():
    rng = random.Random(7)
    for _ in range(200):
        order = rng.randrange(1, 5)
        t = random_table(rng, order)
        rows = oracles.from_table(t)
        a = rng.randrange(1 << order)
        b = rng.randrange(1 << order)
        expect = oracles.cp_sets(rows, members_of(a), members_of(b))
        assert complex_product(t, a, b) == mask_of(expect)


def test_complex_product_monotone():
    rng = random.Random(11)
    for _ in range(200):
        order = rng.randrange(1, 5)
        t = random_table(rng, order)
        big_a = rng.randrange(1 << order)
        big_b = rng.randrange(1 << order)
        a = big_a & rng.randrange(1 << order)
        b = big_b & rng.randrange(1 << order)
        small = complex_product(t, a, b)
        assert small & ~complex_product(t, big_a, big_b) == 0


def test_divisions_z2():
    assert right_division(Z2, 0, 1) == 0b10
    assert left_division(Z2, 1, 0) == 0b10


def test_divisions_degenerate_and_total():
    d = degenerate_table(2)
    t = total_table(2)
    for x, y in product(range(2), repeat=2):
        assert right_division(d, x, y) == 0
        assert left_division(d, y, x) == 0
        assert right_division(t, x, y) == full_mask(2)
        assert left_division(t, y, x) == full_mask(2)


def test_division_duality_exhaustive_order_le_4():
    rng = random.Random(3)
    for order in (1, 2, 3, 4):
        for _ in range(30):
            t = random_table(rng, order)
            for x, y, z in product(range(order), repeat=3):
                assert bool(right_division(t, x, y) >> z & 1) == bool(
                    t.cell(z, y) >> x & 1
                )
                assert bool(left_division(t, y, x) >> z & 1) == bool(
                    t.cell(y, z) >> x & 1
                )


def test_commutative_table_divisions_coincide():
    rng = random.Random(5)
    for _ in range(50):
        order = rng.randrange(1, 5)
        cells = [0] * (order * order)
        for x in range(order):
            for y in range(x, order):
                v = rng.randrange(1 << order)
                cells[x * order + y] = v
                cells[y * order + x] = v
        t = HyperTable(order, tuple(cells))
        for x, y in product(range(order), repeat=2):
            assert right_division(t, x, y) == left_division(t, y, x)


def test_apply_permutation_identity():
    assert apply_permutation(Z2, (0, 1)) == Z2


def test_apply_permutation_z2_swap_moves_identity():
    swapped = apply_permutation(Z2, (1, 0))
    # relabeling takes the identity to 1
    assert swapped == table_from_rows([[{1}, {0}], [{0}, {1}]], kind="composition")


def test_apply_permutation_roundtrip():
    rng = random.Random(13)
    for _ in range(100):
        order = rng.randrange(1, 6)
        t = random_table(rng, order)
        perm = list(range(order))
        rng.shuffle(perm)
        inv = [0] * order
        for i, p in enumerate(perm):
            inv[p] = i
        assert apply_permutation(apply_permutation(t, perm), inv) == t


def test_apply_permutation_refuses_a_non_permutation_every_time():
    for perm in [(0, 0), (1,), (0, 2), (1, 0, 2)]:
        for _ in range(2):  # a refused permutation is not cached
            with pytest.raises(ValueError, match="not a permutation of the carrier"):
                apply_permutation(Z2, perm)
    assert apply_permutation(Z2, [1, 0]) == apply_permutation(Z2, (1, 0))


def test_cell_key_order_shorter_prefix_first():
    keys = sorted(cell_key(m) for m in range(8))
    assert keys == [
        (),
        (0,),
        (0, 1),
        (0, 1, 2),
        (0, 2),
        (1,),
        (1, 2),
        (2,),
    ]


def test_canonical_form_orbit_invariance_and_idempotence():
    rng = random.Random(17)
    for _ in range(100):
        order = rng.randrange(1, 5)
        t = random_table(rng, order)
        perm = list(range(order))
        rng.shuffle(perm)
        canon = canonical_form(t)
        assert canonical_form(apply_permutation(t, perm)) == canon
        assert canonical_form(canon) == canon


def test_canonical_form_is_least_in_orbit():
    rng = random.Random(19)
    for _ in range(50):
        order = rng.randrange(1, 4)
        t = random_table(rng, order)
        canon_key = table_key(canonical_form(t))
        orbit_keys = [
            table_key(apply_permutation(t, perm))
            for perm in permutations(range(order))
        ]
        assert canon_key == min(orbit_keys)


def test_canonical_form_respects_pins():
    rng = random.Random(23)
    for _ in range(50):
        order = rng.randrange(2, 5)
        t = random_table(rng, order)
        canon = canonical_form(t, fixed=[0])
        keys = []
        for perm in permutations(range(order)):
            if perm[0] != 0:
                continue
            keys.append(table_key(apply_permutation(t, perm)))
        assert table_key(canon) == min(keys)


def test_canonical_form_order_one():
    t = table_from_rows([[{0}]])
    assert canonical_form(t) == t


def test_krasner_model_shape():
    k = krasner_hyperfield()
    assert k.zero == 0 and k.one == 1
    assert k.add.cell(1, 1) == 0b11
    assert k.mul.kind == "composition"


def test_subtraction_table_values():
    t = subtraction_table(3)
    assert t.cell(1, 0) == 1 << 2  # 0 - 1 = 2 mod 3
    assert t.cell(2, 1) == 1 << 2  # 1 - 2 = 2 mod 3
