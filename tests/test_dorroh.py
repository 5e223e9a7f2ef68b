import oracles
import pytest

from hyperlab import dorroh
from hyperlab.axioms import PreconditionError
from hyperlab.cli import _load_model, default_catalog_path
from hyperlab.dorroh import (
    RANGE_CAP,
    DorrohPair,
    associativity_probe,
    dorroh_add,
    dorroh_mul,
    normalize,
    scaled_sum,
)
from hyperlab.enumeration import EnumerationJob, enumerate_models
from hyperlab.model import TwoOpModel, complex_product, members_of
from hyperlab.samples import (
    cyclic_group_table,
    field_model,
    krasner_hyperfield,
    sign_hyperfield,
    total_table,
)

K = krasner_hyperfield()


def test_scaled_sum_examples():
    assert members_of(scaled_sum(K, 2, 1)) == (0, 1)
    assert members_of(scaled_sum(K, 0, 1)) == (0,)
    assert members_of(scaled_sum(K, 0, 0)) == (0,)
    assert members_of(scaled_sum(K, -1, 1)) == (1,)


def test_scaled_sum_fold_consistency():
    for j in range(4):
        for k in range(4):
            for y in range(K.order):
                lhs = scaled_sum(K, j + k, y)
                rhs = complex_product(
                    K.add, scaled_sum(K, j, y), scaled_sum(K, k, y)
                )
                assert lhs == rhs


def test_scaled_sum_negation_consistency():
    from hyperlab.axioms import opposite_map

    opp = opposite_map(K.add, 0)
    for k in range(-3, 4):
        for y in range(K.order):
            neg = scaled_sum(K, -k, y)
            pos = scaled_sum(K, k, opp[y])
            assert neg == pos


def test_scaled_sum_precondition():
    bad = TwoOpModel(2, total_table(2), K.mul, zero=0)
    with pytest.raises(PreconditionError):
        scaled_sum(bad, 2, 1)


def test_dorroh_add_examples():
    assert dorroh_add(K, DorrohPair(0, 0), DorrohPair(7, 1)) == (DorrohPair(7, 1),)
    assert dorroh_add(K, DorrohPair(1, 1), DorrohPair(2, 1)) == (
        DorrohPair(3, 0),
        DorrohPair(3, 1),
    )
    # the opposite of (n, x) is (-n, -x)
    for n in (-2, 0, 3):
        for x in range(2):
            opposite = DorrohPair(-n, x)  # opp is the identity map in K
            assert DorrohPair(0, 0) in dorroh_add(K, DorrohPair(n, x), opposite)


def test_dorroh_mul_examples():
    assert dorroh_mul(K, DorrohPair(1, 1), DorrohPair(1, 1)) == (
        DorrohPair(1, 0),
        DorrohPair(1, 1),
    )
    assert dorroh_mul(K, DorrohPair(0, 0), DorrohPair(5, 1)) == (DorrohPair(0, 0),)
    for m in (-3, 0, 2):
        for y in range(2):
            assert dorroh_mul(K, DorrohPair(1, 0), DorrohPair(m, y)) == (
                DorrohPair(m, y),
            )


def test_normalize():
    pairs = [DorrohPair(1, 1), DorrohPair(0, 0), DorrohPair(1, 1)]
    assert normalize(pairs) == (DorrohPair(0, 0), DorrohPair(1, 1))


def test_probe_krasner_window1():
    report = associativity_probe(K, 1, base_name="krasner")
    assert report.triples_checked == (3 * 2) ** 3 == 216
    assert report.inclusion_ok
    assert report.canonical_window_ok
    assert report.assoc_equal_count == 216
    assert report.weak_assoc_ok_count == 216
    assert report.first_assoc_violation is None


def test_probe_krasner_window2_golden():
    report = associativity_probe(K, 2, base_name="krasner")
    assert report.triples_checked == 1000
    assert report.assoc_equal_count == 1000
    assert report.weak_assoc_ok_count == 1000
    assert report.inclusion_ok
    assert report.canonical_window_ok


def test_probe_sign_hyperfield():
    report = associativity_probe(sign_hyperfield(), 1, workers=2)
    assert report.inclusion_ok and report.canonical_window_ok
    assert report.assoc_equal_count == report.triples_checked == 729


def test_probe_plain_field_matches_ring_arithmetic():
    report = associativity_probe(field_model(3), 1)
    assert report.assoc_equal_count == report.triples_checked


def test_probe_rejects_non_hyperring():
    z2 = cyclic_group_table(2)
    bad = TwoOpModel(2, z2, total_table(2), zero=0)
    with pytest.raises(PreconditionError, match="Krasner"):
        associativity_probe(bad, 1)
    for radius in (0, RANGE_CAP + 1):
        with pytest.raises(ValueError, match="radius"):
            associativity_probe(K, radius)


def test_probe_deterministic_across_workers():
    a = associativity_probe(K, 2, workers=1).to_json(include_wall_time=False)
    b = associativity_probe(K, 2, workers=8).to_json(include_wall_time=False)
    assert a == b


MODELS = default_catalog_path().rsplit("/", 1)[0] + "/models"


def _report(model, radius, workers=1, base_name="base"):
    return associativity_probe(model, radius, workers, base_name).to_json(
        include_wall_time=False
    )


def test_empty_pair_sets_compare_whatever_their_integer_part():
    assert dorroh._same((3, 0), (-5, 0))
    assert not dorroh._same((3, 0b1), (-5, 0b1))
    assert not dorroh._meets((3, 0), (3, 0))
    assert dorroh._within((3, 0), (-5, 0b1))
    assert not dorroh._within((3, 0b1), (-5, 0b1))


@pytest.mark.parametrize("radius", [1, 2])
@pytest.mark.parametrize("name", ["sign", "krasner"])
def test_probe_matches_pair_reference_on_bundled_bases(name, radius):
    model = _load_model(f"{MODELS}/{name}.model")
    report = _report(model, radius, base_name=name)
    assert report == oracles.dorroh_probe(model, radius, base_name=name)
    assert _report(model, radius, workers=2, base_name=name) == report


def test_probe_matches_pair_reference_on_order3_krasner_hyperrings():
    models = []
    enumerate_models(EnumerationJob(3, ("krasner-hyperring",), zero=0, emit=models.append))
    reports = [_report(m, 1) for m in models]
    assert reports == [oracles.dorroh_probe(m, 1) for m in models]
    assert [_report(m, 1, workers=2) for m in models] == reports
    # six of the ten reach the violation path, none of the bundled models does
    equal = sorted(r["assoc_equal_count"] for r in reports)
    assert equal == [697] * 2 + [713] * 4 + [729] * 4
    assert sum(r["first_assoc_violation"] is not None for r in reports) == 6


@pytest.mark.slow
def test_probe_at_the_range_cap_on_the_largest_bundled_base():
    import time

    start = time.perf_counter()
    report = _report(_load_model(f"{MODELS}/sign.model"), RANGE_CAP)
    assert time.perf_counter() - start < 30
    assert report["assoc_equal_count"] == report["triples_checked"] == (3 * (2 * RANGE_CAP + 1)) ** 3
