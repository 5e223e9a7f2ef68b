import json
import random
from pathlib import Path

import pytest

import hyperlab
from hyperlab.model import HyperTable, HypermoduleModel, TwoOpModel
from hyperlab.modelio import (
    ParseError,
    _assemble,
    model_json,
    model_parts,
    parse_model,
    serialize_model,
)
from hyperlab.samples import (
    cyclic_group_table,
    degenerate_table,
    krasner_hyperfield,
    krasner_self_module,
    sign_hyperfield,
    subtraction_table,
    total_table,
)

MODELS = Path(hyperlab.__file__).parent / "data" / "models"

# every bundled model file -> the builder it must equal
BUNDLED = {
    "krasner": krasner_hyperfield,
    "sign": sign_hyperfield,
    "krasner_module": krasner_self_module,
    "z2": lambda: cyclic_group_table(2),
    "z3": lambda: cyclic_group_table(3),
    "z3_reversed_difference": lambda: subtraction_table(3),
    "degenerate2": lambda: degenerate_table(2),
    "total2": lambda: total_table(2),
}

Z2_TEXT = """\
order 2
op law composition
0 1
1 0
"""

K_TEXT = """\
order 2
op add hyper
{0} {1}
{1} {0,1}
op mul composition
0 0
0 1
zero 0
one 1
"""


def test_parse_single_table():
    model = parse_model(Z2_TEXT)
    assert isinstance(model, HyperTable)
    assert model == cyclic_group_table(2)


def test_parse_two_op():
    model = parse_model(K_TEXT)
    assert isinstance(model, TwoOpModel)
    assert model == krasner_hyperfield()


def test_serialize_round_trips_exact_text():
    assert serialize_model(parse_model(Z2_TEXT)) == Z2_TEXT
    assert serialize_model(parse_model(K_TEXT)) == K_TEXT


def test_comments_and_blank_lines_ignored():
    text = "# a model\n\norder 2   # header\nop law hyper\n{} {0,1}\n{0,1} {}\n"
    model = parse_model(text)
    assert model.cell(0, 0) == 0
    assert model.cell(0, 1) == 0b11


def test_empty_cell_token():
    model = parse_model("order 1\nop law hyper\n{}\n")
    assert model.cells == (0,)


def test_cell_index_out_of_range_reports_position():
    text = "order 2\nop law hyper\n{0} {0,2}\n{0} {1}\n"
    with pytest.raises(ParseError) as err:
        parse_model(text)
    assert err.value.line == 3
    assert err.value.col == 5
    assert "out of range" in str(err.value)


def test_malformed_header():
    with pytest.raises(ParseError, match="header"):
        parse_model("odrer 2\n")
    with pytest.raises(ParseError, match="empty"):
        parse_model("# nothing here\n")


def test_wrong_cell_count():
    with pytest.raises(ParseError, match="expected 2 cells"):
        parse_model("order 2\nop law hyper\n{0} {1} {0}\n{0} {1}\n")
    with pytest.raises(ParseError, match="expected 2 table rows"):
        parse_model("order 2\nop law hyper\n{0} {1}\n")


def test_composition_singleton_violation():
    with pytest.raises(ParseError, match="singleton"):
        parse_model("order 2\nop law composition\n{0,1} {1}\n{0} {1}\n")
    with pytest.raises(ParseError, match="singleton"):
        parse_model("order 2\nop law composition\n{} {1}\n{0} {1}\n")


def test_bare_index_rejected_for_hyper_kind():
    with pytest.raises(ParseError, match="bare index"):
        parse_model("order 2\nop law hyper\n0 {1}\n{0} {1}\n")


def test_descending_indices_rejected():
    with pytest.raises(ParseError, match="ascending"):
        parse_model("order 2\nop law hyper\n{1,0} {1}\n{0} {1}\n")


def test_two_op_requires_zero():
    text = "order 1\nop add hyper\n{0}\nop mul composition\n0\n"
    with pytest.raises(ParseError, match="zero"):
        parse_model(text)


def test_constants_on_single_table_rejected():
    with pytest.raises(ParseError, match="two-operation"):
        parse_model("order 1\nop law hyper\n{0}\nzero 0\n")


def test_hypermodule_round_trip():
    hm = krasner_self_module()
    text = serialize_model(hm)
    parsed = parse_model(text)
    assert isinstance(parsed, HypermoduleModel)
    assert parsed == hm
    assert serialize_model(parsed) == text


def test_a_declared_one_must_be_the_multiplicative_identity():
    text = K_TEXT.replace("0 0\n0 1\n", "0 1\n1 1\n")  # 0 is the identity
    with pytest.raises(ParseError, match="`one 1` is not the multiplicative identity") as err:
        parse_model(text)
    assert err.value.line == 9  # the `one` line
    model = model_json(krasner_hyperfield())
    model["ops"]["mul"]["table"] = [[[0], [1]], [[1], [1]]]
    with pytest.raises(ParseError, match="`one 1` is not"):
        parse_model(json.dumps(model), fmt="json")


def test_hypermodule_requires_one_and_zerom():
    hm = krasner_self_module()
    text = serialize_model(hm)
    with pytest.raises(ParseError, match="zerom"):
        parse_model("\n".join(l for l in text.splitlines() if not l.startswith("zerom")))
    with pytest.raises(ParseError, match="one"):
        parse_model("\n".join(l for l in text.splitlines() if not l.startswith("one")))


def test_action_shape_validated():
    hm = krasner_self_module()
    bad = serialize_model(hm).replace("action 2 2", "action 2 1")
    with pytest.raises(ParseError):
        parse_model(bad)
    lines = serialize_model(hm).splitlines()
    bad = "\n".join(lines[:-1]).replace("action 2 2", "action 1 2") + "\n"
    with pytest.raises(ParseError, match="scalar order"):
        parse_model(bad)


def test_bundled_models_equal_their_builders():
    # T29 and the tests build these models; the CLI examples and the
    # benchmark read the files, so each file must be its builder's model
    files = {path.stem: path for path in MODELS.glob("*.model")}
    assert set(files) == set(BUNDLED)  # a new file needs a builder here
    for name, path in sorted(files.items()):
        assert parse_model(path.read_text(encoding="utf-8")) == BUNDLED[name](), name


def test_json_round_trip():
    for model in (
        cyclic_group_table(3),
        krasner_hyperfield(),
        sign_hyperfield(),
        krasner_self_module(),
    ):
        text = serialize_model(model, fmt="json")
        assert parse_model(text, fmt="json") == model
        assert model_json(model) == json.loads(text)
        # model_parts is the inverse of _assemble
        order, ops, constants, action = model_parts(model)
        shape = None if action is None else (len(action), len(action[0]))
        tables = [table for _, table in ops]
        assert _assemble(order, tables, constants, shape, action, 0) == model


def test_json_reports_bad_input():
    with pytest.raises(ParseError):
        parse_model("{not json", fmt="json")
    with pytest.raises(ParseError, match="singleton"):
        parse_model(
            '{"order": 1, "ops": {"law": {"kind": "composition", "table": [[[]]]}}}',
            fmt="json",
        )
    with pytest.raises(ParseError, match="each operation must be an object"):
        parse_model('{"order": 1, "ops": {"law": [1]}}', fmt="json")
    model = model_json(krasner_self_module())
    model["action"] = {"table": [5]}
    with pytest.raises(ParseError, match="action rows must be equal-length integer lists"):
        parse_model(json.dumps(model), fmt="json")


def _bool_json(model, path, value):
    """The model's JSON text with the entry at `path` replaced by value."""
    obj = model_json(model)
    node = obj
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return json.dumps(obj)


# each place the format wants an integer, given the JSON boolean equal to the
# integer there: Python's bool is an int, so the value would parse unchanged
@pytest.mark.parametrize(
    "text, reason",
    [
        (
            '{"order": true, "ops": {"law": {"kind": "hyper", "table": [[[0]]]}}}',
            "integer `order`",
        ),
        (
            '{"order": 1, "ops": {"law": {"kind": "hyper", "table": [[[false]]]}}}',
            "in-range indices",
        ),
        (_bool_json(krasner_hyperfield(), ("constants", "zero"), False), "constant `zero`"),
        (_bool_json(krasner_hyperfield(), ("constants", "one"), True), "constant `one`"),
        (
            _bool_json(krasner_self_module(), ("action", "table", 1, 1), True),
            "equal-length integer lists",
        ),
    ],
    ids=["order", "cell-index", "zero", "one", "action-entry"],
)
def test_json_booleans_are_not_integers(text, reason):
    with pytest.raises(ParseError, match=reason):
        parse_model(text, fmt="json")
    # the integer in its place parses
    parse_model(text.replace("true", "1").replace("false", "0"), fmt="json")


def random_model(rng):
    order = rng.randrange(1, 5)
    kind = rng.choice(["hyper", "composition"])
    if kind == "hyper":
        cells = tuple(rng.randrange(1 << order) for _ in range(order * order))
    else:
        cells = tuple(1 << rng.randrange(order) for _ in range(order * order))
    table = HyperTable(order, cells, kind)
    if rng.random() < 0.5:
        return table
    mul = [1 << rng.randrange(order) for _ in range(order * order)]
    one = rng.choice([None, 1]) if order > 1 else None
    if one is not None:  # a declared one must be the multiplicative identity
        for x in range(order):
            mul[one * order + x] = mul[x * order + one] = 1 << x
    return TwoOpModel(order, table, HyperTable(order, tuple(mul), "composition"), 0, one)


def test_structural_round_trip_random():
    rng = random.Random(99)
    for _ in range(300):
        model = random_model(rng)
        for fmt in ("text", "json"):
            assert parse_model(serialize_model(model, fmt=fmt), fmt=fmt) == model
