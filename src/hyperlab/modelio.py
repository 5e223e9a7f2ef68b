"""Parsing and serialization of the model text and JSON formats.

Text format, line oriented; '#' starts a comment, blank lines are ignored:

    order <n>
    op <name> <hyper|composition>
    <n lines of n cell tokens>
    [op <name> <kind> ...]        second operation -> two-operation model
    [op <name> <kind> ...]        third operation  -> hypermodule (module addition,
                                  dimension inferred from its row width)
    [zero <i>] [one <i>] [zerom <i>]
    [action <p-order> <m-order>]  followed by p-order lines of m-order bare indices

A cell token is `{i1,i2,...}` with ascending indices, `{}` for the empty set;
composition tables also accept and serialize a bare index.  parse then
serialize is the identity on whitespace-normalized input, and serialize then
parse reproduces the model structurally.

`_assemble` (parts to model) and `model_parts` (model to parts) are the one
mapping between a model kind and its operations, constants and action: both
parsers end in the first; both serializers and the CLI's `--op` read the second.
"""

import json
import re

from .axioms import multiplicative_identity
from .model import (
    KIND_COMPOSITION,
    KINDS,
    HyperTable,
    HypermoduleModel,
    TwoOpModel,
    members_of,
)


class ParseError(ValueError):
    """Malformed model input, with 1-based line and column."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        super().__init__(f"line {line}, column {col}: {message}" if line else message)
        self.line = line
        self.col = col


_CELL_RE = re.compile(r"\{[0-9,]*\}|\d+")


def _strip_comment(raw: str) -> str:
    cut = raw.find("#")
    return raw if cut < 0 else raw[:cut]


def _parse_cell(token: str, order: int, kind: str, line: int, col: int) -> int:
    if token.isdigit():
        if kind != KIND_COMPOSITION:
            raise ParseError(
                "bare index cells are only allowed in composition tables", line, col
            )
        idx = int(token)
        if idx >= order:
            raise ParseError(f"cell index {idx} out of range for order {order}", line, col)
        return 1 << idx
    if not (token.startswith("{") and token.endswith("}")):
        raise ParseError(f"malformed cell token {token!r}", line, col)
    body = token[1:-1]
    mask = 0
    last = -1
    if body:
        for part in body.split(","):
            if not part.isdigit():
                raise ParseError(f"malformed cell token {token!r}", line, col)
            idx = int(part)
            if idx >= order:
                raise ParseError(
                    f"cell index {idx} out of range for order {order}", line, col
                )
            if idx <= last:
                raise ParseError("cell indices must be strictly ascending", line, col)
            last = idx
            mask |= 1 << idx
    if kind == KIND_COMPOSITION and mask.bit_count() != 1:
        raise ParseError("composition tables require singleton cells", line, col)
    return mask


class _Lines:
    def __init__(self, text: str):
        self.items = []  # (lineno, stripped content)
        for no, raw in enumerate(text.splitlines(), start=1):
            content = _strip_comment(raw).strip()
            if content:
                self.items.append((no, content, raw))
        self.pos = 0

    def peek(self):
        return self.items[self.pos] if self.pos < len(self.items) else None

    def take(self):
        item = self.peek()
        if item is not None:
            self.pos += 1
        return item


def _cell_row(content: str) -> bool:
    return content[0] == "{" or content[0].isdigit()


def _parse_cell_line(raw: str, lineno: int, order: int, kind: str) -> list[int]:
    cells = []
    content = _strip_comment(raw)
    pos = 0
    for m in _CELL_RE.finditer(content):
        between = content[pos : m.start()]
        if between.strip():
            raise ParseError(f"unexpected text {between.strip()!r}", lineno, pos + 1)
        cells.append(_parse_cell(m.group(), order, kind, lineno, m.start() + 1))
        pos = m.end()
    if content[pos:].strip():
        raise ParseError(f"unexpected text {content[pos:].strip()!r}", lineno, pos + 1)
    return cells


def _parse_index_line(content: str, lineno: int, expected: int, bound: int) -> list[int]:
    parts = content.split()
    if len(parts) != expected:
        raise ParseError(f"expected {expected} indices, got {len(parts)}", lineno, 1)
    out = []
    for part in parts:
        if not part.isdigit():
            raise ParseError(f"malformed index {part!r}", lineno, 1)
        v = int(part)
        if v >= bound:
            raise ParseError(f"index {v} out of range", lineno, 1)
        out.append(v)
    return out


def _read_op_block(lines: _Lines, order: int | None):
    """One `op` header plus its rows; order None means infer from row width."""
    lineno, content, _ = lines.take()
    parts = content.split()
    if len(parts) != 3 or parts[0] != "op":
        raise ParseError("expected `op <name> <hyper|composition>`", lineno, 1)
    kind = parts[2]
    if kind not in KINDS:
        raise ParseError(f"unknown operation kind {parts[2]!r}", lineno, 1)

    rows = []
    if order is None:
        while True:
            item = lines.peek()
            if item is None or not _cell_row(item[1]):
                break
            rows.append(lines.take())
        if not rows:
            raise ParseError("operation block has no rows", lineno, 1)
        order = len(rows)
    else:
        for _ in range(order):
            item = lines.take()
            if item is None or not _cell_row(item[1]):
                raise ParseError(
                    f"expected {order} table rows",
                    item[0] if item else lineno,
                    1,
                )
            rows.append(item)

    cells = []
    for row_no, _, raw in rows:
        row = _parse_cell_line(raw, row_no, order, kind)
        if len(row) != order:
            raise ParseError(f"expected {order} cells in row, got {len(row)}", row_no, 1)
        cells.extend(row)
    return HyperTable(order, tuple(cells), kind)


def parse_model(text: str, fmt: str = "text"):
    """Parse model text into a HyperTable, TwoOpModel or HypermoduleModel."""
    if fmt == "json":
        return _parse_json(text)
    if fmt != "text":
        raise ValueError(f"unknown model format {fmt!r}")

    lines = _Lines(text)
    item = lines.take()
    if item is None:
        raise ParseError("empty model file", 1, 1)
    lineno, content, _ = item
    parts = content.split()
    if len(parts) != 2 or parts[0] != "order" or not parts[1].isdigit():
        raise ParseError("expected `order <n>` header", lineno, 1)
    order = int(parts[1])
    if order < 1:
        raise ParseError("order must be positive", lineno, 1)

    tables = []
    constants: dict[str, int] = {}
    constant_lines = {}
    action_rows = None
    action_shape = None
    while (item := lines.peek()) is not None:
        lineno, content, _ = item
        word = content.split()[0]
        if word == "op":
            if len(tables) >= 3:
                raise ParseError("at most three operations are supported", lineno, 1)
            tables.append(_read_op_block(lines, order if len(tables) < 2 else None))
        elif word in ("zero", "one", "zerom"):
            lines.take()
            parts = content.split()
            if len(parts) != 2 or not parts[1].isdigit():
                raise ParseError(f"expected `{word} <i>`", lineno, 1)
            if word in constants:
                raise ParseError(f"duplicate `{word}` line", lineno, 1)
            constants[word] = int(parts[1])
            constant_lines[word] = lineno
        elif word == "action":
            lines.take()
            parts = content.split()
            if len(parts) != 3 or not (parts[1].isdigit() and parts[2].isdigit()):
                raise ParseError("expected `action <p-order> <m-order>`", lineno, 1)
            p_order, m_order = int(parts[1]), int(parts[2])
            action_shape = (p_order, m_order)
            action_rows = []
            for _ in range(p_order):
                row_item = lines.take()
                if row_item is None or not _cell_row(row_item[1]):
                    raise ParseError(
                        f"expected {p_order} action rows",
                        row_item[0] if row_item else lineno,
                        1,
                    )
                action_rows.append(
                    tuple(_parse_index_line(row_item[1], row_item[0], m_order, m_order))
                )
        else:
            raise ParseError(f"unexpected line {content!r}", lineno, 1)

    if not tables:
        raise ParseError("model has no operations", lineno, 1)
    one_line = constant_lines.get("one", 0)
    return _assemble(order, tables, constants, action_shape, action_rows, lineno, one_line)


def _assemble(order, tables, constants, action_shape, action_rows, lineno, one_line=0):
    zero = constants.get("zero")
    one = constants.get("one")
    zero_m = constants.get("zerom")

    if len(tables) == 1 and action_shape is None:
        if constants:
            raise ParseError("constants require a two-operation model", lineno, 1)
        return tables[0]

    if len(tables) >= 2:
        if zero is None:
            raise ParseError("two-operation models require a `zero` line", lineno, 1)
        if zero >= order or (one is not None and one >= order):
            raise ParseError("constant out of range", lineno, 1)
        try:
            two_op = TwoOpModel(order, tables[0], tables[1], zero, one)
        except ValueError as exc:
            raise ParseError(str(exc), lineno, 1) from exc
        if one is not None and multiplicative_identity(two_op) is None:
            raise ParseError(f"`one {one}` is not the multiplicative identity", one_line, 1)
    else:
        raise ParseError("hypermodule models need scalar add and mul operations", lineno, 1)

    if len(tables) == 2 and action_shape is None:
        if zero_m is not None:
            raise ParseError("`zerom` requires a module operation and action", lineno, 1)
        return two_op

    if action_shape is None or len(tables) != 3:
        raise ParseError(
            "hypermodule models require three operations and an action block", lineno, 1
        )
    madd = tables[2]
    p_order, m_order = action_shape
    if p_order != order:
        raise ParseError("action row count must equal the scalar order", lineno, 1)
    if m_order != madd.order:
        raise ParseError("action width must equal the module order", lineno, 1)
    if zero_m is None:
        raise ParseError("hypermodule models require a `zerom` line", lineno, 1)
    if one is None:
        raise ParseError("hypermodule scalars require a `one` line", lineno, 1)
    try:
        return HypermoduleModel(two_op, madd, zero_m, tuple(action_rows))
    except ValueError as exc:
        raise ParseError(str(exc), lineno, 1) from exc


def _cell_token(mask: int, kind: str) -> str:
    if kind == KIND_COMPOSITION:
        return str(mask.bit_length() - 1)
    return "{" + ",".join(str(i) for i in members_of(mask)) + "}"


def _table_lines(table: HyperTable, name: str) -> list[str]:
    lines = [f"op {name} {table.kind}"]
    n = table.order
    for x in range(n):
        lines.append(" ".join(_cell_token(table.cell(x, y), table.kind) for y in range(n)))
    return lines


def model_parts(model):
    """(order, [(op name, table)], constants, action rows or None): the inverse
    of `_assemble`, and the one place the writers read a model's kind."""
    if isinstance(model, HyperTable):
        return model.order, [("law", model)], {}, None
    if isinstance(model, TwoOpModel):
        constants = {"zero": model.zero}
        if model.one is not None:
            constants["one"] = model.one
        return model.order, [("add", model.add), ("mul", model.mul)], constants, None
    if isinstance(model, HypermoduleModel):
        sc = model.scalars
        ops = [("add", sc.add), ("mul", sc.mul), ("madd", model.madd)]
        constants = {"zero": sc.zero, "one": sc.one, "zerom": model.zero_m}
        return sc.order, ops, constants, model.action
    raise TypeError(f"cannot serialize {type(model).__name__}")


def serialize_model(model, fmt: str = "text") -> str:
    """Serialize a model; inverse of parse_model on well-formed values."""
    if fmt == "json":
        return json.dumps(model_json(model))
    if fmt != "text":
        raise ValueError(f"unknown model format {fmt!r}")
    order, ops, constants, action = model_parts(model)
    lines = [f"order {order}"]
    for name, table in ops:
        lines += _table_lines(table, name)
    lines += [f"{key} {value}" for key, value in constants.items()]
    if action is not None:
        lines.append(f"action {len(action)} {len(action[0])}")
        lines += [" ".join(str(v) for v in row) for row in action]
    return "\n".join(lines) + "\n"


def _table_json(table: HyperTable) -> dict:
    return {
        "kind": table.kind,
        "table": [
            [list(members_of(table.cell(x, y))) for y in range(table.order)]
            for x in range(table.order)
        ],
    }


def model_json(model) -> dict:
    """The JSON object of a model: `serialize_model(model, "json")` decoded."""
    order, ops, constants, action = model_parts(model)
    out = {"order": order, "ops": {name: _table_json(table) for name, table in ops}}
    if constants:
        out["constants"] = constants
    if action is not None:
        out["action"] = {"table": [list(row) for row in action]}
    return out


def _is_int(value) -> bool:
    """A JSON integer: Python's bool is an int, JSON's true and false are not."""
    return isinstance(value, int) and not isinstance(value, bool)


def _json_table(entry) -> HyperTable:
    if not isinstance(entry, dict):
        raise ParseError("each operation must be an object")
    kind = entry.get("kind")
    if kind not in KINDS:
        raise ParseError(f"unknown operation kind {kind!r}")
    rows = entry.get("table")
    if not isinstance(rows, list) or not rows:
        raise ParseError("operation table must be a non-empty 2-D array")
    order = len(rows)
    cells = []
    for row in rows:
        if not isinstance(row, list) or len(row) != order:
            raise ParseError("operation table must be square")
        for cell in row:
            if not isinstance(cell, list) or any(
                not _is_int(i) or i < 0 or i >= order for i in cell
            ):
                raise ParseError("cells must be lists of in-range indices")
            if sorted(set(cell)) != cell:
                raise ParseError("cell indices must be strictly ascending")
            mask = 0
            for i in cell:
                mask |= 1 << i
            if kind == KIND_COMPOSITION and mask.bit_count() != 1:
                raise ParseError("composition tables require singleton cells")
            cells.append(mask)
    return HyperTable(order, tuple(cells), kind)


def _parse_json(text: str):
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, exc.lineno, exc.colno) from exc
    if not isinstance(obj, dict):
        raise ParseError("model JSON must be an object")
    order = obj.get("order")
    ops = obj.get("ops")
    if not _is_int(order) or not isinstance(ops, dict) or not ops:
        raise ParseError("model JSON needs integer `order` and non-empty `ops`")
    tables = [_json_table(entry) for entry in ops.values()]
    for t in tables[:2]:
        if t.order != order:
            raise ParseError("operation order does not match the header order")
    constants = obj.get("constants", {})
    if not isinstance(constants, dict):
        raise ParseError("`constants` must be an object")
    consts = {}
    for key in ("zero", "one", "zerom"):
        if key in constants:
            if not _is_int(constants[key]):
                raise ParseError(f"constant `{key}` must be an integer")
            consts[key] = constants[key]
    action = obj.get("action")
    shape = None
    rows = None
    if action is not None:
        table = action.get("table") if isinstance(action, dict) else None
        if not isinstance(table, list) or not table:
            raise ParseError("`action` must carry a non-empty `table`")
        for r in table:
            if not isinstance(r, list) or len(r) != len(table[0]) or any(
                not _is_int(v) for v in r
            ):
                raise ParseError("action rows must be equal-length integer lists")
        rows = [tuple(r) for r in table]
        shape = (len(rows), len(rows[0]))
    return _assemble(order, tables, consts, shape, rows, 0)
