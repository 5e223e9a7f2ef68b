"""Naive set-based reference implementations used to cross-check the package.

Everything here works on tables represented as list-of-list-of-frozenset and
expands quantifiers with plain loops; nothing is shared with the bitmask
implementations under test.  The exceptions are `dorroh_probe`, which is
built on the public pair-level Dorroh arithmetic that the probe's `(k, mask)`
kernel replaces, and the brute-force canonical forms, which build every
relabeled table with `apply_permutation` and compare tuples of `cell_key`s.
"""

import functools
from itertools import permutations, product

from hyperlab.model import TwoOpModel, apply_permutation, cell_key


def from_table(table):
    n = table.order
    return [
        [frozenset(i for i in range(n) if table.cell(x, y) >> i & 1) for y in range(n)]
        for x in range(n)
    ]


def from_mask(mask):
    return frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)


def cp_sets(rows, a_set, b_set):
    out = set()
    for a in a_set:
        for b in b_set:
            out |= rows[a][b]
    return frozenset(out)


def right_div(rows, x, y):
    return frozenset(z for z in range(len(rows)) if x in rows[z][y])


def left_div(rows, y, x):
    return frozenset(z for z in range(len(rows)) if x in rows[y][z])


def assoc_sides(rows, x, y, z):
    return cp_sets(rows, rows[x][y], {z}), cp_sets(rows, {x}, rows[y][z])


def lia_sides(rows, x, y, z):
    return cp_sets(rows, rows[x][y], {z}), cp_sets(rows, rows[z][y], {x})


def ria_sides(rows, x, y, z):
    return cp_sets(rows, {x}, rows[y][z]), cp_sets(rows, {z}, rows[y][x])


def law_holds(rows, law):
    n = len(rows)
    carrier = frozenset(range(n))
    if law == "associative":
        return all(a == b for x, y, z in product(range(n), repeat=3)
                   for a, b in [assoc_sides(rows, x, y, z)])
    if law == "weakly-associative":
        return all(a & b for x, y, z in product(range(n), repeat=3)
                   for a, b in [assoc_sides(rows, x, y, z)])
    if law == "left-inverted-associative":
        return all(a == b for x, y, z in product(range(n), repeat=3)
                   for a, b in [lia_sides(rows, x, y, z)])
    if law == "right-inverted-associative":
        return all(a == b for x, y, z in product(range(n), repeat=3)
                   for a, b in [ria_sides(rows, x, y, z)])
    if law == "reproductive":
        return all(
            cp_sets(rows, carrier, {x}) == carrier
            and cp_sets(rows, {x}, carrier) == carrier
            for x in range(n)
        )
    if law == "commutative":
        return all(rows[x][y] == rows[y][x] for x, y in product(range(n), repeat=2))
    if law == "cellwise-nonempty":
        return all(rows[x][y] for x, y in product(range(n), repeat=2))
    if law == "total":
        return all(rows[x][y] == carrier for x, y in product(range(n), repeat=2))
    if law == "degenerate":
        return all(not rows[x][y] for x, y in product(range(n), repeat=2))
    raise ValueError(law)


def identity_at(rows, e):
    n = len(rows)
    return all(rows[e][x] == rows[x][e] and x in rows[e][x] for x in range(n))


def symmetric_set(rows, e, x, weak=False):
    n = len(rows)
    if weak:
        return frozenset(
            xp for xp in range(n) if e in rows[x][xp] and e in rows[xp][x]
        )
    return frozenset(
        xp for xp in range(n) if rows[x][xp] == {e} and rows[xp][x] == {e}
    )


def polysymmetric_at(rows, e, weak=False):
    return all(symmetric_set(rows, e, x, weak) for x in range(len(rows)))


def reversibility_poly(rows, e, weak=False):
    n = len(rows)
    sym = [symmetric_set(rows, e, v, weak) for v in range(n)]
    for x, y in product(range(n), repeat=2):
        for z in rows[x][y]:
            for xp in sym[x]:
                for yp in sym[y]:
                    if not sym[z] <= rows[yp][xp]:
                        return False
    return True


def opposites(rows, zero):
    n = len(rows)
    opp = []
    for x in range(n):
        cands = [xp for xp in range(n) if zero in rows[x][xp]]
        if len(cands) != 1:
            return None
        opp.append(cands[0])
    return opp


def reversibility_canonical(rows, zero):
    opp = opposites(rows, zero)
    assert opp is not None
    n = len(rows)
    for x, y in product(range(n), repeat=2):
        for z in rows[x][y]:
            if x not in rows[z][opp[y]]:
                return False
    return True


def opposite_additivity(rows, zero):
    opp = opposites(rows, zero)
    assert opp is not None
    n = len(rows)
    for z, w in product(range(n), repeat=2):
        if frozenset(opp[t] for t in rows[z][w]) != rows[opp[z]][opp[w]]:
            return False
    return True


def scalar_zero(rows, zero):
    return all(
        rows[x][zero] == {x} and rows[zero][x] == {x} for x in range(len(rows))
    )


def is_abelian_group(rows, zero):
    n = len(rows)
    if any(len(rows[x][y]) != 1 for x, y in product(range(n), repeat=2)):
        return False
    if not law_holds(rows, "associative") or not law_holds(rows, "commutative"):
        return False
    if not scalar_zero(rows, zero):
        return False
    return all(any(rows[x][y] == {zero} for y in range(n)) for x in range(n))


def distributive(add_rows, mul_rows, inclusion=False):
    n = len(add_rows)
    for a, b, c in product(range(n), repeat=3):
        lhs = cp_sets(mul_rows, {a}, add_rows[b][c])
        rhs = cp_sets(add_rows, mul_rows[a][b], mul_rows[a][c])
        if (lhs <= rhs) if inclusion else (lhs == rhs):
            pass
        else:
            return False
        lhs = cp_sets(mul_rows, add_rows[b][c], {a})
        rhs = cp_sets(add_rows, mul_rows[b][a], mul_rows[c][a])
        if (lhs <= rhs) if inclusion else (lhs == rhs):
            pass
        else:
            return False
    return True


def sign_rule(add_rows, mul_rows, zero):
    n = len(add_rows)
    neg = [next(y for y in range(n) if add_rows[x][y] == {zero}) for x in range(n)]
    for a, b in product(range(n), repeat=2):
        neg_ab = frozenset(neg[t] for t in mul_rows[a][b])
        if mul_rows[a][neg[b]] != neg_ab or mul_rows[neg[a]][b] != neg_ab:
            return False
    return True


def dorroh_probe(model, radius, base_name="base"):
    """Pair-level reference for `dorroh.associativity_probe`: its report JSON,
    wall time aside, from `dorroh_add`, `dorroh_mul` and `scaled_sum` on sets
    of `DorrohPair`s.  Calls are cached, as each one re-checks the base."""
    from hyperlab.dorroh import DorrohPair, dorroh_add, dorroh_mul, scaled_sum

    add = functools.cache(functools.partial(dorroh_add, model))
    mul = functools.cache(functools.partial(dorroh_mul, model))
    scaled = functools.cache(lambda k, y: from_mask(scaled_sum(model, k, y)))
    add_rows, mul_rows = from_table(model.add), from_table(model.mul)

    def prod(x, y):
        (v,) = mul_rows[x][y]
        return v

    def superset(p, q, r):
        (n, x), (m, y), (k, z) = (p.k, p.x), (q.k, q.x), (r.k, r.x)
        xy = prod(x, y)
        terms = [scaled(n * m, z), scaled(k * n, y), scaled(k * m, x), scaled(k, xy),
                 scaled(n, prod(y, z)), scaled(m, prod(x, z)), {prod(xy, z)}]
        out = terms[0]
        for t in terms[1:]:
            out = cp_sets(add_rows, out, t)
        return {DorrohPair(n * m * k, v) for v in out}

    def window(rad):
        return [DorrohPair(k, x) for k in range(-rad, rad + 1) for x in range(model.order)]

    pairs = window(radius)
    equal = weak = 0
    included, first = True, None
    for p, q, r in product(pairs, repeat=3):
        left = {t for s in mul(p, q) for t in mul(s, r)}
        right = {t for s in mul(q, r) for t in mul(p, s)}
        sup = superset(p, q, r)
        equal += left == right
        weak += bool(left & right)
        included = included and left <= sup and right <= sup
        if left != right and first is None:
            first = {
                "triple": [p.to_json(), q.to_json(), r.to_json()],
                "left": [s.to_json() for s in sorted(left)],
                "right": [s.to_json() for s in sorted(right)],
            }

    zero = DorrohPair(0, model.zero)
    small = window(min(radius, 2))
    opp = opposites(add_rows, model.zero)
    canonical = all(
        add(zero, p) == (p,) and add(p, zero) == (p,)
        and zero in add(p, DorrohPair(-p.k, opp[p.x]))
        for p in small
    ) and all(
        add(p, q) == add(q, p)
        and {t for s in add(p, q) for t in add(s, r)} == {t for s in add(q, r) for t in add(p, s)}
        for p, q, r in product(small, repeat=3)
    )
    return {
        "base": base_name,
        "radius": radius,
        "triples_checked": len(pairs) ** 3,
        "assoc_equal_count": equal,
        "weak_assoc_ok_count": weak,
        "inclusion_ok": included,
        "canonical_window_ok": canonical,
        "first_assoc_violation": first,
    }


def triple_watch(law, triples, n, cur):
    """The reference triple-law watcher verdict on the partial cell list
    `cur` (None = unset) over `triples`, one `outer_union` per side: False
    only when some triple is violated by every completion of `cur`."""

    def outer_union(cur, outer_pos, col, transpose):
        m = cur[outer_pos]
        if m is None:
            return 0, False
        known, complete = 0, True
        i = 0
        while m:
            if m & 1:
                c = cur[i * n + col] if not transpose else cur[col * n + i]
                if c is None:
                    complete = False
                else:
                    known |= c
            m >>= 1
            i += 1
        return known, complete

    weak = law == "weakly-associative"

    for x, y, z in triples:
        if law in ("associative", "weakly-associative"):
            la, ca = outer_union(cur, x * n + y, z, False)
            lb, cb = outer_union(cur, y * n + z, x, True)
        elif law == "left-inverted-associative":
            la, ca = outer_union(cur, x * n + y, z, False)
            lb, cb = outer_union(cur, z * n + y, x, False)
        else:
            la, ca = outer_union(cur, y * n + z, x, True)
            lb, cb = outer_union(cur, y * n + x, z, True)
        if weak:
            if la & lb:
                continue
            if (ca and cb) or (ca and not la) or (cb and not lb):
                return False
            continue
        if ca and cb:
            if la != lb:
                return False
        elif ca:
            if lb & ~la:
                return False
        elif cb:
            if la & ~lb:
                return False
    return True


def partial_rows(cur, n):
    """The partial cell list `cur` (None = unset) as rows of frozensets, with
    None for an unset cell."""
    return [
        [None if cur[x * n + y] is None else from_mask(cur[x * n + y]) for y in range(n)]
        for x in range(n)
    ]


def _lines(rows):
    return [list(row) for row in rows] + [list(col) for col in zip(*rows)]


def reproductive_fails(rows):
    """Some complete row or column has a union that is not the carrier."""
    carrier = frozenset(range(len(rows)))
    return any(
        None not in line and frozenset().union(*line) != carrier for line in _lines(rows)
    )


def opposite_fails(rows, z):
    """Some row has two set cells that contain z, or a complete row has none."""
    for row in rows:
        hits = sum(1 for cell in row if cell is not None and z in cell)
        if hits > 1 or (None not in row and hits == 0):
            return True
    return False


def polysymmetry_fails(rows, e, weak=False):
    """Some x has no x' whose set cells among x*x' and x'*x are all {e} (all
    contain e when weak)."""
    n = len(rows)

    def fits(cell):
        return cell is None or (e in cell if weak else cell == {e})

    return any(
        not any(fits(rows[x][xp]) and fits(rows[xp][x]) for xp in range(n)) for x in range(n)
    )


def inclusion_fails(add_rows, rows):
    """A triple whose cells are all set breaks a(b+c) <= ab+ac or
    (b+c)a <= ba+ca, or a row or column holds both an empty and a non-empty
    set cell."""
    n = len(rows)
    for a, b, c in product(range(n), repeat=3):
        left = [rows[a][d] for d in add_rows[b][c]] + [rows[a][b], rows[a][c]]
        if None not in left and not (
            cp_sets(rows, {a}, add_rows[b][c]) <= cp_sets(add_rows, rows[a][b], rows[a][c])
        ):
            return True
        right = [rows[d][a] for d in add_rows[b][c]] + [rows[b][a], rows[c][a]]
        if None not in right and not (
            cp_sets(rows, add_rows[b][c], {a}) <= cp_sets(add_rows, rows[b][a], rows[c][a])
        ):
            return True
    for line in _lines(rows):
        cells = [cell for cell in line if cell is not None]
        if frozenset() in cells and any(cells):
            return True
    return False


def cell_key_table_key(table):
    """A table's comparison key as the tuple of its cells' `cell_key`s."""
    return tuple(cell_key(c) for c in table.cells)


def _permutations_fixing(order, fixed):
    return [p for p in permutations(range(order)) if all(p[i] == i for i in fixed)]


def canonical_form(table, fixed=()):
    """Least relabeling over the permutations fixing the pins, one relabeled
    table and one tuple-of-`cell_key`s key per permutation."""
    best, best_key = table, cell_key_table_key(table)
    for perm in _permutations_fixing(table.order, set(fixed)):
        cand = apply_permutation(table, perm)
        k = cell_key_table_key(cand)
        if k < best_key:
            best, best_key = cand, k
    return best


def canonical_form_two_op(model):
    """Least joint relabeling of both tables; zero (and one) stay pinned."""
    fixed = {model.zero} if model.one is None else {model.zero, model.one}
    best = model
    best_key = (cell_key_table_key(model.add), cell_key_table_key(model.mul))
    for perm in _permutations_fixing(model.order, fixed):
        cand = TwoOpModel(
            model.order,
            apply_permutation(model.add, perm),
            apply_permutation(model.mul, perm),
            model.zero,
            model.one,
        )
        k = (cell_key_table_key(cand.add), cell_key_table_key(cand.mul))
        if k < best_key:
            best, best_key = cand, k
    return best
