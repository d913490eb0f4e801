"""Exhaustive property sweeps with brute-force oracles.

Every documented law of the package is registered here under a stable name
with a default size bound, sweepable via :func:`verify`; reports list the
counterexamples (with evaluation traces) in deterministic enumeration
order.  Oracles deliberately avoid the code paths they check: the collapse
oracle maximizes over an explicit enumeration, the closure oracle
minimizes over special partitions, and the Jordan-type oracle ranks powers
of an actual nilpotent matrix by exact integer elimination.

A property is a *domain*, a generator of case tuples up to the bound, plus
a *check*, which returns a failure record or None for one case; the
``_register`` decorator files the pair as a :class:`PropertySpec`, and
:func:`verify` runs every check.  Every sized domain comes from one
builder, ``_domain``: it walks size tuples, one size per factor of that
factor's parity, as a product of size ranges filtered by a bound on the
total, and yields the product of the factors' cases.  Only the
rectangle, shape, chain and wavefront domains are walked otherwise.  The
chain and the wavefront have a *walk* as well: each case of their domain,
a pair of Jordan types (see :func:`_jordan_pairs`) or one Jordan type
(see :func:`_wavefront`), starts with the number of splits or shapes it
stands for, as :func:`orbitcalc.aparams.jordan_type_counts` counts them;
only when some case fails does :func:`verify` sweep the walk, which takes
the splits or shapes one at a time.

Many cases of one sweep share their arguments, so six pure calls are
memoised for one sweep: the primitives ``transpose``, ``union``, ``add``
and ``orbit_dim``, and the oracles ``brute_force_min_special_above`` and
``jordan_type_oracle``.  When a sweep starts, :func:`verify` binds each of
these module names to an ``lru_cache`` of what the name holds then, and
binds the plain objects back when the sweep ends, also on an exception.
So outside ``verify`` each name is the plain function and keeps nothing,
a stand-in put at a name is memoised like the function it replaces, and
the library modules keep no such cache.
"""

from __future__ import annotations

import time
from functools import lru_cache
from itertools import chain, groupby, product, repeat
from math import gcd
from typing import Callable, Iterable, Iterator, NamedTuple

from .aparams import (
    AParameterShape,
    SelfDualType,
    factor_shapes,
    jordan_type,
    jordan_type_counts,
    npsi_partition,
    pair_type_of,
    shapes_for,
    split_sides,
    split_vectors,
)
from .duality import dual_partition, lie_algebra_dim, orbit_dim
from .partitions import (
    GroupType,
    Partition,
    add,
    check_input_size,
    classify,
    collapse,
    dominance_leq,
    enumerate_partitions,
    partitions_of,
    transpose,
    union,
)
from .symbols import (
    Symbol,
    _padded_sum,
    bipartition_leq,
    family_key,
    is_special_symbol,
    normalize_symbol,
    partition_of_special_symbol,
    special_closure,
    specialize_sum,
    springer_bipartition,
    symbol_of,
)
from .waldspurger import PairType, waldspurger, xi_vector

MAX_RECORDED_FAILURES = 25


class VerificationReport(NamedTuple):
    property: str
    bound: int
    cases_checked: int
    failures: list[dict]
    wall_time: float
    info: dict

    @property
    def ok(self) -> bool:
        return not self.failures and self.info.get("failure_count", 0) == 0

    def to_dict(self) -> dict:
        return {
            "property": self.property,
            "bound": self.bound,
            "cases_checked": self.cases_checked,
            "failures": self.failures,
            "info": self.info,
            "wall_time": round(self.wall_time, 6),
        }


# ---------------------------------------------------------------------------
# Shared enumerations


@lru_cache(maxsize=None)
def member_list(d: int, t: GroupType) -> tuple[Partition, ...]:
    return tuple(enumerate_partitions(d, t))


@lru_cache(maxsize=None)
def special_list(d: int, t: GroupType) -> tuple[Partition, ...]:
    return tuple(enumerate_partitions(d, t, special_only=True))


def _comparable(lams: tuple[Partition, ...]) -> Iterator[tuple[Partition, Partition]]:
    """Pairs (x, y) of ``lams`` with x <= y in dominance.  ``lams`` is in
    decreasing lexicographic order, which dominance implies, so y is only
    looked for among x and the partitions before it."""
    return (
        (x, y) for i, x in enumerate(lams) for y in lams[:i + 1]
        if dominance_leq(x, y)
    )


@lru_cache(maxsize=None)
def comparable_special_pairs(
    d: int, t: GroupType
) -> tuple[tuple[Partition, Partition], ...]:
    return tuple(_comparable(special_list(d, t)))


# ---------------------------------------------------------------------------
# Brute-force oracles


def _greatest(
    elements: list[Partition], leq: Callable[[Partition, Partition], bool]
) -> Partition | None:
    """The greatest element of ``elements`` under the partial order ``leq``,
    or None when there is none.  In a finite poset a unique maximal element
    is the greatest one, so one scan finds the only candidate (each element
    that lies above the current one replaces it) and a second checks that
    every other element lies below it."""
    if not elements:
        return None
    top = elements[0]
    for mu in elements[1:]:
        if leq(top, mu):
            top = mu
    return top if all(leq(mu, top) for mu in elements if mu is not top) else None


def brute_force_collapse(lam: Partition, t: GroupType) -> Partition:
    """Maximum of the type-t partitions dominated by ``lam``, by explicit
    enumeration: the greatest element of that set under dominance, which
    exists exactly when it has a unique maximal element; validates
    :func:`orbitcalc.partitions.collapse`."""
    below = [mu for mu in member_list(lam.size, t) if dominance_leq(mu, lam)]
    top = _greatest(below, dominance_leq)
    if top is None:
        raise RuntimeError(f"no unique maximum below {lam} for type {t}")
    return top


def brute_force_min_special_above(lam: Partition, t: GroupType) -> Partition:
    """Minimum special type-t partition dominating ``lam``: the least
    element of that set under dominance, which exists exactly when it has a
    unique minimal element."""
    above = [mu for mu in special_list(lam.size, t) if dominance_leq(lam, mu)]
    bottom = _greatest(above, lambda x, y: dominance_leq(y, x))
    if bottom is None:
        raise RuntimeError(f"no unique special minimum above {lam} for type {t}")
    return bottom


def _combine(terms: Iterable[tuple[int, dict[int, int]]]) -> dict[int, int]:
    """Integer combination sum(coeff * row) of sparse rows {column: entry},
    without zero entries."""
    out: dict[int, int] = {}
    for coeff, row in terms:
        for c, v in row.items():
            out[c] = out.get(c, 0) + coeff * v
    return {c: v for c, v in out.items() if v}


def _rank(rows: list[dict[int, int]]) -> int:
    """Rank of an integer matrix given as sparse rows, by exact fraction-free
    elimination: each row is reduced against the kept rows by its leading
    column until it vanishes or leads a column no kept row leads."""
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        row = _combine([(1, row)])
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = row
                break
            row = _combine([(pivot[lead], row), (-row[lead], pivot)])
            g = gcd(*row.values())
            row = {c: v // g for c, v in row.items()}
    return len(pivots)


def jordan_type_oracle(blocks: tuple[tuple[int, int], ...]) -> Partition:
    """Jordan type of a block-diagonal nilpotent matrix, from the ranks of
    its powers; ``blocks`` lists (copies, block_size), as a tuple so that a
    sweep can memoise it."""
    mat: list[dict[int, int]] = []
    for copies, s in blocks:
        for _ in range(copies):
            pos = len(mat)
            mat.extend({pos + i + 1: 1} for i in range(s - 1))
            mat.append({})
    ranks = [len(mat)]
    power = mat
    while ranks[-1] > 0:
        ranks.append(_rank(power))
        power = [_combine((v, mat[c]) for c, v in row.items()) for row in power]
    cols = [ranks[i] - ranks[i + 1] for i in range(len(ranks) - 1)]
    return transpose(Partition(cols))


# ---------------------------------------------------------------------------
# Registry

_Domain = Callable[[int], Iterable[tuple]]


class PropertySpec(NamedTuple):
    """A registered law: :func:`verify` calls ``check(info, *case)`` on
    every case of ``domain(bound)``; the check may bump the ``counters``,
    which start at 0 in ``info``, and returns a failure record or None.
    With a ``walk``, each case of the domain starts with the number of
    cases it stands for, and ``cases_checked`` adds that number instead of
    1; if any fails, the sweep is run again over ``walk(bound)``, whose
    cases each start with 1 and give the report alone."""

    name: str
    default_bound: int
    domain: _Domain
    check: Callable[..., dict | None]
    description: str
    counters: tuple[str, ...]
    walk: _Domain | None = None


PROPERTIES: dict[str, PropertySpec] = {}


def _register(
    name: str, default_bound: int, domain: _Domain, description: str,
    counters: tuple[str, ...] = (), walk: _Domain | None = None,
) -> Callable[[Callable], Callable]:
    """Decorator registering its check as the property ``name``."""

    def register(check: Callable[..., dict | None]) -> Callable:
        PROPERTIES[name] = PropertySpec(
            name, default_bound, domain, check, description, counters, walk
        )
        return check

    return register


def _record(keys: str, *values: object) -> dict:
    """Failure record mapping the space-separated ``keys`` to the printed
    ``values``."""
    return dict(zip(keys.split(), map(str, values)))


# ---------------------------------------------------------------------------
# Domains


def _sizes(types: tuple, bound: int) -> Iterator[tuple[int, ...]]:
    """Size tuples, one size per entry of ``types`` and of sum at most
    ``bound``, in lexicographic order: the product of one size range per
    type, filtered by the sum.  A size for a type has that type's parity,
    and a size for None is any size."""
    ranges = [range(bound + 1) if t is None else range(t.size_parity, bound + 1, 2)
              for t in types]
    return (sizes for sizes in product(*ranges) if sum(sizes) <= bound)


# (head, types) pairs: a type domain heads its cases with the type and
# takes one size of it, a pair domain with the pair and one size per factor
# type; ((), (None,) * k) takes k sizes of untyped partitions.
_Kinds = list[tuple[tuple, tuple[GroupType | None, ...]]]
_BY_TYPE: _Kinds = [((t,), (t,)) for t in GroupType]
_BY_PAIR: _Kinds = [((pair,), pair.factor_types) for pair in PairType]


def _domain(cases: Callable[..., Iterable[tuple]], kinds: _Kinds) -> _Domain:
    """The one builder of sized domains: for each (head, types) of
    ``kinds`` and each size tuple of :func:`_sizes`, it yields the head
    followed by one case of ``cases(d, t)`` per size d of type t, over
    their product; ``zip(xs)`` turns a list into one-element cases.  A walk
    calls ``cases`` once per (d, t).  It keeps the result until the walk
    ends only for kinds of two or more factors: with one factor, no other
    size tuple uses the same (d, t)."""

    def domain(bound: int) -> Iterator[tuple]:
        factors: dict[tuple[int, GroupType | None], tuple] = {}
        for head, types in kinds:
            for sizes in _sizes(types, bound):
                lists = []
                for key in zip(sizes, types):
                    found = factors.get(key)
                    if found is None:
                        found = tuple(cases(*key))
                        if len(types) > 1:
                            factors[key] = found
                    lists.append(found)
                for parts in product(*lists):
                    yield sum(parts, head)

    return domain


def _partitions(d: int, _) -> Iterator[tuple[Partition]]:
    return zip(partitions_of(d))


def _specials(d: int, t: GroupType) -> Iterator[tuple[Partition]]:
    return zip(special_list(d, t))


def _dominated_pairs(d: int, _) -> list[tuple[Partition, Partition]]:
    """(lambda, mu) with mu <= lambda, mu looked for only from lambda on,
    as in :func:`_comparable`."""
    lams = partitions_of(d)
    return [
        (x, y) for i, x in enumerate(lams) for y in lams[i:]
        if dominance_leq(y, x)
    ]


def _members_then_comparable(d: int, t: GroupType) -> Iterator[tuple]:
    """Every member with None, then every comparable pair of members."""
    members = member_list(d, t)
    return chain(zip(members, repeat(None)), _comparable(members))


def _rectangles(bound: int) -> Iterator[tuple[int, int, int]]:
    """(height, a1, a2), all odd, with height * (a1 + a2) - 1 <= bound."""
    odd = range(1, bound + 2, 2)
    for height, a1, a2 in product(odd, repeat=3):
        if height * (a1 + a2) - 1 <= bound:
            yield height, a1, a2


def _ranks(target: GroupType, bound: int) -> range:
    """The nonzero ranks of the target whose dual group's standard module
    has dimension at most ``bound``."""
    return range(1, (bound - target.dual.size_parity) // 2 + 1)


def _shapes(bound: int) -> Iterator[tuple[AParameterShape]]:
    """(shape,) for every shape of every target of :func:`_ranks`."""
    for target in GroupType:
        for rank in _ranks(target, bound):
            yield from zip(shapes_for(target, rank))


def _jordan_pairs(bound: int) -> Iterator[tuple]:
    """(cases, target, J1, J2) for every target and every pair of nonempty
    Jordan types of its two endoscopic factors with |J1| + |J2| <= bound.
    A chain case, a proper split of a shape, is a pair of factor shapes
    whose sum is the shape, ordered for (C,D) and unordered for (B,B) and
    (D,D).  So with N1 and N2 the factor shapes of Jordan types J1 and J2
    (:func:`jordan_type_counts`), the entry stands for N1 * N2 cases, or
    N1 * (N1 + 1) / 2 for an unordered pair with J1 = J2."""
    for target in GroupType:
        t1, t2 = pair_type_of(target).factor_types
        # by increasing size, up to the largest beside a nonempty factor;
        # one list for both sides of (B,B) and (D,D)
        sides = {
            t: [(lam, n) for rank in range((bound - t.dual.size_parity + 1) // 2)
                for lam, n in jordan_type_counts(t, rank).items() if lam]
            for t in dict.fromkeys((t1, t2))
        }
        side1, side2 = sides[t1], sides[t2]
        for i, (lam1, n1) in enumerate(side1):
            for lam2, n2 in side2[i:] if t1 is t2 else side2:
                if lam1.size + lam2.size > bound:
                    break
                cases = n1 * (n1 + 1) // 2 if lam1 == lam2 else n1 * n2
                yield cases, target, lam1, lam2


def _chain_splits(bound: int) -> Iterator[tuple]:
    """The chain's cases one at a time: (1, target, J1, J2, (shape, side1,
    side2)) for each proper split of each shape of :func:`_shapes`, in the
    order of :func:`split_vectors`, with the sides in factor order."""
    for (shape,) in _shapes(bound):
        kinds, counts = zip(*((k, len(list(r))) for k, r in groupby(shape.summands)))
        for vector, plus_first in split_vectors(shape.target, shape.m, kinds, counts):
            sides = split_sides(kinds, counts, vector, plus_first)
            yield 1, shape.target, *map(jordan_type, sides), (shape, *sides)


def _wavefront_walk(bound: int) -> Iterator[tuple]:
    """(1, target, J, shape) for each shape of :func:`_shapes`, with J its
    :func:`npsi_partition`."""
    for (shape,) in _shapes(bound):
        yield 1, shape.target, npsi_partition(shape), shape


def _wavefront(bound: int) -> Iterator[tuple]:
    """(cases, target, J) for each Jordan type J of the shapes of each
    target and rank of :func:`_ranks`, with the number of shapes of type J
    (:func:`jordan_type_counts`)."""
    for target in GroupType:
        for rank in _ranks(target, bound):
            for lam, cases in jordan_type_counts(target, rank).items():
                yield cases, target, lam


# ---------------------------------------------------------------------------
# Properties, in registry order


@_register("transpose_involution", 16, _domain(_partitions, [((), (None,))]),
           "transpose is an involution and matches its column-count definition")
def _check_transpose_involution(_, lam) -> dict | None:
    tr = transpose(lam)
    by_definition = tuple(
        sum(1 for p in lam if p >= j) for j in range(1, lam.part(1) + 1)
    )
    if transpose(tr) != lam or by_definition != tr:
        return _record("lambda transpose", lam, tr)


@_register("order_reversal", 12,
           _domain(lambda d, _: product(partitions_of(d), repeat=2),
                   [((), (None,))]),
           "dominance reverses under transposition")
def _check_order_reversal(_, lam, mu) -> dict | None:
    if dominance_leq(lam, mu) != dominance_leq(transpose(mu), transpose(lam)):
        return _record("lambda mu", lam, mu)


@_register("union_monotone", 10, _domain(_dominated_pairs, [((), (None,) * 2)]),
           "multiset union is monotone in both arguments")
def _check_union_monotone(_, l1, m1, l2, m2) -> dict | None:
    if not dominance_leq(union(m1, m2), union(l1, l2)):
        return _record("lambda1 lambda2 mu1 mu2", l1, l2, m1, m2)


@_register("transpose_union", 14, _domain(_partitions, [((), (None,) * 2)]),
           "transpose of a union is the sum of transposes")
def _check_transpose_union(_, l1, l2) -> dict | None:
    if transpose(union(l1, l2)) != add(transpose(l1), transpose(l2)):
        return _record("lambda1 lambda2", l1, l2)


@_register("add_union", 10, _domain(_partitions, [((), (None,) * 4)]),
           "sum of unions dominates union of sums")
def _check_add_union(_, l1, l2, m1, m2) -> dict | None:
    lhs = add(union(l1, l2), union(m1, m2))
    rhs = union(add(l1, m1), add(l2, m2))
    if not dominance_leq(rhs, lhs):
        return _record("lambda1 lambda2 mu1 mu2", l1, l2, m1, m2)


@_register("collapse_oracle", 12, _domain(_partitions, _BY_TYPE),
           "greedy collapse equals the brute-force dominance maximum")
def _check_collapse_oracle(_, t, lam) -> dict | None:
    fast = collapse(lam, t)
    slow = brute_force_collapse(lam, t)
    if fast != slow:
        return _record("type lambda collapse oracle", t, lam, fast, slow)


@_register("dd_special", 16, _domain(_members_then_comparable, _BY_TYPE),
           "duality laws: below double dual, equality iff special, special "
           "image, order reversing")
def _check_dd_special(_, t, lam, mu) -> dict | None:
    if mu is not None:
        if dominance_leq(dual_partition(mu, t), dual_partition(lam, t)):
            return None
        record = _record("type lambda mu", t, lam, mu)
        return {**record, "problems": ["dual not order-reversing"]}
    dual = dual_partition(lam, t)
    dd = dual_partition(dual, t.dual)
    problems = []
    if not dominance_leq(lam, dd):
        problems.append("lambda > d(d(lambda))")
    if (dd == lam) != classify(lam, t).special:
        problems.append("fixed-point/special mismatch")
    if not classify(dual, t.dual).special:
        problems.append("dual output not special")
    if problems:
        record = _record("type lambda dual double_dual", t, lam, dual, dd)
        return {**record, "problems": problems}


@_register("special_dd_agree", 16,
           _domain(lambda d, t: zip(member_list(d, t)), _BY_TYPE),
           "transpose specialness criterion matches double-dual fixed points")
def _check_special_dd_agree(_, t, lam) -> dict | None:
    fixed = dual_partition(dual_partition(lam, t), t.dual) == lam
    if classify(lam, t).special != fixed:
        return _record("type lambda", t, lam)


@_register("orbit_dim_antitone", 14,
           _domain(lambda d, t: _comparable(member_list(d, t)), _BY_TYPE),
           "orbit dimension respects the dominance order")
def _check_orbit_dim_antitone(_, t, lam, mu) -> dict | None:
    if orbit_dim(lam, t) > orbit_dim(mu, t):
        return _record("type lambda mu", t, lam, mu)


def _w_failure(l1: Partition, l2: Partition, pair: PairType, **extra) -> dict:
    record = _record("pair lambda1 lambda2", pair, l1, l2)
    xi = xi_vector(l1, l2, pair)
    record["xi"] = list(xi.entries)
    record["j_plus"] = list(xi.j_plus)
    record["j_minus"] = list(xi.j_minus)
    record.update(extra)
    return record


@_register("w_size", 16, _domain(_specials, _BY_PAIR),
           "transfer image is a partition of the expected size")
def _check_w_size(_, pair, l1, l2) -> dict | None:
    try:
        w = waldspurger(l1, l2, pair)
    except RuntimeError as exc:
        return {**_record("pair lambda1 lambda2", pair, l1, l2), "error": str(exc)}
    if w.size != pair.total_size(l1.size, l2.size):
        return _w_failure(l1, l2, pair, w=str(w))


@_register("prop_ws", 16, _domain(_specials, _BY_PAIR),
           "dual of the transfer image dominates the union of the duals")
def _check_prop_ws(_, pair, l1, l2) -> dict | None:
    t1, t2 = pair.factor_types
    w = waldspurger(l1, l2, pair)
    dw = dual_partition(w, pair.target)
    rhs = union(dual_partition(l1, t1), dual_partition(l2, t2))
    if not dominance_leq(rhs, dw):
        return _w_failure(l1, l2, pair, w=str(w), d_w=str(dw), union_duals=str(rhs))


@_register("dim_identity", 16, _domain(_specials, _BY_PAIR),
           "transfer image dimension identity (exact integers)")
def _check_dim_identity(_, pair, l1, l2) -> dict | None:
    t1, t2 = pair.factor_types
    w = waldspurger(l1, l2, pair)
    d = pair.total_size(l1.size, l2.size)
    expected = (
        orbit_dim(l1, t1)
        + orbit_dim(l2, t2)
        + lie_algebra_dim(pair.target, d)
        - lie_algebra_dim(t1, l1.size)
        - lie_algebra_dim(t2, l2.size)
    )
    got = orbit_dim(w, pair.target)
    if got != expected:
        return _w_failure(l1, l2, pair, w=str(w), dim=got, expected_dim=expected)


@_register("worder", 14, _domain(comparable_special_pairs, _BY_PAIR),
           "transfer map is monotone in both arguments")
def _check_worder(_, pair, x1, y1, x2, y2) -> dict | None:
    if not dominance_leq(waldspurger(x1, x2, pair), waldspurger(y1, y2, pair)):
        return {
            "pair": str(pair),
            "lower": [str(x1), str(x2)],
            "upper": [str(y1), str(y2)],
        }


@_register("rect_forms", 16, _rectangles,
           "closed forms for odd-height rectangle pairs of type (B,B)")
def _check_rect_forms(_, height, a1, a2) -> dict | None:
    l1 = Partition([a1] * height)
    l2 = Partition([a2] * height)
    w = waldspurger(l1, l2, PairType.BB)
    # the duals of odd-height rectangles; for height 1 the trailing zeros drop
    exp_d1 = Partition([height] * (a1 - 1) + [height - 1])
    exp_d2 = Partition([height] * (a2 - 1) + [height - 1])
    exp_dw = Partition([height] * (a1 + a2 - 2) + [height - 1, height - 1])
    checks = {
        "w": (w, Partition([a1 + a2] * (height - 1) + [a1 + a2 - 1])),
        "d_lambda1": (dual_partition(l1, GroupType.B), exp_d1),
        "d_lambda2": (dual_partition(l2, GroupType.B), exp_d2),
        "d_w": (dual_partition(w, GroupType.B), exp_dw),
        "union": (union(exp_d1, exp_d2), exp_dw),
    }
    bad = {
        name: (str(got), str(exp))
        for name, (got, exp) in checks.items()
        if got != exp
    }
    if bad:
        return {"height": height, "a1": a1, "a2": a2, "mismatches": bad}


@_register("achar", 14,
           _domain(lambda d, t: product(special_list(d, t), repeat=2), _BY_TYPE),
           "dominance of special partitions matches the bipartition order")
def _check_achar(_, t, lam, mu) -> dict | None:
    rho_lam = springer_bipartition(lam, t)
    rho_mu = springer_bipartition(mu, t)
    if dominance_leq(lam, mu) != bipartition_leq(rho_lam, rho_mu):
        return _record("type lambda mu rho_lambda rho_mu", t, lam, mu, rho_lam, rho_mu)


@_register("springer_roundtrip", 20, _domain(_specials, _BY_TYPE),
           "special partition -> bipartition (parity split) -> partition "
           "(block rule) round trip")
def _check_springer_roundtrip(_, t, lam) -> dict | None:
    rho = springer_bipartition(lam, t)
    back = partition_of_special_symbol(symbol_of(rho), t)
    if back != lam:
        return _record("type lambda rho back", t, lam, rho, back)


def family_special_symbol(s: Symbol) -> Symbol:
    """Unique special symbol in the family of ``s``: alternate the sorted
    entry multiset of the shift-minimal form across the two rows.  This is
    the oracle side of the closed-form specialization."""
    m = normalize_symbol(s)
    entries = sorted(m.top + m.bottom)
    if m.type_d:
        return Symbol(tuple(entries[1::2]), tuple(entries[0::2]), True)
    return Symbol(tuple(entries[0::2]), tuple(entries[1::2]))


@_register("specialize_family", 14, _domain(_specials, _BY_PAIR),
           "specialized sum is special and stays in the plain sum's family")
def _check_specialize_family(_, pair, l1, l2) -> dict | None:
    t1, t2 = pair.factor_types
    r1 = springer_bipartition(l1, t1)
    r2 = springer_bipartition(l2, t2)
    tilde = specialize_sum(r1, r2, pair)
    plain_symbol = symbol_of(_padded_sum(r1, r2))
    sym = symbol_of(tilde)
    if (
        not is_special_symbol(sym)
        or family_key(sym) != family_key(plain_symbol)
        or sym != family_special_symbol(plain_symbol)
    ):
        keys = "pair lambda1 lambda2 tilde plain_symbol"
        return _record(keys, pair, l1, l2, tilde, plain_symbol)


@_register("closure_oracle", 14, _domain(_specials, _BY_PAIR),
           "symbol-based closure equals the minimal special partition above "
           "the transfer image")
def _check_closure_oracle(_, pair, l1, l2) -> dict | None:
    t1, t2 = pair.factor_types
    w = waldspurger(l1, l2, pair)
    closure = special_closure(l1, l2, pair)
    oracle = brute_force_min_special_above(w, pair.target)
    if closure != oracle:
        rho = specialize_sum(
            springer_bipartition(l1, t1), springer_bipartition(l2, t2), pair
        )
        return _w_failure(
            l1, l2, pair, w=str(w), closure=str(closure), oracle=str(oracle),
            specialized=str(rho), symbol=str(symbol_of(rho)),
        )


@_register("cd_symmetry", 14, _domain(_specials, [((), PairType.CD.factor_types)]),
           "(C,D) specialization against the oracle, counting how often the "
           "mirrored case table would differ", ("asymmetric_cases",))
def _check_cd_symmetry(info, l1, l2) -> dict | None:
    C, CD = GroupType.C, PairType.CD
    r1 = springer_bipartition(l1, C)
    r2 = springer_bipartition(l2, GroupType.D)
    stated = special_closure(l1, l2, CD)
    try:
        sym = symbol_of(_padded_sum(r1, r2, "CD_mirrored"))
        special = is_special_symbol(sym)
        swapped = partition_of_special_symbol(sym, C) if special else None
    except ValueError:
        swapped = None
    if swapped != stated:
        info["asymmetric_cases"] += 1
    oracle = brute_force_min_special_above(waldspurger(l1, l2, CD), C)
    if stated != oracle:
        keys = "lambda1 lambda2 stated swapped oracle"
        return _record(keys, l1, l2, stated, swapped, oracle)


def _chain_outcome(target: GroupType, lam1: Partition, lam2: Partition) -> tuple:
    """(w, wf, dominated, dim_equal) of the chain cases of the target whose
    factors have Jordan types ``lam1`` and ``lam2``: w is the transfer of
    their duals, and wf, the dual of their union, the shape's wavefront."""
    pair = pair_type_of(target)
    t1, t2 = pair.factor_types
    w = waldspurger(dual_partition(lam1, t1.dual), dual_partition(lam2, t2.dual), pair)
    wf = dual_partition(union(lam1, lam2), target.dual)
    dominated = dominance_leq(w, wf)
    dim_equal = dominated and orbit_dim(w, target) == orbit_dim(wf, target)
    return w, wf, dominated, dim_equal


@_register("chain", 12, _jordan_pairs,
           "endoscopic wavefront chain: transfer of split wavefronts stays "
           "below the full wavefront", ("dim_equal_cases",), walk=_chain_splits)
def _check_chain(info, cases, target, lam1, lam2, split=None) -> dict | None:
    """``cases`` cases whose factors have Jordan types ``lam1`` and
    ``lam2``; a case of the split walk carries its ``split``, as (shape,
    side1, side2), for the failure record."""
    w, wf, dominated, dim_equal = _chain_outcome(target, lam1, lam2)
    if not dominated:
        if split is None:
            return {}  # the split walk gives the records
        shape, *sides = split
        factors = factor_shapes(pair_type_of(target), sides)
        return {"shape": str(shape), "split": [str(f) for f in factors],
                "w": str(w), "wavefront": str(wf)}
    if dim_equal:
        info["dim_equal_cases"] += cases


@_register("npsi_oracle", 10, _shapes,
           "shape nilpotent matches the matrix Jordan-type oracle")
def _check_npsi_oracle(_, shape) -> dict | None:
    # the block count is written out, not read from Summand.copies, so that
    # the oracle does not share the rule it checks
    blocks = tuple(
        (s.rho_dim * s.a * (2 if s.rho_type is SelfDualType.PAIR else 1), s.b)
        for s in shape.summands
    )
    if npsi_partition(shape) != jordan_type_oracle(blocks):
        return {"shape": str(shape)}


@_register("wavefront_special", 12, _wavefront,
           "predicted wavefronts are special; tempered shapes give the "
           "regular special orbit; shapes counted by Jordan type, the "
           "tempered clause read at the entry J = 1^m", walk=_wavefront_walk)
def _check_wavefront_special(_, cases, target, lam, shape=None) -> dict | None:
    """``cases`` shapes of the target of Jordan type ``lam``, whose
    predicted wavefront d(lam) must be special; if lam is the tempered type
    1^m, d(lam) must be the regular orbit of the target, written out here as
    (n) for B and C and (n-1, 1) for D, n the dimension of the target's
    standard module.  A case of the shape walk carries its ``shape`` for
    the failure record."""
    wf = dual_partition(lam, target.dual)
    problems = []
    if not classify(wf, target).special:
        problems.append("wavefront not special")
    if lam.part(1) <= 1:
        n = lam.size + target.size_parity - target.dual.size_parity
        regular = Partition([n - 1, 1] if target is GroupType.D else [n])
        if wf != regular:
            problems.append("tempered shape misses the regular dual")
    if problems:
        return {"shape": str(shape), "problems": problems}


# The module names that verify binds to a memo for the length of one sweep.
_SWEEP_MEMOISED = (
    "transpose", "union", "add", "orbit_dim",
    "brute_force_min_special_above", "jordan_type_oracle",
)


def verify(name: str, bound: int | None = None) -> VerificationReport:
    """Run one registered property sweep up to ``bound`` (default per
    property) and report the counterexamples.  For the sweep, each name of
    ``_SWEEP_MEMOISED`` is bound to an ``lru_cache`` of what it held when
    the sweep began; the plain objects are bound back when it ends, also
    when a check raises, so nothing memoised outlives the sweep.  A
    property with a walk whose domain gives any failure is swept again over
    its walk, from fresh counters, and that pass alone is reported.  A
    bound above :data:`~orbitcalc.partitions.MAX_INPUT_SIZE` is an input
    error, raised before any walk."""
    if name not in PROPERTIES:
        known = ", ".join(PROPERTIES)
        raise ValueError(f"unknown property {name!r}; known: {known}")
    spec = PROPERTIES[name]
    if bound is None:
        bound = spec.default_bound
    if bound < 0:
        raise ValueError("bound must be non-negative")
    check_input_size("bound", bound)
    start = time.perf_counter()

    def sweep(domain: _Domain) -> tuple[int, list[dict], dict]:
        info = dict.fromkeys(spec.counters, 0)
        cases, failures = 0, []
        for case in domain(bound):
            cases += 1 if spec.walk is None else case[0]
            failure = spec.check(info, *case)
            if failure is not None:
                failures.append(failure)
        return cases, failures, info

    plain = {key: globals()[key] for key in _SWEEP_MEMOISED}
    globals().update({key: lru_cache(maxsize=None)(fn) for key, fn in plain.items()})
    try:
        cases, failures, info = sweep(spec.domain)
        if failures and spec.walk is not None:
            cases, failures, info = sweep(spec.walk)
    finally:
        globals().update(plain)
    elapsed = time.perf_counter() - start
    info["failure_count"] = len(failures)
    return VerificationReport(
        property=name,
        bound=bound,
        cases_checked=cases,
        failures=failures[:MAX_RECORDED_FAILURES],
        wall_time=elapsed,
        info=info,
    )
