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
factor's parity, up to a bound on the total, and yields the product of
the factors' cases.  Only the rectangle, shape and split domains are
walked otherwise.

Many cases of one sweep share their arguments, so six pure calls are
memoised per sweep: the primitives ``transpose``, ``union``, ``add`` and
``orbit_dim``, rebound in this module by ``_per_sweep``, and the oracles
``brute_force_min_special_above`` and ``jordan_type_oracle``.  The memos
are on only while :func:`verify` runs a sweep, which empties them when it
ends, also on an exception; outside ``verify`` the six calls go straight
through and keep nothing, and the library modules keep no such cache.
"""

from __future__ import annotations

import time
from functools import lru_cache, wraps
from itertools import chain, product, repeat
from math import gcd
from operator import mul
from typing import Callable, Iterable, Iterator, NamedTuple

from .aparams import (
    AParameterShape,
    SelfDualType,
    expand_counts,
    factor_shapes,
    jordan_type,
    npsi_partition,
    pair_type_of,
    predicted_wavefront,
    shape_vectors,
    shapes_for,
    split_sides,
    split_vectors,
)
from .duality import dual_partition, lie_algebra_dim, orbit_dim
from .partitions import (
    GroupType,
    Partition,
    add,
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


# ---------------------------------------------------------------------------
# Per-sweep memo

# One dict per function wrapped by _per_sweep; verify empties them all
# when its sweep ends.
_SWEEP_MEMOS: list[dict] = []
_sweeping = False


def _per_sweep(fn: Callable) -> Callable:
    """``fn`` with a memo that lives for one sweep: while :func:`verify`
    runs, each distinct argument tuple is computed once; outside a sweep
    the wrapper calls ``fn`` straight through and keeps nothing.  ``fn``
    must be pure, take hashable arguments and never return None."""
    memo: dict = {}
    _SWEEP_MEMOS.append(memo)

    @wraps(fn)
    def memoized(*args):
        if not _sweeping:
            return fn(*args)
        found = memo.get(args)
        if found is None:
            found = memo[args] = fn(*args)
        return found

    return memoized


# Rebound here, not cached in their own modules, so that only the sweeps'
# calls are memoised.
transpose = _per_sweep(transpose)
union = _per_sweep(union)
add = _per_sweep(add)
orbit_dim = _per_sweep(orbit_dim)


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
    """Pairs (x, y) of ``lams`` with x <= y in dominance."""
    return ((x, y) for x in lams for y in lams if dominance_leq(x, y))


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


@_per_sweep
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


@_per_sweep
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
    which start at 0 in ``info``, and returns a failure record or None."""

    name: str
    default_bound: int
    domain: _Domain
    check: Callable[..., dict | None]
    description: str
    counters: tuple[str, ...]


PROPERTIES: dict[str, PropertySpec] = {}


def _register(
    name: str, default_bound: int, domain: _Domain, description: str,
    counters: tuple[str, ...] = (),
) -> Callable[[Callable], Callable]:
    """Decorator registering its check as the property ``name``."""

    def register(check: Callable[..., dict | None]) -> Callable:
        PROPERTIES[name] = PropertySpec(
            name, default_bound, domain, check, description, counters
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
    ``bound``, in lexicographic order; a size for a type has that type's
    parity, and a size for None is any size."""
    if not types:
        yield ()
        return
    t = types[0]
    start, step = (0, 1) if t is None else (t.size_parity, 2)
    for d in range(start, bound + 1, step):
        for rest in _sizes(types[1:], bound - d):
            yield (d, *rest)


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
    """(lambda, mu) with mu <= lambda."""
    lams = partitions_of(d)
    return [(x, y) for x in lams for y in lams if dominance_leq(y, x)]


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


def _shapes(bound: int) -> Iterator[tuple[AParameterShape]]:
    """(shape,) for every shape of every target whose dual group's standard
    module has dimension at most ``bound``."""
    for target in GroupType:
        for rank in range(1, (bound - target.dual.size_parity) // 2 + 1):
            yield from zip(shapes_for(target, rank))


def _splits(bound: int) -> Iterator[tuple]:
    """(table, key, target, kinds, counts, vector, plus_first) for every
    proper split of every shape of :func:`_shapes`: the shape as
    :func:`shape_vectors` walks it, the split as :func:`split_vectors`
    does; no shape is built per case.  The chain outcome depends only on
    the target and the Jordan types of the two sides (see
    :func:`_check_chain`), so it is kept in a ``table`` by side 1's key,
    one dict per target and Jordan type of the whole shape, made afresh
    for each sweep.  A Jordan type with n_b blocks of size b is written as
    the integer sum of n_b * B**b, B = bound + 1: no n_b and no b exceeds
    the dual module dimension, which is at most the bound, so each n_b is
    one digit in base B and two Jordan types get equal integers exactly
    when they are equal.  Kind i adds ``copies`` blocks of size b_i, so
    its count adds ``copies * B**b_i``; the whole shape's integer picks
    its table, and ``key`` is the + side's integer, or the whole's minus
    it when the - side comes first.  The split walk reads only the
    target, the parity of m and which kinds have odd weight, so within a
    target it is walked once per counts and odd-weight kinds."""
    base = bound + 1
    for target in GroupType:
        tables: dict = {}
        walks: dict = {}
        for rank in range(1, (bound - target.dual.size_parity) // 2 + 1):
            m = 2 * rank + target.dual.size_parity
            for kinds, counts in shape_vectors(target, rank):
                coeffs = [kind.copies * base**kind.b for kind in kinds]
                whole = sum(map(mul, counts, coeffs))
                table = tables.setdefault(whole, {})
                odd = tuple(kind.weight % 2 for kind in kinds)
                walk = walks.get((counts, odd))
                if walk is None:
                    walk = walks[counts, odd] = tuple(
                        split_vectors(target, m, kinds, counts)
                    )
                for vector, plus_first in walk:
                    key = sum(map(mul, vector, coeffs))
                    if not plus_first:
                        key = whole - key
                    yield table, key, target, kinds, counts, vector, plus_first


def _chain_case(
    table, key, target, kinds, counts, vector, plus_first
) -> tuple:
    """(shape, side1, side2) of a chain case of :func:`_splits`, with the
    shape built by ``AParameterShape._trusted`` and the two sides as
    summand tuples in factor order."""
    summands = expand_counts(kinds, counts)
    shape = AParameterShape._trusted(
        target, sum(s.weight for s in summands) // 2, summands
    )
    return (shape, *split_sides(kinds, counts, vector, plus_first))


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


@_register("chain", 12, _splits,
           "endoscopic wavefront chain: transfer of split wavefronts stays "
           "below the full wavefront", ("dim_equal_cases",))
def _check_chain(
    info, table, key, target, kinds, counts, vector, plus_first
) -> dict | None:
    """The outcome of a case, (w, wf, dominated, dim_equal), depends only
    on the target and the Jordan types of the two sides: w is the transfer
    of the duals of those Jordan types, and wf is the dual of their union.
    So it is computed once per ``key`` of its ``table`` (see
    :func:`_splits`), wf by :func:`predicted_wavefront` of the case's
    shape, so that the memo does not rest on the union identity.  The
    shape and the sides' summand tuples are built only when the key is new
    and for a failure record.  Every case still counts, and a failing case
    still gets its own record."""
    outcome = table.get(key)
    if outcome is None:
        shape, side1, side2 = _chain_case(
            table, key, target, kinds, counts, vector, plus_first
        )
        pair = pair_type_of(target)
        t1, t2 = pair.factor_types
        wf1 = dual_partition(jordan_type(side1), t1.dual)
        wf2 = dual_partition(jordan_type(side2), t2.dual)
        w = waldspurger(wf1, wf2, pair)
        wf = predicted_wavefront(shape)
        dominated = dominance_leq(w, wf)
        dim_equal = dominated and orbit_dim(w, target) == orbit_dim(wf, target)
        outcome = table[key] = w, wf, dominated, dim_equal
    w, wf, dominated, dim_equal = outcome
    if not dominated:
        shape, side1, side2 = _chain_case(
            table, key, target, kinds, counts, vector, plus_first
        )
        split = factor_shapes(pair_type_of(target), (side1, side2))
        return {
            "shape": str(shape),
            "split": [str(f) for f in split],
            "w": str(w),
            "wavefront": str(wf),
        }
    if dim_equal:
        info["dim_equal_cases"] += 1


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


@_register("wavefront_special", 12, _shapes,
           "predicted wavefronts are special; tempered shapes give the "
           "regular special orbit")
def _check_wavefront_special(_, shape) -> dict | None:
    wf = predicted_wavefront(shape)
    problems = []
    if not classify(wf, shape.target).special:
        problems.append("wavefront not special")
    if all(s.b == 1 for s in shape.summands):
        regular = dual_partition(Partition([1] * shape.m), shape.target.dual)
        if wf != regular:
            problems.append("tempered shape misses the regular dual")
    if problems:
        return {"shape": str(shape), "problems": problems}


def verify(name: str, bound: int | None = None) -> VerificationReport:
    """Run one registered property sweep up to ``bound`` (default per
    property) and report the counterexamples.  The sweep's memos (see
    :func:`_per_sweep`) are on only while it runs and are emptied when it
    ends, also when a check raises."""
    global _sweeping
    if name not in PROPERTIES:
        known = ", ".join(PROPERTIES)
        raise ValueError(f"unknown property {name!r}; known: {known}")
    spec = PROPERTIES[name]
    if bound is None:
        bound = spec.default_bound
    if bound < 0:
        raise ValueError("bound must be non-negative")
    start = time.perf_counter()
    info = dict.fromkeys(spec.counters, 0)
    cases, failures = 0, []
    _sweeping = True
    try:
        for case in spec.domain(bound):
            cases += 1
            failure = spec.check(info, *case)
            if failure is not None:
                failures.append(failure)
    finally:
        _sweeping = False
        for memo in _SWEEP_MEMOS:
            memo.clear()
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
