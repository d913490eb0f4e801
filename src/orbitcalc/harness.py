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
``_register`` decorator on the check makes the registry entry, whose
runner :func:`_sweep` builds from the pair.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, product, repeat
from math import gcd
from typing import Callable, Iterable, Iterator

from .aparams import (
    AParameterShape,
    SelfDualType,
    factor_shapes,
    jordan_type,
    npsi_partition,
    pair_type_of,
    predicted_wavefront,
    proper_splits,
    shapes_for,
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
    Bipartition,
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


@dataclass
class VerificationReport:
    property: str
    bound: int
    cases_checked: int
    failures: list[dict]
    wall_time: float
    info: dict = field(default_factory=dict)

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


def _size_pairs(bound: int) -> Iterator[tuple[int, int]]:
    for d1 in range(bound + 1):
        for d2 in range(bound - d1 + 1):
            yield d1, d2


def _pair_sizes(pair: PairType, bound: int) -> Iterator[tuple[int, int]]:
    t1, t2 = pair.factor_types
    for d1 in range(t1.size_parity, bound + 1, 2):
        for d2 in range(t2.size_parity, bound - d1 + 1, 2):
            yield d1, d2


def _special_pairs(
    pair: PairType, bound: int
) -> Iterator[tuple[Partition, Partition]]:
    t1, t2 = pair.factor_types
    for d1, d2 in _pair_sizes(pair, bound):
        yield from product(special_list(d1, t1), special_list(d2, t2))


# ---------------------------------------------------------------------------
# Brute-force oracles


def brute_force_collapse(lam: Partition, t: GroupType) -> Partition:
    """Maximum of the type-t partitions dominated by ``lam``, by explicit
    enumeration; validates :func:`orbitcalc.partitions.collapse`."""
    below = [mu for mu in member_list(lam.size, t) if dominance_leq(mu, lam)]
    maximal = [
        mu
        for mu in below
        if not any(nu != mu and dominance_leq(mu, nu) for nu in below)
    ]
    if len(maximal) != 1:
        raise RuntimeError(f"no unique maximum below {lam} for type {t}")
    return maximal[0]


def brute_force_min_special_above(lam: Partition, t: GroupType) -> Partition:
    """Minimum special type-t partition dominating ``lam``."""
    above = [mu for mu in special_list(lam.size, t) if dominance_leq(lam, mu)]
    minimal = [
        mu
        for mu in above
        if not any(nu != mu and dominance_leq(nu, mu) for nu in above)
    ]
    if len(minimal) != 1:
        raise RuntimeError(f"no unique special minimum above {lam} for type {t}")
    return minimal[0]


def brute_force_springer(lam: Partition, t: GroupType) -> Bipartition:
    """Search every special bipartition of the right size for the one whose
    special symbol yields ``lam``; debug oracle for the direct inversion."""
    cls = classify(lam, t)
    if not (cls.member and cls.special):
        raise ValueError(f"{lam!r} is not special of type {t}")
    n = (lam.size - t.size_parity) // 2
    type_d = t is GroupType.D
    matches = set()
    for i in range(n + 1):
        for left, right in product(partitions_of(i), partitions_of(n - i)):
            la, lb = len(left), len(right)
            if type_d:
                k = max(la, lb, 1) if n else 0
            else:
                k = max(la - 1, lb, 0)
            rho = Bipartition(
                (0,) * (k + 1 - la) + tuple(reversed(left)),
                (0,) * (k - lb) + tuple(reversed(right)),
                type_d=type_d,
            )
            if not is_special_symbol(symbol_of(rho)):
                continue
            if partition_of_special_symbol(symbol_of(rho), t) == lam:
                matches.add(rho)
    if len(matches) != 1:
        raise RuntimeError(f"expected one preimage of {lam}, got {matches}")
    return next(iter(matches))


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


def jordan_type_oracle(blocks: list[tuple[int, int]]) -> Partition:
    """Jordan type of a block-diagonal nilpotent matrix, from the ranks of
    its powers; ``blocks`` lists (copies, block_size)."""
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

_SweepResult = tuple[int, list[dict], dict]
_Domain = Callable[[int], Iterable[tuple]]


@dataclass(frozen=True)
class PropertySpec:
    name: str
    default_bound: int
    runner: Callable[[int], _SweepResult]
    description: str


PROPERTIES: dict[str, PropertySpec] = {}


def _sweep(
    domain: _Domain,
    check: Callable[..., dict | None],
    counters: tuple[str, ...] = (),
) -> Callable[[int], _SweepResult]:
    """Runner calling ``check(info, *case)`` on every case of
    ``domain(bound)``; the check may bump the ``counters``, which start at 0
    in ``info``, and returns a failure record or None."""

    def runner(bound: int) -> _SweepResult:
        info = dict.fromkeys(counters, 0)
        cases, failures = 0, []
        for case in domain(bound):
            cases += 1
            failure = check(info, *case)
            if failure is not None:
                failures.append(failure)
        return cases, failures, info

    return runner


def _register(
    name: str, default_bound: int, domain: _Domain, description: str,
    counters: tuple[str, ...] = (),
) -> Callable[[Callable], Callable]:
    """Decorator registering its check as the property ``name``."""

    def register(check: Callable[..., dict | None]) -> Callable:
        runner = _sweep(domain, check, counters)
        PROPERTIES[name] = PropertySpec(name, default_bound, runner, description)
        return check

    return register


def _record(keys: str, *values: object) -> dict:
    """Failure record mapping the space-separated ``keys`` to the printed
    ``values``."""
    return dict(zip(keys.split(), map(str, values)))


# ---------------------------------------------------------------------------
# Domains


def _partitions(bound: int) -> Iterator[tuple[Partition]]:
    return ((lam,) for d in range(bound + 1) for lam in partitions_of(d))


def _same_size_pairs(bound: int) -> Iterator[tuple[Partition, Partition]]:
    for d in range(bound + 1):
        yield from product(partitions_of(d), repeat=2)


def _partition_pairs(bound: int) -> Iterator[tuple[Partition, Partition]]:
    for d1, d2 in _size_pairs(bound):
        yield from product(partitions_of(d1), partitions_of(d2))


def _dominated_pairs(d: int) -> list[tuple[Partition, Partition]]:
    lams = partitions_of(d)
    return [(x, y) for x in lams for y in lams if dominance_leq(y, x)]


def _union_monotone_cases(bound: int) -> Iterator[tuple[Partition, ...]]:
    """(lambda1, mu1, lambda2, mu2) with mu1 <= lambda1, mu2 <= lambda2."""
    for d1, d2 in _size_pairs(bound):
        for p1, p2 in product(_dominated_pairs(d1), _dominated_pairs(d2)):
            yield p1 + p2


def _add_union_cases(bound: int) -> Iterator[tuple[Partition, ...]]:
    """(lambda1, lambda2, mu1, mu2) of total size at most ``bound``."""
    for d1, d2 in _size_pairs(bound):
        for e1, e2 in _size_pairs(bound - d1 - d2):
            yield from product(
                partitions_of(d1), partitions_of(d2),
                partitions_of(e1), partitions_of(e2),
            )


def _by_type(cases: Callable[[int, GroupType], Iterable[tuple]]) -> _Domain:
    """Domain of (t, *case) for each case in ``cases(d, t)``, over every
    type t and every size d of its parity up to the bound; ``zip(xs)`` turns
    a list into one-element cases."""

    def domain(bound: int) -> Iterator[tuple]:
        for t in GroupType:
            for d in range(t.size_parity, bound + 1, 2):
                for case in cases(d, t):
                    yield (t, *case)

    return domain


def _members_then_comparable(d: int, t: GroupType) -> Iterator[tuple]:
    """Every member with None, then every comparable pair of members."""
    members = member_list(d, t)
    return chain(zip(members, repeat(None)), _comparable(members))


def _pair_cases(bound: int) -> Iterator[tuple[PairType, Partition, Partition]]:
    for pair in PairType:
        for l1, l2 in _special_pairs(pair, bound):
            yield pair, l1, l2


def _worder_cases(bound: int) -> Iterator[tuple]:
    """(pair, x1, y1, x2, y2) with x_i <= y_i special of the factor types."""
    for pair in PairType:
        t1, t2 = pair.factor_types
        for d1, d2 in _pair_sizes(pair, bound):
            for p1, p2 in product(
                comparable_special_pairs(d1, t1), comparable_special_pairs(d2, t2)
            ):
                yield (pair, *p1, *p2)


def _rectangles(bound: int) -> Iterator[tuple[int, int, int]]:
    """(height, a1, a2), all odd, with height * (a1 + a2) - 1 <= bound."""
    odd = range(1, bound + 2, 2)
    for height, a1, a2 in product(odd, repeat=3):
        if height * (a1 + a2) - 1 <= bound:
            yield height, a1, a2


def _shapes(bound: int) -> Iterator[tuple[AParameterShape]]:
    """(shape,) for every shape whose dual group's standard module has
    dimension at most ``bound``."""
    for target in GroupType:
        for rank in range(1, (bound - target.dual.size_parity) // 2 + 1):
            for shape in shapes_for(target, rank):
                yield (shape,)


def _splits(bound: int) -> Iterator[tuple]:
    """(pair, shape, wavefront, side1, side2) for every proper split."""
    for (shape,) in _shapes(bound):
        pair = pair_type_of(shape.target)
        wf = predicted_wavefront(shape)
        for side1, side2 in proper_splits(shape):
            yield pair, shape, wf, side1, side2


# ---------------------------------------------------------------------------
# Properties, in registry order


@_register("transpose_involution", 16, _partitions,
           "transpose is an involution and matches its multiplicity formula")
def _check_transpose_involution(_, lam) -> dict | None:
    tr = transpose(lam)
    by_formula = []
    for k in range(1, len(lam) + 1):
        by_formula.extend([k] * (lam.part(k) - lam.part(k + 1)))
    if transpose(tr) != lam or Partition(by_formula) != tr:
        return _record("lambda transpose", lam, tr)


@_register("order_reversal", 12, _same_size_pairs,
           "dominance reverses under transposition")
def _check_order_reversal(_, lam, mu) -> dict | None:
    if dominance_leq(lam, mu) != dominance_leq(transpose(mu), transpose(lam)):
        return _record("lambda mu", lam, mu)


@_register("union_monotone", 10, _union_monotone_cases,
           "multiset union is monotone in both arguments")
def _check_union_monotone(_, l1, m1, l2, m2) -> dict | None:
    if not dominance_leq(union(m1, m2), union(l1, l2)):
        return _record("lambda1 lambda2 mu1 mu2", l1, l2, m1, m2)


@_register("transpose_union", 14, _partition_pairs,
           "transpose of a union is the sum of transposes")
def _check_transpose_union(_, l1, l2) -> dict | None:
    if transpose(union(l1, l2)) != add(transpose(l1), transpose(l2)):
        return _record("lambda1 lambda2", l1, l2)


@_register("add_union", 10, _add_union_cases,
           "sum of unions dominates union of sums")
def _check_add_union(_, l1, l2, m1, m2) -> dict | None:
    lhs = add(union(l1, l2), union(m1, m2))
    rhs = union(add(l1, m1), add(l2, m2))
    if not dominance_leq(rhs, lhs):
        return _record("lambda1 lambda2 mu1 mu2", l1, l2, m1, m2)


@_register("collapse_oracle", 12, _by_type(lambda d, t: zip(partitions_of(d))),
           "greedy collapse equals the brute-force dominance maximum")
def _check_collapse_oracle(_, t, lam) -> dict | None:
    fast = collapse(lam, t)
    slow = brute_force_collapse(lam, t)
    if fast != slow:
        return _record("type lambda collapse oracle", t, lam, fast, slow)


@_register("dd_special", 16, _by_type(_members_then_comparable),
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


@_register("special_dd_agree", 16, _by_type(lambda d, t: zip(member_list(d, t))),
           "transpose specialness criterion matches double-dual fixed points")
def _check_special_dd_agree(_, t, lam) -> dict | None:
    fixed = dual_partition(dual_partition(lam, t), t.dual) == lam
    if classify(lam, t).special != fixed:
        return _record("type lambda", t, lam)


@_register("orbit_dim_antitone", 14,
           _by_type(lambda d, t: _comparable(member_list(d, t))),
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


@_register("w_size", 16, _pair_cases,
           "transfer image is a partition of the expected size")
def _check_w_size(_, pair, l1, l2) -> dict | None:
    try:
        w = waldspurger(l1, l2, pair)
    except RuntimeError as exc:
        return {**_record("pair lambda1 lambda2", pair, l1, l2), "error": str(exc)}
    if w.size != pair.total_size(l1.size, l2.size):
        return _w_failure(l1, l2, pair, w=str(w))


@_register("prop_ws", 16, _pair_cases,
           "dual of the transfer image dominates the union of the duals")
def _check_prop_ws(_, pair, l1, l2) -> dict | None:
    t1, t2 = pair.factor_types
    w = waldspurger(l1, l2, pair)
    dw = dual_partition(w, pair.target)
    rhs = union(dual_partition(l1, t1), dual_partition(l2, t2))
    if not dominance_leq(rhs, dw):
        return _w_failure(l1, l2, pair, w=str(w), d_w=str(dw), union_duals=str(rhs))


@_register("dim_identity", 16, _pair_cases,
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


@_register("worder", 14, _worder_cases,
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


@_register("achar", 14, _by_type(lambda d, t: product(special_list(d, t), repeat=2)),
           "dominance of special partitions matches the bipartition order")
def _check_achar(_, t, lam, mu) -> dict | None:
    rho_lam = springer_bipartition(lam, t)
    rho_mu = springer_bipartition(mu, t)
    if dominance_leq(lam, mu) != bipartition_leq(rho_lam, rho_mu):
        return _record("type lambda mu rho_lambda rho_mu", t, lam, mu, rho_lam, rho_mu)


@_register("springer_roundtrip", 20, _by_type(lambda d, t: zip(special_list(d, t))),
           "special partition -> bipartition -> partition round trip")
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


@_register("specialize_family", 14, _pair_cases,
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


@_register("closure_oracle", 14, _pair_cases,
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


@_register("cd_symmetry", 14, lambda bound: _special_pairs(PairType.CD, bound),
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
def _check_chain(info, pair, shape, wf, side1, side2) -> dict | None:
    t1, t2 = pair.factor_types
    wf1 = dual_partition(jordan_type(side1), t1.dual)
    wf2 = dual_partition(jordan_type(side2), t2.dual)
    w = waldspurger(wf1, wf2, pair)
    if not dominance_leq(w, wf):
        return {
            "shape": str(shape),
            "split": [str(f) for f in factor_shapes(pair, (side1, side2))],
            "w": str(w),
            "wavefront": str(wf),
        }
    if orbit_dim(w, shape.target) == orbit_dim(wf, shape.target):
        info["dim_equal_cases"] += 1


@_register("npsi_oracle", 10, _shapes,
           "shape nilpotent matches the matrix Jordan-type oracle")
def _check_npsi_oracle(_, shape) -> dict | None:
    blocks = [
        (s.rho_dim * s.a * (2 if s.rho_type is SelfDualType.PAIR else 1), s.b)
        for s in shape.summands
    ]
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
        regular = dual_partition(Partition([1] * shape.m), shape.dual_side_type)
        if wf != regular:
            problems.append("tempered shape misses the regular dual")
    if problems:
        return {"shape": str(shape), "problems": problems}


def verify(name: str, bound: int | None = None) -> VerificationReport:
    """Run one registered property sweep up to ``bound`` (default per
    property) and report the counterexamples."""
    if name not in PROPERTIES:
        known = ", ".join(PROPERTIES)
        raise ValueError(f"unknown property {name!r}; known: {known}")
    spec = PROPERTIES[name]
    if bound is None:
        bound = spec.default_bound
    if bound < 0:
        raise ValueError("bound must be non-negative")
    start = time.perf_counter()
    cases, failures, info = spec.runner(bound)
    elapsed = time.perf_counter() - start
    info = dict(info)
    info["failure_count"] = len(failures)
    return VerificationReport(
        property=name,
        bound=bound,
        cases_checked=cases,
        failures=failures[:MAX_RECORDED_FAILURES],
        wall_time=elapsed,
        info=info,
    )
