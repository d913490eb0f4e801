import hashlib
import json
import random
import re
import sys
import tracemalloc
from itertools import combinations, combinations_with_replacement, product

import pytest

from orbitcalc.aparams import AParameterShape, SelfDualType, Summand
from orbitcalc.duality import dual_partition
from orbitcalc.partitions import (
    GroupType,
    Partition,
    collapse,
    enumerate_partitions,
    partitions_of,
)
from orbitcalc import symbols
from orbitcalc.symbols import (
    Bipartition,
    Symbol,
    bipartition_leq,
    bipartition_of_symbol,
    family_key,
    is_special_symbol,
    normalize_symbol,
    parse_bipartition,
    partition_of_special_symbol,
    special_closure,
    specialize_sum,
    springer_bipartition,
    symbol_of,
    _special_rows,
)
from orbitcalc.waldspurger import PairType
from seeded_inputs import inputs

B, C, D = GroupType.B, GroupType.C, GroupType.D
BB, CD, DD = PairType.BB, PairType.CD, PairType.DD
LARGE_SEED = 20261018


def P(*parts):
    return Partition(parts)


class TestBipartition:
    def test_row_length_mismatch(self):
        with pytest.raises(ValueError):
            Bipartition((0, 1), (1, 2))

    def test_rows_must_increase(self):
        with pytest.raises(ValueError):
            Bipartition((1, 0), ())

    def test_equality_ignores_leading_zero_pairs(self):
        assert Bipartition((0, 2), (0,)) == Bipartition((2,), ())
        assert Bipartition((0, 0, 1), (0, 1)) == Bipartition((0, 1), (1,))

    def test_type_d_equality_keeps_forced_zero(self):
        padded = Bipartition((0, 0, 0, 2), (0, 0, 1), type_d=True)
        assert padded == Bipartition((0, 2), (1,), type_d=True)
        assert hash(padded) == hash(Bipartition((0, 2), (1,), type_d=True))
        assert padded != Bipartition((0, 0, 2), (0, 1), type_d=False)

    def test_never_equals_a_symbol_with_the_same_key(self):
        rho, s = Bipartition((0, 1), (1,)), Symbol((0, 1), (1,))
        assert rho._key() == s._key()
        assert rho != s and s != rho

    @pytest.mark.parametrize("cls", [Bipartition, Symbol])
    def test_rows_reject_bools(self, cls):
        with pytest.raises(ValueError, match="True must be a non-negative integer"):
            cls((True,), ())
        with pytest.raises(ValueError, match="False must be a non-negative integer"):
            cls((0, 1), (False,))

    def test_d_rows_unordered(self):
        one = Bipartition((0, 1, 2), (0, 1), type_d=True)
        # same rows handed over in the other orientation
        two = Bipartition((0, 0, 1), (1, 2), type_d=True)
        assert one == two
        assert one.beta <= one.alpha[1:]

    def test_padding_down_is_an_error(self):
        with pytest.raises(ValueError, match=r"^cannot pad k=1 down to 0$"):
            Bipartition((0, 1), (1,)).padded(0)

    def test_d_needs_forced_zero(self):
        with pytest.raises(ValueError):
            Bipartition((1, 2), (1,), type_d=True)

    def test_parse(self):
        assert parse_bipartition("0,1|1", B) == Bipartition((0, 1), (1,))
        assert parse_bipartition("0|", B) == Bipartition((0,), ())
        assert parse_bipartition("1,2|1,1", D) == Bipartition(
            (0, 1, 2), (1, 1), type_d=True
        )
        with pytest.raises(ValueError):
            parse_bipartition("1,2", B)


class TestSymbolOf:
    def test_examples(self):
        s = symbol_of(Bipartition((0, 0), (1,)))
        assert (s.top, s.bottom) == ((0, 1), (1,))
        s = symbol_of(Bipartition((0, 2), (0,)))
        assert (s.top, s.bottom) == ((0, 3), (0,))
        s = symbol_of(Bipartition((0,), ()))
        assert (s.top, s.bottom) == ((0,), ())

    def test_type_d(self):
        s = symbol_of(Bipartition((0, 1, 2), (0, 1), type_d=True))
        assert (s.top, s.bottom) == ((1, 3), (0, 2))

    def test_round_trip_with_bipartition_of_symbol(self):
        rho = Bipartition((0, 1, 3), (1, 2))
        assert bipartition_of_symbol(symbol_of(rho)) == rho


def _rows(x):
    return type(x), tuple(vars(x).values())


def _bytes_per_instance(build, n=10_000):
    """Bytes that each of ``n`` records from ``build`` frees when the
    records are dropped while their field values are kept (tracemalloc,
    after 1 000 builds to warm the interpreter up)."""
    for _ in range(1_000):
        build()
    tracemalloc.start()
    built = [build() for _ in range(n)]
    kept = [getattr(x, f) for x in built for f in x._fields]
    before = tracemalloc.get_traced_memory()[0]
    del built
    freed = before - tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    assert len(kept) == 3 * n
    return freed / n


class TestTrustedConstruction:
    """``Bipartition.padded``, ``springer_bipartition`` and ``symbol_of``
    build their results with ``Record._trusted``, without ``__init__``; the
    rows must be those the checking constructors give, not only equal up to
    leading zeros."""

    @pytest.mark.parametrize("cls,values", [
        (Bipartition, ((0, 1), (1,), False)),
        (Symbol, ((2, 4), (1, 3), True)),
        (AParameterShape,
         (B, 2, (Summand(1, SelfDualType.ORTHOGONAL, 1, 2),) * 2)),
    ], ids=["Bipartition", "Symbol", "AParameterShape"])
    def test_trusted_records_are_as_compact_as_checked_ones(self, cls, values):
        """A trusted record keeps its fields in the compact per-instance
        layout that ``__init__`` gives, not in a dict of its own."""
        checked = _bytes_per_instance(lambda: cls(*values))
        assert _bytes_per_instance(lambda: cls._trusted(*values)) == checked

    @pytest.mark.parametrize("t", [B, C, D])
    def test_padded_and_symbol_of(self, t):
        for d in range(t.size_parity, 17, 2):
            for lam in enumerate_partitions(d, t, special_only=True):
                rho = springer_bipartition(lam, t)
                for k in range(rho.k, rho.k + 3):
                    extra = (0,) * (k - rho.k)
                    if rho.type_d:
                        checked = Bipartition(
                            (0,) + extra + rho.alpha[1:], extra + rho.beta, True
                        )
                    else:
                        checked = Bipartition(extra + rho.alpha, extra + rho.beta)
                    padded = rho.padded(k)
                    assert _rows(padded) == _rows(checked)
                    sym = symbol_of(padded)
                    assert _rows(sym) == _rows(Symbol(sym.top, sym.bottom, sym.type_d))

    def test_springer_bipartition(self):
        """``springer_bipartition`` stores the parity-split rows unchecked;
        they must be what the checking constructor makes of the same rows
        (type D reoriented), down to the size of the field dict, on every
        special partition of size <= 20 and on seeded ones of 40-200."""

        def checked(lam, t):
            type_d = t is D
            parts = sorted(lam)
            if len(parts) % 2 == type_d:
                parts.insert(0, 0)
            rows = ([], [])
            for i, p in enumerate(parts):
                row = rows[(p + i) % 2]
                row.append((p + i) // 2 - len(row))
            even, odd = rows
            top, bottom = (odd, even) if t is B else (even, odd)
            return Bipartition([0] + top if type_d else top, bottom, type_d)

        def check(lam, t):
            rho = springer_bipartition.__wrapped__(lam, t)
            reference = checked(lam, t)
            assert _rows(rho) == _rows(reference), (t, lam)
            assert sys.getsizeof(vars(rho)) == sys.getsizeof(vars(reference))

        cases = 0
        for t in (B, C, D):
            for d in range(t.size_parity, 21, 2):
                for lam in enumerate_partitions(d, t, special_only=True):
                    check(lam, t)
                    cases += 1
        assert cases == 987
        rng = random.Random(LARGE_SEED)
        for t in (B, C, D):
            for _ in range(300):
                n = inputs.sized(rng, 40, 200, t.size_parity)
                check(Partition(inputs.random_special(rng, n, t.value)), t)

    def test_type_d_symbol_keeps_orientation(self):
        rho = Bipartition((0, 1, 3), (2, 2), type_d=True)
        assert (rho.alpha, rho.beta) == ((0, 2, 2), (1, 3))
        assert _rows(symbol_of(rho)) == (Symbol, ((2, 3), (1, 4), True))

    @pytest.mark.parametrize("build,message", [
        (lambda: Bipartition((2, 1), (0,)), "rows must be weakly increasing: 2,1|0"),
        (lambda: Bipartition((0, 2, 1), (0, 0)),
         "rows must be weakly increasing: 0,2,1|0,0"),
        (lambda: Symbol((1, 1), (0,)), "rows must be strictly increasing: (1, 1)"),
        (lambda: Symbol((0, 2), (3, 3), True),
         "rows must be strictly increasing: (3, 3)"),
        (lambda: Bipartition((0, -1), (2,)),
         "alpha entry -1 must be a non-negative integer"),
        (lambda: Bipartition((0, 1), (True,)),
         "beta entry True must be a non-negative integer"),
        # the first bad entry in row order words the error
        (lambda: Bipartition((0, 3, -2, 1.5), (0, 0, 0)),
         "alpha entry -2 must be a non-negative integer"),
        (lambda: Bipartition((0, 1), (0.0,)),
         "beta entry 0.0 must be a non-negative integer"),
        (lambda: Bipartition((0, 1, 2), (3, 1), type_d=True),
         "rows must be weakly increasing: 3,1|1,2"),
    ], ids=["alpha", "beta", "top", "type_d", "negative", "bool", "first_bad",
            "float", "unsorted_d"])
    def test_constructors_still_check(self, build, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()

    @pytest.mark.parametrize("top,bottom,type_d,message", [
        ((0,), (1, 2), False, "row lengths 1/2 are invalid"),
        ((0, 2), (1,), True, "row lengths 2/1 are invalid"),
    ], ids=["BC", "D"])
    def test_symbol_row_lengths(self, top, bottom, type_d, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Symbol(top, bottom, type_d)


class TestNormalize:
    def test_shift_equivalence_example(self):
        s = Symbol((0, 1, 2, 3), (0, 3, 4))
        assert normalize_symbol(s) == Symbol((0, 1, 2), (2, 3))
        assert (normalize_symbol(s).top, normalize_symbol(s).bottom) == (
            (0, 1, 2),
            (2, 3),
        )

    def test_idempotent_on_minimal(self):
        s = Symbol((0, 1, 2), (2, 3))
        assert normalize_symbol(s) is s

    def test_strip_one_level_type_d(self):
        s = Symbol((0, 1), (0, 2), type_d=True)
        assert normalize_symbol(s) == Symbol((0,), (1,), type_d=True)

    def test_equality_is_shift_insensitive(self):
        assert Symbol((0, 1, 2, 3), (0, 3, 4)) == Symbol((0, 1, 2), (2, 3))


class TestSpecialSymbols:
    def test_examples(self):
        assert is_special_symbol(symbol_of(Bipartition((0, 0), (1,))))
        assert not is_special_symbol(Symbol((0, 1, 2), (2, 3)))
        assert is_special_symbol(symbol_of(Bipartition((0,), ())))

    @pytest.mark.parametrize("type_d", [False, True])
    def test_matches_entrywise_interleaving(self, type_d):
        # the docstring's conditions written out: B/C top_0 <= bottom_0 <=
        # top_1 <= ..., D bottom_0 <= top_0 <= bottom_1 <= ...
        special = 0
        for k in range(4):
            tops = combinations(range(6), k if type_d else k + 1)
            for top, bottom in product(tops, list(combinations(range(6), k))):
                sym = Symbol(top, bottom, type_d)
                lo, hi = (sym.bottom, sym.top) if type_d else (sym.top, sym.bottom)
                expected = all(x <= y for x, y in zip(lo, hi)) and all(
                    y <= x for y, x in zip(hi, lo[1:])
                )
                assert is_special_symbol(sym) == expected, sym
                special += expected
        assert special > 20

    def test_row_test_matches_the_symbol(self):
        # every bipartition with entries <= 5 and at most 3 columns, padded
        # by 0-2 columns; type D in both orientations, so built unchecked
        rows = [
            list(combinations_with_replacement(range(6), n)) for n in range(5)
        ]
        cases = 0
        for k, extra in product(range(4), range(3)):
            kinds = [(False, a, b) for a, b in product(rows[k + 1], rows[k])]
            kinds += [(True, (0,) + a, b) for a, b in product(rows[k], rows[k])]
            for type_d, alpha, beta in kinds:
                rho = Bipartition._trusted(alpha, beta, type_d).padded(k + extra)
                assert _special_rows(rho) == is_special_symbol(symbol_of(rho)), rho
                cases += 1
        assert cases == 35_934

    def test_family_keys(self):
        # same entries, same rows sizes after normalization -> same family
        assert family_key(Symbol((0, 2), (1,))) == family_key(Symbol((0, 1), (2,)))
        # shift invariance is built in
        s = Symbol((0, 1, 2, 3), (0, 3, 4))
        assert family_key(s) == family_key(normalize_symbol(s))
        # distinct families from the special orbits of size 5
        keys = {
            family_key(symbol_of(springer_bipartition(lam, B)))
            for lam in enumerate_partitions(5, B, special_only=True)
        }
        assert len(keys) == 3

    def test_nearby_bipartitions_land_in_distinct_families(self):
        one = symbol_of(Bipartition((0, 1), (1,)))
        two = symbol_of(Bipartition((0, 2), (0,)))
        assert family_key(one) != family_key(two)


class TestSpecialPartitionOfSymbol:
    @pytest.mark.parametrize(
        "alpha,beta,expected",
        [(((0, 0)), (1,), (1, 1, 1)), ((0, 1), (1,), (3, 1, 1)), ((0, 2), (0,), (5,))],
    )
    def test_type_b_examples(self, alpha, beta, expected):
        lam = partition_of_special_symbol(symbol_of(Bipartition(alpha, beta)), B)
        assert lam == Partition(expected)

    def test_rejects_non_special(self):
        with pytest.raises(ValueError):
            partition_of_special_symbol(Symbol((0, 1, 2), (2, 3)), B)

    def test_rejects_kind_mismatch(self):
        with pytest.raises(ValueError):
            partition_of_special_symbol(symbol_of(Bipartition((0, 1), (1,))), D)


class TestSpringer:
    def test_examples(self):
        assert springer_bipartition(P(1, 1, 1), B) == Bipartition((0, 0), (1,))
        assert springer_bipartition(P(3, 1, 1), B) == Bipartition((0, 1), (1,))
        assert springer_bipartition(P(5), B) == Bipartition((0, 2), (0,))

    def test_rejects_non_special(self):
        with pytest.raises(ValueError):
            springer_bipartition(P(2, 2, 1), B)

    @pytest.mark.parametrize("t", [B, C, D])
    def test_round_trip(self, t):
        for d in range(t.size_parity, 15, 2):
            for lam in enumerate_partitions(d, t, special_only=True):
                rho = springer_bipartition(lam, t)
                assert partition_of_special_symbol(symbol_of(rho), t) == lam

    def test_matches_the_checked_symbol_build(self):
        # the parity split as a checked Symbol, then its bipartition
        def reference(lam, t):
            type_d = t is D
            parts = sorted(lam)
            if len(parts) % 2 == type_d:
                parts.insert(0, 0)
            rows = ([], [])
            for i, p in enumerate(parts):
                rows[(p + i) % 2].append((p + i) // 2)
            even, odd = rows
            top, bottom = (odd, even) if t is B else (even, odd)
            return bipartition_of_symbol(Symbol(top, bottom, type_d))

        cases = 0
        for t in (B, C, D):
            for d in range(t.size_parity, 25, 2):
                for lam in enumerate_partitions(d, t, special_only=True):
                    assert _rows(springer_bipartition(lam, t)) == _rows(
                        reference(lam, t)
                    ), (t, lam)
                    cases += 1
        assert cases == 2182

    def test_raw_rows_digest(self):
        # Equality ignores leading zero pairs, but ``springer --json`` prints
        # the raw rows; the digest pins them, and the image back, for every
        # special partition of size <= 20.
        rows = []
        for t in (B, C, D):
            for d in range(t.size_parity, 21, 2):
                for lam in enumerate_partitions(d, t, special_only=True):
                    rho = springer_bipartition(lam, t)
                    back = partition_of_special_symbol(symbol_of(rho), t)
                    rows.append(
                        [str(t), list(lam), list(rho.alpha), list(rho.beta), list(back)]
                    )
        blob = json.dumps(rows, separators=(",", ":")).encode()
        assert len(rows) == 987
        assert hashlib.sha256(blob).hexdigest() == (
            "2d5e4ae2176d285ddf5ef414e3e436c765df90b72fdcbbe5f2d8be813061b13d"
        )

    @pytest.mark.parametrize("t", [B, C, D])
    def test_large_round_trip(self, t):
        # Seeded special partitions of sizes 40-200, made as duality images
        # of collapsed random partitions of the dual type.
        rng = random.Random(LARGE_SEED)
        for _ in range(300):
            size = rng.randrange(40 + t.size_parity, 201, 2)
            src = size + t.dual.size_parity - t.size_parity
            parts, cap = [], rng.choice((2, 5, 20, src))
            while sum(parts) < src:
                parts.append(rng.randint(1, min(cap, src - sum(parts))))
            lam = dual_partition(collapse(Partition(parts), t.dual), t.dual)
            rho = springer_bipartition(lam, t)
            assert partition_of_special_symbol(symbol_of(rho), t) == lam, (
                f"seed {LARGE_SEED}: {t} {lam} -> {rho}"
            )

    @pytest.mark.parametrize("t", [B, C, D])
    def test_every_special_bipartition_is_an_image(self, t):
        # Every special bipartition of rank <= 4 maps to a partition whose
        # Springer bipartition is that bipartition again, so the preimage
        # is unique; with test_round_trip this pins a bijection.
        seen = 0
        for n in range(5):
            for i in range(n + 1):
                for left, right in product(partitions_of(i), partitions_of(n - i)):
                    la, lb = len(left), len(right)
                    if t is D:
                        k = max(la, lb, 1) if n else 0
                    else:
                        k = max(la - 1, lb, 0)
                    rho = Bipartition(
                        (0,) * (k + 1 - la) + tuple(reversed(left)),
                        (0,) * (k - lb) + tuple(reversed(right)),
                        type_d=t is D,
                    )
                    if not is_special_symbol(symbol_of(rho)):
                        continue
                    lam = partition_of_special_symbol(symbol_of(rho), t)
                    assert springer_bipartition(lam, t) == rho
                    seen += 1
        assert seen > 0


class TestSpecializeSum:
    def test_adjusted_sum(self):
        rho = specialize_sum(
            Bipartition((0, 0), (1,)), Bipartition((0, 0), (1,)), BB
        )
        assert rho == Bipartition((0, 1), (1,))

    def test_plain_sum(self):
        rho = specialize_sum(
            Bipartition((0, 2), (0,)), Bipartition((0, 0), (1,)), BB
        )
        assert rho == Bipartition((0, 2), (1,))

    def test_zero_is_neutral(self):
        rho = Bipartition((0, 1), (1,))
        assert specialize_sum(rho, Bipartition((0,), ()), BB) == rho

    def test_rejects_non_special(self):
        lopsided = Bipartition((0, 0, 0), (2, 2))  # b_1 > a_1 + 1
        with pytest.raises(ValueError):
            specialize_sum(lopsided, Bipartition((0,), ()), BB)

    def test_rejects_kind_mismatch(self):
        with pytest.raises(ValueError):
            specialize_sum(
                Bipartition((0, 1), (1,)), Bipartition((0, 1), (1,)), CD
            )

    @pytest.mark.parametrize("rho1,rho2,pair,message", [
        (Bipartition((0, 0, 0), (2, 2)), Bipartition((0,), ()), BB,
         "factor 1 bipartition 0,0,0|2,2 is not special"),
        (Bipartition((0,), ()), Bipartition((0, 0, 0), (2, 2)), BB,
         "factor 2 bipartition 0,0,0|2,2 is not special"),
        (Bipartition((0, 1), (1,)), Bipartition((0, 2, 2), (0, 0), True), CD,
         "factor 2 bipartition 2,2|0,0 is not special"),
        (Bipartition((0, 1), (1,)), Bipartition((0, 1), (1,)), CD,
         "bipartition kinds do not match pair type CD"),
        (Bipartition((0, 1), (1,), True), Bipartition((0, 1), (1,), True), BB,
         "bipartition kinds do not match pair type BB"),
    ], ids=["factor1", "factor2", "factor2-D", "kinds-CD", "kinds-BB"])
    def test_input_error_messages(self, rho1, rho2, pair, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            specialize_sum(rho1, rho2, pair)

    def test_non_special_result_is_an_internal_error(self, monkeypatch):
        lopsided = Bipartition((0, 0, 0), (2, 2))
        monkeypatch.setattr(symbols, "_padded_sum", lambda *args: lopsided)
        rho = Bipartition((0, 1), (1,))
        message = (
            "specialized sum of 0,1|1 and 0,1|1 (BB) is not special: 0,0,0|2,2"
        )
        with pytest.raises(RuntimeError, match=f"^{re.escape(message)}$"):
            specialize_sum(rho, rho, BB)


class TestSpecialClosure:
    def test_examples(self):
        assert special_closure(P(1, 1, 1), P(1, 1, 1), BB) == P(3, 1, 1)
        assert special_closure(P(5), P(1, 1, 1), BB) == P(5, 1, 1)
        # the transfer image (4,4,3) is not special; its closure is computed
        assert special_closure(P(3, 3, 3), P(1, 1, 1), BB) == P(5, 3, 3)

    @pytest.mark.parametrize("pair", [BB, CD, DD])
    def test_matches_brute_force_minimum(self, pair):
        from orbitcalc.harness import (
            _domain,
            _specials,
            brute_force_min_special_above,
        )
        from orbitcalc.waldspurger import waldspurger

        for l1, l2 in _domain(_specials, [((), pair.factor_types)])(10):
            w = waldspurger(l1, l2, pair)
            assert special_closure(l1, l2, pair) == brute_force_min_special_above(
                w, pair.target
            )

    def test_springer_rows_are_special(self):
        # special_closure sums the factors' Springer bipartitions without
        # the factor guard of specialize_sum, which holds because the
        # Springer bipartition of a special partition has special rows
        cases = 0
        for t in (B, C, D):
            for d in range(t.size_parity, 25, 2):
                for lam in enumerate_partitions(d, t, special_only=True):
                    assert _special_rows(springer_bipartition(lam, t)), (t, lam)
                    cases += 1
        assert cases == 2182
        rng = random.Random(f"{LARGE_SEED}:springer-rows")
        for t in (B, C, D):
            for _ in range(300):
                n = inputs.sized(rng, 40, 200, t.size_parity)
                lam = Partition(inputs.random_special(rng, n, t.value))
                assert _special_rows(springer_bipartition(lam, t)), (
                    f"seed {LARGE_SEED}:springer-rows: {t} {lam}"
                )


def _tail_sum_leq(rho, sigma):
    """The bipartition order as first written: both tail sums of the rows
    padded to a common number of columns, compared entrywise; the
    reference for ``bipartition_leq``."""
    k = max(rho.k, sigma.k)
    r, s = rho.padded(k), sigma.padded(k)

    def tails(bp):
        full = [0] * (k + 2)  # full[i] = sum_{j>=i} (a_j + b_j), i = 1..k+1
        for i in range(k, 0, -1):
            full[i] = full[i + 1] + bp.alpha[i] + bp.beta[i - 1]
        broken = [full[i + 1] + bp.alpha[i] for i in range(k + 1)]
        return full[1:-1], broken

    full_r, broken_r = tails(r)
    full_s, broken_s = tails(s)
    return all(x <= y for x, y in zip(full_r, full_s)) and all(
        x <= y for x, y in zip(broken_r, broken_s)
    )


def _bipartitions(n, type_d):
    """Every bipartition of n of one kind, once each, with the fewest
    columns."""
    found = {}
    for i in range(n + 1):
        for left, right in product(partitions_of(i), partitions_of(n - i)):
            # in type D, a_0 is the forced zero, so left fills only k slots
            if type_d:
                k = max(len(left), len(right))
            else:
                k = max(len(left) - 1, len(right), 0)
            alpha = (0,) * (k + 1 - len(left)) + left[::-1]
            beta = (0,) * (k - len(right)) + right[::-1]
            found[Bipartition(alpha, beta, type_d)] = None
    return list(found)


class TestBipartitionOrder:
    def test_examples(self):
        assert bipartition_leq(Bipartition((0, 0), (1,)), Bipartition((0, 1), (0,)))
        rho = Bipartition((0, 1), (1,))
        assert bipartition_leq(rho, rho)
        assert not bipartition_leq(
            Bipartition((0, 1), (0,)), Bipartition((0, 0), (1,))
        )

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            bipartition_leq(Bipartition((0, 1), (1,)), Bipartition((0, 1), (0,)))

    def test_kind_mismatch(self):
        message = "cannot compare bipartitions of different kinds"
        with pytest.raises(ValueError, match=f"^{message}$"):
            bipartition_leq(
                Bipartition((0, 1), (1,)), Bipartition((0, 1), (1,), True)
            )

    def test_matches_the_tail_sums_on_every_small_pair(self):
        """Every ordered pair of equal-size bipartitions of n <= 8, of
        both kinds."""
        pairs = 0
        for type_d in (False, True):
            for n in range(9):
                rhos = _bipartitions(n, type_d)
                for rho, sigma in product(rhos, repeat=2):
                    assert bipartition_leq(rho, sigma) == _tail_sum_leq(
                        rho, sigma
                    ), (rho, sigma)
                pairs += len(rhos) ** 2
        assert pairs == 66063

    @pytest.mark.parametrize("t", [B, C, D])
    def test_matches_the_tail_sums_on_seeded_specials(self, t):
        # Springer bipartitions of rank up to 40, from pairs of seeded
        # special partitions of one size
        rng = random.Random(LARGE_SEED)
        outcomes = set()
        for _ in range(300):
            size = inputs.sized(rng, 2, 80, t.size_parity)
            lam, mu = (Partition(inputs.random_special(rng, size, t.value))
                       for _ in range(2))
            rho, sigma = springer_bipartition(lam, t), springer_bipartition(mu, t)
            both = (bipartition_leq(rho, sigma), bipartition_leq(sigma, rho))
            assert both == (_tail_sum_leq(rho, sigma), _tail_sum_leq(sigma, rho)), (
                f"seed {LARGE_SEED}: {t} {lam} {mu}"
            )
            outcomes.add(both)
        assert {(True, False), (False, True), (False, False)} <= outcomes

    @pytest.mark.parametrize("t", [B, C, D])
    def test_matches_dominance_on_special_orbits(self, t):
        from orbitcalc.partitions import dominance_leq

        for d in range(t.size_parity, 11, 2):
            lams = enumerate_partitions(d, t, special_only=True)
            rhos = {lam: springer_bipartition(lam, t) for lam in lams}
            for lam in lams:
                for mu in lams:
                    assert dominance_leq(lam, mu) == bipartition_leq(
                        rhos[lam], rhos[mu]
                    )
