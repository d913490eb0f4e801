"""Seeded inputs for the benchmark and independent reference checks.

Nothing here imports orbitcalc: inputs are plain lists and strings, built
and validated by this module's own partition rules, so generating them
neither warms the package's caches nor depends on the code being measured.

Type conventions follow orbitcalc: "B" = SO_{2n+1}, "C" = Sp_{2n},
"D" = SO_{2n}; a member of B/D is orthogonal (even parts have even
multiplicity), a member of C is symplectic (odd parts have even
multiplicity); a member is special when its transpose is orthogonal (B) or
symplectic (C, D).
"""

from __future__ import annotations

import random
from collections import Counter

TYPES = ("B", "C", "D")
PAIRS = {"BB": ("B", "B", "B"), "CD": ("C", "D", "C"), "DD": ("D", "D", "D")}
DUAL_TYPE = {"B": "C", "C": "B", "D": "D"}
QUERY_SIZES = (40, 200)


# ---------------------------------------------------------------------------
# Reference partition rules


def size_parity(t: str) -> int:
    return 1 if t == "B" else 0


def transpose(parts: list[int]) -> list[int]:
    return [sum(1 for p in parts if p > i) for i in range(parts[0])] if parts else []


def _even_multiplicity(parts: list[int], parity: int) -> bool:
    return all(c % 2 == 0 for p, c in Counter(parts).items() if p % 2 == parity)


def is_member(parts: list[int], t: str) -> bool:
    if sum(parts) % 2 != size_parity(t) or parts != sorted(parts, reverse=True):
        return False
    if any(not isinstance(p, int) or p < 1 for p in parts):
        return False
    return _even_multiplicity(parts, 1 if t == "C" else 0)


def is_special(parts: list[int], t: str) -> bool:
    if not is_member(parts, t):
        return False
    return _even_multiplicity(transpose(parts), 0 if t == "B" else 1)


def orbit_dim(parts: list[int], t: str) -> int:
    """Dimension of the orbit: dim g - dim centralizer, with
    2 dim Z = sum of squared transpose parts -/+ number of odd parts."""
    m = sum(parts)
    lie = m * (m + 1) // 2 if t == "C" else m * (m - 1) // 2
    odd = sum(p % 2 for p in parts)
    squares = sum(c * c for c in transpose(parts))
    return lie - (squares + odd if t == "C" else squares - odd) // 2


def dominated(lam: list[int], mu: list[int]) -> bool:
    """lam <= mu in the dominance order (equal sizes required)."""
    if sum(lam) != sum(mu):
        return False
    a = b = 0
    for i in range(max(len(lam), len(mu))):
        a += lam[i] if i < len(lam) else 0
        b += mu[i] if i < len(mu) else 0
        if a > b:
            return False
    return True


# ---------------------------------------------------------------------------
# Random partitions


def random_member(rng: random.Random, n: int, t: str) -> list[int]:
    """A type-t partition of n; parts of the constrained parity come in
    pairs, so every draw is a member (n must have t's size parity)."""
    paired = 1 if t == "C" else 0
    cap = max(2, n // rng.choice((1, 2, 4, 8, 16)))
    parts: list[int] = []
    remaining = n
    while remaining:
        p = rng.randint(1, min(cap, remaining))
        if p % 2 == paired and 2 * p > remaining:
            p = 2 if paired else 1  # a single part always fits
        if p % 2 == paired:
            parts += [p, p]
            remaining -= 2 * p
        else:
            parts.append(p)
            remaining -= p
    return sorted(parts, reverse=True)


def random_special(rng: random.Random, n: int, t: str) -> list[int]:
    """A special type-t partition of n, by rejection from random members,
    with a fixed special partition when every draw is rejected."""
    for _ in range(400):
        lam = random_member(rng, n, t)
        if is_special(lam, t):
            return lam
    # (n) is special for B (odd n) and C (even n); (n-1, 1) for D.
    return [n] if t != "D" else ([n - 1, 1] if n > 1 else [])


def random_partition(rng: random.Random, n: int) -> list[int]:
    cap = max(1, n // rng.choice((1, 2, 4, 8)))
    parts, remaining = [], n
    while remaining:
        p = rng.randint(1, min(cap, remaining))
        parts.append(p)
        remaining -= p
    return sorted(parts, reverse=True)


def sized(rng: random.Random, lo: int, hi: int, parity: int) -> int:
    n = rng.randint(lo, hi)
    return n if n % 2 == parity else n + 1


# ---------------------------------------------------------------------------
# Random A-parameter shapes


def _flips(rho_type: str, a: int, b: int) -> int:
    return (rho_type == "S") + (a % 2 == 0) + (b % 2 == 0)


def summand_weight(s: tuple[int, str, int, int]) -> int:
    dim, rho_type, a, b = s
    return (2 if rho_type == "P" else 1) * dim * a * b


def random_shape(
    rng: random.Random, target: str, m: int, max_ab: int
) -> list[tuple[int, str, int, int]]:
    """Summands (dim, type, a, b) of a valid shape whose dual-side module
    has dimension m: symplectic summands for target B, orthogonal for C
    and D, plus pair summands."""
    want_flips = 1 if target == "B" else 0
    summands = []
    remaining = m
    while remaining:
        a, b = rng.randint(1, max_ab), rng.randint(1, max_ab)
        dim = rng.choice((1, 1, 1, 2, 3))
        if rng.random() < 0.15:
            s = (dim, "P", a, b)
        else:
            rho_type = "O"
            if _flips("O", a, b) % 2 != want_flips:
                rho_type, dim = "S", 2 * dim
            s = (dim, rho_type, a, b)
        if summand_weight(s) > remaining:
            # weight-1 orthogonal or weight-2 symplectic filler
            s = (1, "O", 2, 1) if target == "B" else (1, "O", 1, 1)
        summands.append(s)
        remaining -= summand_weight(s)
    # orbitcalc stores summands in this order, which split signs follow
    return sorted(summands, key=lambda s: (summand_weight(s), s[0], s[1], s[2], s[3]))


def random_split(
    rng: random.Random, target: str, summands: list
) -> list[int] | None:
    """Signs of a proper split whose factors carry the endoscopic types
    (type D needs both factor dimensions even)."""
    if len(summands) < 2:
        return None
    for _ in range(100):
        signs = [rng.choice((1, -1)) for _ in summands]
        if 1 not in signs or -1 not in signs:
            continue
        plus = sum(summand_weight(s) for s, e in zip(summands, signs) if e == 1)
        if target == "D" and plus % 2:
            continue
        return signs
    return None


def shape_text(summands: list) -> str:
    return ",".join(f"{d}xS{a}*S{b}:{t}" for d, t, a, b in summands)


def rank_of(target: str, m: int) -> int:
    return (m - 1) // 2 if target == "C" else m // 2


# ---------------------------------------------------------------------------
# Workload inputs


def transfer_query(rng: random.Random, lo: int, hi: int) -> dict:
    pair = rng.choice(sorted(PAIRS))
    t1, t2, _ = PAIRS[pair]
    total = rng.randint(lo, hi)
    d1 = sized(rng, 1, total - 1, size_parity(t1))
    d2 = max(total - d1, 1)
    if d2 % 2 != size_parity(t2):
        d2 += 1
    return {
        "kind": "transfer",
        "pair": pair,
        "l1": random_special(rng, d1, t1),
        "l2": random_special(rng, d2, t2),
    }


def orbit_query(rng: random.Random, lo: int, hi: int) -> dict:
    t = rng.choice(TYPES)
    return {"kind": "orbit", "type": t,
            "lam": random_member(rng, sized(rng, lo, hi, size_parity(t)), t)}


def wavefront_query(rng: random.Random, lo: int, hi: int) -> dict:
    while True:
        target = rng.choice(TYPES)
        m = sized(rng, lo, hi, 1 if target == "C" else 0)
        summands = random_shape(rng, target, m, max_ab=rng.choice((3, 6, 12)))
        signs = random_split(rng, target, summands)
        if signs is not None:
            return {"kind": "wavefront", "target": target,
                    "rank": rank_of(target, m), "summands": summands,
                    "signs": signs}


def query_stream(seed: int, count: int) -> list[dict]:
    """``count`` library queries at sizes 40-200, the three kinds mixed
    evenly in a seeded order."""
    rng = random.Random(seed)
    makers = [transfer_query, orbit_query, wavefront_query]
    kinds = [makers[i % 3] for i in range(count)]
    rng.shuffle(kinds)
    return [make(rng, *QUERY_SIZES) for make in kinds]


def cli_case(rng: random.Random, command: str) -> list[str]:
    """Arguments of one valid CLI call (sizes 8-40)."""
    t = rng.choice(TYPES)
    if command == "transpose":
        return ["transpose", _text(random_partition(rng, rng.randint(8, 40)))]
    if command == "dual":
        lam = random_member(rng, sized(rng, 8, 40, size_parity(t)), t)
        return ["dual", "--type", t, _text(lam)]
    if command == "collapse":
        lam = random_partition(rng, sized(rng, 8, 40, size_parity(t)))
        return ["collapse", "--type", t, _text(lam)]
    if command == "waldspurger":
        q = transfer_query(rng, 8, 40)
        return ["waldspurger", "--pair", q["pair"], _text(q["l1"]),
                _text(q["l2"]), "--closure"]
    if command == "symbol":
        k = rng.randint(1, 5)
        alpha = sorted(rng.randint(0, 4) for _ in range(k + (t != "D")))
        beta = sorted(rng.randint(0, 4) for _ in range(k))
        return ["symbol", "--type", t, f"{_text(alpha)}|{_text(beta)}"]
    if command == "springer":
        lam = random_special(rng, sized(rng, 8, 40, size_parity(t)), t)
        return ["springer", "--type", t, _text(lam)]
    if command == "wavefront":
        while True:
            m = sized(rng, 8, 40, 1 if t == "C" else 0)
            summands = random_shape(rng, t, m, max_ab=4)
            if len(summands) >= 2:
                break
        family = {"B": "SOodd", "C": "Sp", "D": "SOeven"}[t]
        return ["wavefront", "--target", family, "--rank",
                str(rank_of(t, m)), "--shape", shape_text(summands)]
    raise ValueError(f"unknown command {command!r}")


CLI_COMMANDS = ("transpose", "dual", "collapse", "waldspurger", "symbol",
                "springer", "wavefront")


def malformed_cli_case(rng: random.Random) -> list[str]:
    """Arguments that orbitcalc must reject as an input error (exit 2)."""
    k = rng.randint(2, 9)
    cases = [
        ["transpose", f"{k},x,1"],
        ["transpose", f"{k},-{k},1"],
        ["dual", "--type", "B", f"{2 * k},{2 * k}"],   # even size for B
        ["collapse", "--type", "C", f"{2 * k},1"],      # odd size for C
        ["springer", "--type", "C", f"{2 * k + 1},2,1"],  # not symplectic
        ["symbol", "--type", "B", f"0,{k}"],            # no "|" bar
        ["waldspurger", "--pair", "BB", f"{2 * k},{2 * k},1", "1"],  # not special
        ["wavefront", "--target", "Sp", "--rank", str(k),
         "--shape", "1xS1*S1:O"],                       # wrong dimension
    ]
    return rng.choice(cases)


def _text(parts) -> str:
    return ",".join(str(p) for p in parts)
