"""Seeded fuzz of the command line: malformed calls to every subcommand
exit 0 or 2 and never raise past ``main``.

The cases follow ``perfbench/inputs.malformed_cli_case``: either a valid
call is corrupted in one place (a token replaced, cut, extended or
dropped), or the call is built from malformed pieces; ``wavefront`` gets
its own target, rank and summand syntax.  A ``verify`` call corrupts only
its property name and takes its bound from a fixed list of at most 3, so
that no call sweeps for long.  A failure names the command and the seed:
``malformed_case(random.Random(seed), command)`` replays it.
"""

import random

import pytest

from orbitcalc.cli import COMMANDS, main
from orbitcalc.harness import PROPERTIES

SEEDS_PER_COMMAND = 50

# Valid calls of the calculator subcommands, corrupted by _corrupt.
VALID = {
    "transpose": [["transpose", "3,2,1"], ["transpose", "5,5,1,1"]],
    "dual": [["dual", "--type", "B", "3,1,1"], ["dual", "--type", "C", "2,2"],
             ["dual", "--type", "D", "3,1"]],
    "collapse": [["collapse", "--type", "B", "4,2,1"],
                 ["collapse", "--type", "C", "3,2,1"]],
    "waldspurger": [["waldspurger", "--pair", "BB", "3,3,3", "1,1,1"],
                    ["waldspurger", "--pair", "CD", "2", "1,1", "--closure"],
                    ["waldspurger", "--pair", "DD", "3,1", "1,1"]],
    "symbol": [["symbol", "--type", "B", "0,1|1"], ["symbol", "--type", "D", "1|1"]],
    "springer": [["springer", "--type", "C", "2,2"],
                 ["springer", "--type", "D", "3,1"]],
    "wavefront": [["wavefront", "--target", "SOodd", "--rank", "2", "--shape",
                   "1xS2*S1:O,1xS1*S2:O"],
                  ["wavefront", "--target", "SO5", "--shape", "1xS1*S4:O",
                   "--dual"]],
}

JUNK = ["", " ", "x", "-1", "0", "1.5", "1,,2", ",", ",1", "1,", "1e3", "0x10",
        "+2", "1_0", "١", "nan", "|", "1|2|3", "S1", "--", "-",
        "99999999999999999999", "9" * 5000]
INSERTS = ",|x-*:0123456789SOPa _+\u0661"


def _corrupt(rng: random.Random, argv: list[str]) -> list[str]:
    """``argv`` with one token after the command replaced, cut, extended,
    negated or dropped, or with an unknown flag added."""
    argv = list(argv)
    i = rng.randrange(1, len(argv))
    token = argv[i]
    how = rng.randrange(6)
    if how == 0:
        argv[i] = rng.choice(JUNK)
    elif how == 1 and token:
        j = rng.randrange(len(token))
        argv[i] = token[:j] + token[j + 1:]
    elif how == 2:
        j = rng.randrange(len(token) + 1)
        argv[i] = token[:j] + rng.choice(INSERTS) + token[j:]
    elif how == 3:
        argv[i] = "-" + token
    elif how == 4:
        del argv[i]
    else:
        argv.insert(i, "--bogus")
    return argv


def _summand(rng: random.Random) -> str:
    """One summand, often malformed: odd numbers, an unknown type letter,
    or one piece of the ``DIMxSA*SB:T`` syntax missing."""
    numbers = ["1", "1", "2", "3", "0", "-1", "x", ""]
    dim, a, b = (rng.choice(numbers) for _ in range(3))
    pieces = [dim, "x", "S", a, "*", "S", b, ":", rng.choice("OOSSPPQo")]
    if rng.random() < 0.3:
        del pieces[rng.choice((1, 2, 4, 5, 7))]
    return "".join(pieces)


def _wavefront(rng: random.Random) -> list[str]:
    target = rng.choice(["SO5", "Sp4", "SO6", "SOodd", "Sp", "SOeven", "SO",
                         "Sp3", "GL3", "so5", "SO5x", " SO5", "SO0", "Sp0",
                         "SO-3", "SO100001", "SO99999999999999999999"])
    argv = ["wavefront", "--target", target]
    rank = rng.choice([None, "0", "1", "2", "-1", "x", "1.5", "50001"])
    if rank is not None:
        argv += ["--rank", rank]
    shape = ",".join(_summand(rng) for _ in range(rng.randint(1, 3)))
    if rng.random() < 0.2:
        shape = rng.choice(JUNK + [shape + ",", " , " + shape])
    argv += ["--shape", shape]
    if rng.random() < 0.3:
        argv.append("--dual")
    return argv


def _verify(rng: random.Random) -> list[str]:
    name = rng.choice(list(PROPERTIES) + ["", "no_such_law", "CHAIN", "chain "])
    argv = ["verify", name]
    if rng.random() < 0.5:
        argv = _corrupt(rng, argv)
    bound = rng.choice(["-1", "-5", "x", "1.5", "", "0", "1", "3", None])
    return argv + ([] if bound is None else ["--max", bound])


def _guarded(rng: random.Random, command: str) -> list[str]:
    """A well-formed call that a type, parity or specialness guard
    rejects, as in ``malformed_cli_case``."""
    k = rng.randint(2, 9)
    t = rng.choice("BCD")
    return {
        "transpose": ["transpose", f"{k},-{k},1"],
        "dual": ["dual", "--type", t, f"{2 * k},{2 * k - 1}"],
        "collapse": ["collapse", "--type", "C", f"{2 * k},1"],
        "waldspurger": ["waldspurger", "--pair", rng.choice(["BB", "CD", "DD"]),
                        f"{2 * k},{2 * k},1", "1"],
        "symbol": ["symbol", "--type", t, f"{k},0|1"],
        "springer": ["springer", "--type", "C", f"{2 * k + 1},2,1"],
        "wavefront": ["wavefront", "--target", "Sp", "--rank", str(k),
                      "--shape", "1xS1*S1:O"],
    }[command]


def malformed_case(rng: random.Random, command: str) -> list[str]:
    """Arguments of one call to ``command`` that is most likely an input
    error; a corruption that leaves the call valid is allowed."""
    roll = rng.random()
    if command == "verify":
        argv = _verify(rng)
    elif roll < 0.5:
        argv = _corrupt(rng, rng.choice(VALID[command]))
    elif roll < 0.8 and command == "wavefront":
        argv = _wavefront(rng)
    else:
        argv = _guarded(rng, command)
    if rng.random() < 0.2:
        argv.append("--json")
    return argv


def test_every_subcommand_is_fuzzed():
    assert sorted([*VALID, "verify"]) == sorted(COMMANDS)


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_malformed_calls_exit_cleanly(capsys, command):
    for seed in range(SEEDS_PER_COMMAND):
        argv = malformed_case(random.Random(seed), command)
        replay = f"{command} seed {seed}: {argv!r}"[:300]
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # escaped main: the fuzz failure itself
            pytest.fail(f"{replay} raised {type(exc).__name__}: {exc}")
        err = capsys.readouterr().err
        assert code in (0, 2), f"{replay} exited {code}: {err[:300]}"
        assert "Traceback" not in err, replay
