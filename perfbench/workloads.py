"""Request lists for the lcforge benchmark, generated from a workload seed.

A request is one `lcforge` command line plus what the checker needs to
judge its output: the packed period value the benchmark drew (so the
check never trusts the parse under test) and the parameters of the
query.  The program only ever sees the argv.

Every workload sends one small request of each kind besides its heavy
ones (`_coverage`), so every layer does some work, and so reports a
non-zero figure, on every workload.  The heavy requests are what the
workload is about; the reasons are in README.md.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# (k, class) pairs that have a closed form; verify and count use them.
FORMULA_PAIRS = (
    (1, "full"),
    (2, "less"),
    (2, "full"),
    (2, "all"),
    (3, "less"),
    (3, "full"),
    (3, "all"),
    (4, "full"),
)

# At n=14 the closed-form counts pass Python's 4300-digit int-to-str
# limit from L = 14219 on, and `count` dies with a traceback (see
# defects.py).  The timed workload keeps n=14 for its cost and draws L
# below this cap, so that no timed request fails.
COUNT_N14_MAX_L = 3 << 12


@dataclass(frozen=True)
class Request:
    """One command line and the facts its check needs."""

    kind: str
    argv: tuple[str, ...]
    fmt: str
    n: int = 0
    k: int = 0
    seq_class: str = "all"
    value: int = 0  # packed period, bit i = position i (lc, kerr, profile)
    L: int = 0  # count
    samples: int = 0  # sampled census; 0 for exhaustive


def _draw(rng: random.Random, n: int, parity: int, min_weight: int = 1) -> int:
    """A random period of 2^n bits whose weight has the given parity."""
    period = 1 << n
    while True:
        value = rng.getrandbits(period)
        if value.bit_count() & 1 != parity:
            value ^= 1 << rng.randrange(period)
        if value.bit_count() >= min_weight:
            return value


def _bits(value: int, n: int) -> str:
    return format(value, f"0{1 << n}b")[::-1]


def _hex(value: int, n: int) -> str:
    # position 0 is the most significant bit of the hex number
    return format(int(_bits(value, n), 2), f"0{(1 << n) // 4}x")


def _sequence(kind, n, value, fmt, use_hex=False, extra=(), **fields):
    text = ("--hex", _hex(value, n)) if use_hex else ("--bits", _bits(value, n))
    argv = (kind, "--n", str(n), *text, *extra, "--format", fmt)
    return Request(kind, argv, fmt, n=n, value=value, **fields)


def lc(rng, n, fmt, use_hex=False):
    return _sequence("lc", n, _draw(rng, n, rng.getrandbits(1)), fmt, use_hex)


def kerr(rng, n, k, parity, fmt):
    value = _draw(rng, n, parity, min_weight=k + 1)
    return _sequence("kerr", n, value, fmt, extra=("--k", str(k)), k=k)


def profile(rng, n, kmax, parity, fmt):
    value = _draw(rng, n, parity, min_weight=kmax + 1)
    return _sequence("profile", n, value, fmt, extra=("--kmax", str(kmax)), k=kmax)


def count(n, k, seq_class, L, fmt):
    argv = (
        "count", "--n", str(n), "--k", str(k), "--class", seq_class,
        "--L", str(L), "--format", fmt,
    )
    return Request("count", argv, fmt, n=n, k=k, seq_class=seq_class, L=L)


def census(n, k, seq_class, fmt, jobs, samples=0, seed=0):
    argv = ["census", "--n", str(n), "--k", str(k), "--class", seq_class]
    if samples:
        argv += ["--mode", "sampled", "--samples", str(samples), "--seed", str(seed)]
    argv += ["--jobs", str(jobs), "--format", fmt]
    return Request(
        "census", tuple(argv), fmt, n=n, k=k, seq_class=seq_class, samples=samples
    )


def smallest_census(jobs):
    """The n=4 k=1 census every workload sends; it measures pool overhead."""
    return census(4, 1, "full", "csv", jobs)


def verify(n, k, seq_class, fmt, jobs):
    argv = (
        "verify", "--n", str(n), "--k", str(k), "--class", seq_class,
        "--jobs", str(jobs), "--format", fmt,
    )
    return Request("verify", argv, fmt, n=n, k=k, seq_class=seq_class)


def refute(fmt, jobs):
    return Request("refute", ("refute", "--jobs", str(jobs), "--format", fmt), fmt)


def _coverage(rng, jobs, skip=()):
    """One small request per kind, minus the kinds the workload already has."""
    k, seq_class = rng.choice(FORMULA_PAIRS)
    small = {
        "lc": lambda: lc(rng, 8, "table"),
        "kerr": lambda: kerr(rng, 4, 2, 0, "table"),
        "profile": lambda: profile(rng, 4, 3, 0, "table"),
        "count": lambda: count(10, k, seq_class, rng.randrange(1025), "table"),
        "census": lambda: smallest_census(jobs),
        "verify": lambda: verify(3, 2, "less", "table", jobs),
        "refute": lambda: refute("json", jobs),
    }
    return [make() for kind, make in small.items() if kind not in skip]


def _single(rng, jobs):
    reqs = [
        lc(rng, 18, "json"),
        lc(rng, 18, "table", use_hex=True),
        lc(rng, 20, "json"),
        lc(rng, 20, "csv", use_hex=True),
    ]
    # (n, k, weight parity): brute-force cost swings by orders of
    # magnitude with parity, so both are present at fixed sizes.
    for n, k, parity, fmt in (
        (4, 2, 0, "json"),
        (7, 1, 1, "json"),
        (7, 2, 0, "json"),
        (6, 3, 1, "json"),
        (8, 2, 0, "table"),
        (8, 3, 0, "json"),
        (9, 2, 0, "json"),
        (10, 1, 1, "csv"),
        (10, 2, 0, "json"),
        (11, 2, 1, "json"),
        (12, 1, 1, "json"),
        (12, 2, 1, "table"),
    ):
        reqs.append(kerr(rng, n, k, parity, fmt))
    reqs.append(profile(rng, 6, 4, 0, "json"))
    reqs.append(profile(rng, 6, 4, 1, "table"))
    return reqs + _coverage(rng, jobs, skip={"lc", "kerr", "profile"})


def _exhaustive(rng, jobs):
    reqs = [
        smallest_census(jobs),
        census(4, 2, "all", "json", jobs),
        census(4, 3, "less", "json", jobs),
        census(4, 4, "all", "json", jobs),
        census(4, 4, "less", "table", jobs),
    ]
    for i, (k, seq_class) in enumerate(FORMULA_PAIRS):
        reqs.append(verify(4, k, seq_class, "table" if i == 0 else "json", jobs))
    reqs.append(refute("json", jobs))
    reqs.append(refute("table", jobs))
    # L spread over thirds of [0, 2^n] so the high-L region is always in.
    for n in (12, 13, 14):
        top = COUNT_N14_MAX_L if n == 14 else 1 << n
        for third in range(3):
            lo, hi = top * third // 3, top * (third + 1) // 3
            k, seq_class = rng.choice(FORMULA_PAIRS)
            fmt = ("json", "table", "csv")[third]
            reqs.append(count(n, k, seq_class, rng.randint(lo, hi), fmt))
    return reqs + _coverage(rng, jobs, skip={"census", "verify", "refute", "count"})


def _sampled(rng, jobs):
    def seed():
        return rng.getrandbits(32)

    reqs = [
        census(5, 4, "all", "json", jobs, samples=256, seed=seed()),
        census(5, 2, "all", "json", jobs, samples=32768, seed=seed()),
        census(5, 2, "less", "csv", jobs, samples=16384, seed=seed()),
        census(5, 3, "full", "table", jobs, samples=1024, seed=seed()),
    ]
    return reqs + _coverage(rng, jobs)


WORKLOADS = {"single": _single, "exhaustive": _exhaustive, "sampled": _sampled}


def build(workload: str, seed: int, jobs: int) -> list[Request]:
    """The request list of `workload` for `seed`; same inputs, same list."""
    rng = random.Random(f"{workload}/{seed}")
    return WORKLOADS[workload](rng, jobs)


def speedup_request(requests: list[Request]) -> Request:
    """The census a traced run repeats with one worker: the first deepest one."""
    return max((r for r in requests if r.kind == "census"), key=lambda r: r.k)
