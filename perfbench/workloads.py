"""The three benchmark workloads: what each runs and how it is seeded.

corpus               run_corpus(seed) over the 112 corpus rings, 15 criteria.
queries-tabulated    one-shot CLI queries on rings of 64..1024 elements, where
                     the numpy operation tables are built.
queries-untabulated  the same command mix on rings of 1025..4096 elements,
                     where tables() returns None and every scan is scalar.

A query workload runs its pool once per pass, in an order shuffled by the
seed.  Probes are queries known at the recorded commit to need more than
twice the workload's time cap; they are recorded as timed out, never hidden.
Every other pool query finishes in under half the cap.  The probes run in
the first pass only: at the cap they give the same latency every time, so
repeating them would spend run time on no new sample.

This module imports nothing from unitlift, so the parent process that only
spawns workers stays light.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

CORPUS = "corpus"
TABULATED = "queries-tabulated"
UNTABULATED = "queries-untabulated"
WORKLOADS = (CORPUS, TABULATED, UNTABULATED)

# run_corpus seeds with recorded expectations; a benchmark seed S runs
# corpus seed S % CORPUS_SEEDS
CORPUS_SEEDS = 16
# time of one pass without the probes at the recorded commit (seconds), on
# the machine the benchmark was built on
PASS_S = {CORPUS: 10.0, TABULATED: 12.5, UNTABULATED: 13.5}

# per-operation time caps (seconds); the corpus cap bounds one whole pass
CAP_S = {CORPUS: 40.0, TABULATED: 1.0, UNTABULATED: 1.75}
# a traced pass is slower, so its caps are this many times longer; small
# enough that every probe still times out, so cli.timeouts repeats exactly
TRACED_CAP_FACTOR = 1.5


@dataclass(frozen=True)
class Query:
    argv: tuple[str, ...]
    probe: bool = False

    @property
    def key(self) -> str:
        return " ".join(self.argv)

    @property
    def spec(self) -> str:
        return self.argv[1] if self.argv[0] == "decompose" else self.argv[2]


def ring_kind(spec: str) -> str:
    for prefix, kind in (("Z/", "modular"), ("GF(", "polynomialQuotient"),
                         ("prod(", "product"), ("quot(", "quotient")):
        if spec.startswith(prefix):
            return kind
    raise ValueError(f"unknown spec kind: {spec}")


ALL_COMMANDS = ("ring-info", "ring-ideals", "star-ring", "star-check",
                "rho-table", "decompose", "gl-lift")


def _ring(spec, ideal=None, element=None, kernel=None, matrix=None,
          only=ALL_COMMANDS, probe=False) -> list[Query]:
    """Queries on one ring: each command in `only` whose arguments are given."""
    argvs = {
        "ring-info": ("ring", "info", spec),
        "ring-ideals": ("ring", "ideals", spec),
        "star-ring": ("star", "ring", spec),
        "star-check": ("star", "check", spec, "--ideal", ideal),
        "rho-table": ("rho", "table", spec),
        "decompose": ("decompose", spec, element),
        "gl-lift": ("gl", "lift", spec, kernel, "--matrix", matrix),
    }
    return [Query(argvs[c], probe) for c in only if None not in argvs[c]]


def _tuple(*parts) -> str:
    return "(" + ",".join(str(p) for p in parts) + ")"


def _unit_matrix(zero: str, one: str, other: str) -> str:
    """[[1, other], [0, 1]]: determinant 1, so invertible mod any ideal."""
    return f"{one},{other};{zero},{one}"


_INT = _unit_matrix("0", "1", "2")
_POLY = _unit_matrix("0", "1", "x")


def _prod_matrix(k: int) -> str:
    return _unit_matrix(_tuple(*[0] * k), _tuple(*[1] * k), _tuple(1, *[0] * (k - 1)))


def _z2_power(k: int) -> str:
    return "prod(" + ",".join(["Z/2"] * k) + ")"


def tabulated_pool() -> list[Query]:
    q = []
    # modular
    for n, ideal, element, kernel in ((64, 4, 6, 2), (128, 8, 6, 2), (360, 6, 10, 30),
                                      (720, 12, 10, 30), (1000, 10, 12, 10),
                                      (1024, 8, 6, 2)):
        q += _ring(f"Z/{n}", str(ideal), str(element), str(kernel), _INT)
    # polynomial quotients: local, field, and split moduli
    for spec, ideal, element, kernel in (
            ("GF(2)[x]/(x^6)", "x^2", "x+1", "x"),
            ("GF(2)[x]/(x^7)", "x^3", "x^2+1", "x"),
            ("GF(2)[x]/(x^7+x+1)", "0", "x^2+1", "0"),
            ("GF(2)[x]/(x^7+x^6)", "x", "x+1", "x^2+x"),
            ("GF(3)[x]/(x^4)", "x^2", "x+2", "x"),
            ("GF(5)[x]/(x^3)", "x", "x+2", "x"),
            ("GF(11)[x]/(x^2)", "x", "x+2", "x")):
        q += _ring(spec, ideal, element, kernel, _POLY)
    # products
    for factors, ideal, element, kernel, only in (
            (["Z/2"] * 6, (1, 0, 0, 0, 0, 0), (1, 1, 0, 0, 0, 0), (0,) * 6, ALL_COMMANDS),
            (["Z/2"] * 7, (1,) + (0,) * 6, (1, 1) + (0,) * 5, (0,) * 7,
             ("ring-info", "star-check", "rho-table", "decompose", "gl-lift")),
            # its lattice is a probe below; the other commands stay cheap
            (["Z/2"] * 8, (1,) + (0,) * 7, (1, 1) + (0,) * 6, (0,) * 8,
             ("ring-info", "star-check", "rho-table", "decompose", "gl-lift")),
            (["Z/3"] * 4, (1, 0, 0, 0), (2, 1, 0, 0), (0,) * 4, ALL_COMMANDS),
            (["Z/8", "Z/8", "Z/2"], (2, 0, 0), (2, 1, 0), (2, 2, 0), ALL_COMMANDS),
            (["Z/4"] * 4, (2, 0, 0, 0), (2, 1, 0, 0), (2, 2, 2, 2), ALL_COMMANDS),
            (["Z/4", "GF(2)[x]/(x^3)", "Z/9"], (2, 0, 0), (2, "x", 1), (2, "x", 3),
             ALL_COMMANDS),
            (["GF(2)[x]/(x^4)", "Z/16"], ("x", 0), ("x", 1), ("x", 2), ALL_COMMANDS),
            # its lattice is a probe below; the other commands stay cheap
            (["Z/8", "Z/8", "Z/8", "Z/2"], (2, 0, 0, 0), (2, 1, 0, 0), (2, 2, 2, 0),
             ("ring-info", "star-check", "rho-table", "decompose", "gl-lift"))):
        spec = "prod(" + ",".join(factors) + ")"
        q += _ring(spec, _tuple(*ideal), _tuple(*element), _tuple(*kernel),
                   _prod_matrix(len(factors)), only)
    # quotient specs
    q += _ring("quot(Z/1024;256)", "8", "6", "2", _INT)
    q += _ring("quot(Z/720;120)", "12", "10", "30", _INT)
    q += _ring("quot(GF(2)[x]/(x^7);x^6)", "x^2", "x+1", "x", _POLY)
    q += _ring("quot(prod(Z/8,Z/8,Z/4);(4,0,0))", "(2,0,0)", "(2,1,0)", "(2,2,2)",
               _prod_matrix(3))
    # probes: the ideal-lattice and table-build cliffs of the tabulated path
    q += _ring("prod(Z/8,Z/8,Z/8,Z/2)", only=("ring-ideals",), probe=True)
    q += _ring(_z2_power(8), only=("ring-ideals",), probe=True)
    q += _ring(_z2_power(10), only=("ring-ideals",), probe=True)
    q += _ring("GF(5)[x]/(x^4)", "x^2", only=("star-check",), probe=True)
    q += _ring("GF(3)[x]/(x^6)", only=("ring-info",), probe=True)
    q += _ring("GF(2)[x]/(x^10)", only=("rho-table",), probe=True)
    # a quotient whose parent's 512-element table is the cost
    q += _ring("quot(GF(2)[x]/(x^9);x^7)", only=("ring-info",), probe=True)
    return q


def untabulated_pool() -> list[Query]:
    q = []
    q += _ring("Z/1031", "0", "5", "0", _INT,
               only=("ring-ideals", "star-ring", "rho-table", "decompose", "gl-lift"))
    q += _ring("Z/1089", "3", "5", "33", _INT,
               only=("ring-info", "ring-ideals", "star-check", "rho-table", "decompose",
                     "gl-lift"))
    for n, ideal, element, kernel in ((1250, "5", "6", "10"), (1331, "11", "5", "11")):
        q += _ring(f"Z/{n}", ideal, element, kernel, _INT,
                   only=("ring-ideals", "star-check", "decompose", "gl-lift"))
    q += _ring("Z/2048", None, "6", "2", _INT,
               only=("ring-info", "rho-table", "decompose", "gl-lift"))
    q += _ring("Z/4096", None, "6", only=("ring-info", "rho-table", "decompose"))
    q += _ring("GF(37)[x]/(x^2)", None, "x+2", "x", _POLY,
               only=("ring-info", "decompose", "gl-lift"))
    q += _ring("GF(11)[x]/(x^3)", None, "x+2", "x", _POLY,
               only=("ring-info", "rho-table", "decompose", "gl-lift"))
    q += _ring("prod(Z/33,Z/35)", element="(3,5)", only=("decompose",))
    q += _ring("prod(Z/3,Z/5,Z/71)", element="(1,1,0)", only=("decompose",))
    q += _ring("prod(Z/32,Z/33)", None, "(2,1)", "(2,0)", _prod_matrix(2),
               only=("decompose", "gl-lift"))
    q += _ring("prod(GF(2)[x]/(x^5),Z/33)", None, "(x,1)", "(x,0)", _prod_matrix(2),
               only=("decompose", "gl-lift"))
    q += _ring("quot(Z/4096;2048)", None, "6", only=("ring-info", "rho-table", "decompose"))
    # more rings whose queries take 0.1-0.5 s, so the latency quantiles
    # fall among many queries instead of in a gap between few
    for n, ideal, kernel, only in ((2197, "13", None, ("star-check",)),
                                   (1849, "43", None, ("star-check",)),
                                   (2187, None, "3", ("gl-lift",)),
                                   (3125, None, "5", ("gl-lift",)),
                                   (2310, None, None, ("rho-table",))):
        q += _ring(f"Z/{n}", ideal, kernel=kernel, matrix=_INT, only=only)
    q += _ring("GF(13)[x]/(x^3)", element="x+2", only=("decompose",))
    q += _ring("GF(41)[x]/(x^2)", None, "x+2", "x", _POLY, only=("decompose", "gl-lift"))
    q += _ring("prod(Z/9,Z/128)", None, "(2,1)", "(3,0)", _prod_matrix(2),
               only=("ring-info", "rho-table", "decompose", "gl-lift"))
    q += _ring("prod(Z/25,Z/49)", None, "(2,1)", "(5,0)", _prod_matrix(2),
               only=("decompose", "gl-lift"))
    q += _ring("prod(Z/3,Z/5,Z/7,Z/11)", element="(1,1,0,0)", only=("decompose",))
    # the ideal-enumeration guard refuses this one with exit 65
    q += _ring("Z/8192", only=("ring-ideals",))
    # probes: scalar scans far above the cap
    q += _ring("GF(2)[x]/(x^11)", "x^3", only=("star-check",), probe=True)
    q += _ring("Z/4096", "2048", only=("star-check",), probe=True)
    q += _ring("prod(Z/33,Z/35)", only=("ring-info",), probe=True)
    return q


def pool(workload: str) -> list[Query]:
    if workload == TABULATED:
        return tabulated_pool()
    if workload == UNTABULATED:
        return untabulated_pool()
    raise ValueError(f"{workload} is not a query workload")


def passes(workload: str, seconds: float) -> int:
    """How many passes a run of `seconds` makes: as many as fit at the
    recorded speed, with the probes at the cap.  The count depends on
    --seconds only, not on the machine's speed, so every run of a workload
    has the same composition and error_rate repeats exactly."""
    probes = 0.0
    if workload != CORPUS:
        probes = CAP_S[workload] * sum(q.probe for q in pool(workload))
    return max(1, round((seconds - probes) / PASS_S[workload]))


def pass_order(workload: str, seed: int, pass_index: int) -> list[Query]:
    """The queries one pass runs, in its order; the same seed gives the same
    list.  The probes run in pass 0 only."""
    queries = [q for q in pool(workload) if pass_index == 0 or not q.probe]
    random.Random(f"{workload}:{seed}:{pass_index}").shuffle(queries)
    return queries


def corpus_seed(seed: int) -> int:
    return seed % CORPUS_SEEDS


def tail_percentile(pass_samples: int) -> int:
    """Highest whole percentile with at least ten of one pass's samples
    beyond it, or 100 (the slowest sample) when a pass has too few.

    Taken per pass, so it does not change with the number of passes and
    stays below the probes, whose latencies all read the cap."""
    return int(100 * (1 - 10 / pass_samples)) if pass_samples > 10 else 100
