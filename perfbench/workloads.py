"""Inputs, operations and output checks of the three benchmark workloads.

Every operation goes through gpaley's public functions and is checked
against a value stored here or in gpaley's published-bound table:

  scan     the ten published zero searches, cross-checks on; the k=4, m=4
           range runs to 20000 instead of 6306.
  large-q  nine single clique counts, each built the way ``gpaley cliques``
           builds it (field construction, then ``clique_count``).
  paper    ``verify.run_suite("paper")``, the work of ``gpaley verify --paper``.

The seed feeds ``search_zeros(seed=)``, ``run_suite(seed=)`` and the three
seeded large-q primes: each is the first admissible prime at or after a
seeded offset inside a fixed band, so the size of the work does not depend
on the seed.  ``EXPECTED`` holds the count of every prime a band can yield;
``derive_constants.py`` recomputes the table without gpaley's count routes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

WORKLOADS = ("scan", "large-q", "paper")


@dataclass(frozen=True)
class Band:
    """Primes q = 1 (mod 2k) picked from [lo, lo + width) by seed."""
    label: str
    lo: int
    width: int
    k: int
    m: int
    method: str

    def pick(self, offset: int) -> int:
        from gpaley.finite_field import is_prime

        q = self.lo + offset
        while not (is_prime(q) and q % (2 * self.k) == 1):
            q += 1
        return q

    def candidates(self) -> list[int]:
        return sorted({self.pick(off) for off in range(self.width)})


# the nine large-q counts in run order: (label, q, k, m, method) or a band
LARGE_Q = (
    ("GF(2^16) k=15", 65536, 15, 4, "auto"),
    ("GF(2^14) k=3", 16384, 3, 4, "auto"),
    ("GF(3^8) k=2", 6561, 2, 4, "auto"),
    ("GF(7^5) k=3", 16807, 3, 4, "auto"),
    ("GF(3^10) k=2", 59049, 2, 4, "auto"),
    Band("prime~30000 k=2", 30000, 400, 2, 4, "auto"),
    Band("prime~100000 k=6 K3", 100000, 1000, 6, 3, "auto"),
    ("thm2 k=6 witness", 3457, 6, 4, "thm2"),
    Band("thm2 prime~7200 k=6", 7200, 200, 6, 4, "thm2"),
)

# the k=4, m=4 zeros up to 20000, as the seed code finds them
K4M4_ZEROS = [9, 17, 25, 41, 73, 81, 89, 97, 169, 233, 281, 313, 337, 353, 457]
SCAN_K4M4_QMAX = 20000
SCAN_MARGIN = 40

# (q, k, m) -> clique count, from derive_constants.py
EXPECTED = {
    (65536, 15, 4): 37222481920,
    (16384, 3, 4): 4440546181120,
    (6561, 2, 4): 1202902531740,
    (16807, 3, 4): 4844868426405,
    (59049, 2, 4): 7912600177561200,
    (3457, 6, 4): 0,
    (30013, 2, 4): 527889132674580,
    (30029, 2, 4): 529050640478125,
    (30089, 2, 4): 533232203048000,
    (30097, 2, 4): 533828295530640,
    (30109, 2, 4): 534697740583253,
    (30113, 2, 4): 534926493654080,
    (30133, 2, 4): 536403397936455,
    (30137, 2, 4): 536678644821440,
    (30161, 2, 4): 538412395456390,
    (30169, 2, 4): 538979215438275,
    (30181, 2, 4): 539834321534895,
    (30197, 2, 4): 540974238070420,
    (30241, 2, 4): 544130362269900,
    (30253, 2, 4): 545015893123040,
    (30269, 2, 4): 546101788212750,
    (30293, 2, 4): 547845632598675,
    (30313, 2, 4): 549283108798305,
    (30341, 2, 4): 551335675749650,
    (30389, 2, 4): 554878815884675,
    (30449, 2, 4): 559256624665200,
    (100057, 6, 3): 755853390996,
    (100069, 6, 3): 737676245644,
    (100129, 6, 3): 817931372104,
    (100153, 6, 3): 777922803632,
    (100189, 6, 3): 793538759002,
    (100213, 6, 3): 786666037220,
    (100237, 6, 3): 761924491510,
    (100297, 6, 3): 797765346910,
    (100333, 6, 3): 785754879510,
    (100357, 6, 3): 763749887810,
    (100393, 6, 3): 801252997452,
    (100417, 6, 3): 789872088640,
    (100501, 6, 3): 802977864750,
    (100537, 6, 3): 803553232644,
    (100549, 6, 3): 799251734022,
    (100609, 6, 3): 834227291584,
    (100621, 6, 3): 830770243030,
    (100669, 6, 3): 738103698634,
    (100693, 6, 3): 766056233120,
    (100741, 6, 3): 794977453300,
    (100801, 6, 3): 770240601200,
    (100957, 6, 3): 786499249166,
    (100981, 6, 3): 790838760360,
    (101089, 6, 3): 754210472184,
    (7213, 6, 4): 606901820,
    (7237, 6, 4): 1352812410,
    (7297, 6, 4): 3904186880,
    (7309, 6, 4): 1735960590,
    (7321, 6, 4): 6307956625,
    (7333, 6, 4): 537655560,
    (7369, 6, 4): 4988334015,
    (7393, 6, 4): 3370025120,
    (7417, 6, 4): 1558460040,
}


def large_q_inputs(seed: int) -> list[tuple[str, int, int, int, str]]:
    """The nine (label, q, k, m, method) counts of the large-q workload."""
    rng = random.Random(seed)
    return [(c.label, c.pick(rng.randrange(c.width)), c.k, c.m, c.method)
            if isinstance(c, Band) else c for c in LARGE_Q]


# ---------------------------------------------------------------------------
# operations: each returns [(label, correct, units)]; a raise fails the op.
# gpaley functions are looked up on their module at call time, so that the
# tracer's wrappers, installed after set-up, are the ones called.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Op:
    label: str
    rows: int                       # rows the op reports, charged in full if it raises
    run: Callable[[], list[tuple[str, bool, int]]]


class PartialSearch(Exception):
    """search_zeros kept a completed prefix after a per-q failure."""


def _scan_op(k: int, m: int, q_max: int, qs: list[int], seed: int) -> Op:
    from gpaley import ramsey_search

    label = f"search k={k} m={m} q<={q_max}"
    bound = ramsey_search.PAPER_BOUNDS[(m, k)][0]

    def run():
        rep = ramsey_search.search_zeros(k, m, q_max, seed=seed)
        if rep.partial:
            raise PartialSearch(rep.error)
        ok = [r.q for r in rep.records] == qs and rep.bound == bound
        if (m, k) == (4, 4):
            ok = ok and rep.zero_qs == K4M4_ZEROS
        return [(label, ok, len(qs))]
    return Op(label, 1, run)


def _count_op(label: str, q: int, k: int, m: int, method: str) -> Op:
    from gpaley import finite_field, paley_graph

    def run():
        p, r = finite_field.split_prime_power(q)
        ctx = finite_field.build_field(p, r)
        count = paley_graph.clique_count(ctx, k, m, method=method).count
        return [(f"{label} q={q}", count == EXPECTED[(q, k, m)], 1)]
    return Op(f"{label} q={q}", 1, run)


PAPER_CHECKS = 18


def _paper_op(seed: int) -> Op:
    from gpaley import verify

    def run():
        return [(res.name, res.passed, 1)
                for res in verify.run_suite("paper", seed=seed)]
    return Op("verify --paper", PAPER_CHECKS, run)


def make_ops(workload: str, seed: int) -> list[Op]:
    """Set-up: the workload's inputs, generated from the seed."""
    if workload == "scan":
        from gpaley.ramsey_search import PAPER_BOUNDS, STATED_QMAX, admissible_q
        ops = []
        for m in (4, 3):
            for k in range(2, 7):
                witness = PAPER_BOUNDS[(m, k)][1]
                q_max = STATED_QMAX.get((m, k), witness + SCAN_MARGIN)
                if (m, k) == (4, 4):
                    q_max = SCAN_K4M4_QMAX
                ops.append(_scan_op(k, m, q_max, admissible_q(k, q_max), seed))
        return ops
    if workload == "large-q":
        return [_count_op(*row) for row in large_q_inputs(seed)]
    if workload == "paper":
        return [_paper_op(seed)]
    raise ValueError(f"unknown workload {workload!r}")
