"""Seeded inputs for the three benchmark workloads.

A workload is a stream of passes, a pass is a list of jobs, and a job is a
short pipeline of ``heffter`` CLI requests on one array: construct, verify,
then either verify a mutated copy (certify) or develop and join the cycle
systems (cycles).  Pass ``i`` of seed ``s`` is always the same list, so an
untraced and a traced run replay identical inputs.

In certify and cycles every slot of a pass has a fixed amount of work, so a
seed changes which arrays are built but hardly how much a pass costs; that
keeps per-run medians comparable across seeds.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

WORKLOADS = ("certify", "merge-search", "cycles")
MUTATIONS = ("swap", "flip", "move")

# Verification is O(n^2 k), about a fifth slower per n*n*k on the
# globally-simple level (h4p) than on the support-shifted one, so each
# certify slot fixes its family and targets one value of n*n*k.
CERTIFY_SLOTS = (("shifted", 550_000), ("h4p", 1_100_000))
CERTIFY_N = (150, 400)

# Orders of the merge-search pass: two seeded p each, all succeed quickly
# except where the search itself is slow (n=20) or exhausts its budget (n=45).
MERGE_ORDERS = (16, 17, 21, 28, 29, 41)
MERGE_SLOW = 20
MERGE_FAILING = 45

# Cycles slots by modulus M = 8np+1: (target M, admissible p).  At a fixed
# M the time hardly depends on p, since every system has M(M-1)/2 edges.
CYCLES_SLOTS = ((289, (3,)), (673, (3, 4)), (961, (3, 4, 5)))


@dataclass(frozen=True)
class Job:
    """One array and the requests run on it.

    ``construct`` and ``verify`` are CLI arguments without the file paths,
    which the runner fills in.
    """

    construct: tuple[str, ...]
    verify: tuple[str, ...]
    mutation: str | None = None
    mutation_seed: int = 0
    cycles: bool = False


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def _args(*pairs) -> tuple[str, ...]:
    return tuple(str(v) for v in pairs)


def _certify_job(family: str, n: int, p: int, gamma: int | None, rng: random.Random,
                 alpha: int | None = None) -> Job:
    construct = _args("--family", family, "--n", n, "--p", p)
    if family == "shifted":
        construct += _args("--gamma", gamma)
        if alpha is not None:
            construct += _args("--alpha", alpha)
        verify = _args("--level", "support-shifted", "--p", p, "--gamma", gamma)
    else:
        verify = ("--level", "globally-simple")
    return Job(construct, verify, rng.choice(MUTATIONS), rng.randrange(2**31))


def certify_pass(seed: int, index: int) -> list[Job]:
    rng = _rng("certify", seed, index)
    lo, hi = CERTIFY_N
    # the golden H(17;12,3) rides along so its bytes are checked every pass
    jobs = [_certify_job("shifted", 17, 3, 3, rng, alpha=6)]
    for family, work in CERTIFY_SLOTS:
        ps = [p for p in (range(3, 7) if family == "h4p" else range(1, 5))
              if lo * lo * 4 * p <= work <= hi * hi * 4 * p]
        p = rng.choice(ps)
        n = min(hi, max(lo, round(math.sqrt(work / (4 * p))) + rng.randint(-2, 2)))
        gamma = rng.randint(1, 4) if family == "shifted" else None
        jobs.append(_certify_job(family, n, p, gamma, rng))
    return jobs


def merge_pass(seed: int, index: int) -> list[Job]:
    rng = _rng("merge-search", seed, index)
    pairs = [(n, p) for n in MERGE_ORDERS
             for p in sorted(rng.sample(range(1, (n - 3) // 4 + 1), 2))]
    pairs += [(n, rng.randint(1, (n - 3) // 4)) for n in (MERGE_SLOW, MERGE_FAILING)]
    rng.shuffle(pairs)
    return [Job(_args("--family", "h4p3", "--n", n, "--p", p), ("--level", "globally-simple"))
            for n, p in pairs]


def cycles_pass(seed: int, index: int) -> list[Job]:
    rng = _rng("cycles", seed, index)
    simple = ("--level", "globally-simple")
    jobs = [
        # n=17 reproduces the golden H(17;12) on even passes and H(17;16) on
        # odd ones, and H(17;15) is the merged array
        Job(_args("--family", "h4p", "--n", 17, "--p", 3 + index % 2), simple, cycles=True),
        Job(_args("--family", "h4p3", "--n", 17, "--p", 3, "--alpha", 8), simple, cycles=True),
    ]
    for modulus, ps in CYCLES_SLOTS:
        p = rng.choice(ps)
        n = round((modulus - 1) / (8 * p))
        jobs.append(Job(_args("--family", "h4p", "--n", n, "--p", p), simple, cycles=True))
    rng.shuffle(jobs)
    return jobs


PASSES = {"certify": certify_pass, "merge-search": merge_pass, "cycles": cycles_pass}


def make_pass(workload: str, seed: int, index: int) -> list[Job]:
    return PASSES[workload](seed, index)


def mutate(text: str, kind: str, seed: int) -> str:
    """A grid file with one defect that every verification level must catch.

    ``swap`` exchanges two entries of a row (breaking two column sums),
    ``flip`` negates one entry (breaking its row and column sums) and
    ``move`` moves an entry to an empty cell of its row (breaking two
    column fill counts).  Works on the text alone, without ``heffter``.
    """
    rng = random.Random(seed)
    header, *rows = text.splitlines()
    fields = [row.split(",") for row in rows]
    candidates = [i for i, row in enumerate(fields)
                  if sum(1 for f in row if f) >= 2 and (kind != "move" or "" in row)]
    if not candidates:
        raise ValueError(f"no row admits a {kind} mutation")
    i = rng.choice(candidates)
    row = fields[i]
    filled = [j for j, f in enumerate(row) if f]
    if kind == "swap":
        a, b = rng.sample(filled, 2)
        row[a], row[b] = row[b], row[a]
    elif kind == "flip":
        j = rng.choice(filled)
        row[j] = row[j][1:] if row[j].startswith("-") else "-" + row[j]
    elif kind == "move":
        j = rng.choice(filled)
        e = rng.choice([j for j, f in enumerate(row) if not f])
        row[e], row[j] = row[j], ""
    else:
        raise ValueError(f"unknown mutation {kind!r}")
    return "\n".join([header] + [",".join(r) for r in fields]) + "\n"
