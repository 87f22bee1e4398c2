"""Regenerate the candidate pools the seeded workloads draw from.

    python3 bench/make_pools.py verify-symbolic
    python3 bench/make_pools.py verify-large

Run from the root of a checkout.  Candidates are chosen deterministically;
each is then run three times through its workload's calls (caches cleared
first) and its cost, the median summed time of those calls, is recorded,
timed as the benchmark times them: CPU time scaled to the reference speed
of speed.py.  Candidates outside the cost range are left out, and the rest
are written sorted by cost, so that a seed can draw one triple from each
cost stratum.  Costs are timings, so a regenerated pool matches the
committed one only roughly.
"""

import json
import os
import random
import signal
import statistics
import sys
from fractions import Fraction

import independent as ind
import run
import workloads as wl

SYMBOLIC_SIZES = range(9, 13)     # |F|: where check_basis uses symbolic mode
SYMBOLIC_MAX_WIDTH = 4            # at F_1 >= 5 one triple took from 0.3 s to over 20 s
SYMBOLIC_SAMPLE = 1200
# Dearer triples decide a round's time by which of them a seed draws.
SYMBOLIC_MAX_COST_S = 0.3
LARGE_SIZES = (13, 20)
LARGE_WIDTHS = (4, 5)             # F_1 = oracle variables; at 6 the oracle took 20 s or more
LARGE_PROXY = (2e4, 2e5)          # SSYT-pair count bounds; see oracle_proxy
LARGE_SAMPLE = 100
LARGE_COST_S = (0.85, 1.15)       # narrow, so that a round's median triple hangs little on the draw
REPEATS = 3                       # a candidate's cost is its median of these runs


def symbolic_candidates():
    """Every triple with 9 <= |F| <= 12, F_1 <= 4, D and E nonempty, c >= 1."""
    out = []
    for n in SYMBOLIC_SIZES:
        for F in ind.partitions(n, SYMBOLIC_MAX_WIDTH):
            for a in range(1, n):
                for D in ind.partitions(a):
                    for E in ind.partitions(n - a):
                        if (ind.contains(F, D) and ind.contains(F, E)
                                and ind.lr_count(D, E, F) >= 1):
                            out.append((D, E, F))
    return random.Random(0).sample(out, SYMBOLIC_SAMPLE)


def dimension(lam, nvars):
    """Number of semistandard tableaux of shape lam with entries <= nvars."""
    lc = ind.conj(lam)
    d = Fraction(1)
    for i, row in enumerate(lam):
        for j in range(row):
            d *= Fraction(nvars + j - i, row - j + lc[j] - i - 1)
    return int(d)


def oracle_proxy(D, E, F):
    """Size of the product the oracle expands: SSYT(D') * SSYT(E') in F_1 variables."""
    return dimension(ind.conj(D), F[0]) * dimension(ind.conj(E), F[0])


def large_candidates():
    """Random triples, 13 <= |F| <= 20, F_1 in 4..5, c >= 2, oracle proxy in range."""
    rng = random.Random(0)
    seen = set()
    while len(seen) < LARGE_SAMPLE:
        n = rng.randint(*LARGE_SIZES)
        F = rng.choice([F for F in ind.partitions(n, LARGE_WIDTHS[1])
                        if F[0] >= LARGE_WIDTHS[0]])
        a = rng.randint(1, n - 1)
        Ds = [D for D in ind.partitions(a) if ind.contains(F, D)]
        Es = [E for E in ind.partitions(n - a) if ind.contains(F, E)]
        if not Ds or not Es:
            continue
        D, E = rng.choice(Ds), rng.choice(Es)
        if (D, E, F) == wl.WORKED_EXAMPLE or ind.lr_count(D, E, F) < 2:
            continue
        if LARGE_PROXY[0] <= oracle_proxy(D, E, F) <= LARGE_PROXY[1]:
            seen.add((D, E, F))
    return sorted(seen)


POOLS = {
    "verify-symbolic": (symbolic_candidates, wl.symbolic_requests, wl.symbolic_calls,
                        (0.0, SYMBOLIC_MAX_COST_S)),
    "verify-large": (large_candidates, wl.large_requests, wl.large_calls, LARGE_COST_S),
}


def cost(lrb, clock, calls, req, hi):
    """Median summed call time of a request over REPEATS runs from cold caches.

    Infinite when a run fails, and after one run dearer than twice the cap
    or cut by the alarm.
    """
    timings = []
    for _ in range(REPEATS):
        caller = wl.Caller(clock)
        wl.reset_caches()
        caller.start_request(0)
        signal.alarm(int(3 * hi) + 2)
        try:
            calls(lrb, caller, req)
        except TooDear:
            return float("inf")
        finally:
            signal.alarm(0)
        if not caller.request_ok:
            print(f"{req.label()}: {caller.errors}", file=sys.stderr)
            return float("inf")
        timings.append(caller.request_s)
        if caller.request_s > 2 * hi:
            break
    return statistics.median(timings)


class TooDear(BaseException):
    """Raised by the alarm when a candidate runs far past the cost cap."""


def _alarm(signum, frame):
    raise TooDear()


def main(name):
    candidates, make_requests, calls, (lo, hi) = POOLS[name]
    sys.path.insert(0, run.SRC)
    from speed import SpeedClock
    run.cap_memory()          # a candidate that blows up fails instead
    lrb = run.import_lrbasis()
    signal.signal(signal.SIGALRM, _alarm)
    clock = SpeedClock()
    rows, left_out = [], 0
    for D, E, F in candidates():
        [req] = make_requests(lrb, [(D, E, F)], random.Random(0))
        c = cost(lrb, clock, calls, req, hi)
        if lo <= c <= hi:
            rows.append([list(D), list(E), list(F), len(req.tableaux), round(1000 * c, 1)])
        else:
            left_out += 1
        print(f"{req.label()}: {1000 * c:.1f} ms", file=sys.stderr)
    rows.sort(key=lambda r: r[4])
    path = os.path.join(wl.HERE, "pools", f"{name}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    write_pool(path, {"workload": name, "command": f"python3 bench/make_pools.py {name}",
                      "cost_ms": "median summed call time of one request over three runs, "
                                 "in CPU time scaled to the reference speed of speed.py",
                      "cost_range_s": [lo, hi], "candidates": len(rows) + left_out,
                      "left_out_for_cost": left_out, "triples": rows})


def write_pool(path, pool):
    """JSON with one [D, E, F, tableaux, cost_ms] row per line."""
    head = {k: v for k, v in pool.items() if k != "triples"}
    with open(path, "w") as fh:
        fh.write(json.dumps(head, indent=1)[:-2] + ',\n "triples": [\n')
        fh.write(",\n".join(json.dumps(row) for row in pool["triples"]))
        fh.write("\n ]\n}\n")


if __name__ == "__main__":
    if len(sys.argv) != 2 or sys.argv[1] not in POOLS:
        sys.exit(f"usage: python3 bench/make_pools.py {{{'|'.join(POOLS)}}}")
    if os.environ.get("PYTHONHASHSEED") != run.HASH_SEED:
        # Costs are measured with the hash seed the benchmark runs with.
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  dict(os.environ, PYTHONHASHSEED=run.HASH_SEED))
    main(sys.argv[1])
