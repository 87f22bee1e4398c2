"""lrbasis benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --self-test

Run from the root of a checkout.  The run happens in a child process with
an address-space cap, so a case that blows up is a counted failed
operation instead of exhausting the machine.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics
(end-to-end metrics when --trace 0, per-layer metrics when --trace 1).
"""

import argparse
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
MEMORY_CAP = 1536 * 2**20     # bytes of address space for the workload process
# A fixed hash seed gives every run the same dict layouts for the
# polynomials' string-keyed monomials; a random one moved a run's figures
# by a few percent from one process to the next.
HASH_SEED = "0"
SETUP_REPEATS = 7             # set-ups per run; setup_s is their median
CHILD_TIMEOUT_S = 170

sys.path.insert(0, HERE)


def parse_args(argv):
    from workloads import WORKLOADS
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"],
                    help="one workload, or all three in turn with a summary table")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inputs", action="store_true",
                    help="print the triples the seed draws for the workload and exit")
    ap.add_argument("--self-test", action="store_true",
                    help="feed every check a wrong value and confirm it fails")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    if args.inputs and args.workload == "all":
        ap.error("--inputs lists one workload's triples")
    return args


def central_median(values):
    """The median of `values`, estimated as the mean of their middle quarter.

    A single middle value jumps when the draw puts a gap between
    neighbouring triples at the median; the mean of the central quarter of
    the order statistics moves smoothly and, like the median, ignores the
    dearest and cheapest triples (of 7 triples it keeps the middle 3).
    """
    xs = sorted(values)
    n = len(xs)
    k = max(1, round(n / 4))
    k += (n - k) % 2               # centred: as many values left out below as above
    lo = (n - k) // 2
    return statistics.fmean(xs[lo:lo + k])


def cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


def run_child(args, workload, capture):
    """One workload in a capped child process: (exit code, stdout or None)."""
    argv = ["--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
    proc = subprocess.Popen([sys.executable, os.path.abspath(__file__), "--child", *argv],
                            preexec_fn=cap_memory, env=env,
                            stdout=subprocess.PIPE if capture else None, text=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"{workload}: workload process exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 3, None
    return proc.returncode, out


def run_all(args):
    """Every workload in turn, then one table of their results."""
    from workloads import WORKLOADS
    rows = []
    for name in WORKLOADS:
        rc, out = run_child(args, name, capture=True)
        sys.stdout.write(out or "")
        if rc != 0:
            return rc
        rows.append((name, json.loads(out.strip().splitlines()[-1])))
    print(f"\n{'workload':<16} {'attempted':>9} {'failed':>6}  metrics")
    for name, res in rows:
        metrics = "  ".join(f"{k}={v['value']:.5g} {v['unit']}" for k, v in res["metrics"].items())
        print(f"{name:<16} {res['attempted']:>9} {res['failed']:>6}  {metrics}")
    return 0 if all(res["correct"] and not res["failed"] for _, res in rows) else 1


def parent(args):
    """Run the workload in a capped child process and relay its output."""
    if not os.path.isfile(os.path.join(SRC, "lrbasis", "__init__.py")):
        print(f"lrbasis sources not found under {os.path.relpath(SRC)}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_child(args, args.workload, capture=False)[0]


def show_inputs(args):
    from workloads import WORKLOADS
    setup, _ = WORKLOADS[args.workload]
    for req in setup(import_lrbasis(), args.seed):
        print(f"{req.label()}  tableaux={req.own_count}")
    return 0


def import_lrbasis():
    """A fresh import of the package, dropping any earlier one."""
    for name in [n for n in sys.modules if n == "lrbasis" or n.startswith("lrbasis.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    lrb = importlib.import_module("lrbasis")
    importlib.import_module("lrbasis.cli")
    return lrb


def child(args):
    from workloads import WORKLOADS, Caller, reset_caches
    from speed import REFERENCE_S, SpeedClock
    import selftest
    setup, run_round = WORKLOADS[args.workload]
    sys.path.insert(0, SRC)

    def set_up():
        lrb = import_lrbasis()
        return lrb, setup(lrb, args.seed)

    clock = SpeedClock()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        (lrb, reqs), dt = clock.measure(set_up)
        setup_times.append(dt)

    problems = selftest.run(lrb)
    if problems:
        for p in problems:
            print(f"self-test: {p}", file=sys.stderr)
        return 1

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()

    caller = Caller(clock, tracer)
    per_round = []               # (triples done, tableaux done, busy s, latencies)
    wall0 = time.perf_counter()
    raw0 = clock.raw_s
    while not per_round or clock.raw_s - raw0 < args.seconds:
        reset_caches()
        busy0 = caller.busy_s
        done = tabs = 0
        latencies = []
        for req, runs_ok in run_round(lrb, caller, reqs, latencies):
            done += runs_ok
            tabs += runs_ok * len(req.tableaux)
        per_round.append((done, tabs, caller.busy_s - busy0, latencies))
    wall_s = time.perf_counter() - wall0
    rounds = len(per_round)

    for err in caller.errors:
        print(f"failed: {err}", file=sys.stderr)
    # Each figure is a median over rounds, so a burst of machine noise in
    # one round does not move it; a triple's latency is its median over rounds.
    triple_s = [statistics.median(lat) for lat in zip(*(r[3] for r in per_round))]
    e2e = {
        "setup_s": (statistics.median(setup_times), "s"),
        "triples_per_s": (statistics.median(d / b for d, _, b, _ in per_round), "1/s"),
        "tableaux_per_s": (statistics.median(t / b for _, t, b, _ in per_round), "1/s"),
        "triple_p50_ms": (1000 * central_median(triple_s), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: {rounds} round(s), "
          f"{len(reqs)} triples per round, busy {caller.busy_s:.2f} s, wall {wall_s:.2f} s, "
          f"attempted {caller.attempted}, failed {caller.failed}")
    print(f"# CPU times scaled by {clock.factor():.4f} to the reference speed "
          f"({len(clock.samples)} samples of the reference task, median "
          f"{1000 * statistics.median(clock.samples):.4f} ms against {1000 * REFERENCE_S:.4f} ms)")
    for name, (value, unit) in e2e.items():
        print(f"# {name} = {value:.6g} {unit}")
    if len(triple_s) >= 100:
        p90 = statistics.quantiles(triple_s, n=10)[-1]
        print(f"# triple_p90_ms = {1000 * p90:.6g} ms ({len(triple_s)} triples)")

    if tracer is None:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in e2e.items()}
    else:
        metrics = tracer.metrics(rounds)
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.jsonl")
        tracer.write(path, {"workload": args.workload, "seed": args.seed, "rounds": rounds,
                            "end_to_end_traced": {k: v for k, (v, _) in e2e.items()},
                            "layers": tracer.stats})
        print(f"# spans and per-layer summary written to {os.path.relpath(path, ROOT)}")
    print(json.dumps({"correct": caller.wrong == 0,
                      "attempted": caller.attempted, "failed": caller.failed,
                      "metrics": metrics}))
    return 0


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    if args.self_test or args.inputs:
        sys.path.insert(0, SRC)
        if args.inputs:
            return show_inputs(args)
        import selftest
        problems = selftest.run(import_lrbasis(), verbose=True)
        return 1 if problems else 0
    if args.child:
        return child(args)
    return parent(args)


if __name__ == "__main__":
    sys.exit(main())
