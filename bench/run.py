"""Benchmark of the monideal command line.

Drives the real entry point, ``monideal.cli.main(argv)``, in-process with
stdout captured: one call per corpus item, one after another, from a single
thread (a closed loop with one client), with the package's default settings.
Every call's output is checked (see ``corpus.Checker``).

    python3 bench/run.py --workload verify_gf2 --seed 1 --seconds 25 --trace 0
    python3 bench/run.py            # every workload, untraced then traced

With ``--trace 0`` the run cycles through the corpus until 25 seconds have
been spent in calls (the benchmark's fixed run length, which ``--seconds``
may only restate) and reports the end-to-end metrics, in seconds scaled to
the nominal speed of a reference computation timed beside them (see
``REFERENCE_S``).  With ``--trace 1`` it runs a fixed corpus
prefix twice, untraced and then traced, checks that both give the same
output, and reports the per-layer metrics of the traced pass; the prefix is
fixed so that every count in it repeats exactly.  The last line of stdout is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Without ``--workload`` each workload runs in a fresh child
process, one after another, and the last line sums their results, with each
metric named ``<workload>/<metric>``; the exit code is 1 if any call failed.
"""
from __future__ import annotations

import argparse
import io
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 1      # the seed bench/reference.json holds digests for
SETUP_PROCESSES = 5   # fresh processes that each time one set-up
RUN_SECONDS = 25      # run_seconds in BENCHMARK.json; the only run length

# The speed of a shared host drifts with its neighbours' load: a fixed loop
# took from 26 to 37 ms within a minute on a 2-core machine, and the same
# corpus ran 40% faster two minutes later, alike on both cores and in CPU
# time.  Drift of that size hides any change worth measuring, so every
# end-to-end time is taken beside a fixed reference computation that shares
# no code with monideal, and scaled to the reference's nominal speed:
# reported seconds = wall seconds * REFERENCE_S / reference seconds.  Over
# five runs of the oracle workload, throughput ranged over 30% in wall time
# and over 8% scaled.  Per-layer times (--trace 1) stay wall-clock.
REFERENCE_LOOPS = 20_000
REFERENCE_S = 0.0015  # nominal time of the reference computation
SPEED_WINDOW = 16     # consecutive calls that share one speed estimate

# (name, unit); BENCHMARK.json gives each its direction and bound
END_TO_END = (
    ("ideals_per_s", "1/s"),
    ("ideal_p50_s", "s"),
    ("ideal_p90_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def use_sources():
    """Put the checkout's own monideal sources first on the import path."""
    src = ROOT / "src"
    if not (src / "monideal" / "__init__.py").is_file():
        raise SystemExit(f"error: no monideal sources in {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


def setup(workload: str, seed: int, tracer=None):
    """Import monideal and build the corpus; returns (seconds, corpus)."""
    use_sources()
    start = time.perf_counter()
    import corpus

    if workload not in corpus.WORKLOADS:
        raise SystemExit(f"error: unknown workload {workload!r}")
    if tracer is None:
        items = corpus.build(workload, seed)
    else:
        with tracer.installed():
            items = corpus.build(workload, seed)
    return time.perf_counter() - start, items


def reference() -> float:
    """Seconds of the reference computation: a pure-Python loop."""
    start = time.perf_counter()
    acc = 0
    for i in range(REFERENCE_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - start


def host_speed() -> float:
    """Nominal over current time of the reference computation."""
    return REFERENCE_S / statistics.median(reference() for _ in range(15))


def at_nominal_speed(latencies: list[float], refs: list[float]) -> list[float]:
    """Scale each latency by the median reference time of its window."""
    out = []
    for lo in range(0, len(latencies), SPEED_WINDOW):
        speed = REFERENCE_S / statistics.median(refs[lo:lo + SPEED_WINDOW])
        out.extend(x * speed for x in latencies[lo:lo + SPEED_WINDOW])
    return out


def call(item):
    """One CLI call: (seconds, exit code, stdout)."""
    from monideal import cli

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(item.argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # noqa: BLE001 - a crash is one failed call
        traceback.print_exc()
        code = -1
    return time.perf_counter() - start, code, out.getvalue()


class Tally:
    """Latencies, failures and the SCM split of the calls of one pass."""

    def __init__(self, checker):
        self.checker = checker
        self.latencies: list[float] = []
        self.digests: list[str] = []
        self.failures: Counter = Counter()
        self.split: Counter = Counter()

    def add(self, item, seconds, code, out):
        import corpus

        self.latencies.append(seconds)
        self.digests.append(corpus.digest(out))
        try:
            reason = self.checker.check(item, code, out)
        except (ValueError, KeyError, TypeError) as exc:
            reason = f"unreadable output: {exc!r}"
        if reason is not None:
            self.failures[reason] += 1
            print(f"FAILED call {item.index} ({item.kind}): {reason}", file=sys.stderr)
        scm = corpus.is_scm_of(out)
        label = "-" if scm is None else ("SCM" if scm else "non-SCM")
        self.split[item.kind, item.n, label] += 1

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def run_pass(items, checker) -> tuple[Tally, float]:
    """Call every item in order; returns the tally and the seconds in calls."""
    tally = Tally(checker)
    for item in items:
        tally.add(item, *call(item))
    return tally, sum(tally.latencies)


def timed_pass(items, checker) -> tuple[Tally, list[float]]:
    """Cycle through the items until RUN_SECONDS have been spent in calls,
    timing the reference computation after each call; returns the tally and
    the reference times."""
    tally = Tally(checker)
    refs: list[float] = []
    busy = 0.0
    while busy < RUN_SECONDS:
        item = items[len(refs) % len(items)]
        seconds, code, out = call(item)
        refs.append(reference())
        tally.add(item, seconds, code, out)
        busy += seconds
    return tally, refs


def load_reference(workload: str, seed: int):
    if seed != DEFAULT_SEED:
        return None
    with (HERE / "reference.json").open() as fh:
        return json.load(fh)[workload]


def p90(latencies: list[float]) -> float:
    return statistics.quantiles(latencies, n=10)[-1]


def report(workload, tally, wall):
    n = len(tally.latencies)
    cut = p90(tally.latencies)
    beyond = sum(1 for x in tally.latencies if x > cut)
    print(f"{workload}: {n} calls in {wall:.2f} s; failed {tally.failed}, "
          f"failed_frac {tally.failed / n:.4f} (ratio)")
    print(f"  ideal_p90_s over {n} calls, {beyond} beyond it"
          + ("" if beyond >= 10 else " (fewer than 10: p90 is unreliable)"))
    labels = Counter()
    for (kind, size, label), count in sorted(tally.split.items()):
        print(f"  corpus {kind} n={size} {label}: {count} calls")
        labels[label] += count
    if labels["SCM"] or labels["non-SCM"]:
        print(f"  corpus split: SCM {labels['SCM']} / non-SCM {labels['non-SCM']} calls")
    for reason, count in tally.failures.items():
        print(f"  failure x{count}: {reason}")


def timed_setup(workload: str, seed: int):
    """Set up, then scale its seconds to nominal speed; returns (seconds,
    corpus)."""
    spent, items = setup(workload, seed)
    return spent * host_speed(), items


def setup_elsewhere(workload: str, seed: int) -> float:
    """Seconds of one set-up in a fresh interpreter, as a workload's own
    process pays it: every import of monideal, then the corpus build."""
    done = subprocess.run(
        [sys.executable, "-c",
         f"import run; print(run.timed_setup({workload!r}, {seed})[0])"],
        cwd=HERE, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout)


def end_to_end(workload: str, seed: int) -> dict:
    # this process's own set-up is the first sample
    spent, items = timed_setup(workload, seed)
    setups = [spent] + [setup_elsewhere(workload, seed)
                        for _ in range(SETUP_PROCESSES - 1)]
    import corpus

    checker = corpus.Checker(load_reference(workload, seed))
    warm, _ = run_pass(items[:1], checker)
    tally, refs = timed_pass(items, checker)
    report(workload, tally, sum(tally.latencies))
    latencies = at_nominal_speed(tally.latencies, refs)
    print(f"  wall-clock p50 {statistics.median(tally.latencies):.4f} s, "
          f"host speed {REFERENCE_S / statistics.median(refs):.3f} x nominal")
    print(f"  setup_s samples: {', '.join(f'{s:.4f}' for s in setups)}")
    values = {
        "ideals_per_s": len(latencies) / sum(latencies),
        "ideal_p50_s": statistics.median(latencies),
        "ideal_p90_s": p90(latencies),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    failed = warm.failed + tally.failed
    return {
        "correct": failed == 0,
        "attempted": 1 + len(tally.latencies),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in END_TO_END},
    }


def traced(workload: str, seed: int, calls: int | None = None) -> dict:
    """Per-layer metrics over the first ``calls`` corpus items (default: the
    workload's ``trace_items``)."""
    import spans

    tracer = spans.Tracer()
    _, items = setup(workload, seed, tracer)
    import corpus

    prefix = items[:calls or corpus.WORKLOADS[workload].trace_items]
    reference = load_reference(workload, seed)
    warm, _ = run_pass(prefix[:1], corpus.Checker(reference))
    # Each call runs untraced and then traced, back to back, so that both
    # sides of the overhead ratio see the machine in the same state.
    plain = Tally(corpus.Checker(reference))
    seen = Tally(corpus.Checker(reference))
    for item in prefix:
        plain.add(item, *call(item))
        tracer.ideal = item.index
        with tracer.installed():
            seen.add(item, *call(item))
    plain_s, seen_s = sum(plain.latencies), sum(seen.latencies)
    tracer.write(HERE / "out" / f"spans-{workload}-seed{seed}.tsv.gz")
    report(workload + " (traced)", seen, seen_s)
    mismatched = sum(a != b for a, b in zip(plain.digests, seen.digests))
    print(f"  traced vs untraced stdout: {mismatched} of {len(prefix)} calls differ")
    print(f"  trace.overhead = {seen_s:.3f} s traced / {plain_s:.3f} s untraced")
    for name, sites in sorted(tracer.sites.items()):
        print(f"  patched {name} in {', '.join(sites)}")
    values = tracer.layer_metrics()
    values.update({
        "trace.calls": len(prefix),
        "trace.untraced_s": plain_s,
        "trace.traced_s": seen_s,
        "trace.overhead": seen_s / plain_s,
    })
    failed = warm.failed + plain.failed + seen.failed + mismatched
    return {
        "correct": failed == 0,
        "attempted": 1 + 2 * len(prefix),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit, _ in spans.LAYER_METRICS},
    }


def run_all(seed: int) -> dict:
    """Each workload untraced then traced, each in a fresh child process;
    one result summing them all."""
    use_sources()
    import corpus

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in corpus.WORKLOADS:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--trace", str(trace)],
                capture_output=True, text=True, timeout=600,
            )
            lines = done.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            sys.stderr.write(done.stderr)
            if done.returncode != 0 or not lines:
                raise SystemExit(f"error: {workload} --trace {trace} exited {done.returncode}")
            result = json.loads(lines[-1])
            total["correct"] &= result["correct"]
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                total["metrics"][f"{workload}/{name}"] = metric
                print(f"  {workload:11s} {name:48s} {metric['value']:>14.6g} {metric['unit']}")
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=None)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    # accepted so that every run states its length, which is fixed
    parser.add_argument("--seconds", type=int, choices=(RUN_SECONDS,),
                        default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        result = run_all(args.seed)
    elif args.trace:
        result = traced(args.workload, args.seed)
    else:
        result = end_to_end(args.workload, args.seed)
    print(json.dumps(result))
    return 0 if args.workload is not None or result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
