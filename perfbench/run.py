"""Benchmark of the cubenodal pipeline.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verdict-l11 --seed 1 --seconds 25 --trace 0

The package is imported from ``src/`` of the checkout, as ``PYTHONPATH=src``
would.  With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced rounds and reports per-layer
metrics per operation, plus the tracing overhead.  The last line of stdout is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

import selftest
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 5
PROBE_SHARE = 0.1
PROBE_EVERY_S = 1.0
SETTLE_S = 0.2


def setup(name: str, seed: int):
    """Import the package, build the workload's inputs and warm it up."""
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    from cubenodal import cli, nodal, spectrum

    pkg = types.SimpleNamespace(cli=cli, nodal=nodal, spectrum=spectrum)
    work = workloads.workload(pkg, name, seed)
    workloads.warm_heap(pkg)
    work.warm()
    return pkg, work, time.perf_counter() - start


def _setup_in_child(name: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed),
         "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"set-up probe exited with {proc.returncode}")
    return float(proc.stdout.split()[-1])


def _tally(rounds) -> tuple[int, int, int]:
    return (
        sum(r.attempted for r in rounds),
        sum(r.failed for r in rounds),
        sum(r.wrong for r in rounds),
    )


def _settle() -> float:
    """Wait until BLAS worker threads have stopped spinning; return the wait.

    After a matrix product OpenBLAS's second thread spins for about 0.15 s,
    and on a 2-vCPU machine the main thread runs at about half speed
    meanwhile.  A slot of probes and a fresh set-up start after this wait,
    so that they are not timed in the spin the main rounds left.  The spin a
    part causes itself stays in its own time.
    """
    start = time.perf_counter()
    time.sleep(SETTLE_S)
    return time.perf_counter() - start


def end_to_end(name: str, seed: int, seconds: float):
    pkg, work, own = setup(name, seed)
    setups = [own]
    probes = workloads.probes(pkg, name)
    rounds = {work: []} | {probe: [] for probe in probes}
    start = time.perf_counter()
    paused = _settle()  # waits and fresh set-ups, left out of the run's budget
    since_probes = 0.0
    while not rounds[work] or time.perf_counter() - start - paused < seconds:
        # The other set-ups run in fresh interpreters, spread evenly over the
        # run, so that their median does not rest on one moment's speed.
        if len(setups) < SETUPS and time.perf_counter() - start - paused >= (
            (len(setups) - 1) * seconds / (SETUPS - 1)
        ):
            t = time.perf_counter()
            _settle()
            setups.append(_setup_in_child(name, seed))
            paused += time.perf_counter() - t
        rounds[work].append(work.round())
        since_probes += rounds[work][-1].seconds
        if since_probes < PROBE_EVERY_S and time.perf_counter() - start - paused < seconds:
            continue
        # A slot: one settle, then each probe runs for about PROBE_SHARE of
        # the main rounds' time since the last slot.
        paused += _settle()
        for probe in probes:
            budget = time.perf_counter() + PROBE_SHARE * since_probes
            rounds[probe].append(probe.round())
            while time.perf_counter() < budget:
                rounds[probe].append(probe.round())
        since_probes = 0.0
    while len(setups) < SETUPS:
        setups.append(_setup_in_child(name, seed))
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {w.metric: w.value(rs) for w, rs in rounds.items()}
    values["setup_s"] = statistics.median(setups)
    values["peak_rss_mib"] = peak_rss_mib
    metrics = {k: {"value": values[k], "unit": u} for k, u in workloads.END_TO_END}
    return [r for rs in rounds.values() for r in rs], metrics


def per_layer(name: str, seed: int, seconds: float):
    pkg, work, _ = setup(name, seed)
    tracer = tracing.Tracer()
    plain, traced, batches, spans = [], [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain.append(work.round())
        traced.append(work.round(tracer.active()))
        spans = tracer.take()
        batches.append(tracing.layer_totals(spans))
    ops = sum(r.attempted for r in traced)
    overhead = (
        statistics.median(r.seconds for r in traced)
        - statistics.median(r.seconds for r in plain)
    ) * len(traced) / ops
    _write_spans(name, seed, spans)
    return plain + traced, tracing.per_layer_metrics(batches, ops, overhead)


def _write_spans(name: str, seed: int, spans) -> None:
    """The spans of the last traced round, with self times, as JSON."""
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    selfs = tracing.self_times(spans)
    t0 = spans[0][1] if spans else 0.0
    records = [
        {"name": s[0], "start": s[1] - t0, "end": s[2] - t0, "parent": s[3], "self_s": selfs[i]}
        for i, s in enumerate(spans)
    ]
    with open(out / f"spans-{name}-seed{seed}.json", "w", encoding="utf-8") as fh:
        json.dump(records, fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        print(setup(args.workload, args.seed)[2])
        return 0

    selftest.run()
    run = per_layer if args.trace else end_to_end
    rounds, metrics = run(args.workload, args.seed, args.seconds)
    attempted, failed, wrong = _tally(rounds)
    result = {"correct": wrong == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
