"""The benchmark's three workloads: inputs from a seed, timed rounds, checks.

A round is a fixed list of operations.  Only the calls into the package are
timed; the checks run after the timed part.  An operation fails when it
raises, exits non-zero or fails a check, and a check failure also marks the
run as not correct.
"""

from __future__ import annotations

import contextlib
import io
import random
import sys
import time
import traceback
from dataclasses import dataclass, field

import oracle
from checks import CheckError, check_count, check_screen, check_screen_texts, check_verdict, require

FORMATS = ("md", "csv", "json")

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("verdict_s", "s"),
    ("census_counts_per_s", "1/s"),
    ("screen_groups_per_s", "1/s"),
)


@dataclass
class Round:
    seconds: float
    attempted: int
    times: list[float] = field(default_factory=list)
    failed: int = 0
    wrong: int = 0


@contextlib.contextmanager
def operation(rnd: Round):
    """Count one operation of ``rnd`` as failed if it raises or fails a check."""
    try:
        yield
    except CheckError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        rnd.failed += 1
        rnd.wrong += 1
    except Exception as exc:  # an operation that raised is counted, not fatal
        traceback.print_exception(exc, file=sys.stderr)
        rnd.failed += 1


class VerdictRuns:
    """``cubenodal verdict`` on the cube through ``cli.main``, JSON report."""

    metric = "verdict_s"

    def __init__(self, pkg, seed: int, samples: int, resolution: int = 128):
        self.pkg = pkg
        self.argv = [
            "verdict", "--samples", str(samples), "--seed", str(seed),
            "--resolution", str(resolution), "--format", "json",
        ]
        self.groups48 = oracle.cube_groups(48)
        self.first_report: str | None = None

    def warm(self) -> None:
        nodal, spectrum = self.pkg.nodal, self.pkg.spectrum
        group = spectrum.enumerate_groups(spectrum.CUBE, 3)[0]
        nodal.count_nodal_domains(nodal.EigenCombo(group, (1.0,)), 16)
        nodal.sphere_samples(3, 1, 0)
        self.pkg.cli.build_screen(spectrum.CUBE, 48.0)

    def round(self, traced=contextlib.nullcontext()) -> Round:
        rnd = Round(0.0, 1)
        out = io.StringIO()
        code = None
        with operation(rnd):
            with traced, contextlib.redirect_stdout(out):
                start = time.perf_counter()
                try:
                    code = self.pkg.cli.main(self.argv)
                finally:
                    rnd.seconds = time.perf_counter() - start
            text = out.getvalue()
            check_verdict(code, text, self.groups48)
            if self.first_report is None:
                self.first_report = text
            require(text == self.first_report, "two verdicts with one seed differ")
        return rnd

    def value(self, rounds: list[Round]) -> float:
        return min(r.seconds for r in rounds)


class CensusRuns:
    """One nodal count per combination: every product mode of every group up
    to ``lambda_max``, then ``per_group`` seeded random unit combinations in
    each group.  The metric sums each combination's best time over the rounds."""

    metric = "census_counts_per_s"
    base = 32
    cap = 128

    def __init__(self, pkg, seed: int, per_group: int, lambda_max: int = 48):
        self.pkg = pkg
        nodal, spectrum = pkg.nodal, pkg.spectrum
        rng = random.Random(seed)
        self.inputs = []
        self.randoms = set()
        groups = [
            (g, spectrum.EigenvalueGroup(
                g.value, tuple(spectrum.ModeTriple(*m) for m in g.modes), g.k_min))
            for g in oracle.cube_groups(lambda_max)
        ]
        for og, group in groups:
            for i, mode in enumerate(og.modes):
                coeffs = tuple(1.0 if t == i else 0.0 for t in range(og.multiplicity))
                self.inputs.append((nodal.EigenCombo(group, coeffs), og, mode))
        for og, group in groups:
            for _ in range(per_group):
                v = [rng.gauss(0.0, 1.0) for _ in og.modes]
                norm = sum(x * x for x in v) ** 0.5
                combo = nodal.EigenCombo(group, tuple(x / norm for x in v))
                self.randoms.add(len(self.inputs))
                self.inputs.append((combo, og, None))
        self.first: list | None = None

    def warm(self) -> None:
        self.pkg.nodal.count_nodal_domains(self.inputs[0][0], self.base, self.cap)

    def round(self, traced=contextlib.nullcontext()) -> Round:
        n = len(self.inputs)
        rnd = Round(0.0, n, [0.0] * n)
        results: list = [None] * n
        errors: list = [None] * n
        with traced:
            count, clock = self.pkg.nodal.count_nodal_domains, time.perf_counter
            for i, (combo, _, _) in enumerate(self.inputs):
                start = clock()
                try:
                    results[i] = count(combo, self.base, self.cap)
                except Exception as exc:  # counted as a failed operation below
                    errors[i] = exc
                rnd.times[i] = clock() - start
        rnd.seconds = sum(rnd.times)
        first = self.first is None
        if first:
            self.first = [(r.total, r.resolution_used) if r else None for r in results]
        for i, (combo, og, mode) in enumerate(self.inputs):
            with operation(rnd):
                if errors[i] is not None:
                    raise errors[i]
                r = results[i]
                check_count(r.total, og, mode)
                require(
                    (r.total, r.resolution_used) == self.first[i],
                    f"eigenvalue {og.value}: count changed between rounds",
                )
                if first and i in self.randoms:
                    image = self.pkg.nodal.count_nodal_domains(
                        combo.negated().antipodal_image(), self.base, self.cap
                    )
                    require(
                        (image.total, image.resolution_used) == (r.total, r.resolution_used),
                        f"eigenvalue {og.value}: negated antipodal image counts "
                        f"{image.total} at {image.resolution_used}, not {r.total} at "
                        f"{r.resolution_used}",
                    )
        return rnd

    def value(self, rounds: list[Round]) -> float:
        best = [min(ts) for ts in zip(*(r.times for r in rounds))]
        return len(best) / sum(best)


class ScreenRuns:
    """``build_screen`` on the cube, rendered as md, csv and json."""

    metric = "screen_groups_per_s"

    def __init__(self, pkg, lambda_max: int):
        self.pkg = pkg
        self.lambda_max = lambda_max
        self.groups = oracle.cube_groups(lambda_max)

    def warm(self) -> None:
        cli = self.pkg.cli
        data = cli.build_screen(self.pkg.spectrum.CUBE, 48.0)
        for fmt in FORMATS:
            cli.render_screen(data, fmt)

    def round(self, traced=contextlib.nullcontext()) -> Round:
        rnd = Round(0.0, 1)
        with operation(rnd):
            with traced:
                cli, box = self.pkg.cli, self.pkg.spectrum.CUBE
                start = time.perf_counter()
                try:
                    data = cli.build_screen(box, float(self.lambda_max))
                    texts = {fmt: cli.render_screen(data, fmt) for fmt in FORMATS}
                finally:
                    rnd.seconds = time.perf_counter() - start
            check_screen(data, self.groups)
            check_screen_texts(data, texts)
        return rnd

    def value(self, rounds: list[Round]) -> float:
        return len(self.groups) / min(r.seconds for r in rounds)


# Workload make-up.  Timings are each operation's best over the rounds of a
# run, so rounds are kept short: a verdict of 4 samples takes about 2.5 s on
# a 2-core machine, a census round about 2 s and a screen near lambda-max 120
# about 0.1 s.  On this shared machine the best of many short operations
# holds still better than the best of a few long ones: a screen near 200
# (0.3 to 0.5 s) spread 0.27 to 0.30 over ten seeds.  The probes of the other
# metrics run between main rounds, so short rounds also give them more slots
# spread over the run.  The screen's lambda-max moves with the seed within
# 118..122 (81 to 84 groups).
VERDICT_SAMPLES = 4
CENSUS_PER_GROUP = 4
SCREEN_LAMBDA = 118


WORKLOADS = ("verdict-l11", "census-48", "screen-wide")


def warm_heap(pkg) -> None:
    """Sample one 127^3 grid, a count of the first cube mode at 64 with cap 128.

    Every workload's set-up does this, for two reasons.  Once a grid this
    large is freed, the C allocator serves later grids of up to 127^3 from
    its heap instead of fresh pages.  Without it, the probes on screen-wide
    (whose main rounds sample no grid) took about 2,000 minor page faults per
    verdict-probe round and 11,000 per census-probe round, and ran slower and
    less steadily than the same probes in the other workloads; with it they
    take none.  It also sets the census's peak RSS to that of the largest
    grid its cap allows, so that it does not depend on whether a seed's
    combination escalates.
    """
    nodal, spectrum = pkg.nodal, pkg.spectrum
    group = spectrum.enumerate_groups(spectrum.CUBE, 3)[0]
    nodal.count_nodal_domains(nodal.EigenCombo(group, (1.0,)), 64, 128)


def workload(pkg, name: str, seed: int):
    if name == "verdict-l11":
        return VerdictRuns(pkg, seed, VERDICT_SAMPLES)
    if name == "census-48":
        return CensusRuns(pkg, seed, CENSUS_PER_GROUP)
    if name == "screen-wide":
        return ScreenRuns(pkg, SCREEN_LAMBDA + seed % 5)
    raise ValueError(f"unknown workload {name!r}")


def probes(pkg, name: str) -> list:
    """Small fixed probes for the two end-to-end metrics a workload does not own.

    Their inputs do not depend on the seed, and their grids stay at or below
    63^3, so they can run between the main rounds without raising peak RSS
    above the census's: a verdict of 2 samples at base resolution 32, the
    census of the product modes up to eigenvalue 12, and the screen at 48.
    They run in this order: the screen first, since it leaves no BLAS thread
    spinning, so that each probe starts a slot settled.
    """
    out = []
    if name != "screen-wide":
        out.append(ScreenRuns(pkg, 48))
    if name != "verdict-l11":
        out.append(VerdictRuns(pkg, 0, 2, 32))
    if name != "census-48":
        out.append(CensusRuns(pkg, 0, 0, 12))
    return out
