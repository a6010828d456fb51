"""Command-line reports: eigenvalue table, screening, sweep, nodal probe, verdict.

Exit codes: 0 clean, 1 usage or input error, 2 completed with warnings
(non-converged or unconfirmed nodal counts, a verdict over a partial range or
with a survivor left unexcluded).  Reports go to stdout unless --out is given.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from operator import itemgetter

from . import __version__, quadric
from .bounds import FABER_KRAHN_RATIO, pleijel_cutoff, screen_candidates
from .nodal import RESOLUTION_CAP, EigenCombo, SweepResult, count_nodal_domains, sweep_eigenspace
from .spectrum import CUBE, BoxSpec, EigenvalueGroup, ModeTriple, enumerate_groups
from .spectrum import counting_function, product_nodal_count
from .symmetry import symmetric_indices

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_WARNINGS = 2

FORMATS = ("md", "csv", "json")


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _triple(kind, cast):
    """argparse type for a comma-separated triple, e.g. a box or a mode."""

    def parse(text: str):
        parts = text.split(",")
        if len(parts) != 3:
            raise argparse.ArgumentTypeError(f"expected three comma-separated values: {text!r}")
        try:
            return kind(*(cast(p) for p in parts))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


def _lambda_max(text: str) -> float:
    value = float(text)
    if not value >= 3:
        raise argparse.ArgumentTypeError("lambda-max must be at least 3")
    return value


def _parse_coeffs(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError("coefficients must be comma-separated reals")


def _format_value(value) -> str:
    if float(value).is_integer():
        return str(int(value))
    return f"{value:.6f}"


def _format_k_range(k_min: int, k_max: int) -> str:
    return str(k_min) if k_min == k_max else f"{k_min}-{k_max}"


def _format_reps(reps) -> str:
    return " & ".join("(%d,%d,%d)" % tuple(rep) for rep in reps)


def _format_ks(ks) -> str:
    return ", ".join(str(k) for k in ks)


def _format_optional(value, spec: str) -> str:
    return "" if value is None else format(value, spec)


def _yes_no(key: str):
    return lambda r: "yes" if r[key] else "no"


def _cube_group(value: float) -> EigenvalueGroup:
    """The cube's eigenvalue group at exactly ``value``, built without the modes below it."""
    v = int(value) if float(value).is_integer() else 0
    top = range(1, math.isqrt(max(v, 0)) + 1)
    modes = tuple(
        ModeTriple(l, m, n)
        for l in top
        for m in top
        if (n := math.isqrt(max(v - l * l - m * m, 0))) and l * l + m * m + n * n == v
    )
    if not modes:
        raise ValueError(f"{value} is not a cube eigenvalue")
    return EigenvalueGroup(v, modes, counting_function(v) + 1)


# ---------------------------------------------------------------------------
# rendering

def _render(data: dict, fmt: str, records=(), columns=None, head=(), tail=()) -> str:
    """Render one report: json as ``data`` whole, csv and md from its records.

    ``columns`` maps a format to its ``(header, cell)`` pairs, where ``cell``
    takes a record to its value.  csv writes one row per record under the
    headers; md writes the ``head`` lines, a table of the records if it has
    md columns, then the ``tail`` lines.
    """
    if fmt == "json":
        return json.dumps(data, indent=2) + "\n"
    columns = columns or {}
    if fmt != "md" and fmt not in columns:
        raise ValueError(f"this report has no {fmt} form")
    cols = columns.get(fmt, ())
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow([header for header, _ in cols])
        writer.writerows([cell(r) for _, cell in cols] for r in records)
        return buf.getvalue()
    lines = list(head)
    if cols:
        lines.append("| " + " | ".join(header for header, _ in cols) + " |")
        lines.append("|" + "|".join("-" * (len(header) + 2) for header, _ in cols) + "|")
        for r in records:
            lines.append("| " + " | ".join(str(cell(r)) for _, cell in cols) + " |")
    lines.extend(tail)
    return "\n".join(lines) + "\n"


TABLE_COLUMNS = {
    "csv": [
        ("k_min", itemgetter("k_min")),
        ("k_max", itemgetter("k_max")),
        ("eigenvalue", lambda r: _format_value(r["value"])),
        ("multiplicity", itemgetter("multiplicity")),
        ("modes", lambda r: _format_reps(r["representatives"])),
    ],
    "md": [
        ("k", lambda r: _format_k_range(r["k_min"], r["k_max"])),
        ("(l,m,n)", lambda r: _format_reps(r["representatives"])),
        ("eigenvalue", lambda r: _format_value(r["value"])),
    ],
}

SCREEN_COLUMNS = {
    "csv": [
        ("eigenvalue", lambda r: _format_value(r["value"])),
        ("k_min", itemgetter("k_min")),
        ("ratio", lambda r: f"{r['ratio']:.4f}"),
        ("candidate", itemgetter("candidate")),
        ("parity", itemgetter("parity")),
        ("j", itemgetter("j")),
        ("bound", itemgetter("bound")),
        ("symmetry_excluded", itemgetter("symmetry_excluded")),
        ("survives", itemgetter("survives")),
    ],
    "md": [
        ("eigenvalue", lambda r: _format_value(r["value"])),
        ("k", lambda r: _format_k_range(r["k_min"], r["k_max"])),
        ("ratio", lambda r: f"{r['ratio']:.4f}"),
        ("candidate", _yes_no("candidate")),
        ("parity", itemgetter("parity")),
        ("j", itemgetter("j")),
        ("2j", itemgetter("bound")),
        ("excluded by symmetry", _yes_no("symmetry_excluded")),
    ],
}

SWEEP_COLUMNS = {
    "csv": [
        ("index", itemgetter("index")),
        ("total", itemgetter("total")),
        ("converged", itemgetter("converged")),
        ("resolution_used", itemgetter("resolution_used")),
        ("predicted", itemgetter("predicted")),
        ("boundary_distance", lambda r: _format_optional(r["boundary_distance"], ".6f")),
        ("coeffs", lambda r: " ".join(f"{c!r}" for c in r["coeffs"])),
    ],
}


# ---------------------------------------------------------------------------
# screen

def build_screen(box: BoxSpec, lambda_max: float) -> dict:
    """Faber-Krahn and antipodal-symmetry screening; both hold only on the cube."""
    if not box.is_cube:
        raise ValueError("the screen's Faber-Krahn ratio and cutoff hold only on the cube")
    mu_root, lambda_cutoff = pleijel_cutoff()
    screened = screen_candidates(lambda_max)
    indices = symmetric_indices([rec.group for rec in screened])
    records = []
    for rec in screened:
        group = rec.group
        si = indices[group.value]
        records.append(
            {
                "value": group.value,
                "k_min": group.k_min,
                "k_max": group.k_max,
                "ratio": rec.ratio,
                "candidate": rec.fk_pass,
                "parity": si.parity.value,
                "j": si.j,
                "bound": si.bound,
                "symmetry_excluded": si.excludes,
                "survives": rec.fk_pass and not si.excludes,
            }
        )
    return {
        "schema": 1,
        "command": "screen",
        "box": [box.alpha, box.beta, box.gamma],
        "lambda_max": lambda_max,
        "mu_root": mu_root,
        "lambda_cutoff": lambda_cutoff,
        "fk_ratio": FABER_KRAHN_RATIO,
        "records": records,
        "candidates": [r["k_min"] for r in records if r["candidate"]],
        "survivors": [r["k_min"] for r in records if r["survives"]],
    }


def _screen_summary(data: dict) -> list[str]:
    return [
        "Candidates (Faber-Krahn at k_min): k = " + _format_ks(data["candidates"]),
        "Surviving after symmetry: k = " + _format_ks(data["survivors"]),
    ]


def render_screen(data: dict, fmt: str) -> str:
    head = [
        f"Cutoff: mu root = {data['mu_root']:.5f}, Courant-sharp eigenvalues need "
        f"lambda < {data['lambda_cutoff']:.1f}",
        f"Faber-Krahn survival: lambda^(3/2) / k_min >= {data['fk_ratio']:.4f}",
        "",
    ]
    tail = ["", *_screen_summary(data)]
    return _render(data, fmt, data["records"], SCREEN_COLUMNS, head, tail)


# ---------------------------------------------------------------------------
# sweep

# Samples this close to a quadric subcase boundary are too fragile to check.
BOUNDARY_SKIP_RADIUS = 1e-2


def sweep_evidence(result: SweepResult) -> dict:
    """A sweep's tallies and per-sample records, in the verdict's field order.

    On the eigenspace of the quadric predictor (the cube's eigenvalue 11) each
    record carries the predicted count and the distance of its coefficients
    from the predictor's subcase boundaries, and every sample farther than
    ``BOUNDARY_SKIP_RADIUS`` is checked against its grid count; ``mismatched``
    lists the indices of those that disagree.  Elsewhere both fields are None
    and nothing is checked or skipped.
    """
    modes = result.group.modes
    predictable = set(modes) == set(quadric.LAMBDA11_MODES)
    records = []
    for s in result.samples:
        record = {
            "index": s.index,
            "coeffs": list(s.coeffs),
            "total": s.count.total,
            "converged": s.count.converged,
            "resolution_used": s.count.resolution_used,
            "predicted": None,
            "boundary_distance": None,
        }
        if predictable:
            abc = quadric.sine_coeffs_from_modes(modes, s.coeffs)
            record["predicted"] = quadric.predict_components(quadric.reduce_to_quadric(*abc)).count
            record["boundary_distance"] = quadric.boundary_distance(*abc)
        records.append(record)
    predicted = [r for r in records if r["predicted"] is not None]
    checked = [r for r in predicted if r["boundary_distance"] > BOUNDARY_SKIP_RADIUS]
    mismatched = [r["index"] for r in checked if r["predicted"] != r["total"]]
    return {
        "samples": len(records),
        "resolution": result.n0,
        "seed": result.seed,
        "histogram": {str(t): v for t, v in result.histogram.items()},
        "max_total": max(result.histogram),
        "predictor_checked": len(checked),
        "predictor_mismatches": len(mismatched),
        "mismatched": mismatched,
        "boundary_skipped": len(predicted) - len(checked),
        "non_converged": list(result.non_converged),
        "records": records,
    }


# ---------------------------------------------------------------------------
# verdict

def build_verdict(lambda_max: float, samples: int, resolution: int, seed: int, cap: int) -> dict:
    """Settle every survivor of the cube's screen.

    A survivor is sharp if a product mode of its group has l*m*n = k_min and
    its grid count confirms it (the witness).  Any other survivor is swept and
    excluded if no sample reaches k_min and the quadric predictor agrees.
    The verdict is complete only if the screen reaches every cube eigenvalue
    (an integer) below the cutoff.
    """
    screen = build_screen(CUBE, lambda_max)
    needed = math.floor(screen["lambda_cutoff"])
    complete = lambda_max >= needed
    warnings: list[str] = []
    if not complete:
        warnings.append(
            f"partial verdict: eigenvalues above {_format_value(lambda_max)} were not "
            f"screened; the cutoff {screen['lambda_cutoff']:.1f} needs lambda-max >= {needed}"
        )
    sharp: list[dict] = []
    unresolved: list[int] = []
    sweep_report = None

    for rec in screen["records"]:
        if not rec["survives"]:
            continue
        k, group = rec["k_min"], _cube_group(rec["value"])
        witness = next((m for m in group.modes if product_nodal_count(m) == k), None)
        if witness is not None:
            coeffs = tuple(float(m == witness) for m in group.modes)
            count = count_nodal_domains(EigenCombo(group, coeffs), 16, cap)
            if count.converged and count.total == k:
                sharp.append({"k": k, "value": group.value, "nodal_domains": count.total})
            else:
                unresolved.append(k)
                warnings.append(
                    f"witness {witness.as_tuple()} of k={k} counted {count.total} nodal "
                    f"domain(s) at resolution {count.resolution_used}, converged={count.converged}"
                )
            continue
        evidence = sweep_evidence(sweep_eigenspace(group, samples, resolution, seed=seed, cap=cap))
        del evidence["records"], evidence["mismatched"]
        max_total, mismatches = evidence["max_total"], evidence["predictor_mismatches"]
        for idx in evidence["non_converged"]:
            warnings.append(
                f"sweep sample {idx} of eigenvalue {_format_value(group.value)} "
                f"did not converge by resolution {cap}"
            )
        excluded = max_total < k and mismatches == 0
        sweep_report = {"value": group.value, "k_min": k, **evidence, "courant_sharp": not excluded}
        if not excluded:
            unresolved.append(k)
            warnings.append(
                f"eigenvalue {_format_value(group.value)} (k={k}) is not excluded: "
                f"max count {max_total}, {mismatches} predictor mismatch(es)"
            )

    return {
        "schema": 1,
        "command": "verdict",
        "lambda_max": lambda_max,
        "complete": complete,
        "screen": screen,
        "sharp": sharp,
        "eigenspace_sweep": sweep_report,
        "unresolved": unresolved,
        "courant_sharp": [e["k"] for e in sharp],
        "warnings": warnings,
    }


def render_verdict(data: dict, fmt: str) -> str:
    lines = _screen_summary(data["screen"])
    for entry in data["sharp"]:
        lines.append(
            f"k={entry['k']} (lambda={_format_value(entry['value'])}): "
            f"{entry['nodal_domains']} nodal domain(s), Courant sharp"
        )
    sweep = data["eigenspace_sweep"]
    if sweep is not None:
        hist = ", ".join(f"{k}: {v}" for k, v in sweep["histogram"].items())
        agreed = sweep["predictor_checked"] - sweep["predictor_mismatches"]
        verdict = "NOT excluded (unexpected)" if sweep["courant_sharp"] else "not Courant sharp"
        lines += [
            f"Eigenspace sweep at lambda={_format_value(sweep['value'])} "
            f"(k_min={sweep['k_min']}, {sweep['samples']} samples, "
            f"resolution {sweep['resolution']}, seed {sweep['seed']}):",
            f"  nodal-domain histogram: {{{hist}}}",
            f"  predictor agreement: {agreed}/{sweep['predictor_checked']} checked "
            f"({sweep['boundary_skipped']} near-boundary samples skipped)",
            f"  max count {sweep['max_total']} < k_min {sweep['k_min']}: "
            f"lambda={_format_value(sweep['value'])} is {verdict}",
        ]
    if data["unresolved"]:
        lines.append("Unresolved candidates: k = " + _format_ks(data["unresolved"]))
    lines.append(
        "Courant sharp: "
        + ", ".join(f"k={e['k']} (lambda={_format_value(e['value'])})" for e in data["sharp"])
    )
    if data["warnings"]:
        lines += ["", "Warnings:", *(f"  - {w}" for w in data["warnings"])]
    return _render(data, fmt, head=lines)


# ---------------------------------------------------------------------------
# commands: each takes the parsed arguments and returns (report, exit code)

def _run_table(args) -> tuple[str, int]:
    box = args.box
    groups = [
        {
            "value": group.value,
            "k_min": group.k_min,
            "k_max": group.k_max,
            "multiplicity": group.multiplicity,
            "representatives": [list(r) for r in group.representatives()],
            "modes": [list(m.as_tuple()) for m in group.modes],
        }
        for group in enumerate_groups(box, args.lambda_max)
    ]
    data = {
        "schema": 1,
        "command": "table",
        "box": [box.alpha, box.beta, box.gamma],
        "lambda_max": args.lambda_max,
        "groups": groups,
    }
    return _render(data, args.format, groups, TABLE_COLUMNS), EXIT_OK


def _run_screen(args) -> tuple[str, int]:
    return render_screen(build_screen(CUBE, args.lambda_max), args.format), EXIT_OK


def _run_verdict(args) -> tuple[str, int]:
    data = build_verdict(args.lambda_max, args.samples, args.resolution, args.seed, args.cap)
    return render_verdict(data, args.format), EXIT_WARNINGS if data["warnings"] else EXIT_OK


def _run_nodal(args) -> tuple[str, int]:
    modes, coeffs = args.mode, args.coeffs
    if not modes:
        raise ValueError("at least one --mode is required")
    if len(coeffs) != len(modes):
        raise ValueError(f"{len(modes)} modes but {len(coeffs)} coefficients were given")
    if len(set(modes)) != len(modes):
        raise ValueError("duplicate modes")
    values = {m.cube_eigenvalue for m in modes}
    if len(values) != 1:
        raise ValueError(f"modes mix distinct eigenvalues {sorted(values)}")
    value = values.pop()
    group = _cube_group(value)
    by_mode = dict(zip(modes, coeffs))
    full = tuple(by_mode.get(m, 0.0) for m in group.modes)
    count = count_nodal_domains(EigenCombo(group, full), args.resolution, args.cap)
    data = {
        "schema": 1,
        "command": "nodal",
        "eigenvalue": value,
        "modes": [list(m.as_tuple()) for m in modes],
        "coeffs": list(coeffs),
        "count": {
            "positive_components": count.positive_components,
            "negative_components": count.negative_components,
            "total": count.total,
            "zero_samples": count.zero_samples,
            "resolution_used": count.resolution_used,
            "converged": count.converged,
        },
    }
    return _render(data, "json"), EXIT_OK if count.converged else EXIT_WARNINGS


def _run_sweep(args) -> tuple[str, int]:
    group = _cube_group(args.value)
    result = sweep_eigenspace(group, args.samples, args.resolution, seed=args.seed, cap=args.cap)
    evidence = sweep_evidence(result)
    data = {"schema": 1, "command": "sweep", "eigenvalue": group.value, "k_min": group.k_min}
    # The verdict's tallies stay out of the sweep report.
    for key in ("samples", "resolution", "seed", "histogram", "non_converged", "records"):
        data[key] = evidence[key]
    head = [
        f"Eigenspace sweep at lambda={_format_value(group.value)} "
        f"(k_min={group.k_min}): {data['samples']} samples, "
        f"resolution {data['resolution']}, seed {data['seed']}",
        "histogram: {" + ", ".join(f"{k}: {v}" for k, v in data["histogram"].items()) + "}",
        f"non-converged samples: {len(data['non_converged'])}",
    ]
    text = _render(data, args.format, data["records"], SWEEP_COLUMNS, head)
    # The report stays as it is; a mismatch is named on stderr and in the exit code.
    if evidence["mismatched"]:
        indices = ", ".join(map(str, evidence["mismatched"]))
        print(f"cubenodal: warning: predictor mismatch at sample(s) {indices}", file=sys.stderr)
    return text, EXIT_WARNINGS if data["non_converged"] or evidence["mismatched"] else EXIT_OK


# ---------------------------------------------------------------------------
# plumbing

def _build_parser() -> _Parser:
    parser = _Parser(prog="cubenodal", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, help, formats=FORMATS):
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        if formats:
            p.add_argument("--format", choices=formats, default="md")
        p.add_argument("--out", type=os.path.abspath, default=None)
        return p

    def counting(p, *, samples=True):
        p.add_argument("--resolution", type=int, default=128)
        p.add_argument("--cap", type=int, default=RESOLUTION_CAP)
        if samples:
            p.add_argument("--samples", type=int, default=500)
            p.add_argument("--seed", type=int, default=0)

    p_table = command("table", _run_table, "eigenvalue table with Courant index ranges")
    p_table.add_argument("--lambda-max", type=_lambda_max, default=48.0)
    p_table.add_argument(
        "--box",
        type=_triple(BoxSpec, float),
        default=CUBE,
        help="box weights a,b,c (eigenvalue = a*l^2 + b*m^2 + c*n^2)",
    )

    p_screen = command("screen", _run_screen, "Faber-Krahn screening + symmetry bounds")
    p_screen.add_argument("--lambda-max", type=_lambda_max, default=48.0)

    p_verdict = command("verdict", _run_verdict, "end-to-end Courant-sharp verdict", ("md", "json"))
    p_verdict.add_argument("--lambda-max", type=_lambda_max, default=48.0)
    counting(p_verdict)

    p_nodal = command("nodal", _run_nodal, "count nodal domains of one combination", ())
    p_nodal.add_argument("--mode", type=_triple(ModeTriple, int), action="append", default=[])
    p_nodal.add_argument("--coeffs", type=_parse_coeffs, default=())
    counting(p_nodal, samples=False)

    p_sweep = command("sweep", _run_sweep, "low-discrepancy sweep of one eigenspace")
    p_sweep.add_argument("--value", type=float, default=11.0)
    counting(p_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    out = args.out
    try:
        # Refused before the run, which can take minutes, rather than after it.
        if out is not None and (os.path.isdir(out) or not os.path.isdir(os.path.dirname(out))):
            raise ValueError(f"--out {out} is not a file in an existing directory")
        text, code = args.run(args)
    except ValueError as exc:
        print(f"cubenodal: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
