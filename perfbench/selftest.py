"""Self-test of the benchmark's oracle, checks and span arithmetic.

Runs at the start of every benchmark run, and alone with

    python3 perfbench/selftest.py

It needs neither numpy nor the package.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import oracle
import tracing
from checks import CheckError, check_count, check_screen, check_verdict
from workloads import END_TO_END

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise AssertionError(f"benchmark self-test: {message}")


def _rejects(check, *args) -> bool:
    try:
        check(*args)
    except CheckError:
        return True
    return False


def _screen(groups) -> dict:
    """A screen report as ``build_screen`` writes it, built from the oracle."""
    return {
        "records": [
            {
                "value": g.value, "k_min": g.k_min, "k_max": g.k_max, "ratio": g.ratio,
                "candidate": g.candidate, "j": g.j, "bound": 2 * g.j,
                "symmetry_excluded": g.excluded,
                "survives": g.candidate and not g.excluded,
            }
            for g in groups
        ],
        "candidates": oracle.candidates(groups),
        "survivors": oracle.survivors(groups),
    }


def run() -> None:
    groups = oracle.cube_groups(48)
    by_value = {g.value: g for g in groups}
    # The paper's table: 121 modes up to 48, and the parity indices behind
    # the exclusions of k = 5 and k = 12.
    _expect(by_value[48].k_min == 121 and by_value[48].k_max == 121, "k = 121 at 48")
    _expect(by_value[9].j == 2 and by_value[14].j == 5, "j = 2 at 9 and j = 5 at 14")
    _expect(oracle.candidates(groups) == [1, 2, 5, 8, 12], "Faber-Krahn candidates")
    _expect(oracle.survivors(groups) == [1, 2, 8], "survivors of the symmetry screen")
    _expect(oracle.candidates(oracle.cube_groups(300)) == [1, 2, 5, 8, 12], "candidates at 300")

    screen = _screen(groups)
    check_screen(screen, groups)
    bad = copy.deepcopy(screen)
    bad["records"][5]["j"] += 1
    _expect(_rejects(check_screen, bad, groups), "a wrong j passes")

    report = {
        "warnings": [], "unresolved": [], "courant_sharp": [1, 2],
        "sharp": [{"k": 1, "value": 3, "nodal_domains": 1},
                  {"k": 2, "value": 6, "nodal_domains": 2}],
        "screen": screen,
        "eigenspace_sweep": {
            "value": 11, "k_min": 8, "samples": 4, "histogram": {"2": 3, "4": 1},
            "predictor_checked": 3, "boundary_skipped": 1, "predictor_mismatches": 0,
            "non_converged": [], "courant_sharp": False,
        },
    }
    check_verdict(0, json.dumps(report), groups)
    _expect(_rejects(check_verdict, 2, json.dumps(report), groups), "exit code 2 passes")
    bad = copy.deepcopy(report)
    bad["eigenspace_sweep"]["histogram"] = {"2": 3, "8": 1}
    _expect(_rejects(check_verdict, 0, json.dumps(bad), groups), "a count of 8 passes")
    bad = copy.deepcopy(report)
    bad["eigenspace_sweep"] |= {"predictor_checked": 0, "boundary_skipped": 0}
    _expect(_rejects(check_verdict, 0, json.dumps(bad), groups), "an unchecked predictor passes")
    bad["eigenspace_sweep"]["boundary_skipped"] = 4
    _expect(_rejects(check_verdict, 0, json.dumps(bad), groups), "all samples skipped passes")

    check_count(6, by_value[14], (1, 2, 3))
    _expect(_rejects(check_count, 5, by_value[14], (1, 2, 3)), "a wrong product count passes")
    _expect(_rejects(check_count, 18, by_value[14], None), "a count above k_max passes")
    _expect(_rejects(check_count, 1, by_value[6], None), "one domain above eigenvalue 3 passes")

    spans = [["a", 0.0, 10.0, -1, None], ["b", 1.0, 4.0, 0, None], ["c", 2.0, 3.0, 1, None],
             ["d", 5.0, 9.0, 0, None]]
    _expect(tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0], "self times")

    declared = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    _expect(
        [(m["name"], m["unit"]) for m in declared["end_to_end"]] == list(END_TO_END),
        "end-to-end metrics differ from BENCHMARK.json",
    )
    _expect(
        [(m["name"], m["unit"]) for m in declared["per_layer"]] == list(tracing.PER_LAYER),
        "per-layer metrics differ from BENCHMARK.json",
    )


if __name__ == "__main__":
    run()
    print("benchmark self-test passed")
    sys.exit(0)
