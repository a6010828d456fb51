"""Correctness checks on the program's outputs.

Each check compares an output with ``oracle`` or with a property the method
must have, and raises ``CheckError`` naming the first difference.  No output
is compared with a stored copy of an earlier run.
"""

from __future__ import annotations

import csv
import io
import json
import math

from oracle import OracleGroup, candidates, survivors


class CheckError(Exception):
    pass


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def check_screen(data: dict, groups: list[OracleGroup]) -> None:
    """A ``build_screen`` result on the cube against the triple-loop oracle."""
    records = data["records"]
    require(len(records) == len(groups), f"{len(records)} records, oracle has {len(groups)}")
    for rec, g in zip(records, groups):
        where = f"eigenvalue {g.value}"
        require(rec["value"] == g.value, f"{where}: value {rec['value']}")
        require(rec["k_min"] == g.k_min, f"{where}: k_min {rec['k_min']} != {g.k_min}")
        require(rec["k_max"] == g.k_max, f"{where}: k_max {rec['k_max']} != {g.k_max}")
        require(rec["j"] == g.j, f"{where}: j {rec['j']} != {g.j}")
        require(rec["bound"] == 2 * g.j, f"{where}: bound {rec['bound']} != 2j")
        require(
            math.isclose(rec["ratio"], g.ratio, rel_tol=1e-12),
            f"{where}: ratio {rec['ratio']} != {g.ratio}",
        )
        require(rec["candidate"] == g.candidate, f"{where}: candidate flag")
        require(rec["symmetry_excluded"] == g.excluded, f"{where}: exclusion flag")
        require(rec["survives"] == (g.candidate and not g.excluded), f"{where}: survives")
    require(data["candidates"] == candidates(groups), f"candidates {data['candidates']}")
    require(data["survivors"] == survivors(groups), f"survivors {data['survivors']}")


def check_screen_texts(data: dict, texts: dict[str, str]) -> None:
    """The md, csv and json renderings carry one entry per screened group."""
    n = len(data["records"])
    require(json.loads(texts["json"]) == data, "json does not re-parse to the records")
    rows = list(csv.reader(io.StringIO(texts["csv"])))
    require(len(rows) == n + 1, f"csv has {len(rows) - 1} rows for {n} groups")
    require(
        [int(r[1]) for r in rows[1:]] == [r["k_min"] for r in data["records"]],
        "csv k_min column differs from the records",
    )
    table = [line for line in texts["md"].splitlines() if line.startswith("| ")]
    require(len(table) == n + 1, f"md table has {len(table) - 1} rows for {n} groups")


def check_verdict(code: int, text: str, groups48: list[OracleGroup]) -> None:
    """One ``cubenodal verdict --format json`` run on the cube."""
    require(code == 0, f"exit code {code}")
    data = json.loads(text)
    require(data["warnings"] == [], f"warnings {data['warnings']}")
    require(data["unresolved"] == [], f"unresolved {data['unresolved']}")
    by_k = {g.k_min: g for g in groups48}
    require(data["courant_sharp"] == [1, 2], f"courant_sharp {data['courant_sharp']}")
    require(
        [(e["k"], e["value"]) for e in data["sharp"]]
        == [(k, by_k[k].value) for k in (1, 2)],
        f"sharp entries {data['sharp']}",
    )
    for e in data["sharp"]:
        require(e["nodal_domains"] == e["k"], f"k={e['k']}: {e['nodal_domains']} domains")
    check_screen(data["screen"], groups48)
    sweep = data["eigenspace_sweep"]
    l11 = next(g for g in groups48 if g.value == 11)
    require(sweep["value"] == 11 and sweep["k_min"] == l11.k_min, "sweep group")
    hist = {int(k): v for k, v in sweep["histogram"].items()}
    require(set(hist) <= {2, 3, 4}, f"histogram keys {sorted(hist)}")
    require(max(hist) < l11.k_min, f"a count reaches k_min {l11.k_min}")
    require(sum(hist.values()) == sweep["samples"], "histogram does not sum to samples")
    # Every sample is either checked against the quadric predictor or skipped
    # as near a subcase boundary, and at least one is checked.
    require(sweep["predictor_checked"] > 0, "no sample checked against the predictor")
    require(
        sweep["predictor_checked"] + sweep["boundary_skipped"] == sweep["samples"],
        f"{sweep['predictor_checked']} checked and {sweep['boundary_skipped']} skipped "
        f"of {sweep['samples']} samples",
    )
    require(sweep["predictor_mismatches"] == 0, f"{sweep['predictor_mismatches']} mismatches")
    require(sweep["non_converged"] == [], f"non-converged {sweep['non_converged']}")
    require(sweep["courant_sharp"] is False, "eigenvalue 11 not excluded")


def check_count(total: int, group: OracleGroup, mode: tuple[int, int, int] | None) -> None:
    """A nodal count of one combination in ``group``.

    A product mode must count exactly l*m*n; any combination is bounded by
    Courant's k_max and, above the first eigenvalue, has at least two domains.
    """
    where = f"eigenvalue {group.value}"
    if mode is not None:
        l, m, n = mode
        require(total == l * m * n, f"{where}: mode {mode} counts {total}, not {l * m * n}")
    require(total <= group.k_max, f"{where}: {total} domains > k_max {group.k_max}")
    require(group.value == 3 or total >= 2, f"{where}: {total} domain(s)")
