import json
import subprocess
import sys
from pathlib import Path

import pytest

from cubenodal import CUBE, BoxSpec, cli, enumerate_groups, nodal, pleijel_cutoff
from cubenodal.nodal import NodalCount, SweepResult, SweepSample
from cubenodal.quadric import Subcase
from helpers import EIGENVALUE_TABLE, child_env

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "table_golden.md"

SWEEP_GOLDEN_ARGV = ["sweep", "--value", "11", "--samples", "6", "--resolution", "32", "--seed", "2"]

# Reports pinned byte for byte.  json is left out: the round-trip tests cover
# it, and float reprs are not pinned across platforms.
GOLDEN_REPORTS = [
    (["table"], "table_golden.md"),
    (["table", "--format", "csv"], "table_golden.csv"),
    (["screen"], "screen_golden.md"),
    (["screen", "--format", "csv"], "screen_golden.csv"),
    (["screen", "--lambda-max", "300", "--format", "csv"], "screen_golden_300.csv"),
    (["verdict", "--samples", "6", "--resolution", "32", "--seed", "2"], "verdict_golden.md"),
    (SWEEP_GOLDEN_ARGV, "sweep_golden.md"),
]


def run_cli(args):
    return subprocess.run(
        [sys.executable, "-m", "cubenodal", *args],
        capture_output=True,
        text=True,
        env=child_env(),
    )


def run_main(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr().out
    return code, out


@pytest.mark.parametrize("argv, name", GOLDEN_REPORTS, ids=[n for _, n in GOLDEN_REPORTS])
def test_report_matches_golden_copy(argv, name):
    result = run_cli(argv)
    assert result.returncode == 0
    assert result.stdout == (DATA / name).read_text()


def test_table_json_matches_published_table(capsys):
    code, out = run_main(["table", "--format", "json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == 1
    got = [
        (g["k_min"], g["k_max"], g["value"], [tuple(r) for r in g["representatives"]])
        for g in data["groups"]
    ]
    expected = [(k0, k1, v, list(reps)) for k0, k1, v, reps in EIGENVALUE_TABLE]
    assert got == expected


def test_table_row_38(capsys):
    code, out = run_main(["table"], capsys)
    assert code == 0
    assert "| 79-87 | (1,1,6) & (2,3,5) | 38 |" in out


def test_table_small_lambda_max(capsys):
    code, out = run_main(["table", "--lambda-max", "6"], capsys)
    assert code == 0
    rows = [line for line in out.splitlines() if line.startswith("| ") and "---" not in line]
    assert len(rows) == 2 + 1  # header + two data rows


def test_table_csv_format(capsys):
    code, out = run_main(["table", "--format", "csv"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "k_min,k_max,eigenvalue,multiplicity,modes"
    assert lines[1] == "1,1,3,1,\"(1,1,1)\""
    assert len(lines) == 1 + len(EIGENVALUE_TABLE)


def test_table_general_box(capsys):
    code, out = run_main(
        ["table", "--box", "1.0,1.4142135623,2.2360679774", "--lambda-max", "20", "--format", "json"],
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    assert all(g["multiplicity"] == 1 for g in data["groups"])


def test_unknown_format_is_usage_error():
    result = run_cli(["table", "--format", "xml"])
    assert result.returncode == 1
    assert "error" in result.stderr


def test_bad_box_is_usage_error():
    result = run_cli(["table", "--box", "1,0,-1"])
    assert result.returncode == 1


def test_screen_report(capsys):
    code, out = run_main(["screen"], capsys)
    assert code == 0
    assert "Candidates (Faber-Krahn at k_min): k = 1, 2, 5, 8, 12" in out
    assert "Surviving after symmetry: k = 1, 2, 8" in out
    assert "| 9 | 5-7 | 5.4000 | yes | even | 2 | 4 | yes |" in out
    assert "mu root = 6.97836" in out
    assert "lambda < 48.7" in out


def test_screen_refuses_box_option():
    result = run_cli(["screen", "--box", "4,4,4"])
    assert result.returncode == 1
    assert result.stdout == ""


def test_build_screen_refuses_non_cube():
    # The 4*pi/3 ratio and the cutoff hold only on the cube; a rescaled cube
    # once gave 28 candidates instead of five.
    with pytest.raises(ValueError):
        cli.build_screen(BoxSpec(4, 4, 4), 192)
    assert cli.build_screen(CUBE, 48)["candidates"] == [1, 2, 5, 8, 12]


def test_screen_json_roundtrips_exactly(capsys):
    code, out = run_main(["screen", "--format", "json"], capsys)
    assert code == 0
    data = json.loads(out)
    mu, cutoff = pleijel_cutoff()
    assert data["mu_root"] == mu
    assert data["lambda_cutoff"] == cutoff
    assert data["candidates"] == [1, 2, 5, 8, 12]
    assert data["survivors"] == [1, 2, 8]
    rec9 = next(r for r in data["records"] if r["value"] == 9)
    assert (rec9["parity"], rec9["j"], rec9["bound"]) == ("even", 2, 4)
    rec14 = next(r for r in data["records"] if r["value"] == 14)
    assert (rec14["parity"], rec14["j"], rec14["bound"]) == ("odd", 5, 10)
    reparsed = json.loads(json.dumps(data))
    assert reparsed == data


def test_nodal_ellipsoid_probe(capsys):
    code, out = run_main(
        [
            "nodal",
            "--mode", "1,1,3", "--mode", "3,1,1", "--mode", "1,3,1",
            "--coeffs", "0.1,0.1,0.8",
            "--resolution", "64",
        ],
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    assert data["count"]["total"] == 3
    assert data["count"]["converged"] is True


def test_nodal_single_product_mode(capsys):
    code, out = run_main(
        ["nodal", "--mode", "2,3,4", "--coeffs", "1", "--resolution", "32"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["count"]["total"] == 24


def test_nodal_negated_ground_state(capsys):
    code, out = run_main(
        ["nodal", "--mode", "1,1,1", "--coeffs", "-1", "--resolution", "16"],
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    assert data["count"]["total"] == 1
    assert data["count"]["negative_components"] == 1


def test_nodal_usage_errors(capsys):
    code, _ = run_main(["nodal", "--mode", "1,1,1", "--mode", "1,1,2", "--coeffs", "1,1"], capsys)
    assert code == 1
    code, _ = run_main(["nodal", "--mode", "1,1,2", "--coeffs", "0"], capsys)
    assert code == 1
    code, _ = run_main(["nodal", "--mode", "1,1,2", "--coeffs", "1,2"], capsys)
    assert code == 1
    code, _ = run_main(["nodal", "--coeffs", "1"], capsys)
    assert code == 1


@pytest.mark.parametrize("coeff", ["nan", "inf", "-inf"])
def test_non_finite_coefficients_are_refused(coeff, capsys):
    code = cli.main(["nodal", "--mode", "1,1,1", f"--coeffs={coeff}", "--resolution", "16"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "finite" in captured.err


def test_nodal_nonconverged_exits_with_warning(capsys, monkeypatch):
    fake = NodalCount(2, 1, 0, 512, False)
    monkeypatch.setattr(cli, "count_nodal_domains", lambda *a, **k: fake)
    code, out = run_main(
        ["nodal", "--mode", "1,1,1", "--coeffs", "1"],
        capsys,
    )
    assert code == 2
    assert json.loads(out)["count"]["converged"] is False


def test_nodal_resolution_beyond_cap_is_refused(capsys, monkeypatch):
    # 2 * 512 exceeds the default cap: refused before any grid is sampled.
    def no_grid(*args, **kwargs):
        raise AssertionError("a grid was sampled")

    monkeypatch.setattr(nodal, "sample_field", no_grid)
    code = cli.main(["nodal", "--mode", "1,1,1", "--coeffs", "1", "--resolution", "512"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "cap" in captured.err


def test_a_cap_above_the_resolution_cap_is_refused(capsys, monkeypatch):
    # --cap 2048 would allow a 1024^3 grid: refused before any grid is sampled.
    def no_grid(*args, **kwargs):
        raise AssertionError("a grid was sampled")

    monkeypatch.setattr(nodal, "sample_field", no_grid)
    code = cli.main(
        ["nodal", "--mode", "1,1,1", "--coeffs", "1", "--resolution", "1024", "--cap", "2048"]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert f"above the largest allowed, {nodal.RESOLUTION_CAP}" in captured.err


def test_sweep_json_deterministic():
    args = ["sweep", "--value", "6", "--samples", "6", "--resolution", "32",
            "--seed", "9", "--format", "json"]
    first = run_cli(args)
    second = run_cli(args)
    assert first.returncode == 0
    assert first.stdout == second.stdout
    other = run_cli(args[:-3] + ["7", "--format", "json"])
    assert other.stdout != first.stdout


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--value", "11", "--samples", "2", "--resolution", "16", "--seed", "-1"],
        ["verdict", "--samples", "2", "--resolution", "16", "--seed", "-3"],
    ],
    ids=["sweep", "verdict"],
)
def test_negative_seed_is_refused(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "seed" in captured.err and argv[-1] in captured.err


def _enumerated_group(value):
    return next(g for g in enumerate_groups(CUBE, value) if g.value == value)


def test_cube_group_matches_enumeration():
    groups = {g.value: g for g in enumerate_groups(CUBE, 300)}
    for value in range(3, 301):
        if value in groups:
            group = cli._cube_group(value)
            assert group == groups[value]
            assert type(group.value) is int
            assert cli._cube_group(float(value)) == groups[value]
        else:
            with pytest.raises(ValueError):
                cli._cube_group(value)


@pytest.mark.parametrize("value", [7, 11.5, 28, 28.0, 0, -3, float("nan"), float("inf")])
def test_cube_group_refuses_non_eigenvalues(value):
    # 28 = 4*7 is no sum of three positive squares.
    with pytest.raises(ValueError, match="not a cube eigenvalue"):
        cli._cube_group(value)


@pytest.mark.parametrize(
    "argv",
    [
        ["nodal", "--mode", "1,1,3", "--mode", "3,1,1", "--mode", "1,3,1",
         "--coeffs", "0.1,0.1,0.8", "--resolution", "32"],
        ["sweep", "--value", "11", "--samples", "8", "--resolution", "32", "--seed", "0",
         "--format", "json"],
    ],
    ids=["nodal", "sweep"],
)
def test_reports_unchanged_by_the_direct_group(argv, capsys, monkeypatch):
    direct = run_main(argv, capsys)
    monkeypatch.setattr(cli, "_cube_group", _enumerated_group)
    assert direct == run_main(argv, capsys)


def test_sweep_json_records_pinned(capsys):
    # The golden sweep's records: every field but the float reprs, which
    # are pinned only as the side of the skip radius each distance lies on.
    code, out = run_main(SWEEP_GOLDEN_ARGV + ["--format", "json"], capsys)
    assert code == 0
    records = json.loads(out)["records"]
    assert [list(r) for r in records] == [
        ["index", "coeffs", "total", "converged", "resolution_used", "predicted",
         "boundary_distance"]
    ] * 6
    got = [
        (r["index"], r["total"], r["converged"], r["resolution_used"], r["predicted"],
         r["boundary_distance"] > cli.BOUNDARY_SKIP_RADIUS)
        for r in records
    ]
    assert got == [
        (0, 3, True, 64, 3, True),
        (1, 2, True, 64, 2, True),
        (2, 2, True, 64, 2, True),
        (3, 2, True, 64, 2, True),
        (4, 2, True, 64, 2, True),
        (5, 3, True, 64, 3, True),
    ]


def test_sweep_value_must_be_eigenvalue(capsys):
    code, _ = run_main(["sweep", "--value", "10"], capsys)
    assert code == 1


def test_out_writes_file(tmp_path):
    target = tmp_path / "report.md"
    result = run_cli(["table", "--out", str(target)])
    assert result.returncode == 0
    assert result.stdout == ""
    assert target.read_text() == GOLDEN.read_text()


def test_verdict_small_run(capsys):
    code, out = run_main(
        ["verdict", "--samples", "25", "--resolution", "48", "--seed", "2"],
        capsys,
    )
    assert code == 0
    assert "Courant sharp: k=1 (lambda=3), k=2 (lambda=6)" in out
    assert "not Courant sharp" in out


def test_verdict_refuses_csv():
    result = run_cli(["verdict", "--lambda-max", "6", "--format", "csv"])
    assert result.returncode == 1
    assert result.stdout == ""


def test_verdict_witness_must_converge(capsys, monkeypatch):
    # One domain for k=1, but the count never settled: not sharp, a warning.
    fake = NodalCount(1, 0, 0, 512, False)
    monkeypatch.setattr(cli, "count_nodal_domains", lambda *a, **k: fake)
    code, out = run_main(["verdict", "--lambda-max", "6", "--format", "json"], capsys)
    assert code == 2
    data = json.loads(out)
    assert 1 not in data["courant_sharp"]
    assert data["unresolved"] == [1, 2]
    assert any("k=1" in w for w in data["warnings"])


def test_verdict_json_fields(capsys):
    code, out = run_main(
        ["verdict", "--samples", "20", "--resolution", "48", "--seed", "2",
         "--format", "json"],
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    assert data["courant_sharp"] == [1, 2]
    sweep = data["eigenspace_sweep"]
    assert sweep["value"] == 11
    assert sweep["k_min"] == 8
    assert set(sweep["histogram"]) <= {"2", "3", "4"}
    assert sweep["predictor_mismatches"] == 0
    assert data["complete"] is True
    assert data["warnings"] == []


def test_verdict_partial_range_exits_with_warning(capsys):
    # 10 is below 48, the last cube eigenvalue under the cutoff 48.7.
    code, out = run_main(["verdict", "--lambda-max", "10"], capsys)
    assert code == 2
    assert "partial" in out
    code, out = run_main(["verdict", "--lambda-max", "10", "--format", "json"], capsys)
    data = json.loads(out)
    assert data["complete"] is False
    assert data["courant_sharp"] == [1, 2]
    assert any("partial" in w for w in data["warnings"])


def test_verdict_survivor_not_excluded_exits_with_warning(capsys, monkeypatch):
    def reaching(group, n_samples, n0, *, seed, cap):
        count = NodalCount(4, 4, 0, 2 * n0, True)
        sample = SweepSample(0, (1.0,) + (0.0,) * (group.multiplicity - 1), count)
        return SweepResult(group, n0, seed, (sample,))

    monkeypatch.setattr(cli, "sweep_eigenspace", reaching)
    code, out = run_main(["verdict", "--format", "json"], capsys)
    assert code == 2
    data = json.loads(out)
    assert data["eigenspace_sweep"]["courant_sharp"] is True
    assert data["unresolved"] == [8]
    assert any("k=8" in w and "not excluded" in w for w in data["warnings"])


def test_verdict_predictor_mismatch_exits_with_warning(capsys, monkeypatch):
    # A predictor that disagrees with every grid count (2 or 3 at eigenvalue 11).
    wrong = Subcase("wrong", 5, (1.0, 1.0, 1.0))
    monkeypatch.setattr(cli.quadric, "predict_components", lambda q: wrong)
    code, out = run_main(
        ["verdict", "--samples", "6", "--resolution", "32", "--seed", "2", "--format", "json"],
        capsys,
    )
    assert code == 2
    data = json.loads(out)
    sweep = data["eigenspace_sweep"]
    assert sweep["predictor_checked"] > 0
    assert sweep["predictor_mismatches"] == sweep["predictor_checked"]
    assert sweep["max_total"] < 8
    assert sweep["courant_sharp"] is True
    assert data["unresolved"] == [8]
    assert any("k=8" in w and "predictor mismatch" in w for w in data["warnings"])


def test_sweep_predictor_mismatch_exits_with_warning(capsys, monkeypatch):
    # A predictor that disagrees with every grid count (2 or 3 at eigenvalue 11).
    wrong = Subcase("wrong", 5, (1.0, 1.0, 1.0))
    monkeypatch.setattr(cli.quadric, "predict_components", lambda q: wrong)
    assert cli.main(SWEEP_GOLDEN_ARGV + ["--format", "json"]) == 2
    records = json.loads(capsys.readouterr().out)["records"]
    checked = [r["index"] for r in records if r["boundary_distance"] > cli.BOUNDARY_SKIP_RADIUS]
    assert checked
    # The report is the one without a mismatch; stderr names the checked samples.
    assert cli.main(SWEEP_GOLDEN_ARGV) == 2
    captured = capsys.readouterr()
    assert captured.out == (DATA / "sweep_golden.md").read_text()
    assert captured.err == (
        f"cubenodal: warning: predictor mismatch at sample(s) {', '.join(map(str, checked))}\n"
    )


@pytest.mark.parametrize("target", ["missing/report.md", "."], ids=["no-directory", "directory"])
def test_unusable_out_is_refused_before_counting(target, tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("counted before --out was checked")

    monkeypatch.setattr(cli, "sweep_eigenspace", fail)
    for argv in (["sweep", "--samples", "2"], ["verdict", "--samples", "2"]):
        code = cli.main(argv + ["--out", str(tmp_path / target)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("cubenodal: error: --out ")
        assert captured.err.count("\n") == 1
    assert not (tmp_path / "missing").exists()
