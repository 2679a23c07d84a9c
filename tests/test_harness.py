import json
import math

import pytest

from efxlab import cli, harness, plot_svg, qsim
from efxlab.harness import parse_config, run_attack, sweep, sweep_csv, verify

BASE_CONFIG = """
# comment line
attack = offline_simon
construction = EFX
n = 4
kappa = 4
u = 2
c = 6
mode = TENSOR
trials = 5
seed = 11
"""


def test_parse_config():
    cfg = parse_config(BASE_CONFIG)
    assert cfg.construction == "EFX" and cfg.u == 2 and cfg.trials == 5
    assert cfg.validate() == []


def test_parse_config_errors():
    with pytest.raises(ValueError):
        parse_config("unknown_key = 3")
    with pytest.raises(ValueError):
        parse_config("n = abc")
    with pytest.raises(ValueError):
        parse_config("just some words")


def test_validation_field_messages():
    cfg = parse_config(BASE_CONFIG)
    cfg.u = 9
    cfg.mode = "FANCY"
    errors = cfg.validate()
    assert any(e.startswith("u:") for e in errors)
    assert any(e.startswith("mode:") for e in errors)


def test_exact_qubit_cap_rejected_before_running():
    cfg = parse_config(BASE_CONFIG)
    cfg.mode = "EXACT"  # 4 + 2 + 6*(2+4) = 42 qubits
    errors = cfg.validate()
    assert any("EXACT" in e and "qubits" in e for e in errors)
    with pytest.raises(ValueError):
        run_attack(cfg)


def test_run_attack_deterministic_bytes():
    cfg = parse_config(BASE_CONFIG)
    a = harness.report_json(run_attack(cfg))
    b = harness.report_json(run_attack(cfg))
    assert a == b
    assert json.loads(a)["summary"]["trials"] == 5


def test_run_attack_zero_trials():
    cfg = parse_config(BASE_CONFIG)
    cfg.trials = 0
    rep = run_attack(cfg)
    assert rep["summary"]["successes"] == 0
    assert rep["summary"]["mean_online_queries"] == 0.0
    assert rep["trials"] == []


def test_validate_ignores_u_for_attacks_that_do_not_read_it():
    cfg = parse_config("attack = em_q2\nconstruction = EM\nn = 1\nkappa = 1\nc = 6")
    assert cfg.u == 2
    assert cfg.validate() == []
    cfg = parse_config("attack = grover_meets_simon\nconstruction = EFX\nn = 1\nkappa = 2")
    assert cfg.validate() == []
    assert cfg.effective_u == 1


def test_validate_rejects_a_qubit_cap_over_the_default():
    cfg = parse_config(BASE_CONFIG)
    cfg.qubit_cap = qsim.DEFAULT_QUBIT_CAP
    assert cfg.validate() == []
    cfg.qubit_cap = 40
    (error,) = cfg.validate()
    assert error.startswith("qubit_cap:") and f"{45 << 40:,} bytes" in error


def test_grover_sweep_iteration_column_matches_formula():
    cfg = parse_config("attack = grover_meets_simon\nconstruction = EFX\nkappa = 2\n"
                       "c = 6\ntrials = 2\nseed = 11")
    rows = sweep(cfg, "n", [3, 4])
    for row in rows:
        assert row["iterations"] == qsim.search_iterations(2) == 1
        assert row["iterations_formula"] == row["iterations"]


def test_sweep_iteration_column_matches_formula():
    cfg = parse_config(BASE_CONFIG)
    cfg.trials = 3
    rows = sweep(cfg, "u", [0, 1, 2, 3, 4])
    for row, u in zip(rows, [0, 1, 2, 3, 4]):
        expected = harness.iterations_formula(4, 4, u)
        assert row["iterations"] == expected
        assert row["iterations_formula"] == expected
        assert row["mean_online"] == float(1 << u)


def test_sweep_alpha_axis_bound_columns():
    cfg = parse_config(BASE_CONFIG)
    cfg.trials = 10
    rows = sweep(cfg, "alpha", [0.0, 1 / 16])
    assert rows[0]["fidelity_bound"] == 1.0
    assert rows[1]["fidelity_bound"] == pytest.approx((1 - math.sqrt(12 / 16)) ** 2)
    assert all(row["bound_ok"] for row in rows)


def test_sweep_empty_values_and_bad_axis():
    cfg = parse_config(BASE_CONFIG)
    rows = sweep(cfg, "u", [])
    assert rows == []
    assert sweep_csv(rows).splitlines()[0].startswith("axis,")
    with pytest.raises(ValueError):
        sweep(cfg, "bogus", [1])


def test_verify_passes_and_subset():
    ok, results = verify()
    assert ok and {r["suite"] for r in results} == set(harness.VERIFY_SUITES)
    ok, results = verify(["unitarity"])
    assert ok and len(results) == 1


def test_verify_detects_corrupted_hadamard(monkeypatch):
    monkeypatch.setattr(qsim, "INV_SQRT2", 0.71)
    ok, results = verify(["unitarity"])
    assert not ok
    assert not results[0]["passed"]


def test_plot_reference_polylines(tmp_path):
    from efxlab.classical import CURVE_KINDS, tradeoff_curve

    n, kappa = 4, 8
    rows = []
    for kind in CURVE_KINDS:
        rows += tradeoff_curve(kind, n, kappa, [0.0, n / 2, float(n)])
    svg = plot_svg.plot_curves(rows)
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    assert svg.count("<polyline") == len(CURVE_KINDS)
    # round-trip through the CSV form
    csv_text = plot_svg.curve_rows_csv(rows)
    assert plot_svg.parse_curve_csv(csv_text) == [
        (a, x, y, s) for a, x, y, s in rows]


def test_plot_empty_csv_gives_axes_only():
    svg = plot_svg.plot_curves([])
    assert "<polyline" not in svg
    assert "<line" in svg


def test_cli_attack_roundtrip(tmp_path):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(BASE_CONFIG)
    out = tmp_path / "report.json"
    code = cli.main(["attack", "--config", str(cfg_path), "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["summary"]["trials"] == 5


def test_cli_config_error_exit_code(tmp_path):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(BASE_CONFIG + "\nmode = EXACT\n")
    assert cli.main(["attack", "--config", str(cfg_path)]) == cli.EXIT_CONFIG_ERROR
    assert cli.main(["attack", "--config", str(tmp_path / "missing.cfg")]) == \
        cli.EXIT_CONFIG_ERROR


@pytest.mark.parametrize("config", [
    "attack = exhaustive\nconstruction = EFX\nn = 3\nkappa = 2\ndata = 9",
    "attack = exhaustive\nconstruction = ECBC3\nn = 3\nkappa = 2\ndata = 4",
    "attack = guess_and_em\nconstruction = DEFX\nn = 3\nkappa = 2\ndata = 4",
    "attack = guess_and_em\nconstruction = ITERATED_EM\nn = 3\nkappa = 2\ndata = 4",
    "attack = exhaustive\nconstruction = ITERATED_EM\nn = 3\nkappa = 2\ndata = 4",
    "attack = em_q2\nconstruction = EM\nn = 13\nkappa = 1\nc = 17",
    # 4 search bits + 6 registers of 4 + 4 qubits
    "attack = grover_meets_simon\nconstruction = EFX\nn = 4\nkappa = 4\nc = 6\nmode = EXACT",
    # 36 qubits, about 3 TB at 45 B per amplitude
    "attack = offline_simon\nconstruction = EFX\nn = 4\nkappa = 4\nu = 2\nc = 5\n"
    "mode = EXACT\nqubit_cap = 40",
])
def test_cli_rejects_unsupported_config_before_running(tmp_path, capsys, monkeypatch,
                                                       config):
    def no_trials(cfg, trial):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(harness, "run_trial", no_trials)
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(config + "\n")
    assert cli.main(["attack", "--config", str(cfg_path)]) == cli.EXIT_CONFIG_ERROR
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert "Traceback" not in captured.out + captured.err


def test_cli_curves_and_plot(tmp_path):
    csv_path = tmp_path / "curves.csv"
    svg_path = tmp_path / "curves.svg"
    assert cli.main(["curves", "--n", "4", "--kappa", "8",
                     "--out", str(csv_path)]) == 0
    assert cli.main(["plot", "--in", str(csv_path), "--out", str(svg_path)]) == 0
    assert svg_path.read_text().startswith("<svg")


def test_cli_bounds_and_verify(tmp_path, capsys):
    assert cli.main(["bounds", "--n", "4", "--kappa", "8"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("log2D,log2T,")
    assert cli.main(["verify", "--suite", "bounds-grid"]) == 0


def test_cli_sweep(tmp_path):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(BASE_CONFIG.replace("trials = 5", "trials = 2"))
    out = tmp_path / "sweep.csv"
    code = cli.main(["sweep", "--config", str(cfg_path), "--axis", "u",
                     "--values", "1", "2", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("axis,")
    assert len(lines) == 3
