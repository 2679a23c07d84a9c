import hashlib
import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from efxlab import classical, cli, harness, offline_simon, plot_svg, qsim
from efxlab.ciphers import (SPECS, ConstructionKind, KeyMaterial, make_construction,
                            make_ideal_cipher)
from efxlab.harness import parse_config, run_attack, sweep, sweep_csv, verify

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

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


def test_validate_checks_u_only_where_offline_simon_reads_it():
    # at alpha > 0 the database is the full domain and u is not read
    cfg = parse_config(BASE_CONFIG)
    cfg.u, cfg.alpha = 99, 0.0625
    assert cfg.validate() == []
    cfg.alpha = 0.0
    assert cfg.validate() == ["u: 99 out of range [0, 4]"]


def test_cli_sweeps_n_below_u_on_a_known_plaintext_config(tmp_path):
    # efx_kpa sets u = 4, which the run never reads at alpha = 0.0625: the
    # row reports the u the run used, u = n = 3, as iterations_formula does
    cfg_path = tmp_path / "efx_kpa.cfg"
    cfg_path.write_text((CONFIGS / "efx_kpa.cfg").read_text().replace("trials = 200",
                                                                        "trials = 2"))
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--config", str(cfg_path), "--axis", "n", "--values", "3",
                     "--out", str(out)]) == cli.EXIT_OK
    header, row = out.read_text().splitlines()
    row = dict(zip(header.split(","), row.split(",")))
    assert (row["n"], row["u"], row["trials"]) == ("3", "3", "2")
    assert row["iterations_formula"] == str(harness.iterations_formula(3, 4, 3))


def test_validate_rejects_a_qubit_cap_over_the_default():
    cfg = parse_config(BASE_CONFIG)
    cfg.qubit_cap = qsim.DEFAULT_QUBIT_CAP
    assert cfg.validate() == []
    cfg.qubit_cap = 40
    (error,) = cfg.validate()
    assert error.startswith("qubit_cap:") and f"{26 << 40:,} bytes" in error


# each integer field's declared range on a valid base config: TENSOR offline
# Simon (n = 4, so u in [0, 4]) and, for data, the two attacks that read it
FIELD_RANGES = [
    ("", "n", 1, 16), ("", "kappa", 1, 16), ("", "c", 1, 1024),
    ("", "trials", 0, harness.MAX_TRIALS), ("", "max_searches", 1, 1 << 20),
    ("", "qubit_cap", 1, 26), ("", "u", 0, 4),
    ("attack = guess_and_em\ndata = 16", "data", 2, 16),
    ("attack = exhaustive\ndata = 16", "data", 0, 16),
]


@st.composite
def field_values(draw):
    """(base config, field, its range, a value inside it or just or far outside)."""
    extra, field, lo, hi = draw(st.sampled_from(FIELD_RANGES))
    value = draw(st.integers(lo, hi) | st.sampled_from([lo - 1, hi + 1, 10 ** 20, -10 ** 20]))
    return extra, field, lo, hi, value


@settings(max_examples=300, deadline=None)
@given(field_values())
def test_validate_checks_every_integer_field_against_its_range(case):
    extra, field, lo, hi, value = case
    cfg = parse_config(BASE_CONFIG + extra)
    assert cfg.validate() == []
    setattr(cfg, field, value)
    with mock.patch.object(harness, "run_trial", side_effect=AssertionError("a trial ran")):
        errors = cfg.validate()
        if not lo <= value <= hi:
            with pytest.raises(ValueError, match=f"{field}: "):
                run_attack(cfg)
    named = [e for e in errors if e.startswith(f"{field}:")]
    if lo <= value <= hi:
        assert named == []
    else:
        (error,) = named
        assert f" out of range [{lo}, {hi}]" in error
        assert "\n" not in error and len(error) <= 120, error


def test_validate_rejects_a_search_space_over_the_limit():
    cfg = parse_config("attack = offline_simon\nconstruction = EFX\nn = 8\nkappa = 16\nu = 2")
    (error,) = cfg.validate()
    assert error.startswith("search space:") and "22 bits" in error
    assert str(offline_simon.MAX_SEARCH_BITS) in error
    cfg.u = 4  # 20 bits
    assert cfg.validate() == []


def test_validate_rejects_a_classical_search_over_the_limit():
    cfg = parse_config("attack = exhaustive\nconstruction = EFX\nn = 8\nkappa = 6")
    assert cfg.validate() == ["search space: k + k1 + k2 = 22 bits, over the limit of 20"]
    cfg.kappa = 4  # 20 bits
    assert cfg.validate() == []
    cfg = parse_config("attack = guess_and_em\nconstruction = EFX\nn = 12\nkappa = 9\n"
                       "data = 16")
    assert cfg.validate() == ["search space: kappa + n = 21 bits, over the limit of 20"]
    cfg.kappa = 8  # 20 bits
    assert cfg.validate() == []


def test_validate_rejects_a_span_dp_over_the_limit():
    cfg = parse_config("attack = offline_simon\nconstruction = EFX\nn = 8\nkappa = 1\n"
                       "u = 8\nc = 4")
    (error,) = cfg.validate()
    assert error == ("span DP: u = 8, c = 4 caches 27,700,736 transitions, about "
                     "304,708,096 bytes, over the limit of 4,194,304")
    cfg.c = 3  # 2,829,056 transitions
    assert cfg.validate() == []
    cfg.u, cfg.c = 7, 100  # every subspace of F_2^7: 3,739,136 transitions
    assert cfg.validate() == []
    cfg.attack = "grover_meets_simon"  # u = n = 8
    assert cfg.validate()[0].startswith("span DP: u = 8, c = 100")


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


@pytest.mark.parametrize("config, axis, values", [
    ("attack = em_q2\nconstruction = EM\nkappa = 1\nc = 6", "n", [3, 4]),
    ("attack = guess_and_em\nconstruction = EFX\nn = 3\nkappa = 2\ndata = 4", "D", [4, 8]),
    ("attack = exhaustive\nconstruction = EFX\nn = 3\nkappa = 2\ndata = 2", "D", [2, 3]),
])
def test_sweep_search_columns_empty_for_attacks_that_do_not_search(config, axis, values):
    cfg = parse_config(config + "\ntrials = 2\nseed = 11")
    rows = sweep(cfg, axis, values)
    assert [row["value"] for row in rows] == values
    for row in rows:
        assert row["iterations_formula"] == row["ref_time"] == ""
    for line in sweep_csv(rows).splitlines()[1:]:
        fields = dict(zip(harness.SWEEP_COLUMNS, line.split(",")))
        assert fields["iterations_formula"] == fields["ref_time"] == ""


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


def test_plot_escapes_its_legend_text():
    import xml.etree.ElementTree as ET

    rows = [("<b>&x", 0.0, 1.0, "formula"), ("<b>&x", 0.5, 1.5, "formula"),
            ('q"a', 0.25, 1.0, "measured")]
    root = ET.fromstring(plot_svg.plot_curves(rows))
    texts = [node.text for node in root.iter("{http://www.w3.org/2000/svg}text")]
    assert "<b>&x (formula)" in texts and 'q"a (measured)' in texts


def test_plot_draws_one_circle_per_measured_row():
    rows = [("q1", 0.25, 1.0, "measured"), ("q1", 0.5, 0.75, "measured"),
            ("q2", 0.5, 1.5, "measured"), ("q1", 0.0, 1.0, "formula"),
            ("q1", 1.0, 0.5, "formula")]
    svg = plot_svg.plot_curves(rows)
    assert svg.count("<circle") == 3 and svg.count("<polyline") == 1


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


def test_cli_attack_seed_overrides_the_config(tmp_path):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text((CONFIGS / "efx_exact_tiny.cfg").read_text()
                        .replace("trials = 200", "trials = 2"))
    cfg = parse_config(cfg_path.read_text())
    assert (cfg.trials, cfg.seed) == (2, 2024)
    cfg.seed = 5
    expected = harness.report_json(run_attack(cfg))
    out = tmp_path / "report.json"
    code = cli.main(["attack", "--config", str(cfg_path), "--seed", "5", "--out", str(out)])
    report = json.loads(expected)
    assert report["config"]["seed"] == 5
    assert code == (cli.EXIT_OK if report["summary"]["successes"] else cli.EXIT_ATTACK_FAILURE)
    assert out.read_bytes() == expected.encode()


def test_an_unknown_attack_is_refused_by_validate_and_by_run_trial():
    cfg = parse_config(BASE_CONFIG.replace("attack = offline_simon", "attack = nope"))
    assert cfg.validate() == ["attack: unknown kind 'nope'"]
    with pytest.raises(ValueError) as refused:
        harness.run_trial(cfg, 0)
    assert str(refused.value) == "unknown attack 'nope'"


# each attack's entry point, as its module holds it
ENTRY_POINTS = {"offline_simon": (offline_simon, "offline_simon_attack"),
                "grover_meets_simon": (offline_simon, "grover_meets_simon_attack"),
                "em_q2": (offline_simon, "em_q2_attack"),
                "guess_and_em": (classical, "guess_and_em_attack"),
                "exhaustive": (classical, "exhaustive_search")}


class EntryPointCalled(Exception):
    pass


def test_the_attack_table_has_one_row_per_attack_a_kind_accepts():
    accepted = set().union(*(spec.attacks for spec in SPECS.values()))
    assert accepted == set(harness.ATTACKS) == set(ENTRY_POINTS)


@pytest.mark.parametrize("attack", sorted(ENTRY_POINTS))
def test_run_trial_calls_the_entry_point_its_module_holds(monkeypatch, attack):
    # a tracer wraps an entry point by patching its module attribute, so the
    # patched attribute is what a trial must call
    module, name = ENTRY_POINTS[attack]

    def stub(*args, **kwargs):
        raise EntryPointCalled(name)

    monkeypatch.setattr(module, name, stub)
    cfg = parse_config(f"attack = {attack}\nconstruction = EM\nn = 3\nkappa = 2\ndata = 4")
    assert cfg.validate() == []
    with pytest.raises(EntryPointCalled):
        harness.run_trial(cfg, 0)


def test_parse_curve_csv_reads_no_rows_from_no_lines_and_refuses_other_columns():
    assert plot_svg.parse_curve_csv("") == []
    with pytest.raises(ValueError) as refused:
        plot_svg.parse_curve_csv("attack,x,y\nq1,0,0\n")
    assert str(refused.value) == ("curve CSV must carry columns ('attack', 'log2D_over_n', "
                                  "'log2T_over_n'), got ['attack', 'x', 'y']")


def test_cli_config_error_exit_code(tmp_path):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(BASE_CONFIG + "\nmode = EXACT\n")
    assert cli.main(["attack", "--config", str(cfg_path)]) == cli.EXIT_CONFIG_ERROR
    assert cli.main(["attack", "--config", str(tmp_path / "missing.cfg")]) == \
        cli.EXIT_CONFIG_ERROR


def test_cli_attack_exits_1_when_no_trial_succeeds(tmp_path):
    # with 99.9% of the codebook missing no candidate verifies
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text("attack = offline_simon\nconstruction = EFX\nn = 3\nkappa = 2\n"
                        "u = 2\nc = 3\nalpha = 0.999\n")
    out = tmp_path / "report.json"
    assert cli.main(["attack", "--config", str(cfg_path), "--out", str(out)]) == \
        cli.EXIT_ATTACK_FAILURE
    assert json.loads(out.read_text())["summary"]["successes"] == 0


def assert_rejected_before_running(argv, capsys, monkeypatch):
    """The CLI exits 2 with an error line, no traceback and no trial run."""
    def no_trials(cfg, trial):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(harness, "run_trial", no_trials)
    assert cli.main(argv) == cli.EXIT_CONFIG_ERROR
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert captured.out == ""
    assert "Traceback" not in captured.err
    return captured.err


@pytest.mark.parametrize("config", [
    "attack = exhaustive\nconstruction = EFX\nn = 3\nkappa = 2\ndata = 9",
    "attack = exhaustive\nconstruction = ECBC3\nn = 3\nkappa = 2\ndata = 4",
    "attack = guess_and_em\nconstruction = DEFX\nn = 3\nkappa = 2\ndata = 4",
    "attack = guess_and_em\nconstruction = ITERATED_EM\nn = 3\nkappa = 2\ndata = 4",
    "attack = exhaustive\nconstruction = ITERATED_EM\nn = 3\nkappa = 2\ndata = 4",
    "attack = em_q2\nconstruction = EM\nn = 13\nkappa = 1\nc = 17",
    # 4 search bits + 6 registers of 4 + 4 qubits
    "attack = grover_meets_simon\nconstruction = EFX\nn = 4\nkappa = 4\nc = 6\nmode = EXACT",
    # 36 qubits, about 1.8 TB at 26 B per amplitude
    "attack = offline_simon\nconstruction = EFX\nn = 4\nkappa = 4\nu = 2\nc = 5\n"
    "mode = EXACT\nqubit_cap = 40",
    # 48 key bits to enumerate; 32 bits of inner key and whitening to guess
    "attack = exhaustive\nconstruction = EFX\nn = 16\nkappa = 16",
    "attack = guess_and_em\nconstruction = EFX\nn = 16\nkappa = 16\ndata = 16",
    # span DPs of 104 M and 67 M transitions, about 21 and 13 GB
    "attack = offline_simon\nconstruction = EFX\nn = 8\nkappa = 1\nalpha = 0.1\nc = 6",
    "attack = offline_simon\nconstruction = EM\nn = 13\nu = 13\nc = 2\nmode = EXACT",
    # more registers than MAX_REGISTERS: the pass test and sampling loop c times
    "attack = offline_simon\nconstruction = EFX\nn = 4\nkappa = 4\nu = 2\n"
    "c = 100000000000000000000",
    "attack = em_q2\nconstruction = EM\nn = 4\nkappa = 1\nc = 1025",
])
def test_cli_rejects_unsupported_config_before_running(tmp_path, capsys, monkeypatch,
                                                       config):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(config + "\n")
    assert_rejected_before_running(["attack", "--config", str(cfg_path)], capsys, monkeypatch)


def test_cli_refuses_defx_below_the_full_domain(tmp_path, capsys, monkeypatch):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text("attack = offline_simon\nconstruction = DEFX\nn = 3\nkappa = 2\n"
                        "u = 2\n")
    err = assert_rejected_before_running(["attack", "--config", str(cfg_path)], capsys,
                                         monkeypatch)
    assert err == "error: u: DEFX needs the full domain (u = n)\n"


@pytest.mark.parametrize("field, config", [
    ("kappa", f"attack = offline_simon\nconstruction = EFX\nn = 4\nkappa = {10 ** 20}"),
    ("kappa", f"attack = grover_meets_simon\nconstruction = FX\nn = 4\nkappa = {10 ** 20}"),
    ("n", f"attack = guess_and_em\nconstruction = EFX\ndata = 16\nn = {10 ** 20}"),
    ("n", f"attack = exhaustive\nconstruction = EFX\nn = {10 ** 20}"),
    ("qubit_cap", f"attack = offline_simon\nconstruction = EFX\nqubit_cap = {10 ** 20}"),
    ("kappa", "attack = offline_simon\nconstruction = EFX\nkappa = 100000"),
    ("qubit_cap", "attack = offline_simon\nconstruction = EFX\nqubit_cap = 100000"),
    ("n", "attack = exhaustive\nconstruction = EFX\nn = -5"),
    ("kappa", "attack = offline_simon\nconstruction = EFX\nkappa = -100"),
    # these ran: 10^20 trials until killed with no output, the others a trial each
    ("trials", f"attack = em_q2\nconstruction = EM\nn = 4\nc = 6\ntrials = {10 ** 20}"),
    ("qubit_cap", "attack = offline_simon\nconstruction = EFX\nqubit_cap = -7"),
    ("max_searches", f"attack = offline_simon\nconstruction = EFX\nmax_searches = {10 ** 20}"),
    ("data", "attack = exhaustive\nconstruction = EFX\nn = 3\nkappa = 2\ndata = -5"),
], ids=["offline-kappa-1e20", "grover-kappa-1e20", "guess-and-em-n-1e20",
        "exhaustive-n-1e20", "qubit-cap-1e20", "kappa-100000", "qubit-cap-100000",
        "exhaustive-n-negative", "kappa-negative", "em-q2-trials-1e20",
        "qubit-cap-negative", "max-searches-1e20", "exhaustive-data-negative"])
def test_cli_names_an_out_of_range_field_in_one_line(tmp_path, capsys, monkeypatch,
                                                     field, config):
    # 1 << n, 26 << qubit_cap and search_limits overflowed on 10^20, a derived
    # message broke the int-to-str digit limit on 100000, and a negative size
    # made a negative shift count
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(config + "\n")
    err = assert_rejected_before_running(["attack", "--config", str(cfg_path)], capsys,
                                         monkeypatch)
    assert err.startswith(f"error: {field}: ") and err.count("\n") == 1, err
    assert len(err) <= 120, err


@pytest.mark.parametrize("argv", [
    ["sweep", "--axis", "u", "--values", "2.5", "1.9"],
    ["sweep", "--axis", "D", "--values", "4", "4.5"],
    ["sweep", "--axis", "n", "--values", "3.5"],
    ["sweep", "--axis", "n", "--values", "1e300"],
    ["curves", "--n", "0", "--kappa", "4"],
    ["curves", "--n", "-3", "--kappa", "4"],
    ["curves", "--n", "4", "--kappa", "-2"],
    ["attack", "--config", "{dir}"],
    ["sweep", "--axis", "u", "--values", "1", "--config", "{dir}"],
    ["plot", "--in", "{dir}", "--out", "{dir}/x.svg"],
    ["plot", "--in", "{dir}/short.csv", "--out", "{dir}/x.svg"],
    # 2^1100, 2^2000 and 2^1100 overflow a float; nan is no exponent
    ["bounds", "--n", "4", "--kappa", "8", "--grid-t", "1100"],
    ["bounds", "--n", "4", "--kappa", "8", "--grid-d", "2000"],
    ["bounds", "--n", "1100", "--kappa", "8", "--grid-d", "1", "--grid-t", "1"],
    ["bounds", "--n", "4", "--kappa", "8", "--grid-d", "nan"],
    ["plot", "--in", "{dir}/nan.csv", "--out", "{dir}/x.svg"],
    # the default grids turned these into floats and overflowed
    ["curves", "--n", str(10 ** 400), "--kappa", "1"],
    ["curves", "--n", "4", "--kappa", str(10 ** 400)],
    ["bounds", "--n", str(10 ** 400), "--kappa", "1"],
    ["bounds", "--n", "4", "--kappa", str(10 ** 400)],
    # named by its digit count, not echoed
    ["curves", "--n", str(10 ** 60), "--kappa", "1"],
    ["bounds", "--n", "4", "--kappa", str(-10 ** 60)],
    # these ran the same attack once per value: the attack does not read the axis
    ["sweep", "--axis", "D", "--values", "2", "16"],
    ["sweep", "--axis", "u", "--values", "1", "5", "--config", str(CONFIGS / "em_q2.cfg")],
    ["sweep", "--axis", "alpha", "--values", "0.1", "0.5",
     "--config", str(CONFIGS / "em_q2.cfg")],
    ["sweep", "--axis", "u", "--values", "1", "3", "4", "--config", str(CONFIGS / "efx_kpa.cfg")],
    ["sweep", "--axis", "u", "--values", "0", "2", "--config", "{dir}/grover.cfg"],
    # these ran every trial of the points before the invalid one, or the alpha
    # = 0 baseline, before they refused it
    ["sweep", "--axis", "n", "--values", "4", "1", "--config", str(CONFIGS / "efx_tensor.cfg")],
    ["sweep", "--axis", "alpha", "--values", "0.1", "1.5"],
], ids=["sweep-u", "sweep-D", "sweep-n", "sweep-n-1e300", "curves-n-zero", "curves-n-negative",
        "curves-kappa-negative", "attack-config-dir", "sweep-config-dir", "plot-in-dir",
        "plot-short-row", "bounds-t-1100", "bounds-d-2000", "bounds-n-1100", "bounds-d-nan",
        "plot-nan", "curves-n-huge", "curves-kappa-huge", "bounds-n-huge",
        "bounds-kappa-huge", "curves-n-61-digits", "bounds-kappa-minus-61-digits",
        "sweep-D-offline-simon", "sweep-u-em-q2", "sweep-alpha-em-q2", "sweep-u-efx-kpa",
        "sweep-u-grover", "sweep-n-efx-tensor-late-point", "sweep-alpha-late-point"])
def test_cli_rejects_misuse_before_running(tmp_path, capsys, monkeypatch, argv):
    if argv[0] == "sweep" and "--config" not in argv:
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(BASE_CONFIG)
        argv = argv + ["--config", str(cfg_path)]
    (tmp_path / "grover.cfg").write_text(BASE_CONFIG.replace("offline_simon",
                                                             "grover_meets_simon"))
    (tmp_path / "short.csv").write_text("attack,log2D_over_n,log2T_over_n\nq1,0.5\n")
    (tmp_path / "nan.csv").write_text("attack,log2D_over_n,log2T_over_n\nq1,0.5,nan\n")
    argv = [arg.replace("{dir}", str(tmp_path)) for arg in argv]
    err = assert_rejected_before_running(argv, capsys, monkeypatch)
    assert err.count("\n") == 1 and len(err) <= 120, err
    assert not (tmp_path / "x.svg").exists()


def test_cli_alpha_sweep_refuses_a_point_before_its_baseline_runs(tmp_path, capsys,
                                                                  monkeypatch):
    # the alpha = 0 baseline ran its 5 trials before the span DP refused the
    # full-domain point
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text("attack = offline_simon\nconstruction = EFX\nn = 8\nkappa = 1\n"
                        "u = 2\nc = 6\ntrials = 5\n")
    err = assert_rejected_before_running(["sweep", "--config", str(cfg_path), "--axis",
                                          "alpha", "--values", "0.1"], capsys, monkeypatch)
    assert err.startswith("error: sweep point 0 (alpha=0.1): span DP: u = 8, c = 6 ")
    assert err.count("\n") == 1


def _instance(kind, seed=1):
    return harness.build_instance(ConstructionKind(kind), 3, 2, seed)


def _overlap_of_disagreeing_databases():
    full = offline_simon.build_database_kpa(_instance("EFX", 1), range(8), 2)
    other = offline_simon.build_database_kpa(_instance("EFX", 2), range(4), 2)
    return offline_simon.database_overlap(full, other)


def _alpha_sweep_from_an_invalid_baseline():
    cfg = parse_config("attack = offline_simon\nconstruction = EFX\nn = 4\nkappa = 4\n"
                       "u = 99\nalpha = 0.1")
    # u is read only at alpha = 0, which the sweep's baseline runs
    assert cfg.validate() == []
    return sweep(cfg, "alpha", [0.2])


# raises that no other test reaches, each with its message (n = 3, kappa = 2)
REFUSALS = {
    "cpa-u-over-n": (lambda: offline_simon.build_database_cpa(_instance("EFX"), 4, 2),
                     "u=4 out of range [0, 3]"),
    "cpa-no-register": (lambda: offline_simon.build_database_cpa(_instance("EFX"), 2, 0),
                        "need at least one register"),
    "kpa-no-register": (lambda: offline_simon.build_database_kpa(_instance("EFX"), [1], 0),
                        "need at least one register"),
    "kpa-input-over-n": (lambda: offline_simon.build_database_kpa(_instance("EFX"), [8], 2),
                         "known input 8 out of range"),
    "overlap-disagrees": (_overlap_of_disagreeing_databases,
                          "known payloads disagree between databases"),
    "grover-ecbc3": (lambda: offline_simon.grover_meets_simon_attack(
        _instance("ECBC3"), 2, np.random.default_rng(0)),
        "grover_meets_simon does not support ECBC3"),
    "em-q2-fx": (lambda: offline_simon.em_q2_attack(_instance("FX"), 2, np.random.default_rng(0)),
                 "em_q2 does not support FX"),
    "exhaustive-ecbc3": (lambda: classical.exhaustive_search(_instance("ECBC3"), [(0, 0), (1, 1)]),
                         "exhaustive does not support ECBC3"),
    "construction-block-sizes": (lambda: make_construction(
        ConstructionKind.EFX, [make_ideal_cipher(3, 2, 1), make_ideal_cipher(4, 2, 2)],
        KeyMaterial(k=0, k1=0, k2=0)), "components disagree on block size"),
    "construction-no-k1": (lambda: make_construction(
        ConstructionKind.EFX, [make_ideal_cipher(3, 2, 1), make_ideal_cipher(3, 2, 2)],
        KeyMaterial(k=0, k1=None, k2=0)), "key material field k1 is required"),
    "verify-unknown-suite": (lambda: verify(["nope"]), "unknown suite 'nope'"),
    "sweep-alpha-baseline": (_alpha_sweep_from_an_invalid_baseline,
                             "alpha sweep baseline invalid: u: 99 out of range [0, 4]"),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_refusals_name_their_cause(monkeypatch, case):
    def no_trials(cfg, trial):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(harness, "run_trial", no_trials)
    call, message = REFUSALS[case]
    with pytest.raises(ValueError) as refused:
        call()
    assert str(refused.value) == message


@pytest.mark.parametrize("value", ["inf", "1e300"])
def test_cli_plot_refuses_an_unbounded_coordinate_in_a_subprocess(tmp_path, value):
    # the tick loop never ended on these values and grew by about 40 MB/s: a hang
    # fails here on the timeout or on the 1 GB address-space limit
    csv_path = tmp_path / "curve.csv"
    csv_path.write_text(f"attack,log2D_over_n,log2T_over_n\nq1,{value},0.5\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "efxlab", "plot", "--in", str(csv_path),
                           "--out", str(tmp_path / "x.svg")],
                          capture_output=True, text=True, timeout=60, env=env,
                          preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                                                (1 << 30, 1 << 30)))
    assert done.returncode == cli.EXIT_CONFIG_ERROR
    assert done.stderr.startswith("error: line 2: log2D_over_n")
    assert "Traceback" not in done.stderr
    assert not (tmp_path / "x.svg").exists()


def test_cli_curves_and_plot(tmp_path):
    csv_path = tmp_path / "curves.csv"
    svg_path = tmp_path / "curves.svg"
    assert cli.main(["curves", "--n", "4", "--kappa", "8",
                     "--out", str(csv_path)]) == 0
    assert cli.main(["plot", "--in", str(csv_path), "--out", str(svg_path)]) == 0
    assert svg_path.read_text().startswith("<svg")


# sha256 of the whole CSV: the default grid, and an explicit one with zero,
# fractional and clamping exponents
BOUNDS_DIGESTS = [
    (["--n", "4", "--kappa", "8"],
     "300a3f86e3948eae1718a1686ce10fbf70700452e8672bff58b73debcb5bf5b2"),
    (["--n", "6", "--kappa", "12", "--grid-d", "0", "1", "2.5", "3",
      "--grid-t", "0", "5", "9", "18"],
     "0749d7baf3939d4e252d940a0d2d39e7a3f688fdd38c2d72fdb27c1bc0320340"),
]


def test_cli_bounds_and_verify(capsys):
    for args, digest in BOUNDS_DIGESTS:
        assert cli.main(["bounds"] + args) == 0
        out = capsys.readouterr().out
        assert out.startswith("log2D,log2T,")
        assert hashlib.sha256(out.encode()).hexdigest() == digest, args
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
