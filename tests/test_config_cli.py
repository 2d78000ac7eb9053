import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import chainflux
import chainflux.cli as cli
import chainflux.lindblad as lindblad
import chainflux.symmetry as symmetry
from chainflux.cli import main
from chainflux.config import apply_sweep_value, load_config
from chainflux.errors import SpecError
from chainflux.lindblad import TargetZ, TwistedXY


def _write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


GRADED_MODEL = {"n_sites": 3, "alpha": 1.0, "delta_mean": 1.0, "delta_step": 0.5,
                "b_uniform": 0.0}


def _count_calls(monkeypatch, name):
    """Record the calls of ``lindblad.<name>`` with an empty solve cache.

    A CLI-side reference of the same name is patched too, so a second solve
    path in the CLI would be counted.
    """
    lindblad._cached_chain_steady_state.cache_clear()
    calls = []
    original = getattr(lindblad, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(lindblad, name, counting)
    monkeypatch.setattr(cli, name, counting, raising=False)
    return calls


def _read_csv(path):
    lines = path.read_text().splitlines()
    header_comments = [line for line in lines if line.startswith("#")]
    table = [line for line in lines if not line.startswith("#")]
    columns = table[0].split(",")
    rows = [dict(zip(columns, line.split(","))) for line in table[1:]]
    return header_comments, columns, rows


# --- config parsing -------------------------------------------------------------


def test_load_config_graded_form_and_shorthand(tmp_path):
    path = _write_config(tmp_path, "c.json", {
        "model": GRADED_MODEL,
        "bath": {"family": "target_z", "f": 0.5, "gamma": 2.0},
        "output": {"path": "out.csv", "format": "csv"},
    })
    config = load_config(path)
    assert config.model.chain.delta == (0.5, 1.5)
    assert config.bath == TargetZ(f_left=0.5, f_right=-0.5, gamma=2.0)
    assert config.output.format == "csv"


def test_load_config_twisted_defaults(tmp_path):
    path = _write_config(tmp_path, "c.json", {
        "model": {"n_sites": 2, "alpha": 1.0, "delta": [1.0]},
        "bath": {"family": "twisted_xy", "k": 0.6},
    })
    config = load_config(path)
    assert config.bath == TwistedXY(k=0.6, k_prime=-0.6, rate=1.0)


def test_load_config_rejects_unknown_keys(tmp_path):
    # one XY coupling, alpha: alpha_prime is not a model key
    for key, value in (("typo_key", 1), ("alpha_prime", 1.0)):
        path = _write_config(tmp_path, "c.json", {
            "model": {**GRADED_MODEL, key: value},
            "bath": {"family": "target_z", "f": 0.5},
        })
        with pytest.raises(SpecError, match=key):
            load_config(path)


# the SolverConfig fields, evolve_dt included, that a config file could once set
FORMER_SOLVER_KEYS = {
    "residual_tol": 1e-9, "unique_tol": 1e-10, "trace_tol": 1e-10,
    "hermiticity_tol": 1e-10, "positivity_tol": 1e-9, "imag_tol": 1e-9,
    "conjugation_tol": 1e-8, "sign_floor": 1e-9, "dense_max_sites": 6,
    "evolve_max_sites": 10, "evolve_dt": 0.01, "evolve_max_steps": 1_000_000,
    "evolve_conv_tol": 1e-12, "evolve_min_steps": 10, "trace_drift_tol": 1e-8,
}


@pytest.mark.parametrize("key", sorted(FORMER_SOLVER_KEYS))
def test_load_config_refuses_solver_thresholds(tmp_path, key):
    # the thresholds are fixed; the solver section takes only method and workers
    path = _write_config(tmp_path, "c.json", {
        "model": GRADED_MODEL,
        "bath": {"family": "target_z", "f": 0.5},
        "solver": {"method": "auto", "workers": 1, key: FORMER_SOLVER_KEYS[key]},
    })
    with pytest.raises(SpecError, match=f"unknown keys in 'solver' section: \\['{key}'\\]"):
        load_config(path)


_STEADY_BASE = {"model": {"n_sites": 3, "alpha": 1.0, "delta": [1.0, 1.0]},
                "bath": {"family": "target_z", "f": 0.5}}


@pytest.mark.parametrize("command, payload, message", [
    ("steady", {**_STEADY_BASE, "model": {"n_sites": 3, "alpha": 1.0, "delta": ["x", 1.0]}},
     "'model.delta' entries must be numbers, got 'x'"),
    ("classical", {"classical": {"c": [1.0, None, 2.0], "t_left": 2.0, "t_right": 1.0}},
     "'classical.c' entries must be numbers, got None"),
    ("steady", {**_STEADY_BASE, "model": {"n_sites": 3, "alpha": 1.0, "delta": [1.0, 1.0],
                                         "b_field": [0.1, "0.2", 0.0]}},
     "'model.b_field' entries must be numbers, got '0.2'"),
    ("steady", {**_STEADY_BASE, "output": []}, "'output' section must be a JSON object"),
    ("steady", {**_STEADY_BASE, "model": "oops"}, "'model' section must be a JSON object"),
    ("steady", {**_STEADY_BASE, "model": {"n_sites": 3, "alpha": float("nan"),
                                         "delta": [1.0, 1.0]}},
     "'model.alpha' must be finite, got nan"),
    ("classical", {"classical": {"c": [1.0, float("inf"), 2.0], "t_left": 2.0,
                                 "t_right": 1.0}},
     "'classical.c' entries must be finite, got inf"),
], ids=["delta", "c", "b_field", "output", "model", "alpha_nan", "c_infinity"])
def test_cli_malformed_section_is_a_config_error(tmp_path, capsys, command, payload, message):
    config = _write_config(tmp_path, "c.json", payload)
    out = tmp_path / "never.csv"
    assert main([command, "--config", str(config), "--out", str(out)]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not out.exists()


# An integer past the float range: json.loads reads it as a Python int, on
# which math.isfinite raises OverflowError.
_OVERSIZE = 10**400
_SPIN_MODEL = {"n_sites": 3, "alpha": 1.0, "delta_mean": 1.0, "delta_step": 0.5}
_EXPLICIT_MODEL = {"n_sites": 3, "alpha": 1.0, "delta": [1.0, 1.0], "b_field": [0.0, 0.0, 0.0]}
_TARGET_Z = {"family": "target_z", "f_left": 0.5, "f_right": -0.5, "gamma": 1.0}
_TWISTED = {"family": "twisted_xy", "k": 0.5, "k_prime": -0.5, "rate": 1.0}
_CLASSICAL = {"c": [1.0, 2.0, 3.0], "alpha_exp": 0.5, "t_left": 2.0, "t_right": 1.0}
_LINEARIZED = {"c": [1.0, 2.0, 3.0], "base_t": 1.0, "a_left": 1.0, "a_right": -1.0,
               "eps": 0.1}


_OVERSIZE_CASES = [
    ("steady", {"model": _SPIN_MODEL, "bath": _TARGET_Z}, "model.alpha"),
    ("steady", {"model": _SPIN_MODEL, "bath": _TARGET_Z}, "model.delta_mean"),
    ("steady", {"model": _SPIN_MODEL, "bath": _TARGET_Z}, "model.delta_step"),
    ("steady", {"model": {**_SPIN_MODEL, "b_uniform": 0.0}, "bath": _TARGET_Z}, "model.b_uniform"),
    ("steady", {"model": _EXPLICIT_MODEL, "bath": _TARGET_Z}, "model.delta"),
    ("steady", {"model": _EXPLICIT_MODEL, "bath": _TARGET_Z}, "model.b_field"),
    ("steady", {"model": _SPIN_MODEL, "bath": {"family": "target_z", "f": 0.5}}, "bath.f"),
    ("steady", {"model": _SPIN_MODEL, "bath": _TARGET_Z}, "bath.f_left"),
    ("steady", {"model": _SPIN_MODEL, "bath": _TARGET_Z}, "bath.f_right"),
    ("steady", {"model": _SPIN_MODEL, "bath": _TARGET_Z}, "bath.gamma"),
    ("steady", {"model": _SPIN_MODEL, "bath": _TWISTED}, "bath.k"),
    ("steady", {"model": _SPIN_MODEL, "bath": _TWISTED}, "bath.k_prime"),
    ("steady", {"model": _SPIN_MODEL, "bath": _TWISTED}, "bath.rate"),
    ("sweep", {"model": _SPIN_MODEL, "bath": _TARGET_Z,
               "sweep": {"parameter": "f", "grid": [0.5, 0.5]}}, "sweep.grid"),
    ("classical", {"classical": _CLASSICAL}, "classical.c"),
    ("classical", {"classical": _CLASSICAL}, "classical.alpha_exp"),
    ("classical", {"classical": _CLASSICAL}, "classical.t_left"),
    ("classical", {"classical": _CLASSICAL}, "classical.t_right"),
    ("classical", {"classical": _LINEARIZED}, "classical.base_t"),
    ("classical", {"classical": _LINEARIZED}, "classical.a_left"),
    ("classical", {"classical": _LINEARIZED}, "classical.a_right"),
    ("classical", {"classical": _LINEARIZED}, "classical.eps"),
]


@pytest.mark.parametrize("command, payload, path", _OVERSIZE_CASES,
                         ids=[path for _, _, path in _OVERSIZE_CASES])
def test_oversize_number_is_a_config_error(tmp_path, capsys, command, payload, path):
    name, key = path.split(".")
    section = dict(payload[name])
    listed = isinstance(section[key], list)
    section[key] = [*section[key][:-1], _OVERSIZE] if listed else _OVERSIZE
    config = _write_config(tmp_path, "c.json", {**payload, name: section})
    out = tmp_path / "never.csv"
    assert main([command, "--config", str(config), "--out", str(out)]) == 2
    entries = " entries" if listed else ""
    assert f"config error: '{path}'{entries} must be finite, got 1000" in capsys.readouterr().err
    assert not out.exists()


def test_integer_past_the_digit_limit_is_a_config_error(tmp_path, capsys):
    # Python refuses to read an integer of more than 4300 digits from a string
    config = tmp_path / "c.json"
    config.write_text('{"model": {"n_sites": 3, "alpha": ' + "1" * 5000 +
                      ', "delta_mean": 1.0, "delta_step": 0.5}, "bath": {"family": "target_z", '
                      '"f": 0.5}}')
    assert main(["steady", "--config", str(config), "--out", str(tmp_path / "never.csv")]) == 2
    err = capsys.readouterr().err
    assert "config error: config file" in err and "is not valid JSON: Exceeds the limit" in err


def test_load_config_rejects_unknown_sweep_parameter(tmp_path):
    path = _write_config(tmp_path, "c.json", {
        "model": GRADED_MODEL,
        "bath": {"family": "target_z", "f": 0.5},
        "sweep": {"parameter": "not_a_knob", "grid": [0.1]},
    })
    with pytest.raises(SpecError):
        load_config(path)


def test_load_config_rejects_empty_grid(tmp_path):
    for grid in ([], [0.1, True]):
        path = _write_config(tmp_path, "c.json", {
            "model": GRADED_MODEL,
            "bath": {"family": "target_z", "f": 0.5},
            "sweep": {"parameter": "f", "grid": grid},
        })
        with pytest.raises(SpecError, match="'sweep.grid'"):
            load_config(path)


def test_load_config_rejects_family_mismatch(tmp_path):
    path = _write_config(tmp_path, "c.json", {
        "model": GRADED_MODEL,
        "bath": {"family": "twisted_xy", "k": 0.5},
        "sweep": {"parameter": "f", "grid": [0.1]},
    })
    with pytest.raises(SpecError):
        load_config(path)


def test_load_config_delta_sweep_needs_graded_form(tmp_path):
    path = _write_config(tmp_path, "c.json", {
        "model": {"n_sites": 3, "alpha": 1.0, "delta": [0.5, 1.5]},
        "bath": {"family": "target_z", "f": 0.5},
        "sweep": {"parameter": "delta_step", "grid": [0.1]},
    })
    with pytest.raises(SpecError):
        load_config(path)


def test_cli_out_of_domain_grid_point_is_refused_before_any_solve(tmp_path, capsys,
                                                                  monkeypatch):
    solves = _count_calls(monkeypatch, "steady_state")
    config = _write_config(tmp_path, "c.json", {
        "model": {**GRADED_MODEL, "n_sites": 4},
        "bath": {"family": "target_z", "f": 0.5},
        "sweep": {"parameter": "f", "grid": [0.2, 0.4, 1.5]},
        "output": {"path": str(tmp_path / "sweep.csv")},
    })
    assert main(["sweep", "--config", str(config)]) == 2
    assert "config error: drivings must satisfy |f| <= 1" in capsys.readouterr().err
    assert solves == []


def test_apply_sweep_values(tmp_path):
    path = _write_config(tmp_path, "c.json", {
        "model": GRADED_MODEL,
        "bath": {"family": "target_z", "f": 0.5},
        "sweep": {"parameter": "f", "grid": [0.3]},
    })
    config = load_config(path)
    chain, bath = apply_sweep_value(config, 0.3)
    assert bath == TargetZ(f_left=0.3, f_right=-0.3, gamma=1.0)
    assert chain == config.model.chain

    path = _write_config(tmp_path, "d.json", {
        "model": GRADED_MODEL,
        "bath": {"family": "target_z", "f": 0.5},
        "sweep": {"parameter": "delta_step", "grid": [0.2]},
    })
    config = load_config(path)
    chain, _ = apply_sweep_value(config, 0.2)
    assert chain.delta == (0.8, 1.2)


def test_classical_config_forms(tmp_path):
    explicit = _write_config(tmp_path, "e.json", {
        "classical": {"c": [2.0, 1.5, 1.0], "alpha_exp": 1.0, "t_left": 2.0, "t_right": 1.0},
    })
    config = load_config(explicit)
    assert config.classical.chain.t_left == 2.0

    linearized = _write_config(tmp_path, "l.json", {
        "classical": {"c": [2.0, 1.5, 1.0], "alpha_exp": 1.0, "base_t": 1.0,
                      "a_left": 1.0, "a_right": -1.0},
        "sweep": {"parameter": "eps", "grid": [1e-3]},
    })
    config = load_config(linearized)
    assert config.classical.chain is None
    assert config.sweep.parameter == "eps"

    mixed = _write_config(tmp_path, "m.json", {
        "classical": {"c": [2.0, 1.5, 1.0], "t_left": 2.0, "t_right": 1.0, "base_t": 1.0},
    })
    with pytest.raises(SpecError):
        load_config(mixed)


# --- CLI commands ----------------------------------------------------------------


def test_cmd_steady_homogeneous_energy_column_vanishes(tmp_path):
    config = _write_config(tmp_path, "c.json", {
        "model": {"n_sites": 3, "alpha": 1.0, "delta": [1.0, 1.0]},
        "bath": {"family": "target_z", "f": 0.5},
        "output": {"path": str(tmp_path / "out.csv"), "format": "csv"},
    })
    assert main(["steady", "--config", str(config)]) == 0
    comments, columns, rows = _read_csv(tmp_path / "out.csv")
    assert any(line.startswith("# config:") for line in comments)
    assert columns[-3:] == ["residual", "method", "wall_ms"]
    energy_rows = [r for r in rows if r["observable"] == "energy_xxz"]
    assert energy_rows
    assert all(abs(float(r["value"])) < 1e-9 for r in energy_rows)


def test_cmd_steady_evaluates_the_residual_once(tmp_path, monkeypatch):
    residuals = _count_calls(monkeypatch, "liouvillian_residual")
    config = _write_config(tmp_path, "c.json", {
        "model": GRADED_MODEL,
        "bath": {"family": "target_z", "f": 0.5},
        "output": {"path": str(tmp_path / "out.csv")},
    })
    assert main(["steady", "--config", str(config)]) == 0
    assert len(residuals) == 1
    _, _, rows = _read_csv(tmp_path / "out.csv")
    assert {r["method"] for r in rows} == {"dense_null"}


def test_cmd_steady_single_site_pinned_state(tmp_path):
    config = _write_config(tmp_path, "c.json", {
        "model": {"n_sites": 1, "alpha": 0.0, "delta": [], "b_field": [0.0]},
        "bath": {"family": "target_z", "f_left": -1.0, "f_right": -1.0},
        "output": {"path": str(tmp_path / "out.csv")},
    })
    assert main(["steady", "--config", str(config)]) == 0
    _, _, rows = _read_csv(tmp_path / "out.csv")
    sz = [r for r in rows if r["observable"] == "sigma_z"]
    assert len(sz) == 1
    assert float(sz[0]["value"]) == pytest.approx(-1.0, abs=1e-10)


def test_cmd_steady_malformed_config(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    out = tmp_path / "never.csv"
    assert main(["steady", "--config", str(bad), "--out", str(out)]) == 2
    assert not out.exists()


def test_cmd_symmetry_graded_all_pass(tmp_path):
    config = _write_config(tmp_path, "c.json", {
        "model": GRADED_MODEL,
        "bath": {"family": "target_z", "f": 0.5},
        "sweep": {"parameter": "f", "grid": [0.2, 0.5]},
        "output": {"path": str(tmp_path / "sym.csv")},
    })
    assert main(["symmetry", "--config", str(config)]) == 0
    _, _, rows = _read_csv(tmp_path / "sym.csv")
    assert {r["check"] for r in rows} == {
        "conjugation", "energy_current_even", "spin_current_odd", "direction",
        "direction_overall",
    }
    assert all(r["passed"] == "true" for r in rows)


def test_cmd_symmetry_twisted_conjugation_passes(tmp_path):
    config = _write_config(tmp_path, "c.json", {
        "model": {"n_sites": 3, "alpha": 1.0, "delta": [0.5, 1.5]},
        "bath": {"family": "twisted_xy", "k": 0.6},
        "output": {"path": str(tmp_path / "sym.csv")},
    })
    assert main(["symmetry", "--config", str(config)]) == 0
    _, _, rows = _read_csv(tmp_path / "sym.csv")
    conjugation = [r for r in rows if r["check"] == "conjugation"]
    assert conjugation[0]["passed"] == "true"


@pytest.mark.parametrize("bath, distinct", [
    # default scan grid (0.2, 0.5, 0.8): one forward/inverted pair per drive
    ({"family": "target_z", "f": 0.5}, 6),
    # the twisted_xy scan covers only the bath's own k: one pair
    ({"family": "twisted_xy", "k": 0.6}, 2),
])
def test_cmd_symmetry_solves_each_distinct_state_once(tmp_path, monkeypatch, bath, distinct):
    solves = _count_calls(monkeypatch, "steady_state")
    config = _write_config(tmp_path, "c.json", {
        "model": GRADED_MODEL,
        "bath": bath,
        "output": {"path": str(tmp_path / "sym.csv")},
    })
    assert main(["symmetry", "--config", str(config)]) == 0
    assert len(solves) == distinct


def test_cmd_symmetry_method_column_is_the_resolved_solver(tmp_path, monkeypatch):
    solves = _count_calls(monkeypatch, "steady_state")
    config = _write_config(tmp_path, "c.json", {
        "model": {**GRADED_MODEL, "n_sites": 4},
        "bath": {"family": "target_z", "f": 0.5},
        "output": {"path": str(tmp_path / "sym.csv")},
    })
    assert main(["symmetry", "--config", str(config)]) == 0
    _, _, rows = _read_csv(tmp_path / "sym.csv")
    assert rows and all(r["method"] == "dense_null" for r in rows)
    # reading the method is a cache hit, not another solve
    assert len(solves) == 6


def _count_certificates(monkeypatch):
    """Record the route of each certificate a solve issues (a partner solved
    with the forward certificate issues none), with an empty solve cache."""
    lindblad._cached_chain_steady_state.cache_clear()
    routes = []
    solve = lindblad.steady_state

    def recording(liouv, certificate=None):
        solved = solve(liouv, certificate=certificate)
        if certificate is None:
            routes.append(solved.certificate.route)
        return solved

    monkeypatch.setattr(lindblad, "steady_state", recording)
    return routes


@pytest.mark.parametrize("bath, certificates", [
    # one certificate per forward/inverted pair: three pairs, one pair
    ({"family": "target_z", "f": 0.5}, 3),
    ({"family": "twisted_xy", "k": 0.6}, 1),
])
def test_cmd_symmetry_certifies_each_pair_once(tmp_path, monkeypatch, bath, certificates):
    routes = _count_certificates(monkeypatch)
    config = _write_config(tmp_path, "c.json", {
        "model": {**GRADED_MODEL, "n_sites": 4},
        "bath": bath,
        "output": {"path": str(tmp_path / "sym.csv")},
    })
    assert main(["symmetry", "--config", str(config)]) == 0
    # the N=4 q=0 block (70) is certified by the norm bound, the full
    # twisted_xy generator (256) by the eigensolve
    route = "norm_bound" if bath["family"] == "target_z" else "eigensolve"
    assert routes == [route] * certificates
    _, _, rows = _read_csv(tmp_path / "sym.csv")
    assert all(r["passed"] == "true" for r in rows)


def test_cmd_symmetry_table_does_not_depend_on_the_solve_history(tmp_path, monkeypatch):
    model = {**GRADED_MODEL, "n_sites": 4}
    out = tmp_path / "sym.csv"
    symmetry = _write_config(tmp_path, "sym.json", {
        "model": model, "bath": {"family": "target_z", "f": 0.5}, "output": {"path": str(out)}})
    inverted = _write_config(tmp_path, "inv.json", {
        "model": model, "bath": {"family": "target_z", "f_left": -0.5, "f_right": 0.5},
        "output": {"path": str(tmp_path / "inv.csv")}})

    def table():
        header, columns, rows = _read_csv(out)
        return header, columns, [{**row, "wall_ms": None} for row in rows]

    lindblad._cached_chain_steady_state.cache_clear()
    assert main(["symmetry", "--config", str(symmetry)]) == 0
    cold = table()
    lindblad._cached_chain_steady_state.cache_clear()
    # the inverted bath's record with its own certificate is cached first
    assert main(["steady", "--config", str(inverted)]) == 0
    assert main(["symmetry", "--config", str(symmetry)]) == 0
    assert table() == cold
    # the cache holds that record and a whole certification (6 more records):
    # a repeated run solves nothing
    assert lindblad._cached_chain_steady_state.cache_info().currsize == 7
    monkeypatch.setattr(lindblad, "steady_state", lambda *args, **kwargs: pytest.fail("solved"))
    assert main(["symmetry", "--config", str(symmetry)]) == 0
    assert table() == cold


def _clear_caches():
    """Empty the solve, chain-operator, assembly-pattern and map-verdict caches."""
    lindblad._cached_chain_steady_state.cache_clear()
    lindblad._chain_operators.cache_clear()
    lindblad._pattern.cache_clear()
    symmetry._map_holds.cache_clear()


def test_cmd_symmetry_builds_each_operator_once_and_checks_each_pair_once(tmp_path,
                                                                          monkeypatch):
    _clear_caches()
    built = {name: [] for name in ("build_hamiltonian", "spin_current_op",
                                   "energy_current_xxz_op")}
    for name, calls in built.items():
        original = getattr(lindblad, name)
        monkeypatch.setattr(lindblad, name,
                            lambda *args, calls=calls, original=original:
                            calls.append(args) or original(*args))
    config = _write_config(tmp_path, "c.json", {
        "model": {**GRADED_MODEL, "n_sites": 4}, "bath": {"family": "target_z", "f": 0.5},
        "output": {"path": str(tmp_path / "out.csv")}})
    assert main(["symmetry", "--config", str(config)]) == 0
    # six solves and four current profiles of one chain: one Hamiltonian, and
    # each current operator once (3 bonds, 2 interior sites)
    assert {name: len(calls) for name, calls in built.items()} == {
        "build_hamiltonian": 1, "spin_current_op": 3, "energy_current_xxz_op": 2}
    # the map is asked for 5 times (conjugation, parity and the scan's three
    # drives, one of them the bath's own) and checked for the 3 distinct pairs
    info = symmetry._map_holds.cache_info()
    assert (info.misses, info.hits) == (3, 2)


def test_cmd_symmetry_table_does_not_depend_on_the_pattern_and_operator_caches(tmp_path):
    model = {**GRADED_MODEL, "n_sites": 4}
    out = tmp_path / "sym.csv"
    config = _write_config(tmp_path, "sym.json", {
        "model": model, "bath": {"family": "target_z", "f": 0.5, "gamma": 0.9}})
    _clear_caches()
    cold = _table_modulo_timing("symmetry", config, out, 1)
    # warm both caches with other chains and families: the same shape with
    # other values, other sizes, a field, twisted_xy, and this chain itself
    # under another bath; then solve again from the warm caches
    for command, payload in (
        ("symmetry", {"model": {**model, "delta_mean": 1.2}, "bath": {"family": "target_z",
                                                                     "f": 0.3, "gamma": 1.4}}),
        ("steady", {"model": {**model, "b_uniform": 0.3}, "bath": {"family": "target_z",
                                                                  "f": 0.5}}),
        ("symmetry", {"model": {**model, "n_sites": 3}, "bath": {"family": "twisted_xy",
                                                                "k": 0.5}}),
        ("symmetry", {"model": {**model, "n_sites": 5}, "bath": {"family": "target_z",
                                                                "f": 0.2}}),
        ("steady", {"model": model, "bath": {"family": "twisted_xy", "k": 0.4}}),
    ):
        warm = _write_config(tmp_path, "warm.json", payload)
        assert main([command, "--config", str(warm), "--out", str(tmp_path / "warm.csv")]) == 0
    lindblad._cached_chain_steady_state.cache_clear()
    patterns, operators = lindblad._pattern.cache_info(), lindblad._chain_operators.cache_info()
    assert _table_modulo_timing("symmetry", config, out, 1) == cold
    # the second run reused patterns and this chain's operators
    assert lindblad._pattern.cache_info().hits > patterns.hits
    assert lindblad._chain_operators.cache_info().hits > operators.hits


def test_cmd_sweep_in_threads_from_cold_caches_equals_one_thread(tmp_path):
    # the threads race to build one pattern entry (every drive of the grid has
    # the same nonzero positions) and one chain's operators; a short switch
    # interval interleaves them often
    config = _write_config(tmp_path, "c.json", {
        "model": {**GRADED_MODEL, "n_sites": 5},
        "bath": {"family": "target_z", "f": 0.5},
        "sweep": {"parameter": "f", "grid": [0.2, 0.4, 0.6, 0.8, -0.3, -0.5]},
        "output": {"format": "csv"},
    })
    _clear_caches()
    serial = _table_modulo_timing("sweep", config, tmp_path / "a.csv", 1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for workers in (2, 2, 4):
            _clear_caches()
            assert _table_modulo_timing("sweep", config, tmp_path / "b.csv", workers) == serial
    finally:
        sys.setswitchinterval(interval)


def test_cmd_symmetry_refuses_a_decoupled_chain_with_the_forward_certificate(tmp_path, capsys,
                                                                          monkeypatch):
    solves = _count_calls(monkeypatch, "steady_state")
    config = _write_config(tmp_path, "c.json", {
        "model": {**GRADED_MODEL, "alpha": 0.0},
        "bath": {"family": "target_z", "f": 0.5},
        "output": {"path": str(tmp_path / "sym.csv")},
    })
    assert main(["symmetry", "--config", str(config)]) == 1
    assert re.search(r"solver error: the two eigenvalues nearest zero have magnitudes \S+ "
                     r"and \S+", capsys.readouterr().err)
    assert len(solves) == 1  # the forward solve refused; no partner was solved
    assert not (tmp_path / "sym.csv").exists()


def test_cmd_symmetry_refuses_field(tmp_path):
    config = _write_config(tmp_path, "c.json", {
        "model": {**GRADED_MODEL, "b_uniform": 0.4},
        "bath": {"family": "target_z", "f": 0.5},
        "output": {"path": str(tmp_path / "sym.csv")},
    })
    assert main(["symmetry", "--config", str(config)]) == 2
    assert not (tmp_path / "sym.csv").exists()


@pytest.mark.parametrize("parameter, grid", [("gamma", [0.3, 0.9]), ("delta_step", [2.0])])
def test_cmd_symmetry_refuses_a_sweep_that_is_not_a_drive(tmp_path, capsys, monkeypatch,
                                                          parameter, grid):
    solves = _count_calls(monkeypatch, "steady_state")
    config = _write_config(tmp_path, "c.json", {
        "model": GRADED_MODEL,
        "bath": {"family": "target_z", "f": 0.5},
        "sweep": {"parameter": parameter, "grid": grid},
        "output": {"path": str(tmp_path / "sym.csv")},
    })
    assert main(["symmetry", "--config", str(config)]) == 2
    assert (f"config error: the symmetry command takes only a drive sweep ('f' or 'k'), "
            f"got '{parameter}'") in capsys.readouterr().err
    assert solves == []
    assert not (tmp_path / "sym.csv").exists()


def test_cmd_sweep_parity_columns(tmp_path):
    config = _write_config(tmp_path, "c.json", {
        "model": GRADED_MODEL,
        "bath": {"family": "target_z", "f": 0.5},
        "sweep": {"parameter": "f", "grid": [-0.4, 0.4]},
        "output": {"path": str(tmp_path / "sweep.csv")},
    })
    assert main(["sweep", "--config", str(config)]) == 0
    _, _, rows = _read_csv(tmp_path / "sweep.csv")
    assert [float(r["sweep_value"]) for r in rows] == [-0.4, 0.4]
    j_values = [float(r["spin_current"]) for r in rows]
    f_values = [float(r["energy_xxz"]) for r in rows]
    assert j_values[0] == pytest.approx(-j_values[1], abs=1e-9)
    assert f_values[0] == pytest.approx(f_values[1], abs=1e-9)


def test_cmd_sweep_solves_a_repeated_grid_value_once(tmp_path, monkeypatch):
    solves = _count_calls(monkeypatch, "steady_state")
    config = _write_config(tmp_path, "c.json", {
        "model": GRADED_MODEL,
        "bath": {"family": "target_z", "f": 0.5},
        "sweep": {"parameter": "f", "grid": [0.2, 0.7, 0.2]},
        "output": {"path": str(tmp_path / "sweep.csv")},
    })
    assert main(["sweep", "--config", str(config)]) == 0
    assert len(solves) == 2
    _, _, rows = _read_csv(tmp_path / "sweep.csv")
    # the repeated point reads the same solve record, wall time included
    assert rows[0] == rows[2]


def test_cmd_sweep_threads_solve_each_distinct_grid_value_once(tmp_path, monkeypatch):
    solves = _count_calls(monkeypatch, "steady_state")
    config = _write_config(tmp_path, "c.json", {
        "model": {**GRADED_MODEL, "n_sites": 4},
        "bath": {"family": "target_z", "f": 0.5},
        "sweep": {"parameter": "f", "grid": [0.2, 0.2, 0.7, 0.7]},
        "output": {"path": str(tmp_path / "sweep.csv")},
    })
    assert main(["sweep", "--config", str(config), "--workers", "2"]) == 0
    assert len(solves) == 2
    _, _, rows = _read_csv(tmp_path / "sweep.csv")
    assert [float(r["sweep_value"]) for r in rows] == [0.2, 0.2, 0.7, 0.7]
    assert rows[0] == rows[1] and rows[2] == rows[3]


@pytest.mark.parametrize("workers", [1, 2])
def test_cmd_classical_evaluates_a_repeated_grid_value_once(tmp_path, monkeypatch, workers):
    calls = []
    original = cli.rectification_experiment

    def counting(chain):
        calls.append(chain)
        return original(chain)

    monkeypatch.setattr(cli, "rectification_experiment", counting)
    config = _write_config(tmp_path, "c.json", {
        "classical": {"c": [2.0, 1.5, 1.0], "alpha_exp": 1.0, "t_left": 2.0,
                      "t_right": 1.0},
        "sweep": {"parameter": "alpha_exp", "grid": [0.5, 1.0, 0.5]},
        "output": {"path": str(tmp_path / "cls.csv")},
    })
    assert main(["classical", "--config", str(config), "--workers", str(workers)]) == 0
    assert len(calls) == 2
    _, _, rows = _read_csv(tmp_path / "cls.csv")
    assert [float(r["sweep_value"]) for r in rows] == [0.5, 1.0, 0.5]
    assert rows[0] == rows[2]


def _table_modulo_timing(command, config, out, workers):
    assert main([command, "--config", str(config), "--out", str(out),
                 "--workers", str(workers)]) == 0
    lines = out.read_text().splitlines()
    # blank the volatile wall-time column and the output path echo
    stripped = []
    for line in lines:
        if line.startswith("# config:"):
            continue
        cells = line.split(",")
        if not line.startswith("#") and cells[-1] != "wall_ms":
            cells[-1] = ""
        stripped.append(",".join(cells))
    return stripped


def test_cmd_sweep_deterministic_output_modulo_timing(tmp_path):
    payload = {
        "model": GRADED_MODEL,
        "bath": {"family": "target_z", "f": 0.5},
        "sweep": {"parameter": "f", "grid": [0.2, 0.4, 0.6]},
        "output": {"format": "csv"},
    }
    config = _write_config(tmp_path, "c.json", payload)
    first = _table_modulo_timing("sweep", config, tmp_path / "a.csv", 1)
    second = _table_modulo_timing("sweep", config, tmp_path / "b.csv", 1)
    parallel = _table_modulo_timing("sweep", config, tmp_path / "p.csv", 2)
    assert first == second
    assert first == parallel


def test_cmd_classical_deterministic_output_modulo_timing(tmp_path):
    # the Newton solves of different grid points run in threads under --workers 2
    payload = {
        "classical": {"c": [0.6 + 0.1 * j for j in range(30)], "t_left": 1.8,
                      "t_right": 0.6},
        "sweep": {"parameter": "alpha_exp", "grid": [0.3, 0.7, 1.2, 2.0, 0.0]},
        "output": {"format": "csv"},
    }
    config = _write_config(tmp_path, "c.json", payload)
    first = _table_modulo_timing("classical", config, tmp_path / "a.csv", 1)
    second = _table_modulo_timing("classical", config, tmp_path / "b.csv", 1)
    parallel = _table_modulo_timing("classical", config, tmp_path / "p.csv", 2)
    assert len(first) == 2 + len(payload["sweep"]["grid"])
    assert first == second
    assert first == parallel


def test_cmd_sweep_json_format(tmp_path):
    config = _write_config(tmp_path, "c.json", {
        "model": GRADED_MODEL,
        "bath": {"family": "target_z", "f": 0.5},
        "sweep": {"parameter": "f", "grid": [0.3]},
        "output": {"path": str(tmp_path / "sweep.json"), "format": "json"},
    })
    assert main(["sweep", "--config", str(config)]) == 0
    document = json.loads((tmp_path / "sweep.json").read_text())
    assert document["config"]["bath"]["f_left"] == 0.5
    assert document["columns"][0] == "n_sites"
    assert len(document["rows"]) == 1
    assert document["rows"][0]["sweep_value"] == 0.3


def test_cmd_classical_alpha_zero_gap_column(tmp_path):
    config = _write_config(tmp_path, "c.json", {
        "classical": {"c": [2.0, 1.5, 1.0], "alpha_exp": 0.0, "t_left": 2.0,
                      "t_right": 1.0},
        "output": {"path": str(tmp_path / "cls.csv")},
    })
    assert main(["classical", "--config", str(config)]) == 0
    _, _, rows = _read_csv(tmp_path / "cls.csv")
    assert abs(float(rows[0]["rectification_gap"])) < 1e-12


def test_cmd_classical_eps_sweep_matches_prediction(tmp_path):
    config = _write_config(tmp_path, "c.json", {
        "classical": {"c": [2.0, 1.5, 1.0], "alpha_exp": 1.0, "base_t": 1.0,
                      "a_left": 1.0, "a_right": -1.0},
        "sweep": {"parameter": "eps", "grid": [1e-3, 5e-4]},
        "output": {"path": str(tmp_path / "cls.csv")},
    })
    assert main(["classical", "--config", str(config)]) == 0
    _, _, rows = _read_csv(tmp_path / "cls.csv")
    for row in rows:
        measured = float(row["inv_kappa_gap_measured"])
        predicted = float(row["inv_kappa_gap_predicted"])
        assert measured == pytest.approx(predicted, rel=1e-2)
    # the predicted gap is linear in eps
    predictions = [float(r["inv_kappa_gap_predicted"]) for r in rows]
    assert predictions[0] == pytest.approx(2 * predictions[1], rel=1e-12)


def test_cmd_classical_edge_sweep_has_no_predicted_gap(tmp_path):
    # a swept edge temperature is not base_t + a_edge * eps, so eps predicts nothing
    config = _write_config(tmp_path, "c.json", {
        "classical": {"c": [2.0, 1.5, 1.0], "alpha_exp": 1.0, "base_t": 1.0,
                      "a_left": 1.0, "a_right": -1.0, "eps": 1e-3},
        "sweep": {"parameter": "t_left", "grid": [1.001, 1.5]},
        "output": {"path": str(tmp_path / "cls.csv")},
    })
    assert main(["classical", "--config", str(config)]) == 0
    _, _, rows = _read_csv(tmp_path / "cls.csv")
    assert [r["inv_kappa_gap_predicted"] for r in rows] == ["nan", "nan"]
    assert float(rows[1]["inv_kappa_gap_measured"]) > 0.1


def test_cmd_classical_symmetric_chain_zero_gap(tmp_path):
    config = _write_config(tmp_path, "c.json", {
        "classical": {"c": [1.0, 1.5, 1.0], "alpha_exp": 1.0, "t_left": 2.0,
                      "t_right": 1.0},
        "output": {"path": str(tmp_path / "cls.csv")},
    })
    assert main(["classical", "--config", str(config)]) == 0
    _, _, rows = _read_csv(tmp_path / "cls.csv")
    assert abs(float(rows[0]["rectification_gap"])) < 1e-12


def test_cmd_classical_refuses_a_spin_sweep(tmp_path, capsys, monkeypatch):
    # with a 'model' section the sweep parses as a spin sweep; the classical
    # command has no meaning for it
    monkeypatch.setattr(cli, "rectification_experiment", lambda chain: pytest.fail("solved"))
    config = _write_config(tmp_path, "c.json", {
        "model": GRADED_MODEL,
        "bath": {"family": "target_z", "f": 0.5},
        "classical": {"c": [2.0, 1.5, 1.0], "alpha_exp": 1.0, "t_left": 2.0,
                      "t_right": 1.0},
        "sweep": {"parameter": "f", "grid": [0.2, 0.4]},
        "output": {"path": str(tmp_path / "cls.csv")},
    })
    assert main(["classical", "--config", str(config)]) == 2
    assert ("config error: the classical command takes only a classical sweep "
            "('eps', 't_left', 't_right', 'alpha_exp'), got 'f'") in capsys.readouterr().err
    assert not (tmp_path / "cls.csv").exists()


def test_cli_runaway_classical_profile_is_a_solver_failure(tmp_path, capsys):
    config = _write_config(tmp_path, "c.json", {
        "classical": {"c": [1.0, 2.0, 3.0], "alpha_exp": 2.0, "t_left": 8.0,
                      "t_right": 0.25},
        "output": {"path": str(tmp_path / "cls.csv")},
    })
    assert main(["classical", "--config", str(config)]) == 1
    assert "solver error: Newton reached a non-monotone profile" in capsys.readouterr().err
    assert not (tmp_path / "cls.csv").exists()


@pytest.mark.parametrize("out", [pytest.param("", id="directory"),
                                 pytest.param("missing/out.csv", id="missing-directory")])
def test_cli_unwritable_output_is_a_config_error(tmp_path, capsys, out):
    config = _write_config(tmp_path, "c.json", {
        "classical": {"c": [2.0, 1.5, 1.0], "alpha_exp": 1.0, "t_left": 2.0,
                      "t_right": 1.0},
    })
    target = tmp_path / out
    assert main(["classical", "--config", str(config), "--out", str(target)]) == 2
    assert f"config error: cannot write output {target}" in capsys.readouterr().err


@pytest.mark.parametrize("command, name", [("steady", "steady_n3.json"),
                                           ("steady", "steady_n6_field.json"),
                                           ("symmetry", "symmetry_n3.json"),
                                           ("symmetry", "symmetry_n4.json"),
                                           ("symmetry", "symmetry_n4_twisted.json"),
                                           ("symmetry", "symmetry_n5_twisted.json"),
                                           ("symmetry", "symmetry_n7.json"),
                                           ("classical", "classical_n3.json"),
                                           ("classical", "classical_graded_n60.json")])
def test_ci_smoke_configs_run(tmp_path, command, name):
    # the configs the CI workflow feeds to the installed chainflux script
    config = Path(__file__).parent / "configs" / name
    assert main([command, "--config", str(config), "--out", str(tmp_path / "out.csv")]) == 0
    if command == "symmetry":
        # as the CI step checks: every check passed, and the independently
        # solved partner matches the transported state to rounding level
        _, _, rows = _read_csv(tmp_path / "out.csv")
        assert rows and all(r["passed"] == "true" for r in rows)
        conjugation = [float(r["error"]) for r in rows if r["check"] == "conjugation"]
        assert len(conjugation) == 1 and conjugation[0] <= 1e-12


def test_ci_unconverged_certificate_is_a_clean_solver_error(tmp_path):
    # the CLI in a process of its own, as the CI step runs it: the chain that
    # stalled a shift-invert eigensolve is refused as non-unique, exit 1 with
    # a message and no traceback
    config = Path(__file__).parent / "configs" / "steady_n4_unconverged.json"
    src = str(Path(chainflux.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "chainflux.cli", "steady", "--config", str(config),
         "--out", str(tmp_path / "out.csv")],
        capture_output=True, text=True, timeout=120,
        env={**os.environ,
             "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))})
    assert done.returncode == 1
    assert re.fullmatch(r"chainflux: solver error: the two eigenvalues nearest zero have "
                        r"magnitudes 0\.000e\+00 and \S+, both below 1\.0e-10; the steady "
                        r"state is not unique\n", done.stderr)
    assert "Traceback" not in done.stderr
    assert not (tmp_path / "out.csv").exists()


def test_ci_oversize_number_is_a_clean_config_error(tmp_path):
    # as the CI step runs it: exit 2 with a message and no traceback
    config = Path(__file__).parent / "configs" / "steady_n3_oversize_alpha.json"
    src = str(Path(chainflux.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "chainflux.cli", "steady", "--config", str(config),
         "--out", str(tmp_path / "out.csv")],
        capture_output=True, text=True, timeout=120,
        env={**os.environ,
             "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))})
    assert done.returncode == 2
    assert done.stderr.startswith("chainflux: config error: 'model.alpha' must be finite, got 1000")
    assert "Traceback" not in done.stderr
    assert not (tmp_path / "out.csv").exists()


def test_one_way_street_is_certified_at_seven_sites(tmp_path):
    # the paper's size-independent claims at the solver cap, by the certified solver
    config = Path(__file__).parent / "configs" / "symmetry_n7.json"
    assert main(["symmetry", "--config", str(config), "--out", str(tmp_path / "out.csv")]) == 0
    _, _, rows = _read_csv(tmp_path / "out.csv")
    assert [r["check"] for r in rows] == ["conjugation", "energy_current_even",
                                          "spin_current_odd", "direction",
                                          "direction_overall"]
    assert all(r["passed"] == "true" and r["method"] == "dense_null" for r in rows)


def test_cli_builds_its_parser_once(tmp_path, capsys):
    config = Path(__file__).parent / "configs" / "steady_n3.json"
    parser = cli._build_parser()
    assert main(["steady", "--config", str(config), "--out", str(tmp_path / "a.csv")]) == 0
    with pytest.raises(SystemExit) as exit_info:
        main(["--version"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith("chainflux ")
    with pytest.raises(SystemExit) as exit_info:
        main(["steady"])  # --config missing: argparse usage error
    assert exit_info.value.code == 2
    assert main(["steady", "--config", str(config), "--out", str(tmp_path / "b.csv")]) == 0
    assert cli._build_parser() is parser


def test_cli_requires_output_path(tmp_path):
    config = _write_config(tmp_path, "c.json", {
        "model": GRADED_MODEL,
        "bath": {"family": "target_z", "f": 0.5},
    })
    assert main(["steady", "--config", str(config)]) == 2
    # an empty --out replaces the config's path and counts as none
    config = _write_config(tmp_path, "c.json", {
        "model": GRADED_MODEL,
        "bath": {"family": "target_z", "f": 0.5},
        "output": {"path": str(tmp_path / "out.csv")},
    })
    assert main(["steady", "--config", str(config), "--out", ""]) == 2
    assert not (tmp_path / "out.csv").exists()


def test_cli_method_override_is_echoed(tmp_path, monkeypatch, capsys):
    config = _write_config(tmp_path, "c.json", {
        "model": {"n_sites": 2, "alpha": 1.0, "delta": [1.0]},
        "bath": {"family": "target_z", "f": 0.5},
        "output": {"path": str(tmp_path / "out.csv")},
    })
    assert main(["steady", "--config", str(config), "--method", "dense_null"]) == 0
    header, _, rows = _read_csv(tmp_path / "out.csv")
    assert all(r["method"] == "dense_null" for r in rows)
    assert json.loads(header[1].removeprefix("# config: "))["solver"]["method"] == "dense_null"

    # 'evolve' and any other name is a config error before any operator is built
    def refuse(*args):
        raise AssertionError("an operator of a refused run was built")

    monkeypatch.setattr(lindblad, "build_hamiltonian", refuse)
    message = "config error: 'solver.method' must be one of ('auto', 'dense_null'), got 'evolve'"
    assert main(["steady", "--config", str(config), "--method", "evolve"]) == 2
    assert message in capsys.readouterr().err
    config = _write_config(tmp_path, "c.json", {
        "model": {"n_sites": 2, "alpha": 1.0, "delta": [1.0]},
        "bath": {"family": "target_z", "f": 0.5},
        "solver": {"method": "evolve"},
        "output": {"path": str(tmp_path / "evolve.csv")},
    })
    assert main(["steady", "--config", str(config)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "evolve.csv").exists()


def test_cli_refuses_an_oversize_model_by_its_site_count(tmp_path, capsys):
    # the cap is checked on the integer before any length-n_sites object
    # exists, and the message formats no 2**n_sites dimension
    config = _write_config(tmp_path, "c.json", {
        "model": {"n_sites": 20_000, "alpha": 1.0, "delta_mean": 1.0, "delta_step": 0.5},
        "bath": {"family": "target_z", "f": 0.5},
        "output": {"path": str(tmp_path / "out.csv")},
    })
    assert main(["steady", "--config", str(config)]) == 2
    assert ("config error: a chain of 20000 sites exceeds the solver limit of 7 sites"
            in capsys.readouterr().err)


def test_cli_workers_flag_is_checked_as_the_config_entry(tmp_path, capsys):
    config = _write_config(tmp_path, "c.json", {
        "model": GRADED_MODEL,
        "bath": {"family": "target_z", "f": 0.5},
        "output": {"path": str(tmp_path / "out.csv")},
    })
    assert main(["steady", "--config", str(config), "--workers", "0"]) == 2
    assert ("config error: 'solver.workers' must be a positive integer, got 0"
            in capsys.readouterr().err)


def test_cli_flags_replace_the_config_entries(tmp_path):
    # a flag replaces the file's entry before parsing, an invalid one included
    config = _write_config(tmp_path, "c.json", {
        "model": GRADED_MODEL,
        "bath": {"family": "target_z", "f": 0.5},
        "solver": {"method": "auto", "workers": "many"},
        "output": {"path": str(tmp_path / "unused.csv"), "format": "json"},
    })
    out = tmp_path / "out.csv"
    assert main(["steady", "--config", str(config), "--workers", "2", "--out", str(out),
                 "--format", "csv"]) == 0
    assert not (tmp_path / "unused.csv").exists()
    header, _, _ = _read_csv(out)
    echo = json.loads(header[1].removeprefix("# config: "))
    assert echo["solver"]["workers"] == 2
    assert echo["output"] == {"path": str(out), "format": "csv"}
