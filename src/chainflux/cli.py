"""Command-line interface: steady | symmetry | sweep | classical.

Each command reads one JSON config, solves, and writes a machine-readable
table (csv or json) whose header embeds the fully resolved configuration,
so a result file alone reproduces the run. Columns are fixed per command:
echoed inputs first, then observables, then diagnostics.

Exit codes: 0 success, 1 solver failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache
from pathlib import Path

from . import __version__
from .chain import ChainSpec
from .classical import LinearizedSetup, conductivity_gap, rectification_experiment
from .config import (
    CLASSICAL_SWEEP_PARAMETERS,
    ExperimentConfig,
    apply_sweep_value,
    classical_chain_for,
    load_config,
)
from .errors import ChainFluxError, SpecError
from .lindblad import (
    METHOD,
    SOLVER,
    DissipatorSpec,
    SteadyState,
    central,
    chain_steady_state,
    currents_profile,
    expectation,
)
from .pauli import embed, pauli
from .symmetry import (
    check_conjugation_identity,
    energy_current_direction_scan,
    parity_report,
)

_BATH_COLUMNS = ("bath_family", "gamma", "f_left", "f_right", "k", "k_prime", "rate")
_MODEL_COLUMNS = ("n_sites", "alpha", "delta", "b_field")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "nan" if math.isnan(value) else repr(value)
    return str(value)


def _join_profile(values) -> str:
    return ";".join(repr(float(v)) for v in values)


def _model_cells(chain: ChainSpec) -> dict:
    return {
        "n_sites": chain.n_sites,
        "alpha": chain.alpha,
        "delta": _join_profile(chain.delta),
        "b_field": _join_profile(chain.b_field),
    }


def _bath_cells(diss: DissipatorSpec) -> dict:
    # the other family's columns are absent and stay empty in the table
    return {"bath_family": diss.family, **dataclasses.asdict(diss)}


def _write_table(output_path: str, fmt: str, columns: tuple[str, ...], rows: list[dict],
                 resolved_config: dict) -> None:
    config_json = json.dumps(resolved_config, sort_keys=True, separators=(",", ":"))
    if fmt == "csv":
        buffer = io.StringIO()
        buffer.write(f"# chainflux {__version__}\n")
        buffer.write(f"# config: {config_json}\n")
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row.get(col)) for col in columns])
        payload = buffer.getvalue()
    else:
        document = {
            "version": __version__,
            "config": resolved_config,
            "columns": list(columns),
            "rows": [
                {col: (None if isinstance(row.get(col), float) and math.isnan(row.get(col))
                       else row.get(col)) for col in columns}
                for row in rows
            ],
        }
        payload = json.dumps(document, indent=2, sort_keys=False) + "\n"
    try:
        Path(output_path).write_text(payload)
    except OSError as exc:
        raise SpecError(f"cannot write output {output_path}: {exc}") from exc


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SpecError(message)


def _diagnostic_cells(solved: SteadyState) -> dict:
    return {"residual": solved.residual, "method": solved.method, "wall_ms": solved.wall_ms}


def _map_grid(evaluate, points, workers: int) -> list:
    """Evaluate each distinct grid point once, concurrently when workers > 1;
    return one result per grid point, in grid order."""
    distinct = {repr(point): point for point in points}  # repr keeps 0.0 and -0.0 apart
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            values = list(pool.map(evaluate, distinct.values()))
    else:
        values = [evaluate(point) for point in distinct.values()]
    results = dict(zip(distinct, values))
    return [results[repr(point)] for point in points]


def cmd_steady(config: ExperimentConfig) -> list[dict]:
    """One row per observable entry: z-magnetizations, then all currents."""
    _require(config.model is not None, "the steady command needs a 'model' section")
    _require(config.bath is not None, "the steady command needs a 'bath' section")
    chain = config.model.chain
    solved = chain_steady_state(chain, config.bath)
    rho = solved.rho
    profile = currents_profile(rho, chain)
    inputs = {**_model_cells(chain), **_bath_cells(config.bath)}
    diagnostics = _diagnostic_cells(solved)
    sz = pauli("z")
    rows = []
    for site in range(1, chain.n_sites + 1):
        value = expectation(rho, embed(sz, site, chain.n_sites))
        rows.append({**inputs, "observable": "sigma_z", "index": site, "value": value,
                     **diagnostics})
    for name, values, first_index in (
        ("spin_current", profile.spin, 1),
        ("energy_xxz", profile.energy_xxz, 2),
        ("energy_total", profile.energy_total, 2),
    ):
        for offset, value in enumerate(values):
            rows.append({**inputs, "observable": name, "index": first_index + offset,
                         "value": value, **diagnostics})
    return rows


STEADY_COLUMNS = (*_MODEL_COLUMNS, *_BATH_COLUMNS, "observable", "index", "value",
                  "residual", "method", "wall_ms")


def cmd_symmetry(config: ExperimentConfig) -> list[dict]:
    """Conjugation, parity, and direction-scan certification rows."""
    _require(config.model is not None, "the symmetry command needs a 'model' section")
    _require(config.bath is not None, "the symmetry command needs a 'bath' section")
    chain = config.model.chain
    diss = config.bath
    inputs = {**_model_cells(chain), **_bath_cells(diss)}
    drive = diss.drive
    if config.sweep is not None:
        # the scan grid is a drive grid; any other swept parameter means something else
        _require(config.sweep.parameter in ("f", "k"),
                 "the symmetry command takes only a drive sweep ('f' or 'k'), "
                 f"got {config.sweep.parameter!r}")
        grid = config.sweep.grid
    else:
        grid = diss.scan_grid

    rows = []

    start = time.perf_counter()
    conj = check_conjugation_identity(chain, diss)
    rows.append({**inputs, "check": "conjugation", "drive": drive,
                 "forward": None, "inverted": None, "error": conj.max_error,
                 "threshold": SOLVER.conjugation_tol, "passed": conj.passed,
                 "method": METHOD,
                 "wall_ms": round((time.perf_counter() - start) * 1e3, 3)})

    start = time.perf_counter()
    parity = parity_report(chain, diss)
    wall_ms = round((time.perf_counter() - start) * 1e3, 3)
    if chain.n_sites >= 3:
        rows.append({**inputs, "check": "energy_current_even", "drive": drive,
                     "forward": parity.f_xxz_forward, "inverted": parity.f_xxz_inverted,
                     "error": parity.f_even_error, "threshold": SOLVER.sign_floor,
                     "passed": parity.f_even_error <= SOLVER.sign_floor,
                     "method": METHOD, "wall_ms": wall_ms})
    rows.append({**inputs, "check": "spin_current_odd", "drive": drive,
                 "forward": parity.spin_forward, "inverted": parity.spin_inverted,
                 "error": parity.j_odd_error, "threshold": SOLVER.sign_floor,
                 "passed": parity.j_odd_error <= SOLVER.sign_floor,
                 "method": METHOD, "wall_ms": wall_ms})

    if chain.n_sites >= 3:
        start = time.perf_counter()
        scan = energy_current_direction_scan(chain, grid, bath=diss)
        wall_ms = round((time.perf_counter() - start) * 1e3, 3)
        for row in scan.rows:
            rows.append({**inputs, "check": "direction", "drive": row.drive,
                         "forward": row.forward_value, "inverted": row.inverted_value,
                         "error": abs(row.forward_value - row.inverted_value),
                         "threshold": SOLVER.sign_floor, "passed": row.consistent,
                         "method": METHOD, "wall_ms": wall_ms})
        rows.append({**inputs, "check": "direction_overall", "drive": None,
                     "forward": float(scan.common_sign), "inverted": float(scan.common_sign),
                     "error": 0.0 if scan.consistent else 1.0, "threshold": None,
                     "passed": scan.consistent, "method": METHOD,
                     "wall_ms": wall_ms})
    return rows


SYMMETRY_COLUMNS = (*_MODEL_COLUMNS, *_BATH_COLUMNS, "check", "drive", "forward",
                    "inverted", "error", "threshold", "passed", "method", "wall_ms")


def cmd_sweep(config: ExperimentConfig) -> list[dict]:
    """One row of steady-state currents per grid point, in grid order."""
    _require(config.model is not None, "the sweep command needs a 'model' section")
    _require(config.bath is not None, "the sweep command needs a 'bath' section")
    _require(config.sweep is not None, "the sweep command needs a 'sweep' section")

    def evaluate(value: float) -> dict:
        chain, diss = apply_sweep_value(config, value)
        solved = chain_steady_state(chain, diss)
        profile = currents_profile(solved.rho, chain)
        return {
            **_model_cells(chain),
            **_bath_cells(diss),
            "sweep_parameter": config.sweep.parameter,
            "sweep_value": value,
            "spin_current": central(profile.spin),
            "energy_xxz": central(profile.energy_xxz),
            "energy_total": central(profile.energy_total),
            "spin_spread": profile.spin_spread,
            "energy_xxz_spread": profile.energy_xxz_spread,
            "energy_total_spread": profile.energy_total_spread,
            **_diagnostic_cells(solved),
        }

    return _map_grid(evaluate, config.sweep.grid, config.workers)


SWEEP_COLUMNS = (*_MODEL_COLUMNS, *_BATH_COLUMNS, "sweep_parameter", "sweep_value",
                 "spin_current", "energy_xxz", "energy_total", "spin_spread",
                 "energy_xxz_spread", "energy_total_spread", "residual", "method",
                 "wall_ms")


def cmd_classical(config: ExperimentConfig) -> list[dict]:
    """Both-bias rectification rows for the oscillator chain."""
    _require(config.classical is not None, "the classical command needs a 'classical' section")
    section = config.classical
    if config.sweep is not None:
        # a config with a 'model' section parses its sweep as a spin sweep
        _require(config.sweep.parameter in CLASSICAL_SWEEP_PARAMETERS,
                 f"the classical command takes only a classical sweep "
                 f"{CLASSICAL_SWEEP_PARAMETERS}, got {config.sweep.parameter!r}")

    def evaluate(parameter: str | None, value: float | None) -> dict:
        chain = classical_chain_for(config, parameter, value)
        start = time.perf_counter()
        report = rectification_experiment(chain)
        wall_ms = round((time.perf_counter() - start) * 1e3, 3)
        predicted = math.nan
        eps = value if parameter == "eps" else section.eps
        # a swept edge temperature is no longer base_t + a_edge * eps
        if (section.base_t is not None and len(section.c) == 3 and eps is not None
                and parameter not in ("t_left", "t_right")):
            setup = LinearizedSetup(section.base_t, (section.a_left, 0.0, section.a_right), eps)
            predicted = conductivity_gap(setup, section.c, chain.alpha_exp)
        return {
            "c": _join_profile(chain.c),
            "alpha_exp": chain.alpha_exp,
            "t_left": chain.t_left,
            "t_right": chain.t_right,
            "sweep_parameter": parameter,
            "sweep_value": value,
            "flux_forward": report.flux_forward,
            "flux_reverse": report.flux_reverse,
            "rectification_gap": abs(report.flux_forward) - abs(report.flux_reverse),
            "inv_kappa_gap_measured": report.inv_kappa_gap,
            "inv_kappa_gap_predicted": predicted,
            "profile_forward": _join_profile(report.profile_forward),
            "profile_reverse": _join_profile(report.profile_reverse),
            "profile_reversal_mismatch": report.profile_reversal_mismatch,
            "wall_ms": wall_ms,
        }

    if config.sweep is None:
        return [evaluate(None, None)]
    parameter = config.sweep.parameter
    return _map_grid(lambda value: evaluate(parameter, value), config.sweep.grid,
                     config.workers)


CLASSICAL_COLUMNS = ("c", "alpha_exp", "t_left", "t_right", "sweep_parameter",
                     "sweep_value", "flux_forward", "flux_reverse", "rectification_gap",
                     "inv_kappa_gap_measured", "inv_kappa_gap_predicted",
                     "profile_forward", "profile_reverse", "profile_reversal_mismatch",
                     "wall_ms")

_COMMANDS = {
    "steady": (cmd_steady, STEADY_COLUMNS),
    "symmetry": (cmd_symmetry, SYMMETRY_COLUMNS),
    "sweep": (cmd_sweep, SWEEP_COLUMNS),
    "classical": (cmd_classical, CLASSICAL_COLUMNS),
}


@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and reused by ``main``."""
    parser = argparse.ArgumentParser(
        prog="chainflux",
        description="Steady states, currents, and rectification diagnostics "
                    "for boundary-driven spin chains.",
    )
    parser.add_argument("--version", action="version", version=f"chainflux {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("steady", "solve one steady state and tabulate its observables"),
        ("symmetry", "certify conjugation identities, parities, and current direction"),
        ("sweep", "evaluate steady-state currents over a parameter grid"),
        ("classical", "run the classical oscillator-chain rectification experiment"),
    ):
        sub = subparsers.add_parser(name, help=help_text)
        sub.add_argument("--config", required=True, help="path to the JSON config file")
        sub.add_argument("--out", help="output path (overrides output.path in the config)")
        sub.add_argument("--format", choices=("csv", "json"),
                         help="output format (overrides output.format)")
        sub.add_argument("--workers", type=int,
                         help="concurrent grid evaluations (overrides solver.workers)")
        sub.add_argument("--method",
                         help="steady-state solver: auto or dense_null, two names of the "
                              "one solver (overrides solver.method)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args.config, {
            "solver": {"method": args.method, "workers": args.workers},
            "output": {"path": args.out, "format": args.format},
        })
        if not config.output.path:
            raise SpecError("no output path: set output.path in the config or pass --out")
        runner, columns = _COMMANDS[args.command]
        rows = runner(config)
        _write_table(config.output.path, config.output.format, columns, rows, config.resolved)
    except SpecError as exc:
        print(f"chainflux: config error: {exc}", file=sys.stderr)
        return 2
    except ChainFluxError as exc:
        print(f"chainflux: solver error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
