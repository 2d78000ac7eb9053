"""Output checker: decides whether one CLI item produced a correct table.

The expected columns are written out here rather than imported from the
program, so a change to the table layout shows up as failed items.
"""

from __future__ import annotations

import csv
import math

CLASSICAL_ASYMMETRY_TOL = 1e-12  # alpha_exp = 0 flux-magnitude gap, as in the program
CLASSICAL_FLUX_RTOL = 1e-9

COLUMNS = {
    "symmetry": ("n_sites", "alpha", "delta", "b_field", "bath_family", "gamma", "f_left",
                 "f_right", "k", "k_prime", "rate", "check", "drive", "forward", "inverted",
                 "error", "threshold", "passed", "method", "wall_ms"),
    "classical": ("c", "alpha_exp", "t_left", "t_right", "sweep_parameter", "sweep_value",
                  "flux_forward", "flux_reverse", "rectification_gap",
                  "inv_kappa_gap_measured", "inv_kappa_gap_predicted", "profile_forward",
                  "profile_reverse", "profile_reversal_mismatch", "wall_ms"),
}


class ItemError(Exception):
    """An item failed."""


class Refused(ItemError):
    """The program refused the item with exit code 1, its documented solver failure."""


class Fault(ItemError):
    """The program crashed: an escaped exception, or an exit code other than 0 and 1.

    The benchmark's configs are valid, so exit code 2 (bad config) is a fault too.
    """


class OutputError(ItemError):
    """The program exited 0, but its output is missing, malformed or wrong."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise OutputError(message)


def read_table(path) -> tuple[list[str], list[dict]]:
    with open(path, newline="") as handle:
        lines = [line for line in handle if not line.startswith("#")]
    reader = csv.reader(lines)
    header = next(reader, None)
    _require(header is not None, "empty table")
    rows = [dict(zip(header, cells)) for cells in reader]
    return header, rows


def _float(row: dict, column: str) -> float:
    try:
        value = float(row[column])
    except (KeyError, ValueError):
        raise OutputError(f"column {column!r} is not a number: {row.get(column)!r}") from None
    _require(math.isfinite(value), f"column {column!r} is not finite: {value}")
    return value


def _check_symmetry(rows: list[dict], expect: dict) -> None:
    checks = [row["check"] for row in rows]
    expected = ["conjugation", "energy_current_even", "spin_current_odd",
                *["direction"] * len(expect["grid"]), "direction_overall"]
    _require(checks == expected, f"checks {checks} != {expected}")
    for row in rows:
        _require(int(row["n_sites"]) == expect["n_sites"], f"n_sites {row['n_sites']}")
        _require(row["bath_family"] == expect["family"], f"bath {row['bath_family']}")
        _require(row["passed"] == "true", f"check {row['check']} did not pass")
    drives = [float(row["drive"]) for row in rows if row["check"] == "direction"]
    _require(drives == [float(d) for d in expect["grid"]], f"direction grid {drives}")


def _fourier_fluxes(c: list[float], alpha: float, temps: list[float]) -> list[float]:
    """Bond fluxes of the local Fourier law, computed independently of the program."""
    return [
        -(temps[j + 1] - temps[j]) / (c[j] * temps[j] ** alpha + c[j + 1] * temps[j + 1] ** alpha)
        for j in range(len(c) - 1)
    ]


def _check_classical(rows: list[dict], expect: dict) -> None:
    alphas = [_float(row, "alpha_exp") for row in rows]
    _require(alphas == [float(a) for a in expect["alphas"]], f"alpha_exp rows {alphas}")
    for row, alpha in zip(rows, alphas):
        c = [float(v) for v in row["c"].split(";")]
        _require(len(c) == expect["n_sites"], f"{len(c)} sites != {expect['n_sites']}")
        t_left, t_right = _float(row, "t_left"), _float(row, "t_right")
        for profile_col, flux_col, edges in (
            ("profile_forward", "flux_forward", (t_left, t_right)),
            ("profile_reverse", "flux_reverse", (t_right, t_left)),
        ):
            temps = [float(v) for v in row[profile_col].split(";")]
            _require(len(temps) == len(c), f"{profile_col} has {len(temps)} sites")
            _require((temps[0], temps[-1]) == edges, f"{profile_col} edges {temps[0]}, {temps[-1]}")
            flux = _float(row, flux_col)
            worst = max(abs(f - flux) for f in _fourier_fluxes(c, alpha, temps))
            _require(worst <= CLASSICAL_FLUX_RTOL * max(1.0, abs(flux)),
                     f"{flux_col} not uniform along the chain (off by {worst:.3e})")
        if alpha == 0.0:
            gap = abs(_float(row, "rectification_gap"))
            _require(gap <= CLASSICAL_ASYMMETRY_TOL,
                     f"alpha_exp = 0 shows flux asymmetry {gap:.3e}")


_CHECKERS = {"symmetry": _check_symmetry, "classical": _check_classical}


def check_output(item, exit_code, path) -> None:
    """Raise Refused, Fault or OutputError unless the item exited 0 with a correct table."""
    if exit_code == 1:
        raise Refused("exit code 1")
    if exit_code != 0:
        raise Fault(f"exit code {exit_code}")
    header, rows = read_table(path)
    _require(tuple(header) == COLUMNS[item.command], f"unexpected columns {header}")
    _require(bool(rows), "table has no rows")
    try:
        _CHECKERS[item.command](rows, item.expect)
    except (KeyError, ValueError) as exc:
        raise OutputError(f"malformed row: {exc!r}") from None
