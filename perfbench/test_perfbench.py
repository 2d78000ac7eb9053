"""Fast test of the benchmark itself: toy-size runs and the output checker."""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
import workloads

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_toy_run_emits_every_metric(workload, trace, section):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0.5", "--trace", str(trace), "--size", "toy"],
        capture_output=True, text=True, timeout=170, cwd=HERE.parent,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


def _rewrite_cell(path: Path, row_index: int, column: str, new_value) -> None:
    lines = path.read_text().splitlines(keepends=True)
    comments = [line for line in lines if line.startswith("#")]
    table = list(csv.reader(line for line in lines if not line.startswith("#")))
    header = table[0]
    cell = table[1 + row_index][header.index(column)]
    table[1 + row_index][header.index(column)] = new_value(cell)
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(table)
    path.write_text("".join(comments) + buffer.getvalue())


CORRUPTIONS = {
    "symmetry_repeat_n4": (1, "passed", lambda v: "false"),
    "classical_rectify": (0, "flux_forward", lambda v: repr(float(v) * (1 + 1e-6))),
}


class CorruptingCli:
    """The real CLI, with one cell of every output table rewritten."""

    def __init__(self, cli, corruption):
        self.cli, self.corruption = cli, corruption

    def main(self, argv):
        code = self.cli.main(argv)
        row, column, new_value = self.corruption
        _rewrite_cell(Path(argv[argv.index("--out") + 1]), row, column, new_value)
        return code


@pytest.mark.parametrize("workload", sorted(CORRUPTIONS))
def test_corrupted_row_counts_as_failed(workload, tmp_path):
    client = run.Client(run.import_cli(), workloads.WORKLOADS[workload], 3, "toy", tmp_path)
    _, error = client.run(0)
    assert error is None
    client.cli = CorruptingCli(client.cli, CORRUPTIONS[workload])
    measured = run.measure(client, seconds=0.01)
    assert len(measured["errors"]) == len(measured["untraced"]) >= 1
    assert all(isinstance(e, checks.OutputError) for e in measured["errors"])


# exit 1 is a refusal (failed, not wrong); exit 2 on a generated, valid config is a fault
@pytest.mark.parametrize("exit_code, error", [(1, checks.Refused), (2, checks.Fault)])
def test_non_zero_exit_is_failed(exit_code, error, tmp_path):
    item = workloads.WORKLOADS["symmetry_repeat_n4"].item(1, 0, "toy")
    with pytest.raises(error):
        checks.check_output(item, exit_code, tmp_path / "missing.csv")


class CrashingCli:
    def main(self, argv):
        raise TypeError("crash")


def test_escaped_exception_is_a_fault(tmp_path):
    client = run.Client(CrashingCli(), workloads.WORKLOADS["classical_rectify"], 3, "toy",
                        tmp_path)
    _, error = client.run(1)
    assert isinstance(error, checks.Fault) and "TypeError" in str(error)


# The program's alpha_exp = 0 self-check (classical.rectification_experiment)
# allows a flux asymmetry of 1e-12 absolute, the same as the Newton tolerance on
# adjacent flux differences, so it refuses some valid chains with exit code 1.
# This one is chain 41 of seed 1 (N=43, asymmetry 1.07e-12). alpha_exp = 0 stays
# out of the classical workload until this test passes.
KNOWN_REFUSAL = (1, 41)


@pytest.mark.xfail(raises=checks.Refused, strict=False,
                   reason="program defect: alpha_exp = 0 self-check tolerance")
def test_alpha_exp_zero_chain_is_not_refused(tmp_path):
    item = workloads.WORKLOADS["classical_rectify"].item(*KNOWN_REFUSAL, "full")
    item = dataclasses.replace(
        item, config={**item.config, "sweep": {"parameter": "alpha_exp", "grid": [0.0]}},
        expect={**item.expect, "alphas": (0.0,)})
    config, out = tmp_path / "item.json", tmp_path / "out.csv"
    config.write_text(json.dumps(item.config))
    code = run.import_cli().main(["classical", "--config", str(config), "--out", str(out),
                                  "--format", "csv", "--workers", "1"])
    checks.check_output(item, code, out)


def test_tail_latency_keeps_ten_items_beyond():
    values = [float(v) for v in range(1, 101)]
    assert run.tail_latency(values) == (90.0, 0.9)
    assert run.tail_latency(values[:15]) == (8.0, 0.5)
