"""Smoke tests of the benchmark itself, about fifteen seconds on two cores.

    PYTHONPATH=src python3 -m pytest -q bench

Every workload runs at its smallest size through the timed and the traced
path; the metric names and units must be exactly those of BENCHMARK.json.
The tracer must wrap every binding of a public function and no private one,
a wrong pinned hash must fail every invocation, a checkout without library
sources must be refused, and compare mode must give its four verdicts.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import compare
import run

SPEC = run.load_spec()
GOLDEN = json.loads((run.BENCH / "golden.json").read_text())


def run_smallest(name: str, trace: bool, golden: dict, capsys,
                 out_file: str | None = None) -> tuple[int, dict]:
    wl = run.WORKLOADS[name]
    smallest = dataclasses.replace(wl, full=wl.smallest)
    code = run.run(smallest, 0, 0.0, trace, golden, SPEC, out_file)
    last = capsys.readouterr().out.strip().splitlines()[-1]
    return code, json.loads(last)


@pytest.mark.parametrize("trace", [False, True], ids=["timed", "traced"])
@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_smallest_size_reports_every_declared_metric(name, trace, capsys):
    code, res = run_smallest(name, trace, GOLDEN, capsys)
    assert code == 0
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= (13 if run.WORKLOADS[name].parallel else 10)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    values = {k: v["value"] for k, v in res["metrics"].items()}
    if not trace:
        assert all(v > 0 for v in values.values())
        return
    assert values["cli.self_s"] > 0 and values["trace.overhead"] > 0
    if name == "converge-primes":
        # mat_order_mod is reached only through the call-time import in unit_group_index.
        assert values["matrix_orders.mat_order_mod.calls"] == values["quad_orders.unit_group_index.calls"] > 0
    else:
        assert values["gauss_kuzmin.pattern_frequency.calls"] == 0
    if name != "duke-range":
        assert values["class_geodesics.rho.calls"] == 0
    else:
        assert values["class_geodesics.forms"] == values["class_geodesics.rho.calls"] > 0


def test_tracer_wraps_every_public_binding():
    code = (
        "import quadcf, trace_cli\n"
        "from quadcf import arith, class_geodesics, experiments, surd\n"
        "trace_cli.install(trace_cli.Tracer())\n"
        "assert experiments.cf_expand is surd.cf_expand is quadcf.cf_expand\n"
        "assert class_geodesics.factorize is arith.factorize is quadcf.factorize\n"
        "assert surd.cf_expand.__wrapped__.__name__ == 'cf_expand'\n"
        "assert not hasattr(surd._state_walk, '__wrapped__')\n"
    )
    subprocess.run([sys.executable, "-c", code], cwd=run.BENCH, env=run.cli_env(),
                   check=True, timeout=60)


def test_wrong_pinned_hash_fails_every_invocation(capsys, tmp_path):
    wrong = {key: "0" * 64 for key in GOLDEN}
    out = tmp_path / "runs.jsonl"
    code, res = run_smallest("artin-integers", False, wrong, capsys, str(out))
    assert code == 1
    assert res["correct"] is False
    record = json.loads(out.read_text())
    # Every CLI invocation fails (failed_frac = 1); only the calibrations pass.
    calibrations = len(record["samples"]["calibration_s"])
    assert calibrations >= 1 and res["failed"] == res["attempted"] - calibrations
    assert all(f["command"].startswith("artin ") for f in record["failures"])


def test_checkout_without_sources_is_refused(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    res = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "duke-range", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert res.returncode != 0
    assert '"correct"' not in res.stdout
    assert "no quadcf sources" in res.stderr


def _record(seed: int, value: float) -> dict:
    return {"workload": "artin-integers", "seed": seed, "metrics": {"wall_s": value}}


@pytest.mark.parametrize("child, expected", [
    ([1.50, 1.52, 1.49, 1.51, 1.50], "worse"),
    ([0.80, 0.81, 0.79, 0.80, 0.80], "better"),
    ([1.01, 0.99, 1.00, 1.02, 1.00], "same"),
    ([0.50, 1.50, 0.70, 1.30, 1.00], "unresolved"),
])
def test_compare_verdicts(tmp_path, capsys, child, expected):
    parent = [1.00, 1.01, 0.99, 1.00, 1.02]
    paths = []
    for side, values in (("parent", parent), ("child", child)):
        path = tmp_path / f"{side}.jsonl"
        path.write_text("".join(json.dumps(_record(s, v)) + "\n" for s, v in enumerate(values)))
        paths.append(str(path))
    assert compare.main(paths[0], paths[1], SPEC) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    (row,) = [r for r in rows if r[:2] == ["artin-integers", "wall_s"]]
    assert row[-1] == expected
