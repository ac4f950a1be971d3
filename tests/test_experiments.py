import json
import math
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

import pytest

from quadcf import arith, class_geodesics, experiments, matrix_orders, quad_orders
from quadcf.arith import InvariantError
from quadcf.experiments import (
    MAX_ITEMS,
    DeviationRow,
    ScanConfig,
    UsageError,
    artin_scan,
    artin_stats,
    converge_scan,
    converge_stats,
    converge_summary_lines,
    duke_discs,
    duke_scan,
    duke_stats,
    duke_summary_lines,
    emit,
    render_table,
    sequence_values,
    validate_config,
)
from quadcf.class_geodesics import TotalLength, total_length
from quadcf.matrix_orders import INERT, RAMIFIED, SPLIT, OrderRecord
from helpers import brute_pisano, sieve_primes

SRC = str(Path(__file__).resolve().parents[1] / "src")


def test_headers_are_frozen():
    frozen = {
        DeviationRow: (
            "N,is_prime,period_length,pattern,freq_num,freq_den,c_w,deviation,"
            "disc,reg_disc_exponent"
        ),
        OrderRecord: "N,ord,exponent,split_type,is_max",
        TotalLength: "disc,h,reg,total_length,exponent",
    }
    for row_type, header in frozen.items():
        assert render_table(row_type, [], "csv") == header + "\n"
        assert render_table(row_type, [], "json") == "[]\n"


def test_validate_config_errors():
    good = ScanConfig()
    validate_config(good)
    for bad in [
        ScanConfig(sequence="odds"),
        ScanConfig(bound=1),
        ScanConfig(workers=0),
    ]:
        with pytest.raises(UsageError):
            validate_config(bad)
    # the pattern checks belong to converge, the one scan with patterns
    for bad in [
        ScanConfig(patterns=()),
        ScanConfig(patterns=((),)),
        ScanConfig(patterns=((0,),)),
    ]:
        with pytest.raises(UsageError):
            converge_scan(bad)
    validate_config(ScanConfig(patterns=()))
    assert len(artin_scan(ScanConfig(patterns=(), bound=10))) == 9
    validate_config(ScanConfig(bound=MAX_ITEMS))
    with pytest.raises(UsageError, match=str(MAX_ITEMS)):
        validate_config(ScanConfig(bound=MAX_ITEMS + 1))


def test_sequence_values():
    assert sequence_values(ScanConfig(bound=10)) == list(range(2, 11))
    assert sequence_values(ScanConfig(bound=30, sequence="primes")) == sieve_primes(30)
    assert sequence_values(ScanConfig(bound=12, coprime_filter=6)) == [5, 7, 11]
    with pytest.raises(UsageError, match="coprime"):
        sequence_values(ScanConfig(bound=2, coprime_filter=2))


def test_converge_scan_first_row_frozen():
    # N=2 on sqrt(2): 2*sqrt(2) = [2; 1,4], so pattern (1) appears once in
    # a period of two, against the cylinder mass log2(4/3); the stabilizer
    # of Z + Z*2*sqrt(2) has conductor 2, disc 32, regulator log(3+2*sqrt 2)
    rows = converge_scan(ScanConfig(bound=4, patterns=((1,),)))
    r = rows[0]
    assert (r.N, r.is_prime, r.period_length, r.pattern) == (2, True, 2, "1")
    assert (r.freq_num, r.freq_den) == (1, 2)
    assert abs(r.c_w - math.log2(4 / 3)) < 1e-15
    assert abs(r.deviation - 0.08496250072115608) < 1e-15
    assert r.disc == 32
    reg = math.log(3 + 2 * math.sqrt(2))
    assert abs(r.reg_disc_exponent - math.log(reg) / math.log(math.sqrt(32))) < 1e-12


def test_converge_scan_row_order_and_multiple_patterns():
    cfg = ScanConfig(bound=10, patterns=((2,), (1, 1)))
    rows = converge_scan(cfg)
    assert [r.N for r in rows] == [n for n in range(2, 11) for _ in range(2)]
    assert [r.pattern for r in rows[:4]] == ["2", "1-1", "2", "1-1"]


def test_converge_scan_parallel_matches_serial():
    cfg = ScanConfig(bound=40, patterns=((1,), (2, 1)))
    serial = converge_scan(cfg)
    parallel = converge_scan(ScanConfig(bound=40, patterns=((1,), (2, 1)), workers=3))
    assert serial == parallel


def test_converge_stats_on_synthetic_decay():
    # deviation exactly N^-1 must fit delta_hat = 1, c_hat = 1
    def row(n, dev):
        return DeviationRow(n, False, 1, "1", 1, 2, 0.5, dev, 8, 0.0)

    rows = [row(n, 1.0 / n) for n in range(2, 20)]
    st = converge_stats(rows)["1"]
    assert st["rows"] == 18 and st["zero_deviation_rows"] == 0
    assert abs(st["delta_hat"] - 1.0) < 1e-9
    assert abs(st["c_hat"] - 1.0) < 1e-9
    assert st["frac_below_half_power"] == 1.0
    assert st["dyadic_medians"][1] == pytest.approx(5 / 12)  # median of 1/2, 1/3
    # zero deviations are excluded from the fit but counted
    st2 = converge_stats(rows + [row(25, 0.0)])["1"]
    assert st2["zero_deviation_rows"] == 1 and st2["rows"] == 19
    lines = converge_summary_lines({"1": st})
    assert any("delta_hat=1.000000" in ln for ln in lines)
    assert any(ln.startswith("pattern 1: dyadic_medians") for ln in lines)


def test_artin_scan_orders_match_fibonacci_oracle():
    recs = artin_scan(ScanConfig(d=5, sequence="primes", bound=60))
    assert [r.N for r in recs] == sieve_primes(60)
    for r in recs:
        assert r.ord == brute_pisano(r.N), r.N
        assert abs(r.exponent - math.log(r.ord) / math.log(r.N)) < 1e-12


def test_artin_scan_parallel_matches_serial():
    a = artin_scan(ScanConfig(d=5, bound=80))
    b = artin_scan(ScanConfig(d=5, bound=80, workers=4))
    assert a == b


@pytest.fixture
def serial_pool(monkeypatch):
    """Replace multiprocessing.Pool by one that maps in process; returns
    the record of each pool's size and chunks."""
    seen = SimpleNamespace(sizes=[], chunks=[])

    class SerialPool:
        def __init__(self, processes):
            seen.sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, chunks):
            seen.chunks.append(chunks)
            return [fn(chunk) for chunk in chunks]

    monkeypatch.setattr(multiprocessing, "Pool", SerialPool)
    return seen


def test_pool_is_capped_at_cpu_count(monkeypatch, serial_pool):
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: 3)
    recs = artin_scan(ScanConfig(bound=30, workers=10_000))
    assert serial_pool.sizes == [3]
    assert recs == artin_scan(ScanConfig(bound=30))  # reassembled in input order


def test_pool_gets_no_empty_chunk(monkeypatch, serial_pool):
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: 2)
    serial = (converge_scan(ScanConfig(bound=3)), artin_scan(ScanConfig(bound=3)))
    cfg = ScanConfig(bound=3, workers=2)
    assert (converge_scan(cfg), artin_scan(cfg)) == serial
    assert serial_pool.sizes == [2, 2]
    assert serial_pool.chunks == [[[2], [3]], [[2], [3]]]  # 2 items: 2 chunks, not 8
    assert artin_scan(ScanConfig(bound=30, workers=2)) == artin_scan(ScanConfig(bound=30))
    assert len(serial_pool.chunks[-1]) == 8 and all(serial_pool.chunks[-1])


def test_one_item_scan_starts_no_pool(monkeypatch):
    def no_pool(processes):
        raise AssertionError(f"a pool of {processes} for one item")

    serial = (converge_scan(ScanConfig(bound=2)), artin_scan(ScanConfig(bound=2)))
    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: 2)
    cfg = ScanConfig(bound=2, workers=2)
    assert (converge_scan(cfg), artin_scan(cfg)) == serial


@pytest.mark.parametrize("error, message", [
    (InvariantError, "N=2: synthetic at 2"), (UsageError, "synthetic at 2")])
def test_first_failing_item_is_raised_at_any_worker_count(monkeypatch, serial_pool,
                                                          error, message):
    # 10 items at 2 processes make 8 chunks: chunk 0 is [1, 9], chunk 1 is
    # [2, 10]. Chunk 0 fails at N=9 before chunk 1 fails at N=2, but N=2
    # comes first in the input, as with one worker.
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: 2)
    calls = []

    def kernel(ctx, n):
        calls.append(n)
        if n in (2, 9):
            raise error(f"synthetic at {n}")
        return [n]

    for workers in (1, 2):
        with pytest.raises(error) as info:
            experiments.run_items(kernel, None, list(range(1, 11)), workers)
        assert str(info.value) == message
    assert serial_pool.chunks[0][:2] == [[1, 9], [2, 10]]
    assert 10 not in calls  # chunk 1 stopped at its first failure


def test_converge_setup_factors_the_radicand_once(monkeypatch):
    real = arith.factorize
    factored = []

    def counting(n):
        factored.append(n)
        return real(n)

    for mod in (quad_orders, matrix_orders, class_geodesics, experiments):
        monkeypatch.setattr(mod, "factorize", counting, raising=False)
    # stop before the items: only the set-up runs
    monkeypatch.setattr(experiments, "run_items", lambda kernel, ctx, ns, workers: ctx)
    for p, r, d, q in ((0, 1, 2, 1), (1, 3, 5, 2), (0, 1, 1001, 1), (-2, 7, 10**18 + 1, 5)):
        factored.clear()
        base, fdata, _ = converge_scan(ScanConfig(p=p, r=r, d=d, q=q))
        assert factored == [base.D]
        assert fdata == quad_orders.field_data(d)


def test_cli_import_leaves_multiprocessing_out():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    code = "import sys, quadcf.cli; print('multiprocessing' in sys.modules)"
    res = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"


def test_duke_scan_invariant_error_names_the_disc(monkeypatch):
    def total_length(disc):
        raise InvariantError("synthetic")

    monkeypatch.setattr(experiments, "total_length", total_length)
    with pytest.raises(InvariantError, match=r"^disc=5: synthetic$"):
        duke_scan(5, 8)


def test_artin_stats_handmade():
    recs = [
        OrderRecord(7, 16, math.log(16) / math.log(7), INERT, True),
        OrderRecord(11, 10, math.log(10) / math.log(11), SPLIT, True),
        OrderRecord(5, 20, math.log(20) / math.log(5), RAMIFIED, None),
        OrderRecord(29, 14, math.log(14) / math.log(29), SPLIT, False),
    ]
    st = artin_stats(recs)
    assert set(st["densities"]) == {0.7, 0.8, 0.9}
    # ord >= N^0.8 for 16>7^.8, 10>11^.8(6.8), 20>5^.8, 14<29^.8(14.8)
    assert st["densities"][0.8] == 3 / 4
    assert st["exceptions"] == [29]
    # all prime records count in the denominator; the ramified one can
    # never be maximal (is_max None)
    assert st["prime_max_density"] == 2 / 4


def test_duke_discs():
    assert duke_discs(5, 21, False) == [5, 8, 12, 13, 17, 20, 21]  # no square 16
    assert duke_discs(5, 21, True) == [5, 8, 12, 13, 17, 21]
    assert duke_discs(-10, 8, False) == [5, 8]
    with pytest.raises(UsageError):
        duke_discs(10, 5, False)
    with pytest.raises(UsageError):
        duke_discs(26, 27, False)  # 2 and 3 mod 4 only
    with pytest.raises(UsageError, match=str(MAX_ITEMS)):
        duke_discs(5, 10**18, False)  # refused before the walk starts
    assert duke_discs(-10**18, 8, False) == [5, 8]  # the window starts at 5


def test_duke_scan_hands_its_discriminants_to_the_runner(monkeypatch):
    calls = []

    def recording(kernel, ctx, ns, workers, label="N"):
        calls.append((ns, workers, label))
        return [row for n in ns for row in kernel(ctx, n)]

    monkeypatch.setattr(experiments, "run_items", recording)
    for dmin, dmax, fundamental_only in ((5, 60, False), (5, 60, True), (100, 130, False)):
        calls.clear()
        rows = duke_scan(dmin, dmax, fundamental_only)
        discs = duke_discs(dmin, dmax, fundamental_only)
        assert calls == [(discs, 1, "disc")]  # one process, failures named by disc
        assert [r.disc for r in rows] == discs


def test_duke_scan_rows():
    rows = duke_scan(5, 60, fundamental_only=True)
    by_disc = {r.disc: r for r in rows}
    assert by_disc[40].h == 2
    assert abs(by_disc[40].exponent - total_length(40).exponent) < 1e-15
    for r in rows:
        assert abs(r.total_length - r.h * r.reg) < 1e-12


def test_duke_stats_handmade():
    rows = [
        TotalLength(16 + i, 1, 1.0, 1.0, 0.5 + 0.1 * i) for i in range(3)  # k = 4
    ] + [TotalLength(40, 2, 1.0, 2.0, 1.1)]  # k = 5
    st = duke_stats(rows)
    assert set(st["blocks"]) == {4, 5}
    assert st["blocks"][4]["n"] == 3
    assert st["blocks"][4]["mean"] == pytest.approx(0.6)
    assert st["median_exponent"] == pytest.approx(0.65)  # of 0.5 0.6 0.7 1.1
    lines = duke_summary_lines(st)
    assert lines[-1].startswith("median_exponent:")


def test_render_table_csv_and_json():
    class Row(NamedTuple):  # declaration order, not name order, sets the columns
        b: object
        a: int
        c: object

    rows = [Row(True, 1, None), Row(0.5, 2, "x")]
    assert render_table(Row, rows, "csv") == "b,a,c\ntrue,1,\n0.5,2,x\n"
    text = render_table(Row, rows, "json")
    assert json.loads(text) == [
        {"b": True, "a": 1, "c": None},
        {"b": 0.5, "a": 2, "c": "x"},
    ]
    assert list(json.loads(text)[0]) == ["b", "a", "c"]


def test_emit_to_file_and_stream(tmp_path, capsys):
    target = tmp_path / "out.csv"
    emit("hello\n", str(target))
    assert target.read_text() == "hello\n"
    emit("to-stdout\n", None)
    assert capsys.readouterr().out == "to-stdout\n"
