import ast
import errno
import hashlib
import json
import os
import random
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from quadcf import experiments
from quadcf.arith import InvariantError
from quadcf.experiments import UsageError
from quadcf.surd import make_surd
import quadcf.cli as cli
from quadcf import class_geodesics

DEVIATION_HEADER = (
    "N,is_prime,period_length,pattern,freq_num,freq_den,c_w,deviation,disc,reg_disc_exponent"
)

# the period of its square root is about sqrt(10**30) = 10**15 digits long
HUGE_RADICAND = "1000000000000000000000000000003"
SEMIPRIME_RADICAND = "5859824980284060829895849672056204220491"
# primes s^2 + 1 of 321 and 401 digits: period length 1, discriminant past the float range
FLOAT_OVERFLOW_RADICANDS = [str((10**160 + 376) ** 2 + 1), str((10**200 + 50) ** 2 + 1)]

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run(argv):
    return cli.main(argv)


def _cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


def test_parse_patterns():
    assert cli.parse_patterns("1;2;1,1") == ((1,), (2,), (1, 1))
    assert cli.parse_patterns(" 3 , 1 ") == ((3, 1),)
    with pytest.raises(UsageError):
        cli.parse_patterns("1;x")
    with pytest.raises(UsageError):
        cli.parse_patterns(" ; ")


def test_load_config(tmp_path):
    cfgfile = tmp_path / "scan.cfg"
    cfgfile.write_text("# comment\nbound = 16\n\nd=3  # trailing comment\n")
    assert cli.load_config(str(cfgfile)) == {"bound": "16", "d": "3"}
    bad = tmp_path / "bad.cfg"
    bad.write_text("bound 16\n")
    with pytest.raises(UsageError):
        cli.load_config(str(bad))
    with pytest.raises(UsageError):
        cli.load_config(str(tmp_path / "missing.cfg"))


def test_config_over_64_kib_is_refused(tmp_path, capsys):
    # valid comment lines one byte over the cap: refused unparsed; at the cap
    # the same lines are read
    cap = 2**16
    text = ("# " + "x" * 61 + "\n") * (cap // 64) + "#"
    cfgfile = tmp_path / "big.cfg"
    cfgfile.write_text(text)
    assert run(["artin", "--bound", "6", "--config", str(cfgfile)]) == 2
    assert capsys.readouterr().err == f"error: config {cfgfile} is larger than {cap} bytes\n"
    cfgfile.write_text(text[:-1])
    assert run(["artin", "--bound", "6", "--config", str(cfgfile)]) == 0


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
def test_endless_config_is_refused_in_bounded_memory():
    resource = pytest.importorskip("resource")
    limit = 512 * 2**20

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    res = _cli_process(["artin", "--bound", "6", "--config", "/dev/zero"],
                       preexec_fn=cap_address_space, capture_output=True, text=True)
    assert (res.returncode, res.stderr) == (2, "error: config /dev/zero is larger than 65536 bytes\n")


def test_converge_refuses_a_pattern_over_64_digits(tmp_path, capsys):
    argv = ["converge", "--d", "2", "--bound", "3", "--patterns"]
    assert run(argv + [",".join(["1"] * 64)]) == 0
    capsys.readouterr()
    assert run(argv + [",".join(["1"] * 65)]) == 2
    assert capsys.readouterr().err == "error: a pattern may have at most 64 digits\n"
    # a config file passes one of 32 000 digits, whose c_w alone took seconds
    cfgfile = tmp_path / "long.cfg"
    cfgfile.write_text("patterns = " + ",".join(["1"] * 32_000) + "\n")
    assert run(["converge", "--d", "2", "--bound", "3", "--config", str(cfgfile)]) == 2
    assert capsys.readouterr().err == "error: a pattern may have at most 64 digits\n"


def test_expand_golden_ratio(capsys):
    assert run(["expand", "--p", "1", "--r", "1", "--d", "5", "--q", "2"]) == 0
    out = capsys.readouterr().out
    assert "preperiod:\n" in out or "preperiod: \n" in out
    assert "period: 1\n" in out
    assert "period_length: 1\n" in out


def test_expand_with_convergents(capsys):
    assert run(["expand", "--d", "2", "--convergents", "3"]) == 0
    out = capsys.readouterr().out
    assert "convergents: 1/1 3/2 7/5" in out


def test_converge_stdout_and_summary(capsys):
    rc = run(["converge", "--bound", "8", "--patterns", "1;2", "--summary"])
    assert rc == 0
    cap = capsys.readouterr()
    lines = cap.out.splitlines()
    assert lines[0] == DEVIATION_HEADER
    assert len(lines) == 1 + 7 * 2  # N = 2..8, two patterns each
    assert cap.err.startswith("pattern 1:")


def test_converge_json_output(tmp_path):
    out = tmp_path / "rows.json"
    rc = run(["converge", "--bound", "6", "--format", "json",
              "--output", str(out)])
    assert rc == 0
    rows = json.loads(out.read_text())
    assert [r["N"] for r in rows] == [2, 3, 4, 5, 6]
    assert list(rows[0]) == DEVIATION_HEADER.split(",")


def test_converge_config_file_and_flag_override(tmp_path):
    cfgfile = tmp_path / "scan.cfg"
    cfgfile.write_text("bound = 12\nd = 3\npatterns = 1,1\n")
    out1 = tmp_path / "a.csv"
    assert run(["converge", "--config", str(cfgfile), "--output", str(out1)]) == 0
    body = out1.read_text().splitlines()
    assert len(body) == 1 + 11  # bound 12 from the file
    assert body[1].split(",")[3] == "1-1"
    # explicit flag wins over the file entry
    out2 = tmp_path / "b.csv"
    assert run(["converge", "--config", str(cfgfile), "--bound", "5",
                "--output", str(out2)]) == 0
    assert len(out2.read_text().splitlines()) == 1 + 4


def test_converge_summary_to_file(tmp_path):
    out = tmp_path / "rows.csv"
    summ = tmp_path / "summary.txt"
    rc = run(["converge", "--bound", "16", "--output", str(out),
              "--summary", str(summ)])
    assert rc == 0
    assert summ.read_text().startswith("pattern 1:")


def test_artin_csv(capsys):
    rc = run(["artin", "--d", "5", "--bound", "30"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "N,ord,exponent,split_type,is_max"
    first = lines[1].split(",")
    assert first[0] == "2" and first[1] == "3"  # Fibonacci period mod 2
    assert first[4] == ""  # p = 2 carries no maximality verdict


# recorded before artin classified each prime once
ARTIN_SUMMARY_ARGV = ["artin", "--d", "5", "--sequence", "integers", "--bound", "100",
                      "--summary", "-"]
ARTIN_SUMMARY = (
    "density ord>=N^0.7: 0.989899\n"
    "density ord>=N^0.8: 0.949495\n"
    "density ord>=N^0.9: 0.858586\n"
    "prime is_max density: 0.800000\n"
    "exceptions ord<N^0.8: 29 38 55 72 76\n"
)


def test_artin_summary_lines(capsys):
    assert run(ARTIN_SUMMARY_ARGV) == 0
    assert capsys.readouterr().err == ARTIN_SUMMARY


@pytest.mark.parametrize("value, flags", [
    ("yes", ["--fundamental-only"]),
    ("0", []),
])
def test_config_booleans_match_the_flag(value, flags, tmp_path):
    cfgfile = tmp_path / "scan.cfg"
    cfgfile.write_text(f"fundamental_only = {value}\n")
    by_file, by_flag = tmp_path / "file.csv", tmp_path / "flag.csv"
    assert run(["duke", "--max", "60", "--config", str(cfgfile), "--output", str(by_file)]) == 0
    assert run(["duke", "--max", "60", *flags, "--output", str(by_flag)]) == 0
    assert by_file.read_text() == by_flag.read_text()


def test_duke_fundamental_only(capsys):
    rc = run(["duke", "--min", "5", "--max", "21", "--fundamental-only"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "disc,h,reg,total_length,exponent"
    assert [ln.split(",")[0] for ln in lines[1:]] == ["5", "8", "12", "13", "17", "21"]


def test_unit_output(capsys):
    assert run(["unit", "--d", "5", "--conductor", "5"]) == 0
    out = capsys.readouterr().out
    assert "D=5 eps=(0,1)" in out
    assert "norm=-1" in out
    assert "conductor=5 disc=125 unit_index=5 pm_index=10" in out


def test_classno_output(capsys):
    assert run(["classno", "--disc", "229"]) == 0
    out = capsys.readouterr().out
    assert "disc=229 h=3 reduced_forms=14" in out


def test_classno_enumerates_the_forms_once(monkeypatch, capsys):
    calls = []
    real = class_geodesics.reduced_forms

    def counting(disc):
        calls.append(disc)
        return real(disc)

    monkeypatch.setattr(class_geodesics, "reduced_forms", counting)
    monkeypatch.setattr(cli, "reduced_forms", counting, raising=False)
    assert run(["classno", "--disc", "229"]) == 0
    assert "disc=229 h=3 reduced_forms=14" in capsys.readouterr().out
    assert calls == [229]


def test_classno_at_the_largest_accepted_discriminant(capsys):
    # the work cap admits a single discriminant up to about 10**12; the line
    # was recorded with one factorize call per b, before the form sieve
    assert run(["classno", "--disc", "10000000001"]) == 0
    assert capsys.readouterr().out == (
        "disc=10000000001 h=6672 reduced_forms=137216 reg=12.206072645555182 "
        "total_length=81438.91669114417 exponent=0.9821663975959721\n"
    )


@pytest.mark.parametrize("extra", [False, True])
def test_help_lists_each_owners_names(capsys, monkeypatch, extra):
    # --sequence and --format spell their choices from the owners' names, in
    # the owners' order, so a name added to an owner shows in --help too
    sequences, formats = list(experiments._SEQUENCES), list(experiments._TABLE_FORMATS)
    if extra:
        sequences.append("squares")
        formats.append("tsv")
        monkeypatch.setattr(cli, "_SEQUENCES", dict.fromkeys(sequences))
        monkeypatch.setattr(cli, "_TABLE_FORMATS", tuple(formats))
    for command, owners in [
        ("converge", {"--sequence": sequences, "--format": formats}),
        ("artin", {"--sequence": sequences, "--format": formats}),
        ("duke", {"--format": formats}),
    ]:
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args([command, "--help"])
        text = capsys.readouterr().out
        # once in the usage lines, once in the options list
        for flag in ("--sequence", "--format"):
            want = [",".join(owners[flag])] * 2 if flag in owners else []
            assert re.findall(flag + r" \{([^}]*)\}", text) == want, (command, flag)


def test_exit_code_2_on_bad_usage(capsys):
    bad_invocations = [
        ["expand", "--d", "4"],                # square radicand
        ["converge", "--bound", "1"],          # bound too small
        ["converge", "--patterns", "0"],       # digit below 1
        ["converge", "--workers", "0"],
        ["converge", "--sequence", "odds"],    # refused by validate_config
        ["artin", "--d", "18"],                # not a field label
        ["duke", "--min", "10", "--max", "5"],
        ["classno", "--disc", "7"],
        ["expand", "--d", "7", "--convergents", "-1"],
        ["unit", "--d", "5", "--conductor", "0"],
        ["unit", "--d", "5", "--conductor", "-3"],
        ["unit", "--d", "5", "--conductor", SEMIPRIME_RADICAND],  # over 10**18
        # oversized: refused before anything is allocated or walked
        ["converge", "--sequence", "primes", "--bound", "1000000000000000000"],
        ["artin", "--sequence", "integers", "--bound", "1000000000000000000"],
        ["duke", "--min", "5", "--max", "1000000000000000000"],
        ["duke", "--min", "5", "--max", "1000004"],
        ["duke", "--min", "1000000000000000001", "--max", "1000000000000000001"],
        ["expand", "--d", "7", "--convergents", "100000000"],
        ["classno", "--disc", "1000000000000000000000000000005"],
        # the period of sqrt(d) is about sqrt(d) long: stopped by the walk budget
        ["expand", "--d", HUGE_RADICAND],
        ["unit", "--d", HUGE_RADICAND],
        ["converge", "--d", HUGE_RADICAND, "--bound", "3"],
        ["artin", "--d", HUGE_RADICAND, "--bound", "3"],
        # two 20-digit prime factors: the walk refuses it before anything is factored
        ["unit", "--d", SEMIPRIME_RADICAND],
        ["artin", "--d", SEMIPRIME_RADICAND],
        ["converge", "--d", SEMIPRIME_RADICAND, "--bound", "3"],
        ["converge", "--r", "1000000000000", "--bound", "3", "--workers", "2"],  # in a worker
        # order discriminants over the float range, in this process and in workers
        *(["converge", "--d", d, "--bound", "3", "--workers", w]
          for d in FLOAT_OVERFLOW_RADICANDS for w in ("1", "2")),
        # units too large to print: over the int-to-str digit limit, over the float range
        ["unit", "--d", "17804791"],
        ["unit", "--d", "1100023"],
        # no N survives the filter: no table, no division by zero in the summary
        ["artin", "--bound", "2", "--coprime-filter", "2", "--summary"],
        ["converge", "--bound", "2", "--coprime-filter", "2"],
        ["nonsense"],
        [],
    ]
    for argv in bad_invocations:
        assert run(argv) == 2, argv
        cap = capsys.readouterr()
        assert cap.out == "", argv  # nothing printed before the error


def test_refusals_name_their_limit(capsys):
    for argv, limit in [
        (["classno", "--disc", "1000000000000000000000000000005"], "1000000 (disc, b) pairs"),
        (["unit", "--d", "17804791"], f"more than {sys.get_int_max_str_digits()} digits"),
        (["unit", "--d", "1100023"], "too large for a float"),
        (["converge", "--d", FLOAT_OVERFLOW_RADICANDS[0], "--bound", "3"], "too large for a float"),
        (["unit", "--d", "5", "--conductor", "1000000000000000001"],
         "--conductor must be <= 1000000000000000000"),
        (["converge", "--sequence", "odds"], "error: unknown sequence 'odds'"),
        (["artin", "--sequence", "odds"], "error: unknown sequence 'odds'"),
    ]:
        assert run(argv) == 2, argv
        assert limit in capsys.readouterr().err, argv


def test_bad_patterns_are_named(capsys, tmp_path):
    # Pattern alone decides which patterns are valid; converge names the one it
    # refuses, and a repeated pattern, whose rows it would write twice
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text("patterns = 1;1\n")
    for argv, err in (
        (["--patterns", "0"], "error: bad pattern (0,)\n"),
        (["--patterns", "1;0,2"], "error: bad pattern (0, 2)\n"),
        (["--patterns", "1;1"], "error: repeated pattern (1,)\n"),
        (["--patterns", "1;2,1;01"], "error: repeated pattern (1,)\n"),
        (["--config", str(cfgfile)], "error: repeated pattern (1,)\n"),
    ):
        assert run(["converge", *argv]) == 2, argv
        assert capsys.readouterr() == ("", err), argv


def test_factoring_budget_refuses_fast(capsys):
    # sqrt(10**160 - 1) has period length 2, so no walk budget stops it:
    # factoring the 160-digit radicand is refused by the Pollard rho budget
    radicand = str(10**160 - 1)
    for argv in (["unit", "--d", radicand], ["artin", "--d", radicand, "--bound", "3"],
                 ["converge", "--d", radicand, "--bound", "3"]):
        start = time.perf_counter()
        assert run(argv) == 2, argv
        assert time.perf_counter() - start < 10, argv
        cap = capsys.readouterr()
        assert cap.out == "", argv
        assert f"cannot factor {radicand} within" in cap.err, argv
        assert "Traceback" not in cap.err, argv
    # 106 490 Pollard rho steps, well inside the budget: the line from before it
    assert run(["unit", "--d", str(10**60 + 1)]) == 0
    assert capsys.readouterr().out == (
        f"D={10**60 + 1} eps=({10**30 - 1},2) value=2e+30 norm=-1 regulator=69.77069997038132\n"
    )


def test_budgets_count_cost_so_large_inputs_are_refused_fast(capsys):
    # a step's cost grows with the size of the number walked or factored,
    # and so does what each budget charges for it
    radicand = random.Random(4000).randrange(10**3999, 10**4000)
    walk_limit = 10**6 // (radicand.bit_length() // 64)
    # (1 + sqrt(radicand))/2, whose canonical surd sets the limit by its own D
    half_limit = 10**6 // (make_surd(1, 1, radicand, 2).D.bit_length() // 64)
    for argv, seconds, message in [
        (["expand", "--d", str(radicand)], 2, f"not closed within {walk_limit} digits"),
        (["expand", "--p", "1", "--q", "2", "--d", str(radicand)], 2,
         f"not closed within {half_limit} digits"),
        (["unit", "--d", str(10**500 + 1)], 3, f"cannot factor {10**500 + 1} within"),
        (["unit", "--d", str(10**1000 + 1)], 5, f"cannot factor {10**1000 + 1} within"),
    ]:
        start = time.perf_counter()
        assert run(argv) == 2, argv[:2]
        assert time.perf_counter() - start < seconds, argv[:2]
        cap = capsys.readouterr()
        assert cap.out == "", argv[:2]
        assert message in cap.err, argv[:2]
    # the longest walk a scan within its bound needs, N*sqrt(2) at N = 999983:
    # a 41-bit radicand keeps the whole 10**6-digit limit
    assert run(["expand", "--d", str(2 * 999983**2)]) == 0
    assert "period_length: 742792\n" in capsys.readouterr().out


def test_exit_code_2_on_bad_config(tmp_path, capsys):
    cfgfile = tmp_path / "scan.cfg"
    cfgfile.write_text("no_such_key = 1\n")
    assert run(["converge", "--config", str(cfgfile)]) == 2
    cfgfile.write_text("bound = soon\n")
    assert run(["converge", "--config", str(cfgfile)]) == 2
    cfgfile.write_text("fundamental_only = maybe\n")
    assert run(["duke", "--config", str(cfgfile)]) == 2
    cfgfile.write_text("workers = 2\n")  # duke runs in one process
    assert run(["duke", "--config", str(cfgfile)]) == 2
    assert "unknown config key 'workers'" in capsys.readouterr().err
    cfgfile.write_text("format = xml\n")
    for command in ("converge", "artin", "duke"):
        assert run([command, "--config", str(cfgfile)]) == 2
        assert "unknown format 'xml'" in capsys.readouterr().err
    cfgfile.write_bytes(b"\xffbound = 4\n")  # not UTF-8: the message names the file
    assert run(["converge", "--config", str(cfgfile)]) == 2
    assert capsys.readouterr().err == f"error: cannot read config {cfgfile}: not UTF-8 text\n"


def test_exit_code_3_on_internal_invariant(monkeypatch, capsys):
    def boom(cfg):
        raise InvariantError("synthetic failure")

    monkeypatch.setattr(cli, "converge_scan", boom)
    assert run(["converge", "--bound", "4"]) == 3
    assert "synthetic failure" in capsys.readouterr().err


def test_exit_code_3_names_the_failing_n(monkeypatch, capsys):
    real = experiments._window_counts

    def fail_at_n5(period, words):  # 5*sqrt(2) = [7; 14] is the only period of length 1
        if period == (14,):
            raise InvariantError("synthetic failure")
        return real(period, words)

    monkeypatch.setattr(experiments, "_window_counts", fail_at_n5)
    assert run(["converge", "--bound", "8"]) == 3
    assert "N=5: synthetic failure" in capsys.readouterr().err


def test_exit_code_3_from_classno_names_the_discriminant(monkeypatch, capsys):
    # classno names its input the way the duke runner names a failing item
    outside = class_geodesics.IndefForm(1, 1, -57)  # disc 229 but not reduced
    monkeypatch.setattr(class_geodesics, "rho", lambda F: outside)
    expected = "internal invariant violated: disc=229: rho is not a permutation"
    for argv in (["classno", "--disc", "229"], ["duke", "--min", "229", "--max", "229"]):
        assert run(argv) == 3, argv
        assert capsys.readouterr().err.startswith(expected), argv


@pytest.mark.parametrize("argv, path", [
    (["converge", "--output", "/nonexistent/dir/x.csv"], "/nonexistent/dir/x.csv"),
    (["duke", "--summary", "/nonexistent/s.txt"], "/nonexistent/s.txt"),
])
def test_exit_code_2_on_unwritable_output(argv, path, capsys):
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert path in err
    assert "Traceback" not in err


@pytest.mark.parametrize("flags, bad", [
    (["--output", "{tmp}/missing/x.csv"], "{tmp}/missing/x.csv"),
    (["--summary", "{tmp}/missing/s.txt"], "{tmp}/missing/s.txt"),  # table on stdout
    (["--output", "{tmp}"], "{tmp}"),  # a directory
    # the summary would overwrite the table
    (["--output", "{tmp}/same.txt", "--summary", "{tmp}/same.txt"], "{tmp}/same.txt"),
    (["--output", "{tmp}/same.txt", "--summary", "{tmp}/./same.txt"], "{tmp}/./same.txt"),
])
def test_unwritable_paths_are_refused_before_the_scan(flags, bad, tmp_path):
    # the scan of N <= 10**5 takes seconds; the refusal comes before it
    argv = ["artin", "--bound", "100000", *(f.format(tmp=tmp_path) for f in flags)]
    start = time.perf_counter()
    res = subprocess.run([sys.executable, "-m", "quadcf.cli", *argv], env=_cli_env(),
                         capture_output=True, text=True, timeout=60)
    assert time.perf_counter() - start < 2
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.startswith(f"error: cannot write {bad.format(tmp=tmp_path)}: ")
    assert list(tmp_path.iterdir()) == []  # no file made


def test_summary_into_the_table_file_is_refused_through_a_link(tmp_path, capsys):
    table, link = tmp_path / "table.csv", tmp_path / "link.csv"
    table.write_text("kept\n")
    os.link(table, link)  # two names of one file: only samefile tells
    assert run(["artin", "--bound", "30", "--output", str(table), "--summary", str(link)]) == 2
    assert capsys.readouterr().err == f"error: cannot write {link}: the table is written there too\n"
    assert table.read_text() == "kept\n"
    # a summary on stderr leaves the table file alone
    assert run(["artin", "--bound", "30", "--output", str(table), "--summary", "-"]) == 0
    assert table.read_text().startswith("N,ord,exponent,split_type,is_max\n")
    assert capsys.readouterr().err.startswith("density ord>=N^0.7: ")


@pytest.mark.parametrize("argv", [
    ["expand", "--d", "2", "--convergents", "10000"],  # many prints
    ["artin", "--d", "5", "--bound", "5000", "--sequence", "integers"],  # one table of 190 kB
    ["artin", "--d", "5", "--bound", "5000", "--sequence", "integers", "--format", "json"],
])
def test_exit_code_2_when_stdout_closes_early(argv):
    with subprocess.Popen([sys.executable, "-m", "quadcf.cli", *argv], env=_cli_env(),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        try:
            assert len(proc.stdout.read(10)) == 10
            proc.stdout.close()  # the reader goes away while the output is far from written
            err = proc.communicate(timeout=60)[1].decode()
        finally:
            proc.kill()
    assert proc.returncode == 2
    assert "Traceback" not in err
    assert err == "error: standard output closed early\n"


def test_cli_import_leaves_dataclasses_and_inspect_out():
    # json and statistics load only where --format json and --summary use them
    code = ("import sys, quadcf.cli; "
            "print(sorted({'dataclasses', 'inspect', 'json', 'statistics'} & set(sys.modules)))")
    res = subprocess.run([sys.executable, "-c", code], env=_cli_env(),
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


# sha256 of small tables, recorded before the scans shared one runner
PINNED_TABLES = {
    "converge --bound 30 --patterns 1;2;1,1":
        "1ab5276d3f755489993b8e784e782a9cee25293021f94c3b4edf526cdaee5491",
    "converge --bound 30 --patterns 1;2;1,1 --format json":
        "37119eddfc19ba38d463f773e9b45cd6945bfbdae839296af0997e80064e6096",
    "artin --d 5 --sequence integers --bound 200":
        "f80cad9d54fd0b59303ae185e4e5160c4f0e26819ef9fe3198365eca375e2bb1",
    "duke --min 5 --max 300 --fundamental-only":
        "a444d8c85d07a50016aadcaa493c1f5d9b1e45935ed914724cd3d8d08a7531eb",
    "artin --d 5 --sequence integers --bound 200 --format json":
        "281f63b903398037417fd158cd364a0d486865c5689e35cef14698f50aef2463",
    "duke --min 5 --max 300 --fundamental-only --format json":
        "5f6e3638f98aee806b664202b55b05809865ad1003db2bef4952baec11f41191",
    # every discriminant: f > 1 orders, imprimitive forms, regD * unit_group_index
    "duke --min 5 --max 300":
        "5ca7fed70d270a94ade731a577475fff3d39561c2cb2b416b3f0e1252ae4bcaa",
    "duke --min 5 --max 300 --format json":
        "c030efdde25194459499fbaa89d5660ef4036be2bdc8c6c4c94425f0f496b749",
    # N = 2 has period (1, 4): the 5-digit pattern spans three copies
    "converge --bound 200 --sequence integers --patterns 1;2;1,1;1,4,1,4,1":
        "06f254a3111297f821759b1e49cf99388baae6d02d9cbb7ef8741aa3ff124271",
    # bases other than a pure root: N*(1+sqrt(5))/2 and N*(1+sqrt(7))/3
    "converge --p 1 --d 5 --q 2 --bound 300":
        "c9e311a99ab35726661e42850249815b9ab180f93122f204e5cdbbcf87b60fcc",
    "converge --p 1 --d 7 --q 3 --bound 300":
        "16801d69d8647f0bc223d29d2e8882935d98b9edabe3fc8e5f3a5880b263a7e3",
}


@pytest.mark.parametrize("command", sorted(PINNED_TABLES))
def test_small_tables_match_pinned_hashes(command, tmp_path):
    out = tmp_path / "table"
    assert run(command.split() + ["--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED_TABLES[command]


# sha256 of every command the benchmark runs (bench/golden.json, read only)
BENCH_PINS = json.loads((Path(SRC).parent / "bench" / "golden.json").read_text())


@pytest.mark.parametrize("command", sorted(BENCH_PINS))
def test_bench_tables_match_their_golden_pins(command, tmp_path):
    # converge and artin at one and two workers, and at every usable CPU
    # where there are more; duke takes no --workers
    argv = command.split(" ")
    cpus = experiments._usable_cpus()
    for workers in ([None] if argv[0] == "duke" else ["1", "2"] + [str(cpus)] * (cpus > 2)):
        out = tmp_path / f"table-{workers}"
        extra = [] if workers is None else ["--workers", workers]
        assert run(argv + extra + ["--output", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == BENCH_PINS[command], workers


def _cli_process(argv, **kwargs) -> subprocess.CompletedProcess:
    # stdout buffered, as by default, so output left unflushed at exit is lost
    env = _cli_env()
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run([sys.executable, "-m", "quadcf.cli", *argv], env=env,
                          timeout=60, **kwargs)


@pytest.mark.parametrize("command", sorted(PINNED_TABLES))
def test_small_tables_match_pinned_hashes_through_the_process_exit(command):
    # stdout on a pipe: the bytes must all be flushed before the process leaves
    res = _cli_process(command.split(), capture_output=True)
    assert res.returncode == 0, res.stderr
    assert hashlib.sha256(res.stdout).hexdigest() == PINNED_TABLES[command]


def test_artin_summary_through_the_process_exit():
    res = _cli_process(ARTIN_SUMMARY_ARGV, capture_output=True, text=True)
    assert res.returncode == 0
    assert res.stderr == ARTIN_SUMMARY


def test_console_script_runs_what_the_main_block_runs():
    tomllib = pytest.importorskip("tomllib")
    with open(Path(SRC).parent / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    tree = ast.parse(Path(cli.__file__).read_text())
    (block,) = [node for node in tree.body if isinstance(node, ast.If)
                and ast.unparse(node.test) == "__name__ == '__main__'"]
    (stmt,) = block.body
    entry = stmt.value.func.id
    assert ast.unparse(stmt) == f"{entry}()"
    assert scripts == {"quadcf": f"quadcf.cli:{entry}"}


def test_entry_skips_teardown_but_not_a_traceback():
    register = "import atexit, sys, quadcf.cli as cli; atexit.register(print, 'teardown ran'); "
    res = subprocess.run(
        [sys.executable, "-c", register + "sys.argv[1:] = ['expand', '--d', '2']; cli.run()"],
        env=_cli_env(), capture_output=True, text=True, timeout=60)
    assert (res.returncode, res.stdout) == (0, "preperiod: 1\nperiod: 2\nperiod_length: 1\n")
    res = subprocess.run(
        [sys.executable, "-c", register + "cli.main = lambda: 1 // 0; cli.run()"],
        env=_cli_env(), capture_output=True, text=True, timeout=60)
    assert res.returncode == 1
    assert res.stdout == "teardown ran\n"
    assert "Traceback" in res.stderr and "ZeroDivisionError" in res.stderr


needs_dev_full = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")


@needs_dev_full
@pytest.mark.parametrize("argv", [["artin", "--bound", "10"], ["expand", "--d", "2"]])
def test_exit_code_2_when_stdout_is_full(argv):
    with open("/dev/full", "w") as full:
        res = _cli_process(argv, stdout=full, stderr=subprocess.PIPE, text=True)
    assert res.returncode == 2
    assert res.stderr == f"error: cannot write standard output: {os.strerror(errno.ENOSPC)}\n"


@needs_dev_full
def test_failed_flush_at_exit_exits_120():
    # argparse ignores a failed write of --help, so the help still buffered
    # fails at the last flush, with the status the interpreter's exit gives
    with open("/dev/full", "w") as full:
        res = _cli_process(["--help"], stdout=full, stderr=subprocess.PIPE)
    assert res.returncode == 120


def test_closed_stdout_fails_only_a_command_that_writes_to_it(tmp_path, capsys):
    res = _cli_process(["expand", "--d", "2"], preexec_fn=lambda: os.close(1),
                       stderr=subprocess.PIPE, text=True)
    assert (res.returncode, res.stderr) == (2, "error: standard output is closed\n")
    out = tmp_path / "f.csv"
    res = _cli_process(["artin", "--bound", "6", "--output", str(out)], preexec_fn=lambda: os.close(1),
                       stderr=subprocess.PIPE, text=True)
    assert (res.returncode, res.stderr) == (0, "")
    assert run(["artin", "--bound", "6"]) == 0
    assert out.read_text() == capsys.readouterr().out


def test_closed_stderr_never_sends_the_summary_to_stdout(capsys):
    res = _cli_process(["artin", "--bound", "6", "--summary", "-"], preexec_fn=lambda: os.close(2),
                       stdout=subprocess.PIPE, text=True)
    assert res.returncode == 2  # the summary has nowhere to go
    assert run(["artin", "--bound", "6"]) == 0
    assert res.stdout == capsys.readouterr().out


# ---- the exit-code contract over seeded argv ----

_INTS = ("0", "1", "-1", "2", "3", "5", "7", "13", "4", "9", "144", "-4", str(2**63), str(10**30))
_MALFORMED = ("", "x", "1.5", "1e3", "0x10", "--", "+-3", "\u0663\u0663")
_PATTERNS = (
    "1", "1;2;1,1", "2,1", "3;1,2", " 2 , 1 ", "1;2;", str(2**32), str(2**63) + ";1",
    ",".join("1" * 70), ",".join(map(str, range(1, 71))),  # over the 64-digit cap
    "0", "-1", "1,,2", ";", "1;x", "1.0",
)
_SCAN = ("--sequence", "--bound", "--coprime-filter", "--workers")
_OUTPUT = ("--output", "--format", "--summary", "--config")
_FLAGS = {
    "expand": ("--p", "--r", "--d", "--q", "--convergents"),
    "converge": ("--p", "--r", "--d", "--q", "--patterns") + _SCAN + _OUTPUT,
    "artin": ("--d",) + _SCAN + _OUTPUT,
    "duke": ("--min", "--max", "--fundamental-only") + _OUTPUT,
    "unit": ("--d", "--conductor"),
    "classno": ("--disc",),
}
_CONFIG_LINES = (
    "bound = 9", "bound = x", "patterns = 1;1,2", "sequence = odds", "workers = 2",
    "fundamental_only = maybe", "min = 7", "max = 60", "nonsense = 1", "no equals sign",
)


def _draw_value(rng: random.Random, flag: str, tmp_path) -> list[str]:
    if flag == "--fundamental-only":
        return []
    if flag == "--summary":
        return rng.choice(([], ["-"], [str(tmp_path / "summary.txt")], [str(tmp_path)]))
    if flag == "--output":
        return [rng.choice((str(tmp_path / "t.out"), str(tmp_path), str(tmp_path / "no" / "t")))]
    if flag == "--config":
        cfg = tmp_path / "scan.cfg"
        cfg.write_text("\n".join(rng.sample(_CONFIG_LINES, rng.randint(0, 3))) + "\n")
        return [rng.choice((str(cfg), str(cfg), str(tmp_path / "missing.cfg")))]
    if flag == "--patterns":
        return [rng.choice(_PATTERNS)]
    if flag == "--sequence":
        return [rng.choice(("integers", "primes", "odds", ""))]
    if flag == "--format":
        return [rng.choice(("csv", "json", "xml", ""))]
    roll = rng.random()
    if roll < 0.1:
        return [rng.choice(_MALFORMED)]
    if flag in ("--bound", "--min", "--max", "--disc") and roll < 0.7:
        return [str(rng.randint(-2, 60))]  # small: no draw is a legal long scan
    return [rng.choice(_INTS)]


def _draw_argv(rng: random.Random, tmp_path) -> list[str]:
    if rng.random() < 0.03:
        return rng.choice(([], ["nonsense"], ["expand", "--bogus", "1"], ["duke", "--workers", "2"]))
    command = rng.choice(sorted(_FLAGS))
    argv = [command]
    flags = _FLAGS[command]
    for flag in rng.sample(flags, rng.randint(0, min(5, len(flags)))):
        argv += [flag, *_draw_value(rng, flag, tmp_path)]
    if command in ("converge", "artin") and "--bound" not in argv:
        argv += ["--bound", str(rng.randint(2, 40))]  # small bounds keep every scan short
    required = {"unit": "--d", "classno": "--disc"}.get(command)
    if required and required not in argv and rng.random() < 0.9:
        argv += [required, *_draw_value(rng, required, tmp_path)]
    return argv


class _DrawTimedOut(Exception):
    pass


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs SIGALRM")
def test_seeded_argv_keep_the_exit_code_contract(tmp_path, capsys):
    # exit 0, or exit 2 with nothing on stdout and one error line on stderr,
    # or exit 3; never a traceback, and every draw within the alarm
    def timed_out(signum, frame):
        raise _DrawTimedOut

    rng = random.Random(16)
    previous = signal.signal(signal.SIGALRM, timed_out)
    try:
        for _ in range(300):
            argv = _draw_argv(rng, tmp_path)
            signal.setitimer(signal.ITIMER_REAL, 3.0)
            try:
                code = run(argv)
            except _DrawTimedOut:
                pytest.fail(f"{argv}: still running after 3 s")
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            cap = capsys.readouterr()
            assert code in (0, 2, 3), argv
            assert "Traceback" not in cap.out + cap.err, argv
            if code == 2:
                assert cap.out == "", argv
                errors = [line for line in cap.err.splitlines() if "error:" in line]
                assert len(errors) == 1, (argv, cap.err)
                if not cap.err.startswith("usage:"):  # argparse's own lines lead with usage
                    assert cap.err.startswith("error: ") and cap.err.count("\n") == 1, argv
            if code == 3:
                assert cap.err.startswith("internal invariant violated: "), argv
    finally:
        signal.signal(signal.SIGALRM, previous)
