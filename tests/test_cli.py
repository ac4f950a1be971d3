import hashlib
import json
import sys
import time

import pytest

from quadcf import experiments
from quadcf.arith import InvariantError
from quadcf.experiments import UsageError
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


def run(argv):
    return cli.main(argv)


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


def test_exit_code_2_on_bad_usage(capsys):
    bad_invocations = [
        ["expand", "--d", "4"],                # square radicand
        ["converge", "--bound", "1"],          # bound too small
        ["converge", "--patterns", "0"],       # digit below 1
        ["converge", "--workers", "0"],
        ["converge", "--sequence", "odds"],    # rejected by argparse
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
    ]:
        assert run(argv) == 2, argv
        assert limit in capsys.readouterr().err, argv


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


def test_exit_code_3_on_internal_invariant(monkeypatch, capsys):
    def boom(cfg):
        raise InvariantError("synthetic failure")

    monkeypatch.setattr(cli, "converge_scan", boom)
    assert run(["converge", "--bound", "4"]) == 3
    assert "synthetic failure" in capsys.readouterr().err


def test_exit_code_3_names_the_failing_n(monkeypatch, capsys):
    real = experiments.pattern_frequency

    def fail_at_n5(e, pat):  # 5*sqrt(2) = [7; 14] is the only period of length 1
        if e.period == (14,):
            raise InvariantError("synthetic failure")
        return real(e, pat)

    monkeypatch.setattr(experiments, "pattern_frequency", fail_at_n5)
    assert run(["converge", "--bound", "8"]) == 3
    assert "N=5: synthetic failure" in capsys.readouterr().err


@pytest.mark.parametrize("argv, path", [
    (["converge", "--output", "/nonexistent/dir/x.csv"], "/nonexistent/dir/x.csv"),
    (["duke", "--summary", "/nonexistent/s.txt"], "/nonexistent/s.txt"),
])
def test_exit_code_2_on_unwritable_output(argv, path, capsys):
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert path in err
    assert "Traceback" not in err


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
}


@pytest.mark.parametrize("command", sorted(PINNED_TABLES))
def test_small_tables_match_pinned_hashes(command, tmp_path):
    out = tmp_path / "table"
    assert run(command.split() + ["--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED_TABLES[command]
