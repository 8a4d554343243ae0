import argparse
import hashlib
import io
import os
import random
import subprocess
import sys

import pytest

from coarsekit.balleans import Tower, format_ballean, gen_interval, gen_product, parse_ballean
from coarsekit.classify import format_certificate, build_equivalence
from coarsekit import cli
from coarsekit.cli import run
from coarsekit.coordinates import parse_coordmap
from coarsekit.multimaps import parse_multimap


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# --- ordinal ----------------------------------------------------------------

def test_ordinal_eval():
    code, out, _ = invoke(["ordinal", "eval", "1 + w + w*2"])
    assert code == 0 and out == "w*3\n"


def test_ordinal_classify_macrocube():
    code, out, _ = invoke(["ordinal", "classify", "w^(w)"])
    assert code == 0 and out == "MacroCube\n"


def test_ordinal_classify_line():
    code, out, _ = invoke(["ordinal", "classify", "w^2"])
    assert code == 0 and out == "CardinalLine\n"


def test_ordinal_tail_ctail_cf_indec():
    assert invoke(["ordinal", "tail", "w + 5"])[1] == "1\n"
    assert invoke(["ordinal", "ctail", "w^2 + w"])[1] == "aleph0\n"
    assert invoke(["ordinal", "ctail", "w^(w)"])[1] == "aleph1\n"
    assert invoke(["ordinal", "cf", "w^2"])[1] == "Omega\n"
    assert invoke(["ordinal", "indec", "w*2"])[1] == "false\n"


def test_ordinal_syntax_error_exit_2():
    code, _, err = invoke(["ordinal", "eval", "w^"])
    assert code == 2 and "offset 2" in err


def test_ordinal_non_ascii_digit_exit_2():
    code, out, err = invoke(["ordinal", "eval", "w^\u00b2"])
    assert code == 2 and out == "" and "offset 2" in err


def test_ordinal_domain_error_exit_1():
    code, _, err = invoke(["ordinal", "tail", "0"])
    assert code == 1 and "tail" in err
    code, _, _ = invoke(["ordinal", "classify", "w + 1"])
    assert code == 1


# --- gen / inspect -------------------------------------------------------------

def test_gen_product_round_trip():
    code, out, _ = invoke(["gen", "product", "2,3"])
    assert code == 0
    assert parse_ballean(out) == gen_product([2, 3])


def test_gen_cube():
    code, out, _ = invoke(["gen", "cube", "3"])
    assert code == 0
    assert parse_ballean(out) == gen_product([2, 2, 2])


def test_gen_interval():
    code, out, _ = invoke(["gen", "interval", "8", "1,7"])
    assert code == 0
    assert parse_ballean(out) == gen_interval(8, [1, 7])


def test_gen_bad_usage():
    assert invoke(["gen", "interval", "8", "3,2"])[0] == 2
    assert invoke(["gen", "product", "2,0"])[0] == 2


def test_inspect_tower(tmp_path):
    path = write(tmp_path, "t.ballean", format_ballean(gen_product([2, 2])))
    code, out, _ = invoke(["inspect", path])
    assert code == 0
    assert "valid: yes" in out
    assert "cellular: yes" in out
    assert "spectrum lo: 2 2" in out
    assert "cumulative: 1 2 4" in out


def test_inspect_chain(tmp_path):
    path = write(tmp_path, "c.ballean", format_ballean(gen_interval(8, [1, 7])))
    code, out, _ = invoke(["inspect", path])
    assert code == 0
    assert "cellular: no" in out


def test_inspect_malformed_exit_2(tmp_path):
    path = write(tmp_path, "bad.ballean", "ballean v1\npoints 4\nlevels 2\nlevel 1 cells: 0 1 | 2\n")
    code, _, err = invoke(["inspect", path])
    assert code == 2 and "line 4" in err


@pytest.mark.parametrize(
    "text, line",
    [
        ("ballean v1\npoints \u00b2\nlevels 1\n", 2),
        ("ballean v1\npoints 2\nlevels 2\nlevel 1 cells: 0 | \u00b9\n", 4),
    ],
)
def test_inspect_non_ascii_digit_exit_2(tmp_path, text, line):
    path = tmp_path / "bad.ballean"
    path.write_text(text, encoding="utf-8")
    code, out, err = invoke(["inspect", str(path)])
    assert code == 2 and out == ""
    assert err.startswith(f"coarsekit: line {line}: ")


# --- coordinatize ----------------------------------------------------------------

def test_coordinatize_output(tmp_path):
    path = write(tmp_path, "t.ballean", format_ballean(gen_product([2, 2])))
    code, out, err = invoke(["coordinatize", path])
    assert code == 0
    base, codes = parse_coordmap(out)
    assert base == 0 and len(codes) == 4
    assert "truncation law: pass" in err
    assert "injective: yes" in err


def test_coordinatize_base_flag(tmp_path):
    t = parse_ballean(format_ballean(gen_product([2, 2])))
    path = write(tmp_path, "t.ballean", format_ballean(t))
    code, out, err = invoke(["coordinatize", path, "--base", "2"])
    assert code == 0
    base, _ = parse_coordmap(out)
    assert base == 2
    assert "inverse shift:" in err


def test_coordinatize_custom_order(tmp_path):
    path = write(tmp_path, "t.ballean", format_ballean(gen_product([2, 2])))
    code, out, _ = invoke(["coordinatize", path, "--order", "3,2,1,0"])
    assert code == 0
    base, _ = parse_coordmap(out)
    assert base == 3


# --- equiv / verify ----------------------------------------------------------------

def test_equiv_certificate_path(tmp_path):
    x = write(tmp_path, "x.ballean", format_ballean(gen_product([2, 2, 2, 2])))
    y = write(tmp_path, "y.ballean", format_ballean(gen_product([4, 4])))
    code, out, _ = invoke(["equiv", x, y])
    assert code == 0
    assert out.startswith("certificate v1\n")
    cert_path = write(tmp_path, "c.cert", out)
    vcode, vout, _ = invoke(["verify", cert_path])
    assert vcode == 0 and vout.startswith("pass")


def test_equiv_not_equivalent_exit_1(tmp_path):
    x = write(tmp_path, "x.ballean", format_ballean(gen_product([2, 2])))
    y = write(tmp_path, "y.ballean", format_ballean(gen_product([3, 3])))
    code, _, err = invoke(["equiv", x, y])
    assert code == 1 and "not equivalent" in err


def test_equiv_oracle_mode(tmp_path):
    x = write(tmp_path, "x.ballean", format_ballean(gen_product([2, 2])))
    y = write(tmp_path, "y.ballean", format_ballean(gen_product([4, 1])))
    code, out, err = invoke(["equiv", x, y, "--oracle", "--max-shift", "1"])
    assert code == 0
    phi, shifts = parse_multimap(out, gen_product([2, 2]), gen_product([4, 1]))
    assert phi.is_total() and phi.is_surjective()
    assert len(shifts) == 2 and all(len(t) == 3 for t in shifts)
    assert "verified: pass" in err
    code, _, _ = invoke(["equiv", x, y, "--oracle", "--max-shift", "0"])
    assert code == 1


def test_equiv_chain_falls_back_to_oracle(tmp_path):
    x = write(tmp_path, "x.ballean", format_ballean(gen_interval(4, [1, 3])))
    y = write(tmp_path, "y.ballean", format_ballean(gen_interval(4, [1, 3])))
    code, out, err = invoke(["equiv", x, y, "--max-shift", "0"])
    assert code == 0
    assert out.startswith("multimap v1")
    assert "shift: " in out
    assert "falling back" in err


def test_verify_tampered_exit_1(tmp_path):
    cert = build_equivalence(gen_product([2, 2]), gen_product([4, 1]))
    lines = format_certificate(cert).splitlines()
    drop = next(i for i, l in enumerate(lines) if l.startswith("pair "))
    path = write(tmp_path, "bad.cert", "\n".join(lines[:drop] + lines[drop + 1:]) + "\n")
    code, out, _ = invoke(["verify", path])
    assert code == 1
    assert "total" in out or "surjective" in out


@pytest.mark.parametrize(
    "line, bad, msg",
    [
        ("shift-fwd: 0 1 1", "shift-fwd: 0 1", "forward shift table does not cover the source levels"),
        ("shift-bwd: 0 2", "shift-bwd: 0", "backward shift table does not cover the source levels"),
        ("shift-bwd: 0 2", "shift-bwd: 0 1", "backward coarseness fails: "),
    ],
)
def test_verify_refuses_short_or_lowered_shift_tables(tmp_path, line, bad, msg):
    text = format_certificate(build_equivalence(gen_product([2, 2]), gen_product([4])))
    path = write(tmp_path, "bad.cert", text.replace(f"\n{line}\n", f"\n{bad}\n"))
    code, out, _ = invoke(["verify", path])
    assert code == 1 and msg in out


@pytest.mark.parametrize(
    "line, bad",
    [
        ("pair 0 0", "pair 0 \u00b2"),
        ("shift-fwd: 0 1 1", "shift-fwd: 0 1 \u00b9"),
        ("verified: pass s=0 t=0", "verified: pass s=\u00b2 t=0"),
    ],
)
def test_verify_non_ascii_digit_exit_2(tmp_path, line, bad):
    text = format_certificate(build_equivalence(gen_product([2, 2]), gen_product([4])))
    lines = text.splitlines()
    j = lines.index(line)
    lines[j] = bad
    path = tmp_path / "bad.cert"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, out, err = invoke(["verify", str(path)])
    assert code == 2 and out == ""
    assert err.startswith(f"coarsekit: line {j + 1}: ")


# --- the oracle's options and budget ------------------------------------------

@pytest.mark.parametrize(
    "argv, flag",
    [
        (["equiv", "{t}", "{t}", "--oracle", "--max-shift", "-1"], "--max-shift"),
        (["equiv", "{t}", "{t}", "--max-shift", "-1"], "--max-shift"),
        (["homogeneous", "{t}", "--max-shift", "-1"], "--max-shift"),
        (["homogeneous", "{t}", "--oracle-cap", "-1"], "--oracle-cap"),
    ],
)
def test_negative_oracle_options_exit_2(tmp_path, argv, flag):
    path = write(tmp_path, "t.ballean", format_ballean(gen_product([2, 2])))
    code, out, err = invoke([a.format(t=path) for a in argv])
    assert code == 2 and out == ""
    assert err == f"coarsekit: {flag} must be non-negative, got -1\n"


@pytest.mark.parametrize("command", ["equiv", "homogeneous"])
def test_malformed_search_cap_exit_2(tmp_path, monkeypatch, command):
    path = write(tmp_path, "t.ballean", format_ballean(gen_product([2, 2])))
    argv = ["equiv", path, path, "--oracle"] if command == "equiv" else ["homogeneous", path]
    for bad in ["abc", "-1", "\u00b2", ""]:
        monkeypatch.setenv("COARSEKIT_SEARCH_CAP", bad)
        code, out, err = invoke(argv)
        assert code == 2 and out == ""
        assert err == (
            f"coarsekit: COARSEKIT_SEARCH_CAP must be a non-negative integer, got {bad!r}\n"
        )


def test_homogeneous_search_cap_exceeded_exit_2(tmp_path, monkeypatch):
    path = write(tmp_path, "t.ballean", format_ballean(gen_product([2, 2, 2])))
    monkeypatch.setenv("COARSEKIT_SEARCH_CAP", "1")
    code, out, err = invoke(["homogeneous", path])
    assert code == 2 and out == ""
    assert err == "coarsekit: equivalence search exceeded 1 nodes\n"


def test_equiv_oracle_pair_limit_names_the_pairs(tmp_path):
    x = write(tmp_path, "x.ballean", format_ballean(gen_product([128])))
    y = write(tmp_path, "y.ballean", format_ballean(gen_product([64])))
    code, out, err = invoke(["equiv", x, y, "--oracle"])
    assert code == 2 and out == ""
    assert err == (
        "coarsekit: equivalence search over 128*64 = 8192 pairs exceeds "
        "the limit of 4096 pairs\n"
    )


def test_equiv_oracle_unequal_sizes_at_shift_0_exit_1(tmp_path):
    x = write(tmp_path, "x.ballean", invoke(["gen", "product", "64,2"])[1])
    y = write(tmp_path, "y.ballean", invoke(["gen", "product", "64"])[1])
    code, out, err = invoke(["equiv", x, y, "--oracle", "--max-shift", "0"])
    assert code == 1 and out == ""
    assert err == "coarsekit: no coarse equivalence within shift 0\n"


def test_equiv_oracle_at_shift_0_answers_past_the_pair_limit(tmp_path):
    cube = gen_product([2] * 12)
    perm = list(range(cube.n))
    random.Random(12).shuffle(perm)
    copy = Tower([[row[p] for p in perm] for row in cube.labels])
    x = write(tmp_path, "x.ballean", format_ballean(cube))
    y = write(tmp_path, "y.ballean", format_ballean(copy))
    z = write(tmp_path, "z.ballean", format_ballean(gen_product([4] + [2] * 10)))
    code, out, err = invoke(["equiv", x, y, "--oracle", "--max-shift", "0"])
    assert code == 0 and err == "verified: pass s=0 t=0\n"
    phi, _ = parse_multimap(out, cube, copy)
    assert len(phi.pairs) == cube.n and phi.is_total() and phi.is_surjective()
    code, out, err = invoke(["equiv", x, z, "--oracle", "--max-shift", "0"])
    assert code == 1 and out == ""
    assert err == "coarsekit: no coarse equivalence within shift 0\n"


# --- homogeneous / large -------------------------------------------------------------

def test_homogeneous_uniform(tmp_path):
    path = write(tmp_path, "t.ballean", format_ballean(gen_product([2, 3, 2])))
    code, out, _ = invoke(["homogeneous", path, "--max-shift", "0"])
    assert code == 0
    assert "spectral verdict: homogeneous" in out
    assert "oracle verdict: homogeneous" in out


def test_homogeneous_deep_tower(tmp_path):
    code, text, _ = invoke(["gen", "product", ",".join(["2"] + ["1"] * 14)])
    assert code == 0
    path = write(tmp_path, "t.ballean", text)
    code, out, _ = invoke(["homogeneous", path])
    assert code == 0
    assert "regrouping: " + ",".join(map(str, range(16))) + "\n" in out


def test_homogeneous_negative_exit_1(tmp_path):
    tower_text = "ballean v1\npoints 3\nlevels 2\nlevel 1 cells: 0 | 1 2\n"
    path = write(tmp_path, "t.ballean", tower_text)
    code, out, _ = invoke(["homogeneous", path, "--max-shift", "0"])
    assert code == 1
    assert "spectral verdict: not homogeneous" in out
    assert "oracle failing pair" in out


def test_homogeneous_shift_0_answers_above_the_oracle_cap(tmp_path):
    # pairs on points 0..31, quadruples on 32..63: point 0's class tree
    # path first differs at point 32, and shift 0 needs no search
    cells = [[x, x + 1] for x in range(0, 32, 2)] + [list(range(x, x + 4)) for x in range(32, 64, 4)]
    level = " | ".join(" ".join(map(str, c)) for c in cells)
    path = write(tmp_path, "t.ballean", f"ballean v1\npoints 64\nlevels 2\nlevel 1 cells: {level}\n")
    code, out, _ = invoke(["homogeneous", path, "--max-shift", "0"])
    assert code == 1
    assert out.endswith("oracle verdict: not homogeneous\noracle failing pair: 0 32\n")
    code, out, _ = invoke(["homogeneous", path, "--max-shift", "1"])
    assert "oracle: skipped (more than 24 points)\n" in out


def test_large_verb(tmp_path):
    path = write(tmp_path, "c.ballean", format_ballean(gen_interval(10, [3, 9])))
    code, out, _ = invoke(["large", path, "--set", "0,4,8"])
    assert code == 0 and out == "1\n"
    code, out, _ = invoke(["large", path, "--set", "0"])
    assert code == 0 and out == "2\n"


def test_large_out_of_range(tmp_path):
    path = write(tmp_path, "c.ballean", format_ballean(gen_interval(4, [3])))
    code, _, _ = invoke(["large", path, "--set", "9"])
    assert code == 2


def test_missing_file_exit_2():
    assert invoke(["inspect", "/nonexistent/file"])[0] == 2


def test_argparse_output_goes_to_out_and_err(capsys):
    code, out, err = invoke(["gen", "cube"])
    assert code == 2 and out == ""
    assert err.startswith("usage: coarsekit gen") and "error: " in err
    assert invoke(["--version"]) == (0, "coarsekit 0.1.0\n", "")
    code, out, err = invoke(["--help"])
    assert code == 0 and out.startswith("usage: coarsekit") and err == ""
    assert capsys.readouterr() == ("", "")


def test_reused_parser_keeps_calls_independent(tmp_path, monkeypatch):
    f = write(tmp_path, "f.ballean", format_ballean(_relabelled(gen_product([2, 2, 2]).labels, 7)))
    x = write(tmp_path, "x.ballean", format_ballean(_relabelled(gen_product([2, 2]).labels, 8)))
    y = write(tmp_path, "y.ballean", format_ballean(gen_product([4, 1])))
    commands = [
        ["homogeneous", f, "--max-shift", "1"], ["homogeneous", f],
        ["equiv", x, y, "--oracle", "--max-shift", "0"], ["equiv", x, y],
        ["coordinatize", f, "--base", "17"], ["coordinatize", f],
    ]
    reused = [invoke(argv) for argv in commands]
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    assert reused == [invoke(argv) for argv in commands]


def test_every_parser_is_built_in_the_first_run(monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._parser.cache_clear()
    counts = []
    for k in range(20):
        invoke(["ordinal", "eval", f"w + {k}"] if k % 2 else ["gen", "cube", "--bad"])
        counts.append(len(built))
    # the top-level parser and one per subcommand, all in the first call
    assert counts == [9] * 20


def test_python_m_coarsekit(tmp_path):
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    path = tmp_path / "t.ballean"
    with open(path, "w") as fh:
        gen = subprocess.run([sys.executable, "-m", "coarsekit", "gen", "product", "2,2"],
                             stdout=fh, env=env)
    assert gen.returncode == 0
    res = subprocess.run([sys.executable, "-m", "coarsekit", "inspect", str(path)],
                         capture_output=True, text=True, env=env)
    assert res.returncode == 0 and "points: 4\n" in res.stdout
    res = subprocess.run([sys.executable, "-m", "coarsekit", "gen", "cube"],
                         capture_output=True, text=True, env=env)
    assert res.returncode == 2 and res.stdout == ""
    assert res.stderr.startswith("usage: coarsekit gen")
    res = subprocess.run([sys.executable, "-m", "coarsekit", "--version"],
                         capture_output=True, text=True, env=env)
    assert (res.returncode, res.stdout, res.stderr) == (0, "coarsekit 0.1.0\n", "")


def test_closed_stdout_exits_2_without_traceback(tmp_path):
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    path = write(tmp_path, "t.ballean", format_ballean(gen_product([2] * 6)))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        res = subprocess.run([sys.executable, "-m", "coarsekit", "inspect", path],
                             stdout=write_end, stderr=subprocess.PIPE, text=True, env=env,
                             timeout=120)
    finally:
        os.close(write_end)
    assert res.returncode == 2
    assert "Traceback" not in res.stderr


def test_ordinal_answer_too_long_to_print_exit_2():
    """Each addend converts, the sum has one digit more than int() prints:
    an output limit, so exit 2 with one line, where a refused answer exits 1."""
    nines = "9" * 4300
    code, out, err = invoke(["ordinal", "eval", f"{nines} + {nines}"])
    assert code == 2 and out == ""
    assert err.startswith("coarsekit: the answer cannot be printed: ") and err.count("\n") == 1
    code, out, err = invoke(["ordinal", "tail", f"w^{nines} + w^{nines}"])
    assert (code, out) == (0, f"w^{nines}\n")
    code, out, _ = invoke(["ordinal", "tail", f"w^({nines} + {nines})"])
    assert code == 2 and out == ""


def test_ordinal_nested_too_deep_exit_2():
    code, out, err = invoke(["ordinal", "eval", "w^(" * 2000 + "1" + ")" * 2000])
    assert code == 2 and out == "" and "nested deeper" in err


@pytest.mark.parametrize("command", ["inspect", "verify"])
def test_non_utf8_file_exit_2(tmp_path, command):
    path = tmp_path / "latin1.txt"
    path.write_bytes("ballean v1\n# café\npoints 1\nlevels 0\n".encode("latin-1"))
    code, out, err = invoke([command, str(path)])
    assert code == 2 and out == ""
    assert err == f"coarsekit: cannot read {path}: not UTF-8 text (byte 16)\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "product", "2,--3"],
        ["large", "{t}", "--set=0,--1"],
        ["coordinatize", "{t}", "--order=0,1,2,--3"],
    ],
)
def test_int_list_takes_one_minus_sign_at_most(tmp_path, argv):
    t = write(tmp_path, "t.ballean", format_ballean(gen_product([2, 2])))
    code, out, err = invoke([a.replace("{t}", t) for a in argv])
    assert code == 2 and out == ""
    assert "expected a comma-separated list of integers" in err


def test_coordinatize_deep_tower(tmp_path):
    from families import deep_tower

    path = write(tmp_path, "deep.ballean", format_ballean(deep_tower(1200)))
    code, out, err = invoke(["coordinatize", path])
    assert code == 0
    assert parse_coordmap(out)[0] == 0
    assert "FAIL" not in err and "injective: yes" in err


# --- byte identity --------------------------------------------------------------
#
# One digest over the exit code, stdout and stderr of a fixed command list.
# Refactors keep it; a change that alters any output on purpose records the
# new digest and says why.

CLI_DIGEST = "bfc1694c419725caf834123980202ca1219a35dbe56e028f7723eb33428160f8"


def _relabelled(rows, seed):
    perm = list(range(len(rows[0])))
    random.Random(seed).shuffle(perm)
    return Tower([[row[p] for p in perm] for row in rows])


def _uneven_256():
    """Pairs, then 16 blocks of 4 pairs beside 32 blocks of 2, then quarters."""
    pairs = [x // 2 for x in range(256)]
    blocks = [c // 4 if c < 64 else 16 + (c - 64) // 2 for c in pairs]
    return [list(range(256)), pairs, blocks, [x // 64 for x in range(256)], [0] * 256]


def _digest_commands(ask):
    """Run the fixed command list through ask(argv), which returns
    (code, out, err); certificates made on the way are verified too."""
    for k in range(11):
        ask(["gen", "cube", str(k)])
    for sizes in ("2,3,4", "3,1,5", "64,2", "1"):
        ask(["gen", "product", sizes])
    ask(["gen", "interval", "6", "1,5"])
    files = [
        "x.ballean", "y.ballean", "z.ballean", "w.ballean", "eight.ballean",
        "eight2.ballean", "twelve.ballean", "uneven.ballean", "dense.ballean",
        "interval.ballean", "nonnested.ballean",
    ]
    for f in files:
        ask(["inspect", f])
    for argv in (
        ["x.ballean"], ["y.ballean"], ["z.ballean"], ["y.ballean", "--base", "17"],
        ["x.ballean", "--order", ",".join(map(str, range(255, -1, -1)))],
        ["uneven.ballean", "--order", "5,4,3,2,1,0", "--base", "2"],
        ["twelve.ballean", "--base", "11"], ["dense.ballean"], ["interval.ballean"],
    ):
        ask(["coordinatize", *argv])
    for argv in (
        ["x.ballean"], ["y.ballean"], ["twelve.ballean"], ["twelve.ballean", "--max-shift", "0"],
        ["uneven.ballean"], ["uneven.ballean", "--max-shift", "0"],
        ["eight.ballean", "--max-shift", "1"], ["dense.ballean"], ["interval.ballean"],
    ):
        ask(["homogeneous", *argv])
    certs = []
    for a, b, *more in (
        ("x", "y"), ("y", "x"), ("x", "z"), ("z", "w"), ("y", "w"), ("eight", "eight2"),
        ("eight2", "eight"), ("twelve", "twelve"), ("uneven", "dense"), ("x", "eight"),
        ("x", "y", "--max-shift", "0"), ("y", "z", "--max-shift", "1"),
    ):
        code, out, _ = ask(["equiv", f"{a}.ballean", f"{b}.ballean", *more])
        if code == 0:
            certs.append(out)
    for a, b, *more in (
        ("eight", "eight2"), ("eight2", "eight", "--max-shift", "0"),
        ("uneven", "uneven", "--max-shift", "0"), ("dense", "eight"), ("x", "y"),
    ):
        ask(["equiv", f"{a}.ballean", f"{b}.ballean", "--oracle", *more])
    ask(["equiv", "interval.ballean", "interval.ballean"])
    for i, cert in enumerate(certs):
        with open(f"cert{i}.txt", "w") as fh:
            fh.write(cert)
        ask(["verify", f"cert{i}.txt"])
        head, _, tail = cert.rpartition("verified: pass s=")
        with open(f"raised{i}.txt", "w") as fh:
            fh.write(head + "verified: pass s=" + str(int(tail.split()[0]) + 1) + tail[tail.index(" "):])
        ask(["verify", f"raised{i}.txt"])


def test_cli_outputs_match_recorded_digest(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    towers = {
        "x": _relabelled(gen_product([4, 4, 4, 4]).labels, 1),
        "y": _relabelled(_uneven_256(), 2),
        "z": _relabelled(gen_product([2, 8, 16]).labels, 3),
        "w": _relabelled(gen_product([2] * 8).labels, 4),
        "eight": _relabelled(gen_product([2, 2, 2]).labels, 5),
        "eight2": _relabelled(gen_product([4, 2]).labels, 6),
        "twelve": gen_product([2, 3, 2]),
    }
    for name, t in towers.items():
        (tmp_path / f"{name}.ballean").write_text(format_ballean(t))
    (tmp_path / "uneven.ballean").write_text(
        "ballean v1\npoints 6\nlevels 3\nlevel 1 cells: 0 | 1 2 | 3 4 5\nlevel 2 cells: 0 1 2 | 3 4 5\n"
    )
    (tmp_path / "dense.ballean").write_text("ballean v1\npoints 4\nlevels 2\nlevel 1 pairs: (0,1) (2,3)\n")
    (tmp_path / "interval.ballean").write_text(format_ballean(gen_interval(6, [1, 5])))
    (tmp_path / "nonnested.ballean").write_text(
        "ballean v1\npoints 4\nlevels 3\nlevel 1 cells: 0 1 | 2 3\nlevel 2 cells: 0 2 | 1 3\n"
    )
    h = hashlib.sha256()

    def ask(argv):
        got = invoke(argv)
        h.update(repr((argv, *got)).encode())
        return got

    _digest_commands(ask)
    assert h.hexdigest() == CLI_DIGEST
