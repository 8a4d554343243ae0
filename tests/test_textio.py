"""The shared line grammar: one reader for the four text formats, its line
numbers, its input limits, and property tests over mutated files."""

import io
import os
import pathlib
import random
import tempfile
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coarsekit import (
    FormatError,
    ShiftFn,
    build_equivalence,
    cellular_hull,
    coordinatize,
    format_ballean,
    format_certificate,
    format_coordmap,
    format_multimap,
    gen_interval,
    gen_product,
    is_cellular,
    parse_ballean,
    parse_certificate,
    parse_coordmap,
    parse_multimap,
    verify_certificate,
)
from coarsekit.balleans import BALLEAN_ENTRY_LIMIT, EntourageChain, Tower
from coarsekit.cli import run
from coarsekit.multimaps import MultiMap

from families import random_tower

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "coarsekit"
PROPERTY = settings(derandomize=True, deadline=None, max_examples=60)


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def run_on_text(command, text):
    """cli.run on a file holding text; returns the exit code."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return run([command, path], out=io.StringIO(), err=io.StringIO())


# --- one module owns the grammar ---------------------------------------------------

def test_only_textio_splits_lines_strips_comments_and_tests_naturals():
    for path in SRC.glob("*.py"):
        if path.name == "textio.py":
            continue
        text = path.read_text()
        for needle in ("splitlines(", "isdigit(", 'split("#"', "_meaningful_lines", "_is_natural"):
            assert needle not in text, f"{path.name} uses {needle}"


# --- line numbers -----------------------------------------------------------------

def small_cert_text():
    return format_certificate(build_equivalence(gen_product([2, 2]), gen_product([4])))


def test_certificate_block_errors_name_lines_of_the_whole_file():
    lines = small_cert_text().splitlines()
    j = lines.index("points 4", lines.index("tower Y"))
    lines[j] = "points x"
    with pytest.raises(FormatError) as e:
        parse_certificate("\n".join(lines) + "\n")
    assert e.value.line == j + 1
    assert str(e.value) == f"line {j + 1}: expected 'points N'"


def test_certificate_empty_tower_block_blames_the_next_marker():
    lines = small_cert_text().splitlines()
    x, y = lines.index("tower X"), lines.index("tower Y")
    text = "\n".join(lines[:x + 1] + lines[y:]) + "\n"
    with pytest.raises(FormatError) as e:
        parse_certificate(text)
    assert e.value.line == x + 2
    assert "expected header 'ballean v1'" in str(e.value)


def test_certificate_missing_marker_is_reported_before_block_errors():
    lines = small_cert_text().splitlines()
    lines[lines.index("tower X") + 1] = "garbage"
    lines.remove("multimap v1")
    with pytest.raises(FormatError) as e:
        parse_certificate("\n".join(lines) + "\n")
    assert "missing 'multimap v1' section" in str(e.value)
    assert e.value.line == len(lines)


@pytest.mark.parametrize("junk", ["garbage", "pair 0 0", "tower Y"])
def test_certificate_junk_before_tower_x_is_rejected(tmp_path, junk):
    lines = small_cert_text().splitlines()
    lines.insert(1, junk)
    text = "\n".join(lines) + "\n"
    with pytest.raises(FormatError) as e:
        parse_certificate(text)
    assert e.value.line == 2 and "expected 'tower X'" in str(e.value)
    path = tmp_path / "junk.cert"
    path.write_text(text)
    code, out, err = invoke(["verify", str(path)])
    assert code == 2 and out == "" and err.startswith("coarsekit: line 2: ")


def test_certificate_out_of_range_pair_parses_and_fails_verification(tmp_path):
    text = small_cert_text().replace("pair 0 0", "pair 0 9")
    cert = parse_certificate(text)
    assert (0, 9) in cert.pairs
    assert not verify_certificate(cert).ok
    path = tmp_path / "range.cert"
    path.write_text(text)
    assert invoke(["verify", str(path)])[0] == 1


def test_multimap_out_of_range_pair_names_its_own_line():
    x, y = gen_product([2, 2]), gen_product([4])
    text = "multimap v1\npair 0 99\n" + "".join(f"pair {p} {p}\n" for p in range(4)) + "shift: 0 1 2\n"
    with pytest.raises(FormatError) as e:
        parse_multimap(text, x, y)
    assert str(e.value) == "line 2: target point 99 out of range"
    with pytest.raises(FormatError) as e:
        parse_multimap("multimap v1\npair 0 0\n# note\npair 7 0\n\n", x, y)
    assert str(e.value) == "line 4: source point 7 out of range"


# One input per reader message, with the full text and the line it names.

BALLEAN3 = "ballean v1\npoints 3\nlevels 2\n"
CERT2 = (
    "certificate v1\ntower X\nballean v1\npoints 2\nlevels 1\ntower Y\nballean v1\npoints 2\nlevels 1\n"
    "multimap v1\npair 0 0\npair 1 1\nshift-fwd: 0 1\nshift-bwd: 0 1\nverified: pass s=0 t=0\n"
)
READER_MESSAGES = [
    ("ballean", BALLEAN3 + "# cells\nlevel 1 cells: 0 x | 1 2\n", "line 5: bad point 'x'"),
    ("ballean", BALLEAN3 + "level 1 cells: 0 1 | 1 2\n", "line 4: point 1 listed twice"),
    ("ballean", BALLEAN3 + "level 1 cells: 0 | 1\n\n", "line 4: point 2 missing"),
    ("ballean", BALLEAN3 + "level 1 cells: 0 3 | 1 2\n", "line 4: point 3 out of range 0..2"),
    ("ballean", BALLEAN3 + "level 1 pairs: (0,1) 1,2\n", "line 4: bad pair '1,2'"),
    ("ballean", BALLEAN3 + "level 1 pairs: (2,2)\n", "line 4: diagonal pair (2,2)"),
    ("ballean", BALLEAN3 + "level 1 pairs: (0,3)\n", "line 4: pair (0,3) out of range"),
    ("ballean", "ballean v1\n\npoints 0\nlevels 1\n", "line 3: points must be at least 1"),
    ("ballean", "ballean v1\npoints 2\n# depth\nlevels 0\n", "line 4: levels 0 requires points 1"),
    ("ballean", BALLEAN3 + "level 2 cells: 0 | 1 2\n", "line 4: level index 2 out of range 1..1"),
    ("ballean", BALLEAN3 + "level 1 cells: 0 | 1 2\nlevel 1 cells: 0 1 | 2\n", "line 5: duplicate level 1"),
    ("ballean", "ballean v1\npoints 3\nlevels 3\nlevel 1 cells: 0 | 1 | 2\n# no level 2\n",
     "line 4: missing level 2"),
    ("ballean", BALLEAN3 + "level 1 blocks: 0 | 1 2\n", "line 4: level body must be 'cells:' or 'pairs:'"),
    ("ballean", BALLEAN3 + "level one cells: 0 | 1 2\n",
     "line 4: expected 'level i cells:' or 'level i pairs:'"),
    ("coordmap", "coordmap v1\nbase -1\ncode 0: 0\n", "line 2: expected 'base x'"),
    ("coordmap", "coordmap v1\nbase 0\ncode a: 0\n", "line 3: expected 'code y: v0 v1 ...'"),
    ("coordmap", "coordmap v1\nbase 0\ncode 0: 0\ncode 1: 1\ncode 0: 1\n",
     "line 5: duplicate code line for point 0"),
    ("coordmap", "coordmap v1\nbase 0\ncode 0: 0\ncode 1: -1\n", "line 4: coordinates must be naturals"),
    ("coordmap", "coordmap v1\nbase 0\ncode 0: 0\ncode 2: 1\n", "line 4: code lines must cover points 0..n-1"),
    ("certificate", CERT2.replace("levels 1\ntower Y", "levels 2\nlevel 1 pairs: (0,1) (1,2)\ntower Y")
     .replace("points 2", "points 3", 1), "line 3: certificate towers must be cellular"),
    ("certificate", CERT2.replace("shift-bwd: 0 1", "shift-bwd: 0 x"), "line 14: expected a list of naturals"),
    ("certificate", CERT2.replace("s=0 t=0", "s=0"), "line 15: expected 'verified: pass s=N t=N'"),
    ("certificate", CERT2 + "pair 1 0\n", "line 16: unexpected trailing content"),
    ("multimap", "multimap v1\npair 0 0\npair 1\n", "line 3: expected 'pair x y'"),
    ("multimap", "multimap v1\npair 0 0\nshift: 0 1\npair 1 1\n", "line 4: pair lines must precede shift tables"),
]
READERS = {
    "ballean": parse_ballean,
    "coordmap": parse_coordmap,
    "certificate": parse_certificate,
    "multimap": lambda text: parse_multimap(text, gen_product([2]), gen_product([2])),
}


@pytest.mark.parametrize("fmt, text, message", READER_MESSAGES)
def test_reader_messages_name_their_lines(fmt, text, message):
    with pytest.raises(FormatError) as e:
        READERS[fmt](text)
    assert str(e.value) == message
    assert f"line {e.value.line}: " == message[: message.index(":") + 2]


# --- input limits -----------------------------------------------------------------

def test_huge_points_header_is_a_format_error(tmp_path):
    text = "ballean v1\npoints 99999999999999999999\nlevels 1\n"
    with pytest.raises(FormatError) as e:
        parse_ballean(text)
    assert e.value.line == 2 and str(BALLEAN_ENTRY_LIMIT) in str(e.value)
    path = tmp_path / "huge.ballean"
    path.write_text(text)
    code, out, err = invoke(["inspect", str(path)])
    assert code == 2 and out == "" and err.startswith("coarsekit: line 2: ")


def test_matrix_entries_are_counted_once_a_level_lists_pairs():
    n = 1200  # 1200 * 3 label entries fit, 1200 * 1200 * 3 matrix cells do not
    cells = f"ballean v1\npoints {n}\nlevels 2\nlevel 1 cells: " + " | ".join(map(str, range(n))) + "\n"
    assert isinstance(parse_ballean(cells), Tower)
    with pytest.raises(FormatError) as e:
        parse_ballean(f"ballean v1\npoints {n}\nlevels 2\nlevel 1 pairs: (0,1)\n")
    assert e.value.line == 2 and "matrix entries" in str(e.value)


def test_long_numerals_are_not_naturals():
    with pytest.raises(FormatError) as e:
        parse_ballean("ballean v1\npoints " + "1" * 5000 + "\nlevels 1\n")
    assert e.value.line == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "product", str(BALLEAN_ENTRY_LIMIT // 2 + 1)],
        ["gen", "cube", "18"],
        ["gen", "cube", "99999999999999999999"],
        ["gen", "interval", "1449", "1448"],
    ],
)
def test_gen_just_above_the_limit_exits_2(argv):
    code, out, err = invoke(argv)
    assert code == 2 and out == "" and str(BALLEAN_ENTRY_LIMIT) in err


def test_gen_interval_at_the_limit():
    # 1448 * 1448 * 2 matrix cells, just under the limit
    code, out, _ = invoke(["gen", "interval", "1448", "1447"])
    assert code == 0 and out == "ballean v1\npoints 1448\nlevels 1\n"


def test_library_generators_check_the_limit():
    with pytest.raises(ValueError):
        gen_product([BALLEAN_ENTRY_LIMIT // 2 + 1])
    with pytest.raises(ValueError):
        gen_interval(1449, [1448])


# --- properties -------------------------------------------------------------------

@st.composite
def towers(draw, max_n=8):
    return random_tower(random.Random(draw(st.integers(0, 2**32))), max_n, 5)


@st.composite
def chains(draw):
    """Interval chains and random general chains with a few pairs per level;
    a chain that happens to be cellular is replaced by its tower, which is
    what parsing it gives."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    n = rng.randint(2, 7)
    if rng.random() < 0.5:
        radii = sorted(rng.sample(range(1, n - 1), rng.randint(0, n - 2))) + [n - 1]
        return gen_interval(n, radii)
    levels = [np.eye(n, dtype=bool)]
    for _ in range(rng.randint(0, 3)):
        m = levels[-1].copy()
        for _ in range(rng.randint(1, 3)):
            a, b = rng.sample(range(n), 2)
            m[a, b] = m[b, a] = True
        levels.append(m)
    levels.append(np.ones((n, n), dtype=bool))
    chain = EntourageChain(levels)
    return cellular_hull(chain) if is_cellular(chain) else chain


def certificate_for(rng, t):
    """A certificate between t and a relabelled copy of t."""
    perm = list(range(t.n))
    rng.shuffle(perm)
    other = Tower([[row[perm[x]] for x in range(t.n)] for row in t.labels])
    return build_equivalence(t, other)


@st.composite
def texts(draw):
    """(format, text, source, target) for a valid file of one of the four formats."""
    fmt = draw(st.sampled_from(["ballean", "certificate", "multimap", "coordmap"]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    t = draw(towers())
    if fmt == "ballean":
        chain = draw(chains()) if rng.random() < 0.3 else t
        return fmt, format_ballean(chain), None, None
    if fmt == "certificate":
        return fmt, format_certificate(certificate_for(rng, t)), None, None
    if fmt == "multimap":
        u = draw(towers())
        pairs = {(rng.randrange(t.n), rng.randrange(u.n)) for _ in range(rng.randint(0, 6))}
        shifts = [ShiftFn.constant(rng.randint(0, 2), t.k, u.k)] if rng.random() < 0.5 else []
        return fmt, format_multimap(MultiMap(t, u, pairs), shifts), t, u
    return fmt, format_coordmap(coordinatize(t, base=rng.randrange(t.n))), None, None


def parsed(fmt, text, source, target):
    if fmt == "ballean":
        return parse_ballean(text)
    if fmt == "certificate":
        return parse_certificate(text)
    if fmt == "multimap":
        return parse_multimap(text, source, target)
    return parse_coordmap(text)


def formatted(fmt, obj):
    if fmt == "ballean":
        return format_ballean(obj)
    if fmt == "certificate":
        return format_certificate(obj)
    if fmt == "multimap":
        phi, shifts = obj if isinstance(obj, tuple) else (obj, ())
        return format_multimap(phi, [ShiftFn(s, phi.target.k) for s in shifts])
    base, codes = obj
    return format_coordmap(SimpleNamespace(base=base, codes=codes))


@PROPERTY
@given(texts())
def test_format_parse_format_is_byte_stable(case):
    fmt, text, source, target = case
    assert formatted(fmt, parsed(fmt, text, source, target)) == text


TOKENS = ["0", "1", "2", "7", "64", "-1", "²", "x", "|", ":", "#", "(0,1)", "", "01",
          "99999999999999999999", "1" * 5000]
JUNK = ["", "# note", "garbage", "pair 0 1", "tower X", "tower Y", "multimap v1", "ballean v1",
        "points 3", "levels 2", "level 1 cells: 0 1", "level 1 pairs: (0,1)", "shift: 0 1",
        "shift-fwd: 0", "code 0: 1", "base 0", "transcript: x", "verified: pass s=0 t=0"]


@st.composite
def mutated(draw):
    fmt, text, source, target = draw(texts())
    lines = text.split("\n")
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, max(len(lines) - 1, 0)))
        op = draw(st.sampled_from(["drop", "dup", "swap", "junk", "token", "char", "cut"]))
        if not lines:
            lines = [""]
        if op == "drop":
            del lines[i]
        elif op == "dup":
            lines.insert(i, lines[i])
        elif op == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "junk":
            lines.insert(i, draw(st.sampled_from(JUNK)))
        elif op == "token":
            toks = lines[i].split(" ")
            toks[draw(st.integers(0, len(toks) - 1))] = draw(st.sampled_from(TOKENS))
            lines[i] = " ".join(toks)
        elif op == "char" and lines[i]:
            p = draw(st.integers(0, len(lines[i]) - 1))
            lines[i] = lines[i][:p] + draw(st.sampled_from(["", "\t", "#", "\r", " 1", "¹"])) + lines[i][p + 1:]
        else:
            lines = lines[:i]
    return fmt, "\n".join(lines), source, target


@settings(derandomize=True, deadline=None, max_examples=250)
@given(mutated())
def test_mutated_inputs_exit_0_1_2_or_raise_format_error(case):
    fmt, text, source, target = case
    if fmt == "ballean":
        assert run_on_text("inspect", text) in (0, 1, 2)
    elif fmt == "certificate":
        assert run_on_text("verify", text) in (0, 1, 2)
    else:
        try:
            parsed(fmt, text, source, target)
        except FormatError:
            pass


@PROPERTY
@given(towers(), st.integers(0, 2**32), st.booleans())
def test_tampered_certificates_never_verify(t, seed, drop_pair):
    rng = random.Random(seed)
    if t.n < 2:
        t = gen_product([2, 2])
    lines = format_certificate(certificate_for(rng, t)).splitlines()
    if drop_pair:
        del lines[rng.choice([i for i, line in enumerate(lines) if line.startswith("pair ")])]
    else:
        s, t_ = (int(v[2:]) for v in lines[-1].split()[2:])
        s, t_ = rng.choice([(s + 1, t_), (s, t_ + 1), (s + 1, t_ + 1)] + [(s - 1, t_)] * (s > 0))
        lines[-1] = f"verified: pass s={s} t={t_}"
    assert not verify_certificate("\n".join(lines) + "\n").ok
