"""The four workloads: their rounds of seeded ops, the timed call of each
op, and the checks of its output.

A workload builds one round of ops at a time from ``random.Random`` seeded
with the workload name, the run seed and the round index, so every run
with one seed makes the same list of ops in the same order.  Each round
holds the same slots, so the mix of op kinds is the same in every run
whatever its length.  No input repeats within a run: every op gets its own
seeded relabelling and new Tower objects, and a repeated labelling is
drawn again, so no per-tower or oracle context cache carries work from one
op to the next.

``run`` is the only timed part of an op and calls coarsekit through its
public names, looked up at call time so that tracing can wrap them.
``check`` runs after the round, untimed, and returns a list of problems.
"""

from __future__ import annotations

import io
import os
import random

import inputs
import refcheck


class Op:
    """One op: its slot in the round, its inputs and what run() returned."""

    def __init__(self, index: int, slot, **fields):
        self.index = index
        self.slot = slot
        self.__dict__.update(fields)
        self.result = None


class Workload:
    name = ""
    slots: tuple = ()
    #: how many times a round runs through the slots
    repeat = 1
    #: whether op times are scaled to the reference host speed (see
    #: worker.calibrate); README.md gives the spreads with and without
    scale_by_host_speed = True

    def __init__(self, ck, seed: int, workdir: str):
        self.ck = ck
        self.seed = seed
        self.workdir = workdir
        self.seen: set = set()

    def rng(self, round_index: int) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{round_index}")

    def fresh(self, key) -> bool:
        """Record an input key; False when it was already used in this run."""
        if key in self.seen:
            return False
        self.seen.add(key)
        return True

    def make_round(self, round_index: int, first_op: int) -> list:
        raise NotImplementedError

    def run(self, op):
        raise NotImplementedError

    def check(self, op) -> list:
        raise NotImplementedError

    def failed(self, result) -> bool:
        """Whether an op that returned still could not do its job."""
        return False

    def end_round(self, ops):
        """Release what a round left behind (files, towers)."""


def _fresh_rows(workload, rows, rng):
    """A seeded relabelling of ``rows`` not used before in this run."""
    while True:
        moved = inputs.relabel(rows, rng)
        if workload.fresh(inputs.rows_key(moved)):
            return moved


# --- certify ------------------------------------------------------------------

def _read_fields(text: str) -> dict:
    fields = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            fields[key] = value
    return fields


def _certificate_pairs(text: str):
    pairs = []
    verified = None
    for line in text.splitlines():
        if line.startswith("pair "):
            _, x, y = line.split()
            pairs.append((int(x), int(y)))
        elif line.startswith("verified: pass "):
            s, t = line[len("verified: pass "):].split()
            verified = (int(s[2:]), int(t[2:]))
    return pairs, verified


class Certify(Workload):
    """The CLI path: inspect X, inspect Y, equiv X Y, verify the result.

    Slots are (X factors, X uneven level, Y factors, Y uneven level,
    tampered).  All towers have 2^8 = 256 points.  An uneven level is
    (below, group size), see inputs.insert_uneven_level: such a tower is
    non-uniform and becomes uniform once that level is merged into its
    neighbours.  A tampered slot also verifies a copy of the certificate
    whose ``verified:`` shifts were raised by one.
    """

    name = "certify"
    # most of an op is numpy work on 256 x 256 matrices, which does not
    # slow in step with the interpreter-bound calibration kernel: scaling
    # widened the spread over ten seeds
    scale_by_host_speed = False
    slots = (
        ((4, 4, 4, 4), None, (2, 8, 16), None, False),
        ((16, 16), (0, 4), (2, 4, 8, 4), None, True),
        ((2, 8, 4, 4), None, (2, 8, 4, 4), None, False),
        ((4, 2, 8, 4), (2, 2), (8, 4, 8), (1, 2), False),
    )

    def make_round(self, round_index, first_op):
        rng = self.rng(round_index)
        ops = []
        for i, slot in enumerate(self.slots):
            xf, xu, yf, yu, tampered = slot
            x_rows = _fresh_rows(self, inputs.tower_rows(xf, xu, rng), rng)
            y_rows = _fresh_rows(self, inputs.tower_rows(yf, yu, rng), rng)
            index = first_op + i
            paths = {
                name: os.path.join(self.workdir, f"op{index}-{name}")
                for name in ("x.ballean", "y.ballean", "cert.txt", "tampered.txt")
            }
            for name, rows in (("x.ballean", x_rows), ("y.ballean", y_rows)):
                with open(paths[name], "w", encoding="utf-8") as fh:
                    fh.write(inputs.tower_text(rows))
            ops.append(Op(index, slot, x_rows=x_rows, y_rows=y_rows, paths=paths,
                          tampered=tampered))
        return ops

    def _cli(self, argv):
        out, err = io.StringIO(), io.StringIO()
        code = self.ck.cli.run(argv, out, err)
        return code, out.getvalue()

    def run(self, op):
        p = op.paths
        got = {
            "inspect_x": self._cli(["inspect", p["x.ballean"]]),
            "inspect_y": self._cli(["inspect", p["y.ballean"]]),
            "equiv": self._cli(["equiv", p["x.ballean"], p["y.ballean"]]),
        }
        with open(p["cert.txt"], "w", encoding="utf-8") as fh:
            fh.write(got["equiv"][1])
        got["verify"] = self._cli(["verify", p["cert.txt"]])
        if op.tampered:
            cert = got["equiv"][1]
            _, verified = _certificate_pairs(cert)
            if verified is not None:
                s, t = verified
                cert = cert.replace(f"verified: pass s={s} t={t}",
                                    f"verified: pass s={s + 1} t={t}")
            with open(p["tampered.txt"], "w", encoding="utf-8") as fh:
                fh.write(cert)
            got["verify_tampered"] = self._cli(["verify", p["tampered.txt"]])
        return got

    def failed(self, result) -> bool:
        # exit code 2 means a command could not do its job at all
        return any(code == 2 for code, _ in result.values())

    def check(self, op):
        problems = []
        got = op.result
        xf, xu, yf, yu, _ = op.slot
        for side, rows, factors, uneven in (("x", op.x_rows, xf, xu), ("y", op.y_rows, yf, yu)):
            code, text = got[f"inspect_{side}"]
            fields = _read_fields(text)
            lo, hi = refcheck.spectrum_bounds(rows)
            cumulative = [1]
            for v in lo:
                cumulative.append(cumulative[-1] * v)
            want = {
                "points": str(len(rows[0])),
                "levels": str(refcheck.depth(rows)),
                "valid": "yes",
                "cellular": "yes",
                "spectrum lo": " ".join(map(str, lo)),
                "spectrum hi": " ".join(map(str, hi)),
                "uniform": "yes" if lo == hi else "no",
                "cumulative": " ".join(map(str, cumulative)),
            }
            if code != 0:
                problems.append(f"inspect {side}: exit {code}")
            for key, value in want.items():
                if fields.get(key) != value:
                    problems.append(f"inspect {side}: {key} is {fields.get(key)!r}, want {value!r}")
            if uneven is None and list(lo) != list(factors):
                problems.append(f"inspect {side}: spectrum {lo} is not the generator's {factors}")
        code, cert = got["equiv"]
        pairs, verified = _certificate_pairs(cert)
        n = len(op.x_rows[0])
        if code != 0 or verified is None:
            return problems + [f"equiv: exit {code}, no certificate"]
        if not refcheck.is_bijection(pairs, n, len(op.y_rows[0])):
            problems.append("equiv: the certificate map is not a bijection")
        else:
            _, _, s, t = refcheck.relation_report(op.x_rows, op.y_rows, pairs)
            if (s, t) != verified:
                problems.append(f"equiv: certificate claims s,t={verified}, reference gives {(s, t)}")
        if (xf, xu) == (yf, yu) and verified != (0, 0):
            problems.append(f"equiv: equal spectra but shifts {verified}")
        code, text = got["verify"]
        if code != 0 or text.strip() != f"pass s={verified[0]} t={verified[1]}":
            problems.append(f"verify: exit {code} {text.strip()!r} on a real certificate")
        if op.tampered and got["verify_tampered"][0] != 1:
            problems.append(f"verify: exit {got['verify_tampered'][0]} on an altered certificate")
        return problems

    def end_round(self, ops):
        for op in ops:
            for path in op.paths.values():
                if os.path.exists(path):
                    os.remove(path)


# --- oracle -------------------------------------------------------------------

class Oracle(Workload):
    """One cold search_equivalence(X, Y, s) per op.

    Slots are (X factors, Y factors, shift) of product towers with n*m from
    256 to 1024.  Each was run (screen.py) on 200 seeded labellings under a
    10^5-node budget, 1% of the default cap, and finished on all of them
    with one answer; pairs whose search time depends strongly on the
    labelling are left out.
    """

    name = "oracle"
    slots = (
        ((2, 2, 2, 2, 2), (2, 16), 0),
        ((16, 2), (2, 2, 2, 2, 2), 0),
        ((2, 4, 4), (4, 8), 1),
        ((16, 2), (2, 2, 8), 0),
        ((2, 2, 8), (8, 4), 2),
        ((2, 4, 4), (2, 16), 2),
        ((8, 2), (4, 8), 2),
        ((4, 6), (2, 12), 2),
        ((2, 2, 2, 2), (8, 2), 1),
        ((4, 4), (8, 2), 1),
        ((2, 2, 2, 2, 2), (16, 2), 0),
    )

    def __init__(self, *args):
        super().__init__(*args)
        self.answers: dict = {}

    def make_round(self, round_index, first_op):
        rng = self.rng(round_index)
        ops = []
        for i, slot in enumerate(self.slots):
            xf, yf, shift = slot
            x_rows = inputs.relabel(inputs.product_rows(xf), rng)
            y_rows = inputs.relabel(inputs.product_rows(yf), rng)
            while not self.fresh((inputs.rows_key(x_rows), inputs.rows_key(y_rows), shift)):
                y_rows = inputs.relabel(y_rows, rng)
            ops.append(Op(first_op + i, slot, x_rows=x_rows, y_rows=y_rows, shift=shift,
                          X=self.ck.Tower(x_rows), Y=self.ck.Tower(y_rows)))
        return ops

    def run(self, op):
        phi = self.ck.search_equivalence(op.X, op.Y, op.shift)
        return None if phi is None else sorted(phi.pairs)

    def check(self, op):
        problems = []
        found = op.result is not None
        key = op.slot
        if self.answers.setdefault(key, found) != found:
            problems.append(f"{key}: answers differ between relabellings")
        if found:
            total, surjective, s, t = refcheck.relation_report(op.x_rows, op.y_rows, op.result)
            if not (total and surjective) or max(s, t) > op.shift:
                problems.append(f"{key}: witness fails the reference check "
                                f"(total={total} surjective={surjective} s={s} t={t})")
        if op.shift == 0 and found != refcheck.shift0_equivalent(op.x_rows, op.y_rows):
            problems.append(f"{key}: answer {found} disagrees with the canonical forms")
        if not found:
            cert = self.ck.build_equivalence(op.X, op.Y)
            if cert is not None:
                _, _, s, t = refcheck.relation_report(op.x_rows, op.y_rows, cert.pairs)
                if max(s, t) <= op.shift:
                    problems.append(f"{key}: no witness, but the construction gives s={s} t={t}")
        return problems

    def end_round(self, ops):
        for op in ops:
            op.X = op.Y = None


# --- homogeneity ----------------------------------------------------------------

class Homogeneity(Workload):
    """One is_homogeneous(T, max_shift=s) per op, oracle on (n <= 24).

    Slots are (factors, uneven level, shift) for towers of 16 to 24
    points; an uneven level is as in Certify.  Each slot was run
    (screen.py) on 100 seeded labellings under a 10^5-node budget and
    finished on all of them.
    """

    name = "homogeneity"
    slots = (
        ((2, 2, 2, 2), None, 0),
        ((4, 4), None, 1),
        ((4, 4), (0, 2), 0),
        ((4, 4), (0, 2), 1),
        ((4, 2, 2), (0, 2), 1),
        ((8, 2), (0, 2), 0),
        ((2, 2, 2, 2), None, 2),
        ((3, 6), None, 1),
        ((2, 3, 3), None, 2),
        ((2, 2, 5), None, 1),
        ((5, 4), None, 1),
        ((6, 4), (0, 3), 0),
        ((2, 12), None, 2),
    )

    def make_round(self, round_index, first_op):
        rng = self.rng(round_index)
        ops = []
        for i, slot in enumerate(self.slots):
            factors, uneven, shift = slot
            rows = _fresh_rows(self, inputs.tower_rows(factors, uneven, rng), rng)
            ops.append(Op(first_op + i, slot, rows=rows, shift=shift, T=self.ck.Tower(rows)))
        return ops

    def run(self, op):
        return self.ck.is_homogeneous(op.T, max_shift=op.shift)

    def check(self, op):
        problems = []
        rep = op.result
        key = op.slot
        spectral = refcheck.spectrally_homogeneous(op.rows, op.shift)
        if rep.spectral != spectral:
            problems.append(f"{key}: spectral verdict {rep.spectral}, brute force {spectral}")
        if rep.spectral and tuple(rep.regrouping) not in refcheck.uniform_regroupings(op.rows, op.shift + 1):
            problems.append(f"{key}: regrouping {rep.regrouping} is not a uniform width-bounded one")
        if rep.oracle is None:
            problems.append(f"{key}: the oracle was skipped")
        elif op.shift == 0 and rep.oracle != rep.spectral:
            problems.append(f"{key}: at shift 0 the oracle says {rep.oracle}, spectra say {rep.spectral}")
        elif rep.spectral and not rep.oracle:
            problems.append(f"{key}: spectrally homogeneous but the oracle found pair {rep.failing_pair}")
        for maps in (rep.witnesses, rep.translations):
            for (x, y), phi in maps.items():
                if (x, y) not in phi.pairs:
                    problems.append(f"{key}: the map for ({x}, {y}) does not send {x} to {y}")
                    continue
                total, surjective, s, t = refcheck.relation_report(op.rows, op.rows, phi.pairs)
                if not (total and surjective) or max(s, t) > op.shift:
                    problems.append(f"{key}: the map for ({x}, {y}) fails the reference check "
                                    f"(s={s} t={t})")
        return problems

    def end_round(self, ops):
        for op in ops:
            op.T = op.result = None


# --- ordinals -------------------------------------------------------------------

def _model(ordinal):
    """coarsekit's Ordinal as the inputs module's tuple model."""
    return tuple((_model(e), c) for e, c in ordinal.terms)


class Ordinals(Workload):
    """Per op: parse three CNF expressions (exponents nested at most three
    deep), add and multiply them both ways round, format the four results,
    and take tail, cardinal tail and cofinality class of the sum and the
    product, and the ballean class of every w^d input.

    Slots name how the three inputs are drawn: "nat" a natural number,
    "cnf" a general ordinal, "pow" a power w^d.  The ordinals module keeps
    no cache, and the draws come from spaces far larger than the ops of a
    run, so inputs are not kept to rule out repeats: a set of every input
    would make peak memory grow with the number of ops.
    """

    name = "ordinals"
    repeat = 16  # so a round's ops outweigh the collection between rounds
    slots = (
        ("nat", "nat", "nat"),
        ("cnf", "cnf", "cnf"),
        ("cnf", "pow", "cnf"),
        ("pow", "pow", "pow"),
    )

    def _draw(self, kind, rng):
        if kind == "nat":
            return inputs.natural(rng.randint(1, 10 ** 6))
        if kind == "pow":
            return inputs.omega_power(rng, 3)
        return inputs.random_ordinal(rng, rng.randint(1, 3))

    def make_round(self, round_index, first_op):
        rng = self.rng(round_index)
        ops = []
        for i, slot in enumerate(self.slots * self.repeat):
            models = tuple(self._draw(kind, rng) for kind in slot)
            texts = tuple(inputs.ordinal_text(m) for m in models)
            ops.append(Op(first_op + i, slot, models=models, texts=texts))
        return ops

    def run(self, op):
        ck = self.ck
        a, b, c = (ck.parse_ordinal(t) for t in op.texts)
        bc = ck.ord_add(b, c)
        left = ck.ord_add(ck.ord_add(a, b), c)
        right = ck.ord_add(a, bc)
        prod = ck.ord_mul(a, bc)
        dist = ck.ord_add(ck.ord_mul(a, b), ck.ord_mul(a, c))
        results = (left, right, prod, dist)
        texts = tuple(ck.format_ordinal(r) for r in results)
        tails = tuple(
            (ck.tail(g), str(ck.cardinal_tail(g)), str(ck.cofinality_class(g)))
            for g in (left, prod)
        )
        classes = tuple(
            str(ck.classify_cardinal_ballean(x))
            for x, kind in zip((a, b, c), op.slot) if kind == "pow"
        )
        return (a, b, c), results, texts, tails, classes

    def check(self, op):
        ck = self.ck
        problems = []
        parsed, results, texts, tails, classes = op.result
        left, right, prod, dist = results
        for x, model, text in zip(parsed, op.models, op.texts):
            if _model(x) != model:
                problems.append(f"{text!r} parsed to {ck.format_ordinal(x)!r}")
        if left != right:
            problems.append(f"{op.texts}: + is not associative")
        if prod != dist:
            problems.append(f"{op.texts}: * does not distribute over + on the left")
        for value, text in zip(results, texts):
            again = ck.parse_ordinal(text)
            if again != value or ck.format_ordinal(again) != text:
                problems.append(f"{text!r}: format -> parse -> format is not byte-stable")
        if op.slot == ("nat", "nat", "nat"):
            a, b, c = (m[0][1] for m in op.models)
            if left.as_int() != a + b + c or prod.as_int() != a * (b + c):
                problems.append(f"{op.texts}: finite arithmetic is wrong")
        for g, (t, ctail, cof) in zip((left, prod), tails):
            last = g.terms[-1][0]
            if t.terms != ((last, 1),):
                problems.append(f"tail of {ck.format_ordinal(g)!r} is {ck.format_ordinal(t)!r}")
            want_cof = "One" if last.is_zero() else "Omega"
            want_ctail = "1" if last.is_zero() else "aleph0" if _model(last) == inputs.ONE else "aleph1"
            if (ctail, cof) != (want_ctail, want_cof):
                problems.append(f"{ck.format_ordinal(g)!r}: cardinal tail {ctail}, cofinality {cof}")
        powers = [m for m, kind in zip(op.models, op.slot) if kind == "pow"]
        for model, got in zip(powers, classes):
            d = model[0][0]
            successor = bool(d) and d[-1][0] == inputs.ZERO
            want = "CardinalLine" if successor else "MacroCube"
            if got != want:
                problems.append(f"{inputs.ordinal_text(model)!r}: ballean class {got}, want {want}")
        return problems


WORKLOADS = {w.name: w for w in (Certify, Oracle, Homogeneity, Ordinals)}
