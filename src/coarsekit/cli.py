"""Command-line front-end.

Exit codes: 0 on success, 1 on a domain-negative answer (not equivalent,
not large, not homogeneous, failed verification, rejected ordinal), 2 on
usage or format errors.  All output is deterministic for fixed inputs.

The oracle's node budget can be overridden through COARSEKIT_SEARCH_CAP.
A negative --max-shift or --oracle-cap, a COARSEKIT_SEARCH_CAP that is not
a non-negative integer, and an oracle search that runs out of nodes or
exceeds the pair limit all exit 2: they leave the question unanswered.  So
does a reader that closes stdout early (`coarsekit inspect t | head -1`):
the answer was not delivered, and main() exits 2 with no traceback.  An
ordinal answer with a numeral longer than int() prints exits 2 as well.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys

from . import __version__
from .balleans import (
    BALLEAN_ENTRY_LIMIT,
    Tower,
    format_ballean,
    gen_interval,
    gen_product,
    is_large,
    parse_ballean,
    validate,
)
from .classify import (
    HOMOGENEITY_ORACLE_CAP,
    build_equivalence,
    covering_invariants,
    format_certificate,
    is_homogeneous,
    verify_certificate,
)
from .coordinates import coordinatize, format_coordmap, verify_coordinatization
from .multimaps import (
    SearchCapExceeded,
    ShiftFn,
    check_equivalence,
    format_multimap,
    search_cap,
    search_equivalence,
)
from .ordinals import (
    OrdinalSyntaxError,
    cardinal_tail,
    classify_cardinal_ballean,
    cofinality_class,
    is_additively_indecomposable,
    parse_ordinal,
    tail,
)
from .textio import FormatError, is_natural


class DomainFailure(Exception):
    """A well-formed request whose answer is negative."""


class UsageFailure(Exception):
    pass


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise UsageFailure(f"cannot read {path}: {e.strerror}")
    except UnicodeDecodeError as e:
        raise UsageFailure(f"cannot read {path}: not UTF-8 text (byte {e.start})")


def _read_chain(path: str):
    return parse_ballean(_read_text(path))


def _require_tower(chain, path: str) -> Tower:
    if not isinstance(chain, Tower):
        raise DomainFailure(f"{path} is not cellular; this command needs a partition tower")
    return chain


def _check_oracle_options(args) -> None:
    """--max-shift and --oracle-cap, on the commands that take them."""
    for name in ("max_shift", "oracle_cap"):
        value = getattr(args, name, None)
        if value is not None and value < 0:
            raise UsageFailure(f"--{name.replace('_', '-')} must be non-negative, got {value}")


def _oracle(call, *args, **kwargs):
    """Run a call that searches with the oracle.  A malformed budget, or a
    search that runs out of it, leaves the question open: a usage error."""
    try:
        search_cap()
    except ValueError as e:
        raise UsageFailure(str(e))
    try:
        return call(*args, **kwargs)
    except SearchCapExceeded as e:
        raise UsageFailure(str(e))


def _parse_int_csv(text: str, what: str):
    parts = [p for p in text.split(",") if p != ""]
    if not parts or not all(is_natural(p.strip().removeprefix("-")) for p in parts):
        raise UsageFailure(f"expected a comma-separated list of integers for {what}")
    return [int(p) for p in parts]


#: each ordinal op's answer; str() turns any of them into its output line
_ORDINAL_OPS = {
    "eval": lambda gamma: gamma,
    "tail": tail,
    "ctail": cardinal_tail,
    "indec": lambda gamma: "true" if is_additively_indecomposable(gamma) else "false",
    "cf": cofinality_class,
    "classify": classify_cardinal_ballean,
}


def cmd_ordinal(args, out, err):
    try:
        gamma = parse_ordinal(args.expr)
    except OrdinalSyntaxError as e:
        raise UsageFailure(str(e))
    try:
        answer = _ORDINAL_OPS[args.op](gamma)
    except ValueError as e:
        raise DomainFailure(str(e))
    try:
        line = str(answer)
    except ValueError as e:
        # a numeral too long for int() to print: an output limit, not an answer
        raise UsageFailure(f"the answer cannot be printed: {e}")
    print(line, file=out)
    return 0


def cmd_gen(args, out, err):
    if args.kind == "product":
        if len(args.params) != 1:
            raise UsageFailure("usage: gen product 2,3,4")
        sizes = _parse_int_csv(args.params[0], "product sizes")
        if any(s < 1 for s in sizes):
            raise UsageFailure("product sizes must be positive")
    elif args.kind == "cube":
        if len(args.params) != 1 or not is_natural(args.params[0]):
            raise UsageFailure("usage: gen cube K")
        # 2**K points over K + 1 levels: a K past the limit is refused
        # before its list of sizes is built
        if int(args.params[0]) >= BALLEAN_ENTRY_LIMIT:
            raise UsageFailure(f"the cube exceeds the limit of {BALLEAN_ENTRY_LIMIT} label entries")
        sizes = [2] * int(args.params[0])
    else:
        if len(args.params) != 2 or not is_natural(args.params[0]):
            raise UsageFailure("usage: gen interval N r1,r2,...")
        n = int(args.params[0])
        radii = _parse_int_csv(args.params[1], "radii")
    try:
        chain = gen_interval(n, radii) if args.kind == "interval" else gen_product(sizes)
    except ValueError as e:
        raise UsageFailure(str(e))
    out.write(format_ballean(chain))
    return 0


def cmd_inspect(args, out, err):
    chain = _read_chain(args.file)
    rep = validate(chain)
    print(f"points: {chain.n}", file=out)
    print(f"levels: {chain.k}", file=out)
    print(f"valid: {'yes' if rep.valid else 'no'}", file=out)
    for issue in rep.issues:
        print(f"issue: {issue}", file=out)
    if rep.valid:
        ab = " ".join(f"j({i})={j}" for i, j in enumerate(rep.absorption))
        print(f"absorption: {ab}", file=out)
    print(f"cellular: {'yes' if isinstance(chain, Tower) else 'no'}", file=out)
    if isinstance(chain, Tower):
        ci = covering_invariants(chain)
        print("spectrum lo: " + " ".join(map(str, ci.lo)), file=out)
        print("spectrum hi: " + " ".join(map(str, ci.hi)), file=out)
        print(f"uniform: {'yes' if ci.uniform else 'no'}", file=out)
        print("cumulative: " + " ".join(map(str, ci.cumulative)), file=out)
        print("normalized: " + " ".join(map(str, ci.normalized)), file=out)
    if not rep.valid:
        raise DomainFailure("chain is not a valid ballean")
    return 0


def cmd_coordinatize(args, out, err):
    tower = _require_tower(_read_chain(args.file), args.file)
    order = None
    if args.order != "natural":
        order = _parse_int_csv(args.order, "--order")
    base = args.base
    if base is not None and not 0 <= base < tower.n:
        raise UsageFailure(f"--base out of range 0..{tower.n - 1}")
    try:
        cm = coordinatize(tower, base=base, order=order)
    except ValueError as e:
        raise UsageFailure(str(e))
    out.write(format_coordmap(cm))
    rep = verify_coordinatization(cm)
    print(f"truncation law: {'pass' if rep.truncation_ok else 'FAIL'}", file=err)
    print(f"forward coarse: {'pass' if rep.forward_ok else 'FAIL'}", file=err)
    if rep.min_base:
        print(f"exact agreement: {'pass' if rep.exact_ok else 'FAIL'}", file=err)
        print(f"injective: {'yes' if rep.injective else 'no'}", file=err)
        print(f"image sandwich: {'pass' if rep.image_lower_ok and rep.image_upper_ok else 'FAIL'}", file=err)
    print(f"inverse shift: {rep.inverse_shift}", file=err)
    return 0


def cmd_equiv(args, out, err):
    X = _read_chain(args.x_file)
    Y = _read_chain(args.y_file)
    use_oracle = args.oracle
    if not use_oracle and not (isinstance(X, Tower) and isinstance(Y, Tower)):
        print("note: non-cellular input, falling back to the oracle search", file=err)
        use_oracle = True
    if use_oracle:
        shift = args.max_shift if args.max_shift is not None else max(X.k, Y.k)
        phi = _oracle(search_equivalence, X, Y, shift)
        if phi is None:
            raise DomainFailure(f"no coarse equivalence within shift {shift}")
        rep = check_equivalence(phi)
        shifts = (ShiftFn.constant(rep.s, X.k, Y.k), ShiftFn.constant(rep.t, Y.k, X.k))
        out.write(format_multimap(phi, shifts=shifts))
        print(f"verified: pass s={rep.s} t={rep.t}", file=err)
        return 0
    cert = build_equivalence(X, Y, max_shift=args.max_shift)
    if cert is None:
        if X.n != Y.n:
            raise DomainFailure(
                f"not equivalent: point counts differ ({X.n} vs {Y.n}), "
                "so the cumulative spectra cannot match"
            )
        raise DomainFailure("no certificate within the requested shift bound")
    out.write(format_certificate(cert))
    return 0


def cmd_verify(args, out, err):
    res = verify_certificate(_read_text(args.cert_file))
    print(res.reason, file=out)
    if not res.ok:
        raise DomainFailure("certificate verification failed")
    return 0


def cmd_homogeneous(args, out, err):
    tower = _require_tower(_read_chain(args.file), args.file)
    rep = _oracle(is_homogeneous, tower, max_shift=args.max_shift, oracle_cap=args.oracle_cap)
    print(f"shift checked: {rep.shift}", file=out)
    print(f"spectral verdict: {'homogeneous' if rep.spectral else 'not homogeneous'}", file=out)
    if rep.spectral:
        print("regrouping: " + ",".join(map(str, rep.regrouping)), file=out)
        print(f"shift bound: {rep.bound}", file=out)
    if rep.oracle is None:
        print(f"oracle: skipped (more than {args.oracle_cap} points)", file=out)
    else:
        print(f"oracle verdict: {'homogeneous' if rep.oracle else 'not homogeneous'}", file=out)
        if rep.oracle is False:
            print(f"oracle failing pair: {rep.failing_pair[0]} {rep.failing_pair[1]}", file=out)
    if not rep.homogeneous:
        raise DomainFailure("not homogeneous at this shift")
    return 0


def cmd_large(args, out, err):
    chain = _read_chain(args.file)
    pts = _parse_int_csv(args.set, "--set")
    if any(not 0 <= p < chain.n for p in pts):
        raise UsageFailure(f"--set points must lie in 0..{chain.n - 1}")
    level = is_large(chain, pts)
    if level is None:
        print("not large", file=out)
        raise DomainFailure("set is not large at any level")
    print(level, file=out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="coarsekit",
        description="finite cellular ordinal balleans: spectra, certificates, ordinals",
    )
    p.add_argument("--version", action="version", version=f"coarsekit {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("ordinal", help="Cantor-normal-form ordinal computations")
    q.set_defaults(run=cmd_ordinal)
    q.add_argument("op", choices=list(_ORDINAL_OPS))
    q.add_argument("expr")

    q = sub.add_parser("gen", help="emit a tower/chain file on stdout")
    q.set_defaults(run=cmd_gen)
    q.add_argument("kind", choices=["product", "cube", "interval"])
    q.add_argument("params", nargs="+")

    q = sub.add_parser("inspect", help="validation report, spectrum, covering invariants")
    q.set_defaults(run=cmd_inspect)
    q.add_argument("file")

    q = sub.add_parser("coordinatize", help="code table plus verification report")
    q.set_defaults(run=cmd_coordinatize)
    q.add_argument("file")
    q.add_argument("--base", type=int, default=None)
    q.add_argument("--order", default="natural")

    q = sub.add_parser("equiv", help="certificate (constructive) or oracle witness")
    q.set_defaults(run=cmd_equiv)
    q.add_argument("x_file")
    q.add_argument("y_file")
    q.add_argument("--max-shift", type=int, default=None)
    q.add_argument("--oracle", action="store_true")

    q = sub.add_parser("verify", help="re-check a certificate from its body")
    q.set_defaults(run=cmd_verify)
    q.add_argument("cert_file")

    q = sub.add_parser("homogeneous", help="spectral and oracle homogeneity verdicts")
    q.set_defaults(run=cmd_homogeneous)
    q.add_argument("file")
    q.add_argument("--max-shift", type=int, default=None)
    q.add_argument("--oracle-cap", type=int, default=HOMOGENEITY_ORACLE_CAP,
                   help="the most points the oracle searches above shift 0")

    q = sub.add_parser("large", help="least level at which a set is large")
    q.set_defaults(run=cmd_large)
    q.add_argument("file")
    q.add_argument("--set", required=True)
    return p


# parse_args keeps no state on the parser, so one parser serves every run()
_parser = functools.cache(build_parser)


def run(argv, out=None, err=None) -> int:
    """Run one command; every byte goes to out/err (default: sys.stdout/stderr),
    argparse's usage errors, --help and --version included.  Returns the exit code."""
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args = _parser().parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2
    try:
        _check_oracle_options(args)
        return args.run(args, out, err)
    except DomainFailure as e:
        print(f"coarsekit: {e}", file=err)
        return 1
    except (UsageFailure, FormatError) as e:
        print(f"coarsekit: {e}", file=err)
        return 2


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the answer was not delivered; devnull keeps the final flush silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 2
    sys.exit(code)


if __name__ == "__main__":
    main()
