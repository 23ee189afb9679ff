"""Command-line surface: products, rank certificates, dependence checks,
inverse pairs, nullity, and the invariant suites.

All results are emitted as JSON with sorted keys, so identical inputs
and seeds produce byte-identical output.  Exit codes: 0 success,
2 parse/domain error, 3 conformability error, 4 budget exceeded,
5 verification failed (internal), 6 no invertible completion.
"""

from __future__ import annotations

import argparse
import cmath
import itertools
import json
import sys
from fractions import Fraction

import numpy as np

from .core import Hypermatrix, Matrix
from .dependence import (
    DiagonalWitness,
    combination_residual,
    find_dependence,
)
from .errors import (
    BMAlgError,
    BudgetExceededError,
    CompletionError,
    ConformabilityError,
    FactorabilityError,
    ShapeError,
)
from .inverse import (
    HyperPair,
    pair_invertible,
    recover_outer_inverse,
    sandwich_check,
    unit_probe_basis,
)
from .nullity import first_nonzero_slice, nullity
from .products import bm_product, general_bm_product
from .scalars import DEFAULT_COMPLEX_TOL, ScalarDomain
from .rank import (
    bm_rank_exhaustive,
    generic_rank_pipeline,
    orient_depth_min,
    rank_upper_min,
    two_slice_witness,
)
from .verify import run_suite

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_CONFORMABILITY = 3
EXIT_BUDGET = 4
EXIT_VERIFICATION = 5
EXIT_COMPLETION = 6


class CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def _diag(message, kind):
    print(json.dumps({"error": kind, "message": message}, sort_keys=True),
          file=sys.stderr)


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read {path}: {exc}", EXIT_PARSE) from exc


def _parse_domain_flag(spec, tol):
    """Parse --domain values: rational | gf:q | complex."""
    if spec == "rational":
        return ScalarDomain("rational")
    if spec.startswith("gf:"):
        try:
            q = int(spec.split(":", 1)[1])
            return ScalarDomain("gf", q=q)
        except ValueError as exc:
            raise CliError(f"bad --domain value {spec!r}: {exc}", EXIT_PARSE) from exc
    if spec == "complex":
        return ScalarDomain(
            "complex", tol=DEFAULT_COMPLEX_TOL if tol is None else tol
        )
    raise CliError(
        f"bad --domain value {spec!r}; use rational, gf:q or complex", EXIT_PARSE
    )


def _cast_scalar(value, src, dst):
    if dst.kind == "complex":
        return complex(value)
    if src.kind == "complex":
        raise CliError(
            "cannot cast complex entries to an exact domain", EXIT_PARSE
        )
    if src.kind == "gf":
        value = int(value)  # canonical representative in [0, q)
    if dst.kind == "rational":
        return dst.coerce(value)
    # rational or gf source into GF(q'): p * q^{-1} mod q'
    frac = Fraction(value)
    if frac.denominator % dst.q == 0:
        raise CliError(
            f"denominator {frac.denominator} not invertible mod {dst.q}",
            EXIT_PARSE,
        )
    return dst.mul(dst.coerce(frac.numerator), dst.inv(dst.coerce(frac.denominator)))


def _cast(h, args):
    """Apply the --domain / --tol overrides to a parsed (hyper)matrix."""
    domain_flag = getattr(args, "domain", None)
    tol = getattr(args, "tol", None)
    if domain_flag is None:
        if tol is not None and h.domain.kind == "complex":
            return type(h)(h.shape, h.data, ScalarDomain("complex", tol=tol))
        return h
    dst = _parse_domain_flag(domain_flag, tol)
    if dst == h.domain:
        return h
    try:
        data = [_cast_scalar(v, h.domain, dst) for v in h.data]
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(f"cannot cast input to {domain_flag}: {exc}", EXIT_PARSE) from exc
    return type(h)(h.shape, data, dst)


def _load_hyper(path, args=None) -> Hypermatrix:
    obj = _load_json(path)
    try:
        h = Hypermatrix.from_json(obj)
    except (KeyError, IndexError, TypeError, ValueError, ShapeError) as exc:
        raise CliError(f"bad hypermatrix file {path}: {exc}", EXIT_PARSE) from exc
    return h if args is None else _cast(h, args)


def _write(obj, out):
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if out in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def cmd_prod(args):
    legs = [_load_hyper(p, args) for p in (args.a0, args.a1, args.a2)]
    bg = _load_hyper(args.background, args) if args.background else None
    # complex products may overflow; the check below reports it
    with np.errstate(over="ignore", invalid="ignore"):
        result = bm_product(*legs) if bg is None else general_bm_product(*legs, bg)
    if not result.domain.is_exact:
        _, n, p = result.shape
        for idx, v in enumerate(result.data):
            if not cmath.isfinite(v):
                i, jk = divmod(idx, n * p)
                raise OverflowError(
                    f"product entry ({i}, {jk // p}, {jk % p}) is not finite "
                    f"({v}); the inputs overflow complex doubles"
                )
    _write(result.to_json(), args.out)
    return EXIT_OK


def cmd_rank(args):
    a = _load_hyper(args.input, args)
    dom = a.domain
    if args.strategy == "min-bound":
        cert = rank_upper_min(a)
    elif args.strategy == "exhaustive-gf":
        if dom.kind != "gf":
            raise CliError(
                "exhaustive-gf needs a GF(q) input domain", EXIT_PARSE
            )
        cert = bm_rank_exhaustive(a, budget=args.budget)
    elif args.strategy == "generic-pipeline":
        if dom.kind != "complex":
            raise CliError(
                "generic-pipeline is numeric-only; input must use the "
                "complex domain",
                EXIT_PARSE,
            )
        cert = generic_rank_pipeline(
            a,
            tau=args.tau,
            restarts=args.restarts,
            iters=args.iters,
            seed=args.seed,
        )
    else:  # pragma: no cover - argparse restricts choices
        raise CliError(f"unknown strategy {args.strategy}", EXIT_PARSE)
    # re-verify before emitting
    dev = cert.verify(a)
    limit = 0.0 if dom.is_exact else max(dom.tol, 1e-12) * 1e4
    if dev > limit:
        raise CliError(
            f"certificate failed re-verification (deviation {dev:.3e})",
            EXIT_VERIFICATION,
        )
    _write(cert.to_json(), args.out)
    return EXIT_OK


def _family_from_file(path, args):
    obj = _load_json(path)
    try:
        mats = [Matrix.from_json(m) for m in obj["matrices"]]
    except (KeyError, IndexError, TypeError, ValueError, ShapeError) as exc:
        raise CliError(f"bad family file {path}: {exc}", EXIT_PARSE) from exc
    if not mats:
        raise CliError("family file holds no matrices", EXIT_PARSE)
    return [_cast(m, args) for m in mats]


def _two_slice_report(a, dom):
    witness = two_slice_witness(a, 1)
    if witness is None:
        return {"dependent": False, "method": "exact-ratio", "witness": None}
    u, v = witness
    m, n, _ = a.shape
    xs = [list(u), [dom.neg(dom.one())] * m]
    ys = [list(v), [dom.one()] * n]
    w = DiagonalWitness(xs, ys, residual=0.0)
    fam = [a.mat_of_depth(0), a.mat_of_depth(1)]
    if not combination_residual(fam, w).is_zero():
        raise CliError("two-slice witness failed re-verification", EXIT_VERIFICATION)
    return {
        "dependent": True,
        "method": "exact-ratio",
        "subset": [0, 1],
        "witness": w.to_json(dom),
    }


def _dependence_report(dom, witness, **extra):
    """The dependence verdict: exhaustive over GF(q) and the rationals,
    numeric over C, where "not found" is no proof and reads as ``null``."""
    report = {
        "dependent": False if dom.is_exact else None,
        "method": "exhaustive" if dom.is_exact else "numeric",
        "witness": None,
    }
    if witness is not None:
        report.update(dependent=True, witness=witness.to_json(dom), **extra)
    return report


def cmd_dependence(args):
    def search(fam):
        return find_dependence(fam, budget=args.budget)

    if args.family:
        fam = _family_from_file(args.family, args)
        _write(_dependence_report(fam[0].domain, search(fam)), args.out)
        return EXIT_OK
    a = _load_hyper(args.hyper, args)
    dom = a.domain
    m, n, p = a.shape
    size = p if args.subset_size is None else args.subset_size
    if not 1 <= size <= p:
        # no subset of that size exists, so "not dependent" would prove nothing
        raise ShapeError(f"--subset-size {size} outside [1, {p}]")
    if (
        dom.is_exact
        and p == 2
        and size == 2
        and all(not dom.is_zero(v) for v in a.data)
    ):
        _write(_two_slice_report(a, dom), args.out)
        return EXIT_OK
    slices = a.depth_matrices()
    for subset in itertools.combinations(range(p), size):
        witness = search([slices[k] for k in subset])
        if witness is not None:
            _write(_dependence_report(dom, witness, subset=list(subset)), args.out)
            return EXIT_OK
    _write(_dependence_report(dom, None), args.out)
    return EXIT_OK


def cmd_inverse_pair(args):
    obj = _load_json(args.input)
    try:
        pair = HyperPair.from_json(obj)
    except (KeyError, IndexError, TypeError, ValueError, ShapeError) as exc:
        raise CliError(f"bad pair file {args.input}: {exc}", EXIT_PARSE) from exc
    try:
        inverse = recover_outer_inverse(pair)
    except FactorabilityError:
        # the pass is repeated only to name the failing block or slice
        _write(
            {
                "invertible": False,
                "C": None,
                "D": None,
                "diagnostics": pair_invertible(pair).to_json(),
            },
            args.out,
        )
        return EXIT_OK
    m, n, p = pair.dims
    residual = sandwich_check(pair, inverse, unit_probe_basis(m, n, p, pair.domain))
    limit = 0.0 if pair.domain.is_exact else max(pair.domain.tol, 1e-12) * 1e4
    if residual > limit:
        raise CliError(
            f"recovered inverse failed the sandwich check ({residual:.3e})",
            EXIT_VERIFICATION,
        )
    _write(
        {
            "invertible": True,
            "C": inverse.c.to_json(),
            "D": inverse.d.to_json(),
            "diagnostics": {
                "sandwich_residual": residual,
                "gauge": inverse.gauge,
            },
        },
        args.out,
    )
    return EXIT_OK


def cmd_nullity(args):
    a = _load_hyper(args.input, args)
    cert = nullity(
        a, strategy=args.strategy, budget=args.budget, seed=args.seed
    )
    # re-verify the claimed zero slices under the certificate pair
    oriented, _ = orient_depth_min(a)
    bad = first_nonzero_slice(cert.pair.act(oriented), a, cert.zero_set)
    if bad is not None:
        raise CliError(
            f"certificate zero slice {bad} failed re-verification",
            EXIT_VERIFICATION,
        )
    _write(cert.to_json(), args.out)
    return EXIT_OK


def cmd_verify(args):
    try:
        results = run_suite(args.suite, seed=args.seed)
    except KeyError as exc:
        raise CliError(str(exc), EXIT_PARSE) from exc
    ok = True
    for res in results:
        print(json.dumps(res, sort_keys=True))
        ok = ok and res["passed"]
    return EXIT_OK if ok else EXIT_VERIFICATION


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bmalg",
        description="Exact and numeric algebra kernel for third-order "
        "hypermatrices under the ternary (BM) product.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_prod = sub.add_parser("prod", help="ternary product of three hypermatrix files")
    p_prod.add_argument("a0")
    p_prod.add_argument("a1")
    p_prod.add_argument("a2")
    p_prod.add_argument("--background", help="cubic background hypermatrix file")
    p_prod.add_argument("--domain", help="cast inputs: rational | gf:q | complex")
    p_prod.add_argument("--tol", type=float, default=None)
    p_prod.add_argument("--out", default="-")
    p_prod.set_defaults(func=cmd_prod)

    p_rank = sub.add_parser("rank", help="rank certificate for a hypermatrix file")
    p_rank.add_argument("input")
    p_rank.add_argument(
        "--strategy",
        choices=["min-bound", "exhaustive-gf", "generic-pipeline"],
        default="min-bound",
    )
    p_rank.add_argument("--domain", help="cast input: rational | gf:q | complex")
    p_rank.add_argument("--budget", type=int, default=10_000_000)
    p_rank.add_argument("--tau", type=int, default=None)
    p_rank.add_argument("--tol", type=float, default=None)
    p_rank.add_argument("--restarts", type=int, default=50)
    p_rank.add_argument("--iters", type=int, default=500)
    p_rank.add_argument("--seed", type=int, default=0)
    p_rank.add_argument("--out", default="-")
    p_rank.set_defaults(func=cmd_rank)

    p_dep = sub.add_parser(
        "dependence", help="left-right diagonal dependence of a matrix family"
    )
    group = p_dep.add_mutually_exclusive_group(required=True)
    group.add_argument("--family", help="JSON file with a matrix family")
    group.add_argument("--hyper", help="hypermatrix file; its depth slices form the family")
    p_dep.add_argument("--subset-size", type=int, default=None)
    p_dep.add_argument("--domain", help="cast input: rational | gf:q | complex")
    p_dep.add_argument("--tol", type=float, default=None)
    p_dep.add_argument("--budget", type=int, default=10_000_000)
    p_dep.add_argument("--out", default="-")
    p_dep.set_defaults(func=cmd_dependence)

    p_inv = sub.add_parser("inverse-pair", help="recover the outer inverse of a pair")
    p_inv.add_argument("input")
    p_inv.add_argument("--out", default="-")
    p_inv.set_defaults(func=cmd_inverse_pair)

    p_nul = sub.add_parser("nullity", help="nullity certificate for a hypermatrix")
    p_nul.add_argument("input")
    p_nul.add_argument(
        "--strategy", choices=["via-rank", "direct-search"], default="via-rank"
    )
    p_nul.add_argument("--domain", help="cast input: rational | gf:q | complex")
    p_nul.add_argument("--tol", type=float, default=None)
    p_nul.add_argument("--budget", type=int, default=65536)
    p_nul.add_argument("--seed", type=int, default=0)
    p_nul.add_argument("--out", default="-")
    p_nul.set_defaults(func=cmd_nullity)

    p_ver = sub.add_parser("verify", help="run an invariant suite")
    p_ver.add_argument("suite")
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.set_defaults(func=cmd_verify)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        _diag(str(exc), "cli")
        return exc.code
    except ConformabilityError as exc:
        _diag(str(exc), "conformability")
        return EXIT_CONFORMABILITY
    except BudgetExceededError as exc:
        _diag(str(exc), "budget")
        return EXIT_BUDGET
    except CompletionError as exc:
        _diag(str(exc), "completion")
        return EXIT_COMPLETION
    except ZeroDivisionError as exc:
        _diag(str(exc), "degenerate-input")
        return EXIT_PARSE
    except (ShapeError, BMAlgError, ValueError, OverflowError) as exc:
        _diag(str(exc), type(exc).__name__)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
