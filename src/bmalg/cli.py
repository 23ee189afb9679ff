"""Command-line surface: products, rank certificates, dependence checks,
inverse pairs, nullity, and the invariant suites.

The CLI parses arguments, loads files, calls the library, re-verifies
what it is about to emit, writes JSON and maps errors to exit codes.
Scalar casts (``ScalarDomain.coerce``), domains (the ``scalars``
factories), strategy domain guards and numeric defaults are the
library's; the defaults are read from ``core``, and each command
imports the procedure modules it calls when it runs, so a process
loads only those.  All results are emitted as JSON with sorted keys, so
identical inputs and seeds produce byte-identical output.  Exit codes:
0 success, 2 parse/domain error, 3 conformability error, 4 budget
exceeded (rank, nullity), 5 verification failed (internal), 6 no
invertible completion.
"""

from __future__ import annotations

import argparse
import cmath
import json
import sys

from .core import (DEFAULT_EXHAUSTIVE_COMPLETIONS, DEFAULT_PIPELINE_ITERS,
                   DEFAULT_PIPELINE_RESTARTS, DEFAULT_RANK_BUDGET, Hypermatrix, Matrix)
from .errors import (
    BMAlgError,
    BudgetExceededError,
    CompletionError,
    ConformabilityError,
    ShapeError,
)
from .products import bm_product, general_bm_product
from .scalars import DEFAULT_COMPLEX_TOL, complex_doubles, gf, rational

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


def _decode(path, from_json, what):
    """Build ``from_json`` of a JSON file; unreadable or malformed files exit 2."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read {path}: {exc}", EXIT_PARSE) from exc
    try:
        return from_json(obj)
    except (KeyError, IndexError, TypeError, ValueError, ShapeError) as exc:
        raise CliError(f"bad {what} file {path}: {exc}", EXIT_PARSE) from exc


def _domain_from_flag(spec, tol):
    """Build the --domain value: rational | gf:q | complex."""
    if spec == "rational":
        return rational()
    if spec == "complex":
        return complex_doubles(DEFAULT_COMPLEX_TOL if tol is None else tol)
    if spec.startswith("gf:"):
        try:
            return gf(int(spec[3:]))
        except ValueError as exc:
            raise CliError(f"bad --domain value {spec!r}: {exc}", EXIT_PARSE) from exc
    raise CliError(
        f"bad --domain value {spec!r}; use rational, gf:q or complex", EXIT_PARSE
    )


def _cast(h, args):
    """Apply the --domain / --tol overrides to a parsed (hyper)matrix."""
    src = h.domain
    if args.domain is not None:
        dst = _domain_from_flag(args.domain, args.tol)
    elif args.tol is not None and not src.is_exact:
        dst = complex_doubles(args.tol)
    else:
        return h
    if dst == src:
        return h
    if dst.is_exact and not src.is_exact:
        raise CliError("cannot cast complex entries to an exact domain", EXIT_PARSE)
    try:
        data = [dst.coerce(v) for v in h.data]
    except ValueError as exc:
        raise CliError(f"cannot cast input to {args.domain}: {exc}", EXIT_PARSE) from exc
    return type(h)(h.shape, data, dst)


def _load_hyper(path, args) -> Hypermatrix:
    return _cast(_decode(path, Hypermatrix.from_json, "hypermatrix"), args)


def _check_deviation(deviation, dom, failure):
    """Exit 5 when a re-verified result deviates: exact domains allow
    none, complex ones 1e4 times the tolerance (floored at 1e-12)."""
    if deviation > (0.0 if dom.is_exact else max(dom.tol, 1e-12) * 1e4):
        raise CliError(f"{failure} (deviation {deviation:.3e})", EXIT_VERIFICATION)


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

    result = bm_product(*legs) if bg is None else general_bm_product(*legs, bg)
    # exact products cannot overflow; complex ones may, and are reported
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


# rank --strategy -> rank module call; the library refuses domains it does not cover
RANK_STRATEGIES = {
    "min-bound": lambda rank, a, args: rank.rank_upper_min(a),
    "exhaustive-gf": lambda rank, a, args: rank.bm_rank_exhaustive(a, budget=args.budget),
    "generic-pipeline": lambda rank, a, args: rank.generic_rank_pipeline(
        a, tau=args.tau, restarts=args.restarts, iters=args.iters, seed=args.seed
    ),
}


def cmd_rank(args):
    from . import rank
    a = _load_hyper(args.input, args)
    cert = RANK_STRATEGIES[args.strategy](rank, a, args)
    _check_deviation(cert.verify(a), a.domain, "certificate failed re-verification")
    _write(cert.to_json(), args.out)
    return EXIT_OK


def _family_from_file(path, args):
    mats = _decode(
        path, lambda obj: [Matrix.from_json(m) for m in obj["matrices"]], "family"
    )
    if not mats:
        raise CliError("family file holds no matrices", EXIT_PARSE)
    return [_cast(m, args) for m in mats]


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
    from .dependence import combination_residual, dependent_depth_subset, find_dependence
    if args.family:
        if args.subset_size is not None:
            raise CliError("--subset-size applies to --hyper only", EXIT_PARSE)
        fam = _family_from_file(args.family, args)
        witness, extra = find_dependence(fam), {}
    else:
        a = _load_hyper(args.hyper, args)
        size = a.shape[2] if args.subset_size is None else args.subset_size
        found = dependent_depth_subset(a, size)
        fam, witness, extra = a.depth_matrices(), None, {}
        if found is not None:
            extra = {"subset": list(found.slice_indices)}
            fam, witness = [fam[k] for k in extra["subset"]], found.witness
    dom = fam[0].domain
    # an exact witness must cancel exactly; a numeric one reports its residual
    if witness is not None and dom.is_exact:
        if not combination_residual(fam, witness).is_zero():
            raise CliError("dependence witness failed re-verification", EXIT_VERIFICATION)
    _write(_dependence_report(dom, witness, **extra), args.out)
    return EXIT_OK


def cmd_inverse_pair(args):
    from .inverse import HyperPair, pair_invertible, sandwich_check, unit_probe_basis
    pair = _decode(args.input, HyperPair.from_json, "pair")
    report = pair_invertible(pair)
    if not report:
        _write(
            {"invertible": False, "C": None, "D": None, "diagnostics": report.to_json()},
            args.out,
        )
        return EXIT_OK
    inverse = report.inverse
    residual = sandwich_check(pair, inverse, unit_probe_basis(*pair.dims, pair.domain))
    _check_deviation(residual, pair.domain, "recovered inverse failed the sandwich check")
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
    from .inverse import sandwich_check, unit_probe_basis
    from .nullity import first_nonzero_slice, nullity
    a = _load_hyper(args.input, args)
    cert = nullity(
        a, strategy=args.strategy, budget=args.budget, seed=args.seed
    )
    # re-verify the claimed zero slices on the input as the certificate oriented it
    oriented = a.transpose_times(cert.transposes_applied)
    bad = first_nonzero_slice(cert.pair.act(oriented), a, cert.zero_set)
    if bad is not None:
        raise CliError(
            f"certificate zero slice {bad} failed re-verification",
            EXIT_VERIFICATION,
        )
    probes = unit_probe_basis(*cert.pair.dims, a.domain)
    residual = sandwich_check(cert.pair, cert.outer_inverse, probes)
    _check_deviation(residual, a.domain, "certificate outer inverse failed the sandwich check")
    _write(cert.to_json(), args.out)
    return EXIT_OK


def cmd_verify(args):
    from .verify import run_suite
    try:
        results = run_suite(args.suite, seed=args.seed)
    except KeyError as exc:
        raise CliError(str(exc), EXIT_PARSE) from exc
    for res in results:
        print(json.dumps(res, sort_keys=True))
    return EXIT_OK if all(res["passed"] for res in results) else EXIT_VERIFICATION


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bmalg",
        description="Exact and numeric algebra kernel for third-order "
        "hypermatrices under the ternary (BM) product.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default="-")
    domain = argparse.ArgumentParser(add_help=False)
    domain.add_argument("--domain", help="cast input: rational | gf:q | complex")
    domain.add_argument("--tol", type=float, default=None)
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=0)

    p_prod = sub.add_parser("prod", parents=[domain, out],
                            help="ternary product of three hypermatrix files")
    p_prod.add_argument("a0")
    p_prod.add_argument("a1")
    p_prod.add_argument("a2")
    p_prod.add_argument("--background", help="cubic background hypermatrix file")
    p_prod.set_defaults(func=cmd_prod)

    p_rank = sub.add_parser("rank", parents=[domain, seed, out],
                            help="rank certificate for a hypermatrix file")
    p_rank.add_argument("input")
    p_rank.add_argument("--strategy", choices=list(RANK_STRATEGIES), default="min-bound")
    p_rank.add_argument("--budget", type=int, default=DEFAULT_RANK_BUDGET)
    p_rank.add_argument("--tau", type=int, default=None)
    p_rank.add_argument("--restarts", type=int, default=DEFAULT_PIPELINE_RESTARTS)
    p_rank.add_argument("--iters", type=int, default=DEFAULT_PIPELINE_ITERS)
    p_rank.set_defaults(func=cmd_rank)

    p_dep = sub.add_parser("dependence", parents=[domain, out],
                           help="left-right diagonal dependence of a matrix family")
    group = p_dep.add_mutually_exclusive_group(required=True)
    group.add_argument("--family", help="JSON file with a matrix family")
    group.add_argument("--hyper", help="hypermatrix file; its depth slices form the family")
    p_dep.add_argument("--subset-size", type=int, default=None)
    p_dep.set_defaults(func=cmd_dependence)

    p_inv = sub.add_parser("inverse-pair", parents=[out],
                           help="recover the outer inverse of a pair")
    p_inv.add_argument("input")
    p_inv.set_defaults(func=cmd_inverse_pair)

    p_nul = sub.add_parser("nullity", parents=[domain, seed, out],
                           help="nullity certificate for a hypermatrix")
    p_nul.add_argument("input")
    p_nul.add_argument(
        "--strategy", choices=["via-rank", "direct-search"], default="via-rank"
    )
    p_nul.add_argument("--budget", type=int, default=DEFAULT_EXHAUSTIVE_COMPLETIONS)
    p_nul.set_defaults(func=cmd_nullity)

    p_ver = sub.add_parser("verify", parents=[seed], help="run an invariant suite")
    p_ver.add_argument("suite")
    p_ver.set_defaults(func=cmd_verify)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
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
