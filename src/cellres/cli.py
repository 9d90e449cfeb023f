"""Command-line front end.

Exit codes: 0 success, 2 parse error, 3 precondition violation,
4 cap exceeded, 5 internal verification failure.  Results go to stdout
(text by default, JSON with --format json); warnings go to stderr and
never into the result document.
"""

from __future__ import annotations

import argparse
import functools
import sys

from cellres import ioformats
from cellres.complexes import taylor_complex
from cellres.decompose import (
    _candidate_values,
    associated_primes,
    decompose_brute,
    decompose_minimal,
    decompose_scarf,
    prime_key,
)
from cellres.errors import (
    CapExceededError,
    NotArtinianError,
    ParseError,
    PreconditionError,
    VerificationError,
)
from cellres.ioformats import (
    SCHEMA_VERSION,
    dbar_factors_str,
    dumps,
    ideal_str,
    irreducible_str,
    monomial_str,
)
from cellres.residue import VERDICT_EXACT, duality_check
from cellres.resolution import build_complex, differential, verify_chain
from cellres.scarf import facet_pairs, scarf_complex, star_ideal
from cellres.staircase import ascii_staircase, staircase_data, svg_staircase

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_CAP = 4
EXIT_INTERNAL = 5

# each error kind's exit code and message prefix
_REFUSALS = {
    ParseError: (EXIT_PARSE, "error"),
    PreconditionError: (EXIT_PRECONDITION, "error"),
    CapExceededError: (EXIT_CAP, "error"),
    VerificationError: (EXIT_INTERNAL, "internal verification failure"),
}


def _read_source(path):
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path!r}: {exc.strerror}") from None


def _load_ideal(args):
    M, names, warnings = ioformats.parse_ideal(_read_source(args.ideal))
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    return M, names


def _free_complex(src, M):
    """The free complex over M on the complex src names, exactness decided."""
    if src == "scarf":
        X = scarf_complex(M)
    elif src == "taylor":
        X = taylor_complex(M)
    else:
        X, _ = ioformats.parse_complex(_read_source(src))
    return build_complex(X, M)


def _braced(items):
    return "{" + ",".join(map(str, items)) + "}"


def _faces_line(faces):
    return " ".join(_braced(f.vertices) for f in faces)


def _complex_text(X, title):
    lines = [f"{title}: dim {X.dim}, {len(X.grade(1))} vertices, "
             f"{sum(len(X.grade(k)) for k in range(1, X.num_grades))} nonempty faces"]
    for k in range(1, X.num_grades):
        lines.append(f"  dim {k - 1}: {_faces_line(X.grade(k))}")
    lines.append("facets: " + _faces_line(X.facets()))
    return lines


# Each handler builds only the output that --format asks for: the result
# document under json, the text otherwise.  verify also gives its exit code.

def _cmd_check(args, M, names):
    artinian, generic, strong = M.is_artinian(), M.is_generic(), M.is_strongly_generic()
    if args.format == "json":
        return {"ideal": ioformats.ideal_doc(M, names), "artinian": artinian,
                "generic": generic, "strongly_generic": strong}
    return "\n".join([
        "variables: " + ", ".join(names),
        "generators: " + ", ".join(monomial_str(g.exps, names) for g in M.gens),
        f"artinian: {_yn(artinian)}",
        f"generic: {_yn(generic)}",
        f"strongly generic: {_yn(strong)}",
    ]) + "\n"


def _yn(b):
    return "yes" if b else "no"


def _cmd_scarf(args, M, names):
    if args.ghost_exponent is not None and not args.star:
        raise PreconditionError("--ghost-exponent needs --star")
    if not args.star:
        X = scarf_complex(M)
        if args.format == "json":
            return {"complex": ioformats.complex_doc(X, names)}
        return "\n".join(_complex_text(X, f"scarf complex of {ideal_str(M, names)}")) + "\n"
    gh = star_ideal(M, args.ghost_exponent)
    X = scarf_complex(gh.star)
    pairs = facet_pairs(gh, X)
    if args.format == "json":
        return {
            "complex": ioformats.complex_doc(X, names),
            "ghost_exponent": gh.ghost_exponent,
            "pairs": ioformats.pairs_doc(pairs, names),
        }
    lines = _complex_text(X, f"ghosted scarf complex of {ideal_str(M, names)}")
    lines.append("pairs:")
    for p in pairs:
        lines.append(f"  K={_braced(names[i] for i in sorted(p.K))} tau={_braced(sorted(p.tau))} "
                     f"annihilator={irreducible_str(p.annihilator(), names)}")
    return "\n".join(lines) + "\n"


def _cmd_taylor(args, M, names):
    X = taylor_complex(M)
    if args.format == "json":
        return {"complex": ioformats.complex_doc(X, names)}
    return "\n".join(_complex_text(X, f"taylor complex of {ideal_str(M, names)}")) + "\n"


def _cmd_resolve(args, M, names):
    F = _free_complex(args.complex, M)
    chain_ok = verify_chain(F)
    if args.format == "json":
        return {
            "chain_ok": chain_ok,
            "is_resolution": F.exact,
            "is_minimal": F.minimal,
            "ranks": list(F.ranks),
            "differentials": [
                [{"row": row, "col": col, "sign": sign, "quotient": list(quotient)}
                 for row, col, sign, quotient in differential(F, k)]
                for k in range(1, F.complex.num_grades)
            ],
        }
    lines = [
        f"chain check: {_yn(chain_ok)}",
        f"resolution: {_yn(F.exact)}",
        f"minimal: {_yn(F.minimal)}",
        "ranks: " + ", ".join(map(str, F.ranks)),
    ]
    if F.exact and F.minimal:
        # the ranks of a minimal resolution are its Betti totals
        lines.append("betti ranks: " + ", ".join(map(str, F.ranks)))
    return "\n".join(lines) + "\n"


def _cmd_decompose(args, M, names):
    if args.complex and args.method != "minimal":
        raise PreconditionError("--complex needs --method minimal")
    if args.method == "scarf":
        dec = decompose_scarf(M)
    elif args.method == "minimal":
        if not args.complex:
            raise PreconditionError("--method minimal needs --complex")
        if not M.is_artinian():  # refuse before the costly exactness decision
            raise NotArtinianError("minimal-resolution decomposition needs an Artinian ideal")
        dec = decompose_minimal(_free_complex(args.complex, M))
    else:
        dec = decompose_brute(M)
    if args.format == "json":
        return ioformats.decomposition_doc(dec, names)
    return "\n".join([
        f"method: {dec.method}",
        "components: " + (", ".join(irreducible_str(c, names) for c in dec.components) or "(none)"),
        # decompose_* raises VerificationError rather than return a result failing dec.verify()
        "verified: yes",
    ]) + "\n"


def _cmd_ass(args, M, names):
    primes = sorted(associated_primes(M), key=prime_key)
    pretty = ["(" + ", ".join(names[i] for i in sorted(K)) + ")" for K in primes]
    if args.format == "json":
        return {"associated_primes": [sorted(K) for K in primes], "pretty": pretty}
    return "associated primes: " + ", ".join(pretty) + "\n"


def _cmd_residue(args, M, names):
    src = args.complex
    if src is None:  # the unit ideal has no Scarf complex
        src = "scarf" if M.is_generic() and not M.is_unit() else "taylor"
    _candidate_values(M)  # the current needs a brute-force decomposition: refuse before building F
    report = duality_check(_free_complex(src, M))
    if args.format == "json":
        return {
            "complex_source": src,
            "current": ioformats.residue_doc(report.current, names),
            "duality": ioformats.duality_doc(report, names),
        }
    lines = [f"complex: {src}"]
    for e in report.current.entries:
        lines.append(f"entry K={_braced(names[i] for i in sorted(e.K))} tau={_braced(sorted(e.tau))} "
                     f"{dbar_factors_str(e, names)} ann={irreducible_str(e.annihilator, names)} "
                     f"status={e.status}" + (f" rule={e.rule}" if e.rule else ""))
    lines.append(f"verdict: {report.verdict}")
    lines.append(f"lower: {ideal_str(report.lower, names)}")
    lines.append(f"upper: {ideal_str(report.upper, names)}")
    return "\n".join(lines) + "\n"


def _cmd_staircase(args, M, names):
    if args.format == "svg":
        return svg_staircase(M, names)
    if args.format == "json":
        data = staircase_data(M)
        data["pretty_inner"] = [monomial_str(p, names) for p in data["inner_corners"]]
        data["pretty_outer"] = [monomial_str(p, names) for p in data["outer_corners"]]
        return data
    return ascii_staircase(M, names)


def _cmd_verify(args, M, names):
    checks = []

    def run(name, fn):
        try:
            detail = fn()
            checks.append({"name": name, "passed": True, "detail": detail})
        except CapExceededError as exc:
            # a check stopped by a cap did not run; it neither passed nor failed
            checks.append({"name": name, "passed": None, "skipped": True, "detail": str(exc)})
        except (PreconditionError, VerificationError) as exc:
            checks.append({"name": name, "passed": False, "detail": str(exc)})

    # each built once and shared by the checks; a failed build is retried and fails the same way
    brute = functools.cache(lambda: decompose_brute(M))
    scarf = functools.cache(lambda: _free_complex("scarf", M))

    def check_brute():
        return f"{len(brute().components)} components; intersection and irredundancy verified"

    run("brute-decomposition", check_brute)

    if M.is_generic() and not M.is_unit():  # the unit ideal has no Scarf complex
        # each comparison takes its brute-force reference first, so a run past
        # the candidate cap skips it before any Scarf work
        def check_scarf():
            reference = set(brute().components)
            a = decompose_scarf(M)
            if set(a.components) != reference:
                raise VerificationError("scarf and brute-force decompositions differ")
            return f"{len(a.components)} components agree"
        run("scarf-equals-brute", check_scarf)

        if M.is_artinian():
            def check_minimal():
                reference = set(brute().components)
                dec = decompose_minimal(scarf())
                if set(dec.components) != reference:
                    raise VerificationError("minimal-resolution decomposition differs from brute force")
                return f"{len(dec.components)} components agree"
            run("minimal-equals-brute", check_minimal)

        def check_duality():
            dec = brute()  # before scarf(), so that the candidate cap refuses first
            report = duality_check(scarf(), dec)
            if report.verdict != VERDICT_EXACT:
                raise VerificationError(f"verdict {report.verdict}")
            return "annihilator bounds both equal the ideal"
        run("duality-exact", check_duality)

    def check_taylor():
        if M.num_gens > 10:
            raise CapExceededError(
                f"{M.num_gens} generators exceeds the Taylor check's limit of 10")
        F = _free_complex("taylor", M)
        if not verify_chain(F):
            raise VerificationError("composition of differentials is nonzero")
        if not F.exact:
            raise VerificationError("restricted subcomplex with nonzero homology")
        return "chain condition and exactness verified"
    run("taylor-resolution", check_taylor)

    # a run in which every check was skipped verified nothing, so it does not pass
    ran = [c for c in checks if not c.get("skipped")]
    all_passed = bool(ran) and all(c["passed"] for c in ran)
    code = EXIT_OK if all_passed else EXIT_INTERNAL if ran else EXIT_CAP
    if args.format == "json":
        return {"checks": checks, "all_passed": all_passed}, code
    lines = [("skip " if c.get("skipped") else "ok " if c["passed"] else "FAIL ")
             + f"{c['name']}: {c['detail']}" for c in checks]
    lines.append("all checks passed" if all_passed else
                 "some checks FAILED" if ran else "no check ran: every check was skipped")
    return "\n".join(lines) + "\n", code


def _parser():
    p = argparse.ArgumentParser(
        prog="cellres",
        description="Cellular resolutions of monomial ideals: Scarf complexes, "
                    "irreducible decompositions, and symbolic residue currents.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(name, summary, formats=("text", "json")):
        sp = sub.add_parser(name, help=summary)
        sp.add_argument("ideal", help="ideal file (text or JSON), or '-' for stdin")
        sp.add_argument("--format", choices=formats, default=formats[0])
        return sp

    common("check", "parse an ideal and report basic properties")
    sp = common("scarf", "Scarf complex (optionally of the ghosted ideal)")
    sp.add_argument("--star", action="store_true", help="ghost the ideal and report (K, tau) pairs")
    sp.add_argument("--ghost-exponent", type=int, default=None, metavar="D",
                    help="ghost exponent for --star; default: 1 + the largest exponent")
    common("taylor", "full-simplex complex on the generators")
    sp = common("resolve", "build the free complex and test exactness/minimality")
    sp.add_argument("--complex", required=True, metavar="SRC",
                    help="'scarf', 'taylor', or a complex JSON file")
    sp = common("decompose", "irredundant irreducible decomposition")
    sp.add_argument("--method", choices=("scarf", "minimal", "brute"), default="brute")
    sp.add_argument("--complex", metavar="SRC", help="required for --method minimal")
    common("ass", "associated primes")
    sp = common("residue", "symbolic residue current with classification")
    sp.add_argument("--complex", metavar="SRC", default=None,
                    help="'scarf', 'taylor', or a file; default: scarf if generic, else taylor")
    common("staircase", "staircase diagram (2 variables)", formats=("text", "svg", "json"))
    common("verify", "cross-check decompositions and resolutions")
    return p


_HANDLERS = {
    "check": _cmd_check,
    "scarf": _cmd_scarf,
    "taylor": _cmd_taylor,
    "resolve": _cmd_resolve,
    "decompose": _cmd_decompose,
    "ass": _cmd_ass,
    "residue": _cmd_residue,
    "staircase": _cmd_staircase,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        M, names = _load_ideal(args)
        out = _HANDLERS[args.command](args, M, names)
    except tuple(_REFUSALS) as exc:
        code, prefix = next(v for kind, v in _REFUSALS.items() if isinstance(exc, kind))
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code

    code = EXIT_OK
    if type(out) is tuple:  # verify's output and exit code
        out, code = out
    if args.format == "json":
        payload = {"schema_version": SCHEMA_VERSION, "command": args.command}
        payload.update(out)
        sys.stdout.write(dumps(payload))
    else:
        sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
