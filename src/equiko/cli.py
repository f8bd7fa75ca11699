"""Command-line interface.

Commands cover the built-in computations (sl3, gl3, hecke, psl2zp, sl2zp,
cstar), closed forms for arbitrary signatures (fuchsian), user-supplied
Gamma-CW files (complex), and the full regression sweep (verify).  Output is
deterministic: identical invocations produce identical bytes.

Exit codes: 0 success; 1 domain error (composite prime, prime beyond the
proven range 2**64, failed hypothesis, invalid lift); 2 invalid input
(malformed or non-hyperbolic signature, malformed file or one whose
boundaries do not compose to zero, descending or prime-free prime range);
3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from . import arithmetic_k, bredon, cwfile, fuchsian, ko_assembly
from . import verify as verify_mod
from .exactlinalg import ChainComplexError
from .groups import GroupId

BOTT_NOTE = "remaining groups by Bott periodicity"


def _print_doc(args, inputs: dict, groups: dict, text_lines: list[str],
               ambiguous_degrees=(), extra=None) -> int:
    if args.format == "json":
        doc = {
            "command": args.command,
            "inputs": inputs,
            "groups": groups,
            "extension_ambiguous": bool(ambiguous_degrees),
        }
        if ambiguous_degrees:
            doc["ambiguous_degrees"] = sorted(ambiguous_degrees)
        if extra:
            doc.update(extra)
        print(json.dumps(doc, indent=2))
    else:
        print("\n".join(text_lines))
    return 0


def _k_payload(k0, k1) -> tuple[dict, list[str]]:
    groups = {"K0": str(k0), "K1": str(k1)}
    return groups, [f"K0 = {k0}, K1 = {k1}", BOTT_NOTE]


def _ko_payload(gg) -> tuple[dict, list[str]]:
    groups = {f"KO{n}": str(gg.entry(n)) for n in range(8)}
    lines = [
        f"KO{n} = {gg.entry(n)}" + (" (up to extension)" if gg.is_ambiguous(n) else "")
        for n in range(8)
    ]
    return groups, lines + [BOTT_NOTE]


def _assemble(h, stabilisers, ko: bool) -> tuple[dict, list[str]]:
    """K by collapse, or KO once every stabiliser passes the KO hypothesis."""
    if ko:
        ko_assembly.ensure_ko_hypothesis(stabilisers)
        return _ko_payload(ko_assembly.ko_from_bredon(h))
    return _k_payload(*ko_assembly.collapse_complex(h))


# -- commands ----------------------------------------------------------------


def _cmd_sl3_gl3(args) -> int:
    datum = bredon.sl3_datum()
    h, stabilisers = bredon.bredon_homology(datum), datum.stabilisers()
    if args.command == "gl3":
        # GL_3(Z) = SL_3(Z) x Z/2, the Z/2 central and acting trivially.
        h = ko_assembly.kunneth_times_z2(h)
        stabilisers = [GroupId.times_z2(g) for g in stabilisers]
    groups, lines = _assemble(h, stabilisers, args.ko)
    return _print_doc(args, {}, groups, lines)


def _cmd_fuchsian(args) -> int:
    try:
        sig = fuchsian.parse_signature(args.signature)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # An impossible lift stays a domain error (exit 1) on any signature.
    datum = bredon.lifted_fuchsian_datum(sig) if args.lift else None
    if not sig.is_hyperbolic():
        print(f"error: signature {sig} is not hyperbolic: orbifold Euler "
              "characteristic 2-2g-s-sum(1-1/m_j) >= 0", file=sys.stderr)
        return 2
    inputs = {"signature": str(sig), "lift": bool(args.lift)}
    if datum is not None:
        k0, k1 = ko_assembly.collapse_complex(bredon.bredon_homology(datum))
    else:
        k0, k1 = fuchsian.equivariant_k(sig)
    groups, lines = _k_payload(k0, k1)
    return _print_doc(args, inputs, groups, lines)


def _cmd_hecke(args) -> int:
    sig = fuchsian.hecke_signature(args.prime)
    h0, h1 = fuchsian.hecke_bredon(args.prime)
    groups = {"H0": str(h0), "H1": str(h1)}
    lines = [f"signature = {sig}", f"H0 = {h0}", f"H1 = {h1}"]
    return _print_doc(
        args, {"p": args.prime}, groups, lines, extra={"signature": str(sig)}
    )


def _cmd_zp(args) -> int:
    compute = arithmetic_k.psl_zp_k if args.command == "psl2zp" else arithmetic_k.sl_zp_k
    groups, lines = _k_payload(*compute(args.prime))
    return _print_doc(args, {"p": args.prime}, groups, lines)


def _cmd_cstar(args) -> int:
    inputs = {"p": args.prime, "ko": args.ko}
    if args.ko:
        gg = arithmetic_k.cstar_ko_p11(args.prime)
        groups, lines = _ko_payload(gg)
        return _print_doc(
            args, inputs, groups, lines, ambiguous_degrees=gg.extension_ambiguous
        )
    groups, lines = _k_payload(*arithmetic_k.cstar_k_p11(args.prime))
    return _print_doc(args, inputs, groups, lines)


def _cmd_complex(args) -> int:
    try:
        with open(args.file, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    datum = cwfile.parse_cw(text)
    if args.emit:
        print(cwfile.format_cw(datum), end="")
        return 0
    try:
        h = bredon.bredon_homology(datum)
    except ChainComplexError as exc:  # d o d != 0: a malformed file
        print(f"error: {exc}", file=sys.stderr)
        return 2
    groups = {f"H{n}": str(g) for n, g in enumerate(h)}
    lines = [f"name = {datum.name}"]
    lines += [f"H{n} = {g}" for n, g in enumerate(h)]
    parts = []
    if all(g.is_zero() for g in h[3:]):
        parts.append(_assemble(h, datum.stabilisers(), ko=False))
    if args.ko:
        parts.append(_assemble(h, datum.stabilisers(), ko=True))
    for part_groups, part_lines in parts:
        groups.update(part_groups)
        lines += part_lines
    return _print_doc(
        args, {"file": args.file, "ko": args.ko}, groups, lines,
        extra={"name": datum.name},
    )


_PRIMES_RE = re.compile(r"^(\d+)\.\.(\d+)$")


def _cmd_verify(args) -> int:
    m = _PRIMES_RE.match(args.primes)
    if not m:
        print(f"error: --primes expects A..B, got {args.primes!r}", file=sys.stderr)
        return 2
    lo, hi = int(m.group(1)), int(m.group(2))
    if lo > hi:
        print(f"error: --primes expects A <= B, got {args.primes!r}", file=sys.stderr)
        return 2
    if not any(fuchsian.is_prime(p) for p in range(lo, hi + 1)):
        # the prime sweeps would pass with nothing swept
        print(f"error: --primes range {args.primes!r} contains no prime", file=sys.stderr)
        return 2
    results = verify_mod.verify_all(lo, hi)
    passed = all(r.passed for r in results)
    if args.format == "json":
        doc = {
            "command": "verify",
            "inputs": {"primes": args.primes},
            "checks": [
                {"name": r.name, "passed": r.passed, "detail": r.detail}
                for r in results
            ],
            "passed": passed,
        }
        print(json.dumps(doc, indent=2))
    else:
        for r in results:
            print(f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}")
        n_ok = sum(1 for r in results if r.passed)
        print(f"{n_ok}/{len(results)} checks passed")
    return 0 if passed else 3


# -- parser ------------------------------------------------------------------

#: Command-line arguments by key: (flags, add_argument keywords).
_ARGUMENTS = {
    "ko": (("--ko",), {"action": "store_true", "help": "compute KO instead of K"}),
    "prime": (("-p", "--prime"), {"type": int, "required": True, "help": "a prime number"}),
    "signature": (("--signature",), {
        "required": True, "metavar": "[g,s;m1,...]",
        "help": 'signature, e.g. "[0,0;2,3,7]" or "[1,2;]"',
    }),
    "lift": (("--lift",), {
        "action": "store_true",
        "help": "use the central Z/2 extension (s >= 1, periods in {2,3})",
    }),
    "file": (("--file",), {"required": True, "help": "path to a Gamma-CW file"}),
    "also_ko": (("--ko",), {"action": "store_true", "help": "also compute KO (if valid)"}),
    "emit": (("--emit",), {
        "action": "store_true",
        "help": "re-serialize the parsed file and exit (round-trip check)",
    }),
    "primes": (("--primes",), {
        "default": "2..200", "metavar": "A..B",
        "help": "prime range for the sweeps (default 2..200)",
    }),
    "format": (("--format",), {
        "choices": ("text", "json"), "default": "text",
        "help": "output format (default: text)",
    }),
}

#: One subcommand per row: (name, help, handler, argument keys in order).
_COMMANDS = (
    ("sl3", "equivariant K or KO groups for SL_3(Z)", _cmd_sl3_gl3, ("ko",)),
    ("gl3", "equivariant K or KO groups for GL_3(Z)", _cmd_sl3_gl3, ("ko",)),
    ("fuchsian", "equivariant K for a Fuchsian signature", _cmd_fuchsian,
     ("signature", "lift")),
    ("hecke", "signature and Bredon homology of Gamma_0(p)", _cmd_hecke, ("prime",)),
    ("psl2zp", "equivariant K for PSL_2(Z[1/p])", _cmd_zp, ("prime",)),
    ("sl2zp", "equivariant K for SL_2(Z[1/p])", _cmd_zp, ("prime",)),
    ("cstar", "K or KO of the reduced C*-algebra (p = 11 mod 12)", _cmd_cstar,
     ("prime", "ko")),
    ("complex", "Bredon homology of a Gamma-CW file", _cmd_complex,
     ("file", "also_ko", "emit")),
    ("verify", "recompute and check every published value", _cmd_verify, ("primes",)),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="equiko",
        description=(
            "Exact Bredon homology and equivariant K/KO-homology of "
            "classifying spaces for proper actions."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, handler, keys in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        for key in keys + ("format",):
            flags, options = _ARGUMENTS[key]
            p.add_argument(*flags, **options)
        p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except cwfile.CWFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
