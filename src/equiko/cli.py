"""Command-line interface.

Commands cover the built-in computations (sl3, gl3, hecke, psl2zp, sl2zp,
cstar), closed forms for arbitrary signatures (fuchsian), user-supplied
Gamma-CW files (complex), and the full regression sweep (verify).  Output is
deterministic: identical invocations produce identical bytes.

Exit codes: 0 success; 3 verification failure.  Errors are coded by type
in `main` alone, which prints one `error:` line and nothing on stdout: an
`InputError`, input that cannot be read (a malformed or non-hyperbolic
signature, a bad file or `--primes` range, an integer not in ASCII digits
0-9 or too long for `int`), exits 2; any other ValueError, a domain error
(a composite prime, a prime beyond the proven range 2**64, a failed
hypothesis, an invalid lift), or a MemoryError or OverflowError, a result
too large to build or to index, exits 1.  A `ChainComplexError` (d∘d != 0) is an InputError even
from built-in chain data, where it means a defect.  argparse's usage
errors exit 2 too.  A process run through `run` (the `equiko` script and
`python -m equiko.cli`) that cannot write its output, such as stdout on a
full disk, prints one `error: cannot write output` line and exits 1.
"""

from __future__ import annotations

import argparse
import errno
import os
import re
import sys

from . import arithmetic_k, bredon, cwfile, fuchsian, ko_assembly
from . import verify as verify_mod
from .exactlinalg import InputError, ascii_int

BOTT_NOTE = "remaining groups by Bott periodicity"


def _write_json(doc: dict) -> None:
    import json  # here only: text output never needs it, and it costs each process ~3 ms

    json.dump(doc, sys.stdout, indent=2)
    print()


def _print_doc(args, inputs: dict, groups: dict, text_lines: list[tuple],
               ambiguous_degrees=(), extra=None) -> int:
    """Write the groups as JSON, or the text lines.

    A text line is a tuple of strings and groups, joined when the text is
    written.  So each group is rendered once in either format: a (Z/2)^b
    string of `cstar --ko` is megabytes long.
    """
    if args.format == "json":
        doc = {
            "command": args.command,
            "inputs": inputs,
            "groups": {name: str(g) for name, g in groups.items()},
            "extension_ambiguous": bool(ambiguous_degrees),
        }
        if ambiguous_degrees:
            doc["ambiguous_degrees"] = sorted(ambiguous_degrees)
        if extra:
            doc.update(extra)
        _write_json(doc)
    else:
        # every line first, so a MemoryError leaves stdout empty
        rendered = ["".join(map(str, line)) for line in text_lines]
        # written piecewise: a joined copy would double the (Z/2)^b strings
        for line in rendered:
            print(line)
    return 0


def _k_payload(k0, k1, ambiguous=frozenset()) -> tuple[dict, list[tuple]]:
    groups = {"K0": k0, "K1": k1}
    flag = " (up to extension)" if 0 in ambiguous else ""
    return groups, [("K0 = ", k0, flag, ", K1 = ", k1), (BOTT_NOTE,)]


def _ko_payload(gg) -> tuple[dict, list[tuple]]:
    groups = {f"KO{n}": gg.entry(n) for n in range(8)}
    lines = [
        (f"KO{n} = ", gg.entry(n), " (up to extension)" if n in gg.extension_ambiguous else "")
        for n in range(8)
    ]
    return groups, lines + [(BOTT_NOTE,)]


def _assemble(h, stabilisers, ko: bool) -> tuple[dict, list[tuple], frozenset]:
    """K by collapse, or KO (which checks every stabiliser's tables), and
    the degrees known only up to extension."""
    if ko:
        gg = ko_assembly.ko_from_bredon(h, stabilisers)
        return (*_ko_payload(gg), gg.extension_ambiguous)
    ambiguous = ko_assembly.collapse_ambiguous_degrees(h)
    return (*_k_payload(*ko_assembly.collapse_complex(h), ambiguous), ambiguous)


# -- commands ----------------------------------------------------------------


def _cmd_sl3_gl3(args) -> int:
    datum = bredon.sl3_datum()
    h, stabilisers = bredon.bredon_homology(datum), datum.stabilisers()
    if args.command == "gl3":
        # GL_3(Z) = SL_3(Z) x Z/2, the Z/2 central and acting trivially.
        h, stabilisers = ko_assembly.kunneth_times_z2(h, stabilisers)
    return _print_doc(args, {}, *_assemble(h, stabilisers, args.ko))


def _cmd_fuchsian(args) -> int:
    sig = fuchsian.parse_signature(args.signature)
    # An impossible lift stays a domain error (exit 1) on any signature.
    datum = bredon.lifted_fuchsian_datum(sig) if args.lift else None
    if not sig.is_hyperbolic():
        raise InputError(f"signature {sig} is not hyperbolic: orbifold Euler "
                         "characteristic 2-2g-s-sum(1-1/m_j) >= 0")
    inputs = {"signature": str(sig), "lift": bool(args.lift)}
    h = fuchsian.bredon_closed_form(sig) if datum is None else bredon.bredon_homology(datum)
    return _print_doc(args, inputs, *_assemble(h, (), ko=False))


def _cmd_hecke(args) -> int:
    sig = fuchsian.hecke_signature(args.prime)
    h0, h1 = fuchsian.bredon_closed_form(sig)  # Gamma_0(p) has cusps: two degrees
    groups = {"H0": h0, "H1": h1}
    lines = [(f"signature = {sig}",), ("H0 = ", h0), ("H1 = ", h1)]
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
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(exc) from exc
    datum = cwfile.parse_cw(text)
    if args.emit:
        print(cwfile.format_cw(datum), end="")
        return 0
    h = bredon.bredon_homology(datum)  # d o d != 0 raises ChainComplexError: exit 2
    groups = {f"H{n}": g for n, g in enumerate(h)}
    lines = [(f"name = {datum.name}",)]
    lines += [(f"H{n} = ", g) for n, g in enumerate(h)]
    parts, ambiguous = [], frozenset()
    if all(g.is_zero() for g in h[3:]):
        parts.append(_assemble(h, datum.stabilisers(), ko=False))
    if args.ko:
        parts.append(_assemble(h, datum.stabilisers(), ko=True))
    for part_groups, part_lines, part_ambiguous in parts:
        groups.update(part_groups)
        lines += part_lines
        ambiguous |= part_ambiguous
    return _print_doc(
        args, {"file": args.file, "ko": args.ko}, groups, lines, ambiguous,
        extra={"name": datum.name},
    )


_PRIMES_RE = re.compile(r"([0-9]+)\.\.([0-9]+)")


def _cmd_verify(args) -> int:
    m = _PRIMES_RE.fullmatch(args.primes)
    if not m:
        raise InputError(f"--primes expects A..B, got {args.primes!r}")
    lo, hi = ascii_int(m.group(1)), ascii_int(m.group(2))
    if lo > hi:
        raise InputError(f"--primes expects A <= B, got {args.primes!r}")
    if not any(fuchsian.is_prime(p) for p in range(lo, hi + 1)):
        # the prime sweeps would pass with nothing swept
        raise InputError(f"--primes range {args.primes!r} contains no prime")
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
        _write_json(doc)
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
    "prime": (("-p", "--prime"), {"type": ascii_int, "required": True, "help": "a prime number"}),
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
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:  # e.g. the (Z/2)^b lines of cstar --ko for p near 2**64
        print("error: out of memory: the result is too large to build", file=sys.stderr)
        return 1
    except OverflowError:  # e.g. a chain group whose rank no list can index
        print("error: the result is too large to build: a size exceeds an index", file=sys.stderr)
        return 1


#: What a write reports when stdout is a closed pipe or sits on a full disk.
_WRITE_ERRNOS = frozenset({errno.EPIPE, errno.ENOSPC, errno.EDQUOT})


def run():
    """The process entry point: `main`, then flush and exit without teardown.

    Interpreter teardown after `main` returns took 13-15 ms of every
    process (Python 3.11, 2-vCPU Xeon), against 1-1.5 ms for `os._exit`,
    and does nothing this program needs: nothing registers `atexit`.  So
    the process ends with `os._exit`, which skips the flush the
    interpreter's exit would make; that flush comes first here.  Output
    that cannot be written (a full disk, a closed pipe), whether a write
    in `main` or the flush finds out, gives one `error:` line and exit 1.
    Any other exception that escapes `main` takes the interpreter's path:
    a traceback and exit 1.
    """
    try:
        try:
            code = main()
        except SystemExit as exc:  # argparse's --help (0) and usage errors (2)
            code = exc.code
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:  # None when the process started with that fd closed
                stream.flush()
    except OSError as exc:
        if exc.errno not in _WRITE_ERRNOS:
            raise
        code = 1
        try:
            print(f"error: cannot write output: {exc}", file=sys.stderr, flush=True)
        except OSError:  # stderr is gone too: the exit code is all that is left
            pass
    os._exit(code)


if __name__ == "__main__":
    run()
