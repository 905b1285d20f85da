"""Command-line surface: each subcommand is a pure file-to-file transform.

Exit codes: 0 on success, 1 on domain errors (bad input data, oracle bounds,
budget), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import math
import sys
import warnings
from dataclasses import replace
from pathlib import Path

from . import bench as bench_mod
from . import formula as fm
from .circuit import (
    Circuit,
    NnfFormatError,
    mask_within,
    parse_nnf,
    stats_line,
    write_nnf,
)
from .cnf import (
    CnfInstance,
    DimacsError,
    detect_tseitin_vars,
    format_tvars,
    parse_dimacs,
    parse_tvars,
    write_dimacs,
)
from .compiler import CompileConfig, compile
from .counting import WeightMap, model_count, weighted_model_count
from .errors import OracleBoundError, ToolkitError
from .formula import ParseError
from .oracle import CircuitTables, _table, check_exists_equiv
from .pruning import artifact_flags, exists_quantify, prune, residual_artifacts


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with warnings.catch_warnings():
            # One line per warning, without Python's source location.
            warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
            return args.func(args)
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
    except (ParseError, DimacsError, NnfFormatError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
    except OracleBoundError as exc:
        print(f"oracle error: {exc}", file=sys.stderr)
    except (ToolkitError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    except RecursionError:
        print("error: input nested too deeply", file=sys.stderr)
    return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ddnnf",
        description="Encode formulas to CNF, compile to d-DNNF, prune gate "
        "variables and their artifacts, and count models.",
    )
    sub = parser.add_subparsers(required=True, metavar="command")

    p = sub.add_parser("tseitin", help="encode a formula file as DIMACS CNF")
    p.add_argument("input", help="formula file (.bool)")
    p.add_argument("-o", "--output", help="CNF output path (default: <input>.cnf)")
    p.set_defaults(func=cmd_tseitin)

    p = sub.add_parser("detect", help="recover gate variables from a CNF")
    p.add_argument("input", help="DIMACS CNF file")
    p.add_argument("-o", "--output", help="tvars sidecar path (default: <input>.tvars)")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("compile", help="compile a CNF to a d-DNNF circuit")
    p.add_argument("input", help="DIMACS CNF file")
    p.add_argument("-o", "--output", help="NNF output path (default: <input>.nnf)")
    _add_order_option(p, "input")
    p.add_argument("--tvars", help="tvars sidecar to embed (default: <input>.tvars if present)")
    p.add_argument("--max-decisions", type=_budget, help="abort after this many branch decisions")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("prune", help="quantify gate variables and remove artifacts")
    p.add_argument("input", help="NNF circuit file (c2d or d4)")
    p.add_argument("--tvars", help="tvars sidecar (default: embedded in the NNF)")
    p.add_argument("--mode", choices=("p", "t"), default="t",
                   help="p: quantify only; t: also remove artifacts (default)")
    p.add_argument("-o", "--output", help="output path (default: <input>.pruned.nnf)")
    p.set_defaults(func=cmd_prune)

    p = sub.add_parser("count", help="exact model count of a circuit")
    p.add_argument("input", help="NNF circuit file (c2d or d4)")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("wmc", help="weighted model count of a circuit")
    p.add_argument("input", help="NNF circuit file (c2d or d4)")
    p.add_argument("--weights", required=True, help="weights file (w <lit> <value> lines)")
    p.add_argument("--exact", action="store_true", help="exact rational arithmetic")
    p.set_defaults(func=cmd_wmc)

    p = sub.add_parser("verify", help="run brute-force oracle checks on a file")
    p.add_argument("input", help="formula (.bool), CNF (.cnf), or circuit (c2d or d4)")
    _add_order_option(p, "input")
    p.add_argument("--tvars", help="tvars sidecar for CNF/NNF inputs")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="size-reduction report over generated instances")
    p.add_argument("--family", required=True, choices=("overlap", "noisy_or", "mutex"))
    p.add_argument("--sizes", required=True, type=_sizes, help="e.g. '2..10' or '2,4,8'")
    p.add_argument("--seed", type=int, default=0, help="instance seed (mutex family)")
    p.add_argument("--parents", type=int, default=2, choices=range(4),
                   help="parents per node (mutex family)")
    _add_order_option(p, "dynamic")
    p.add_argument("--max-decisions", type=_budget)
    p.add_argument("--no-verify", action="store_true", help="skip oracle verification")
    p.add_argument("-o", "--output", help="CSV output path (default: stdout only)")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("stats", help="print circuit size metrics")
    p.add_argument("input", help="NNF circuit file (c2d or d4)")
    p.set_defaults(func=cmd_stats)

    return parser


def _add_order_option(p: argparse.ArgumentParser, default: str) -> None:
    p.add_argument("--order", type=_branch_order, default=default, dest="config",
                   metavar="ORDER", help="branch order: input, dynamic (most occurrences "
                   "first) or a comma-separated list of distinct variables from 1, which "
                   "is how a shuffled order is passed; any other value is refused "
                   f"(default: {default})")


def _branch_order(text: str) -> CompileConfig:
    # CompileConfig refuses what is wrong whatever the CNF; a variable beyond
    # its header is checked by compile.
    try:
        order = tuple(int(v) for v in text.split(","))
    except ValueError:
        order = text
    try:
        return CompileConfig(order=order)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"{exc} (expected input, dynamic or a comma-separated list of distinct variables)")


def _budget(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a count of 0 or more, got {text!r}")
    return int(text)


def _sizes(text: str) -> list[int]:
    lo, dots, hi = text.partition("..")
    try:
        sizes = (list(range(int(lo), int(hi) + 1)) if dots
                 else [int(t) for t in text.replace(",", " ").split()])
    except ValueError:
        sizes = []
    if not sizes or min(sizes) < 1:
        raise argparse.ArgumentTypeError(
            f"expected LO..HI with 1 <= LO <= HI, or a list of sizes >= 1, got {text!r}")
    return sizes


def _with_suffix(path: str, suffix: str) -> Path:
    p = Path(path)
    return p.with_name(p.stem + suffix)


def _load_circuit(args) -> Circuit:
    circuit = parse_nnf(Path(args.input).read_text())
    tvars_path = getattr(args, "tvars", None)
    if tvars_path:
        tvars = mask_within(parse_tvars(Path(tvars_path).read_text()), circuit.universe_mask)
        if tvars is None:
            raise ValueError("tvars sidecar lists variables outside the circuit universe")
        circuit.tseitin_mask = tvars
    return circuit


def cmd_tseitin(args) -> int:
    f = fm.parse_formula(Path(args.input).read_text())
    out = fm.tseitin_transform(f)
    cnf_path = Path(args.output) if args.output else _with_suffix(args.input, ".cnf")
    cnf_path.write_text(write_dimacs(out.cnf))
    _with_suffix(str(cnf_path), ".tvars").write_text(format_tvars(out.tseitin_vars))
    _with_suffix(str(cnf_path), ".map").write_text(fm.format_var_map(out.var_map))
    print(f"wrote {cnf_path} ({out.cnf.num_vars} vars, {len(out.cnf.clauses)} clauses, "
          f"{len(out.tseitin_vars)} tseitin)")
    return 0


def cmd_detect(args) -> int:
    cnf = parse_dimacs(Path(args.input).read_text())
    tvars = detect_tseitin_vars(cnf)
    out_path = Path(args.output) if args.output else _with_suffix(args.input, ".tvars")
    out_path.write_text(format_tvars(tvars))
    print(f"wrote {out_path} ({len(tvars)} gate variables)")
    return 0


def cmd_compile(args) -> int:
    cnf = parse_dimacs(Path(args.input).read_text())
    # An explicit --tvars must exist; the implicit <input>.tvars is optional.
    tvars_path = Path(args.tvars) if args.tvars else _with_suffix(args.input, ".tvars")
    if args.tvars or tvars_path.exists():
        cnf = replace(cnf, tseitin_vars=parse_tvars(tvars_path.read_text()))
    circuit = compile(cnf, replace(args.config, max_decisions=args.max_decisions))
    out_path = Path(args.output) if args.output else _with_suffix(args.input, ".nnf")
    out_path.write_text(write_nnf(circuit))
    print(f"wrote {out_path} ({stats_line(circuit)})")
    return 0


def cmd_prune(args) -> int:
    circuit = _load_circuit(args)
    result, report = prune(circuit)
    # Without internal artifact roots the pruned circuit is the quantified one.
    if args.mode == "p" and report.artifacts_internal:
        result = exists_quantify(circuit, circuit.tseitin_mask)
    out_path = Path(args.output) if args.output else _with_suffix(args.input, ".pruned.nnf")
    out_path.write_text(write_nnf(result))
    report_path = Path(str(out_path) + ".report")
    report_path.write_text(
        "".join(f"{k}={v}\n" for k, v in report.to_key_values().items())
    )
    print(report.summary())
    print(f"wrote {out_path} and {report_path}")
    return 0


def _print_in_full(value) -> None:
    """Print a count of any length. Python caps int-to-text conversion at
    4,300 digits to keep ``int()`` of hostile input fast; the cap stays in
    force for parsing and is lifted only here. Builds without it print as is."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    set_limit = getattr(sys, "set_int_max_str_digits", lambda limit: None)
    set_limit(0)
    try:
        print(value)
    finally:
        set_limit(limit)


def cmd_count(args) -> int:
    _print_in_full(model_count(_load_circuit(args)))
    return 0


def cmd_wmc(args) -> int:
    circuit = _load_circuit(args)
    text = Path(args.weights).read_text()
    value = weighted_model_count(circuit, WeightMap.from_text(text, exact=args.exact))
    if not args.exact:
        # Floats overflow to inf and underflow to a subnormal, which has lost
        # precision, or to 0.0; none of these is printed.
        if not math.isfinite(value):
            raise ToolkitError(f"float WMC is {value}, out of float range; use --exact")
        if 0 < abs(value) < sys.float_info.min:
            raise ToolkitError(f"float WMC {value} is subnormal and has lost precision; use --exact")
        if not value and weighted_model_count(circuit, WeightMap.from_text(text, exact=True)):
            raise ToolkitError("float WMC underflows to 0.0 but is nonzero; use --exact")
    _print_in_full(value)
    return 0


def cmd_stats(args) -> int:
    print(stats_line(_load_circuit(args)))
    return 0


def cmd_bench(args) -> int:
    report = bench_mod.run_bench(
        args.family,
        args.sizes,
        config=replace(args.config, max_decisions=args.max_decisions),
        seed=args.seed,
        parents=args.parents,
        oracle_check=not args.no_verify,
    )
    text = report.to_csv()
    if args.output:
        Path(args.output).write_text(text)
        print(f"wrote {args.output}")
    print(text, end="")
    return 0


def cmd_verify(args) -> int:
    path = Path(args.input)
    suffix = path.suffix.lower()
    if suffix in (".bool", ".txt"):
        results = _verify_formula(fm.parse_formula(path.read_text()), args.config)
    elif suffix == ".cnf":
        cnf = parse_dimacs(path.read_text())
        gates = parse_tvars(Path(args.tvars).read_text()) if args.tvars else detect_tseitin_vars(cnf)
        results = _verify_cnf(replace(cnf, tseitin_vars=gates), args.config)
    else:
        results = _verify_circuit(CircuitTables(_load_circuit(args)))
    failed = False
    for name, ok in results:
        print(f"{'ok' if ok else 'FAIL'} {name}")
        failed |= not ok
    return 1 if failed else 0


def _verify_formula(f: fm.Formula, cfg: CompileConfig) -> list[tuple[str, bool]]:
    encoded = fm.tseitin_transform(f)
    return [
        ("model bijection (formula vs encoded CNF)",
         _table(f)[1].bit_count() == _table(encoded.cnf)[1].bit_count()),
        ("projection recovers the formula",
         check_exists_equiv(encoded, encoded.tseitin_vars, f)),
        *_verify_cnf(encoded.cnf, cfg, reference=f, names=encoded.names()),
    ]


def _verify_cnf(cnf: CnfInstance, cfg: CompileConfig, reference=None, names=None):
    # Truth tables, not model sets: 2^20 models are one int of 2^20 bits.
    tables = CircuitTables(compile(cnf, cfg))
    return [("compiled circuit matches CNF models", _table(cnf) == _table(tables)),
            *_verify_circuit(tables, reference=reference, names=names)]


def _verify_circuit(tables: CircuitTables, reference=None, names=None) -> list[tuple[str, bool]]:
    circuit = tables.circuit
    flags = artifact_flags(circuit)
    pruned, _ = prune(circuit)
    pruned_tables = CircuitTables(pruned)
    results = [
        ("deterministic (brute force)", tables.deterministic()),
        ("artifact flags match tautology oracle",
         all((nid in flags) == tables.tautology_after_exists(circuit.tseitin_mask, nid)
             for nid in circuit.reachable())),
        ("count preserved by pruning", model_count(pruned) == model_count(circuit)),
        ("pruned circuit deterministic (brute force)", pruned_tables.deterministic()),
        # prune returns a circuit without gate variables unchanged, so a
        # tautology in it is no artifact and may stay.
        ("no tautology left after pruning",
         not circuit.tseitin_mask or not residual_artifacts(pruned)),
    ]
    if reference is not None:
        results.append(("pruned circuit projects to the source formula",
                        check_exists_equiv(pruned_tables, frozenset(), reference, names=names)))
    return results


if __name__ == "__main__":
    sys.exit(main())
