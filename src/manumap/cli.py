"""Command-line interface.

Subcommands: analyze (one mesh under one process, or both processes over a
shared decomposition), analyze-assembly (modules combined by volume
weights), compare (two saved reports), profile-validate (parse and echo a
machine profile).

Exit codes: 0 ok, 1 I/O trouble, 2 bad configuration or arguments,
3 unusable mesh, 4 analysis failure, 5 report schema mismatch.  Each error
class carries its code (``manumap.errors``); ``main`` prints any
``ManumapError`` as one ``error:`` line and returns that code, and any
other ``OSError`` exits 1.  Anything else is a bug and keeps its traceback.

Each analysis option is declared once, in ``_add_analysis_options``, with
the defaults of ``AnalysisParams``.  All file output is atomic (write to
temp, rename), so a failed run leaves no partial files, and results are
byte-identical for a given input and configuration.  Grading runs in one
thread; --workers must be at least 1 and never changes results.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .additive import HEIGHT_REFERENCES
from .aggregation import AssemblyReport, ComparisonReport, compare_reports
from .analysis import (
    PROCESSES,
    AnalysisParams,
    AnalysisResult,
    ModuleSpec,
    analyze_assembly,
    analyze_mesh,
)
from .errors import (
    ManumapError,
    MeshError,
    ParameterError,
    ProfileError,
    ReportIOError,
)
from .mesh_io import load_mesh
from .profiles import default_profiles, load_profiles
from .reporting import (
    _CHUNK_ROWS,
    ColorScale,
    _atomic_write_chunks,
    emit_report,
    export_difficulty_map,
    load_report,
)
from .spatial import MAX_DEPTH_LIMIT, build_octree

EXIT_OK = 0

_MAP_INDEX_DEFAULT = {"machining": "tool_flexibility", "additive": "build_height"}


def _read(load, path: str, error: type[ManumapError], what: str):
    """``load(path)``, with a missing file raised as ``error`` (and so its exit code)."""
    try:
        return load(path)
    except FileNotFoundError:
        raise error(f"{what} file not found: {path}") from None


def _load_profiles(path: str | None):
    if path is None:
        return default_profiles()
    return _read(load_profiles, path, ProfileError, "profile")


def _parse_scale(text: str) -> ColorScale | None:
    """--scale value: 'auto' or explicit 'LO:HI' color-ramp endpoints."""
    if text == "auto":
        return None
    lo, sep, hi = text.partition(":")
    try:
        if not sep:
            raise ValueError
        return ColorScale(float(lo), float(hi))
    except ValueError:
        raise ParameterError(
            f"--scale must be 'auto' or LO:HI with finite LO < HI, got {text!r}"
        ) from None


def _params(args: argparse.Namespace) -> AnalysisParams:
    if not args.workers >= 1:
        raise ParameterError(f"workers must be at least 1, got {args.workers!r}")
    if not args.seed >= 0:
        raise ParameterError(f"seed must be non-negative, got {args.seed!r}")
    return AnalysisParams(
        max_depth=args.depth,
        margin=args.margin,
        material=args.material,
        required_ra_um=args.required_ra,
        height_reference=args.height_reference,
    )


def _out_dir(args: argparse.Namespace) -> Path | None:
    if args.out is None:
        return None
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _print_part(report, out) -> None:
    print(f"design {report.design_id}  process {report.process}", file=out)
    for key, val in report.scalar_metrics().items():
        print(f"  {key:<42} {val:.6f}", file=out)


def _print_assembly(report: AssemblyReport, out) -> None:
    print(f"assembly {report.design_id}", file=out)
    for name in sorted(report.module_reports):
        rep = report.module_reports[name]
        print(
            f"  module {name}  process {rep.process}  weight {report.weights[name]:.6f}",
            file=out,
        )
    for note in report.warnings:
        print(f"  warning: {note}", file=out)
    if report.totals is not None:
        for key, val in report.scalar_metrics().items():
            print(f"  {key:<42} {val:.6f}", file=out)
    else:
        for name in sorted(report.module_reports):
            for key, val in report.module_reports[name].scalar_metrics().items():
                print(f"  {name}:{key:<40} {val:.6f}", file=out)


def _fmt_cell(value) -> str:
    return "n/a" if value is None else f"{value:.6f}"


def _print_comparison(report: ComparisonReport, out) -> None:
    print(f"baseline {report.baseline_id}  candidate {report.candidate_id}", file=out)
    for note in report.notes:
        print(f"  note: {note}", file=out)
    for row in report.rows:
        pct = "n/a" if row["delta_pct"] is None else f"{row['delta_pct']:+.1f}%"
        print(
            f"  {row['metric']:<42} {_fmt_cell(row['baseline']):>10} "
            f"{_fmt_cell(row['candidate']):>10} {pct:>9}",
            file=out,
        )


def _export_map(result: AnalysisResult, index_id: str, path, scale) -> None:
    if index_id not in result.fields:
        raise ParameterError(
            f"no local index {index_id!r} under process {result.report.process}; "
            f"have: {', '.join(sorted(result.fields))}"
        )
    export_difficulty_map(result.mesh, result.octree, result.fields[index_id], path, scale=scale)


def _write_exact_paths(report, args: argparse.Namespace) -> None:
    """--json/--csv: the report written to exactly the paths given."""
    if args.json:
        emit_report(report, args.json, fmt="json")
    if args.csv:
        emit_report(report, args.csv, fmt="csv")


def _write_default_outputs(result: AnalysisResult, out: Path, args, scale) -> None:
    """--out naming: {design}.{process}.report.json plus one signature map."""
    stem = f"{result.report.design_id}.{result.report.process}"
    emit_report(result.report, out / f"{stem}.report.json", fmt="json")
    index_id = args.map_index or _MAP_INDEX_DEFAULT[result.report.process]
    _export_map(result, index_id, out / f"{stem}.{index_id}.{args.format}", scale)


def _cmd_analyze(args: argparse.Namespace) -> int:
    processes = list(PROCESSES) if args.process == "both" else [args.process]
    single_path_flags = [
        name
        for name, value in (
            ("--json", args.json),
            ("--csv", args.csv),
            ("--map", args.map),
            ("--dump-octree", args.dump_octree),
        )
        if value
    ]
    if len(processes) > 1 and single_path_flags:
        raise ParameterError(
            f"--process both writes default-named files under --out; "
            f"{', '.join(single_path_flags)} name a single file and would be ambiguous"
        )
    if len(processes) > 1 and args.out is None:
        raise ParameterError("--process both needs --out DIR for its two reports")

    params = _params(args)
    scale = _parse_scale(args.scale)
    mesh = _read(load_mesh, args.mesh, MeshError, "mesh")
    profiles = _load_profiles(args.profile)
    octree = build_octree(mesh, **params.octree_params())
    out = _out_dir(args)
    for process in processes:
        result = analyze_mesh(
            mesh, process, profiles, params=params, design_id=args.design_id, octree=octree
        )
        if out is not None:
            _write_default_outputs(result, out, args, scale)
        _write_exact_paths(result.report, args)
        if args.dump_octree:
            # streamed, _CHUNK_ROWS leaves per write
            lines, n = result.octree.dump_lines(), len(result.octree.path_key)
            chunks = (
                "".join(next(lines) for _ in range(min(_CHUNK_ROWS, n - s)))
                for s in range(0, n, _CHUNK_ROWS)
            )
            _atomic_write_chunks(Path(args.dump_octree), chunks)
        if args.map:
            index_id = args.map_index or _MAP_INDEX_DEFAULT[process]
            _export_map(result, index_id, args.map, scale)
        _print_part(result.report, sys.stdout)
    return EXIT_OK


def _parse_module(spec: str, default_process: str) -> tuple[str, str, str]:
    if "=" not in spec:
        raise ParameterError(f"module spec {spec!r} is not ID=PATH[:PROCESS]")
    module_id, rest = spec.split("=", 1)
    process = default_process
    if ":" in rest:
        head, tail = rest.rsplit(":", 1)
        if tail in PROCESSES:
            rest, process = head, tail
    if not module_id or not rest:
        raise ParameterError(f"module spec {spec!r} is not ID=PATH[:PROCESS]")
    return module_id, rest, process


def _cmd_assembly(args: argparse.Namespace) -> int:
    params = _params(args)
    profiles = _load_profiles(args.profile)
    modules = []
    for spec in args.modules:
        module_id, path, process = _parse_module(spec, args.process)
        modules.append(ModuleSpec(module_id, _read(load_mesh, path, MeshError, "mesh"), process))
    report, results = analyze_assembly(args.design_id, modules, profiles, params=params)
    out = _out_dir(args)
    if out is not None:
        for name, res in sorted(results.items()):
            emit_report(res.report, out / f"{args.design_id}.{name}.report.json", fmt="json")
        emit_report(report, out / f"{args.design_id}.assembly.report.json", fmt="json")
    _write_exact_paths(report, args)
    _print_assembly(report, sys.stdout)
    return EXIT_OK


def _cmd_compare(args: argparse.Namespace) -> int:
    baseline = _read(load_report, args.baseline, ReportIOError, "report")
    candidate = _read(load_report, args.candidate, ReportIOError, "report")
    report = compare_reports(baseline, candidate)
    out = _out_dir(args)
    if out is not None:
        stem = f"{report.baseline_id}_vs_{report.candidate_id}"
        emit_report(report, out / f"{stem}.comparison.json", fmt="json")
        emit_report(report, out / f"{stem}.comparison.csv", fmt="csv")
    _write_exact_paths(report, args)
    _print_comparison(report, sys.stdout)
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    import json as _json

    profiles = _load_profiles(args.profile_file)
    text = _json.dumps(profiles.to_dict(), sort_keys=True, indent=2)
    if args.json:
        _atomic_write_chunks(Path(args.json), [text + "\n"])
    print(text)
    return EXIT_OK


def _add_analysis_options(p: argparse.ArgumentParser) -> None:
    """Options of analyze and analyze-assembly; AnalysisParams supplies the defaults."""
    defaults = AnalysisParams()
    p.add_argument("--profile", help="machine profile file (INI)")
    p.add_argument("--depth", type=int, default=defaults.max_depth,
                   help=f"octree depth, 1..{MAX_DEPTH_LIMIT}")
    p.add_argument("--margin", type=float, default=defaults.margin,
                   help="root box inflation fraction")
    p.add_argument("--seed", type=int, default=0, help="checked (non-negative), then unused: "
                   "only bench/harness.py passes it; nothing is random")
    p.add_argument("--material", help="material name from the profile's hardness table")
    p.add_argument("--required-ra", type=float, help="required surface roughness Ra (um)")
    p.add_argument("--height-reference", choices=HEIGHT_REFERENCES,
                   default=defaults.height_reference,
                   help="leaf reference for the build-height field")
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="accepted for compatibility (at least 1); grading is single-threaded "
        "and results never depend on it",
    )
    p.add_argument("--out", help="directory for default-named report and map files")
    p.add_argument("--json", help="write the report as JSON to this exact path")
    p.add_argument("--csv", help="write flat metrics as CSV to this exact path")


class _Parser(argparse.ArgumentParser):
    """Raises an argument error as a ParameterError, which main prints as one line."""

    def error(self, message):
        raise ParameterError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="manumap",
        description="Grade how hard a part is to machine or to build additively.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="grade one mesh")
    p.add_argument("mesh", help="STL or OFF mesh file")
    p.add_argument(
        "--process",
        choices=PROCESSES + ("both",),
        default="machining",
        help="'both' grades under each process over one shared decomposition",
    )
    p.add_argument("--design-id", default="part")
    p.add_argument("--map", help="write a difficulty map to this exact path (.ply or .vtk)")
    p.add_argument("--map-index", help="local index to map (default: process signature field)")
    p.add_argument(
        "--scale",
        default="auto",
        help="color ramp endpoints: 'auto' stretches over the field, LO:HI pins them",
    )
    p.add_argument(
        "--format",
        choices=("ply", "vtk"),
        default="ply",
        help="map format for --out default-named files",
    )
    p.add_argument("--dump-octree", help="write octree leaves as JSON lines")
    _add_analysis_options(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("analyze-assembly", help="grade a modular design")
    p.add_argument("modules", nargs="+", metavar="ID=PATH[:PROCESS]")
    p.add_argument("--design-id", default="assembly")
    p.add_argument("--process", choices=PROCESSES, default="machining",
                   help="process for modules that do not name one")
    _add_analysis_options(p)
    p.set_defaults(func=_cmd_assembly)

    p = sub.add_parser("compare", help="line up two saved reports")
    p.add_argument("baseline", help="baseline report JSON")
    p.add_argument("candidate", help="candidate report JSON")
    p.add_argument("--out", help="directory for default-named comparison files")
    p.add_argument("--json", help="write the comparison as JSON to this exact path")
    p.add_argument("--csv", help="write the comparison as CSV to this exact path")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("profile-validate", help="parse a profile and echo it normalized")
    p.add_argument("profile_file", help="machine profile file (INI)")
    p.add_argument("--json", help="also write the normalized profile as JSON")
    p.set_defaults(func=_cmd_validate)

    return parser


def main(argv=None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit:  # --help, after printing its text
            return EXIT_OK
        return args.func(args)
    except ManumapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ReportIOError.exit_code


if __name__ == "__main__":
    sys.exit(main())
