"""Command-line surface: build tables, evaluate kernels, run sweeps and benchmarks.

Exit codes are stable and documented:

    0  success
    2  invalid input (material validation failure, bad arguments, damaged
       or malformed table file, non-finite evaluation point; the message
       names the row)
    3  singular operator symbol
    4  coefficient-table / material hash mismatch
    5  invalid evaluation point: zero length, or so near zero length that
       the kernel value overflows float64; the message names the row

The default tables directory is taken from the FUNDSOL_TABLES_DIR environment
variable when --tables-dir is not given.  `build` writes FSCT version 4
files, which store the real channels of the entries i <= j of each
symmetric block, one per entry for a mirror-symmetric material; files of
earlier versions exit 2 with a pointer to `fundsol build`.  `build`
projects on one fixed rule, of exactness 2(L + order) + 12
(expansion.base_quadrature), and no option picks another.  That rule keeps
its alias error below the series truncation error, which is why the header
does not record it.  `build` prints the size in bytes of every file it
writes.  `eval` exits 2 when the table it loads holds another degree or
multi-index than the one asked for (a file copied over another's name).
Floating-point output is printed with 17 significant digits ("%.17g") so
reruns can be diffed byte for byte, with two exceptions: `plot --mesh`
writes its vertices as "%.9g", and `materials show` its tables as "%10.4g"
(`build`'s timings are seconds to "%.3f").

`eval` reads its points file with one np.loadtxt call (a first line that
does not parse is a header; blank lines are skipped; a file numpy refuses is
read again line by line with float(), which names the line of a bad row).
It writes one row x,y,z,i,j,value per point and entry (i, j), all N^2 of
them, in (point, i, j) order.  The kernels are exactly symmetric, so one
pass formats the N(N+1)/2 distinct entries of every point and another every
coordinate, row (j, i) reuses the text of (i, j) by an index gather, and
the rows are joined and written as bytes (to stdout's binary buffer when it
has one), one chunk of 256 points at a time.

Both passes use `textio.g17_text`, which gives CPython's "%.17g" byte for
byte from whole-array numpy operations; its docstring says why that is
exact.  Every CSV and mesh goes out through `textio.write_bytes`, which
makes the missing parent directories of an output file.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time
from collections.abc import Iterator
from pathlib import Path

import numpy as np

from . import reference
from .errors import (
    FundsolError,
    MaterialValidationError,
    SingularPointError,
    SingularSymbolError,
    TableConsistencyError,
    TableHashMismatchError,
)
from .evaluator import evaluate_batch, sample_sphere
from .expansion import (
    MultiIndex,
    base_coefficients,
    base_quadrature,
    derive_multi,
    derive_tree,
    load_table,
    packed_index,
    save_table,
)
from .materials import builtin, extend, format_material, load_material_json, validate, zener_family
from .reference import CONTOUR_MIN_NODES
from .textio import export_field_csv, export_field_mesh, g17_text, write_bytes

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_SINGULAR = 3
EXIT_HASH = 4
EXIT_BAD_POINT = 5

ENV_TABLES_DIR = "FUNDSOL_TABLES_DIR"
_EVAL_BLOCK = 256  # points per formatted, joined and written chunk of eval rows


def _load_material(spec: str):
    if spec.endswith(".json") or os.path.sep in spec or os.path.exists(spec):
        return load_material_json(spec)
    return builtin(spec)


def _tables_dir(args) -> Path:
    return Path(args.tables_dir or os.environ.get(ENV_TABLES_DIR) or (Path.cwd() / "tables"))


def _mi_tag(mi) -> str:
    """d{i1}{i2}{i3}, dashed when a count exceeds 9: (1, 10, 0) is not (11, 0, 0)."""
    return "d" + ("-" if max(mi) > 9 else "").join(map(str, mi))


def table_path(tables_dir: Path, material_hash: str, L: int, mi) -> Path:
    return tables_dir / f"{material_hash[:16]}_L{L}_{_mi_tag(mi)}.fsct"


def _parse_multi_index(text: str) -> MultiIndex:
    return MultiIndex(*_parse_values("--multi-index", text, count=3, sep=None))


def _point_row(line: str) -> list[float] | None:
    """The floats of one comma-separated row, None if a field does not parse."""
    try:
        return [float(p) for p in line.split(",")]
    except ValueError:
        return None


def _check_degrees(flag: str, degrees, order: int, source: str) -> None:
    """Refuse a truncation degree below the derivative order (>= 0) before any
    work, naming the flag and the order (CoeffTable refuses it once built)."""
    for L in degrees:
        if L < order:
            raise ValueError(
                f"{flag} must be >= 0 and >= {source}, got {flag} {L} and {source} {order}"
            )


def _check_nodes(flag: str, counts) -> None:
    """Refuse a contour rule of fewer than CONTOUR_MIN_NODES nodes before any
    work, naming the flag."""
    for count in counts:
        if count < CONTOUR_MIN_NODES:
            raise ValueError(f"{flag} must be >= {CONTOUR_MIN_NODES}, got {flag} {count}")


def _parse_grid(text: str) -> list[int]:
    """--grid n_theta x n_phi, refused below sample_sphere's 2 x 3 before any work."""
    grid = _parse_values("--grid", text, count=2, sep="x")
    if grid[0] < 2 or grid[1] < 3:
        raise ValueError(f"--grid must be at least 2x3, got --grid {text}")
    return grid


def _read_points(path) -> np.ndarray:
    """x,y,z rows of a points CSV; a first line that does not parse is a
    header, and blank lines are skipped.  One np.loadtxt call parses the data
    lines; when it refuses them, they are read again one by one with float(),
    which accepts the spellings numpy does not (such as 1_0) and raises
    ValueError naming the file and the physical line of a bad row."""
    with open(path, "r", encoding="utf-8") as f:
        lines = f.read().split("\n")
    first = lines[0].strip()
    start = 1 if first and _point_row(first) is None else 0
    data = lines[start:]
    if not any(map(str.strip, data)):
        return np.zeros((0, 3))
    try:
        points = np.loadtxt(data, delimiter=",", comments=None, ndmin=2)
        if points.shape[1] == 3:
            return points
    except ValueError:
        pass
    rows = []
    for lineno, line in enumerate(data, start=start + 1):
        line = line.strip()
        if not line:
            continue
        row = _point_row(line)
        if row is None:
            raise ValueError(f"{path}, line {lineno}: unparsable point row {line!r}")
        if len(row) != 3:
            raise ValueError(
                f"{path}, line {lineno}: point row has {len(row)} fields, "
                f"expected 3 (x,y,z): {line!r}"
            )
        rows.append(row)
    return np.asarray(rows, dtype=np.float64).reshape(-1, 3)


# --------------------------------------------------------------------------- build


def cmd_build(args) -> int:
    order = args.order
    if order < 0:
        raise ValueError(f"--order must be >= 0, got {order}")
    _check_degrees("--L", [args.L], order, "--order")
    ext = extend(_load_material(args.material))
    material_hash = ext.material_hash  # a SHA-256 of the tensor per read
    base_degree = args.L + order

    t0 = time.perf_counter()
    base = base_coefficients(ext, base_degree)
    base_time = time.perf_counter() - t0
    # made only now, so a refused material leaves no directory behind
    tables_dir = _tables_dir(args)
    tables_dir.mkdir(parents=True, exist_ok=True)
    half, n_theta = base_quadrature(base_degree)[2].shape[:2]
    print(f"base table: L={base_degree} nodes={2 * half * n_theta} build={base_time:.3f}s")
    # each table is one ladder step from its parent, in depth-first order
    t0 = time.perf_counter()
    for mi, tab in derive_tree(base, order):
        tab = tab.truncated(args.L)
        dt = time.perf_counter() - t0
        path = table_path(tables_dir, material_hash, args.L, mi.astuple())
        size = save_table(tab, path)
        print(
            f"table {mi.astuple()}: L={tab.max_degree} bytes={size} "
            f"derive={dt:.3f}s -> {path}"
        )
        t0 = time.perf_counter()
    return EXIT_OK


# ---------------------------------------------------------------------------- eval


def cmd_eval(args) -> int:
    material_hash = extend(_load_material(args.material)).material_hash
    mi = _parse_multi_index(args.multi_index)
    path = table_path(_tables_dir(args), material_hash, args.L, mi.astuple())
    if not path.exists():
        raise ValueError(f"table {path} not found; run build first")
    table = load_table(path, expected_material_hash=material_hash)
    if (table.max_degree, table.multi_index) != (args.L, mi.astuple()):
        raise TableConsistencyError(
            f"table {path} holds L={table.max_degree}, multi-index {table.multi_index}; "
            f"eval asked for L={args.L}, multi-index {mi.astuple()}"
        )
    points = _read_points(args.points)
    values = evaluate_batch(table, points)
    write_bytes(args.out, _eval_text(points, values))
    return EXIT_OK


def _eval_text(points, values) -> Iterator[bytes]:
    """The eval CSV as ASCII bytes, one chunk per _EVAL_BLOCK points: a
    header, then x,y,z,i,j,value per point and entry, in (point, i, j)
    order.  In each chunk one `g17_text` pass formats the coordinates and
    a second the entries i <= j of every point (the kernels are exactly
    symmetric); row (j, i) takes the text of (i, j) by an index gather, and
    the rows are joined once.  Chunks keep every work array small enough to
    be reused from the heap, where one output-sized pass faults ~1,000
    pages per 2,048-point call in and out again; the pieces are str, as
    bytes.join holds an 80-byte Py_buffer per piece."""
    n = values.shape[1]
    rows, cols, mirror = packed_index(n)
    labels = np.array([f"{i + 1},{j + 1}," for i in range(n) for j in range(n)], dtype=object)
    yield b"x,y,z,i,j,value\n"
    for start in range(0, len(points), _EVAL_BLOCK):
        block = slice(start, start + _EVAL_BLOCK)
        count = len(points[block])
        prefixes = g17_text(points[block], (",", ",", ",\n")).split("\n")
        cells = g17_text(values[block][:, rows, cols], ("\n",)).splitlines(True)
        pieces = np.empty((count, n * n, 3), dtype=object)
        pieces[:, :, 0] = np.array(prefixes[:-1], dtype=object)[:, None]
        pieces[:, :, 1] = labels
        pieces[:, :, 2] = np.array(cells, dtype=object).reshape(count, rows.size)[:, mirror.ravel()]
        yield "".join(pieces.ravel().tolist()).encode("ascii")


# --------------------------------------------------------------------------- sweep


def _convergence_rows(ext, L_list, order_mi, grid, n_nodes, label):
    derived = derive_multi(base_coefficients(ext, max(L_list) + order_mi.order), order_mi)
    fields = [sample_sphere(derived.truncated(L), *grid) for L in L_list]
    # the contour reference on the directions of the fields
    ref = reference.unit_circle_field(ext, fields[0], order_mi, n_nodes=n_nodes)
    rows = []
    for L, test in zip(L_list, fields):
        e_s1 = reference.error_over_sphere(test, ref)
        n = e_s1.shape[0]
        for i in range(n):
            for j in range(n):
                rows.append(f"{label},{L},{i + 1},{j + 1},{e_s1[i, j]:.17g}")
    return rows


def cmd_sweep(args) -> int:
    # argparse admits exactly one of --material and --zener-list
    if args.material is None:
        ratios = _parse_values("--zener-list", args.zener_list, kind=float)
        cases = [(extend(zener_family(A)), "A=" + repr(A).removesuffix(".0")) for A in ratios]
    else:
        material = _load_material(args.material)
        cases = [(extend(material), material.name)]
    L_list = _parse_values("--L-list", args.L_list)
    if L_list != sorted(L_list):
        raise ValueError("--L-list must be ascending")
    mi = _parse_multi_index(args.multi_index)
    _check_degrees("--L-list", L_list, mi.order, "the order of --multi-index")
    grid = _parse_grid(args.grid)
    _check_nodes("--nodes", [args.nodes])
    rows = ["case,L,i,j,e_S1"]
    for ext, label in cases:
        rows += _convergence_rows(ext, L_list, mi, grid, args.nodes, label)
    write_bytes(args.out, [("\n".join(rows) + "\n").encode()])
    return EXIT_OK


def _parse_values(flag: str, text: str, kind=int, count=None, sep=","):
    """The `sep`-separated values of a flag (sep None: commas or spaces),
    converted by `kind`; a malformed value or a count other than `count`
    raises ValueError naming the flag."""
    parts = text.replace(",", " ").split() if sep is None else text.split(sep)
    try:
        values = [kind(v) for v in parts]
        if count is None or len(values) == count:
            return values
    except ValueError:
        pass
    number = "" if count is None else f"{count} "
    seps = "commas or spaces" if sep is None else repr(sep)
    raise ValueError(
        f"{flag}: expected {number}{kind.__name__} values separated by {seps}, got {text!r}"
    )


# --------------------------------------------------------------------------- bench


_BENCH_REPEATS = 5


def _median_seconds(fn):
    """(median wall time of _BENCH_REPEATS calls, result of the last call)."""
    times = []
    for _ in range(_BENCH_REPEATS):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times)), result


def cmd_bench(args) -> int:
    """Series and contour rows; each ns_per_point is the median of
    _BENCH_REPEATS timed calls, as a single call swung 2-4x between runs,
    after one warm-up call per row (which builds a table's contraction)."""
    ext = extend(_load_material(args.material))
    mi = _parse_multi_index(args.multi_index)
    rng = np.random.default_rng(args.seed)
    n_pts = args.points_count
    if n_pts < 1:
        raise ValueError(f"--points-count: expected a positive int, got {str(n_pts)!r}")
    pts = rng.normal(size=(n_pts, 3))
    pts /= np.linalg.norm(pts, axis=1)[:, None]

    L_list = _parse_values("--L-list", args.L_list)
    _check_degrees("--L-list", L_list, mi.order, "the order of --multi-index")
    node_list = _parse_values("--nodes-list", args.nodes_list)
    _check_nodes("--nodes-list", node_list)
    ref = reference.unit_circle_batch(ext, pts, mi, n_nodes=512)
    ref_scale = np.max(np.abs(ref))

    rows = ["method,param,ns_per_point,max_rel_error,setup_seconds"]
    # each ladder step lowers the usable degree by one
    t0 = time.perf_counter()
    derived = derive_multi(base_coefficients(ext, max(L_list) + mi.order), mi)
    build_time = time.perf_counter() - t0
    for L in L_list:
        tab = derived.truncated(L)
        evaluate_batch(tab, pts[:64])
        dt, vals = _median_seconds(lambda: evaluate_batch(tab, pts))
        err = float(np.max(np.abs(vals - ref))) / ref_scale
        rows.append(f"series,{L},{dt / n_pts * 1e9:.17g},{err:.17g},{build_time:.17g}")
    # the contender is the batched contour; one unit_circle call per point
    # would time Python overhead
    for nodes in node_list:
        reference.unit_circle_batch(ext, pts[:64], mi, n_nodes=nodes)
        dt, vals = _median_seconds(
            lambda: reference.unit_circle_batch(ext, pts, mi, n_nodes=nodes)
        )
        err = float(np.max(np.abs(vals - ref))) / ref_scale
        rows.append(f"contour,{nodes},{dt / n_pts * 1e9:.17g},{err:.17g},0")
    write_bytes(args.out, [("\n".join(rows) + "\n").encode()])
    return EXIT_OK


# ---------------------------------------------------------------------------- plot


def cmd_plot(args) -> int:
    material = _load_material(args.material)
    ext = extend(material)
    mi = _parse_multi_index(args.multi_index)
    _check_degrees("--L", [args.L], mi.order, "the order of --multi-index")
    grid = _parse_grid(args.grid)
    i, j = (v - 1 for v in _parse_values("--component", args.component, count=2))
    if not (0 <= i < ext.field_dim and 0 <= j < ext.field_dim):
        raise ValueError(f"--component {args.component}: indices must lie in 1..{ext.field_dim}")
    base = base_coefficients(ext, args.L + mi.order)
    fld = sample_sphere(derive_multi(base, mi).truncated(args.L), *grid)
    name = material.name.translate({ord("/"): "_", ord("\\"): "_"})  # makes no directory
    out = args.out or Path(f"plot_{name}_{_mi_tag(mi.astuple())}.csv")
    export_field_csv(fld, i, j, out)
    print(f"wrote {grid[0] * grid[1]} rows to {out}")
    if args.mesh:
        export_field_mesh(fld, i, j, args.mesh)
        print(f"wrote mesh to {args.mesh}")
    return EXIT_OK


# ----------------------------------------------------------------------- materials


def cmd_materials(args) -> int:
    # "show", the only action; a material that `build` refuses is not shown
    material = _load_material(args.name)
    violations = validate(material)
    if violations:
        raise MaterialValidationError(violations)
    print(format_material(material))
    return EXIT_OK


# options read by more than one sub-command; each declares only those it reads
_SHARED = {
    "--material": dict(required=True, help="builtin name or JSON path"),
    "--L": dict(type=int, default=40, help="series truncation degree"),
    "--tables-dir": dict(help=f"default: ${ENV_TABLES_DIR}, else ./tables"),
    "--out": dict(type=Path),
    "--multi-index": dict(default="0,0,0"),
}


def _add_shared(p, *flags):
    for flag in flags:
        p.add_argument(flag, **_SHARED[flag])


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; `main` dispatches
    sub-command NAME to the module's `cmd_NAME`."""
    ap = argparse.ArgumentParser(
        prog="fundsol",
        description="Fundamental-solution kernels from spherical-harmonics tables",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="precompute coefficient tables")
    _add_shared(p, "--material", "--L", "--tables-dir")
    p.add_argument("--order", type=int, default=0, help="max total derivative order")

    p = sub.add_parser("eval", help="evaluate kernels at points from a CSV")
    _add_shared(p, "--material", "--L", "--tables-dir", "--out", "--multi-index")
    p.add_argument("--points", required=True, help="CSV of x,y,z rows (meters)")

    p = sub.add_parser("sweep", help="convergence sweep against the contour oracle")
    _add_shared(p, "--out", "--multi-index")
    cases = p.add_mutually_exclusive_group(required=True)
    cases.add_argument("--material", help=_SHARED["--material"]["help"])
    cases.add_argument("--zener-list", help="sweep cubic anisotropy ratios instead of one material")
    p.add_argument("--L-list", default="8,16,24,32,40")
    p.add_argument("--grid", default="24x48")
    p.add_argument("--nodes", type=int, default=512, help="contour oracle nodes")

    p = sub.add_parser(
        "bench", help="series vs contour timing at matched accuracy (median of 5 runs each)"
    )
    _add_shared(p, "--material", "--out", "--multi-index")
    p.add_argument("--L-list", default="10,20,40")
    p.add_argument("--nodes-list", default="16,32,64,128")
    p.add_argument("--points-count", type=int, default=512)
    p.add_argument("--seed", type=int, default=42)

    p = sub.add_parser("plot", help="spherical amplitude-plot CSV / mesh export")
    _add_shared(p, "--material", "--L", "--out", "--multi-index")
    p.add_argument("--grid", default="64x128")
    p.add_argument("--component", default="1,1")
    p.add_argument("--mesh", default=None, help="also write a Wavefront mesh here")

    p = sub.add_parser("materials", help="inspect the material database")
    p.add_argument("action", choices=["show"])
    p.add_argument("name")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # looked up at call time, so a replaced cmd_* attribute is the one called
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except MaterialValidationError as exc:
        print("error: material validation failed:", file=sys.stderr)
        for v in exc.violations:
            print(f"  - {v}", file=sys.stderr)
        return EXIT_INVALID
    except SingularSymbolError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    except TableHashMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_HASH
    except SingularPointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_POINT
    except (FundsolError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
