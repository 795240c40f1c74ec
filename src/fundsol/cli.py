"""Command-line surface: build tables, evaluate kernels, run sweeps and benchmarks.

Exit codes are stable and documented:

    0  success
    2  invalid input (material validation failure, bad arguments)
    3  singular operator symbol
    4  coefficient-table / material hash mismatch
    5  invalid evaluation point (zero length), message names the row

The default tables directory is taken from the FUNDSOL_TABLES_DIR environment
variable when --tables-dir is not given.  All floating-point output is
printed with 17 significant digits so reruns can be diffed byte for byte.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import reference
from .errors import (
    FundsolError,
    MaterialValidationError,
    SingularPointError,
    SingularSymbolError,
    TableHashMismatchError,
)
from .evaluator import evaluate_batch, export_field_csv, export_field_mesh, sample_sphere
from .expansion import (
    DEFAULT_MAX_ORDER,
    MultiIndex,
    base_coefficients,
    derive_multi,
    derive_tree,
    load_table,
    make_quadrature,
    save_table,
)
from .materials import builtin, extend, format_material, load_material_json, zener_family

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_SINGULAR = 3
EXIT_HASH = 4
EXIT_BAD_POINT = 5

ENV_TABLES_DIR = "FUNDSOL_TABLES_DIR"


@dataclass
class RunConfig:
    """Resolved options shared by the table-consuming commands."""

    material: object
    ext: object
    L: int
    quad_degree: int | None
    tables_dir: Path
    seed: int = 42
    max_order: int = DEFAULT_MAX_ORDER
    out: Path | None = None


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _load_material(spec: str):
    if spec.endswith(".json") or os.path.sep in spec or os.path.exists(spec):
        return load_material_json(spec)
    return builtin(spec)


def _resolve_config(args) -> RunConfig:
    material = _load_material(args.material)
    ext = extend(material)
    tables_dir = Path(
        args.tables_dir
        or os.environ.get(ENV_TABLES_DIR)
        or (Path.cwd() / "tables")
    )
    return RunConfig(
        material=material,
        ext=ext,
        L=args.L,
        quad_degree=getattr(args, "quad_degree", None),
        tables_dir=tables_dir,
        seed=getattr(args, "seed", 42),
        max_order=getattr(args, "max_order", DEFAULT_MAX_ORDER),
        out=Path(args.out) if getattr(args, "out", None) else None,
    )


def table_path(tables_dir: Path, material_hash: str, L: int, mi) -> Path:
    i1, i2, i3 = mi
    return tables_dir / f"{material_hash[:16]}_L{L}_d{i1}{i2}{i3}.fsct"


def _parse_multi_index(text: str) -> MultiIndex:
    parts = [p for p in text.replace(",", " ").split() if p]
    if len(parts) != 3:
        raise ValueError(f"multi-index must have three entries, got {text!r}")
    return MultiIndex(*(int(p) for p in parts))


def _read_points(path) -> np.ndarray:
    rows = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            try:
                rows.append([float(p) for p in parts[:3]])
            except ValueError:
                if lineno == 1:
                    continue  # header row
                raise ValueError(f"unparsable point row {lineno}: {line!r}")
    return np.asarray(rows, dtype=np.float64).reshape(-1, 3)


# --------------------------------------------------------------------------- build


def cmd_build(args) -> int:
    cfg = _resolve_config(args)
    order = args.order
    if order > cfg.max_order:
        print(
            f"error: --order {order} exceeds --max-order {cfg.max_order}",
            file=sys.stderr,
        )
        return EXIT_INVALID
    cfg.tables_dir.mkdir(parents=True, exist_ok=True)
    base_degree = cfg.L + order
    quad = make_quadrature(cfg.quad_degree or (2 * base_degree + 12))

    t0 = time.perf_counter()
    base = base_coefficients(cfg.ext, base_degree, quad)
    base_time = time.perf_counter() - t0
    print(
        f"base table: L={base_degree} nodes={quad.node_count} "
        f"build={base_time:.3f}s"
    )
    # each table is one ladder step from its parent, in depth-first order
    t0 = time.perf_counter()
    for mi, tab in derive_tree(base, order, max_order=cfg.max_order):
        tab = tab.truncated(cfg.L)
        dt = time.perf_counter() - t0
        path = table_path(cfg.tables_dir, cfg.ext.material_hash, cfg.L, mi.astuple())
        save_table(tab, path)
        count = sum(2 * l + 1 for l in range(tab.max_degree + 1))
        print(
            f"table {mi.astuple()}: L={tab.max_degree} entries={count} "
            f"derive={dt:.3f}s -> {path}"
        )
        t0 = time.perf_counter()
    return EXIT_OK


# ---------------------------------------------------------------------------- eval


def cmd_eval(args) -> int:
    cfg = _resolve_config(args)
    mi = _parse_multi_index(args.multi_index)
    path = table_path(cfg.tables_dir, cfg.ext.material_hash, cfg.L, mi.astuple())
    if not path.exists():
        print(f"error: table {path} not found; run build first", file=sys.stderr)
        return EXIT_INVALID
    table = load_table(path, expected_material_hash=cfg.ext.material_hash)
    points = _read_points(args.points)
    values = evaluate_batch(table, points)
    n = table.field_dim
    lines = ["x,y,z,i,j,value,imag_residual"]
    for p, val in enumerate(values):
        x, y, z = points[p]
        for i in range(n):
            for j in range(n):
                lines.append(
                    f"{_fmt(x)},{_fmt(y)},{_fmt(z)},{i + 1},{j + 1},"
                    f"{_fmt(val.matrix[i, j])},{_fmt(val.imag_residual)}"
                )
    _write_lines(cfg.out, lines)
    return EXIT_OK


def _write_lines(out: Path | None, lines) -> None:
    text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text, encoding="utf-8")


# --------------------------------------------------------------------------- sweep


def _convergence_rows(ext, L_list, order_mi, grid, n_nodes, label):
    base_degree = max(L_list) + order_mi.order
    base = base_coefficients(ext, base_degree)
    derived = derive_multi(base, order_mi)
    ref_grid = sample_sphere(derived.truncated(L_list[0]), *grid)
    if order_mi.order == 0:
        ref = reference.unit_circle_field(ext, ref_grid, order=0, n_nodes=n_nodes)
    elif order_mi.order == 1:
        axis = order_mi.astuple().index(1) + 1
        ref = reference.unit_circle_field(ext, ref_grid, order=1, axis=axis, n_nodes=n_nodes)
    else:
        raise ValueError("sweep supports derivative orders 0 and 1")
    rows = []
    for L in L_list:
        test = sample_sphere(derived.truncated(L), *grid)
        rep = reference.error_over_sphere(test, ref, truncation=L, oracle_id="unit-circle")
        n = rep.e_s1.shape[0]
        for i in range(n):
            for j in range(n):
                rows.append(f"{label},{L},{i + 1},{j + 1},{_fmt(rep.e_s1[i, j])}")
    return rows


def cmd_sweep(args) -> int:
    cfg = _resolve_config(args)
    L_list = [int(v) for v in args.L_list.split(",")]
    if L_list != sorted(L_list):
        print("error: --L-list must be ascending", file=sys.stderr)
        return EXIT_INVALID
    mi = _parse_multi_index(args.multi_index)
    grid = _parse_grid(args.grid)
    rows = ["case,L,i,j,e_S1"]
    if args.zener_list:
        for A in (float(v) for v in args.zener_list.split(",")):
            ext = extend(zener_family(A))
            rows += _convergence_rows(ext, L_list, mi, grid, args.nodes, f"A={A:g}")
    else:
        rows += _convergence_rows(
            cfg.ext, L_list, mi, grid, args.nodes, cfg.material.name
        )
    _write_lines(cfg.out, rows)
    return EXIT_OK


def _parse_grid(text: str) -> tuple[int, int]:
    a, _, b = text.partition("x")
    return int(a), int(b)


# --------------------------------------------------------------------------- bench


def cmd_bench(args) -> int:
    cfg = _resolve_config(args)
    rng = np.random.default_rng(cfg.seed)
    n_pts = args.points_count
    pts = rng.normal(size=(n_pts, 3))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    warmup = max(1, args.warmup)

    L_list = [int(v) for v in args.L_list.split(",")]
    node_list = [int(v) for v in args.nodes_list.split(",")]
    ref_nodes = 512
    ref = np.stack([reference.unit_circle(cfg.ext, p, n_nodes=ref_nodes) for p in pts])
    ref_scale = np.max(np.abs(ref))

    rows = ["method,param,ns_per_point,max_rel_error,setup_seconds"]
    base_degree = max(L_list)
    t0 = time.perf_counter()
    base = base_coefficients(cfg.ext, base_degree)
    build_time = time.perf_counter() - t0
    for L in L_list:
        tab = base.truncated(L)
        for _ in range(warmup):
            evaluate_batch(tab, pts[: min(64, n_pts)])
        t0 = time.perf_counter()
        vals = evaluate_batch(tab, pts)
        dt = time.perf_counter() - t0
        err = max(
            float(np.max(np.abs(v.matrix - ref[p]))) for p, v in enumerate(vals)
        ) / ref_scale
        rows.append(
            f"series,{L},{_fmt(dt / n_pts * 1e9)},{_fmt(err)},{_fmt(build_time)}"
        )
    for nodes in node_list:
        for _ in range(warmup):
            reference.unit_circle(cfg.ext, pts[0], n_nodes=nodes)
        t0 = time.perf_counter()
        vals = [reference.unit_circle(cfg.ext, p, n_nodes=nodes) for p in pts]
        dt = time.perf_counter() - t0
        err = float(np.max(np.abs(np.stack(vals) - ref))) / ref_scale
        rows.append(f"contour,{nodes},{_fmt(dt / n_pts * 1e9)},{_fmt(err)},0")
    _write_lines(cfg.out, rows)
    return EXIT_OK


# ---------------------------------------------------------------------------- plot


def cmd_plot(args) -> int:
    cfg = _resolve_config(args)
    mi = _parse_multi_index(args.multi_index)
    grid = _parse_grid(args.grid)
    base = base_coefficients(cfg.ext, cfg.L + mi.order)
    table = derive_multi(base, mi).truncated(cfg.L)
    fld = sample_sphere(table, *grid)
    i, j = (int(v) - 1 for v in args.component.split(","))
    out = cfg.out or Path(f"plot_{cfg.material.name}_{mi.astuple()}.csv")
    export_field_csv(fld, i, j, out)
    print(f"wrote {grid[0] * grid[1]} rows to {out}")
    if args.mesh:
        export_field_mesh(fld, i, j, args.mesh)
        print(f"wrote mesh to {args.mesh}")
    return EXIT_OK


# ----------------------------------------------------------------------- materials


def cmd_materials(args) -> int:
    if args.action == "show":
        print(format_material(_load_material(args.name)))
        return EXIT_OK
    print(f"error: unknown materials action {args.action!r}", file=sys.stderr)
    return EXIT_INVALID


def _add_common(p, with_L=True):
    p.add_argument("--material", required=True, help="builtin name or JSON path")
    if with_L:
        p.add_argument("--L", type=int, default=40, help="series truncation degree")
    p.add_argument("--quad-degree", type=int, default=None, dest="quad_degree")
    p.add_argument("--tables-dir", default=None, dest="tables_dir")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", default=None)
    p.add_argument(
        "--max-order", type=int, default=DEFAULT_MAX_ORDER, dest="max_order",
        help="override the derivative-order cap",
    )


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fundsol",
        description="Fundamental-solution kernels from spherical-harmonics tables",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="precompute coefficient tables")
    _add_common(p)
    p.add_argument("--order", type=int, default=0, help="max total derivative order")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("eval", help="evaluate kernels at points from a CSV")
    _add_common(p)
    p.add_argument("--multi-index", default="0,0,0", dest="multi_index")
    p.add_argument("--points", required=True, help="CSV of x,y,z rows (meters)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="convergence sweep against the contour oracle")
    _add_common(p, with_L=False)
    p.add_argument("--L-list", default="8,16,24,32,40", dest="L_list")
    p.add_argument("--multi-index", default="0,0,0", dest="multi_index")
    p.add_argument("--grid", default="24x48")
    p.add_argument("--nodes", type=int, default=512, help="contour oracle nodes")
    p.add_argument("--zener-list", default=None, dest="zener_list",
                   help="sweep cubic anisotropy ratios instead of one material")
    p.set_defaults(func=cmd_sweep, L=40)

    p = sub.add_parser("bench", help="series vs contour timing at matched accuracy")
    _add_common(p, with_L=False)
    p.add_argument("--L-list", default="10,20,40", dest="L_list")
    p.add_argument("--nodes-list", default="16,32,64,128", dest="nodes_list")
    p.add_argument("--points-count", type=int, default=512, dest="points_count")
    p.add_argument("--warmup", type=int, default=1)
    p.set_defaults(func=cmd_bench, L=40)

    p = sub.add_parser("plot", help="spherical amplitude-plot CSV / mesh export")
    _add_common(p)
    p.add_argument("--multi-index", default="0,0,0", dest="multi_index")
    p.add_argument("--grid", default="64x128")
    p.add_argument("--component", default="1,1")
    p.add_argument("--mesh", default=None, help="also write a Wavefront mesh here")
    p.set_defaults(func=cmd_plot)

    p = sub.add_parser("materials", help="inspect the material database")
    p.add_argument("action", choices=["show"])
    p.add_argument("name")
    p.set_defaults(func=cmd_materials)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
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
