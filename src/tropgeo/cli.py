"""Command line front door for the min-plus geometry toolkit.

Each command is one row of ``COMMANDS``: its path, help, arguments and
handler.  ``main`` builds the parser of only the row argv names; it builds
every row of a group whose leaf is missing or bad, and every row for
``--help`` or a bad command.  Each command returns one header record, its
item records and the renderer of its text; ``--format records`` prints the
records as ``key=value`` blocks and the text format is rendered from them.
A command makes every library call and check before it returns, so a
failing command writes nothing to stdout; the records and text lines are
then written as they come, so a listing holds little more than its library
result.  Global flags come before the subcommand:
``tropgeo --format records norm -- -3,-2,1``.  Exit codes: 0 success,
1 domain violation, 2 usage or parse failure, 3 verification failure.
"""

import argparse
import math
import os
import sys
from itertools import chain, islice

# commands call the library through the package, which loads a module on
# first use, so each command loads only the modules it runs
import tropgeo as tg
from .core import (
    DEFAULT_EPS,
    DimensionMismatch,
    ParseError,
    TropgeoError,
    _as_radius,
    check_eps,
    format_number,
    format_point,
    parse_point,
    parse_projective,
)


def _bool_text(v: bool) -> str:
    return "true" if v else "false"


# the entries of the library's own listed points: -0.0 prints "0" too
_TOKENS = {0: "0", 1: "1", -1: "-1"}


def _own_point(p) -> str:
    """format_point without its check, for a point the library built (a
    vertex, a basis vector, a neighbour): any entry outside the table sends
    the point to format_number."""
    try:
        return ",".join(map(_TOKENS.__getitem__, p))
    except KeyError:
        return ",".join(map(format_number, p))


def _emit(args, head, items, text):
    """Write the header record and then the item records, or the text lines
    ``text(head, items)`` renders from them, as they come.

    The command has made every library call and check before this runs, so
    only formatting is left, and a failing command has written nothing."""
    if args.format == "records":
        def block(rec):
            return "".join(["%s=%s\n" % kv for kv in rec.items()])

        chunks = chain([block(head)], ("\n" + block(rec) for rec in items))
    else:
        chunks = (line + "\n" for line in text(head, items))
    _write(sys.stdout, chunks)


def _write(out, chunks):
    """Write an iterator of strings to out, 256 a write, where an unbuffered
    stream (python -u) would make one system call a string."""
    for first in chunks:
        out.write("".join(chain([first], islice(chunks, 255))))


# Text renderers: each turns a command's header and item records into its
# text lines.


def _answer(head, items):
    """The single value or boolean result of a one-answer command."""
    return [head["value"] if "value" in head else head["result"]]


def _fields(head, items):
    """One ``key: value`` line per field of the header record."""
    return ["%s: %s" % kv for kv in head.items() if kv[0] != "op"]


def _items(head, items):
    """One line per item record: its last field."""
    return (list(rec.values())[-1] for rec in items)


def _parse_any(text: str):
    """Comma text is a point (projective=False); colon text is projective."""
    if ":" in text:
        return parse_projective(text), True
    return parse_point(text), False


def _read_points_file(path: str):
    try:
        fh = open(path)
    except OSError as exc:
        raise ParseError("cannot read %s: %s" % (path, exc)) from None
    with fh:
        pts = []
        for line in fh:
            s = line.strip()
            if not s or s.startswith("#"):
                continue
            pts.append(parse_point(s))
    return pts


def _gather_points(args):
    pts = [parse_point(t) for t in args.points]
    if args.file:
        pts.extend(_read_points_file(args.file))
    if not pts:
        raise ParseError("no points given (pass them as arguments or via --file)")
    return pts


def _region_records(region):
    for i in range(region.dim):
        yield {
            "kind": "bound",
            "i": i + 1,
            "lower": format_number(region.lower[i]),
            "upper": format_number(region.upper[i]),
        }
    for i in range(region.dim):
        for j in range(region.dim):
            if i != j:
                yield {
                    "kind": "diff",
                    "i": i + 1,
                    "j": j + 1,
                    "lower": format_number(region.diff_lb[i][j]),
                }


def _region_text(head, items):
    yield "dim: %d" % head["dim"]
    for rec in items:
        if rec["kind"] == "bound":
            yield "%s <= x%d <= %s" % (rec["lower"], rec["i"], rec["upper"])
        else:
            yield "x%d - x%d >= %s" % (rec["i"], rec["j"], rec["lower"])


def _require_text(args):
    if args.format in ("csv", "svg"):
        raise ParseError("--format %s is only available for honeycomb plot2d" % args.format)


# Commands: each returns its header record, an iterable of its item records,
# the renderer of its text, and an exit code when that is not 0.


def _lp_text(head, items):
    return ["trop: %s" % head["value"], "l1: %s" % head["l1"], "linf: %s" % head["linf"]]


def cmd_dist(args):
    x, px = _parse_any(args.x)
    y, py = _parse_any(args.y)
    if px != py:
        raise ParseError("mix of projective and plain coordinates")
    if px:
        return {"op": "dist_proj", "value": format_number(tg.dist_proj(x, y))}, (), _answer
    rec = {"op": "dist", "value": format_number(tg.dist(x, y))}
    if not args.lp:
        return rec, (), _answer
    d1, dinf = tg.lp_distances(x, y)
    rec["l1"] = format_number(d1)
    rec["linf"] = format_number(dinf)
    return rec, (), _lp_text


def cmd_norm(args):
    x, proj = _parse_any(args.x)
    value = tg.norm_proj(x) if proj else tg.norm(x)
    op = "norm_proj" if proj else "norm"
    return {"op": op, "value": format_number(value)}, (), _answer


def _segment_text(head, items):
    yield "apex: %s" % head["apex"]
    for rec in items:
        yield "vertex: %s" % rec["point"]
    yield "length: %s" % head["length"]


def cmd_segment(args):
    seg = tg.segment(parse_point(args.x), parse_point(args.y), mode=args.mode)
    head = {
        "op": "segment",
        "mode": seg.mode,
        "apex": format_point(seg.apex),
        "length": format_number(seg.length()),
    }
    items = [
        {"kind": "vertex", "index": i, "point": format_point(v)}
        for i, v in enumerate(seg.vertices)
    ]
    return head, items, _segment_text


def cmd_length(args):
    value = tg.polyline_length(_gather_points(args))
    return {"op": "length", "value": format_number(value)}, (), _answer


def cmd_circle_length(args):
    # Ball's radius rule, which ball hrep applies, without loading ball
    r = _as_radius(args.radius)
    center = parse_point(args.center) if args.center else (0.0, 0.0)
    if len(center) != 2:
        raise DimensionMismatch("circles are planar only")
    cx, cy = center

    def circle(t):
        ang = 2.0 * math.pi * t
        return (cx + r * math.cos(ang), cy + r * math.sin(ang))

    value = tg.curve_length(circle, tol=args.tol)
    rec = {"op": "circle-length", "radius": format_number(r), "value": format_number(value)}
    return rec, (), _answer


def cmd_geodesic_check(args):
    ok = tg.is_geodesic(_gather_points(args), eps=args.eps)
    return {"op": "geodesic-check", "result": _bool_text(ok)}, (), _answer


def cmd_between(args):
    ok = tg.is_between(
        parse_point(args.x), parse_point(args.z), parse_point(args.y), eps=args.eps
    )
    return {"op": "between", "result": _bool_text(ok)}, (), _answer


def cmd_hull(args):
    region = tg.hull(_gather_points(args), eps=args.eps)
    return {"op": "region", "dim": region.dim}, _region_records(region), _region_text


def cmd_region_contains(args):
    region = tg.hull(_read_points_file(args.file), eps=args.eps)
    ok = region.contains(parse_point(args.point), eps=args.eps)
    return {"op": "region-contains", "result": _bool_text(ok)}, (), _answer


def cmd_classify2d(args):
    lower = (args.a, args.b)
    upper = (args.a2, args.b2)
    diff = ((0.0, -args.c2), (args.c, 0.0))
    region = tg.GeodesicRegion(lower, upper, diff, eps=args.eps)
    shape = tg.classify2d(region, eps=args.eps)
    rec = {
        "op": "classify2d",
        "kind": shape.kind,
        "edges": " ".join(tg.EDGE_NAMES[k] for k in shape.present_edges),
        "edge_count": shape.edge_count,
        "canonical_id": shape.canonical_id,
    }
    return rec, (), _fields


def cmd_ball_vertices(args):
    verts = tg.vertices(args.dim)
    head = {"op": "vertices", "dim": args.dim, "count": len(verts)}
    items = ({"kind": "vertex", "index": i, "point": _own_point(v)} for i, v in enumerate(verts))
    return head, items, _items


def cmd_ball_facets(args):
    fs = tg.facets(args.dim)
    items = (
        {"kind": f.kind, "i": f.i, "opposite": str(tg.opposite(f)),
         **({} if f.j is None else {"j": f.j})}
        for f in fs
    )

    def text(head, items):
        # each record beside the facet it was made from
        return ("%s opposite %s" % (f, rec["opposite"]) for f, rec in zip(fs, items))

    return {"op": "facets", "dim": args.dim, "count": len(fs)}, items, text


def cmd_ball_hrep(args):
    from .ball import _hrep_dim

    # hrep's dimension check, before (0.0,) * dim is built
    _hrep_dim(args.dim)
    center = parse_point(args.center) if args.center else (0.0,) * args.dim
    if len(center) != args.dim:
        raise ParseError("--center does not match --dim")
    region = tg.hrep(tg.Ball(center, args.radius), eps=args.eps)
    return {"op": "region", "dim": region.dim}, _region_records(region), _region_text


def _decompose_text(head, items):
    return [
        "point: %s" % head["point"],
        "orthant: %s" % head["orthant"],
        "orthant_coords: omit=%d %s" % (head["orthant_omit"], head["orthant_values"]),
        "minkowski: %s" % head["minkowski"],
        "generators: %s" % head["generators"],
        "generator_coeffs: %s" % head["generator_coeffs"],
        "recomposed: %s" % head["recomposed"],
        "max_error: %s" % head["max_error"],
    ]


def cmd_ball_decompose(args):
    x = parse_point(args.point)
    mk = tg.minkowski_coeffs(x, eps=args.eps)
    gc = tg.generator_coeffs(x, eps=args.eps)
    gens = tg.neg_units(len(x))
    recomposed = tg.eval_trop_combination(gc, gens)
    err = max(
        max(abs(a - b) for a, b in zip(recomposed, x)),
        max(abs(a - b) for a, b in zip(tg.zonotope_point(mk), x)),
    )
    oc = tg.to_orthant_coords(tg.embed(x))
    rec = {
        "op": "decompose",
        "point": format_point(x),
        "orthant": ",".join(str(k) for k in tg.orthant_of(x, eps=args.eps)),
        "orthant_omit": oc.omitted_index,
        "orthant_values": format_point(oc.values),
        "minkowski": format_point(mk),
        "generators": " ".join(map(format_point, gens)),
        "generator_coeffs": format_point(gc),
        "recomposed": format_point(recomposed),
        "max_error": format_number(err),
    }
    return rec, (), _decompose_text


def cmd_sphere_poles(args):
    x = parse_point(args.point)
    d_plus, d_minus = tg.pole_distances(x, eps=args.eps)
    rec = {
        "op": "poles",
        "point": format_point(x),
        "facets": " ".join(str(f) for f in tg.facet_of(x, eps=args.eps)),
        "d_plus": format_number(d_plus),
        "d_minus": format_number(d_minus),
    }
    return rec, (), _fields


def cmd_sphere_angle(args):
    value = tg.angle_2d(
        parse_point(args.at), parse_point(args.v1), parse_point(args.v2), eps=args.eps
    )
    return {"op": "angle", "value": format_number(value)}, (), _answer


def cmd_sphere_distance(args):
    center = parse_point(args.center) if args.center else (0.0, 0.0)
    value = tg.intrinsic_distance_2d(
        center, parse_point(args.x), parse_point(args.y), eps=args.eps
    )
    return {"op": "sphere-distance", "value": format_number(value)}, (), _answer


def cmd_sphere_diametral(args):
    center = parse_point(args.center) if args.center else None
    p = parse_point(args.p)
    q = parse_point(args.q)
    b = tg.Ball(center if center else (0.0,) * len(p), args.radius)
    ok = tg.is_diametral_pair(b, p, q, eps=args.eps)
    return {"op": "diametral", "result": _bool_text(ok)}, (), _answer


def cmd_honeycomb_locate(args):
    res = tg.locate(parse_point(args.point), eps=args.eps)
    rec = {
        "op": "locate",
        "center": format_point(res.center),
        "status": res.status,
        "distance": format_number(res.distance),
        "all_centers": " ".join(format_point(c) for c in res.all_centers),
    }
    return rec, (), _fields


def cmd_honeycomb_verify(args):
    report = tg.verify_tiling(
        args.dim,
        box_halfwidth=args.box,
        samples=args.samples,
        seed=args.seed,
        eps=args.eps,
    )
    rec = {
        "op": "verify",
        "n": report.n,
        "samples": report.samples,
        "box": format_number(report.box_halfwidth),
        "seed": report.seed,
        "interior": report.interior,
        "boundary": report.boundary,
        "mismatches": report.mismatches,
    }
    return rec, (), _fields, 3 if report.mismatches else 0


def cmd_honeycomb_neighbors(args):
    from .honeycomb import as_center

    # as_center keeps the entries ints, so large centers print exactly
    center = as_center(parse_point(args.center))
    ns = tg.neighbors(center, eps=args.eps)
    head = {"op": "neighbors", "center": format_point(center), "count": len(ns)}
    items = [{"kind": "neighbor", "index": i, "center": _own_point(c)} for i, c in enumerate(ns)]
    return head, items, _items


def _basis_text(head, items):
    return (
        "%s: %s" % (rec["kind"], rec["vector"]) if "vector" in rec
        else "same_lattice: %s" % rec["same_lattice"]
        for rec in items
    )


def cmd_honeycomb_basis(args):
    basis = tg.lattice_basis(args.dim)
    items = [{"kind": "basis", "index": i, "vector": _own_point(v)} for i, v in enumerate(basis)]
    if args.dim == 2:
        items += [{"kind": "hex_basis", "vector": _own_point(v)} for v in tg.HEX_BASIS_2D]
        same = tg.spans_same_lattice(basis, tg.HEX_BASIS_2D)
        items.append({"kind": "check", "same_lattice": _bool_text(same)})
    return {"op": "basis", "dim": args.dim}, items, _basis_text


def _render_svg(rings, w):
    """The svg lines of the rings, each with its newline."""
    pad = 1.6
    lo = -(w + pad)
    size = 2 * (w + pad)
    yield (
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="%g %g %g %g" '
        'width="640" height="640">\n' % (lo, lo, size, size)
    )
    yield '<rect x="%g" y="%g" width="%g" height="%g" fill="white"/>\n' % (lo, lo, size, size)
    for center, ring in rings:
        pts = " ".join("%g,%g" % (x, -y) for x, y in ring)
        yield '<polygon points="%s" fill="#dbe7f3" stroke="#444" stroke-width="0.06"/>\n' % pts
        yield '<circle cx="%g" cy="%g" r="0.08" fill="#444"/>\n' % (center[0], -center[1])
    yield "</svg>\n"


def _render_rings_csv(rings):
    """One csv line per ring, with its newline: x1,y1,x2,y2,..."""
    for _, ring in rings:
        yield ",".join(format_number(v) for xy in ring for v in xy) + "\n"


def cmd_honeycomb_plot2d(args):
    fmt = args.format
    if fmt == "text":
        fmt = "svg"
    if fmt not in ("svg", "csv"):
        raise ParseError("plot2d supports --format svg or csv")
    rings = tg.hexagon_rings(args.box)
    lines = _render_svg(rings, args.box) if fmt == "svg" else _render_rings_csv(rings)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                _write(fh, lines)
        except OSError as exc:
            raise ParseError("cannot write %s: %s" % (args.out, exc)) from None
    else:
        _write(sys.stdout, lines)


def _a(*flags, **kw):
    """One argument of a command: the flags and keywords of ``add_argument``."""
    return flags, kw


def _points(**file_kw):
    """A point set: points as arguments, and more, one a line, in --file."""
    return [_a("points", nargs="*"), _a("--file", **file_kw)]


_DIM = _a("--dim", type=int, required=True)
_POINT = _a("--point", required=True)
_RADIUS = _a("--radius", type=float, default=1.0)

GLOBAL_ARGS = (
    _a("--eps", type=float, default=DEFAULT_EPS, help="comparison tolerance"),
    _a("--seed", type=int, default=0, help="seed for randomized subcommands"),
    _a("--format", choices=("text", "records", "csv", "svg"), default="text",
       help="output format (csv/svg only for honeycomb plot2d)"),
)

# Every leaf command, once: its path, help, arguments and handler.  A path
# of two names puts the leaf in the group named first.
COMMANDS = (
    (("dist",), "distance between two points (colon form: projective)",
     [_a("x"), _a("y"), _a("--lp", action="store_true", help="also print l1 and linf distances")],
     cmd_dist),
    (("norm",), "distance to the origin", [_a("x")], cmd_norm),
    (("segment",), "canonical shortest chain between two points",
     [_a("x"), _a("y"), _a("--mode", choices=("min", "max"), default="min")], cmd_segment),
    (("length",), "length of a polyline",
     _points(help="one comma-separated point per line, # comments"), cmd_length),
    (("circle-length",), "min-plus length of a Euclidean circle",
     [_a("--radius", type=float, required=True), _a("--tol", type=float, default=1e-6),
      _a("--center", help="circle center, default 0,0")], cmd_circle_length),
    (("geodesic-check",), "is the polyline a geodesic?", _points(), cmd_geodesic_check),
    (("between",), "does z lie between x and y?", [_a("x"), _a("z"), _a("y")], cmd_between),
    (("hull",), "smallest geodesically closed region containing points", _points(), cmd_hull),
    (("region-contains",), "membership in the hull of a point file",
     [_a("--file", required=True), _POINT], cmd_region_contains),
    (("classify2d",), "shape type of a planar bound system",
     [_a("--" + name + end, type=float, required=True, help="%s bound on %s" % (side, var))
      for name, var in (("a", "x"), ("b", "y"), ("c", "y-x"))
      for end, side in (("", "lower"), ("2", "upper"))], cmd_classify2d),
    (("ball", "vertices"), "vertices of the unit ball", [_DIM], cmd_ball_vertices),
    (("ball", "facets"), "facets with their opposites", [_DIM], cmd_ball_facets),
    (("ball", "hrep"), "ball as a bound system", [_DIM, _a("--center"), _RADIUS], cmd_ball_hrep),
    (("ball", "decompose"), "orthant chart and zonotope splits of a ball point", [_POINT],
     cmd_ball_decompose),
    (("sphere", "poles"), "facets and pole distances of a sphere point", [_POINT],
     cmd_sphere_poles),
    (("sphere", "angle"), "angle between two rays (planar)",
     [_a("--at", default="0,0"), _a("--v1", required=True), _a("--v2", required=True)],
     cmd_sphere_angle),
    (("sphere", "distance"), "arc distance between planar sphere points",
     [_a("--x", required=True), _a("--y", required=True), _a("--center")], cmd_sphere_distance),
    (("sphere", "diametral"), "do two sphere points realize the diameter?",
     [_a("--p", required=True), _a("--q", required=True), _a("--center"), _RADIUS],
     cmd_sphere_diametral),
    (("honeycomb", "locate"), "which tiling ball contains a point", [_POINT],
     cmd_honeycomb_locate),
    (("honeycomb", "verify"), "randomized covering/disjointness check",
     [_DIM, _a("--samples", type=int, default=100_000), _a("--box", type=float, default=10.0)],
     cmd_honeycomb_verify),
    (("honeycomb", "neighbors"), "centers sharing a facet with a given center",
     [_a("--center", required=True)], cmd_honeycomb_neighbors),
    (("honeycomb", "basis"), "a lattice basis for the tiling centers", [_DIM],
     cmd_honeycomb_basis),
    (("honeycomb", "plot2d"), "draw the planar tiling (svg or csv)",
     [_a("--box", type=float, required=True), _a("--out", help="output file; stdout when omitted")],
     cmd_honeycomb_plot2d),
)

GROUPS = {
    "ball": "unit ball combinatorics",
    "sphere": "intrinsic geometry of the unit sphere",
    "honeycomb": "the tiling of space by unit balls",
}


def _named_path(argv) -> tuple:
    """The path of the row argv names, or of the group whose leaf is missing or
    bad; ``()``, for every row, unless the command comes right after the global
    options and their values, as a name after ``--help`` or a bad command does not."""
    i = 0
    options = [flags[0] for flags, _ in GLOBAL_ARGS]  # each takes a value
    while i < len(argv) and argv[i].partition("=")[0] in options:
        i += 1 if "=" in argv[i] else 2
    words = tuple(argv[i:i + 2])
    for path, *_ in COMMANDS:
        if words[:len(path)] == path:
            return path
    return words[:1] if words and words[0] in GROUPS else ()


def build_parser(path=()) -> argparse.ArgumentParser:
    """The parser of the rows under ``path``, by default of every row.

    A level that builds one of its commands still names them all in its
    usage, so help and usage errors print as on the full parser."""
    parser = argparse.ArgumentParser(
        prog="tropgeo",
        description="Min-plus metric geometry: distances, geodesics, balls, tilings.",
    )
    for flags, kw in GLOBAL_ARGS:
        parser.add_argument(*flags, **kw)

    def subparsers(owner, group):
        names = dict.fromkeys(r[0][len(group)] for r in COMMANDS if r[0][:len(group)] == group)
        return owner.add_subparsers(
            dest="_".join(group + ("command",)),
            required=True,
            metavar="{%s}" % ",".join(names) if len(path) > len(group) else None,
        )

    levels = {(): subparsers(parser, ())}
    for leaf, summary, args, handler in COMMANDS:
        if leaf[:len(path)] == path:
            group = leaf[:-1]
            if group not in levels:
                owner = levels[()].add_parser(group[0], help=GROUPS[group[0]])
                levels[group] = subparsers(owner, group)
            p = levels[group].add_parser(leaf[-1], help=summary)
            for flags, kw in args:
                p.add_argument(*flags, **kw)
            p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(_named_path(argv)).parse_args(argv)
    try:
        check_eps(args.eps)
    except TropgeoError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    code = 0
    try:
        if args.handler is cmd_honeycomb_plot2d:
            cmd_honeycomb_plot2d(args)
        else:
            _require_text(args)
            head, items, text, *rest = args.handler(args)
            code = rest[0] if rest else 0
            _emit(args, head, items, text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout, as ``| head`` does: send what is left,
        # the exit's flush included, to devnull and exit as if written
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except ParseError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except TropgeoError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    return code


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
