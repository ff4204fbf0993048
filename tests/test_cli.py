import argparse
import math
import os
import subprocess
import sys
import tracemalloc
import types
import xml.etree.ElementTree as ET

import pytest

import tropgeo
from tropgeo import cli, geodesy, honeycomb
from tropgeo.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_dist(capsys):
    code, out, _ = run(capsys, "dist", "0,0", "1,2")
    assert code == 0
    assert out == "2\n"


def test_dist_lp(capsys):
    code, out, _ = run(capsys, "dist", "--lp", "0,0", "1,2")
    assert code == 0
    assert out == "trop: 2\nl1: 3\nlinf: 2\n"


def test_dist_projective_colon_form(capsys):
    code, out, _ = run(capsys, "dist", "--", "-3:-2:-1", "0:0:0")
    assert code == 0
    assert out == "2\n"


def test_dist_rejects_mixed_forms(capsys):
    code, _, err = run(capsys, "dist", "0,0", "1:2:0")
    assert code == 2
    assert "error" in err


def test_norm_with_sentinel(capsys):
    code, out, _ = run(capsys, "norm", "--", "-3,-2,1")
    assert code == 0
    assert out == "4\n"


def test_norm_projective(capsys):
    code, out, _ = run(capsys, "norm", "--", "-3:-2:-1")
    assert code == 0
    assert out == "2\n"


def test_records_format(capsys):
    code, out, _ = run(capsys, "--format", "records", "dist", "0,0", "1,2")
    assert code == 0
    assert out == "op=dist\nvalue=2\n"


def test_segment(capsys):
    code, out, _ = run(capsys, "segment", "0,0", "1,2")
    assert code == 0
    assert out.splitlines() == [
        "apex: 0,0",
        "vertex: 0,0",
        "vertex: 1,1",
        "vertex: 1,2",
        "length: 2",
    ]


def test_segment_max_mode(capsys):
    code, out, _ = run(capsys, "segment", "0,0", "1,2", "--mode", "max")
    assert code == 0
    assert "vertex: 0,1" in out.splitlines()


def test_length_from_arguments(capsys):
    code, out, _ = run(capsys, "length", "0,0", "1,1", "1,2")
    assert code == 0
    assert out == "2\n"


def test_length_from_file(tmp_path, capsys):
    f = tmp_path / "pts.txt"
    f.write_text("# a polyline\n0,0\n1,1\n\n1,2\n")
    code, out, _ = run(capsys, "length", "--file", str(f))
    assert code == 0
    assert out == "2\n"


def test_length_without_points_is_usage_error(capsys):
    code, _, err = run(capsys, "length")
    assert code == 2
    assert "no points" in err


def test_missing_file_is_a_parse_error(capsys):
    code, _, err = run(capsys, "length", "--file", "/nonexistent/pts.txt")
    assert code == 2
    assert "cannot read" in err


def test_circle_length(capsys):
    code, out, _ = run(capsys, "circle-length", "--radius", "1")
    assert code == 0
    assert abs(float(out) - (4 + 2 * math.sqrt(2))) < 1e-6


def test_circle_length_rejects_bad_radius(capsys):
    # Ball's radius rule, the one ball hrep applies
    code, _, err = run(capsys, "circle-length", "--radius", "-1")
    assert code == 1
    assert err == "error: radius must be a positive real\n"


@pytest.mark.parametrize("radius", ["nan", "inf", "-inf"])
def test_circle_length_rejects_non_finite_radius(capsys, radius):
    code, out, err = run(capsys, "circle-length", "--radius=" + radius)
    assert (code, out) == (1, "")
    assert err == "error: radius must be a positive real\n"


@pytest.mark.parametrize("center", ["0", "1,2,3"])
def test_circle_length_rejects_a_center_that_is_not_planar(capsys, center):
    code, out, err = run(capsys, "circle-length", "--radius", "1", "--center", center)
    assert (code, out) == (1, "")
    assert err == "error: circles are planar only\n"


def test_circle_length_takes_a_center(capsys):
    # a translate of the circle has the same length
    _, at_origin, _ = run(capsys, "circle-length", "--radius", "2")
    code, out, _ = run(capsys, "circle-length", "--radius", "2", "--center", "1,-3")
    assert (code, out) == (0, at_origin)


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf"])
def test_circle_length_rejects_non_finite_tol(capsys, monkeypatch, tol):
    # the check must run before any refinement, which a NaN tol never stops
    def refine(points):
        raise AssertionError("curve refined before tol was checked")

    monkeypatch.setattr(geodesy, "polyline_length", refine)
    code, out, err = run(capsys, "circle-length", "--radius", "1", "--tol=" + tol)
    assert (code, out) == (1, "")
    assert err == "error: tol must be positive and finite\n"


def test_geodesic_check(capsys):
    code, out, _ = run(capsys, "geodesic-check", "0,0", "1,1", "1,2")
    assert (code, out) == (0, "true\n")
    code, out, _ = run(capsys, "geodesic-check", "0,0", "1,0", "0,1")
    assert (code, out) == (0, "false\n")


def test_between(capsys):
    code, out, _ = run(capsys, "between", "0,0", "1,1", "1,2")
    assert (code, out) == (0, "true\n")


def test_hull_region_output(capsys):
    code, out, _ = run(capsys, "hull", "0,0", "1,2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "dim: 2"
    assert "0 <= x1 <= 1" in lines
    assert "0 <= x2 <= 2" in lines
    assert "x2 - x1 >= 0" in lines
    assert "x1 - x2 >= -1" in lines


def test_region_contains(tmp_path, capsys):
    f = tmp_path / "simplex.txt"
    f.write_text("0,0,0\n1,0,0\n1,1,0\n1,1,1\n")
    code, out, _ = run(capsys, "region-contains", "--file", str(f), "--point", "0.5,0.2,0.1")
    assert (code, out) == (0, "true\n")
    code, out, _ = run(capsys, "region-contains", "--file", str(f), "--point", "0.1,0.5,0.2")
    assert (code, out) == (0, "false\n")


def test_classify2d_hexagon(capsys):
    code, out, _ = run(
        capsys, "classify2d", "--a=-1", "--a2=1", "--b=-1", "--b2=1", "--c=-1", "--c2=1"
    )
    assert code == 0
    lines = out.splitlines()
    assert "kind: polygon" in lines
    assert "edge_count: 6" in lines
    assert "canonical_id: 0" in lines


def test_classify2d_triangle(capsys):
    code, out, _ = run(
        capsys, "classify2d", "--a", "0", "--a2", "1", "--b", "0", "--b2", "1", "--c", "0", "--c2", "1"
    )
    assert code == 0
    assert "edge_count: 3" in out.splitlines()
    assert "canonical_id: 21" in out.splitlines()


def test_classify2d_empty_region_is_domain_error(capsys):
    code, _, err = run(
        capsys, "classify2d", "--a", "0", "--a2", "1", "--b", "0", "--b2", "1", "--c", "2", "--c2", "3"
    )
    assert code == 1
    assert "error" in err


def test_ball_vertices(capsys):
    code, out, _ = run(capsys, "ball", "vertices", "--dim", "2")
    assert code == 0
    assert sorted(out.splitlines()) == sorted(
        ["1,0", "1,1", "0,1", "-1,0", "-1,-1", "0,-1"]
    )


def test_ball_facets(capsys):
    code, out, _ = run(capsys, "ball", "facets", "--dim", "2")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 6
    assert "upper(1) opposite lower(1)" in lines
    assert "diff(1,2) opposite diff(2,1)" in lines


def test_ball_hrep(capsys):
    code, out, _ = run(capsys, "ball", "hrep", "--dim", "2")
    assert code == 0
    assert "-1 <= x1 <= 1" in out.splitlines()
    assert "x1 - x2 >= -1" in out.splitlines()


def test_ball_decompose(capsys):
    code, out, _ = run(capsys, "ball", "decompose", "--point=-0.4,0.3")
    assert code == 0
    lines = dict(ln.split(": ", 1) for ln in out.splitlines())
    assert lines["orthant"] == "1"
    assert lines["minkowski"] == "0,0.7,0.4"
    assert float(lines["max_error"]) < 1e-12


def test_ball_decompose_outside(capsys):
    code, _, err = run(capsys, "ball", "decompose", "--point", "2,0")
    assert code == 1
    assert "outside" in err


def test_sphere_poles(capsys):
    code, out, _ = run(capsys, "sphere", "poles", "--point", "1,1")
    assert code == 0
    lines = out.splitlines()
    assert "facets: upper(1) upper(2)" in lines
    assert "d_plus: 0" in lines
    assert "d_minus: 3" in lines


def test_sphere_angle(capsys):
    code, out, _ = run(capsys, "sphere", "angle", "--v1", "1,0", "--v2", "0,1")
    assert (code, out) == (0, "2\n")


def test_sphere_distance(capsys):
    code, out, _ = run(capsys, "sphere", "distance", "--x", "1,0", "--y", "1,1")
    assert (code, out) == (0, "1\n")


def test_sphere_diametral(capsys):
    code, out, _ = run(capsys, "sphere", "diametral", "--p", "1,1", "--q=-1,-1")
    assert (code, out) == (0, "true\n")


def test_honeycomb_locate(capsys):
    code, out, _ = run(capsys, "honeycomb", "locate", "--point", "0.9,-0.4")
    assert code == 0
    lines = out.splitlines()
    assert "center: 1,-1" in lines
    assert "status: interior" in lines


@pytest.mark.parametrize(
    "fmt, prefix", [("text", "all_centers: "), ("records", "all_centers=")]
)
def test_honeycomb_locate_prints_large_centers_exactly(capsys, fmt, prefix):
    # three distinct centers a float rendering would print as 1e+17
    code, out, _ = run(capsys, "--format", fmt, "honeycomb", "locate", "--point", "1e17,3")
    assert code == 0
    want = "99999999999999999,3 100000000000000000,2 100000000000000001,4"
    assert prefix + want in out.splitlines()


def test_honeycomb_verify(capsys):
    code, out, _ = run(
        capsys, "--seed", "2", "honeycomb", "verify", "--dim", "2", "--samples", "2000", "--box", "4"
    )
    assert code == 0
    assert "mismatches: 0" in out.splitlines()
    _, again, _ = run(
        capsys, "--seed", "2", "honeycomb", "verify", "--dim", "2", "--samples", "2000", "--box", "4"
    )
    assert again == out


def test_honeycomb_verify_mismatch_exit_code(capsys, monkeypatch):
    def fake(n, box_halfwidth, samples, seed, eps):
        return honeycomb.TilingReport(
            n=n, samples=samples, box_halfwidth=box_halfwidth, seed=seed,
            interior=samples - 1, boundary=0, mismatches=1,
        )

    monkeypatch.setattr(tropgeo, "verify_tiling", fake)
    code, out, _ = run(capsys, "honeycomb", "verify", "--dim", "2", "--samples", "10")
    assert code == 3
    assert "mismatches: 1" in out.splitlines()


def test_honeycomb_verify_rejects_a_negative_seed(capsys):
    code, out, err = run(
        capsys, "--seed", "-1", "honeycomb", "verify", "--dim", "2", "--samples", "100"
    )
    assert (code, out) == (1, "")
    assert err.splitlines() == ["error: seed must be nonnegative"]
    assert "Traceback" not in err


def test_honeycomb_neighbors(capsys):
    code, out, _ = run(capsys, "honeycomb", "neighbors", "--center", "0,0")
    assert code == 0
    assert sorted(out.splitlines()) == sorted(
        ["2,1", "1,2", "-1,1", "1,-1", "-2,-1", "-1,-2"]
    )
    code, _, err = run(capsys, "honeycomb", "neighbors", "--center", "1,1")
    assert code == 1
    assert "lattice" in err


def test_honeycomb_basis(capsys):
    code, out, _ = run(capsys, "honeycomb", "basis", "--dim", "2")
    assert code == 0
    lines = out.splitlines()
    assert "basis: 1,-1" in lines
    assert "basis: 0,3" in lines
    assert "same_lattice: true" in lines


def test_plot2d_svg(tmp_path, capsys):
    out_file = tmp_path / "tiling.svg"
    code, _, _ = run(capsys, "honeycomb", "plot2d", "--box", "3", "--out", str(out_file))
    assert code == 0
    root = ET.fromstring(out_file.read_text())
    assert root.tag.endswith("svg")
    polys = [el for el in root.iter() if el.tag.endswith("polygon")]
    assert len(polys) >= 7


def test_plot2d_csv_to_stdout(capsys):
    code, out, _ = run(capsys, "--format", "csv", "honeycomb", "plot2d", "--box", "2")
    assert code == 0
    for line in out.strip().splitlines():
        assert len(line.split(",")) == 12


def test_csv_format_is_plot_only(capsys):
    code, _, err = run(capsys, "--format", "csv", "dist", "0,0", "1,1")
    assert code == 2
    assert "plot2d" in err


@pytest.mark.parametrize("radius", ["inf", "nan"])
def test_ball_hrep_rejects_a_radius_that_is_not_a_positive_real(capsys, radius):
    code, out, err = run(capsys, "ball", "hrep", "--dim", "2", "--radius", radius)
    assert (code, out) == (1, "")
    assert "radius must be a positive real" in err


def test_bad_eps_is_usage_error(capsys):
    for eps in ("-1", "nan", "0.25", "1e308"):
        code, _, err = run(capsys, "--eps", eps, "dist", "0,0", "1,1")
        assert code == 2
        assert "eps must be a positive real below 1/4" in err


def _box_error(command, box):
    """The library's message for a bad box: one check per command, in
    verify_tiling and hexagon_rings, and none in the CLI."""
    if command == "plot2d":
        return "box halfwidth must be finite and in [0, 100]"
    if box == "1e17":
        return "box halfwidth must be at most 2**53"
    return "box halfwidth must be finite and nonnegative"


@pytest.mark.parametrize("command", [["verify", "--dim", "2", "--samples", "100"], ["plot2d"]])
@pytest.mark.parametrize(
    "box",
    # each id names the property the box lacks
    [
        pytest.param("-1", id="-1-nonnegative"),
        pytest.param("nan", id="nan-finite"),
        pytest.param("inf", id="inf-finite"),
        pytest.param("-inf", id="-inf-finite"),
        pytest.param("1e17", id="1e17-bounded"),
    ],
)
def test_bad_box_is_usage_error(capsys, command, box):
    # the box goes to the library unchecked, and its DomainError exits 1
    code, out, err = run(capsys, "honeycomb", *command, "--box=" + box)
    assert (code, out) == (1, "")
    assert err == "error: %s\n" % _box_error(command[0], box)


def test_plot2d_rejects_a_box_above_100(capsys):
    for box in ("101", "1e9"):
        code, out, err = run(capsys, "honeycomb", "plot2d", "--box", box)
        assert (code, out) == (1, "")
        assert err == "error: %s\n" % _box_error("plot2d", box)


def test_dist_overflow_is_a_domain_error(capsys):
    # with --lp, dist is 1e308 and only the l1 distance overflows
    for argv in (["--", "1e308", "-1e308"], ["--lp", "1e308,1e308", "0,0"]):
        code, out, err = run(capsys, "dist", *argv)
        assert (code, out) == (1, ""), argv
        assert err == "error: the distance overflows float64\n", argv


def test_length_overflow_is_a_domain_error(capsys):
    # every piece is finite and only the sum overflows; the circle's first
    # level already does, where refining to the depth limit took over a minute
    for argv in (
        ["length", "0", "1e308", "1"],
        ["segment", "0,2.5,1e308", "1e308,3e307,1"],
        ["circle-length", "--radius", "3e307"],
        ["geodesic-check", "0", "1e308", "0"],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert err == "error: the distance overflows float64\n", argv


@pytest.mark.parametrize(
    "listing, dim, cap", [("vertices", "18", 17), ("facets", "20000", 800)],
    ids=["vertices", "facets"],
)
def test_ball_listing_above_its_cap_is_a_domain_error(capsys, listing, dim, cap):
    # one error line, before any record is built
    code, out, err = run(capsys, "ball", listing, "--dim", dim)
    assert (code, out) == (1, "")
    assert err == "error: %s are listed up to dimension %d, got %s\n" % (listing, cap, dim)


@pytest.mark.parametrize("dim", ["801", "9007199254740993"])
def test_ball_hrep_above_its_cap_is_a_domain_error(capsys, dim):
    # one error line, before the center is built, where a MemoryError
    # traceback was
    code, out, err = run(capsys, "ball", "hrep", "--dim", dim)
    assert (code, out) == (1, "")
    cap = "balls are written as bound systems up to dimension 800"
    assert err == "error: %s, got %s\n" % (cap, dim)


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "argv, library",
    [
        (["ball", "facets", "--dim", "200"], lambda: tropgeo.facets(200)),
        (["ball", "vertices", "--dim", "12"], lambda: tropgeo.vertices(12)),
        (["--format", "records", "ball", "hrep", "--dim", "100"],
         lambda: tropgeo.hrep(tropgeo.Ball((0.0,) * 100, 1.0))),
    ],
    ids=["facets", "vertices", "hrep"],
)
def test_a_listing_holds_little_more_than_its_library_result(monkeypatch, argv, library):
    # the records are written as they come; a list of them and their joined
    # text peaked at 3x to 7x the library result
    with open(os.devnull, "w") as sink:
        monkeypatch.setattr(sys, "stdout", sink)
        main(argv)  # loads every module the command runs, numpy for hrep
        lib = _traced_peak(library)
        cli_peak = _traced_peak(lambda: main(argv))
    assert cli_peak <= 1.5 * lib, (cli_peak, lib)


@pytest.mark.parametrize(
    "fmt, dim, first",
    [
        ("text", "300", b"upper(1) opposite lower(1)\n"),
        ("records", "300", b"op=facets\n"),
        # closed before the command writes, so the flush meets the closed pipe
        ("text", "3", None),
    ],
    ids=["text", "records", "closed-at-once"],
)
def test_a_closed_stdout_pipe_ends_a_listing_quietly(fmt, dim, first):
    # as ``| head -1`` does: the reader takes a line and closes the pipe
    # while the command still writes
    src = os.path.dirname(os.path.dirname(tropgeo.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    # stdout buffered, as it is by default, so that a short listing meets
    # the closed pipe only when it is flushed
    env.pop("PYTHONUNBUFFERED", None)
    with subprocess.Popen(
        [sys.executable, "-m", "tropgeo.cli", "--format", fmt, "ball", "facets", "--dim", dim],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    ) as proc:
        if first is not None:
            assert proc.stdout.readline() == first
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    assert proc.returncode == 0
    assert b"Traceback" not in err, err.decode()


@pytest.mark.parametrize(
    "argv, err",
    [
        (["honeycomb", "verify", "--dim", "22"], "tiling checks run up to dimension 21, got 22"),
        (["honeycomb", "verify", "--dim", "9007199254740993", "--samples", "1"],
         "tiling checks run up to dimension 21, got 9007199254740993"),
        (["honeycomb", "basis", "--dim", "9007199254740993"],
         "basis vectors are listed up to dimension 2800, got 9007199254740993"),
    ],
    ids=["verify", "verify-huge", "basis-huge"],
)
def test_honeycomb_dimension_above_its_cap_is_a_domain_error(capsys, argv, err):
    # one error line, where a MemoryError traceback was
    code, out, got = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert got == "error: %s\n" % err


def test_hull_overflow_is_a_domain_error(capsys):
    # a numpy overflow warning would also reach stderr
    code, out, err = run(capsys, "hull", "1e308,-1e308")
    assert (code, out) == (1, "")
    assert err == "error: coordinate differences overflow float64\n"


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "dist", "0,0", "abc")
    assert code == 2
    assert "error" in err


def test_domain_error_exit_code(capsys):
    code, _, err = run(capsys, "dist", "0,0", "1,2,3")
    assert code == 1
    assert "error" in err


def test_unknown_flag_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["dist", "--bogus", "0,0", "1,1"])
    assert exc.value.code == 2
    capsys.readouterr()


# The exact stdout and exit code of every leaf command, in the text and the
# records format.  "{simplex}" stands for a file holding SIMPLEX_POINTS.
SIMPLEX_POINTS = "0,0,0\n1,0,0\n1,1,0\n1,1,1\n"

GOLDEN = [
    ("text", "dist 0,0 1,2", 0, "2\n"),
    ("records", "dist 0,0 1,2", 0, "op=dist\nvalue=2\n"),
    ("text", "dist --lp 0,0 1,2", 0, "trop: 2\nl1: 3\nlinf: 2\n"),
    ("records", "dist --lp 0,0 1,2", 0, "op=dist\nvalue=2\nl1=3\nlinf=2\n"),
    ("text", "dist -- -3:-2:-1 0:0:0", 0, "2\n"),
    ("records", "dist -- -3:-2:-1 0:0:0", 0, "op=dist_proj\nvalue=2\n"),
    ("text", "norm -- -3,-2,1", 0, "4\n"),
    ("records", "norm -- -3,-2,1", 0, "op=norm\nvalue=4\n"),
    ("text", "norm -- -3:-2:-1", 0, "2\n"),
    ("records", "norm -- -3:-2:-1", 0, "op=norm_proj\nvalue=2\n"),
    ("text", "segment 0,0 1,2", 0,
     "apex: 0,0\nvertex: 0,0\nvertex: 1,1\nvertex: 1,2\nlength: 2\n"),
    ("records", "segment 0,0 1,2", 0,
     "op=segment\nmode=min\napex=0,0\nlength=2\n\n"
     "kind=vertex\nindex=0\npoint=0,0\n\n"
     "kind=vertex\nindex=1\npoint=1,1\n\n"
     "kind=vertex\nindex=2\npoint=1,2\n"),
    ("text", "segment 0,0 1,2 --mode max", 0,
     "apex: 1,2\nvertex: 0,0\nvertex: 0,1\nvertex: 1,2\nlength: 2\n"),
    ("records", "segment 0,0 1,2 --mode max", 0,
     "op=segment\nmode=max\napex=1,2\nlength=2\n\n"
     "kind=vertex\nindex=0\npoint=0,0\n\n"
     "kind=vertex\nindex=1\npoint=0,1\n\n"
     "kind=vertex\nindex=2\npoint=1,2\n"),
    ("text", "length 0,0 1,1 1,2", 0, "2\n"),
    ("records", "length 0,0 1,1 1,2", 0, "op=length\nvalue=2\n"),
    ("text", "circle-length --radius 1", 0, "6.828427124746191\n"),
    ("records", "circle-length --radius 1", 0,
     "op=circle-length\nradius=1\nvalue=6.828427124746191\n"),
    ("text", "circle-length --radius 2 --center 1,1 --tol 1e-3", 0,
     "13.656854249492381\n"),
    ("records", "circle-length --radius 2 --center 1,1 --tol 1e-3", 0,
     "op=circle-length\nradius=2\nvalue=13.656854249492381\n"),
    ("text", "geodesic-check 0,0 1,1 1,2", 0, "true\n"),
    ("records", "geodesic-check 0,0 1,1 1,2", 0, "op=geodesic-check\nresult=true\n"),
    ("text", "geodesic-check 0,0 1,0 0,1", 0, "false\n"),
    ("records", "geodesic-check 0,0 1,0 0,1", 0, "op=geodesic-check\nresult=false\n"),
    ("text", "between 0,0 1,1 1,2", 0, "true\n"),
    ("records", "between 0,0 1,1 1,2", 0, "op=between\nresult=true\n"),
    ("text", "hull 0,0 1,2", 0,
     "dim: 2\n0 <= x1 <= 1\n0 <= x2 <= 2\nx1 - x2 >= -1\nx2 - x1 >= 0\n"),
    ("records", "hull 0,0 1,2", 0,
     "op=region\ndim=2\n\n"
     "kind=bound\ni=1\nlower=0\nupper=1\n\n"
     "kind=bound\ni=2\nlower=0\nupper=2\n\n"
     "kind=diff\ni=1\nj=2\nlower=-1\n\n"
     "kind=diff\ni=2\nj=1\nlower=0\n"),
    ("text", "hull --file {simplex}", 0,
     "dim: 3\n0 <= x1 <= 1\n0 <= x2 <= 1\n0 <= x3 <= 1\nx1 - x2 >= 0\n"
     "x1 - x3 >= 0\nx2 - x1 >= -1\nx2 - x3 >= 0\nx3 - x1 >= -1\nx3 - x2 >= -1\n"),
    ("records", "hull --file {simplex}", 0,
     "op=region\ndim=3\n\n"
     "kind=bound\ni=1\nlower=0\nupper=1\n\n"
     "kind=bound\ni=2\nlower=0\nupper=1\n\n"
     "kind=bound\ni=3\nlower=0\nupper=1\n\n"
     "kind=diff\ni=1\nj=2\nlower=0\n\n"
     "kind=diff\ni=1\nj=3\nlower=0\n\n"
     "kind=diff\ni=2\nj=1\nlower=-1\n\n"
     "kind=diff\ni=2\nj=3\nlower=0\n\n"
     "kind=diff\ni=3\nj=1\nlower=-1\n\n"
     "kind=diff\ni=3\nj=2\nlower=-1\n"),
    ("text", "region-contains --file {simplex} --point 0.5,0.2,0.1", 0, "true\n"),
    ("records", "region-contains --file {simplex} --point 0.5,0.2,0.1", 0,
     "op=region-contains\nresult=true\n"),
    ("text", "region-contains --file {simplex} --point 0.1,0.5,0.2", 0, "false\n"),
    ("records", "region-contains --file {simplex} --point 0.1,0.5,0.2", 0,
     "op=region-contains\nresult=false\n"),
    ("text", "classify2d --a=-1 --a2=1 --b=-1 --b2=1 --c=-1 --c2=1", 0,
     "kind: polygon\nedges: x=a' y=b' y-x=c' x=a y=b y-x=c\nedge_count: 6\n"
     "canonical_id: 0\n"),
    ("records", "classify2d --a=-1 --a2=1 --b=-1 --b2=1 --c=-1 --c2=1", 0,
     "op=classify2d\nkind=polygon\nedges=x=a' y=b' y-x=c' x=a y=b y-x=c\n"
     "edge_count=6\ncanonical_id=0\n"),
    ("text", "classify2d --a 0 --a2 1 --b 0 --b2 1 --c 0 --c2 1", 0,
     "kind: polygon\nedges: y=b' x=a y-x=c\nedge_count: 3\ncanonical_id: 21\n"),
    ("records", "classify2d --a 0 --a2 1 --b 0 --b2 1 --c 0 --c2 1", 0,
     "op=classify2d\nkind=polygon\nedges=y=b' x=a y-x=c\nedge_count=3\n"
     "canonical_id=21\n"),
    ("text", "ball vertices --dim 2", 0, "0,1\n1,0\n1,1\n0,-1\n-1,0\n-1,-1\n"),
    ("records", "ball vertices --dim 2", 0,
     "op=vertices\ndim=2\ncount=6\n\n"
     "kind=vertex\nindex=0\npoint=0,1\n\n"
     "kind=vertex\nindex=1\npoint=1,0\n\n"
     "kind=vertex\nindex=2\npoint=1,1\n\n"
     "kind=vertex\nindex=3\npoint=0,-1\n\n"
     "kind=vertex\nindex=4\npoint=-1,0\n\n"
     "kind=vertex\nindex=5\npoint=-1,-1\n"),
    ("text", "ball facets --dim 2", 0,
     "upper(1) opposite lower(1)\nupper(2) opposite lower(2)\n"
     "lower(1) opposite upper(1)\nlower(2) opposite upper(2)\n"
     "diff(1,2) opposite diff(2,1)\ndiff(2,1) opposite diff(1,2)\n"),
    ("records", "ball facets --dim 2", 0,
     "op=facets\ndim=2\ncount=6\n\n"
     "kind=upper\ni=1\nopposite=lower(1)\n\n"
     "kind=upper\ni=2\nopposite=lower(2)\n\n"
     "kind=lower\ni=1\nopposite=upper(1)\n\n"
     "kind=lower\ni=2\nopposite=upper(2)\n\n"
     "kind=diff\ni=1\nopposite=diff(2,1)\nj=2\n\n"
     "kind=diff\ni=2\nopposite=diff(1,2)\nj=1\n"),
    ("text", "ball hrep --dim 2", 0,
     "dim: 2\n-1 <= x1 <= 1\n-1 <= x2 <= 1\nx1 - x2 >= -1\nx2 - x1 >= -1\n"),
    ("records", "ball hrep --dim 2", 0,
     "op=region\ndim=2\n\n"
     "kind=bound\ni=1\nlower=-1\nupper=1\n\n"
     "kind=bound\ni=2\nlower=-1\nupper=1\n\n"
     "kind=diff\ni=1\nj=2\nlower=-1\n\n"
     "kind=diff\ni=2\nj=1\nlower=-1\n"),
    ("text", "ball hrep --dim 2 --center 1,-1 --radius 2", 0,
     "dim: 2\n-1 <= x1 <= 3\n-3 <= x2 <= 1\nx1 - x2 >= 0\nx2 - x1 >= -4\n"),
    ("records", "ball hrep --dim 2 --center 1,-1 --radius 2", 0,
     "op=region\ndim=2\n\n"
     "kind=bound\ni=1\nlower=-1\nupper=3\n\n"
     "kind=bound\ni=2\nlower=-3\nupper=1\n\n"
     "kind=diff\ni=1\nj=2\nlower=0\n\n"
     "kind=diff\ni=2\nj=1\nlower=-4\n"),
    ("text", "ball decompose --point=-0.4,0.3", 0,
     "point: -0.4,0.3\northant: 1\northant_coords: omit=1 0.7,0.4\n"
     "minkowski: 0,0.7,0.4\ngenerators: -1,0 0,-1 1,1\n"
     "generator_coeffs: 0.6,1.3,0\nrecomposed: -0.4,0.30000000000000004\n"
     "max_error: 5.551115123125783e-17\n"),
    ("records", "ball decompose --point=-0.4,0.3", 0,
     "op=decompose\npoint=-0.4,0.3\northant=1\northant_omit=1\n"
     "orthant_values=0.7,0.4\nminkowski=0,0.7,0.4\ngenerators=-1,0 0,-1 1,1\n"
     "generator_coeffs=0.6,1.3,0\n"
     "recomposed=-0.4,0.30000000000000004\nmax_error=5.551115123125783e-17\n"),
    ("text", "ball decompose --point 2,0", 1, ""),
    ("records", "ball decompose --point 2,0", 1, ""),
    ("text", "sphere poles --point 1,1", 0,
     "point: 1,1\nfacets: upper(1) upper(2)\nd_plus: 0\nd_minus: 3\n"),
    ("records", "sphere poles --point 1,1", 0,
     "op=poles\npoint=1,1\nfacets=upper(1) upper(2)\nd_plus=0\nd_minus=3\n"),
    ("text", "sphere poles --point 0.2,1", 0,
     "point: 0.2,1\nfacets: upper(2)\nd_plus: 0.8\nd_minus: 2.2\n"),
    ("records", "sphere poles --point 0.2,1", 0,
     "op=poles\npoint=0.2,1\nfacets=upper(2)\nd_plus=0.8\nd_minus=2.2\n"),
    ("text", "sphere angle --v1 1,0 --v2 0,1", 0, "2\n"),
    ("records", "sphere angle --v1 1,0 --v2 0,1", 0, "op=angle\nvalue=2\n"),
    ("text", "sphere distance --x 1,0 --y 1,1", 0, "1\n"),
    ("records", "sphere distance --x 1,0 --y 1,1", 0, "op=sphere-distance\nvalue=1\n"),
    ("text", "sphere diametral --p 1,1 --q=-1,-1", 0, "true\n"),
    ("records", "sphere diametral --p 1,1 --q=-1,-1", 0, "op=diametral\nresult=true\n"),
    ("text", "honeycomb locate --point 0.9,-0.4", 0,
     "center: 1,-1\nstatus: interior\ndistance: 0.7\nall_centers: 1,-1\n"),
    ("records", "honeycomb locate --point 0.9,-0.4", 0,
     "op=locate\ncenter=1,-1\nstatus=interior\ndistance=0.7\nall_centers=1,-1\n"),
    # the decoder's distance is c - x rounded once: dist gives 0.3 too
    ("text", "honeycomb locate --point=-0.3", 0,
     "center: 0\nstatus: interior\ndistance: 0.3\nall_centers: 0\n"),
    ("records", "honeycomb locate --point=-0.3", 0,
     "op=locate\ncenter=0\nstatus=interior\ndistance=0.3\nall_centers=0\n"),
    ("text", "honeycomb locate --point 1,0", 0,
     "center: 2,1\nstatus: boundary\ndistance: 1\nall_centers: 0,0 1,-1 2,1\n"),
    ("records", "honeycomb locate --point 1,0", 0,
     "op=locate\ncenter=2,1\nstatus=boundary\ndistance=1\n"
     "all_centers=0,0 1,-1 2,1\n"),
    ("text", "--seed 2 honeycomb verify --dim 2 --samples 2000 --box 4", 0,
     "n: 2\nsamples: 2000\nbox: 4\nseed: 2\ninterior: 2000\nboundary: 0\n"
     "mismatches: 0\n"),
    ("records", "--seed 2 honeycomb verify --dim 2 --samples 2000 --box 4", 0,
     "op=verify\nn=2\nsamples=2000\nbox=4\nseed=2\ninterior=2000\nboundary=0\n"
     "mismatches=0\n"),
    ("text", "honeycomb neighbors --center 0,0", 0,
     "-2,-1\n-1,-2\n-1,1\n1,-1\n1,2\n2,1\n"),
    ("records", "honeycomb neighbors --center 0,0", 0,
     "op=neighbors\ncenter=0,0\ncount=6\n\n"
     "kind=neighbor\nindex=0\ncenter=-2,-1\n\n"
     "kind=neighbor\nindex=1\ncenter=-1,-2\n\n"
     "kind=neighbor\nindex=2\ncenter=-1,1\n\n"
     "kind=neighbor\nindex=3\ncenter=1,-1\n\n"
     "kind=neighbor\nindex=4\ncenter=1,2\n\n"
     "kind=neighbor\nindex=5\ncenter=2,1\n"),
    ("text", "honeycomb neighbors --center 1,1", 1, ""),
    ("records", "honeycomb neighbors --center 1,1", 1, ""),
    ("text", "honeycomb basis --dim 2", 0,
     "basis: 1,-1\nbasis: 0,3\nhex_basis: 2,1\nhex_basis: -1,1\n"
     "same_lattice: true\n"),
    ("records", "honeycomb basis --dim 2", 0,
     "op=basis\ndim=2\n\n"
     "kind=basis\nindex=0\nvector=1,-1\n\n"
     "kind=basis\nindex=1\nvector=0,3\n\n"
     "kind=hex_basis\nvector=2,1\n\n"
     "kind=hex_basis\nvector=-1,1\n\n"
     "kind=check\nsame_lattice=true\n"),
    ("text", "honeycomb basis --dim 3", 0,
     "basis: 1,-1,0\nbasis: 0,1,-1\nbasis: 0,0,4\n"),
    ("records", "honeycomb basis --dim 3", 0,
     "op=basis\ndim=3\n\n"
     "kind=basis\nindex=0\nvector=1,-1,0\n\n"
     "kind=basis\nindex=1\nvector=0,1,-1\n\n"
     "kind=basis\nindex=2\nvector=0,0,4\n"),
    ("text", "honeycomb plot2d --box 0.5", 0,
     "<svg xmlns=\"http://www.w3.org/2000/svg\" viewBox=\"-2.1 -2.1 4.2 4.2\" width=\"640\" height=\"640\">\n"
     "<rect x=\"-2.1\" y=\"-2.1\" width=\"4.2\" height=\"4.2\" fill=\"white\"/>\n"
     "<polygon points=\"1,-0 1,-1 0,-1 -1,-0 -1,1 0,1\" fill=\"#dbe7f3\" stroke=\"#444\" stroke-width=\"0.06\"/>\n"
     "<circle cx=\"0\" cy=\"0\" r=\"0.08\" fill=\"#444\"/>\n</svg>\n"),
    ("records", "honeycomb plot2d --box 0.5", 2, ""),
]


def golden_argv(tmp_path, fmt, command):
    simplex = tmp_path / "simplex.txt"
    simplex.write_text(SIMPLEX_POINTS)
    return ["--format", fmt, *(a.replace("{simplex}", str(simplex)) for a in command.split())]


@pytest.mark.parametrize(
    "fmt, command, code, stdout", GOLDEN, ids=["%s: %s" % (g[0], g[1]) for g in GOLDEN]
)
def test_golden_output(tmp_path, capsys, fmt, command, code, stdout):
    got_code, out, err = run(capsys, *golden_argv(tmp_path, fmt, command))
    assert (got_code, out) == (code, stdout)
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["ball decompose --point=-0.4,0.3", "ball facets --dim 3"])
def test_text_is_rendered_from_what_the_command_built(capsys, monkeypatch, command):
    # the command's whole text, which the goldens pin for decompose
    code, want, _ = run(capsys, *command.split())
    assert code == 0
    args = cli.build_parser().parse_args(command.split())
    head, items, text = args.handler(args)

    def rebuilt(*args, **kwargs):
        raise AssertionError("a renderer rebuilt what its command built")

    # no renderer parses a record, lists the generators or makes a facet
    monkeypatch.setattr(tropgeo, "neg_units", rebuilt)
    monkeypatch.setattr(tropgeo, "FacetId", rebuilt)
    monkeypatch.setattr(cli, "parse_point", rebuilt)
    assert "".join(line + "\n" for line in text(head, items)) == want


@pytest.mark.parametrize("fmt", ["text", "records"])
def test_ball_facets_makes_two_facet_ids_per_facet(capsys, monkeypatch, fmt):
    init, made = tropgeo.FacetId.__init__, []

    def spy(self, *args, **kwargs):
        made.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(tropgeo.FacetId, "__init__", spy)
    code, out, _ = run(capsys, "--format", fmt, "ball", "facets", "--dim", "3")
    # the 12 listed facets and their opposites, in either format
    assert (code, len(made)) == (0, 24)


def test_every_operation_is_reachable(tmp_path, capsys):
    # the code of every function the golden commands call
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for fmt, command, _, _ in GOLDEN:
            main(golden_argv(tmp_path, fmt, command))
    finally:
        sys.setprofile(previous)
    capsys.readouterr()
    unreached = {
        name
        for name in tropgeo.__all__
        if callable(op := getattr(tropgeo, name))
        # since Python 3.11 an alias such as `tuple[float, ...]` is no longer
        # an instance of `type`, so generic aliases are named here too
        and not isinstance(op, (type, types.GenericAlias))
        and getattr(op, "__code__", None) not in called
    }
    # every public operation runs under some command, except these library
    # helpers; `ball decompose` takes its outside-the-ball error from
    # minkowski_coeffs, so no command calls contains, and `sphere poles`
    # reads each facet's test from the point's max and min in facet_of, so
    # no command calls facet_contains; `ball vertices` lists through
    # vertices, which checks its cap and walks the vertices itself, so no
    # command calls iter_vertices
    assert unreached == {
        "canon", "orthant_to_projective", "polyline_evaluator", "unit_ball", "contains",
        "facet_contains", "iter_vertices",
    }


def test_goldens_cover_every_command_in_both_formats():
    # a command added to the table without goldens fails here
    covered = {(fmt, cli._named_path(command.split())) for fmt, command, _, _ in GOLDEN}
    rows = {(fmt, path) for path, *_ in cli.COMMANDS for fmt in ("text", "records")}
    assert rows - covered == set()


def outcome(capsys, call):
    """The exit code, stdout and stderr of call(), which may exit."""
    try:
        code = call()
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


HELP_ARGVS = [["--help"], *([group, "--help"] for group in cli.GROUPS),
              *([*path, "--help"] for path, *_ in cli.COMMANDS)]
USAGE_ERRORS = [
    ["--eps", "abc", "dist", "0,0", "1,2"], ["bogus"], ["honeycomb", "bogus"], [], ["ball"],
    ["dist", "0,0"],
    # a command name after a help flag or a bad command is not the command
    ["-h", "dist"], ["bogus", "dist"], ["--format", "dist", "0,0", "1,2"],
]


@pytest.mark.parametrize("argv", HELP_ARGVS + USAGE_ERRORS, ids=lambda a: " ".join(a) or "none")
def test_main_prints_help_and_usage_errors_as_the_full_parser(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    full = outcome(capsys, lambda: cli.build_parser().parse_args(argv))
    assert full[0] in (0, 2)
    assert outcome(capsys, lambda: main(argv)) == full


def test_a_named_command_builds_one_leaf_parser(capsys, monkeypatch):
    built = []
    add_parser = argparse._SubParsersAction.add_parser

    def spy(self, name, **kwargs):
        built.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", spy)
    assert main(["honeycomb", "locate", "--point", "1,0"]) == 0
    capsys.readouterr()
    assert built == ["honeycomb", "locate"]
