import pytest

from boostcycles.figures import FigureSpec, render_line_chart, save_figure


def spec_with(points, refs=()):
    return FigureSpec(
        title="edges",
        x_label="iteration",
        y_label="edge",
        series=(("edge", tuple(points)),),
        ref_lines=tuple(refs),
    )


def test_deterministic_bytes(tmp_path):
    spec = spec_with([(0, 0.3), (1, 0.5), (2, 0.61)], [(0.618, "golden")])
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    save_figure(spec, str(a))
    save_figure(spec, str(b))
    assert a.read_bytes() == b.read_bytes()


def test_data_table_embedded():
    points = [(0, 0.3333333333333333), (1, 0.49999999999999994)]
    svg = render_line_chart(spec_with(points))
    assert "<!-- data" in svg
    for x, y in points:
        assert f"{x!r},{y!r}" in svg


def test_reference_line_labeled():
    svg = render_line_chart(spec_with([(0, 0.3), (1, 0.7)], [(0.618, "(sqrt(5)-1)/2")]))
    assert "(sqrt(5)-1)/2" in svg
    assert "stroke-dasharray" in svg


def test_single_point_valid():
    svg = render_line_chart(spec_with([(0, 0.5)]))
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")


def test_empty_rejected():
    with pytest.raises(ValueError):
        render_line_chart(spec_with([]))


def test_axis_labels_and_title():
    svg = render_line_chart(spec_with([(0, 1.0), (5, 2.0)]))
    assert ">edges<" in svg and ">iteration<" in svg and ">edge<" in svg


def test_ticks_below_the_spacing_of_doubles(run_python, tmp_path):
    # a range one double wide: the step cannot move the value, and the
    # ticks end instead of repeating one value until memory runs out (in a
    # child process under time and memory limits, so that a regression
    # fails here rather than hangs)
    done = run_python(
        "import math\n"
        "from boostcycles.figures import _ticks\n"
        "x = 0.6180339887498949\n"
        "print(_ticks(x, math.nextafter(x, 1)), _ticks(x, x + 1e-15), _ticks(0.3, 0.7))\n",
        tmp_path,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "(0.61803398875,) (0.61803398875,) (0.3, 0.4, 0.5, 0.6, 0.7)\n"


def test_plot_of_a_converged_float_run(run_python, tmp_path):
    # the last 50 edges of a 5000-step float run on the 3-point pool differ
    # by about 1e-16, and plotting them ends
    (tmp_path / "p3.pool").write_text("-++\n+-+\n++-\n")
    done = run_python(
        "import sys\n"
        "from boostcycles.cli import main\n"
        "sys.exit(main(['run', '--pool', 'p3.pool', '--rule', 'optimal', '--iters', '5000', '--mode', 'float',"
        " '--out', 't.json']) or main(['plot', 't.json', '--out', 'p.svg', '--last', '50']))\n",
        tmp_path,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    svg = (tmp_path / "p.svg").read_text()
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
