import re
from xml.dom import minidom

import pytest

from boostcycles.figures import _NOT_XML, save_figure


def chart(tmp_path, edges, refs=(), title="edges", last=None):
    """The SVG text save_figure writes for these edges."""
    path = tmp_path / "f.svg"
    save_figure(edges, str(path), title, refs, last)
    return path.read_text(encoding="utf-8")


def test_deterministic_bytes(tmp_path):
    edges, refs = [0.3, 0.5, 0.61], [(0.618, "golden")]
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    save_figure(edges, str(a), "edges", refs)
    save_figure(edges, str(b), "edges", refs)
    assert a.read_bytes() == b.read_bytes()


def test_data_table_embedded(tmp_path):
    edges = [0.3333333333333333, 0.49999999999999994]
    svg = chart(tmp_path, edges)
    assert "<!-- data" in svg
    for t, y in enumerate(edges):
        assert f"{float(t)!r},{y!r}" in svg


def test_reference_line_labeled(tmp_path):
    svg = chart(tmp_path, [0.3, 0.7], [(0.618, "(sqrt(5)-1)/2")])
    assert "(sqrt(5)-1)/2" in svg
    assert "stroke-dasharray" in svg


def test_single_point_valid(tmp_path):
    svg = chart(tmp_path, [0.5])
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")


def test_empty_rejected(tmp_path):
    with pytest.raises(ValueError):
        save_figure([], str(tmp_path / "f.svg"), "edges")
    assert not (tmp_path / "f.svg").exists()


def test_axis_labels_and_title(tmp_path):
    svg = chart(tmp_path, [1.0, 2.0])
    assert ">edges<" in svg and ">iteration<" in svg and ">edge<" in svg


def test_last_steps_only(tmp_path):
    svg = chart(tmp_path, [0.1, 0.2, 0.3, 0.4], last=2)
    assert "2.0,0.3" in svg and "3.0,0.4" in svg and "1.0,0.2" not in svg


def test_text_is_escaped(tmp_path):
    svg = chart(tmp_path, [0.3, 0.7], [(0.5, "a<b & c>d")], title="R&D <edges>")
    texts = [node.firstChild.data for node in minidom.parseString(svg).getElementsByTagName("text")]
    assert texts[0] == "R&D <edges>" and texts[-1] == "a<b & c>d"
    assert "ref: a<b & c>d = 0.5" in svg  # the data table keeps the label as given

    # each character XML 1.0 cannot hold becomes U+FFFD, in the text and in
    # the data table
    cases = [
        ("a\x01b", "a\ufffdb"),  # a C0 control
        ("\x1c1/2", "\ufffd1/2"),  # Fraction reads \x1c as whitespace
        ("a\udcffb", "a\ufffdb"),  # a lone surrogate, as a non-UTF-8 argv byte decodes
        ("\ufffe\uffff", "\ufffd\ufffd"),
        ("tab\tkept", "tab\tkept"),
    ]
    for given, shown in cases:
        svg = chart(tmp_path, [0.3, 0.7], [(0.5, given)], title=given)
        texts = [node.firstChild.data for node in minidom.parseString(svg).getElementsByTagName("text")]
        assert texts[0] == shown and texts[-1] == shown, given
        assert f"ref: {shown} = 0.5" in svg, given
    # a `--` would end the data comment early
    svg = chart(tmp_path, [0.3, 0.7], [(0.5, "a--b---c")])
    assert minidom.parseString(svg).getElementsByTagName("text")[-1].firstChild.data == "a--b---c"
    assert "ref: a- -b- - -c = 0.5" in svg


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


def test_not_xml_class_is_the_complement_of_what_xml_holds():
    # the class of what XML 1.0 cannot hold, against the complement of the
    # XML Char production, at every range boundary of either and one beside it
    xml_char = re.compile("[\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")
    bounds = (0x00, 0x08, 0x09, 0x0A, 0x0B, 0x0C, 0x0D, 0x0E, 0x1F, 0x20, 0xD7FF, 0xD800,
              0xDFFF, 0xE000, 0xFFFD, 0xFFFE, 0xFFFF, 0x10000, 0x10FFFF)
    points = {c + d for c in bounds for d in (-1, 0, 1) if 0 <= c + d <= 0x10FFFF}
    for c in sorted(points):
        assert bool(_NOT_XML.fullmatch(chr(c))) == (not xml_char.fullmatch(chr(c))), hex(c)
